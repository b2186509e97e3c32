"""Independent oracles for the benchmark's correctness checks.

Nothing here imports loopcert.  Each oracle either computes the expected
value by a route the program does not take (generating functions from the
exponents of each type, mpmath's own quadrature and numerical
differentiation) or tests a property the mathematics guarantees.  Every
``check_*`` function returns a list of problems; an empty list means the
value passed.
"""

from __future__ import annotations

from fractions import Fraction as Q

from mpmath import mp

# Exponents of the finite Weyl group of each type (Bourbaki, Planches).
_EXPONENTS = {
    "E6": (1, 4, 5, 7, 8, 11),
    "E7": (1, 5, 7, 9, 11, 13, 17),
    "E8": (1, 7, 11, 13, 17, 19, 23, 29),
    "F4": (1, 5, 7, 11),
    "G2": (1, 5),
}

# C1 = max over roots of 2/(alpha, alpha) with long roots of squared length 2:
# the squared ratio of long to short root lengths.
_C1 = {"A": 1, "B": 2, "C": 2, "D": 1, "E": 1, "F": 2, "G": 3}


def exponents(label: str) -> tuple[int, ...]:
    series, rank = label[0].upper(), int(label[1:])
    if label.upper() in _EXPONENTS:
        return _EXPONENTS[label.upper()]
    if series == "A":
        return tuple(range(1, rank + 1))
    if series in "BC":
        return tuple(range(1, 2 * rank, 2))
    if series == "D":
        return tuple(sorted(tuple(range(1, 2 * rank - 2, 2)) + (rank - 1,)))
    raise ValueError(f"no exponents for {label}")


def _series_product(factors, max_len: int) -> list[int]:
    out = [1] + [0] * max_len
    for factor in factors:
        nxt = [0] * (max_len + 1)
        for i, a in enumerate(out):
            if a:
                for j, b in enumerate(factor[: max_len + 1 - i]):
                    nxt[i + j] += a * b
        out = nxt
    return out


def _geometric(step: int, max_len: int) -> list[int]:
    """Coefficients of 1/(1 - q^step) up to q^max_len."""
    return [1 if k % step == 0 else 0 for k in range(max_len + 1)]


def kostant_counts(label: str, max_len: int) -> list[int]:
    """Minimal coset representatives per length: coefficients of prod 1/(1-q^e_i)."""
    return _series_product([_geometric(e, max_len) for e in exponents(label)], max_len)


def bott_counts(label: str, max_len: int) -> list[int]:
    """Affine Weyl group elements per length (Bott's formula):
    coefficients of prod (1 + q + ... + q^e_i) / (1 - q^e_i)."""
    factors = []
    for e in exponents(label):
        factors.append([1] * (e + 1))
        factors.append(_geometric(e, max_len))
    return _series_product(factors, max_len)


def c1_expected(label: str) -> Q:
    return Q(_C1[label[0].upper()])


def sigma_hat_quad(r: Q, dps: int = 60):
    """2 * int_0^1 sigma(x) cos(2 pi r x) dx by mpmath's Gauss-Legendre
    quadrature, with [0, 1] cut into pieces of width about 1/(4r)."""
    with mp.workdps(dps):
        rr = mp.mpf(r.numerator) / r.denominator
        pieces = max(1, int(mp.ceil(4 * rr)))
        points = [mp.mpf(k) / pieces for k in range(pieces + 1)]
        f = lambda x: mp.exp(-1 / (1 - x * x)) * mp.cos(2 * mp.pi * rr * x) if x < 1 else mp.zero
        return 2 * mp.quad(f, points, method="gauss-legendre")


def _sigma(x):
    return mp.exp(-1 / (1 - x * x)) if abs(x) < 1 else mp.zero


def l1_norm_total_variation(n: int, dps: int = 45):
    """ln ||sigma^(n)||_1 on (-1, 1) as the total variation of sigma^(n-1).

    The sign changes of sigma^(n) on (0, 1) are bracketed on a grid and
    polished with ``findroot``; derivatives come from ``mpmath.diff``.
    |sigma^(n)| is even, so the total is twice the variation on [0, 1].
    """
    if n < 1:
        raise ValueError("total variation needs n >= 1")
    with mp.workdps(dps):
        g = lambda x: mp.diff(_sigma, x, n)
        grid = [mp.mpf(k) / 512 for k in range(1, 512)]
        points = [mp.zero]
        prev_x, prev_v = grid[0], g(grid[0])
        for x in grid[1:]:
            v = g(x)
            if (v > 0) != (prev_v > 0):
                points.append(mp.findroot(g, (prev_x, x), solver="anderson"))
            prev_x, prev_v = x, v
        values = [mp.diff(_sigma, x, n - 1) for x in points] + [mp.zero]
        half = mp.fsum(abs(b - a) for a, b in zip(values, values[1:]))
        return mp.log(2 * half)


def l2_norm_sigma(dps: int = 45):
    """||sigma||_2 on (-1, 1) by tanh-sinh quadrature of sigma^2."""
    with mp.workdps(dps):
        return mp.sqrt(2 * mp.quad(lambda x: _sigma(x) ** 2, [0, mp.mpf(1) / 2, 1]))


def conversion_objective(c: Q, big_c: Q, y: Q, n: int, dps: int = 40):
    """ln(c y^{-n} (C n)^{C n}), the bound the conversion minimises over n."""
    with mp.workdps(dps):
        cc = mp.mpf(big_c.numerator) / big_c.denominator
        return (mp.log(mp.mpf(c.numerator) / c.denominator) - n * mp.log(mp.mpf(y.numerator) / y.denominator)
                + cc * n * mp.log(cc * n))


def _mpf(x):
    return mp.mpf(x) if isinstance(x, str) else x


# ---------------------------------------------------------------------------
# checks: each returns a list of problems


def check_census(label: str, max_len: int, full, kostant) -> list[str]:
    problems = []
    if list(full) != bott_counts(label, max_len):
        problems.append(f"{label}: census {list(full)} != Bott series {bott_counts(label, max_len)}")
    if list(kostant) != kostant_counts(label, max_len):
        problems.append(f"{label}: Kostant census {list(kostant)} != {kostant_counts(label, max_len)}")
    return problems


def check_length_identities(label: str, max_len: int, records) -> list[str]:
    """records: (bfs_depth, im_length, scan_roots, word_roots) per element."""
    problems = []
    per_length = [0] * (max_len + 1)
    for depth, im_length, scan_roots, word_roots in records:
        per_length[depth] += 1
        if not im_length == depth == len(scan_roots):
            problems.append(f"{label}: IM length {im_length}, BFS depth {depth}, |inverted set| {len(scan_roots)}")
        if tuple(scan_roots) != tuple(word_roots):
            problems.append(f"{label}: word-path and scan-path inverted sets differ at length {depth}")
    if per_length != bott_counts(label, max_len):
        problems.append(f"{label}: enumerated {per_length} elements per length, Bott series says otherwise")
    return problems[:5]


def check_c1(label: str, c1: str) -> list[str]:
    if Q(c1) != c1_expected(label):
        return [f"{label}: C1 = {c1}, expected {c1_expected(label)}"]
    return []


def check_no_violations(report: dict) -> list[str]:
    problems = []
    if report.get("violations"):
        problems.append(f"{len(report['violations'])} violations, first {report['violations'][0]}")
    if report.get("failures"):
        problems.append(f"{len(report['failures'])} report failures, first {report['failures'][0]}")
    return problems


def check_kostant_checked(label: str, max_len: int, checked: int) -> list[str]:
    want = sum(kostant_counts(label, max_len))
    return [] if checked == want else [f"{label}: {checked} Kostant elements checked, expected {want}"]


def check_audit_inputs(report: dict, r: str, t: str) -> list[str]:
    """The audit must compute with the r and t it was asked for."""
    got = (report["constants"].get("r"), report["constants"].get("t"))
    return [] if got == (r, t) else [f"audit asked for r={r}, t={t} but computed with r={got[0]}, t={got[1]}"]


def check_certificate(label: str, max_len: int, report: dict) -> list[str]:
    problems = []
    if report["verdict"] != "DECAYING":
        problems.append(f"{label}: verdict {report['verdict']} ({report.get('verdict_failures')})")
    stab = report["stabilized_at"]
    if stab is None or stab >= max_len:
        problems.append(f"{label}: partial sums stabilized at {stab}, not before max_len {max_len}")
    counts = [shell["count"] for shell in report["shells"]]
    if counts != kostant_counts(label, max_len):
        problems.append(f"{label}: shell counts {counts} != Kostant series {kostant_counts(label, max_len)}")
    return problems


def check_duality(pairs) -> list[str]:
    """pairs: (<lam, w X>, <w^{-1} lam, X>) per sample; equal exactly."""
    bad = sum(1 for lhs, rhs in pairs if lhs != rhs)
    return [f"action duality fails on {bad} of {len(pairs)} samples"] if bad else []


def check_sigma_hat(r: Q, value, oracle_value, tol: str = "1e-45") -> list[str]:
    with mp.workdps(80):
        err = abs(mp.mpf(value) - oracle_value)
        if not err <= mp.mpf(tol):
            return [f"sigma_hat({r}) off the quadrature oracle by {mp.nstr(err, 5)}"]
    return []


def check_fit(exponent_coeff: str) -> list[str]:
    with mp.workdps(30):
        target = mp.sqrt(2 * mp.pi)
        rel = abs(mp.mpf(exponent_coeff) - target) / target
        return [] if rel <= mp.mpf("0.10") else [f"fit exponent {exponent_coeff} is {mp.nstr(rel, 3)} off sqrt(2 pi)"]


def check_parseval(lhs, rhs, rhs_oracle) -> list[str]:
    """Transform side within 1e-6 of the independently integrated ||sigma||_2,
    and the program's own physical side agreeing with that integral."""
    problems = []
    with mp.workdps(60):
        rel = abs(lhs - rhs_oracle) / rhs_oracle
        if not rel <= mp.mpf("1e-6"):
            problems.append(f"Parseval relative gap {mp.nstr(rel, 4)} > 1e-6")
        rel_rhs = abs(rhs - rhs_oracle) / rhs_oracle
        if not rel_rhs <= mp.mpf("1e-30"):
            problems.append(f"||sigma||_2 = {mp.nstr(rhs, 20)} off the quadrature oracle by {mp.nstr(rel_rhs, 4)}")
    return problems


def check_unit_norm(ln_norm: str) -> list[str]:
    """||sigma'||_1 = 2/e: sigma falls monotonically from 1/e to 0 on [0, 1)."""
    with mp.workdps(50):
        target = 2 / mp.e
        rel = abs(mp.exp(mp.mpf(ln_norm)) - target) / target
        return [] if rel <= mp.mpf("1e-9") else [f"||sigma'||_1 off 2/e by {mp.nstr(rel, 4)}"]


def check_close(what: str, got, want, tol: str) -> list[str]:
    with mp.workdps(60):
        err = abs(_mpf(got) - _mpf(want))
        return [] if err <= mp.mpf(tol) else [f"{what}: {mp.nstr(_mpf(got), 25)} vs {mp.nstr(_mpf(want), 25)}"]


def check_ratio_chain(ln_norms: dict) -> list[str]:
    """ln||sigma^(N)||_1 - 2N ln(2N) never exceeds its N = 1 value."""
    with mp.workdps(50):
        ratios = {n: _mpf(v) - 2 * n * mp.log(2 * n) for n, v in ln_norms.items()}
        base = ratios[1] + mp.mpf("1e-12")
        return [f"(2N)^2N ratio at N={n} exceeds the N=1 value" for n, v in sorted(ratios.items()) if v > base]


def check_log_convex(norms: dict) -> list[str]:
    """||f^(n)||_2^2 <= ||f^(n-1)||_2 ||f^(n+1)||_2 (integrate by parts, then
    Cauchy-Schwarz; sigma vanishes to all orders at +-1)."""
    problems = []
    with mp.workdps(60):
        for n in sorted(norms):
            if n - 1 in norms and n + 1 in norms:
                if not norms[n] ** 2 <= norms[n - 1] * norms[n + 1] * (1 + mp.mpf("1e-30")):
                    problems.append(f"||sigma^({n})||_2 breaks log-convexity")
    return problems


def check_conversion(c: Q, big_c: Q, y: Q, report: dict) -> list[str]:
    problems = []
    n = report["best_n"]
    with mp.workdps(40):
        g = conversion_objective(c, big_c, y, n)
        if not (g <= conversion_objective(c, big_c, y, n + 1) and (n == 1 or g <= conversion_objective(c, big_c, y, n - 1))):
            problems.append(f"best_n = {n} is not a local minimum of the bound")
        if not abs(mp.mpf(report["ln_bound"]) - g) <= abs(g) * mp.mpf("1e-15"):
            problems.append(f"ln_bound {report['ln_bound']} != objective {mp.nstr(g, 20)} at best_n")
        dev = abs(mp.mpf(report["asymptote_ratio"]) + mp.exp(-1)) * mp.e
        if not dev <= mp.mpf("0.02"):
            problems.append(f"asymptote ratio {report['asymptote_ratio']} is {mp.nstr(dev, 3)} off -1/e")
    return problems
