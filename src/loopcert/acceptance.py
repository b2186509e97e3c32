"""The acceptance gate: one callable per criterion, shared by the test suite
and the reproduce-all CLI driver.  Each criterion returns (ok, detail) and is
expected to finish inside its stated budget on commodity hardware.

Budgets and tolerances are frozen here; nothing is deferred to runtime
calibration.  The certificate parameters for criterion 6 are the tuned
defaults recorded in the README (A1: r=16, d minimal; A2: r=80, d minimal+1).
"""

from __future__ import annotations

import random
import time
from fractions import Fraction as Q
from functools import lru_cache

from mpmath import mp

from . import convergence as conv
from . import decay
from . import inequalities as ineq
from . import weyl
from .affine import AffineWeight, CartanElement
from .cartan import Weight, build_root_system_label
from .linalg import vec
from .reports import derive_seed

LENGTH_SWEEPS = [("A1", 40), ("A2", 12), ("C2", 12), ("G2", 12)]
DUAL_COXETER_TABLE = {"A1": 2, "A2": 3, "D4": 6, "E8": 30}
CERT_SETTINGS = {"A1": {"max_len": 40, "r": Q(16), "slack": 1}, "A2": {"max_len": 14, "r": Q(80), "slack": 2}}


def _enumerated(label: str, max_len: int):
    rs = build_root_system_label(label)
    return rs, weyl.enumerate_by_length(rs, max_len)


def criterion_1_length_formulas(seed: int, prec: int) -> tuple[bool, str]:
    """IM length == BFS depth == |inverted set| for every enumerated element."""
    checked = 0
    for label, max_len in LENGTH_SWEEPS:
        rs, layers = _enumerated(label, max_len)
        for depth, layer in enumerate(layers):
            for w in layer:
                if weyl.length_im(rs, w) != depth:
                    return False, f"{label}: IM length != BFS depth at {w.b}, {w.tilde}"
                if len(weyl.inverted_roots_scan(rs, w).roots) != depth:
                    return False, f"{label}: |inverted set| != depth at {w.b}"
                checked += 1
    return True, f"{checked} elements over {[f'{t}<= {m}' for t, m in LENGTH_SWEEPS]}"


def criterion_2_kappa_bound(seed: int, prec: int) -> tuple[bool, str]:
    """kappa_i(w^{-1}) <= l(w)+1 on every Kostant element; the rank-1 tight
    case (generator w_2, kappa = 2 = l+1) must appear among the extremals."""
    tight_a1 = False
    total_tight = 0
    for label, max_len in LENGTH_SWEEPS:
        rs = build_root_system_label(label)
        rep = ineq.verify_lemma23(rs, max_len)
        if not rep.ok:
            return False, f"{label}: {rep.violations[:2]}"
        total_tight += len(rep.extremal_cases)
        if label == "A1":
            for case in rep.extremal_cases:
                if case["kappa"] == 2 and case["w"]["length"] == 1:
                    tight_a1 = True
    if not tight_a1:
        return False, "tight case (A1 generator, kappa = 2) missing from the report"
    return True, f"zero violations; {total_tight} tight cases incl. A1 generator"


def criterion_3_flipped_shape(seed: int, prec: int) -> tuple[bool, str]:
    """Every flipped root of a Kostant element is beta + n iota, beta > 0, n < 0."""
    checked = 0
    for label, max_len in LENGTH_SWEEPS:
        rs = build_root_system_label(label)
        rep = ineq.verify_lemma351(rs, max_len)
        if not rep.ok:
            return False, f"{label}: {rep.violations[:2]}"
        checked += rep.records[0]["kostant_checked"]
    return True, f"exhaustive over {checked} Kostant elements, zero violations"


@lru_cache(maxsize=1)
def _audit_a2(seed: int) -> ineq.InequalityReport:
    """Criteria 4 and 5 share one audit run (the corollary pass rides along)."""
    return ineq.run_audit(build_root_system_label("A2"), 8, 1000, 100, seed=seed, with_corollary=True)


def criterion_4_theorem_audit(seed: int, prec: int) -> tuple[bool, str]:
    """Sign and growth inequalities over affine A2, length <= 8, with
    C1 = 1 (simply-laced) and empirically extracted C2, C3."""
    rep = _audit_a2(seed)
    sign_growth = [v for v in rep.violations if not v["check"].startswith("cor34")]
    if sign_growth:
        return False, f"violations: {sign_growth[:3]}"
    if rep.constants["C1"] != "1":
        return False, f"C1 = {rep.constants['C1']} but A2 is simply-laced"
    return True, (
        f"zero violations over {rep.records[0]['kostant_checked']} Kostant elements; "
        f"C2 = {rep.constants['C2']}, C3 = {float(Q(rep.constants['C3'])):.4g}"
    )


def criterion_5_corollary(seed: int, prec: int) -> tuple[bool, str]:
    """Composite bound x >= D y^{-1/(C(l+1))} with the extracted constants."""
    rep = _audit_a2(seed)
    cor = [v for v in rep.violations if v["check"].startswith("cor34")]
    if cor:
        return False, f"violations: {cor[:3]}"
    margin = next(c["margin"] for c in rep.extremal_cases if c["kind"] == "cor34_worst_margin")
    return True, f"zero violations; worst exact log-domain margin = {float(Q(margin)):.4g}"


def criterion_6_certificates(seed: int, prec: int) -> tuple[bool, str]:
    """Shell maxima eventually decreasing (lag-2) and partial sums stable to
    six digits before max_len, for re_nu in {-10, 0, 2 h_dual}."""
    details = []
    for label, cfg in CERT_SETTINGS.items():
        rs = build_root_system_label(label)
        two_h = 2 * rs.dual_coxeter
        for re_nu in (Q(-10), Q(0), Q(two_h)):
            params = conv.default_params(rs, r=cfg["r"], re_nu=re_nu, slack=cfg["slack"])
            rep = conv.certify(rs, params, cfg["max_len"], prec=max(prec, 256))
            if rep["verdict"] != "DECAYING":
                return False, f"{label} re_nu={re_nu}: verdict {rep['verdict']} ({rep['verdict_failures'][:4]})"
            if rep["stabilized_at"] is None or rep["stabilized_at"] > cfg["max_len"] - 2:
                return False, f"{label} re_nu={re_nu}: partial sums not stable (at {rep['stabilized_at']})"
            details.append(f"{label}@{re_nu}: stab {rep['stabilized_at']}")
    return True, "; ".join(details)


def criterion_7_decay_suite(seed: int, prec: int) -> tuple[bool, str]:
    """One-variable suite at 256-bit precision; see the module docstrings for
    the norm certificate and quadrature contracts."""
    prec = max(prec, 256)
    with mp.workprec(prec + 64):
        # ||sigma'||_1 = 2/e to 1e-9
        l1 = decay.l1_norm(1, prec)
        norm1 = l1["norm"]
        target = 2 / mp.exp(1)
        if abs(norm1 - target) / target > mp.mpf("1e-9"):
            return False, f"||sigma'||_1 = {mp.nstr(norm1, 15)} != 2/e"
        # ratio chain bounded by its N=1 value
        base = l1["ln"] - 2 * mp.log(2)
        for n in range(2, 21):
            ratio = decay.l1_norm(n, prec)["ln"] - 2 * n * mp.log(2 * n)
            if ratio > base + mp.mpf("1e-12"):
                return False, f"norm ratio at N={n} exceeds the N=1 value"
        # Fourier envelope exponent within 10% of sqrt(2 pi)
        fit = decay.fourier_decay_fit(50, 400, 8, prec)
        tgt = mp.sqrt(2 * mp.pi)
        fit_rel = abs(fit["exponent_coeff"] - tgt) / tgt
        if fit_rel > mp.mpf("0.10"):
            return False, f"Fourier exponent {mp.nstr(fit['exponent_coeff'], 8)} off by {mp.nstr(fit_rel, 3)}"
        # Parseval chain at N = 4 to 1e-6 relative
        pv = decay.parseval_check(4, prec)
        if pv["rel_diff"] > mp.mpf("1e-6"):
            return False, f"Parseval mismatch {mp.nstr(pv['rel_diff'], 4)}"
        # conversion asymptote within 2% at y = e^20
        y20 = Q(mp.nstr(mp.exp(20), 30, strip_zeros=False)).limit_denominator(10**12)
        convr = decay.moment_to_pointwise(Q(1), Q(1), y20, prec)
        ratio = convr["asymptote_ratio"]
        dev = abs(ratio + mp.exp(-1)) * mp.exp(1)
        if dev > mp.mpf("0.02"):
            return False, f"conversion asymptote ratio {mp.nstr(ratio, 8)} off by {mp.nstr(dev, 3)}"
    return True, (
        f"2/e to {mp.nstr(abs(norm1 - target) / target, 2)}; fit rel {mp.nstr(fit_rel, 2)}; "
        f"Parseval rel {mp.nstr(pv['rel_diff'], 2)}; asymptote dev {mp.nstr(dev, 2)}"
    )


def criterion_8_cross_oracles(seed: int, prec: int) -> tuple[bool, str]:
    """Dual Coxeter numbers two ways (the rho pairing and the comark table)
    vs the frozen table; word-path vs scan-path inverted sets; action duality
    on random pairs."""
    for label, expected in DUAL_COXETER_TABLE.items():
        rs = build_root_system_label(label)
        a, b = conv.dual_coxeter(rs), rs.dual_coxeter
        if not a == b == expected:
            return False, f"dual Coxeter mismatch for {label}: {a}, {b} != {expected}"
    pairs = 0
    for label, max_len in [("A1", 40), ("A2", 10), ("C2", 8), ("G2", 8)]:
        rs, layers = _enumerated(label, max_len)
        for layer in layers:
            for w in layer:
                aset = weyl.inverted_roots_word(rs, w).roots
                bset = weyl.inverted_roots_scan(rs, w).roots
                if aset != bset:
                    return False, f"{label}: inverted-set mismatch at {w.b}"
                pairs += 1
    rs, layers = _enumerated("A2", 8)
    elements = [w for layer in layers for w in layer]
    rng = random.Random(derive_seed(seed, "duality"))
    for k in range(1000):
        w = elements[rng.randrange(len(elements))]
        lam = AffineWeight(
            Weight(vec([Q(rng.randrange(-8, 9), rng.randrange(1, 5)) for _ in range(rs.rank)])),
            Q(rng.randrange(-8, 9), rng.randrange(1, 5)),
            Q(rng.randrange(-8, 9), rng.randrange(1, 5)),
        )
        x = CartanElement(
            vec([Q(rng.randrange(-8, 9), rng.randrange(1, 5)) for _ in range(rs.rank)]),
            Q(rng.randrange(-8, 9), rng.randrange(1, 5)),
            Q(rng.randrange(-8, 9), rng.randrange(1, 5)),
        )
        from .affine import affine_pairing

        lhs = affine_pairing(rs, lam, weyl.act_on_cartan(rs, w, x))
        rhs = affine_pairing(rs, weyl.act_on_weight(rs, weyl.inverse(rs, w), lam), x)
        if lhs != rhs:
            return False, f"duality failed at sample {k}"
    return True, f"tables OK; {pairs} dual-path inverted sets equal; 1000 exact duality pairs"


CRITERIA = [
    ("C1", "length-formula equivalence (IM = BFS = |inverted set|)", criterion_1_length_formulas, 60),
    ("C2", "kappa bound with rank-1 tight case", criterion_2_kappa_bound, 60),
    ("C3", "flipped-root shape beta + n iota, n < 0", criterion_3_flipped_shape, 60),
    ("C4", "sign/growth inequality audit over affine A2", criterion_4_theorem_audit, 300),
    ("C5", "composite log-domain corollary check", criterion_5_corollary, 300),
    ("C6", "entirety certificate decay and stabilization", criterion_6_certificates, 120),
    ("C7", "one-variable decay suite at 256-bit", criterion_7_decay_suite, 180),
    ("C8", "structural cross-oracles", criterion_8_cross_oracles, 120),
]


def _timed_row(cid: str, desc: str, budget: int, fn, echo) -> dict:
    """Run one gate row, print its pass/fail line and return its record; a row
    passes when fn reports ok inside the budget."""
    t0 = time.time()
    try:
        ok, detail = fn()
    except Exception as exc:  # a crash is a failed criterion, not a crash of the gate
        ok, detail = False, f"exception: {exc!r}"
    elapsed = time.time() - t0
    passed = bool(ok and elapsed <= budget)
    echo(f"{'PASS' if passed else 'FAIL'} {cid} [{elapsed:6.1f}s/{budget}s] {desc}: {detail}")
    return {"id": cid, "description": desc, "pass": passed, "elapsed_s": round(elapsed, 2),
            "budget_s": budget, "detail": detail}


def run_all(seed: int = 20260808, prec: int = 256, profile: str = "small", echo=print) -> list[dict]:
    """Run every criterion, printing one pass/fail line each; the full profile
    additionally builds the larger exceptional types as a smoke test and runs
    timed extended lemma sweeps (the F+ rows)."""
    results = []
    if profile == "full":
        for label in ("E6", "E7", "E8", "F4", "B3", "C3", "D5"):
            build_root_system_label(label)
        for label, max_len in (("A2", 14), ("C2", 14)):
            rs = build_root_system_label(label)
            for lemma in ("lemma23", "lemma351"):
                def sweep(rs=rs, lemma=lemma, max_len=max_len):
                    return ineq.verify(rs, lemma, max_len, 0, seed).ok, f"max_len={max_len}"

                results.append(_timed_row(f"F+{lemma}-{label}", f"extended sweep {lemma} {label}", 300, sweep, echo))
    for cid, desc, fn, budget in CRITERIA:
        results.append(_timed_row(cid, desc, budget, lambda fn=fn: fn(seed, prec), echo))
    return results
