"""Numeric entirety certificate: per-cell bound terms over the Kostant
representatives and convergent partial sums of the dominating series.

Each cell w contributes, in the log domain,

    log_term(w) = C1*N*ln(C1*N) - N*ln(D) + a*p_w,
    N   = ceil(d*C2*(l(w)+1)),
    p_w = -r*(b,b)/2 + C3*(l(w)+1),
    a   = d + Re(nu) - nu0 > 0,

where p_w is the exact per-cell upper bound for ln(y): the unipotent part
contributes at most 0, the central drift exactly -r(b,b)/2 for the cell's own
translation b, and the Siegel part at most C3*(l(w)+1).  The quadratic decay
of p_w in l(w) eventually beats the N*ln(N) growth, independently of Re(nu);
running the sum at any Re(nu) (with d adjusted so a stays positive) is the
bound-level mechanism behind entirety.

The certificate counts each Kostant representative once; the inner sum over
the discrete group within a cell is a loop-group quantity that is *not*
modeled here.  Every report carries that caveat in its header field.

Decay verdict: because distinct representatives of consecutive lengths can
share the same translation norm (affine A1 pairs lengths 2k-1 and 2k), the
per-shell maxima form a sawtooth with a strictly decreasing envelope rather
than a strictly decreasing sequence.  The executable predicate is lag-2
strict decrease over the last third of the range: shell_max[i] < shell_max[i-2].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import ceil

from mpmath import mp

from .cartan import FiniteRootSystem
from .reports import q_str
from .weyl import AffineWeylElement, element_length, enumerate_kostant, full_layer_sizes

CERT_CAVEAT = (
    "per-cell bound terms only; the inner coset sum within each Bruhat cell "
    "is not modeled"
)


def dual_coxeter(rs: FiniteRootSystem) -> int:
    """1 + <rho, h_highest> by the exact pairing, the route independent of the
    comark table ``rs.dual_coxeter``.  The pairing <rho, h_iota> is 0 with rho
    extended trivially to the center, so the affine-weight reading is
    normalized away here; see the README note on the dual Coxeter number."""
    h0 = rs.coroot_of(rs.highest_root)
    val = 1 + rs.pairing(rs.rho, h0)
    assert val.denominator == 1
    return int(val)


@dataclass(frozen=True)
class CertificateParams:
    type_label: str
    r: Q
    re_nu: Q
    nu0: Q
    c1: Q
    c2: Q
    c3: Q
    cap_d: Q
    big_d: Q

    @property
    def a(self) -> Q:
        return self.cap_d + self.re_nu - self.nu0

    def validate(self, rs: FiniteRootSystem) -> None:
        if self.r <= 0:
            raise ValueError("r must be positive")
        if min(self.c1, self.c2, self.c3, self.cap_d, self.big_d) <= 0:
            raise ValueError("constants must be positive")
        twoh = 2 * rs.dual_coxeter
        if self.nu0 <= twoh:
            raise ValueError(f"nu0 must exceed 2h_dual = {twoh}")
        if self.cap_d <= self.nu0 - self.re_nu:
            raise ValueError("d must exceed nu0 - re_nu")


def default_params(rs: FiniteRootSystem, r: Q = Q(1), re_nu: Q = Q(0), big_d: Q = Q(1),
                   c1: Q = Q(1), c2: Q = Q(1), c3: Q = Q(1), slack: int = 1) -> CertificateParams:
    """nu0 = 2h_dual + 1 and the smallest d with d*c2 integral and a >= slack."""
    if c2 <= 0:
        raise ValueError("constants must be positive")
    nu0 = Q(2 * rs.dual_coxeter + 1)
    gap = nu0 - re_nu
    k = ceil(gap * c2) + slack
    cap_d = Q(k) / c2
    return CertificateParams(rs.label, Q(r), Q(re_nu), nu0, Q(c1), Q(c2), Q(c3), cap_d, Q(big_d))


@dataclass(frozen=True)
class CellBound:
    w: AffineWeylElement
    n_exponent: int
    p_w: Q
    log_term: object  # mpf at the working precision


def cell_bound(rs: FiniteRootSystem, w: AffineWeylElement, params: CertificateParams) -> CellBound:
    """Exact N and p_w; only the final logarithms are floating point."""
    ell = element_length(rs, w)
    n_exact = params.cap_d * params.c2 * (ell + 1)
    n_int = int(ceil(n_exact))  # rounding up only strengthens the bound
    p_w = -params.r * w.b_norm2 / 2 + params.c3 * (ell + 1)
    c1n = params.c1 * n_int
    log_term = (
        _mpf(c1n) * mp.log(_mpf(c1n))
        - n_int * mp.log(_mpf(params.big_d))
        + _mpf(params.a) * _mpf(p_w)
    )
    return CellBound(w, n_int, p_w, log_term)


def _mpf(q: Q):
    return mp.mpf(q.numerator) / q.denominator


def growth_census(rs: FiniteRootSystem, max_len: int) -> dict:
    """Layer sizes of the affine Weyl group and of its Kostant representatives;
    the full sizes are the W_fin convolution of the Kostant ones."""
    layers = enumerate_kostant(rs, max_len)
    return {"full": full_layer_sizes(rs, layers), "kostant": [len(layer) for layer in layers]}


def certify(rs: FiniteRootSystem, params: CertificateParams, max_len: int, prec: int = 256) -> dict:
    """Run the certificate sweep; see the module docstring for the verdict
    semantics.  All shell statistics are deterministic at fixed precision:
    mp.fsum adds the terms' mantissas as exact integers and rounds once.  A
    shell sums one term per cell in enumeration order, each the shared term
    of the cell's (b,b) class, so the sum is the per-cell sum bit for bit."""
    params.validate(rs)
    with mp.workprec(prec):
        shells = []
        for layer in enumerate_kostant(rs, max_len):
            # the cells of a shell with equal (b,b) share N, p_w and log_term:
            # one cell_bound and one exponential per class, first seen first
            classes = {}
            for w in layer:
                if w.b_norm2 not in classes:
                    cell = cell_bound(rs, w, params)
                    classes[w.b_norm2] = cell, mp.e**cell.log_term
            max_cell = max((cell for cell, _ in classes.values()), key=lambda c: c.log_term, default=None)
            shells.append((len(layer), max_cell, mp.fsum(classes[w.b_norm2][1] for w in layer)))
        return _certificate_report(params, max_len, shells)


def _certificate_report(params: CertificateParams, max_len: int, shells) -> dict:
    """The report of a sweep from its shells by length: (cell count, the
    first cell with the largest log_term or None, shell sum).  Runs at the
    caller's working precision."""
    partial = mp.mpf(0)
    partials = []
    for _, _, shell_sum in shells:
        partial += shell_sum
        partials.append(partial)
    maxima = [(length, cell.log_term) for length, (_, cell, _) in enumerate(shells) if cell is not None]
    verdict, failures = _decay_verdict(maxima)
    fit = _quadratic_fit(maxima)
    return {
        "caveat": CERT_CAVEAT,
        "params": {
            "type": params.type_label,
            "r": q_str(params.r),
            "re_nu": q_str(params.re_nu),
            "nu0": q_str(params.nu0),
            "c1": q_str(params.c1),
            "c2": q_str(params.c2),
            "c3": q_str(params.c3),
            "d": q_str(params.cap_d),
            "big_d": q_str(params.big_d),
            "a": q_str(params.a),
        },
        "max_len": max_len,
        "shells": [
            {
                "length": length,
                "count": count,
                "max_log_term": None if cell is None else _nstr(cell.log_term),
                "shell_sum": _nstr(shell_sum),
                "partial_sum": _nstr(partials[length]),
                "d_logterm_d_nu0": None if cell is None else q_str(-cell.p_w),
            }
            for length, (count, cell, shell_sum) in enumerate(shells)
        ],
        "partial_sum": _nstr(partial),
        "log_partial_sum": _nstr(mp.log(partial)) if partial > 0 else None,
        "stabilized_at": _stabilized_at(partials),
        "tail_fit": fit,
        "tail_bound_heuristic": _tail_bound(fit, [count for count, _, _ in shells], max_len),
        "verdict": verdict,
        "verdict_failures": failures,
    }


def _nstr(x, digits: int = 20):
    if x is None:
        return None
    return mp.nstr(x, digits, max_fixed=6, min_fixed=-6)


def _decay_verdict(maxima) -> tuple[str, list]:
    """DECAYING iff shell_max[i] < shell_max[i-2] throughout the last third."""
    if len(maxima) < 6:
        return "INSUFFICIENT-RANGE", []
    start = max(2, (2 * len(maxima)) // 3)
    failures = []
    for i in range(start, len(maxima)):
        if not maxima[i][1] < maxima[i - 2][1]:
            failures.append(maxima[i][0])
    return ("DECAYING" if not failures else "NON-DECAYING"), failures


def _stabilized_at(partials) -> int | None:
    """Earliest shell index from which every later partial sum agrees with the
    final one to 6 significant digits; None if never."""
    final = partials[-1]
    if final == 0:
        return 0
    tol = mp.mpf("1e-6")
    idx = None
    for i in range(len(partials) - 1, -1, -1):
        if abs(partials[i] - final) <= tol * abs(final):
            idx = i
        else:
            break
    return idx


def _quadratic_fit(maxima) -> dict | None:
    """Least-squares quadratic of max log_term against shell length."""
    pts = [(mp.mpf(length), v) for length, v in maxima]
    if len(pts) < 3:
        return None
    s = [mp.mpf(0)] * 5
    t = [mp.mpf(0)] * 3
    for x, y in pts:
        powers = [mp.mpf(1), x, x * x, x**3, x**4]
        for k in range(5):
            s[k] += powers[k]
        for k in range(3):
            t[k] += y * powers[k]
    a_mat = mp.matrix([[s[0], s[1], s[2]], [s[1], s[2], s[3]], [s[2], s[3], s[4]]])
    rhs = mp.matrix([t[0], t[1], t[2]])
    sol = mp.lu_solve(a_mat, rhs)
    return {"const": _nstr(sol[0]), "lin": _nstr(sol[1]), "quad": _nstr(sol[2])}


def _tail_bound(fit: dict | None, counts, max_len: int) -> str | None:
    """Geometric extrapolation of the fitted quadratic past max_len; reported
    as a heuristic, never as a proof."""
    if fit is None:
        return None
    quad = mp.mpf(fit["quad"])
    lin = mp.mpf(fit["lin"])
    const = mp.mpf(fit["const"])
    if quad >= 0:
        return None
    l0 = mp.mpf(max_len + 1)
    step_ratio = mp.e ** (quad * (2 * l0 + 1) + lin)
    count_growth = mp.mpf(max(counts) + 2)
    if step_ratio >= 1:
        return None
    first = count_growth * mp.e ** (quad * l0 * l0 + lin * l0 + const)
    return _nstr(first / (1 - step_ratio))
