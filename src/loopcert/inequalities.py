"""Executable verification of the Iwasawa-component inequalities.

Everything here is exact arithmetic.  The three vectors are

* H1: a nonnegative combination of coroots of the flipped negative roots
  attached to a Kostant representative (the abstract unipotent contribution);
* H2: the central drift of the degree direction under w, with
  <Lambda, H2> = -r(b,b)/2 and classical part -r * tilde(b);
* H3: the w-image of a Siegel-constrained Cartan element.

The audited inequalities are the two sign families (omega-pairings of H1, H2
nonnegative; omega-pairings of H3 bounded by an explicit envelope E) and the
three growth inequalities against C1 (max 2/(alpha,alpha) over the roots),
C2 (empirical exact supremum of per-element ratios) and C3 (Cauchy-Schwarz
envelope from the sample).  The composite corollary check runs entirely in the log domain
with rational values, so the final comparison is exact as well.

``run_audit`` works on Python ints from the draws to the last comparison.
Per Kostant element, ``_H1Kernel`` decides the H1 checks on the whole cone of
coefficients and ``_H3Kernel`` the H3 checks on the whole box of draws, so the
samples only measure C3 and feed the corollary, whose margins
``_CorollaryKernel`` puts over one integer denominator; only the reported
constants and the worst margin become ``Fraction``s.  ``sample_h1``, ``sample_siegel``,
``h1_vector``, ``h3_vector`` and ``verify_corollary`` are the readable
``Fraction`` reference that the kernels, and the whole audit, are tested
against.

Transcendental inputs enter only through ln(t), which is bracketed by
rationals with 64 guard bits: samples are generated strictly inside the
Siegel region using the upper bracket and validated against the lower one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import lru_cache
from math import lcm
from operator import mul

from mpmath import mp

from .affine import AffineRoot, CartanElement, coroot, zero_cartan
from .cartan import FiniteRootSystem
from .linalg import SQRT_BITS, sqrt_upper, sqrt_upper_num, vec
from .reports import derive_seed, q_str
from .weyl import (
    AffineWeylElement,
    _coroot_matrix,
    element_length,
    enumerate_by_length,
    enumerate_kostant,
    is_kostant,
    kappa,
    mat_vec_int,
    neg_inverted_of_inverse,
    pair_int,
)


LNT_BITS = 64  # slack exponent of the ln(t) bracket


@lru_cache(maxsize=None)
def lnt_bounds(t: Q) -> tuple[Q, Q]:
    """Rational lo <= ln(t) <= hi with 2^-LNT_BITS slack on each side."""
    if t <= 0:
        raise ValueError("t must be positive")
    with mp.workprec(LNT_BITS + 64):
        val = mp.log(mp.mpf(t.numerator) / t.denominator)
        eps = mp.mpf(2) ** (-LNT_BITS)
        lo = Q(mp.nstr(val - eps, 40, strip_zeros=False))
        hi = Q(mp.nstr(val + eps, 40, strip_zeros=False))
    assert lo < hi
    return lo, hi


def rho_pair(x: CartanElement) -> Q:
    """<rho, X> = sum of omega_j-pairings = sum of classical coroot coordinates."""
    return sum(x.classical, Q(0))


def lambda_pair(x: CartanElement) -> Q:
    return x.h_iota


# ---------------------------------------------------------------------------
# samples

DRAW_SCALE = 2**24  # H1 coefficients and the Siegel uniforms are numerators over this
LAMBDA_SCALE = 2**23  # <Lambda, H_g> is a numerator over this, in [-2, 2]


@dataclass(frozen=True)
class H1Sample:
    """Nonnegative coefficients on the flipped set of w (a Kostant element)."""

    w: AffineWeylElement
    coeffs: tuple[tuple[AffineRoot, Q], ...]

    def validate(self, rs: FiniteRootSystem) -> None:
        support = set(neg_inverted_of_inverse(rs, self.w))
        for gamma, c in self.coeffs:
            if gamma not in support:
                raise ValueError(f"coefficient attached to {gamma} outside the flipped set")
            if c < 0:
                raise ValueError("negative H1 coefficient")


@dataclass(frozen=True)
class SiegelSample:
    """Siegel-set datum: slice parameter r, cutoff t < 1 and H_g with d = 0."""

    r: Q
    t: Q
    h_g: CartanElement

    @property
    def lambda_pairing(self) -> Q:
        return self.h_g.h_iota

    def validate(self, rs: FiniteRootSystem) -> None:
        if self.r <= 0 or not 0 < self.t < 1 or self.h_g.d != 0:
            raise ValueError("Siegel sample outside parameter domain")
        lo, _ = lnt_bounds(self.t)
        for i in range(rs.rank):
            alpha = tuple(1 if j == i else 0 for j in range(rs.rank))
            if rs.pairing(vec(alpha), self.h_g.classical) <= lo:
                raise ValueError("Siegel constraint violated on a classical simple root")
        top = rs.pairing(vec(rs.highest_root), self.h_g.classical)
        if self.r - top <= lo:
            raise ValueError("Siegel constraint violated on the affine simple root")


def sample_h1(rs: FiniteRootSystem, w: AffineWeylElement, rng: random.Random, one_hot: bool = False) -> H1Sample:
    support = neg_inverted_of_inverse(rs, w)
    if one_hot and support:
        pick = rng.randrange(len(support))
        coeffs = tuple((g, Q(1) if k == pick else Q(0)) for k, g in enumerate(support))
    else:
        coeffs = tuple((g, Q(rng.randrange(0, DRAW_SCALE), DRAW_SCALE)) for g in support)
    return H1Sample(w, coeffs)


def sample_siegel(rs: FiniteRootSystem, rng: random.Random, r: Q, t: Q) -> SiegelSample:
    _, hi = lnt_bounds(t)
    ht = sum(rs.highest_root)
    budget = r - hi * (1 + ht)
    assert budget > 0
    xs = []
    for _ in range(rs.rank):
        u = Q(rng.randrange(1, DRAW_SCALE), DRAW_SCALE)
        xs.append(hi + u * budget / (2 * ht))
    # x_j = <alpha_j, H_cl>  =>  H_cl = sum_j x_j omega_j^vee
    cow = rs.fundamental_coweights
    h_cl = tuple(sum((cow[j][i] * xs[j] for j in range(rs.rank)), Q(0)) for i in range(rs.rank))
    lam = Q(rng.randrange(-2 * LAMBDA_SCALE, 2 * LAMBDA_SCALE), LAMBDA_SCALE)
    return SiegelSample(r, t, CartanElement(h_cl, lam, Q(0)))


# ---------------------------------------------------------------------------
# the three vectors and their checks


def h1_vector(rs: FiniteRootSystem, sample: H1Sample) -> tuple[CartanElement, dict]:
    """H1 = sum c_gamma h_gamma plus the sign, sandwich and growth checks."""
    sample.validate(rs)
    h1 = zero_cartan(rs)
    for gamma, c in sample.coeffs:
        if c:
            h1 = h1 + c * coroot(rs, gamma)
    kap = kappa(rs, sample.w)
    lam = lambda_pair(h1)
    omegas = h1.classical
    c1 = growth_constant_c1(rs)
    ell = element_length(rs, sample.w)
    sandwich_lhs = -sum(
        (Q(2) / rs.root_norm2(sigma)) * omegas[j] * kap_j
        for j, (sigma, kap_j) in enumerate(kap)
    )
    some_positive = any(c > 0 for _, c in sample.coeffs)
    checks = {
        "omega_nonneg": all(o >= 0 for o in omegas),
        "lambda_sign": (lam < 0) if some_positive else (lam == 0),
        "sandwich": sandwich_lhs <= lam,
        "growth1": lam >= -c1 * (ell + 1) * rho_pair(h1),
    }
    return h1, checks


def growth_constant_c1(rs: FiniteRootSystem) -> Q:
    """C1 = max over roots of 2/(alpha,alpha); equals 1 in simply-laced types."""
    return Q(2) / min(map(rs.root_norm2, rs.positive_roots))


def h2_vector(rs: FiniteRootSystem, w: AffineWeylElement, r: Q) -> tuple[CartanElement, dict]:
    """H2 with <Lambda,H2> = -r(b,b)/2 and classical part -r tilde(b)."""
    if not is_kostant(rs, w):
        raise ValueError("H2 checks require a Kostant representative")
    return _h2_vector(rs, w, r)


def _h2_vector(rs: FiniteRootSystem, w: AffineWeylElement, r: Q) -> tuple[CartanElement, dict]:
    """h2_vector for a w already known to be a Kostant representative."""
    tb = mat_vec_int(_coroot_matrix(rs, w.tilde), w.b)
    bb = w.b_norm2
    h2 = CartanElement(tuple(-r * Q(x) for x in tb), -r * bb / 2, Q(0))
    ell = element_length(rs, w)
    d_j = [pair_int(rs, tuple(1 if k == j else 0 for k in range(rs.rank)), tb) for j in range(rs.rank)]
    q_j = list(tb)
    rho_h2 = rho_pair(h2)
    ratio = Q(0) if rho_h2 == 0 else (r * bb / 2) / ((ell + 1) * rho_h2)
    checks = {
        "d_nonpos": all(d <= 0 for d in d_j),
        "q_nonpos": all(q <= 0 for q in q_j),
        "omega_nonneg": all(o >= 0 for o in h2.classical),
        "ratio": ratio,
    }
    return h2, checks


def siegel_envelope(rs: FiniteRootSystem, r: Q, t: Q) -> dict:
    """Sound rational envelope for the H3 checks.

    Every Siegel-valid H_g satisfies ln t < <alpha_i, H_g,cl> < r - ln_t*ht,
    hence |<omega_j, H3>| <= E with E = max_j |omega_j|_1 * ht * M_x, where
    ht is the height of the highest root and M_x the per-coordinate bound.
    """
    lo, hi = lnt_bounds(t)
    ht = sum(rs.highest_root)
    x_up = r - lo * ht
    m_x = max(-lo, x_up)
    weight_l1 = max(sum(wt, Q(0)) for wt in rs.fundamental_weights)
    return {"lnt_lo": lo, "lnt_hi": hi, "m_x": m_x, "E": weight_l1 * ht * m_x}


def h3_vector(
    rs: FiniteRootSystem,
    w: AffineWeylElement,
    sample: SiegelSample,
    envelope: dict,
    b_norm_rate: Q,
) -> tuple[CartanElement, dict]:
    """H3 = tilde(H_g,cl) + (<Lambda,H_g> + (H_g,cl, b)) h_iota, with the
    envelope bound on omega-pairings and the Cauchy-Schwarz C3 bound.

    ``b_norm_rate`` is an exact upper bound for ||b|| / (l(w)+1) over the
    enumerated range (the executable form of the translation-length lemma).
    """
    sample.validate(rs)
    if not is_kostant(rs, w):
        raise ValueError("H3 checks require a Kostant representative")
    h_cl = sample.h_g.classical
    cor = _coroot_matrix(rs, w.tilde)
    th = tuple(sum((Q(cor[i][j]) * h_cl[j] for j in range(rs.rank)), Q(0)) for i in range(rs.rank))
    hb = rs.coroot_pair_form(h_cl, vec(w.b))
    h3 = CartanElement(th, sample.lambda_pairing + hb, Q(0))
    ell = element_length(rs, w)
    h_norm_up = sqrt_upper(rs.coroot_pair_form(h_cl, h_cl))
    c3 = abs(sample.lambda_pairing) + h_norm_up * b_norm_rate
    checks = {
        "omega_bounded": all(abs(o) <= envelope["E"] for o in h3.classical),
        "growth3": lambda_pair(h3) >= -c3 * (ell + 1),
        "c3": c3,
    }
    return h3, checks


def verify_corollary(
    rs: FiniteRootSystem,
    w: AffineWeylElement,
    h1: CartanElement,
    h2: CartanElement,
    h3: CartanElement,
    c_const: Q,
    ln_d: Q,
) -> dict:
    """Composite check x >= D y^{-1/(C(l(w)+1))} in the exact log domain:
    margin = <rho,H> + <Lambda,H>/(C(l+1)) - ln D must be >= 0.  The
    Fraction reference of _CorollaryKernel, which run_audit uses."""
    ell = element_length(rs, w)
    h = h1 + h2 + h3
    ln_x = rho_pair(h)
    ln_y = lambda_pair(h)
    margin = ln_x + ln_y / (c_const * (ell + 1)) - ln_d
    return {"ln_x": ln_x, "ln_y": ln_y, "margin": margin, "ok": margin >= 0}


# ---------------------------------------------------------------------------
# integer kernels: the checks of h1_vector, h3_vector and verify_corollary for
# one Kostant w, with every per-w rational scaled to a common integer
# denominator once, so a sample costs only integer arithmetic

H1_CHECKS = ("omega_nonneg", "lambda_sign", "sandwich", "growth1")
_DRAW_BITS = DRAW_SCALE.bit_length()
_U_WIDTH, _LAM_WIDTH = DRAW_SCALE - 1, 4 * LAMBDA_SCALE  # the Siegel draws' randrange widths
_U_BITS, _LAM_BITS = _U_WIDTH.bit_length(), _LAM_WIDTH.bit_length()


def _cone_counterexamples(cols, lam_col, sandwich, growth: int) -> list[tuple[int, str]]:
    """(j, check), in H1_CHECKS order, for each check the one-hot sample on
    flipped root j fails.  The zero sample passes and each check is linear,
    so an empty list proves all four on the whole cone."""
    out = []
    for j, lam in enumerate(lam_col):
        omegas = [col[j] for col in cols]
        ok = (min(omegas) >= 0, lam < 0, -sum(map(mul, sandwich, omegas)) <= lam, lam >= -growth * sum(omegas))
        out += [(j, name) for name, good in zip(H1_CHECKS, ok) if not good]
    return out


class _H1Kernel:
    """h1_vector for one w on coefficient numerators over DRAW_SCALE.

    Column i lists the i-th simple-coroot coordinate of h_gamma over the
    flipped set; the h_iota coefficients (2/(beta,beta)) n, the sandwich weights
    (2/(sigma_j,sigma_j)) kappa_j and the growth factor c1 (l+1) are scaled
    by one integer L.  Every check is homogeneous in the coefficients, so it
    holds on the numerators exactly when it holds on the Fractions;
    ``counterexamples`` holds (flipped root, check) per failed one-hot sample.
    A sample reaches the corollary as (<rho, H1>, <Lambda, H1>), numerators
    over ``rho_den`` and ``lam_den``."""

    def __init__(self, rs: FiniteRootSystem, w: AffineWeylElement, c1: Q):
        self.support = neg_inverted_of_inverse(rs, w)
        coroots = [coroot(rs, g) for g in self.support]
        sandwich = [Q(2) / rs.root_norm2(sigma) * kap_j for sigma, kap_j in kappa(rs, w)]
        growth = c1 * (element_length(rs, w) + 1)
        scale = lcm(growth.denominator, *(x.h_iota.denominator for x in coroots),
                    *(x.denominator for x in sandwich))
        self.cols = [tuple(int(x.classical[i]) for x in coroots) for i in range(rs.rank)]
        self.lam = tuple(int(x.h_iota * scale) for x in coroots)
        self.rho_den, self.lam_den = DRAW_SCALE, DRAW_SCALE * scale
        self.counterexamples = [(self.support[j], name) for j, name in _cone_counterexamples(
            self.cols, self.lam, [int(x * scale) for x in sandwich], int(growth * scale))]

    def draws(self, rng: random.Random, n: int):
        """The draws of sample_h1 for samples 0..n-1, one-hot at k % 8 == 7,
        as numerator lists.  randrange(0, DRAW_SCALE) draws getrandbits(25)
        until the value is below DRAW_SCALE (Random._randbelow); the loop below
        makes the same calls without randrange's overhead, and a property test
        holds the two streams equal."""
        getrandbits = rng.getrandbits
        size = len(self.support)
        for k in range(n):
            if k % 8 == 7 and size:
                pick = rng.randrange(size)
                yield [DRAW_SCALE if j == pick else 0 for j in range(size)]
                continue
            nums = []
            for _ in range(size):
                x = getrandbits(_DRAW_BITS)
                while x >= DRAW_SCALE:
                    x = getrandbits(_DRAW_BITS)
                nums.append(x)
            yield nums

    def scan(self, samples) -> list[tuple[int, int]]:
        """The (<rho, H1>, <Lambda, H1>) numerators of the samples, in order."""
        cols, lam_col = self.cols, self.lam
        size = len(lam_col)
        kept = []
        for nums in samples:
            if len(nums) != size or (size and min(nums) < 0):
                raise ValueError("one nonnegative H1 coefficient per flipped root expected")
            kept.append((sum(sum(map(mul, nums, col)) for col in cols), sum(map(mul, nums, lam_col))))
        return kept


class _H3Kernel:
    """h3_vector for one w on Siegel samples held as integers.

    H_g,cl is a numerator vector over ``self.den`` = D K: the coordinates
    x_j = x0 + U_j dx share the denominator D, the fundamental coweights
    the denominator K.  Both checks hold for every draw 1 <= U_j < 2^24 unless
    flagged: <omega_i, H3> is linear in U, so ``bad_corners`` lists the
    corners U in {1, 2^24 - 1}^rank past E; each sample's C3 is
    |<Lambda, H_g>| + sqrt_upper((H,H)) rate, so growth3 follows by
    Cauchy-Schwarz when ``growth3_proved``: rate >= 0, rate^2 (l+1)^2 >= (b,b).
    The Siegel constraints, <rho, H3>, h_iota and C3 run on integers; C3 is
    a numerator over ``c3_den`` = 2^SQRT_BITS times the denominator of the
    rate, the same for every w of an audit.  w must be a Kostant
    representative: run_audit draws it from enumerate_kostant, and h3_vector
    is the guarded entry point."""

    def __init__(self, rs: FiniteRootSystem, w: AffineWeylElement, r: Q, t: Q, envelope: dict, rate: Q):
        if r <= 0 or not 0 < t < 1:
            raise ValueError("Siegel sample outside parameter domain")
        lo, hi = lnt_bounds(t)
        ht = sum(rs.highest_root)
        budget = r - hi * (1 + ht)
        assert budget > 0
        step = budget / (2 * ht * DRAW_SCALE)  # x_j = hi + U_j * step, U_j the uniform draw
        d_x = lcm(hi.denominator, step.denominator)
        self.x0, self.dx = int(hi * d_x), int(step * d_x)
        self.coweight_cols = cols = rs.coweight_cols
        self.den = d_x * rs.coweight_den
        a = rs.cartan.entries
        n = rs.rank
        # <alpha_i, h> = sum_j a[j][i] h_j and <theta, h> = sum_j (A theta)_j h_j
        self.simple_rows = tuple(tuple(a[j][i] for j in range(n)) for i in range(n))
        self.theta_row = tuple(sum(a[j][i] * rs.highest_root[i] for i in range(n)) for j in range(n))
        self.lo_num, self.lo_den = lo.numerator * self.den, lo.denominator
        top = r - lo  # the affine constraint r - <theta, H> > lo
        self.top_num, self.top_den = top.numerator * self.den, top.denominator
        cor = _coroot_matrix(rs, w.tilde)
        self.rho_row = tuple(map(sum, zip(*cor)))  # <rho, H3> = sum_i (cor h)_i
        self.gram = rs.coroot_form_nums
        self.gram_b = mat_vec_int(self.gram, w.b)
        self.form_den = self.den * rs.coroot_form_den  # (H_cl, b) = <H, gram_b> / form_den, (H,H) = H.gram.H / (form_den den)
        self.rho_den, self.lam_den = self.den, LAMBDA_SCALE * self.form_den
        self.c3_den = rate.denominator << SQRT_BITS  # a multiple of LAMBDA_SCALE
        self.rate_num = rate.numerator
        # H3's classical part is th = m xs, with m = cor . coweight_cols
        m = [[sum(c * col[j] for c, col in zip(row, cols)) for j in range(n)] for row in cor]
        e = envelope["E"]
        self.bad_corners = []
        for mask in range(1 << n):
            us = [_U_WIDTH if mask >> j & 1 else 1 for j in range(n)]
            xs = [self.x0 + u * self.dx for u in us]
            if max(abs(sum(map(mul, row, xs))) for row in m) * e.denominator > e.numerator * self.den:
                self.bad_corners.append(us)
        self.growth3_proved = rate >= 0 and rate * rate * (element_length(rs, w) + 1) ** 2 >= w.b_norm2

    def draws(self, rng: random.Random, n: int):
        """The draws of sample_siegel for n samples: (H_g,cl numerators over
        den, <Lambda, H_g> * LAMBDA_SCALE).  randrange(1, DRAW_SCALE) and
        randrange(-2 LAMBDA_SCALE, 2 LAMBDA_SCALE) draw getrandbits of the
        width's bit length until the value is below the width; the loops below
        make the same calls, as _H1Kernel.draws does."""
        getrandbits, x0, dx, cols = rng.getrandbits, self.x0, self.dx, self.coweight_cols
        for _ in range(n):
            xs = []
            for _ in cols:
                u = getrandbits(_U_BITS)
                while u >= _U_WIDTH:
                    u = getrandbits(_U_BITS)
                xs.append(x0 + (u + 1) * dx)
            lam = getrandbits(_LAM_BITS)
            while lam >= _LAM_WIDTH:
                lam = getrandbits(_LAM_BITS)
            yield tuple(sum(map(mul, xs, col)) for col in cols), lam - 2 * LAMBDA_SCALE

    def scan(self, samples) -> tuple[int, list[tuple[int, int]]]:
        """Check that each sample lies in the Siegel set (else raise) and
        return the largest C3 numerator (0 for no sample) and the
        (<rho, H3>, <Lambda, H3>) numerators of every sample, in order."""
        lo_num, lo_den, top_num, top_den = self.lo_num, self.lo_den, self.top_num, self.top_den
        form_den, hh_den = self.form_den, self.form_den * self.den
        c3_lam, rate_num = self.c3_den // LAMBDA_SCALE, self.rate_num
        kept = []
        c3_max = 0
        for h, lam in samples:
            for row in self.simple_rows:
                if sum(map(mul, row, h)) * lo_den <= lo_num:
                    raise ValueError("Siegel constraint violated on a classical simple root")
            if sum(map(mul, self.theta_row, h)) * top_den >= top_num:
                raise ValueError("Siegel constraint violated on the affine simple root")
            hh = sum(x * sum(map(mul, row, h)) for x, row in zip(h, self.gram))
            c3 = abs(lam) * c3_lam + sqrt_upper_num(hh, hh_den) * rate_num
            if c3 > c3_max:
                c3_max = c3
            kept.append((sum(map(mul, self.rho_row, h)),
                         lam * form_den + sum(map(mul, h, self.gram_b)) * LAMBDA_SCALE))
        return c3_max, kept


class _CorollaryKernel:
    """verify_corollary for one w on the kept H1 and H3 numerators.

    With K = C (l+1), margin = <rho, H1 + H3> + <Lambda, H1 + H3>/K + c0,
    where c0 = <rho, H2> + <Lambda, H2>/K - ln D is fixed per w; each term
    is scaled to one common denominator ``den``, so a margin is four integer
    products and a sum."""

    def __init__(self, k1: _H1Kernel, k3: _H3Kernel, h2: CartanElement, ell: int, c_const: Q, ln_d: Q):
        big_k = c_const * (ell + 1)
        units = (Q(1, k1.rho_den), 1 / (k1.lam_den * big_k), Q(1, k3.rho_den), 1 / (k3.lam_den * big_k),
                 rho_pair(h2) + h2.h_iota / big_k - ln_d)
        self.den = lcm(*(u.denominator for u in units))
        self.weights = tuple(u.numerator * (self.den // u.denominator) for u in units)

    def scan(self, h1_kept, h3_kept, n_h1: int) -> tuple[list[int], Q | None]:
        """Margins of H3 sample k with H1 sample k % n_h1, in sample order:
        the samples with a negative margin and the smallest margin."""
        m1, m2, m3, m4, m0 = self.weights
        n_h1 = max(1, n_h1)
        bad = []
        worst = None
        for k, (rho3, lam3) in enumerate(h3_kept):
            rho1, lam1 = h1_kept[k % n_h1]
            margin = rho1 * m1 + lam1 * m2 + rho3 * m3 + lam3 * m4 + m0
            if margin < 0:
                bad.append(k)
            if worst is None or margin < worst:
                worst = margin
        return bad, None if worst is None else Q(worst, self.den)


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class InequalityReport:
    lemma: str
    type_label: str
    max_len: int
    records: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    constants: dict = field(default_factory=dict)
    extremal_cases: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_results(self) -> dict:
        return {
            "lemma": self.lemma,
            "type": self.type_label,
            "max_len": self.max_len,
            "violations": self.violations,
            "constants": self.constants,
            "extremal_cases": self.extremal_cases,
            "records": self.records,
        }


def _wid(w: AffineWeylElement) -> dict:
    return {"tilde": [list(r) for r in w.tilde], "b": list(w.b), "length": w.length}


def lemma22_constants(rs: FiniteRootSystem, layers) -> dict:
    """Empirical E, E' with E' ||b|| - |D+| <= l(w) <= E ||b|| + |D+| over the
    sweep, as exact squared ratios: E_sq is the largest (l - |D+|)^2 / (b,b)
    over the elements with l(w) > |D+|, Eprime_sq the smallest
    (l + |D+|)^2 / (b,b) over those with b != 0, and either is None when the
    sweep holds no such element."""
    n_pos = len(rs.positive_roots)
    e_sq: Q | None = None
    ep_sq: Q | None = None
    for depth, layer in enumerate(layers):
        for w in layer:
            bb = w.b_norm2
            if bb == 0:
                continue
            if depth > n_pos:
                low = Q(depth - n_pos) ** 2 / bb
                e_sq = low if e_sq is None else max(e_sq, low)
            up = Q(depth + n_pos) ** 2 / bb
            ep_sq = up if ep_sq is None else min(ep_sq, up)
    return {"E_sq": e_sq, "Eprime_sq": ep_sq}


def b_norm_rate(rs: FiniteRootSystem, layers) -> Q:
    """Exact rational upper bound for ||b||/(l(w)+1) over the enumerated range."""
    best = Q(0)
    for depth, layer in enumerate(layers):
        for w in layer:
            rate_sq = w.b_norm2 / Q(depth + 1) ** 2
            if rate_sq > best:
                best = rate_sq
    return sqrt_upper(best)


def verify_lemma22(rs: FiniteRootSystem, max_len: int) -> InequalityReport:
    """Lemma 2.2's constants over the sweep, checked exactly against the
    Cauchy-Schwarz constants.  l(w) differs from S = sum over alpha > 0 of
    |<alpha, b>| by at most |D+| (each positive root adds |<alpha, b>| or
    |<alpha, b> - 1|), and sum <alpha, b>^2 = h^vee (b,b), so
    h^vee (b,b) <= S^2 <= |D+| h^vee (b,b): a measured E_sq above |D+| h^vee
    or Eprime_sq below h^vee is a violation.  An unmeasured constant is
    reported as null."""
    layers = enumerate_by_length(rs, max_len)
    rep = InequalityReport("lemma22", rs.label, max_len)
    consts = lemma22_constants(rs, layers)
    e_sq, ep_sq = consts["E_sq"], consts["Eprime_sq"]
    h = rs.dual_coxeter
    e_max = len(rs.positive_roots) * h
    if e_sq is not None and e_sq > e_max:
        rep.violations.append({"check": "E_sq", "E_sq": q_str(e_sq), "bound": q_str(e_max)})
    if ep_sq is not None and ep_sq < h:
        rep.violations.append({"check": "Eprime_sq", "Eprime_sq": q_str(ep_sq), "bound": q_str(h)})
    rep.constants = {
        "E_sq": None if e_sq is None else q_str(e_sq),
        "Eprime_sq": None if ep_sq is None else q_str(ep_sq),
        "E": None if e_sq is None else float(sqrt_upper(e_sq)),
        "Eprime": None if ep_sq is None else float(sqrt_upper(ep_sq)),
    }
    rep.records.append({"elements_checked": sum(map(len, layers))})
    return rep


def verify_lemma23(rs: FiniteRootSystem, max_len: int) -> InequalityReport:
    layers = enumerate_kostant(rs, max_len)
    rep = InequalityReport("lemma23", rs.label, max_len)
    checked = 0
    for depth, layer in enumerate(layers):
        for w in layer:
            checked += 1
            for i, (sigma, kap_i) in enumerate(kappa(rs, w)):
                if kap_i > depth + 1:
                    rep.violations.append({"check": "kappa", "i": i + 1, "kappa": kap_i, "w": _wid(w)})
                elif kap_i == depth + 1:
                    rep.extremal_cases.append({"i": i + 1, "kappa": kap_i, "w": _wid(w)})
    rep.records.append({"kostant_checked": checked})
    rep.constants = {"tight_cases": len(rep.extremal_cases)}
    return rep


def verify_lemma351(rs: FiniteRootSystem, max_len: int) -> InequalityReport:
    """Every flipped root of a Kostant element is beta + n iota, beta in Delta_+, n < 0."""
    layers = enumerate_kostant(rs, max_len)
    rep = InequalityReport("lemma351", rs.label, max_len)
    checked = 0
    for layer in layers:
        for w in layer:
            checked += 1
            for gamma in neg_inverted_of_inverse(rs, w):
                if gamma.n >= 0 or gamma.classical_part not in rs.positive_root_set:
                    rep.violations.append({"gamma": [list(gamma.classical_part), gamma.n], "w": _wid(w)})
    rep.records.append({"kostant_checked": checked})
    return rep


def run_audit(
    rs: FiniteRootSystem,
    max_len: int,
    n_h1: int,
    n_siegel: int,
    seed: int,
    r: Q = Q(1),
    t: Q = Q(1, 2),
    with_corollary: bool = True,
) -> InequalityReport:
    """Theorem-3.2 audit (and optionally the composite corollary) over all
    Kostant representatives up to max_len, with per-element seeded sampling.
    b depends only on the Kostant factor u of w = v u, and l(u) <= l(w), so
    ``b_norm_rate`` over the Kostant layers is its value over the whole group.
    enumerate_kostant has already tested every element, so the H2 and H3
    passes skip the is_kostant guards of h2_vector and h3_vector.

    The H1 and H3 checks are decided per element by the kernels'
    certificates, whatever the seed and sample counts.  The samples stay
    Python ints, drawn with the generator calls of sample_h1 and
    sample_siegel; only the min(n_siegel, n_h1) H1 samples the corollary
    reads are drawn (none for thm32).  C3 is one numerator over 2^SQRT_BITS
    times the rate's denominator; each element's worst margin is one
    Fraction."""
    if with_corollary and n_siegel > 0 and n_h1 < 1:
        raise ValueError(f"the corollary pairs each Siegel sample with an H1 sample: need n_h1 >= 1, got {n_h1}")
    layers = enumerate_kostant(rs, max_len)
    rep = InequalityReport("cor34" if with_corollary else "thm32", rs.label, max_len)
    envelope = siegel_envelope(rs, r, t)
    rate = b_norm_rate(rs, layers)
    c1 = growth_constant_c1(rs)

    kostant = [w for layer in layers for w in layer]

    # pass 1: exact H2 ratios -> empirical C2
    c2 = Q(0)
    c2_case = None
    h2_cache = {}
    for w in kostant:
        h2, checks = _h2_vector(rs, w, r)
        h2_cache[w] = h2
        for name in ("d_nonpos", "q_nonpos", "omega_nonneg"):
            if not checks[name]:
                rep.violations.append({"check": f"h2.{name}", "w": _wid(w)})
        if checks["ratio"] > c2:
            c2 = checks["ratio"]
            c2_case = _wid(w)

    # pass 2: H1/H3 certificates and seeded samples per element -> empirical
    # C3; the corollary reads H1 sample k % n_h1 for k < n_siegel
    c3 = Q(0)
    samples = []
    n_keep = min(n_siegel, n_h1) if with_corollary else 0
    for idx, w in enumerate(kostant):
        k1 = _H1Kernel(rs, w, c1)
        rep.violations += [{"check": f"h1.{name}", "gamma": [list(g.classical_part), g.n], "w": _wid(w)}
                           for g, name in k1.counterexamples]
        h1_kept = k1.scan(k1.draws(random.Random(derive_seed(seed, f"h1:{idx}")), n_keep))
        k3 = _H3Kernel(rs, w, r, t, envelope, rate)
        rep.violations += [{"check": "h3.omega_bounded", "corner": us, "w": _wid(w)} for us in k3.bad_corners]
        if not k3.growth3_proved:
            rep.violations.append({"check": "h3.growth3", "w": _wid(w)})
        w_c3, h3_kept = k3.scan(k3.draws(random.Random(derive_seed(seed, f"siegel:{idx}")), n_siegel))
        c3 = max(c3, Q(w_c3, k3.c3_den))
        samples.append((w, k1, k3, h1_kept, h3_kept))

    c_const = max(c1, c2, c3, Q(1, 10**6))
    ln_d = -(rs.rank * envelope["E"] + 1)
    worst_margin: Q | None = None
    if with_corollary:
        for w, k1, k3, h1_kept, h3_kept in samples:
            bad, w_worst = _CorollaryKernel(k1, k3, h2_cache[w], element_length(rs, w), c_const, ln_d).scan(
                h1_kept, h3_kept, n_h1)
            rep.violations += [{"check": "cor34", "sample": k, "w": _wid(w)} for k in bad]
            if w_worst is not None and (worst_margin is None or w_worst < worst_margin):
                worst_margin = w_worst

    rep.constants = {
        "C1": q_str(c1),
        "C2": q_str(c2),
        "C3": q_str(c3),
        "C": q_str(c_const),
        "ln_D": q_str(ln_d),
        "E": q_str(envelope["E"]),
        "b_norm_rate": q_str(rate),
        "r": q_str(r),
        "t": q_str(t),
    }
    if c2_case is not None:
        rep.extremal_cases.append({"kind": "C2_argmax", "w": c2_case})
    if worst_margin is not None:
        rep.extremal_cases.append({"kind": "cor34_worst_margin", "margin": q_str(worst_margin)})
    rep.records.append(
        {
            "kostant_checked": len(kostant),
            "h1_samples_per_w": n_h1,
            "siegel_samples_per_w": n_siegel,
        }
    )
    return rep


def verify(
    rs: FiniteRootSystem,
    lemma: str,
    max_len: int,
    samples: int,
    seed: int,
    r: Q = Q(1),
    t: Q = Q(1, 2),
) -> InequalityReport:
    """Dispatch for the CLI verify subcommand; samples, r and t reach the
    audits (thm32, cor34) only, which need at least one sample."""
    if lemma == "lemma22":
        return verify_lemma22(rs, max_len)
    if lemma == "lemma23":
        return verify_lemma23(rs, max_len)
    if lemma == "lemma351":
        return verify_lemma351(rs, max_len)
    if lemma not in ("thm32", "cor34"):
        raise ValueError(f"unknown lemma {lemma!r}")
    if samples < 1:
        raise ValueError(f"{lemma} needs --samples >= 1, got {samples}")
    return run_audit(rs, max_len, samples, max(1, samples // 10), seed, r, t, with_corollary=(lemma == "cor34"))
