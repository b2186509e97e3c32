"""One-variable decay analysis of the bump function sigma(x) = e^{-1/(1-x^2)}.

Derivatives carry the exact representation

    sigma^(N)(x) = P_N(x) * (1-x^2)^(-2N) * sigma(x)   on (-1,1),

with P_N an integer-coefficient polynomial obeying the recurrence

    P_{N+1} = (1-x^2)^2 P_N' + (4Nx(1-x^2) - 2x) P_N,     P_0 = 1,

obtained by differentiating the representation once.  Coefficients grow
superexponentially, so they are kept as big integers (content factored out)
and every norm lives in the log domain.

For N >= 1 the L1 norm is certified: sigma^(N-1) is monotone between
consecutive sign changes of P_N, so the integral of |sigma^(N)| telescopes to
values of sigma^(N-1) at the exact roots, each held in a dyadic bracket
checked by exact integer signs and evaluated in interval arithmetic
(mpmath.iv; Moore, Kearfott and Cloud, Introduction to Interval Analysis,
2009).  For N = 0, and for L2 norms, one Gauss-Legendre order sums the
smooth integrand on sigma_hat's graded panels (_norm_integral), bounded by
each panel's Bernstein ellipse.  Every norm's error is a rigorous bound.

The hot loops run on Python integers, most in fixed point scaled by 2^F:

* the quadrature panels of l2_norm and of l1_norm at N = 0 (_sigma_deriv_panel,
  F = working precision + 40): per node, Horner for P_N in x^2, the powers of
  1/(1-x^2) and exp_fixed, summed exactly and converted to mpf once per panel;
* the root pipeline behind l1_norm: Descartes isolation on integer Bernstein
  coefficients, one de Casteljau pass per split (_isolated_intervals);
  Newton's method on fixed-point Horner, safeguarded at max(64, k + 32) bits,
  then at G = prec + 80 (sign_change_roots); and the
  bracket signs, floored Horner at K + 64 bits with the exact value where
  that is within its error (_bracket_sign);
* the pointwise sigma_deriv_mp (behind l1_norm_extrema and the tests):
  Horner for P_N at F = working precision + 40, with the other factors in
  mpf;
* Halley's method behind the Gauss-Legendre tables, from double-precision
  seeds, each step at about three times the bits its iterate has, up to
  F = prec + 60;
* the sigma_hat grid, its angle doublings and phase recurrence
  (F = precision_bits + 40), the cosines and sines of each call's phases
  (cos_sin_fixed at F + 20), and the moment defect of its Gauss-Legendre
  rule (F = precision_bits + 80), one Chebyshev recurrence run over all
  the nodes at once.

Each docstring states its truncation error; values cross into mpf only at
the ends.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from math import ceil, comb, cos, floor, gcd, lcm, ldexp, log, log2, pi, sqrt
from operator import add, mul, ne, sub
from typing import NamedTuple

from mpmath import iv, mp
from mpmath.ctx_mp import PrecisionManager
from mpmath.libmp import to_fixed
from mpmath.libmp.libelefun import cos_sin_fixed, exp_fixed, ln2_fixed, pi_fixed


@dataclass(frozen=True)
class IntegerPolynomial:
    """An integer polynomial as its content ``scale`` (a positive int) times
    its primitive part, the integer coefficients in ``coeffs`` (ascending)."""

    coeffs: tuple[int, ...]
    scale: int = 1

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def _content_reduce(raw: list[int], scale: int) -> IntegerPolynomial:
    while len(raw) > 1 and raw[-1] == 0:
        raw.pop()
    g = gcd(*raw) or 1
    return IntegerPolynomial(tuple(c // g for c in raw), scale * g)


@lru_cache(maxsize=None)
def derivative_poly(n: int) -> IntegerPolynomial:
    """P_n, with sigma^(n) = P_n * (1-x^2)^(-2n) * sigma on (-1,1)."""
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    if n == 0:
        return IntegerPolynomial((1,))
    prev = derivative_poly(n - 1)
    k = n - 1
    scale = prev.scale
    p = list(prev.coeffs)
    dp = [i * c for i, c in enumerate(p)][1:] or [0]
    # (1-x^2)^2 = 1 - 2x^2 + x^4
    out = [0] * (len(p) + 4)
    for i, c in enumerate(dp):
        out[i] += c
        out[i + 2] -= 2 * c
        out[i + 4] += c
    # (4k x - 4k x^3 - 2x) * p
    for i, c in enumerate(p):
        out[i + 1] += (4 * k - 2) * c
        out[i + 3] -= 4 * k * c
    rep = _content_reduce(out, scale)
    if rep.degree > 3 * n:
        raise AssertionError("derivative polynomial degree bound violated")
    return rep


def _to_mpf(x, ctx=mp):
    """x as a number of ctx, mp or the interval context iv."""
    return ctx.mpf(x.numerator) / x.denominator if isinstance(x, Q) else ctx.mpf(x)


@lru_cache(maxsize=None)
def _horner_table(n: int, f: int) -> tuple:
    """The primitive coefficients of P_n, highest degree first, each shifted
    left by f bits, and the scale of P_n as an mpf at f - 40 bits."""
    poly = derivative_poly(n)
    with mp.workprec(f - 40):
        scale = mp.mpf(poly.scale)
    return tuple(c << f for c in reversed(poly.coeffs)), scale


def sigma_deriv_mp(n: int, x):
    """sigma^(n)(x) = P_n(x) (1-x^2)^(-2n) e^{-1/(1-x^2)} at the working
    precision.

    P_n is evaluated by Horner on Python integers scaled by 2^F, F = working
    precision + 40: x is floored to F fractional bits (exactly, whenever
    |x| >= 2^-40) and each step is acc = ((acc * x) >> F) + c with the
    primitive coefficients c pre-shifted by F.  Each shift floors by less
    than one unit of 2^-F, and |x| < 1 keeps earlier errors from growing, so
    the primitive polynomial is off by less than `degree` units of 2^-F, and
    P_n by less than degree * |scale| * 2^-F, for x as floored.

    u = 1 - x^2 and 1/u come from the same fixed-point x, each within a unit
    of 2^-F, so e^{-1/u} gets an argument far more accurate than an mpf
    1/u near x = 1 would give it.  u^(-2n), the exponential and the products
    are mpf, which adds a relative error of a few units of 2^-precision."""
    x = mp.mpf(x)
    if abs(x) >= 1:
        return mp.mpf(0)
    f = mp.prec + 40
    coeffs, scale = _horner_table(n, f)
    xf = to_fixed(x._mpf_, f)
    acc = 0
    for c in coeffs:
        acc = ((acc * xf) >> f) + c
    one = 1 << f
    u = one - ((xf * xf) >> f)
    v = (one << f) // u  # 1/u
    return mp.ldexp(acc, -f) * scale * mp.ldexp(u, -f) ** (-2 * n) * mp.exp(mp.ldexp(-v, -f))


# ---------------------------------------------------------------------------
# exact root isolation for the sign changes of P_N on (0, 1)
#
# Descartes' rule in the Bernstein basis (Rouillier and Zimmermann, J. Comput.
# Appl. Math. 162, 2004): the sign variations of p's Bernstein coefficients on
# an interval bound its roots there, zero variations exclude roots, one
# certifies a single simple root, and anything else splits the interval at its
# midpoint, where one de Casteljau pass gives the coefficients of both halves.
# On every interval the count equals that of the (0,1)-Moebius transform, so
# the intervals are those of the classical Taylor-shift form.  A cluster still
# unresolved at the depth cap raises ArithmeticError: l1_norm's certificate
# counts one root per interval.


def _shift_by_one(coeffs: list[int]) -> list[int]:
    """The coefficients of p(x + 1), ascending: the Taylor shift by one, in
    d (d + 1) / 2 integer additions."""
    out = list(coeffs)
    d = len(out) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            out[j] += out[j + 1]
    return out


def _bernstein_01(coeffs) -> list[int]:
    """The Bernstein coefficients b_i of p = sum coeffs[i] x^i on [0, 1],
    p = sum b_i C(d, i) x^i (1 - x)^(d - i), times the positive integer
    lcm C(d, i): the Taylor shift of the reversed p is
    (1 + x)^d p(1 / (1 + x)) = sum b_i C(d, i) x^(d - i)."""
    d = len(coeffs) - 1
    scale = lcm(*(comb(d, i) for i in range(d + 1)))
    return [c * (scale // comb(d, i)) for i, c in enumerate(reversed(_shift_by_one(coeffs[::-1])))]


def _split_half(b: list[int]) -> tuple:
    """The Bernstein coefficients of p on [0, 1/2] and on [1/2, 1], each
    times 2^d, from those on [0, 1]: de Casteljau's pass without its
    halvings, whose level r holds 2^r times the averages b^(r); the left half
    takes the first entry of each level, the right half the last."""
    left, right, row = [], [], b
    for shift in range(len(b) - 1, -1, -1):
        left.append(row[0] << shift)
        right.append(row[-1] << shift)
        row = list(map(add, row, row[1:]))
    return left, right[::-1]


def _deflate_bernstein_at_zero(b: list[int]) -> list[int]:
    """p / x, repeated while p(0) = b_0 = 0, in Bernstein coefficients up to
    a positive factor: of degree d - 1, the i-th is b_(i+1) d / (i + 1),
    here times lcm(1..d) / d to stay an integer.  Reversed coefficients are
    those of p(1 - x), so reversing before and after divides out 1 - x."""
    while len(b) > 1 and b[0] == 0:
        scale = lcm(*range(1, len(b)))
        b = [c * (scale // i) for i, c in enumerate(b[1:], 1)]
    return b


def _isolate_bernstein(b: list[int], m: int, k: int, out: list) -> None:
    """Append to out the isolating intervals of the roots of p in
    [m / 2^k, (m + 1) / 2^k], from p's Bernstein coefficients b there,
    splitting to depth k = 70 at most."""
    signs = [c > 0 for c in b if c]
    variations = sum(map(ne, signs, signs[1:]))
    if variations == 1:
        out.append((Q(m, 1 << k), Q(m + 1, 1 << k)))
    if variations <= 1:
        return
    if k >= 70:
        raise ArithmeticError(f"roots of P_n unresolved in [{Q(m, 1 << k)}, {Q(m + 1, 1 << k)}]")
    left, right = _split_half(b)
    if right[0] == 0:  # p vanishes at the midpoint
        mid = Q(2 * m + 1, 2 << k)
        out.append((mid, mid))
        # remove the root from both halves so no later interval endpoint
        # carries an exact zero sign
        left, right = _deflate_bernstein_at_zero(left[::-1])[::-1], _deflate_bernstein_at_zero(right)
    _isolate_bernstein(left, 2 * m, k + 1, out)
    _isolate_bernstein(right, 2 * m + 1, k + 1, out)


@lru_cache(maxsize=None)
def _deflated_poly(n: int) -> IntegerPolynomial:
    """P_n with its x = 0 roots divided out; shares every interior root of
    (0,1) with P_n and has nonzero sign at both interval ends.  x = 1 is no
    root: the recurrence gives P_{n+1}(1) = -2 P_n(1), so P_n(1) = (-2)^n."""
    poly = derivative_poly(n)
    zeros = next(i for i, c in enumerate(poly.coeffs) if c)
    return IntegerPolynomial(poly.coeffs[zeros:], poly.scale)


@lru_cache(maxsize=None)
def _isolated_intervals(n: int) -> tuple:
    """Disjoint rational intervals in (0,1), each holding one root of P_n,
    simple unless the interval is a point; exact and complete.  The x = 0
    root of odd orders is deflated away (the telescoping starts there).

    Descartes' rule on the integer Bernstein coefficients of the deflated
    P_n (_bernstein_01), halving by de Casteljau (_split_half) to depth at
    most 70; every interval is [m / 2^k, (m + 1) / 2^k], or the point of an
    exact root at a midpoint."""
    out = []
    _isolate_bernstein(_bernstein_01(_deflated_poly(n).coeffs), 0, 0, out)
    return tuple(sorted(out))


def _dyadic_value(coeffs, m: int, k: int) -> int:
    """2^(k d) p(m / 2^k) for p = sum coeffs[i] x^i of degree d, exactly, by
    homogeneous Horner on integers."""
    d = len(coeffs) - 1
    acc = 0
    for i in range(d, -1, -1):
        acc = acc * m + (coeffs[i] << (k * (d - i)))
    return acc


def _fixed_horner(shifted, x: int, g: int) -> tuple:
    """(p(x), p'(x)) on integers scaled by 2^g, for x scaled by 2^g with
    |x| < 2^g and shifted the coefficients of p shifted left by g bits,
    highest degree first: Horner with one floor per product, so p is off by
    fewer than d and p' by fewer than d^2 units of 2^-g."""
    p = dp = 0
    for c in shifted:
        dp = ((dp * x) >> g) + p
        p = ((p * x) >> g) + c
    return p, dp


def _bracket_sign(coeffs, shifted, m: int, k: int) -> int:
    """The exact sign of p(m / 2^k), 0 <= m < 2^k, with shifted the
    coefficients of p shifted left by g = k + 64 bits, highest degree first:
    floored Horner at x = m 2^64, which is m / 2^k exactly scaled by 2^g,
    is off by at most d units of 2^-g, so a value beyond d + 1 units has p's
    sign; within that, the exact _dyadic_value decides."""
    x, g, acc = m << 64, k + 64, 0
    for c in shifted:
        acc = ((acc * x) >> g) + c
    if abs(acc) <= len(shifted):
        acc = _dyadic_value(coeffs, m, k)
    return (acc > 0) - (acc < 0)


def _newton_start(shifted, s_lo: bool, m: int, k: int, g: int) -> int:
    """A root of p in [m / 2^k, (m + 1) / 2^k] to about g bits, as an integer
    scaled by 2^g, g >= k: safeguarded Newton on _fixed_horner from the
    midpoint, with s_lo the sign of p at the left end.  Each value of p
    moves the bracket to keep the sign change inside, and a Newton step that
    leaves the bracket, or is more than half the step before, is replaced by
    a bisection, so the steps at least halve.  It stops once p is within
    its floors' error of 0 (the sign is no longer known), or after a step
    below 2^-(g/2), which leaves x within about 2^-g of the root."""
    lo, hi = m << (g - k), (m + 1) << (g - k)
    x, last = (lo + hi) >> 1, hi - lo
    while hi - lo > 1:
        p, dp = _fixed_horner(shifted, x, g)
        if abs(p) <= len(shifted):
            break
        if (p > 0) == s_lo:
            lo = x
        else:
            hi = x
        nx = x - (p << g) // dp if dp else lo
        if not lo < nx < hi or 2 * abs(nx - x) > last:
            nx = (lo + hi) >> 1
        last, x = abs(nx - x), nx
        if last < 1 << (g // 2):
            break
    return x


@lru_cache(maxsize=None)
def sign_change_roots(n: int, prec: int) -> tuple:
    """Sign-change roots of P_n in (0, 1), as mpf at prec + 40 bits, all on
    the deflated polynomial (whose sign is nonzero at the interval ends).

    Each isolating interval [m / 2^k, (m + 1) / 2^k] from the exact
    isolation is refined by Newton's method on integers (_fixed_horner):
    safeguarded, with the exact sign at its left end, at g0 = max(64, k + 32)
    bits for the deepest k (_newton_start); then at G = prec + 80 until a
    step is below 2^-(prec+20), at most 8 steps.  At G, p is off by fewer
    than d and p' by fewer than d^2 units of 2^-G, so the root is refined far
    below the prec + 40 bits it is rounded to."""
    coeffs = _deflated_poly(n).coeffs
    big_g, out, starts = prec + 80, [], []
    for lo, hi in _isolated_intervals(n):
        if lo == hi:
            out.append(lo)
            continue
        k = max(lo.denominator, hi.denominator).bit_length() - 1
        starts.append((int(lo * 2**k), k))  # lo = m / 2^k and hi = (m + 1) / 2^k
    g = min(max([64] + [k + 32 for _, k in starts]), big_g)
    low, high = ([c << s for c in reversed(coeffs)] for s in (g, big_g))
    for m, k in starts:
        v_lo = _dyadic_value(coeffs, m, k)
        if v_lo == 0:
            raise ArithmeticError(f"P_{n} vanishes at the end {Q(m, 1 << k)} of an isolating interval")
        x = _newton_start(low, v_lo > 0, m, k, g) << (big_g - g)
        for _ in range(8):
            p, dp = _fixed_horner(high, x, big_g)
            if dp == 0:
                break
            step = (p << big_g) // dp
            x -= step
            if abs(step) < 1 << (big_g - prec - 20):
                break
        out.append(Q(x, 1 << big_g))
    with mp.workprec(prec + 40):
        return tuple(map(_to_mpf, sorted(out)))


# ---------------------------------------------------------------------------
# Gauss-Legendre panels


def _legendre_fixed(n: int, x: int, f: int) -> tuple:
    """(P_n(x), P_n'(x)) by the three-term recurrence on integers scaled by
    2^f, for |x| < 1 in the same scaling."""
    one = 1 << f
    p0, p1 = one, x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * ((x * p1) >> f) - (j - 1) * p0) // j
    return p1, (n * (((x * p1) >> f) - p0) << f) // (((x * x) >> f) - one)


def _legendre_seed(n: int, k: int) -> float:
    """The k-th largest root of P_n to about double precision: Tricomi's
    asymptotic node (1 - 1/(8 n^2) + 1/(8 n^3)) cos(pi (4k - 1) / (4n + 2)),
    then one Newton step in floats."""
    x = (1 - 1 / (8 * n * n) + 1 / (8 * n**3)) * cos(pi * (4 * k - 1) / (4 * n + 2))
    p0, p1 = 1.0, x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return x - p1 * (x * x - 1) / (n * (x * p1 - p0))


_SEED_BITS = 48  # the bits a seed of _legendre_seed is taken to carry, until a step measures them


@lru_cache(maxsize=None)
def gauss_legendre(n: int, prec: int) -> tuple:
    """Nodes and weights on [-1,1], ascending, as mpf at prec + 40 bits;
    ValueError for n < 1.

    Each positive node comes from the double-precision seed of
    _legendre_seed by Halley's method on P_n, in Python integers scaled by
    2^g: P_n and P_n' from _legendre_fixed, P_n'' from the Legendre equation
    (1 - x^2) P'' = 2x P' - n(n+1) P, and the step 2 P P' / (2 P'^2 - P P'').
    A step triples the bits an iterate has, so it runs at g = 3b + 24 bits,
    capped at F = prec + 60, for an iterate of b bits: _SEED_BITS for the
    seed, then min(3 (g - L), g) - 24 after a step of L bits at g.  The
    iteration stops after a step at F below 2^-(F/3 + 16); that is 2 or 3
    evaluations of P_n per node at the workloads' precisions.

    Node error.  At F the recurrence floors once per product and quotient,
    so P_n, P_n' and P_n'' are off by O(n^2) units of 2^-F, times |P_n'|,
    near a node.  A Halley step from e away from the root lands within
    C e^3 of it, C = |P''^2 / (4 P'^2) - P''' / (6 P')| < n^4 / 16 at the
    nodes; the last step, below 2^-(F/3 + 16), started within
    2^-((F - 2)/3 + 15), so C e^3 is below one unit of 2^-F for n < 2^11.
    The node then lies within O(n^2) units of 2^-F of the root, 20 bits
    below what is stored.

    Weight error.  The weight is 2 / ((1 - x^2) P_n'(x)^2), with P_n'(x)
    carried from the last step's start x0 by Taylor:
    P'(x0) + h P''(x0) + h^2 P'''(x0) / 2, h = x - x0, with P''' from the
    derivative of the equation, (1 - x^2) P''' = 4x P'' - (n(n+1) - 2) P'.
    The remainder is at most |h|^3 max |P''''| / 6 < 2^-(F + 46) n^8 / 630
    (Markov's inequality, |P_n| <= 1), and |P_n'| >= 1 at a node (its weight
    is at most 2), so P_n'(x) carries a relative error below 2^-(F - 20) for
    n < 2^9.4, besides the O(n^2) units of the recurrence.  The middle node
    of an odd n is 0, with P_n'(0) from one evaluation.

    No bound downstream takes these tables as exact: _gauss_defect measures
    the moment defect of the rule as stored, and every quadrature bound
    carries it."""
    if n < 1:
        raise ValueError(f"a Gauss-Legendre rule needs n >= 1 nodes, not {n}")
    f = prec + 60
    nn = n * (n + 1)
    points = []  # (node, P_n' there) on the positive half, descending, scaled by 2^F
    for k in range(1, n // 2 + 1):
        x, g, bits = int(ldexp(_legendre_seed(n, k), 53)), 53, _SEED_BITS
        while True:
            shift = min(max(3 * bits + 24, g), f) - g
            x, g = x << shift, g + shift
            p, dp = _legendre_fixed(n, x, g)
            u = (1 << g) - ((x * x) >> g)
            ddp = ((((x * dp) >> (g - 1)) - nn * p) << g) // u
            step = (p * dp << (g + 1)) // (2 * dp * dp - p * ddp)
            x0, x = x, x - step
            if g == f and abs(step) >> (f - f // 3 - 16) == 0:
                break
            bits = min(3 * (g - abs(step).bit_length()), g) - 24
        dddp = ((((x0 * ddp) >> (f - 2)) - (nn - 2) * dp) << f) // u
        points.append((x, dp - ((step * ddp) >> f) + ((step * step * dddp) >> (2 * f + 1))))
    if n % 2 == 1:
        points.append((0, _legendre_fixed(n, 0, f)[1]))
    one = 1 << f
    with mp.workprec(prec + 40):
        rule = [(mp.mpf((x, -f)), mp.mpf(((2 << (4 * f)) // ((one - ((x * x) >> f)) * dp * dp), -f)))
                for x, dp in points]
        right, middle = rule[:n // 2], rule[n // 2:]
        return tuple([(-x, w) for x, w in right] + middle + right[::-1])


@lru_cache(maxsize=None)
def _gauss_legendre_fixed(order: int, prec: int) -> tuple:
    """gauss_legendre(order, prec) as (node, weight) integers scaled by 2^F,
    F = prec + 40, each floored from its mpf."""
    f = prec + 40
    return tuple((to_fixed(x._mpf_, f), to_fixed(w._mpf_, f)) for x, w in gauss_legendre(order, prec))


def _sigma_deriv_panel(n: int, power: int, a, b, order: int):
    """GL(order) of sigma^(n)^power over [a, b], 0 <= a < b < 1, power 1 or 2,
    on Python integers scaled by 2^F, F = working precision + 40.

    Per node x_j = (a + b)/2 + t_j (b - a)/2, floored to F bits: P_n by
    Horner in y = x^2 (kept exact at 2F bits) over the nonzero coefficients
    of _horner_table, times x once for odd n; v = 1/u, u = 1 - x^2; u^(-2n)
    as v^(2n) by squaring; and e^(-v) = 2^k e^r with r in [0, ln 2) from
    exp_fixed.  The weighted sum of the node values (or their squares) is
    exact; it crosses into mpf once, times scale^power.

    Truncation, in units of 2^-F, for the primitive polynomial (P_n / scale)
    and first order in 2^-F: node j's value is off by at most
        e_j = (d/2 + 2) g_j + (4n + _EXP_FIXED_ULPS + 8) |p_j| g_j + 1,
    with d the degree of P_n, p_j = P_n(x_j) / scale and
    g_j = u_j^(-2n) e^(-1/u_j): the Horner steps floor fewer than d/2 + 1
    times at |x| < 1, v^(2n) carries a relative error of at most 4n units,
    e^(-v) one of _EXP_FIXED_ULPS + 3, and the final shift floors once.  So
    the result is within |scale|^power (b - a)/2 sum_j w_j B_j units of the
    same rule done exactly at the nodes x_j, with B_j = e_j for power 1 and
    (2 |p_j| g_j + e_j) e_j for power 2, plus three roundings to the working
    precision.  A value below 2^-F (near 1, where e^(-1/u) underflows) is
    returned as 0 within that bound.

    The integer nodes and weights are within 2 units of the stored
    gauss_legendre ones, and x_j within 3 units of the stored node mapped to
    [a, b], which moves the result from that rule by at most
    (b - a)/2 sum_j (2 |f_j| + 3 w_j |f'_j|) more units, to first order,
    f = (sigma^(n))^power.  _norm_integral bounds all of it."""
    f = mp.prec + 40
    coeffs, scale = _horner_table(n, f)
    coeffs = coeffs[::2]  # P_n has the parity of n: every other coefficient is 0
    lo, hi = to_fixed(a._mpf_, f), to_fixed(b._mpf_, f)
    mid2, half2 = lo + hi, hi - lo  # (a + b) and (b - a), scaled by 2^F
    one = 1 << f
    ln2 = ln2_fixed(f + 20)
    total = 0
    for t, w in _gauss_legendre_fixed(order, mp.prec):
        x = ((mid2 << f) + half2 * t) >> (f + 1)
        y = x * x  # exact, scaled by 2^(2F)
        acc = 0
        for c in coeffs:
            acc = ((acc * y) >> (2 * f)) + c
        if n & 1:
            acc = (acc * x) >> f
        v = (one << (2 * f)) // ((one << f) - y)  # 1/u, u = 1 - x^2
        g, base, e = one, v, 2 * n
        while e:
            if e & 1:
                g = (g * base) >> f
            e >>= 1
            if e:
                base = (base * base) >> f
        k, r = divmod(-v << 20, ln2)  # -v = k ln 2 + r, 0 <= r < ln 2
        value = (acc * g * exp_fixed(r >> 20, f)) >> (2 * f - k)  # 2^k with k < 0
        total += w * value**power
    # w scaled by 2^F, value^power by 2^(power F), (b - a) / 2 by 2^(F + 1)
    return mp.ldexp(total * half2, -((power + 2) * f + 1)) * scale**power


def _norm_peak(n: int, m, c, rho):
    """An mpmath.iv interval whose upper end bounds |sigma^(n)| on the box
    |Re z - m| <= c (rho + 1/rho)/2, |Im z| <= c (rho - 1/rho)/2 around the
    Bernstein ellipse E_rho of the panel with centre m and half-width c (iv
    intervals; c = 0 gives the point m), for a box in |Re z| < 1.  There
    |P_n(z)| <= S max(1, |z|)^d <= S (1 + Im(z)^2)^(d/2), S = scale sum |c_k|;
    and with w = 1 - z^2, t = 1/|w|^2 and a = min(1 - Re(z)^2) <= Re w,
    |w^(-2n) e^(-1/w)| = t^n e^(-t Re w) <= t^n e^(-a t), whose maximum over
    the range of t is at n/a clamped to that range."""
    poly = derivative_poly(n)
    x2 = (m + c * (rho + 1 / rho) / 2 * iv.mpf([-1, 1])) ** 2
    y2 = (c * (rho - 1 / rho) / 2) ** 2 * iv.mpf([0, 1])
    low = iv.mpf((1 - x2).a)
    t, top = 1 / ((1 - x2 + y2) ** 2 + 4 * x2 * y2), n / low
    t = iv.mpf([min(max(v, t.a), t.b) for v in (top.a, top.b)])
    return sum(map(abs, poly.coeffs)) * poly.scale * (1 + y2) ** (poly.degree / 2) * t**n * iv.exp(-low * t)


def _norm_integral(n: int, power: int, precision_bits: int) -> tuple:
    """(value, bound) for int_0^1 sigma^(n)^power, power 1 (for n = 0) or 2,
    with bound >= |value - integral|: the sum of _sigma_deriv_panel over the
    panels of _grid_breaks(1, cut) at P = max(64, precision_bits + 24n + 40)
    bits, so that the 64-bit iv bound converts to mpf exactly.

    One order, 4 ceil((1 + (precision_bits + 24n + 16) / (2 log2 rho)) / 4),
    for every panel's rho = 2.5 + sqrt(5.25), whose ellipse reaches a
    quarter of the way from the panel's end to 1 (checked by _panel_ellipse);
    24 n bits cover the ellipse peaks over the integral (2^473 at n = 20).
    The cut is the first k >= log2(4 n) where the sliver int_{1-d}^1 <=
    d (S u^(-2n) e^(-1/u))^power, d = 2^-k, u = 1 - (1 - d)^2 (_norm_peak
    at 1 - d: u^(-2n) e^(-1/u) grows on u <= 1/(2n)), is below
    2^-(precision_bits + 4) of the sum so far.

    The bound adds, in mpmath.iv, the sliver and per panel, with M = peak^power
    from _norm_peak on its ellipse and f = sigma^(n)^power: M times the Gauss
    bound _ellipse_bound of f / M, with the rule's moment defect D; and in
    units of 2^-(P + 40), as d <= 3n, scale g_j <= peak, |sigma^(n)(x_j)| <=
    peak and q = (6n + _EXP_FIXED_ULPS + 12) peak + scale >= 1034 peak,
    _sigma_deriv_panel's truncation c (2 + D) e (2 peak + e)^(power-1) <=
    c (2 + D) q^power, its node and weight term c 2 order M +
    3 (2 + D) M 2 rho / (rho - 1)^2 (Cauchy: |f'| <= M 2 rho / (c (rho - 1)^2)
    on the panel), and its three roundings to P bits and the running sum's,
    (3 + cut) c (2 + D) M 2^40: q^power (2 + D) (c 2^41 + 6 rho / (rho - 1)^2)
    covers them.  ArithmeticError if the bound passes 2^-precision_bits of the
    value."""
    bits, rho0 = precision_bits + 24 * n + 16, 2.5 + sqrt(5.25)
    order = 4 * ceil((1 + bits / (2 * log2(rho0))) / 4)
    breaks = _grid_breaks(1, 64)  # the sum stops at the cut
    with mp.workprec(max(bits + 24, 64)), PrecisionManager(iv, lambda _: 64, None):
        defect = iv.ldexp(_gauss_defect(order, mp.prec), -mp.prec - 80)
        total = bound = 0
        for cut, (a, b) in enumerate(zip(breaks, breaks[1:]), 1):
            total += _sigma_deriv_panel(n, power, _to_mpf(a), _to_mpf(b), order)
            c, rho = (_to_mpf(v, iv) for v in _panel_ellipse(a, b, rho0))
            peak = _norm_peak(n, _to_mpf((a + b) / 2, iv), c, rho)
            q = (6 * n + _EXP_FIXED_ULPS + 12) * peak + derivative_poly(n).scale
            fixed = q**power * (2 + defect) * (c * 2**41 + 6 * rho / (rho - 1) ** 2)
            bound += peak**power * _ellipse_bound(c, rho, order, 1, defect) + iv.ldexp(fixed, -mp.prec - 40)
            sliver = _to_mpf(1 - b, iv) * _norm_peak(n, _to_mpf(b, iv), 0, 1) ** power
            if 4 * n <= 1 << cut and sliver.b <= mp.ldexp(total, -precision_bits - 4):
                break
        bound = mp.mpf((bound + sliver).b)
        if not bound <= mp.ldexp(total, -precision_bits):
            raise ArithmeticError(f"quadrature bound exceeds 2^-{precision_bits} of the norm at N={n}")
        return total, bound


def _taylor_reach(n: int, k: int):
    """w^2 M / 2 in mpmath.iv at iv.prec, for w = 2^(1-k) and
    M = S j^j e^-j >= |sigma^(n+1)| on (-1, 1), j = 2n + 2: |P_{n+1}| is at
    most its coefficient sum S there and u^-j e^(-1/u) <= j^j e^-j."""
    high, j = derivative_poly(n + 1), 2 * n + 2
    s = sum(map(abs, high.coeffs)) * high.scale
    return iv.mpf(s) * iv.mpf(j) ** j * iv.exp(-j) * iv.mpf(2) ** (1 - 2 * k)


def _root_value_iv(n: int, m: int, k: int, reach):
    """An mpmath.iv interval holding sigma^(n-1)(xi) for every zero xi of
    sigma^(n) in [a, a + w], a = (m - 1) / 2^k, w = 2^(1-k), 0 < m < 2^k:
    sigma^(n-1)(a) = P_{n-1}(a) u^(2-2n) e^(-1/u), u = 1 - a^2, with P_{n-1}(a)
    exact (_dyadic_value) and the rest at iv.prec, widened by the Taylor term
    at xi, reach = _taylor_reach(n, k)."""
    low, a = derivative_poly(n - 1), m - 1
    u = iv.mpf((1 << (2 * k)) - a * a) / (1 << (2 * k))
    p = iv.mpf(_dyadic_value(low.coeffs, a, k)) * low.scale
    value = p * iv.mpf(2) ** (-k * low.degree) * u ** (2 - 2 * n) * iv.exp(-1 / u)
    return value + reach * iv.mpf([-1, 1])


def _telescoped_norm(n: int, prec: int, k: int):
    """The mpmath.iv enclosure of the L1 norm of sigma^(n), n >= 1, from the
    roots sign_change_roots(n, prec) in brackets at K = k bits (l1_norm)."""
    coeffs = _deflated_poly(n).coeffs
    shifted = [c << (k + 64) for c in reversed(coeffs)]
    ms = [(to_fixed(r._mpf_, k + 1) + 1) >> 1 for r in sign_change_roots(n, prec)]
    if any(b - a < 2 for a, b in zip([0] + ms, ms)) or any(
            _bracket_sign(coeffs, shifted, m - 1, k) * _bracket_sign(coeffs, shifted, m + 1, k) >= 0 for m in ms):
        raise ArithmeticError(f"no certified brackets for the roots of P_{n}")
    reach = _taylor_reach(n, k)
    # at 0, sigma^(n) vanishes for odd n and the odd sigma^(n-1) for even n
    vals = [_root_value_iv(n, 1, k, reach) if n % 2 else iv.mpf(0)] + [_root_value_iv(n, m, k, reach) for m in ms]
    return 2 * sum(abs(b - a) for a, b in zip(vals, vals[1:] + [iv.mpf(0)]))


L1_DEEPER_BITS, L1_DEEPER_MAX = 32, 8  # bracket depth step of an l1_norm retry, and the most retries


def l1_norm(n: int, precision_bits: int = 256) -> dict:
    """{"ln", "norm", "abs_err", "ln_enclosure": (lo, hi)}, in mpf, for the
    L1 norm of sigma^(n) on (-1,1).

    n >= 1: sigma^(n-1) is monotone between consecutive sign changes xi_k of
    P_n, so the norm is 2 sum |v_{k+1} - v_k| over v = sigma^(n-1) at 0,
    xi_1, ..., xi_m and 1 (where it is 0).  xi_k's bracket is its refined root
    (sign_change_roots) rounded to K = prec + 20 bits, plus and minus 2^-K:
    P_n's exact signs (_bracket_sign) differ at its ends and the brackets are
    disjoint (else ArithmeticError), so each holds one of the roots, one per
    isolating interval.  The values of sigma^(n-1) come from _root_value_iv,
    widened by one _taylor_reach per call.  The sum, in mpmath.iv at
    prec + 60 bits, encloses the norm: norm is its midpoint, abs_err bounds
    its distance to the true norm, ln_enclosure holds the ln.  The Taylor
    widening grows with n, so an enclosure that misses the target below is
    computed again with K and the roots' precision L1_DEEPER_BITS deeper, up
    to L1_DEEPER_MAX times.

    n = 0: the norm is 2 int_0^1 sigma by _norm_integral, whose bound
    makes abs_err rigorous too, and ln_enclosure the ln of norm +- abs_err.

    Raises ArithmeticError if abs_err / norm exceeds 2^(-precision_bits/2)."""
    with mp.workprec(precision_bits + 60), PrecisionManager(iv, lambda _: precision_bits + 60, None):
        if n == 0:
            half, err = _norm_integral(0, 1, precision_bits)
            totals = [2 * (iv.mpf([-1, 1]) * err + half)]
        else:  # computed lazily: a deeper pass only when the one before misses
            totals = (_telescoped_norm(n, precision_bits + extra, precision_bits + 20 + extra)
                      for extra in range(0, L1_DEEPER_BITS * L1_DEEPER_MAX + 1, L1_DEEPER_BITS))
        for total in totals:
            norm, ln = mp.mpf(total.mid), iv.log(total)
            abs_err, enclosure = mp.mpf(abs(total - norm).b), (mp.mpf(ln.a), mp.mpf(ln.b))
            if abs_err <= mp.ldexp(norm, -(precision_bits // 2)):
                return {"ln": mp.log(norm), "norm": norm, "abs_err": abs_err, "ln_enclosure": enclosure}
        raise ArithmeticError(f"requested precision unreachable at N={n}")


def l1_norm_extrema(n: int, precision_bits: int = 256):
    """Independent oracle for n >= 1: between consecutive sign changes of
    sigma^(n) the integral telescopes to differences of sigma^(n-1)."""
    if n < 1:
        raise ValueError("telescoping oracle needs n >= 1")
    with mp.workprec(precision_bits + 60):
        vals = [sigma_deriv_mp(n - 1, x) for x in (0, *sign_change_roots(n, precision_bits))] + [0]
        # [0,1] covers half the mass for even |sigma^(n)|
        return mp.log(2 * mp.fsum(abs(b - a) for a, b in zip(vals, vals[1:])))


# ---------------------------------------------------------------------------
# Fourier side


# exp_fixed(x, F) for x <= -1 is taken to be within this many units of 2^-F of
# e^x.  mpmath's fixed-point exponential (a Taylor series with sqrt(F) guard
# bits and repeated squaring) is off by a few units in practice; the tests
# check it against mpf exp.  The figure enters the bound only multiplied by a
# weight w c < 2^-8, so its generosity costs little.
_EXP_FIXED_ULPS = 1 << 10
# Every trigonometric value below is converted to an integer scaled by 2^F
# within this many units of 2^-F (the derivation is in _phases).
_CONV_ULPS = 2
_TRIG_GUARD = 20
GRID_R_MAX = 512  # sigma_hat's oscillation grids serve |r| <= GRID_R_MAX
_SMALL_R_MAX = 128  # and the smaller of the two grids |r| <= _SMALL_R_MAX
_PANEL_PHASE = 120  # radians of 2 pi r_max x across one interior panel, at most


def _grid_order(prec: int, phase: float) -> int:
    """The Gauss-Legendre order of an oscillation grid whose interior panels
    carry `phase` radians of 2 pi r_max x, for a bound below 2^-prec.

    The panel that binds is the last interior one, [1 - 2^(1-j), 1 - 2^-j]:
    the breakpoint 1 - 2^-j beside it caps its Bernstein ellipse at
    rho = 3 + 2 sqrt 2, where the cosh factor of _ellipse_bound is
    M = e^(phase sqrt 2).  Its quadrature term 2 M rho^(2 - 2 order) stays
    below 2^-(prec + 14) once

        order >= 1 + (prec + 14 + phase sqrt 2 / ln 2) / (2 log2 rho),

    rounded up to a multiple of 8.  The tail panels have the same cap and
    less phase; the other interior panels admit wider ellipses."""
    nodes = 1 + (prec + 14 + phase * sqrt(2) / log(2)) / (2 * log2(3 + 2 * sqrt(2)))
    return 8 * ceil(nodes / 8)


@lru_cache(maxsize=None)
def _gauss_defect(order: int, prec: int) -> int:
    """An upper bound, in units of 2^-(prec + 80), on the moment defect

        D = sum over even k < 2 order of |int_{-1}^{1} T_k - sum_j w_j T_k(t_j)|

    of the nodes t_j and weights w_j of gauss_legendre(order, prec) as they
    are stored (D = 0 for the exact Gauss rule; odd k cancel on the mirrored
    nodes and on a middle node at 0).

    On Python integers scaled by 2^F, F = prec + 80, over the nodes t_j >= 0
    at once: T_{2i}(t_j) = T_i(s_j), s_j = 2 t_j^2 - 1, by the three-term
    recurrence T_{i+1} = 2 s T_i - T_{i-1}, weighted by 2 w_j for a positive
    node (it stands for its mirror too) and w_j for the middle one.

    Per moment i, in units of 2^-F.  The node floored to F bits moves s by
    less than 4 units, and the floor of 2 t^2 by less than 1 more, so s_j is
    within 5 units below 2 t_j^2 - 1, in [-1, 1], where |T_i'| <= i^2:
    5 i^2.  Each step of the recurrence floors once, and a floor at step m
    reaches T_i times U_{i-1-m}(s_j), |U_{i-1-m}| <= i - m: i (i - 1) / 2 in
    all.  So each T_i(s_j) is within 5.5 i^2, and the weights, which sum to 2
    within 2^-20, give 11.1 i^2; each of the m <= order weights floored to F
    bits adds 1 unit times |T_i| <= 1 + 2^-20, and the final floor of the sum
    and that of the exact moment 1 unit each: at most 12 i^2 + order + 4
    units, which is added per i."""
    f = prec + 80
    s_nodes, weights = [], []
    for t, w in gauss_legendre(order, prec)[order // 2:]:
        x = to_fixed(t._mpf_, f)
        s_nodes.append(((x * x) >> (f - 1)) - (1 << f))
        weights.append(to_fixed(w._mpf_, f if x == 0 else f + 1))
    two_s = [2 * s for s in s_nodes]
    prev, cur = [1 << f] * len(s_nodes), s_nodes
    units = 0
    for i in range(order):
        exact = (2 << f) // (1 - 4 * i * i)  # int T_{2i} = 2 / (1 - 4 i^2)
        units += abs((sum(map(mul, weights, prev)) >> f) - exact) + 12 * i * i + order + 4
        prev, cur = cur, [((a * c) >> f) - b for a, c, b in zip(two_s, cur, prev)]
    return units


def _panel_ellipse(a: Q, b: Q, rho: float) -> tuple:
    """(c, rho) for the panel [a, b], 0 <= a < b < 1: its half-width and the
    Bernstein ellipse parameter _ellipse_bound uses there, the given rho
    capped just inside the edge m + c (rho + 1/rho)/2 = 1, m = (a + b)/2;
    the cap is checked in exact rationals, so the ellipse stays in
    |Re x| < 1."""
    m, c = (a + b) / 2, (b - a) / 2
    q = float((1 - m) / c)
    rho = Q(min(rho, q + sqrt(q * q - 1)) * (1 - 2.0**-20))
    if not (rho > 1 and m + c * (rho + 1 / rho) / 2 < 1):
        raise ArithmeticError(f"no Bernstein ellipse for the panel [{a}, {b}]")
    return c, rho


def _ellipse_bound(c, rho, order: int, big_m, defect):
    """An mpmath.iv interval whose upper end bounds |int_a^b g - GL(g)| for
    every g analytic on the Bernstein ellipse E_rho of a panel [a, b] of
    half-width c, with |g| <= big_m there and |g| <= 1 on [a, b], where GL
    is the gauss_legendre rule of this order mapped to [a, b]; c, rho,
    big_m and the rule's moment defect D (_gauss_defect) are iv intervals.

    With x = m + c t, m = (a + b)/2, the error is c times that of the rule
    on t in [-1, 1].  The Chebyshev coefficients of g in t obey
    |a_k| <= 2 M rho^-k, M = big_m, and |a_k| <= 2 from |g| <= 1 on the
    interval (Trefethen, Approximation Theory and Approximation Practice,
    Thm 8.1).  The rule integrates T_k to within D together for even
    k < 2 order, and within 2/(k^2 - 1) + 2 + D beyond, so the error on
    [-1, 1] is at most

        2 D + 2 M (32/15 + D) rho^(2 - 2 order) / (rho^2 - 1),

    the Gauss-rule bound of Trefethen (SIAM Rev. 50, 2008, Thm 4.5) when
    D = 0."""
    return c * (2 * defect + 2 * big_m * (iv.mpf(32) / 15 + defect) * rho ** (2 - 2 * order) / (rho**2 - 1))


class _OscillationGrid(NamedTuple):
    order: int  # Gauss-Legendre nodes per panel
    width_exp: int  # interior panels have width 2^-width_exp
    cut_exp: int  # the grid ends at 1 - 2^-cut_exp
    offsets: tuple  # nodes t_j, j < order/2, of the mirrored pairs, scaled by 2^(prec + 40 + _TRIG_GUARD)
    interior: tuple  # per interior panel: (G_j + G_{order-1-j}, G_j - G_{order-1-j}) for j < order/2
    tail: tuple  # the same per tail panel, nearest 0 first
    truncation: object  # mpf bound on the fixed-point error of the grid sum
    bound: object  # mpf bound on |sigma_hat(r) - the grid sum|, every |r| <= r_max

    @property
    def breaks(self) -> tuple:
        return _grid_breaks(self.width_exp, self.cut_exp)


def _grid_breaks(width_exp: int, cut_exp: int) -> tuple:
    """The panel ends of an oscillation grid as Fractions: p 2^-width_exp for
    p < 2^width_exp, then 1 - 2^-k for k = width_exp + 1 .. cut_exp."""
    return (tuple(Q(p, 1 << width_exp) for p in range(1 << width_exp))
            + tuple(1 - Q(1, 1 << k) for k in range(width_exp + 1, cut_exp + 1)))


@lru_cache(maxsize=8)
def _oscillation_grid(prec: int, r_max: int) -> _OscillationGrid:
    """Graded composite Gauss-Legendre grid on [0, 1 - 2^-K] for |r| <= r_max,
    with sigma-times-weight precomputed in fixed point, and its error bound.

    Layout.  Interior panels of width 2^-j tile [0, 1 - 2^-j], j the smallest
    with 2 pi r_max 2^-j <= _PANEL_PHASE radians; then one panel per geometric
    segment [1 - 2^-k, 1 - 2^-(k+1)], k = j .. K - 1, toward the essential
    singularity at 1.  For r_max = 128 and 512, j = 3 and 5, and either way
    an interior panel carries 2 pi 128 / 8 = 100.5 radians, so both tiers
    share the order _grid_order gives: 72 at prec = 128, 96 at prec = 256.
    The cut K is the larger of j and 1 + the bit length of
    floor(0.7 (prec + 16)), so that e^(-2^(K-1)) <= 2^-(prec + 16).  For
    r_max = 128 and 512 that is 13 and 35 panels (1,248 and 3,360 nodes) at
    prec = 256, 12 and 34 (864 and 2,448 nodes) at prec = 128.

    Entries.  Each entry G is the integer sigma(x) w c scaled by 2^F,
    F = prec + 40, c the panel's half-width: the node x = m + c t, then
    1 - x^2, then -1/(1 - x^2) by integer division, then exp_fixed, then the
    product with the fixed-point weight w c.  Against sigma at the exact
    node it is off by at most entry_ulps units of 2^-F: 2 for the node
    (|sigma'| < 0.8), 1 for the square, 1 for the division
    (|d/du e^{-1/u}| <= 4/e^2 and e^{-1/u} < 1), _EXP_FIXED_ULPS for
    exp_fixed, all times the weight, plus 2 for the weight's conversion and
    1 for the final shift.  The nodes of a panel come in mirrored pairs
    (t_{order-1-j} = -t_j), whose cosines agree and sines differ in sign, so
    each row keeps the pair sums and pair differences of its entries.

    Bound.  `truncation` covers the fixed-point arithmetic of
    _sigma_hat_bounded against the same sum done exactly at these nodes and
    weights, for r as rounded to F bits.  `bound` adds twice the quadrature
    error of every panel (_ellipse_bound, with this rule's moment
    defect from _gauss_defect) and the sliver 2 int_{1-d}^1 sigma
    <= 2 d e^(-1/(2d - d^2)), d = 2^-K, that the grid leaves out; both are
    evaluated in mpmath.iv, and both hold for every |r| <= r_max.

    Truncation, in units of 2^-F, to first order in 2^-F.  The trigonometric
    pairs are off by at most e0 = 2 _CONV_ULPS each (as 2-vectors): the node
    offsets of the narrowest width, the first interior centre, the interior
    rotation and each tail centre.  Doubling the offsets' angle (squaring a
    unit complex number) for each wider panel width takes an error e to
    2 e + 2, and each interior rotation adds e0 + 3.  A panel whose phase is
    off by p and offsets by o is off by 2 (p + o) times its mass (the sum of
    its entries, plus order entry_ulps for their own error) and by
    2 order entry_ulps for its entries; the final >> 2F adds 1, and the
    factor 2 of sigma_hat doubles it all."""
    f = prec + 40
    one = 1 << f
    width = 0
    while 2 * pi * r_max > _PANEL_PHASE << width:
        width += 1
    order = _grid_order(prec, 2 * pi * r_max / (1 << width))
    half = order // 2
    cut = max(width, ((prec + 16) * 7 // 10).bit_length() + 1)
    rule = gauss_legendre(order, prec)
    nodes = [to_fixed(t._mpf_, f) for t, _ in rule]
    ln2 = ln2_fixed(f)
    weights = {}  # per half-width 2^-e: the weights w_j 2^-e as integers scaled by 2^F
    rows, masses = [], []
    breaks = _grid_breaks(width, cut)
    for a, b in zip(breaks, breaks[1:]):
        e = (b - a).denominator.bit_length()
        if e not in weights:
            weights[e] = [to_fixed(w._mpf_, f - e) for _, w in rule]
        mid = ((a + b).numerator << f) // (2 * (a + b).denominator)  # exact: a + b is dyadic
        row = []
        for t, w in zip(nodes, weights[e]):
            x = mid + (t >> e)
            u = one - ((x * x) >> f)
            row.append((exp_fixed(-((one << f) // u), f, ln2) * w) >> f)
        left, right = row[:half], row[:half - 1:-1]
        rows.append((tuple(map(add, left, right)), tuple(map(sub, left, right))))
        masses.append(sum(row))

    interior = (1 << width) - 1
    sigma_ulps = 2 + 1 + 1 + _EXP_FIXED_ULPS
    entry_ulps = -((-sigma_ulps * max(weights[width + 1])) >> f) + _CONV_ULPS + 1
    e0 = 2 * _CONV_ULPS
    offset_err = [e0]  # per panel width 2^-cut, 2^-(cut-1), ..., 2^-width
    for _ in range(cut - width):
        offset_err.append(2 * offset_err[-1] + 2)
    errors = ([e0 + p * (e0 + 3) + offset_err[-1] for p in range(interior)]
              + [e0 + offset_err[cut - k - 1] for k in range(width, cut)])
    weighted = sum(err * (mass + order * entry_ulps) for err, mass in zip(errors, masses))
    ulps = 2 * order * entry_ulps * len(rows) - (-2 * weighted >> f) + 1
    with mp.workprec(64), PrecisionManager(iv, lambda _: 64, None):
        truncation = mp.ldexp(2 * ulps, -f)
        defect = iv.ldexp(_gauss_defect(order, prec), -prec - 80)
        # rho minimises pi r_max c rho - (2 order - 2) ln rho; on E_rho, in |Re x| < 1, |sigma| <= 1
        # and |cos 2 pi r x| <= cosh(2 pi r Im x) <= e^(pi r_max c (rho - 1/rho))
        ellipses = Counter(_panel_ellipse(a, b, 4 * (order - 1) / (pi * r_max * float(b - a)))
                           for a, b in zip(breaks, breaks[1:]))
        quadrature = 0
        for (c, rho), n in ellipses.items():
            c, rho = _to_mpf(c, iv), _to_mpf(rho, iv)
            quadrature += n * _ellipse_bound(c, rho, order, iv.exp(iv.pi * r_max * c * (rho - 1 / rho)), defect)
        d = iv.mpf(2) ** -cut
        sliver = 2 * d * iv.exp(-1 / (2 * d - d * d))
        bound = mp.mpf((iv.mpf(2 * ulps) * iv.mpf(2) ** -f + 2 * quadrature + sliver).b)
    offsets = tuple(to_fixed(t._mpf_, f + _TRIG_GUARD) for t, _ in rule[:half])
    return _OscillationGrid(order, width, cut, offsets, tuple(rows[:interior]), tuple(rows[interior:]),
                            truncation, bound)


def _phases(r, grid: _OscillationGrid, f: int) -> tuple:
    """The (cos, sin) pairs _sigma_hat_bounded turns the grid with, for the
    mpf r, as integers scaled by 2^F: at 2 pi r c t_j for the offsets t_j
    and the narrowest half-width c = 2^-(K+1); at 2 pi r times the first
    interior centre 2^-(j+1), times one interior panel 2^-j, and times each
    tail centre 1 - 3 2^-(k+2), k = j .. K - 1.

    Every angle is an integer scaled by 2^G, G = F + _TRIG_GUARD: omega =
    2 pi r from r floored to G bits times pi_fixed(G), then times the node
    t_j (stored to G bits) or the dyadic factor, all below 1, and floored.
    cos_sin_fixed reduces it by pi/2 floored to G bits and evaluates the
    reduced angle on integers at G bits.

    Conversion error, per component, in units of 2^-G: omega is off by less
    than 2 pi + 2|r| + 1 <= 1032 (the floors of r, of pi and of the product;
    |r| <= 512); an angle by less than 1032 + 256 + 1 (|omega| 2^-(K+1) < 256
    times the node's floor, and its own floor); the reduction by at most one
    unit per quarter turn, 2 |omega| / pi + 1 <= 2049; so the argument is
    off by less than 2^12, and the cosine and sine by that plus the few
    units of cos_sin_fixed's own floors.  The final >> _TRIG_GUARD floors
    once more: each component is within 1 + 2^-7 < _CONV_ULPS units of 2^-F,
    the pair within sqrt 2 (1 + 2^-7) < 2 _CONV_ULPS as a 2-vector.  The
    tests check cos_sin_fixed's share against mpf cos and sin."""
    g = f + _TRIG_GUARD
    omega = (to_fixed(r._mpf_, g) * pi_fixed(g)) >> (g - 1)

    def fixed(angle):
        c, s = cos_sin_fixed(angle, g)
        return c >> _TRIG_GUARD, s >> _TRIG_GUARD

    width, cut = grid.width_exp, grid.cut_exp
    narrow = [fixed((omega * t) >> (g + cut + 1)) for t in grid.offsets]
    centres = [fixed((omega * ((4 << k) - 3)) >> (k + 2)) for k in range(width, cut)]
    return narrow, fixed(omega >> (width + 1)), fixed(omega >> width), centres


def _sigma_hat_bounded(r, precision_bits: int) -> tuple:
    """(value, bound): the grid sum 2 sum_panels sum_j sigma(x) w c cos(2 pi r x)
    on _oscillation_grid, done in integers scaled by 2^F,
    F = precision_bits + 40, and the grid's bound on its distance from
    sigma_hat(r): fixed-point truncation, quadrature error and the sliver
    beyond the grid, for r as rounded to F bits.

    The grid for |r| <= 128 serves the small tier, the one for |r| <= 512
    the rest.  The trigonometric values are converted once per call, on
    integers by _phases: the phase offsets cos/sin(2 pi r c t_j) at the
    narrowest half-width c = 2^-(K+1) (order/2 evaluations), then by exact
    integer double-angle steps for each wider panel; the first interior
    centre and the interior rotation; and the centre of each tail panel.
    Per panel the row is dotted with its offsets exactly (no shift); the
    interior phase (ct, st) advances by one rotation with one >> F per
    product."""
    f = precision_bits + 40
    with mp.workprec(f):
        r = _to_mpf(r)
        if not abs(r) <= GRID_R_MAX:
            raise ValueError(f"fixed oscillation grid only covers |r| <= {GRID_R_MAX}")
        grid = _oscillation_grid(precision_bits, _SMALL_R_MAX if abs(r) <= _SMALL_R_MAX else GRID_R_MAX)
    width, cut = grid.width_exp, grid.cut_exp
    narrow, (ct, st), (cd, sd), centres = _phases(r, grid, f)
    levels = [(tuple(c for c, _ in narrow), tuple(s for _, s in narrow))]
    for _ in range(cut - width):
        cs, ss = levels[-1]
        levels.append((tuple((c * c - s * s) >> f for c, s in zip(cs, ss)),
                       tuple((c * s) >> (f - 1) for c, s in zip(cs, ss))))
    total = 0
    cos_psi, sin_psi = levels[-1]
    for sums, diffs in grid.interior:
        total += ct * sum(map(mul, sums, cos_psi)) - st * sum(map(mul, diffs, sin_psi))
        ct, st = (ct * cd - st * sd) >> f, (st * cd + ct * sd) >> f
    for (sums, diffs), (ct, st), (cos_psi, sin_psi) in zip(grid.tail, centres, reversed(levels[:-1])):
        total += ct * sum(map(mul, sums, cos_psi)) - st * sum(map(mul, diffs, sin_psi))
    with mp.workprec(f):
        return mp.ldexp(2 * (total >> (2 * f)), -f), grid.bound


def sigma_hat(r, precision_bits: int = 256):
    """Fourier transform, convention sigma_hat(r) = int sigma e^{-2 pi i r x} dx
    (real and even here), for |r| <= GRID_R_MAX, on a cached graded grid in
    fixed point (_oscillation_grid): Gauss-Legendre panels of the order
    _grid_order gives (72 at 128 bits, 96 at 256), of width 2^-3 for
    |r| <= 128 and 2^-5 up to 512 inside (100.5 radians of phase at the
    tier's largest r), halving toward x = 1 at the breakpoints 1 - 2^-k.

    The sum runs on Python integers scaled by 2^F, F = precision_bits + 40:
    per panel two exact integer dot products of the mirrored node pairs with
    the phase offsets, so no mpf object is made per node, and the phases
    come from cos_sin_fixed on integers.  The bound of
    _sigma_hat_bounded covers the truncation of that arithmetic, the
    quadrature error of every panel (the Gauss-rule Bernstein-ellipse bound
    of Trefethen, SIAM Rev. 50, 2008) and the sliver near 1 the grid leaves
    out; ArithmeticError is raised if it exceeds 2^-precision_bits."""
    value, bound = _sigma_hat_bounded(r, precision_bits)
    if bound > mp.ldexp(1, -precision_bits):
        raise ArithmeticError(f"sigma_hat error bound {mp.nstr(bound, 3)} exceeds 2^-{precision_bits}")
    return value


ENVELOPE_SCAN = 5  # points per phase period; odd, so the middle one is r


def envelope_r_max() -> float:
    """Largest r, rounded down to 0.01, whose envelope scan window
    r + sqrt(2 pi r)/2 stays on the oscillation grid (|r| <= GRID_R_MAX)."""
    c = sqrt(2 * pi) / 2
    x = (sqrt(c * c + 4 * GRID_R_MAX) - c) / 2  # positive root of x^2 + c x = GRID_R_MAX
    return floor(x * x * 100) / 100


def fourier_envelope(r, precision_bits: int = 256):
    """Local envelope of |sigma_hat| near r: the transform oscillates with
    phase sqrt(2 pi r), so the max of |sigma_hat| over one phase period
    estimates the r^{-3/4} e^{-sqrt(2 pi r)} envelope without landing on a
    zero of the cosine factor."""
    with mp.workprec(precision_bits + 40):
        r = mp.mpf(r)
        window = mp.sqrt(2 * mp.pi * r)
        at_r = abs(sigma_hat(r, precision_bits))
        best_r, best = r, at_r
        for k in range(ENVELOPE_SCAN):
            rk = r - window / 2 + window * k / (ENVELOPE_SCAN - 1)
            if rk <= 0:
                continue
            # the middle point lands on r itself
            v = at_r if rk == r else abs(sigma_hat(rk, precision_bits))
            if v > best:
                best_r, best = rk, v
        return best_r, best


def fourier_decay_fit(r_min, r_max, samples: int, precision_bits: int = 256) -> dict:
    """Fit -ln(envelope) ~ coeff*sqrt(r) + (3/4) ln r + const on a geometric
    grid of local envelope points; the saddle-point prediction for coeff is
    sqrt(2 pi)."""
    if not 0 < r_min < r_max:
        raise ValueError("need 0 < r_min < r_max")
    if samples < 2:
        raise ValueError(f"the fit needs --samples >= 2, got {samples}")
    with mp.workprec(precision_bits + 40):
        rs = [mp.mpf(r_min) * (mp.mpf(r_max) / r_min) ** (mp.mpf(k) / (samples - 1)) for k in range(samples)]
        xs, ys, points = [], [], []
        for r in rs:
            r_peak, val = fourier_envelope(r, precision_bits)
            if val <= 0:
                raise ArithmeticError(f"quadrature failure at r={mp.nstr(r, 8)}")
            y = -mp.log(val) - mp.mpf(3) / 4 * mp.log(r_peak)
            xs.append(mp.sqrt(r_peak))
            ys.append(y)
            points.append((float(r_peak), float(val)))
        n = mp.mpf(len(xs))
        sx = mp.fsum(xs)
        sxx = mp.fsum(x * x for x in xs)
        sy = mp.fsum(ys)
        sxy = mp.fsum(x * y for x, y in zip(xs, ys))
        det = n * sxx - sx * sx
        coeff = (n * sxy - sx * sy) / det
        const = (sy * sxx - sx * sxy) / det
        resid = mp.sqrt(mp.fsum((y - coeff * x - const) ** 2 for x, y in zip(xs, ys)) / n)
        return {"exponent_coeff": coeff, "power": 0.75, "const": const, "residual": resid, "points": points}


def parseval_check(n: int, precision_bits: int = 256, r_cut=None) -> dict:
    """|| sigma_hat r^n ||_2 against (2 pi)^{-n} || sigma^(n) ||_2.

    sigma lives on [-1, 1], so g = sigma_hat^2 r^(2n) is the transform of a
    function supported in [-2, 2] (Paley-Wiener).  Poisson summation,
    h sum_k g(kh) = sum_m g_hat(m/h), then makes the trapezoid sum over the
    line exact once 1/h > 2 (Trefethen and Weideman, SIAM Rev. 56, 2014).  The
    rule runs on [0, r_cut] (g is even), and h = r_cut / ceil(5 r_cut / 2) <= 2/5
    keeps every alias 1/2 or more outside the support.  Beyond the cut, the
    saddle-point envelope calibrated at r_cut and inflated by 4 gives the tail:
    a calibrated estimate (reported, not proven), not a bound."""
    with mp.workprec(precision_bits + 40):
        r_cut = mp.mpf(r_cut if r_cut is not None else 40 + 14 * n)
        if not 0 < r_cut <= GRID_R_MAX:  # sigma_hat's grid ends at GRID_R_MAX
            raise ValueError(f"parseval_check needs 0 < r_cut <= {GRID_R_MAX}, got r_cut = {r_cut}")
        steps = int(mp.ceil(5 * r_cut / 2))  # 5 r_cut / 2 is exact in binary; 2/5 is not
        nodes = [r_cut * k / steps for k in range(steps + 1)]
        values = [sigma_hat(r, precision_bits) for r in nodes]
        g = [v**2 * r ** (2 * n) for r, v in zip(nodes, values)]
        left = r_cut / steps * (mp.fsum(g[1:-1]) + (g[0] + g[-1]) / 2)
        # envelope tail: |sigma_hat| <= c r^{-3/4} e^{-sqrt(2 pi r)} beyond the cut
        c_env = 4 * abs(values[-1]) * r_cut ** mp.mpf(0.75) * mp.e ** mp.sqrt(2 * mp.pi * r_cut)
        u0 = 2 * mp.sqrt(2 * mp.pi * r_cut)
        k = 2 * n - mp.mpf(3) / 2
        # int_{r_cut}^inf r^k e^{-2 sqrt(2 pi r)} dr = 2 (8 pi)^{-(k+1)} Gamma(2k+2, u0)
        tail = c_env**2 * 2 * (8 * mp.pi) ** (-(k + 1)) * mp.gammainc(2 * k + 2, u0)
        lhs = mp.sqrt(2 * (left + tail))

        rhs = l2_norm(n, precision_bits) * (2 * mp.pi) ** (-n)
        rel = abs(lhs - rhs) / rhs
        return {"lhs": lhs, "rhs": rhs, "rel_diff": rel, "tail": tail}


def l2_norm(n: int, precision_bits: int = 256):
    """||sigma^(n)||_2 on (-1,1), from _norm_integral's int_0^1 sigma^(n)^2,
    which is within 2^-precision_bits of itself (else ArithmeticError)."""
    half, _ = _norm_integral(n, 2, precision_bits)
    with mp.workprec(precision_bits + 40):
        return mp.sqrt(2 * half)


# ---------------------------------------------------------------------------
# moment-to-pointwise conversion


def moment_to_pointwise(c: Q, big_c: Q, y: Q, precision_bits: int = 128) -> dict:
    """Minimize c y^{-N} (CN)^{CN} over integer N >= 1 (convex in N); returns
    the minimizer and the log-domain bound, plus the achieved exponent 1/C."""
    if not (c > 0 and big_c > 0 and y > 1):
        raise ValueError(f"need c > 0, C > 0 and y > 1, got c = {c}, C = {big_c}, y = {y}")
    with mp.workprec(precision_bits):
        ln_c, bc, ln_y = mp.log(_to_mpf(c)), _to_mpf(big_c), mp.log(_to_mpf(y))

        def g(nn):
            return ln_c - nn * ln_y + bc * nn * mp.log(bc * nn)

        seed = mp.e ** (ln_y / bc) / (bc * mp.e)
        n0 = max(1, int(mp.floor(seed)))
        while n0 > 1 and g(n0 - 1) < g(n0):
            n0 -= 1
        while g(n0 + 1) < g(n0):
            n0 += 1
        ln_bound = g(n0)
        return {
            "best_n": n0,
            "ln_bound": ln_bound,
            "achieved_d": 1 / float(big_c),
            "asymptote_ratio": ln_bound / mp.e ** (ln_y / bc),
        }
