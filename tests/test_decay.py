import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction as Q
from functools import lru_cache, partial
from math import ceil, log2, pi, sqrt

import pytest
from mpmath import iv, mp
from mpmath.calculus.quadrature import GaussLegendre
from mpmath.libmp.libelefun import exp_fixed

from loopcert import decay
from loopcert.cli import main
import reference

# sha256 of the report without its config and schema_version, as compact
# sort_keys JSON
FOURIER_REPORT_SHA256 = "fd3cacd1a69b8f525f8e1b523c9109f1125de112e6973cbf202b537814369e73"
# the same for `decay fourier --range 50,400 --samples 8` (256 bits, both
# grids), captured from the 30-radian grid of order 8 ceil((prec + 64) / 40)
FOURIER_256_SHA256 = "e0be6214ba593161b0295aad6c164fb8907bf8a577a38aae2f005511824ccf0c"
L1_REPORTS_SHA256 = "4605ac798a2a8764cc02eb901d7ee8f8bbbcce58fe574e7984dd15b18dd2c71f"
# sha256 of the 22 `decay l1 --n N --prec P` report bodies (N = 1..22), as in
# L1_REPORTS_SHA256, per precision, captured from the bisection refinement and
# exact bracket signs
L1_REPORTS_PREC_SHA256 = {
    64: "7812927f1225f2553d76b21d24a0b32c9c4b34e2b341be788785c34fa046a32c",
    128: "a907ba4f3ec5b9be68b1664e968ff86c3accc91eeb74166f93f508f9e8ec003e",
    512: "759d7acf38358d401112b595f51f0f993c04918bc3fa78a07559d163b1cc9c9a",
}
# sha256 of [ln_norm, ln_norm_telescoping, ratio_to_(2N)^2N] of `decay l1 --n N`
# for N = 0..20 at 256 bits, as compact JSON, from the adaptive quadrature
L1_VALUE_STRINGS_SHA256 = "5d92b967ac03986e5f42db478ce2b34fca1ae9a20dfc1637ccb10034f506480d"


def _eval_q(poly, x: Q) -> Q:
    """P(x) exactly, by Horner in rationals."""
    acc = Q(0)
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return poly.scale * acc


def _sigma_mp(x):
    """sigma(x) = e^{-1/(1-x^2)} on (-1,1), 0 outside."""
    if abs(x) >= 1:
        return mp.mpf(0)
    return mp.e ** (-1 / (1 - x * x))


def _panel_integral(f, a, b, order: int):
    """GL(order) of f over [a, b] in mpf at the working precision."""
    half = (b - a) / 2
    mid = (a + b) / 2
    return half * mp.fsum(w * f(mid + half * x) for x, w in decay.gauss_legendre(order, mp.prec))


def _endpoint_tail_bound(n: int, delta):
    """Rigorous bound for the integral of |sigma^(n)| over (1-delta, 1):
    2^{2n-1} * Gamma(2n-1, 1/(2 delta)) times the coefficient l1 norm."""
    poly = decay.derivative_poly(n)
    coeff_sum = sum(abs(c) for c in poly.coeffs) * poly.scale
    v0 = 1 / (2 * delta)
    return mp.mpf(coeff_sum) * mp.mpf(2) ** (2 * n - 1) * mp.gammainc(2 * n - 1, v0)


@lru_cache(maxsize=None)
def _l1_norm_quadrature(n: int, precision_bits: int = 256) -> tuple:
    """(norm, error estimate, depth-cap hits): the L1 norm of sigma^(n), n >= 1,
    by adaptive Gauss-Legendre panels split at the sign changes of P_n, with
    geometric panels toward 1 and a rigorous bound on the sliver (1-delta, 1).
    The estimate is 2 (sum of |GL48 - GL24| + tail bound), not a bound."""
    with mp.workprec(precision_bits + 60):
        # pick delta so the endpoint remainder is negligible at this precision
        delta = mp.mpf(1) / (2 * (precision_bits + 4 * n + 40))
        tail = _endpoint_tail_bound(n, delta)
        target = mp.mpf(2) ** (-(precision_bits // 2) - 10)
        while tail > target:
            delta /= 2
            tail = _endpoint_tail_bound(n, delta)

        bounds = [mp.mpf(0)] + [mp.mpf(r) for r in decay.sign_change_roots(n, precision_bits)]
        top = 1 - delta
        g = 1 - (1 - bounds[-1]) / 2
        while g < top:
            bounds.append(g)
            g = 1 - (1 - g) / 2
        bounds.append(top)

        panel = partial(decay._sigma_deriv_panel, n, 1)
        # norms grow like (2n)^(2n); the error target is relative, so anchor
        # the panel tolerances to a rough first-pass magnitude
        coarse, rough = reference.rough_pass(panel, bounds)
        tol = max(rough, mp.mpf(2) ** (-precision_bits)) * target / (2 * len(bounds))
        total, err, hits = reference.adaptive_sum(panel, bounds, coarse, tol)
        return 2 * total + tail, 2 * (err + tail), hits


def test_derivative_poly_base_cases():
    assert decay.derivative_poly(0).coeffs == (1,)
    p1 = decay.derivative_poly(1)
    assert p1.scale * Q(p1.coeffs[1]) == -2 and p1.coeffs[0] == 0
    p2 = decay.derivative_poly(2)
    # P_2 = 6x^4 - 2
    assert [p2.scale * c for c in p2.coeffs] == [-2, 0, 0, 0, 6]


def test_sigma_second_derivative_at_zero():
    with mp.workprec(128):
        assert abs(decay.sigma_deriv_mp(2, mp.mpf(0)) + 2 / mp.e) < mp.mpf("1e-30")


def test_parity_up_to_40():
    for n in range(41):
        poly = decay.derivative_poly(n)
        assert poly.degree <= 3 * n
        # P_n(1) = (-2)^n: x = 1 is never a root, so _deflated_poly divides out x = 0 only
        assert sum(poly.coeffs) * poly.scale == (-2) ** n
        for k, c in enumerate(poly.coeffs):
            if (k - n) % 2:
                assert c == 0, (n, k)


def test_rep_matches_finite_differences():
    # independent numerical-differentiation oracle at interior points
    rng = random.Random(2)
    with mp.workprec(320):
        for n in range(1, 9):
            for _ in range(5):
                x = mp.mpf(rng.uniform(-0.9, 0.9))
                exact = decay.sigma_deriv_mp(n, x)
                approx = mp.diff(_sigma_mp, x, n)
                assert abs(approx - exact) <= mp.mpf("1e-8") * max(abs(exact), mp.mpf("1e-20")), (n, x)


def test_root_isolation_exactness():
    # every isolated interval carries exactly one sign change, verified with
    # exact integer arithmetic at the endpoints of the deflated polynomial
    for n in range(2, 16):
        coeffs = decay._deflated_poly(n).coeffs
        for lo, hi in decay._isolated_intervals(n):
            if lo == hi:
                continue
            k = max(lo.denominator, hi.denominator).bit_length() - 1
            assert lo * 2**k + 1 == hi * 2**k  # dyadic, one step of 2^-k wide
            v_lo = decay._dyadic_value(coeffs, int(lo * 2**k), k)
            v_hi = decay._dyadic_value(coeffs, int(hi * 2**k), k)
            assert v_lo != 0 and v_hi != 0 and (v_lo > 0) != (v_hi > 0)


def test_dyadic_value_matches_rational_evaluation():
    rng = random.Random(5)
    for n in (3, 9, 17):
        poly = decay._deflated_poly(n)
        for _ in range(20):
            k = rng.randrange(0, 60)
            m = rng.randrange(0, 2**k + 1)
            exact = sum(c * Q(m, 2**k) ** i for i, c in enumerate(poly.coeffs))
            assert decay._dyadic_value(poly.coeffs, m, k) == exact * 2 ** (k * poly.degree), (n, m, k)


@pytest.mark.parametrize("prec", [1, 53, 64, 128, 256, 512])
def test_sign_change_roots_match_bisection_reference(prec):
    # Newton from the safeguarded 64-bit start, then at prec + 80 bits, ends
    # on the same mpf, bit for bit, as 40 exact bisections and Newton at
    # prec + 80 bits
    for n in range(1, 31):
        assert decay.sign_change_roots(n, prec) == reference.sign_change_roots_reference(n, prec), n


def test_bracket_signs_exact_fallback(monkeypatch):
    # with every fixed-point sign reported as within its error, the brackets
    # come from the exact _dyadic_value alone: the same brackets and norms
    brackets = {}
    real = decay._root_value_iv

    def recording(n, m, k, reach):
        brackets.setdefault(n, []).append((m, k))
        return real(n, m, k, reach)

    monkeypatch.setattr(decay, "_root_value_iv", recording)
    cases = [(n, prec) for n in range(1, 13) for prec in (64, 256)]
    expected = [decay.l1_norm(n, prec) for n, prec in cases]
    fixed = dict(brackets)
    brackets.clear()
    # zero coefficients make every floored Horner value 0, within its error
    sign = decay._bracket_sign
    monkeypatch.setattr(decay, "_bracket_sign", lambda coeffs, shifted, m, k: sign(coeffs, [0] * len(shifted), m, k))
    assert [decay.l1_norm(n, prec) for n, prec in cases] == expected
    assert brackets == fixed


def test_bracket_sign_matches_exact_sign():
    # near each root, at the bracket ends and a unit away, the fixed-point
    # sign (with its exact fallback) is the sign of the exact value
    for n in (5, 13, 20):
        coeffs = decay._deflated_poly(n).coeffs
        for k in (20, 84, 276):
            shifted = [c << (k + 64) for c in reversed(coeffs)]
            for r in decay.sign_change_roots(n, 256):
                m = int(mp.nint(mp.ldexp(r, k)))
                for x in (m - 2, m - 1, m, m + 1, m + 2):
                    exact = decay._dyadic_value(coeffs, x, k)
                    assert decay._bracket_sign(coeffs, shifted, x, k) == (exact > 0) - (exact < 0), (n, k, x)


def _reference_roots(n: int, prec: int) -> list:
    """The roots of the deflated P_n found by mpmath at 700 bits, one next to
    each refined root."""
    coeffs = decay._deflated_poly(n).coeffs
    with mp.workprec(700):
        return [mp.findroot(lambda x: mp.polyval(coeffs[::-1], x), mp.mpf(r)) for r in decay.sign_change_roots(n, prec)]


def test_sign_change_roots_within_target(monkeypatch):
    # every refined root lies within 2^-(prec+20) of the root of the deflated
    # polynomial found by mpmath at 700 bits (near the clustered roots at
    # x -> 1, Newton on an mpf Horner at prec + 40 bits misses this target),
    # and l1_norm's bracket [m - 1, m + 1] / 2^k around it holds that root
    prec = 256
    brackets = []
    real = decay._root_value_iv

    def recording(n, m, k, reach):
        brackets.append((m, k))
        return real(n, m, k, reach)

    monkeypatch.setattr(decay, "_root_value_iv", recording)
    for n in range(1, 21):
        roots = decay.sign_change_roots(n, prec)
        brackets.clear()
        decay.l1_norm(n, prec)
        inner = brackets[n % 2:]  # odd orders also bracket the zero at x = 0
        assert len(inner) == len(roots), n
        with mp.workprec(700):
            for r, ref, (m, k) in zip(roots, _reference_roots(n, prec), inner):
                assert abs(ref - r) <= mp.ldexp(1, -(prec + 20)), (n, float(r))
                assert k == prec + 20 and mp.ldexp(m - 1, -k) < ref < mp.ldexp(m + 1, -k), (n, float(r))


def test_roots_count_against_dense_scan():
    # dense exact scan as an independent oracle (float64 is not trustworthy
    # here: near the root cluster at x -> 1 it fabricates sign wiggles by
    # catastrophic cancellation): m^d P(k/m) by homogeneous Horner on ints
    m = 8000
    for n in range(2, 14):
        poly = decay._deflated_poly(n)
        scaled = [c * m ** (poly.degree - i) for i, c in enumerate(poly.coeffs)]
        prev, changes = None, 0
        for k in range(m + 1):
            acc = 0
            for c in reversed(scaled):
                acc = acc * k + c
            if prev is not None and acc != 0 and (acc > 0) != (prev > 0):
                changes += 1
            if acc != 0:
                prev = acc
        assert changes == len(decay.sign_change_roots(n, 96)), n


def test_l1_norm_n1_closed_form():
    with mp.workprec(320):
        res = decay.l1_norm(1, 256)
        target = 2 / mp.e
        assert abs(res["norm"] - target) / target < mp.mpf("1e-60")
        assert abs(res["norm"] - target) <= res["abs_err"]
        assert res["ln_enclosure"][0] <= mp.log(target) <= res["ln_enclosure"][1]


def test_l1_quadrature_reference_within_enclosure():
    # the adaptive quadrature, within its own estimate, lies in the certified
    # enclosure norm +- abs_err, and the ln enclosure holds ln(norm)
    with mp.workprec(400):
        for n in range(1, 21):
            res = decay.l1_norm(n, 256)
            ref, ref_err, _ = _l1_norm_quadrature(n, 256)
            assert abs(ref - res["norm"]) <= res["abs_err"] + ref_err, n
            lo, hi = res["ln_enclosure"]
            assert lo <= mp.log(res["norm"]) <= hi and hi - lo < mp.mpf(2) ** -250, n


@pytest.mark.parametrize("n", [2, 7, 15])
def test_root_value_holds_the_critical_value(monkeypatch, n):
    # sigma^(n-1) at a zero of sigma^(n), from the 700-bit root, lies in the
    # interval _root_value_iv gives for a bracket around it: a wide bracket
    # (k = 24), where the w^2 M / 2 widening carries the distance to the root,
    # and l1_norm's own (k = 276)
    monkeypatch.setattr(iv, "prec", 316)
    for xi in _reference_roots(n, 256):
        for k in (24, 276):
            with mp.workprec(700):
                value = decay._root_value_iv(n, int(mp.nint(mp.ldexp(xi, k))), k, decay._taylor_reach(n, k))
                assert mp.mpf(value.a) <= decay.sigma_deriv_mp(n - 1, xi) <= mp.mpf(value.b), (n, float(xi), k)


def test_l1_norm_n0_two_precisions():
    with mp.workprec(320):
        a = decay.l1_norm(0, 128)["norm"]
        b = decay.l1_norm(0, 224)["norm"]
        assert abs(a - b) / b < mp.mpf("1e-18")
        assert abs(b - mp.mpf("0.4439938161680786")) < mp.mpf("1e-15")


def test_l1_cross_oracle_and_ratio_chain():
    with mp.workprec(256):
        base = None
        for n in range(1, 13):
            quad = decay.l1_norm(n, 192)["ln"]
            tele = decay.l1_norm_extrema(n, 192)
            assert abs(quad - tele) < mp.mpf("1e-40"), n
            ratio = quad - 2 * n * mp.log(2 * n)
            if base is None:
                base = ratio
            assert ratio <= base + mp.mpf("1e-12")


def test_l1_l2_norm_chain():
    # ||f||_1 <= sqrt(2) ||f||_2 on an interval of length 2
    with mp.workprec(256):
        for n in (0, 1, 4, 9, 14, 20):
            l1 = decay.l1_norm(n, 160)["norm"]
            l2 = decay.l2_norm(n, 160)
            assert l1 <= mp.sqrt(2) * l2 * (1 + mp.mpf("1e-30"))


@lru_cache(maxsize=None)
def _norm_reference(n: int, power: int) -> tuple:
    """(int_0^1 sigma^(n)^power, error estimate) by mp.quad at 356 bits, 100
    above the largest precision tested, split at 1 - 2^-k and 1 - 3 2^-(k+2)
    for k < 12 and at 1, from the pointwise sigma_deriv_mp.  mp.quad's
    tolerance is absolute, so the integrand is divided by a 53-bit first
    pass."""
    f = lambda x: decay.sigma_deriv_mp(n, x) ** power
    with mp.workprec(53):
        rough = mp.quad(f, [0, 1])
    with mp.workprec(356):
        points = sorted({1 - mp.ldexp(j, -k) for k in range(2, 14) for j in (4, 3)} | {mp.mpf(1)})
        value, err = mp.quad(lambda x: f(x) / rough, points, method="gauss-legendre", error=True)
        # and a few roundings at 356 bits
        return value * rough, (err + mp.ldexp(value, -350)) * rough


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_norms_within_bound_of_quadrature_reference(monkeypatch, bits):
    # the fixed graded panels of l2_norm and l1_norm(0) lie within their
    # bound of an independent quadrature; l2_norm takes the root of the
    # integral it summed at bits + 40
    sums = []
    real = decay._norm_integral
    monkeypatch.setattr(decay, "_norm_integral", lambda *args: sums.append(real(*args)) or sums[-1])
    for n in (0, 1, 4, 9, 20):
        norm = decay.l2_norm(n, bits)
        (value, bound), = sums
        sums.clear()
        ref, err = _norm_reference(n, 2)
        with mp.workprec(400):
            assert abs(value - ref) <= bound + err, n
            assert bound <= mp.ldexp(value, -bits), n
            assert abs(norm**2 / 2 - ref) <= bound + err + mp.ldexp(ref, -bits - 37), n
    with mp.workprec(400):
        res = decay.l1_norm(0, bits)
        ref, err = _norm_reference(0, 1)
        assert abs(res["norm"] - 2 * ref) <= res["abs_err"] + 2 * err
        assert res["ln_enclosure"][0] <= mp.log(2 * ref) <= res["ln_enclosure"][1]


@pytest.mark.parametrize("prec", [1, 8, 32])
def test_l1_n0_abs_err_covers_the_256_bit_value(capsys, prec):
    # at low precision the N = 0 report's abs_err is a bound: it covers the
    # distance to the 256-bit norm, and the ln enclosure holds that norm's ln
    exact = decay.l1_norm(0, 256)
    assert main(["decay", "l1", "--n", "0", "--prec", str(prec)]) == 0
    doc = json.loads(capsys.readouterr().out)
    with mp.workprec(320):
        assert abs(mp.exp(mp.mpf(doc["ln_norm"])) - exact["norm"]) <= mp.mpf(doc["abs_err"])
        lo, hi = doc["ln_norm_enclosure"]
        assert mp.mpf(lo) <= exact["ln"] <= mp.mpf(hi)


@pytest.mark.parametrize("bits", [1, 2, 16, 53, 64, 96, 128, 192, 256, 384, 512, 1024])
def test_norm_quadrature_bound_at_every_precision(bits):
    # the closed-form order and the graded panels of _grid_breaks(1, cut)
    # keep the bound below 2^-bits of the value (else ArithmeticError): for
    # every n <= 20 at 1 and 64 bits, and for n = 0, 3 and 20 at all of them
    for n in range(21) if bits in (1, 64) else (0, 3, 20):
        value, bound = decay._norm_integral(n, 2, bits)
        assert 0 < bound <= mp.ldexp(value, -bits), n
    value, bound = decay._norm_integral(0, 1, bits)
    assert 0 < bound <= mp.ldexp(value, -bits)


def test_norms_reject_unbounded_quadrature(monkeypatch):
    # an inflated quadrature term passes 2^-precision_bits of the value, and
    # both norms refuse it
    monkeypatch.setattr(decay, "_ellipse_bound", lambda c, rho, order, big_m, defect: iv.mpf(2) ** -80)
    with pytest.raises(ArithmeticError):
        decay.l2_norm(2, 128)
    with pytest.raises(ArithmeticError):
        decay.l1_norm(0, 128)


L1_REPORT_VALUES = {
    1: ("-0.306852819440054690582767878542", "1.4982e-95", "-0.306852819440054690582767878542"),
    8: ("25.5625084918900867560708756466", "3.9122e-83", "25.5625084918900867560708756466"),
    20: ("103.318308482906650632829165878", "5.2387e-49", "103.318308482906650632829165878"),
}
L2_NORM_VALUES = (
    "0.364809704976435997716113481344600690235543303866263742866249",
    "0.639989891133266360572820057784998353141623517597929577639374",
    "3.29154489736945037882720839300282925685832826925940942169631",
    "56.5942953954945659090244728646635571259324111015183726687293",
)


def test_l1_l2_values_unchanged(capsys):
    # strings of `decay l1 --n N` and l2_norm at 256 bits as computed by the
    # mpf Horner integrand and mpf Gauss-Legendre tables; abs_err is the
    # certified bound (the quadrature's estimates were 5.0109e-47, 8.5202e-34
    # and 5.9455)
    for n, expected in L1_REPORT_VALUES.items():
        assert main(["decay", "l1", "--n", str(n)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["ln_norm"], doc["abs_err"], doc["ln_norm_telescoping"]) == expected, n
    for n, expected in enumerate(L2_NORM_VALUES):
        assert mp.nstr(decay.l2_norm(n, 256), 60) == expected, n


@pytest.mark.parametrize("n, degree", [(24, 4), (48, 5)])
def test_gauss_legendre_against_mpmath(n, degree):
    # mpmath's own Gauss-Legendre rule of degree m has 3 * 2^(m-1) nodes
    prec = 316
    rule = decay.gauss_legendre(n, prec)
    with mp.workprec(prec + 100):
        ref = sorted(GaussLegendre(mp).calc_nodes(degree, prec + 40))
        assert len(rule) == len(ref) == n
        tol = mp.ldexp(1, -(prec + 30))
        for (x, w), (rx, rw) in zip(rule, ref):
            assert abs(x - rx) <= tol and abs(w - rw) <= tol, (x, rx)


# the tables the benchmark workloads, the pinned reports and reproduce-all
# build: the oscillation grids at 128 and 256 bits and the norms at 256
WORKLOAD_TABLES = ((72, 128), (96, 256), (64, 296), (68, 320), (72, 344), (80, 368), (84, 392))
TABLE_BITS = (1, 2, 4, 8, 16, 32, 53, 64, 96, 128, 192, 256, 384, 512, 1024)
# where the Newton reference is not the nearest table: its last step, below
# 2^-(prec + 20), leaves the outermost node pair's weights 23, 46 and 182
# units off in the last stored place
REFERENCE_OFF = {(48, 1), (48, 2), (48, 4)}


def _norm_table(n: int, bits: int) -> tuple:
    """The (order, prec) of _norm_integral(n, power, bits)'s table, by the
    closed form of its docstring."""
    b = bits + 24 * n + 16
    return 4 * ceil((1 + b / (2 * log2(2.5 + sqrt(5.25)))) / 4), max(b + 24, 64)


def _unit(x, prec: int):
    """One unit in the last place of the mpf x stored at prec + 40 bits."""
    return mp.ldexp(1, int(mp.floor(mp.log(abs(x), 2))) + 1 - (prec + 40)) if x else mp.ldexp(1, -(prec + 40))


def _assert_table_matches_reference(order: int, prec: int):
    rule = decay.gauss_legendre(order, prec)
    ref = reference.gauss_legendre_reference(order, prec)
    assert (rule == ref) == ((order, prec) not in REFERENCE_OFF), (order, prec)
    if rule != ref:
        # within one unit of the rule computed 200 bits deeper
        with mp.workprec(prec + 300):
            for (x, w), (tx, tw) in zip(rule, reference.gauss_legendre_reference(order, prec + 200)):
                assert abs(x - tx) <= _unit(x, prec) and abs(w - tw) <= _unit(w, prec), (order, prec)


@pytest.mark.parametrize("bits", TABLE_BITS)
def test_grid_and_norm_tables_match_newton_reference(bits):
    # the Halley tables equal the Newton construction's, mpf for mpf, for the
    # oscillation grid's order and every norm order the quadrature tests use
    _assert_table_matches_reference(decay._grid_order(bits, 2 * pi * decay._SMALL_R_MAX / 8), bits)
    for n in range(21) if bits in (1, 64) else (0, 3, 20):
        _assert_table_matches_reference(*_norm_table(n, bits))


def test_workload_and_small_tables_match_newton_reference():
    for order, prec in WORKLOAD_TABLES:
        _assert_table_matches_reference(order, prec)
    for order in range(1, 13):
        for prec in (8, 64):
            _assert_table_matches_reference(order, prec)


@pytest.mark.parametrize("n", [0, -3])
def test_gauss_legendre_rejects_fewer_than_one_node(n):
    with pytest.raises(ValueError):
        decay.gauss_legendre(n, 64)


@pytest.mark.parametrize("prec", [16, 64, 128])
def test_gauss_defect_bounds_the_exact_defect(prec):
    # the bound covers the stored rule's exact moment defect (in Fractions)
    # and stays within 2^-20 of it, for odd orders too, whose middle node
    # counts once
    for order in range(2, 25):
        exact = reference.moment_defect_reference(decay.gauss_legendre(order, prec))
        bound = Q(decay._gauss_defect(order, prec), 1 << (prec + 80))
        assert 0 < exact <= bound <= exact * (1 + Q(1, 1 << 20)), order


def test_gauss_legendre_exact_on_even_powers():
    # a 16-node rule integrates every polynomial of degree <= 31 exactly
    prec = 128
    rule = decay.gauss_legendre(16, prec)
    with mp.workprec(prec + 100):
        for k in range(16):
            total = mp.fsum(w * x ** (2 * k) for x, w in rule)
            assert abs(total - mp.mpf(2) / (2 * k + 1)) <= mp.ldexp(1, -(prec + 30)), k


def _sigma_deriv_reference(n: int, x: Q, prec: int):
    """(sigma^(n)(x), (1-x^2)^(-2n) e^{-1/(1-x^2)}) at the dyadic x: P_n
    exactly in rationals, the other factors in mpf at prec + 100."""
    p = _eval_q(decay.derivative_poly(n), x)
    u = 1 - x * x
    with mp.workprec(prec + 100):
        um = mp.mpf(u.numerator) / u.denominator
        g = um ** (-2 * n) * mp.exp(-1 / um)
        return mp.mpf(p.numerator) / p.denominator * g, g


def test_sigma_deriv_fixed_point_within_horner_bound():
    # near the sign changes of P_n the Horner truncation dominates; near
    # 1 - delta the factors do.  Allowed: degree * |scale| units of 2^-F for
    # P_n times the factors, plus 8 units of 2^-prec relative for the mpf part
    prec = 316
    f = prec + 40
    for n in range(1, 21):
        poly = decay.derivative_poly(n)
        delta = Q(1, 2 * (256 + 4 * n + 40))
        with mp.workprec(prec):
            points = list(decay.sign_change_roots(n, 256)) + [1 - mp.mpf(delta.numerator) / delta.denominator]
            dyadic = [Q(int(mp.ldexp(x, prec)), 1 << prec) for x in points]
        for x in dyadic:
            with mp.workprec(prec):
                value = decay.sigma_deriv_mp(n, mp.mpf(x.numerator) / x.denominator)
            ref, g = _sigma_deriv_reference(n, x, prec)
            with mp.workprec(prec + 100):
                horner = poly.degree * mp.mpf(poly.scale) * mp.ldexp(g, -f)
                assert abs(value - ref) <= horner + 8 * mp.ldexp(abs(ref), -prec), (n, float(x))


def test_l1_norm_reports_no_depth_cap_hits():
    for n in (1, 10, 20):
        assert _l1_norm_quadrature(n, 256)[2] == 0, n


def test_adaptive_panel_counts_depth_cap_hits(monkeypatch):
    # with a tolerance no piece can meet, every piece at the cap is a hit
    monkeypatch.setattr(reference, "MAX_DEPTH", 3)
    with mp.workprec(128):
        panel = lambda a, b, order: _panel_integral(mp.exp, a, b, order)
        _, _, hits = reference.adaptive_panel(panel, mp.mpf(0), mp.mpf(1), mp.mpf(-1))
    assert hits == 2**3


def _panel_bound_terms(n: int, power: int, x):
    """(B_j, 2 |f_j|, 3 |f'_j|) of the _sigma_deriv_panel docstring at the
    node x, f = (sigma^(n))^power, in the units the docstring uses."""
    poly = decay.derivative_poly(n)
    scale = mp.mpf(poly.scale)
    u = 1 - x * x
    g = u ** (-2 * n) * mp.exp(-1 / u)
    s0, s1 = decay.sigma_deriv_mp(n, x), decay.sigma_deriv_mp(n + 1, x)
    pg = abs(s0) / scale  # |p_j| g_j
    e = (mp.mpf(poly.degree) / 2 + 2) * g + (4 * n + decay._EXP_FIXED_ULPS + 8) * pg + 1
    if power == 1:
        return e * scale, 2 * abs(s0), 3 * abs(s1)
    return (2 * pg + e) * e * scale**2, 2 * s0**2, 3 * abs(2 * s0 * s1)


@pytest.mark.parametrize("power", [1, 2])
@pytest.mark.parametrize("n", [0, 1, 8, 20])
def test_sigma_deriv_panel_within_bound(n, power):
    # the fixed-point panel against GL24 of the pointwise sigma_deriv_mp at
    # prec + 100, at the working precision the reference l1 quadrature uses
    # (256 + 60 bits); the allowance is the docstring's truncation bound plus
    # its node and weight term, both in units of 2^-F, and three roundings at
    # the working precision
    prec = 316
    f = prec + 40
    delta = mp.mpf(1) / (2 * (256 + 4 * n + 40))
    with mp.workprec(prec):
        panels = [(mp.mpf(0), mp.mpf(1) / 4), (mp.mpf("0.55"), mp.mpf("0.8")), (1 - 2 * delta, 1 - delta)]
    for a, b in panels:
        with mp.workprec(prec):
            value = decay._sigma_deriv_panel(n, power, a, b, 24)
        with mp.workprec(prec + 100):
            ref = _panel_integral(lambda x: decay.sigma_deriv_mp(n, x) ** power, a, b, 24)
            half = (b - a) / 2
            bound = node = mp.mpf(0)
            for t, w in decay.gauss_legendre(24, mp.prec):
                big_b, two_f, three_df = _panel_bound_terms(n, power, (a + b) / 2 + half * t)
                bound += w * big_b
                node += two_f + w * three_df
            allowed = mp.ldexp(half * (bound + node), -f) + 3 * mp.ldexp(abs(ref), -prec)
            assert abs(value - ref) <= allowed, (n, power, float(a))


def test_exp_fixed_error_on_reduced_arguments():
    # _sigma_deriv_panel reduces e^(-v) to 2^k e^r with 0 <= r < ln 2 and
    # assumes exp_fixed(r, F) within _EXP_FIXED_ULPS units there too
    rng = random.Random(6)
    for f in (336, 356):
        with mp.workprec(f + 80):
            top = int(mp.ldexp(mp.ln2, f))
        worst = 0
        for _ in range(400):
            r = rng.randrange(0, top)
            with mp.workprec(f + 80):
                exact = mp.ldexp(mp.exp(mp.ldexp(r, -f)), f)
            worst = max(worst, abs(exp_fixed(r, f) - exact))
        assert worst <= 16 <= decay._EXP_FIXED_ULPS, (f, worst)


def test_l1_reports_unchanged():
    # sha256 of the 20 `decay l1 --n N` reports (N = 1..20) without config and
    # schema_version, as one compact sort_keys JSON list; and of the value
    # strings for N = 0..20, which the certificate kept from the quadrature
    bodies, values = [], []
    for n in range(0, 21):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["decay", "l1", "--n", str(n)]) == 0
        doc = json.loads(out.getvalue())
        values.append([doc["ln_norm"], doc["ln_norm_telescoping"], doc["ratio_to_(2N)^2N"]])
        if n:
            bodies.append({k: v for k, v in doc.items() if k not in ("config", "schema_version")})
    assert hashlib.sha256(json.dumps(values).encode()).hexdigest() == L1_VALUE_STRINGS_SHA256
    assert hashlib.sha256(json.dumps(bodies, sort_keys=True).encode()).hexdigest() == L1_REPORTS_SHA256


@pytest.mark.parametrize("prec", sorted(L1_REPORTS_PREC_SHA256))
def test_l1_reports_unchanged_at_other_precisions(prec):
    bodies = []
    for n in range(1, 23):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["decay", "l1", "--n", str(n), "--prec", str(prec)]) == 0
        doc = json.loads(out.getvalue())
        bodies.append({k: v for k, v in doc.items() if k not in ("config", "schema_version")})
    assert hashlib.sha256(json.dumps(bodies, sort_keys=True).encode()).hexdigest() == L1_REPORTS_PREC_SHA256[prec]


def test_l1_past_n22_at_64_bits_retries_deeper_brackets():
    # at K = prec + 20 the Taylor widening misses the 2^-32 target for every
    # N >= 23; the deeper retry certifies them, inside the 256-bit enclosure
    for n in range(23, 31):
        docs = []
        for prec in (64, 256):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["decay", "l1", "--n", str(n), "--prec", str(prec)]) == 0, (n, prec)
            docs.append(json.loads(out.getvalue()))
        (lo64, hi64), (lo256, hi256) = ([Q(x) for x in doc["ln_norm_enclosure"]] for doc in docs)
        assert max(lo64, lo256) <= min(hi64, hi256), n


def test_fourier_envelope_evaluates_each_scan_point_once(monkeypatch):
    calls = []
    real = decay.sigma_hat

    def counting(r, bits):
        calls.append(r)
        return real(r, bits)

    monkeypatch.setattr(decay, "sigma_hat", counting)
    decay.fourier_envelope(50, 128)
    assert len(calls) == len(set(calls)) == 5


@pytest.mark.parametrize("r", [512.01, float("inf"), float("-inf"), float("nan"), Q(51201, 100)])
def test_sigma_hat_rejects_r_off_the_grid(r):
    # the grids serve |r| <= GRID_R_MAX; NaN compares False both ways
    with pytest.raises(ValueError, match="only covers"):
        decay.sigma_hat(r, 64)


def test_sigma_hat_zero_matches_l1():
    with mp.workprec(256):
        assert abs(decay.sigma_hat(0, 192) - decay.l1_norm(0, 192)["norm"]) < mp.mpf("1e-40")


def test_sigma_hat_even():
    with mp.workprec(128):
        assert abs(decay.sigma_hat(Q(7, 2), 96) - decay.sigma_hat(Q(-7, 2), 96)) < mp.mpf("1e-25")


def _grid(r: Q, precision_bits: int):
    """The oscillation grid sigma_hat(r, precision_bits) sums."""
    r_max = decay._SMALL_R_MAX if abs(r) <= decay._SMALL_R_MAX else decay.GRID_R_MAX
    return decay._oscillation_grid(precision_bits, r_max)


def _grid_sum_reference(r: Q, precision_bits: int):
    """sigma_hat's grid sum done in mpf at precision_bits + 100: the grid's
    own panels (its breaks) and Gauss-Legendre order, with the same nodes and
    weights, and sigma and the cosine evaluated directly at every node."""
    grid = _grid(r, precision_bits)
    rule = decay.gauss_legendre(grid.order, precision_bits)
    with mp.workprec(precision_bits + 100):
        omega = 2 * mp.pi * mp.mpf(r.numerator) / r.denominator
        terms = []
        for a, b in zip(grid.breaks, grid.breaks[1:]):
            mid, half = decay._to_mpf(a + b) / 2, decay._to_mpf(b - a) / 2
            for t, w in rule:
                x = mid + half * t
                terms.append(mp.exp(-1 / (1 - x * x)) * w * half * mp.cos(omega * x))
        return 2 * mp.fsum(terms)


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("r", [Q(1201, 64), Q(10001, 64)])  # the r <= 128 and r <= 512 grids
def test_sigma_hat_fixed_point_within_bound(r, bits):
    value, bound = decay._sigma_hat_bounded(r, bits)
    reference = _grid_sum_reference(r, bits)
    with mp.workprec(bits + 100):
        assert abs(value - reference) <= _grid(r, bits).truncation <= bound
        assert bound <= mp.ldexp(1, -bits)
        assert decay.sigma_hat(r, bits) == value


@lru_cache(maxsize=None)
def _quad_reference(r: Q):
    """2 int_0^1 sigma(x) cos(2 pi r x) dx by mp.quad at 420 bits, split at
    the breaks of the 256-bit grid (which hold those of the 128-bit one) and
    at 1, with mp.quad's own error estimate."""
    breaks = _grid(r, 256).breaks
    with mp.workprec(420):
        omega = 2 * mp.pi * mp.mpf(r.numerator) / r.denominator
        points = [decay._to_mpf(b) for b in breaks] + [mp.mpf(1)]
        f = lambda x: mp.exp(-1 / (1 - x * x)) * mp.cos(omega * x) if x < 1 else mp.zero
        value, err = mp.quad(f, points, method="gauss-legendre", error=True)
        return 2 * value, 2 * err


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("r", [Q(7, 2), Q(801, 4)])  # the r <= 128 and r <= 512 grids
def test_sigma_hat_within_bound_of_quadrature_reference(r, bits):
    # the returned bound covers truncation, quadrature error and the sliver
    # beyond the grid: the value is within it of the integral itself
    value, bound = decay._sigma_hat_bounded(r, bits)
    reference, err = _quad_reference(r)
    with mp.workprec(420):
        assert err < mp.ldexp(1, -340)
        assert abs(value - reference) + err <= bound <= mp.ldexp(1, -bits)


@pytest.mark.parametrize("bits", [128, 256])
def test_oscillation_grid_layout(bits):
    # interior panels of one dyadic width with at most 120 radians of phase
    # at the tier's largest r (and more than 60, so no wider width fits),
    # then halving toward 1; at 256 bits fewer than 1,300 nodes for
    # r <= 128 and 3,400 for r <= 512
    nodes = {}
    for r_max in (decay._SMALL_R_MAX, decay.GRID_R_MAX):
        grid = decay._oscillation_grid(bits, r_max)
        breaks = grid.breaks
        widths = [b - a for a, b in zip(breaks, breaks[1:])]
        interior = widths[:len(grid.interior)]
        assert breaks[0] == 0 and breaks[-1] == 1 - Q(1, 1 << grid.cut_exp)
        assert len(widths) == len(grid.interior) + len(grid.tail)
        assert set(interior) == {Q(1, 1 << grid.width_exp)}
        assert 60 < 2 * pi * r_max * interior[0] <= 120
        assert all(b == a / 2 for a, b in zip(widths[len(interior) - 1:], widths[len(interior):]))
        assert all(len(row) == grid.order // 2 for rows in (grid.interior, grid.tail) for pair in rows for row in pair)
        assert grid.bound <= mp.ldexp(1, -bits)
        nodes[r_max] = grid.order * len(widths)
    if bits == 256:
        assert nodes[decay._SMALL_R_MAX] < 1300 and nodes[decay.GRID_R_MAX] < 3400


@pytest.mark.parametrize("bits", [1, 2, 16, 53, 64, 96, 128, 192, 256, 384, 512])
def test_oscillation_grid_bound_at_every_precision(bits):
    # both tiers carry the same phase per interior panel, so they share one
    # Gauss-Legendre order, and each grid's bound stays below 2^-bits
    small = decay._oscillation_grid(bits, decay._SMALL_R_MAX)
    large = decay._oscillation_grid(bits, decay.GRID_R_MAX)
    assert small.order == large.order
    with mp.workprec(64):
        assert small.bound <= mp.ldexp(1, -bits) and large.bound <= mp.ldexp(1, -bits)


def test_gauss_defect_sees_a_moved_node(monkeypatch):
    # the stored rule integrates T_0 .. T_{2n-1} to within its precision; a
    # node pair moved by 2^-60 shows in the defect, which the quadrature
    # bound then carries
    with mp.workprec(104):
        exact = mp.ldexp(decay._gauss_defect(16, 64), -144)
        assert exact < mp.ldexp(1, -90)
        rule = list(decay.gauss_legendre(16, 64))
        (t, w), (u, v) = rule[3], rule[12]
        rule[3], rule[12] = (t + mp.ldexp(1, -60), w), (u - mp.ldexp(1, -60), v)
    monkeypatch.setattr(decay, "gauss_legendre", lambda order, prec: tuple(rule))
    decay._gauss_defect.cache_clear()
    try:
        with mp.workprec(104):
            assert mp.ldexp(decay._gauss_defect(16, 64), -144) > mp.ldexp(1, -66)
    finally:
        decay._gauss_defect.cache_clear()


def test_exp_fixed_error_under_assumed_ulps():
    # the grid's entry bound assumes exp_fixed(v, F) is within
    # _EXP_FIXED_ULPS units of 2^-F of e^v for v <= -1; in practice it is a
    # few units, far inside the assumption
    rng = random.Random(4)
    for f in (168, 296):
        worst = 0
        for _ in range(400):
            v = -rng.randrange(1 << f, 400 << f)
            with mp.workprec(f + 80):
                exact = mp.ldexp(mp.exp(mp.ldexp(v, -f)), f)
            worst = max(worst, abs(exp_fixed(v, f) - exact))
        assert worst <= 16 <= decay._EXP_FIXED_ULPS, (f, worst)


@pytest.mark.parametrize("bits", [128, 256])
def test_phases_within_conversion_ulps(bits):
    # every (cos, sin) pair sigma_hat turns its grid with is within
    # _CONV_ULPS units of 2^-F of the exact value at r as rounded to F bits,
    # on both tiers and for negative r
    rng = random.Random(5)
    f = bits + 40
    worst = 0
    for _ in range(12):
        r = Q(rng.randrange(-512 * 64, 512 * 64 + 1), 64) + Q(rng.randrange(1 << 20), 1 << 40)
        with mp.workprec(f):
            r_f = decay._to_mpf(r)
        grid = _grid(r, bits)
        narrow, first, step, centres = decay._phases(r_f, grid, f)
        width, cut = grid.width_exp, grid.cut_exp
        with mp.workprec(f + 100):
            t = [mp.ldexp(node, -(f + decay._TRIG_GUARD)) for node in grid.offsets]
            angles = ([2 * mp.pi * r_f * tj * mp.ldexp(1, -cut - 1) for tj in t]
                      + [2 * mp.pi * r_f * mp.ldexp(1, -width - 1), 2 * mp.pi * r_f * mp.ldexp(1, -width)]
                      + [2 * mp.pi * r_f * (1 - 3 * mp.ldexp(1, -k - 2)) for k in range(width, cut)])
            for (c, s), angle in zip(narrow + [first, step] + centres, angles):
                worst = max(worst, abs(c - mp.ldexp(mp.cos(angle), f)), abs(s - mp.ldexp(mp.sin(angle), f)))
    assert worst < 1 + 2**-7 < decay._CONV_ULPS, worst


def test_sigma_hat_rejects_unbounded_truncation(monkeypatch):
    # with an absurd exp_fixed error the bound passes 2^-precision_bits and
    # the value is refused instead of returned
    decay._oscillation_grid.cache_clear()
    monkeypatch.setattr(decay, "_EXP_FIXED_ULPS", 1 << 80)
    try:
        with pytest.raises(ArithmeticError):
            decay.sigma_hat(Q(7, 2), 96)
    finally:
        decay._oscillation_grid.cache_clear()


def test_sigma_hat_rejects_unbounded_quadrature(monkeypatch):
    # an inflated quadrature term passes 2^-precision_bits just the same
    decay._oscillation_grid.cache_clear()
    monkeypatch.setattr(decay, "_ellipse_bound", lambda c, rho, order, big_m, defect: iv.mpf(2) ** -80)
    try:
        with pytest.raises(ArithmeticError):
            decay.sigma_hat(Q(7, 2), 96)
    finally:
        decay._oscillation_grid.cache_clear()


def test_fourier_report_unchanged(capsys):
    # report bytes of `decay fourier --range 40,120 --samples 5 --prec 128`
    # from the mpf implementation of sigma_hat; the fit crosses r = 128, so
    # both oscillation grids are used
    assert main(["decay", "fourier", "--range", "40,120", "--samples", "5", "--prec", "128"]) == 0
    text = capsys.readouterr().out
    doc = json.loads(text)
    assert doc["exponent_coeff"] == "2.4129741520621136348"
    assert doc["const"] == "1.4800371000516183353"
    assert doc["residual"] == "0.091364"
    assert doc["config"] == {"command": "decay", "config": None, "decay_command": "fourier", "out": None,
                             "prec": 128, "range": "40,120", "samples": 5, "timing": False}
    body = {k: v for k, v in doc.items() if k not in ("config", "schema_version")}
    assert hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest() == FOURIER_REPORT_SHA256


def test_fourier_256_report_unchanged(capsys):
    # the benchmark's fit: 256 bits, r from 50 to 400 on both oscillation grids
    assert main(["decay", "fourier", "--range", "50,400", "--samples", "8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exponent_coeff"] == "2.4769117077045228204"
    body = {k: v for k, v in doc.items() if k not in ("config", "schema_version")}
    assert hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest() == FOURIER_256_SHA256


def test_fourier_fit_small_window():
    fit = decay.fourier_decay_fit(40, 120, 5, 128)
    with mp.workprec(160):
        target = mp.sqrt(2 * mp.pi)
        assert abs(fit["exponent_coeff"] - target) / target < mp.mpf("0.10")


@pytest.mark.parametrize("r_cut", [0, -3, mp.mpf("nan"), 513, float("inf")])
def test_parseval_rejects_a_cut_off_the_grid(r_cut):
    # before any sigma_hat call: a cut past GRID_R_MAX would first sum the
    # transform at every node up to it
    with pytest.raises(ValueError, match="r_cut"):
        decay.parseval_check(0, 64, r_cut=r_cut)


def test_parseval_lower_precision():
    pv = decay.parseval_check(4, 128)
    assert pv["rel_diff"] < mp.mpf("1e-6")


@pytest.mark.parametrize("n, r_cut, steps", [(0, 9, 23), (2, 20, 50)])
def test_parseval_trapezoid_against_gl_panels(monkeypatch, n, r_cut, steps):
    # the truncated r-side integral, recovered from lhs and tail, is within
    # the tail of GL-48 on width-3 panels (at most) of the same integrand, and
    # the trapezoid costs one sigma_hat call per node
    calls = []
    real = decay.sigma_hat

    def counting(r, bits):
        calls.append(r)
        return real(r, bits)

    monkeypatch.setattr(decay, "sigma_hat", counting)
    pv = decay.parseval_check(n, 128, r_cut=r_cut)
    assert len(calls) == steps + 1
    with mp.workprec(168):
        trapezoid = pv["lhs"] ** 2 / 2 - pv["tail"]
        f = lambda r: real(r, 128) ** 2 * r ** (2 * n)
        panels = -(-r_cut // 3)
        gl = mp.fsum(_panel_integral(f, mp.mpf(r_cut) * k / panels, mp.mpf(r_cut) * (k + 1) / panels, 48)
                     for k in range(panels))
        assert abs(trapezoid - gl) < pv["tail"]


def test_moment_to_pointwise_brute_force():
    y = Q(739, 100)  # ~ e^2
    res = decay.moment_to_pointwise(Q(1), Q(1), y, 128)
    with mp.workprec(128):
        lny = mp.log(mp.mpf(739) / 100)
        brute = min(range(1, 11), key=lambda n: -n * lny + n * mp.log(n))
        assert res["best_n"] == brute == 3
        assert abs(mp.e ** res["ln_bound"] - 27 * mp.e ** (-3 * lny)) < mp.mpf("1e-20")


def test_moment_to_pointwise_nonincreasing_in_y():
    prev = None
    for y in (Q(2), Q(4), Q(8), Q(50), Q(1000)):
        res = decay.moment_to_pointwise(Q(1), Q(1), y, 128)
        if prev is not None:
            assert res["ln_bound"] <= prev + mp.mpf("1e-25")
        prev = res["ln_bound"]


def test_moment_asymptote():
    with mp.workprec(192):
        for k in (10, 20):
            y = Q(mp.nstr(mp.exp(k), 25, strip_zeros=False)).limit_denominator(10**15)
            res = decay.moment_to_pointwise(Q(1), Q(1), y, 192)
            ratio = res["asymptote_ratio"]
            assert abs(ratio + mp.exp(-1)) * mp.e < mp.mpf("0.02"), k
        assert res["achieved_d"] == 1.0


def test_moment_rejects_small_y():
    with pytest.raises(ValueError):
        decay.moment_to_pointwise(Q(1), Q(1), Q(1), 64)


def test_precision_doubling_stability():
    # the certified enclosures at 128 and 256 bits overlap
    with mp.workprec(400):
        for n in (1, 6, 13, 20):
            a = decay.l1_norm(n, 128)
            b = decay.l1_norm(n, 256)
            assert abs(a["norm"] - b["norm"]) <= a["abs_err"] + b["abs_err"], n
            assert max(a["ln_enclosure"][0], b["ln_enclosure"][0]) <= min(a["ln_enclosure"][1], b["ln_enclosure"][1])
