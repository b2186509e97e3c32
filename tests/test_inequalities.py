import random
from fractions import Fraction as Q

import pytest

from loopcert import inequalities as ineq
from loopcert import weyl
from loopcert.affine import CartanElement
from loopcert.cartan import build_root_system_label
from loopcert.linalg import vec


def rs_of(label):
    return build_root_system_label(label)


def a1_w2():
    return weyl.generator(rs_of("A1"), 2)


# --------------------------------------------------------------------------
# H1


def test_h1_a1_example():
    rs = rs_of("A1")
    w2 = a1_w2()
    support = ineq.flipped_support(rs, w2)
    sample = ineq.H1Sample(w2, tuple((g, Q(1)) for g in support))
    h1, checks = ineq.h1_vector(rs, sample)
    assert h1 == CartanElement(vec((1,)), Q(-1), Q(0))
    assert all(v for v in checks.values())
    # the sandwich is the spec's -1*1*kappa(=2) = -2 <= -1
    assert ineq.lambda_pair(h1) == -1


def test_h1_zero_sample_trivial():
    rs = rs_of("A1")
    w2 = a1_w2()
    support = ineq.flipped_support(rs, w2)
    sample = ineq.H1Sample(w2, tuple((g, Q(0)) for g in support))
    h1, checks = ineq.h1_vector(rs, sample)
    assert h1 == CartanElement(vec((0,)), Q(0), Q(0))
    assert all(v for v in checks.values())


def test_h1_rejects_bad_coefficients():
    rs = rs_of("A1")
    w2 = a1_w2()
    support = ineq.flipped_support(rs, w2)
    bad = ineq.H1Sample(w2, tuple((g, Q(-1)) for g in support))
    with pytest.raises(ValueError):
        ineq.h1_vector(rs, bad)
    from loopcert.affine import AffineRoot

    outside = ineq.H1Sample(w2, ((AffineRoot((1,), -7), Q(1)),))
    with pytest.raises(ValueError):
        ineq.h1_vector(rs, outside)


def test_h1_superposition():
    # checks passing for c and c' implies they pass for c + c'
    rs = rs_of("A2")
    layers = weyl.enumerate_by_length(rs, 6)
    kost = [w for layer in layers for w in layer if weyl.is_kostant(rs, w)]
    rng = random.Random(21)
    for w in kost[-5:]:
        s1 = ineq.sample_h1(rs, w, rng)
        s2 = ineq.sample_h1(rs, w, rng)
        summed = ineq.H1Sample(w, tuple((g, c1 + c2) for (g, c1), (_, c2) in zip(s1.coeffs, s2.coeffs)))
        _, checks = ineq.h1_vector(rs, summed)
        assert all(checks.values())


def test_h1_randomized_audit_c1_equals_1_simply_laced():
    rs = rs_of("A2")
    assert ineq.growth_constant_c1(rs) == 1
    assert ineq.growth_constant_c1(rs_of("C2")) == 2
    assert ineq.growth_constant_c1(rs_of("G2")) == 3


# --------------------------------------------------------------------------
# H2


def test_h2_a1_example():
    rs = rs_of("A1")
    h2, checks = ineq.h2_vector(rs, a1_w2(), Q(1))
    assert h2.h_iota == -1 and h2.classical == (Q(1),)
    assert checks["d_nonpos"] and checks["q_nonpos"] and checks["omega_nonneg"]


def test_h2_identity_ratio_zero():
    rs = rs_of("A1")
    _, checks = ineq.h2_vector(rs, weyl.identity_element(rs), Q(1))
    assert checks["ratio"] == 0


def test_h2_scale_equivariance():
    rs = rs_of("A2")
    layers = weyl.enumerate_by_length(rs, 6)
    for layer in layers:
        for w in layer:
            if not weyl.is_kostant(rs, w):
                continue
            h2a, _ = ineq.h2_vector(rs, w, Q(1))
            h2b, _ = ineq.h2_vector(rs, w, Q(2))
            assert h2b == Q(2) * h2a


def test_h2_matches_action_formula():
    rs = rs_of("C2")
    degree = CartanElement((Q(0), Q(0)), Q(0), Q(1))
    for layer in weyl.enumerate_by_length(rs, 5):
        for w in layer:
            if not weyl.is_kostant(rs, w):
                continue
            r = Q(3, 2)
            h2, _ = ineq.h2_vector(rs, w, r)
            direct = weyl.act_on_cartan(rs, w, r * degree) - r * degree
            assert h2 == direct


def test_h2_rejects_non_kostant():
    rs = rs_of("A2")
    with pytest.raises(ValueError):
        ineq.h2_vector(rs, weyl.generator(rs, 1), Q(1))


def test_c2_window_growth_bounded():
    # C2(L) is a max over a growing set: nondecreasing, and stable within 5%
    rs = rs_of("A2")

    def c2_at(max_len):
        layers = weyl.enumerate_by_length(rs, max_len)
        best = Q(0)
        for w in (w for layer in layers for w in layer if weyl.is_kostant(rs, w)):
            _, checks = ineq.h2_vector(rs, w, Q(1))
            best = max(best, checks["ratio"])
        return best

    c8, c10 = c2_at(8), c2_at(10)
    assert c8 <= c10 <= c8 * Q(21, 20)


# --------------------------------------------------------------------------
# Siegel samples and H3


def test_lnt_bounds_bracket():
    from mpmath import mp

    lo, hi = ineq.lnt_bounds(Q(1, 2))
    assert lo < hi and hi - lo < Q(1, 2**62)
    with mp.workprec(200):
        true = mp.log(mp.mpf(1) / 2)
        assert mp.mpf(lo.numerator) / lo.denominator < true < mp.mpf(hi.numerator) / hi.denominator


def test_siegel_sample_validates():
    rs = rs_of("A2")
    rng = random.Random(1)
    for _ in range(50):
        s = ineq.sample_siegel(rs, rng, Q(1), Q(1, 2))
        s.validate(rs)


def test_siegel_violation_detected():
    rs = rs_of("A1")
    bad = ineq.SiegelSample(Q(1), Q(1, 2), CartanElement(vec((-10,)), Q(0), Q(0)))
    with pytest.raises(ValueError):
        bad.validate(rs)


def test_h3_a1_example():
    rs = rs_of("A1")
    w2 = a1_w2()
    sample = ineq.SiegelSample(Q(1), Q(1, 2), CartanElement(vec((Q(1, 2),)), Q(0), Q(0)))
    env = ineq.siegel_envelope(rs, Q(1), Q(1, 2))
    rate = ineq.b_norm_rate(rs, weyl.enumerate_by_length(rs, 8))
    h3, checks = ineq.h3_vector(rs, w2, sample, env, rate)
    assert h3.classical == (Q(-1, 2),) and h3.h_iota == 1
    assert checks["omega_bounded"] and checks["growth3"]


def test_h3_zero_input():
    rs = rs_of("A1")
    # H_g = 0 is on the Siegel boundary only if ln t < 0, which holds for t < 1
    sample = ineq.SiegelSample(Q(1), Q(1, 2), CartanElement(vec((0,)), Q(0), Q(0)))
    env = ineq.siegel_envelope(rs, Q(1), Q(1, 2))
    rate = ineq.b_norm_rate(rs, weyl.enumerate_by_length(rs, 4))
    h3, checks = ineq.h3_vector(rs, a1_w2(), sample, env, rate)
    assert h3 == CartanElement(vec((0,)), Q(0), Q(0))
    assert checks["omega_bounded"] and checks["growth3"]


# --------------------------------------------------------------------------
# lemma sweeps and the audit


def test_lemma351_a1_and_a2():
    assert ineq.verify_lemma351(rs_of("A1"), 10).ok
    rep = ineq.verify_lemma351(rs_of("A2"), 10)
    assert rep.ok and rep.records[0]["kostant_checked"] > 10


def test_lemma23_tight_case_logged():
    rep = ineq.verify_lemma23(rs_of("A1"), 8)
    assert rep.ok
    assert any(c["kappa"] == 2 and c["w"]["length"] == 1 for c in rep.extremal_cases)


def test_lemma22_report():
    rep = ineq.verify_lemma22(rs_of("C2"), 8)
    assert rep.ok
    assert Q(rep.constants["E_sq"]) > 0 and Q(rep.constants["Eprime_sq"]) > 0


def test_audit_small_run_deterministic():
    rs = rs_of("A2")
    rep1 = ineq.run_audit(rs, 5, 40, 8, seed=7)
    rep2 = ineq.run_audit(rs, 5, 40, 8, seed=7)
    assert rep1.ok and rep2.ok
    assert rep1.constants == rep2.constants
    assert rep1.extremal_cases == rep2.extremal_cases


def test_corollary_identity_case():
    rs = rs_of("A1")
    e = weyl.identity_element(rs)
    zero = CartanElement(vec((0,)), Q(0), Q(0))
    rec = ineq.verify_corollary(rs, e, zero, zero, zero, Q(1), Q(0))
    # x = 1, y = 1: the inequality holds with margin exactly 0 for D = 1
    assert rec["ln_x"] == 0 and rec["ln_y"] == 0 and rec["ok"]


def test_verify_dispatch():
    rs = rs_of("A1")
    for lemma in ("lemma22", "lemma23", "lemma351"):
        assert ineq.verify(rs, lemma, 6, 10, 1).ok
    with pytest.raises(ValueError):
        ineq.verify(rs, "lemma999", 6, 10, 1)
