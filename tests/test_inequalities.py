import functools
import json
import random
from fractions import Fraction as Q

import pytest

from loopcert import inequalities as ineq
from loopcert import weyl
from loopcert.affine import CartanElement
from loopcert.cli import main
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
    support = weyl.neg_inverted_of_inverse(rs, w2)
    sample = ineq.H1Sample(w2, tuple((g, Q(1)) for g in support))
    h1, checks = ineq.h1_vector(rs, sample)
    assert h1 == CartanElement(vec((1,)), Q(-1), Q(0))
    assert all(v for v in checks.values())
    # the sandwich is the spec's -1*1*kappa(=2) = -2 <= -1
    assert ineq.lambda_pair(h1) == -1


def test_h1_zero_sample_trivial():
    rs = rs_of("A1")
    w2 = a1_w2()
    support = weyl.neg_inverted_of_inverse(rs, w2)
    sample = ineq.H1Sample(w2, tuple((g, Q(0)) for g in support))
    h1, checks = ineq.h1_vector(rs, sample)
    assert h1 == CartanElement(vec((0,)), Q(0), Q(0))
    assert all(v for v in checks.values())


def test_h1_rejects_bad_coefficients():
    rs = rs_of("A1")
    w2 = a1_w2()
    support = weyl.neg_inverted_of_inverse(rs, w2)
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


def test_run_audit_rejects_corollary_without_h1_samples():
    # the corollary reads H1 sample k % n_h1 for each Siegel sample k
    with pytest.raises(ValueError, match="n_h1 >= 1"):
        ineq.run_audit(rs_of("A2"), 2, 0, 1, seed=1)
    assert ineq.run_audit(rs_of("A2"), 2, 0, 1, seed=1, with_corollary=False).ok


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


# --------------------------------------------------------------------------
# the integer kernels behind run_audit


def test_h1_kernel_rejects_bad_input():
    rs = rs_of("A2")
    kost = [w for layer in weyl.enumerate_by_length(rs, 4) for w in layer if weyl.is_kostant(rs, w)]
    kernel = ineq._H1Kernel(rs, kost[-1], ineq.growth_constant_c1(rs))
    nums = [1] * len(kernel.support)
    assert kernel.counterexamples == [] and len(kernel.scan([nums])) == 1
    nums[0] = -1
    with pytest.raises(ValueError):
        kernel.scan([nums])
    with pytest.raises(ValueError):
        kernel.scan([[1] * (len(kernel.support) + 1)])
    with pytest.raises(ValueError):
        ineq._H1Kernel(rs, weyl.generator(rs, 1), Q(1))


def test_h3_kernel_rejects_bad_input():
    rs = rs_of("A1")
    env = ineq.siegel_envelope(rs, Q(1), Q(1, 2))
    kernel = ineq._H3Kernel(rs, a1_w2(), Q(1), Q(1, 2), env, Q(1))
    _, kept = kernel.scan([((kernel.den // 2,), 0)])  # H_cl = h_1 / 2, the A1 example above
    assert [(Q(rho, kernel.rho_den), Q(lam, kernel.lam_den)) for rho, lam in kept] == [(Q(-1, 2), Q(1))]
    # in A1 the Siegel set is ln(t)/2 < H_cl < (1 - ln(t))/2, about (-0.347, 0.847):
    # the kernel rejects exactly the H_cl that SiegelSample.validate rejects
    for x, inside in ((Q(-34, 100), True), (Q(-35, 100), False), (Q(84, 100), True),
                      (Q(85, 100), False), (Q(-10), False), (Q(10), False)):
        h = int(x * kernel.den)
        ref = ineq.SiegelSample(Q(1), Q(1, 2), CartanElement((Q(h, kernel.den),), Q(0), Q(0)))
        if inside:
            ref.validate(rs)
            kernel.scan([((h,), 0)])
            continue
        with pytest.raises(ValueError):
            ref.validate(rs)
        with pytest.raises(ValueError):
            kernel.scan([((h,), 0)])
    with pytest.raises(ValueError):  # the kernel trusts run_audit; h3_vector is the guarded entry point
        ineq.h3_vector(rs, weyl.generator(rs, 1), ineq.sample_siegel(rs, random.Random(1), Q(1), Q(1, 2)), env, Q(1))
    for r, t in ((Q(0), Q(1, 2)), (Q(1), Q(1))):
        with pytest.raises(ValueError):
            ineq._H3Kernel(rs, a1_w2(), r, t, env, Q(1))


# run_audit(rs, 8, n, n // 10, seed=1) with the corollary, as captured from the
# Fraction implementation the integer kernels replaced; (label, n) -> constants
# and the worst corollary margin
AUDIT_GOLDEN = {
    ("A2", 1000): {
        "C1": "1",
        "C2": "1/4",
        "C3": "104489350474559817007069476105/39614081257132168796771975168",
        "C": "104489350474559817007069476105/39614081257132168796771975168",
        "ln_D": "-13181471805599453094714422300824517897751/1250000000000000000000000000000000000000",
        "E": "11931471805599453094714422300824517897751/2500000000000000000000000000000000000000",
        "b_norm_rate": "199032864766431/281474976710656",
        "margin": "77436728815432491873227576695868002542734118660076924678543715261636061819/"
                  "9130418763601002889833740248023040000000000000000000000000000000000000000",
    },
    ("C2", 200): {
        "C1": "2",
        "C2": "1/4",
        "C3": "240062297003720196071628026223/79228162514264337593543950336",
        "C": "240062297003720196071628026223/79228162514264337593543950336",
        "ln_D": "-94883246250395077852429800707420661079759/2500000000000000000000000000000000000000",
        "E": "92383246250395077852429800707420661079759/5000000000000000000000000000000000000000",
        "b_norm_rate": "199032864766431/281474976710656",
        "margin": "244577575530693323294071070074469479415915755480211748929281902061881186459/"
                  "6992321198415914119888984145133568000000000000000000000000000000000000000",
    },
    ("G2", 200): {
        "C1": "3",
        "C2": "1/6",
        "C3": "297076631273682687264486485283/79228162514264337593543950336",
        "C": "297076631273682687264486485283/79228162514264337593543950336",
        "ln_D": "-8971471805599453094714422300824517897751/40000000000000000000000000000000000000",
        "E": "8931471805599453094714422300824517897751/80000000000000000000000000000000000000",
        "b_norm_rate": "199032864766431/281474976710656",
        "margin": "14174312179265069279691487137895506921515299161865146436150582291593990813121/"
                  "64897380357173561975217954331688960000000000000000000000000000000000000000",
    },
}


@functools.lru_cache(maxsize=None)
def _golden_audit(label, samples):
    return ineq.run_audit(rs_of(label), 8, samples, samples // 10, seed=1)


@pytest.mark.parametrize("label,c1", [("C2", "2"), ("G2", "3")])
def test_audit_non_simply_laced(label, c1):
    # Theorem 3.2 and Corollary 3.4 at length 8, where C1 = max 2/(alpha,alpha) > 1
    rep = _golden_audit(label, 200)
    assert rep.violations == [] and rep.constants["C1"] == c1
    assert rep.records[0]["kostant_checked"] > 0


@pytest.mark.parametrize("label,samples", sorted(AUDIT_GOLDEN))
def test_audit_golden_constants(label, samples):
    rep = _golden_audit(label, samples)
    golden = AUDIT_GOLDEN[(label, samples)]
    assert rep.violations == []
    assert {k: rep.constants[k] for k in golden if k != "margin"} == {k: v for k, v in golden.items() if k != "margin"}
    margins = [c["margin"] for c in rep.extremal_cases if c["kind"] == "cor34_worst_margin"]
    assert margins == [golden["margin"]]


def test_verify_dispatch():
    rs = rs_of("A1")
    for lemma in ("lemma22", "lemma23", "lemma351"):
        assert ineq.verify(rs, lemma, 6, 10, 1).ok
    with pytest.raises(ValueError):
        ineq.verify(rs, "lemma999", 6, 10, 1)


def test_lemma22_flags_constants_past_cauchy_schwarz(monkeypatch, capsys):
    # with (b,b) read 100 times too small, E_sq passes |D+| h^vee and the
    # check reports it; with it 100 times too large, Eprime_sq falls below
    # h^vee
    real = weyl.AffineWeylElement.b_norm2.func
    for factor, check in ((Q(1, 100), "E_sq"), (Q(100), "Eprime_sq")):
        monkeypatch.setattr(weyl.AffineWeylElement, "b_norm2", property(lambda w, f=factor: real(w) * f))
        rep = ineq.verify_lemma22(rs_of("A2"), 8)
        assert [v["check"] for v in rep.violations] == [check]
        assert main(["verify", "lemma22", "--type", "A2", "--max-len", "8"]) == 1
        assert [v["check"] for v in json.loads(capsys.readouterr().out)["failures"]] == [check]
    monkeypatch.undo()
    assert ineq.verify_lemma22(rs_of("A2"), 8).violations == []


def test_audit_skips_the_kostant_guards(monkeypatch):
    # enumerate_kostant has tested every element the audit sees, so run_audit
    # calls is_kostant no more; the public h2_vector and h3_vector still do
    calls = []
    real = weyl.is_kostant

    def counting(rs, w):
        calls.append(w)
        return real(rs, w)

    monkeypatch.setattr(weyl, "is_kostant", counting)
    monkeypatch.setattr(ineq, "is_kostant", counting)
    rs = rs_of("A2")
    rep = ineq.run_audit(rs, 8, 20, 2, seed=1)
    assert rep.ok and rep.records[0]["kostant_checked"] == 25
    assert calls == []
    w = weyl.enumerate_kostant(rs, 2)[2][0]
    env = ineq.siegel_envelope(rs, Q(1), Q(1, 2))
    ineq.h2_vector(rs, w, Q(1))
    ineq.h3_vector(rs, w, ineq.sample_siegel(rs, random.Random(1), Q(1), Q(1, 2)), env, Q(1))
    assert calls == [w, w]
