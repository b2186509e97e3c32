import json
from fractions import Fraction as Q

import pytest
from mpmath import mp
from mpmath.libmp import from_rational, round_nearest

from loopcert import convergence as conv
from loopcert import inequalities as ineq
from loopcert import weyl
from loopcert.cartan import build_root_system_label
from loopcert.linalg import vec
from reference import certify_reference, from_word


def rs_of(label):
    return build_root_system_label(label)


# every type build_root_system_label builds, to rank 8: h^vee is n + 1 on A_n
# and C_n, 2n - 1 on B_n and 2n - 2 on D_n
DUAL_COXETER = {"E6": 12, "E7": 18, "E8": 30, "F4": 9, "G2": 4}
DUAL_COXETER.update({f"A{n}": n + 1 for n in range(1, 9)})
DUAL_COXETER.update({f"B{n}": 2 * n - 1 for n in range(2, 9)})
DUAL_COXETER.update({f"C{n}": n + 1 for n in range(2, 9)})
DUAL_COXETER.update({f"D{n}": 2 * n - 2 for n in range(4, 9)})


@pytest.mark.parametrize("label,expected", sorted(DUAL_COXETER.items()))
def test_dual_coxeter_two_ways(label, expected):
    # the rho pairing and the comark table of the root-system context
    rs = rs_of(label)
    assert conv.dual_coxeter(rs) == rs.dual_coxeter == expected


def test_params_validation():
    rs = rs_of("A1")
    with pytest.raises(ValueError, match="must exceed 2h_dual = 4"):
        conv.CertificateParams("A1", Q(1), Q(0), Q(1), Q(1), Q(1), Q(1), Q(6), Q(1)).validate(rs)
    with pytest.raises(ValueError, match="d must exceed"):
        conv.CertificateParams("A1", Q(1), Q(0), Q(5), Q(1), Q(1), Q(1), Q(5), Q(1)).validate(rs)
    with pytest.raises(ValueError, match="r must be positive"):
        conv.CertificateParams("A1", Q(0), Q(0), Q(5), Q(1), Q(1), Q(1), Q(6), Q(1)).validate(rs)
    conv.default_params(rs).validate(rs)


def test_cell_bound_frozen_values():
    # frozen from the bound-term formula: N = d c2 (l+1), p = -r(b,b)/2 + c3 (l+1)
    rs = rs_of("A1")
    params = conv.CertificateParams("A1", Q(1), Q(0), Q(5), Q(1), Q(1), Q(1), Q(6), Q(1))
    with mp.workprec(256):
        ident = conv.cell_bound(rs, weyl.identity_element(rs), params)
        assert ident.n_exponent == 6 and ident.p_w == 1
        assert abs(ident.log_term - (6 * mp.log(6) + 1)) < mp.mpf("1e-30")
        t_h = from_word(rs, (2, 1))  # translation, length 2, (b,b) = 2
        cell = conv.cell_bound(rs, t_h, params)
        assert cell.n_exponent == 18 and cell.p_w == -1 + 3
        assert abs(cell.log_term - (18 * mp.log(18) + 2)) < mp.mpf("1e-30")


def test_log_term_tends_to_minus_infinity():
    rs = rs_of("A1")
    params = conv.default_params(rs, r=Q(16))
    layers = weyl.enumerate_by_length(rs, 30)
    kost = [w for layer in layers for w in layer if weyl.is_kostant(rs, w)]
    with mp.workprec(256):
        cells = [conv.cell_bound(rs, w, params) for w in kost]
        assert cells[-1].log_term < -100
        assert cells[-1].log_term < cells[10].log_term < cells[0].log_term + 10**6


def test_monotone_parameter_response():
    rs = rs_of("A2")
    layers = weyl.enumerate_by_length(rs, 8)
    kost = [w for layer in layers for w in layer if weyl.is_kostant(rs, w)]
    p1 = conv.default_params(rs, r=Q(1))
    p2 = conv.default_params(rs, r=Q(2))
    with mp.workprec(256):
        for w in kost:
            c1 = conv.cell_bound(rs, w, p1)
            c2 = conv.cell_bound(rs, w, p2)
            if w.length >= 1:
                assert c2.log_term < c1.log_term
            else:
                assert c2.log_term == c1.log_term


def _exact(x) -> Q:
    man, exp = x.man_exp
    return Q(man) * Q(2) ** exp


@pytest.mark.parametrize("label, r, re_nu, prec", [("A2", 1, -10, 64), ("C2", 16, 0, 53)])
def test_shell_sums_are_rounded_once(label, r, re_nu, prec):
    # each shell sum is the exact sum of its cells' terms rounded once, so it
    # does not depend on their order; at these settings a plain running sum,
    # in layer order or sorted either way, prints other digits
    rs = rs_of(label)
    params = conv.default_params(rs, r=Q(r), re_nu=Q(re_nu))
    rep = conv.certify(rs, params, 14, prec=prec)
    with mp.workprec(prec):
        for shell, layer in zip(rep["shells"], weyl.enumerate_kostant(rs, 14)):
            total = sum(_exact(mp.e ** conv.cell_bound(rs, w, params).log_term) for w in layer)
            rounded = mp.make_mpf(from_rational(total.numerator, total.denominator, prec, round_nearest))
            assert shell["shell_sum"] == conv._nstr(rounded)


def test_growth_census_examples():
    rs = rs_of("A1")
    census = conv.growth_census(rs, 6)
    assert census["full"] == [1, 2, 2, 2, 2, 2, 2]
    assert census["kostant"] == [1] * 7
    assert conv.growth_census(rs, 0) == {"full": [1], "kostant": [1]}
    a2 = conv.growth_census(rs_of("A2"), 20)
    # counts grow at most linearly in rank-2: counts(n) <= c*n for a small c
    assert all(a2["full"][n] <= 3 * n for n in range(1, 21))
    assert all(k <= f for k, f in zip(a2["kostant"], a2["full"]))


def test_certify_rejects_invalid_params():
    rs = rs_of("A1")
    bad = conv.CertificateParams("A1", Q(1), Q(0), Q(5), Q(1), Q(1), Q(1), Q(5), Q(1))
    with pytest.raises(ValueError):
        conv.certify(rs, bad, 10)


def test_certify_contract_a1():
    rs = rs_of("A1")
    params = conv.default_params(rs, r=Q(16))
    rep = conv.certify(rs, params, 40, prec=256)
    assert rep["verdict"] == "DECAYING"
    assert rep["stabilized_at"] is not None and rep["stabilized_at"] <= 38
    assert rep["caveat"] == conv.CERT_CAVEAT
    assert float(rep["tail_fit"]["quad"]) < 0
    assert rep["tail_bound_heuristic"] is not None
    # shell rows carry the fixed fields
    assert set(rep["shells"][0]) >= {"length", "count", "max_log_term", "shell_sum", "partial_sum"}


def test_certify_deep_left_half_plane():
    # the quadratic term is independent of re_nu: deep negative re_nu still decays
    rs = rs_of("A1")
    params = conv.default_params(rs, r=Q(16), re_nu=Q(-10))
    rep = conv.certify(rs, params, 40, prec=256)
    assert rep["verdict"] == "DECAYING"


def test_consistency_with_inequality_audit():
    # the certificate's p_w dominates the exact <Lambda, H1+H2+H3> for audited samples
    rs = rs_of("A2")
    seed = 99
    audit = ineq.run_audit(rs, 6, 50, 10, seed=seed)
    c3 = Q(audit.constants["C3"])
    r = Q(audit.constants["r"])
    params = conv.CertificateParams("A2", r, Q(0), Q(7), Q(1), Q(1), c3, Q(8), Q(1))
    layers = weyl.enumerate_by_length(rs, 6)
    kost = [w for layer in layers for w in layer if weyl.is_kostant(rs, w)]
    import random

    from loopcert.reports import derive_seed

    env = ineq.siegel_envelope(rs, r, Q(audit.constants["t"]))
    rate = Q(audit.constants["b_norm_rate"])
    for idx, w in enumerate(kost):
        rng_h1 = random.Random(derive_seed(seed, f"h1:{idx}"))
        rng_sg = random.Random(derive_seed(seed, f"siegel:{idx}"))
        p_w = -r * rs.coroot_pair_form(vec(w.b), vec(w.b)) / 2 + c3 * (w.length + 1)
        for k in range(10):
            h1, _ = ineq.h1_vector(rs, ineq.sample_h1(rs, w, rng_h1))
            h2, _ = ineq.h2_vector(rs, w, r)
            h3, _ = ineq.h3_vector(rs, w, ineq.sample_siegel(rs, rng_sg, r, Q(audit.constants["t"])), env, rate)
            lam_total = ineq.lambda_pair(h1 + h2 + h3)
            assert lam_total <= p_w


def test_nu0_sensitivity_reported():
    rs = rs_of("A1")
    rep = conv.certify(rs, conv.default_params(rs, r=Q(16)), 12, prec=128)
    sens = [s["d_logterm_d_nu0"] for s in rep["shells"]]
    assert all(v is not None for v in sens)
    # d log_term / d nu0 = -p_w: negative once the quadratic term dominates
    assert Q(sens[-1]) > 0


# certify evaluates one cell term per (length, (b,b)) class; the per-cell
# loop of tests/reference.py must print the same report
CLASS_LEN = {"A1": 30, "A2": 12, "C2": 12, "G2": 12, "A3": 6, "B3": 6}


@pytest.mark.parametrize("label", sorted(CLASS_LEN))
@pytest.mark.parametrize("prec", [64, 256])
def test_certify_matches_per_cell_reference(label, prec):
    rs = rs_of(label)
    for r in (Q(16), Q(80)):
        for re_nu in (Q(-10), Q(0), Q(2 * rs.dual_coxeter)):
            params = conv.default_params(rs, r=r, re_nu=re_nu)
            got = conv.certify(rs, params, CLASS_LEN[label], prec=prec)
            assert json.dumps(got) == json.dumps(certify_reference(rs, params, CLASS_LEN[label], prec=prec))


@pytest.mark.parametrize("label", sorted(CLASS_LEN))
def test_certify_calls_cell_bound_once_per_class(label, monkeypatch):
    rs = rs_of(label)
    seen = []
    real = conv.cell_bound

    def counting(rs, w, params):
        seen.append((w.length, w.b_norm2))
        return real(rs, w, params)

    monkeypatch.setattr(conv, "cell_bound", counting)
    conv.certify(rs, conv.default_params(rs, r=Q(16)), CLASS_LEN[label])
    classes = {(w.length, w.b_norm2) for layer in weyl.enumerate_kostant(rs, CLASS_LEN[label]) for w in layer}
    assert len(seen) == len(set(seen)) == len(classes) and set(seen) == classes
