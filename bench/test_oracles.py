"""Each oracle accepts the program's value and rejects a deliberately wrong one.

    python3 -m pytest -q bench/test_oracles.py
"""

from __future__ import annotations

import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest
from mpmath import mp

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from loopcert import cartan, convergence, decay, weyl  # noqa: E402

import oracles  # noqa: E402


def test_series_coefficients():
    assert oracles.bott_counts("A1", 4) == [1, 2, 2, 2, 2]
    assert oracles.bott_counts("A2", 6) == [1, 3, 6, 9, 12, 15, 18]
    assert oracles.kostant_counts("G2", 6) == [1, 1, 1, 1, 1, 2, 2]
    assert oracles.exponents("D4") == (1, 3, 3, 5)


@pytest.mark.parametrize("label,max_len", [("A2", 6), ("G2", 6), ("D4", 3)])
def test_census_oracle(label, max_len):
    census = convergence.growth_census(cartan.build_root_system_label(label), max_len)
    assert oracles.check_census(label, max_len, census["full"], census["kostant"]) == []
    wrong = list(census["full"])
    wrong[-1] += 1
    assert oracles.check_census(label, max_len, wrong, census["kostant"])
    assert oracles.check_census(label, max_len, census["full"], census["full"])


def test_length_identity_oracle():
    rs = cartan.build_root_system_label("C2")
    records = [(d, weyl.length_im(rs, w), weyl.inverted_roots_scan(rs, w).roots, weyl.inverted_roots_word(rs, w).roots)
               for d, layer in enumerate(weyl.enumerate_by_length(rs, 3)) for w in layer]
    assert oracles.check_length_identities("C2", 3, records) == []
    depth, im_len, scan, word = records[-1]
    assert oracles.check_length_identities("C2", 3, records[:-1] + [(depth, im_len + 1, scan, word)])
    assert oracles.check_length_identities("C2", 3, records[:-1] + [(depth, im_len, scan, word[::-1])])
    assert oracles.check_length_identities("C2", 3, records[:-1])


def test_c1_oracle():
    assert [oracles.check_c1(t, c) for t, c in (("A2", "1"), ("C2", "2"), ("G2", "3"))] == [[], [], []]
    assert oracles.check_c1("C2", "1")
    assert oracles.check_c1("G2", "2")


def test_violation_and_count_checks():
    assert oracles.check_no_violations({"violations": [], "failures": []}) == []
    assert oracles.check_no_violations({"violations": [{"check": "h1.sandwich"}], "failures": []})
    assert oracles.check_kostant_checked("A2", 4, sum(oracles.kostant_counts("A2", 4))) == []
    assert oracles.check_kostant_checked("A2", 4, sum(oracles.kostant_counts("A2", 4)) - 1)


def test_audit_input_check():
    assert oracles.check_audit_inputs({"constants": {"r": "2", "t": "1/3"}}, "2", "1/3") == []
    assert oracles.check_audit_inputs({"constants": {"r": "1", "t": "1/2"}}, "2", "1/3")


def test_certificate_oracle():
    rs = cartan.build_root_system_label("A1")
    params = convergence.default_params(rs, r=Q(16))
    with mp.workprec(256):
        report = convergence.certify(rs, params, 40)
    assert oracles.check_certificate("A1", 40, report) == []
    assert oracles.check_certificate("A1", 40, dict(report, verdict="NON-DECAYING"))
    assert oracles.check_certificate("A1", 40, dict(report, stabilized_at=40))
    shells = [dict(s) for s in report["shells"]]
    shells[3]["count"] += 1
    assert oracles.check_certificate("A1", 40, dict(report, shells=shells))


def test_duality_check():
    assert oracles.check_duality([(Q(1, 2), Q(1, 2))]) == []
    assert oracles.check_duality([(Q(1, 2), Q(1, 2)), (Q(1), Q(-1))])


def test_sigma_hat_oracle():
    r = Q(11, 2)
    value = decay.sigma_hat(r, 128)
    oracle = oracles.sigma_hat_quad(r)
    assert oracles.check_sigma_hat(r, value, oracle) == []
    assert oracles.check_sigma_hat(r, value + mp.mpf("1e-40"), oracle)
    assert oracles.check_sigma_hat(r, decay.sigma_hat(r + Q(1, 64), 128), oracle)


def test_fit_check():
    assert oracles.check_fit("2.4769117077045228204") == []
    assert oracles.check_fit("2.2")
    assert oracles.check_fit("2.8")


def test_parseval_check():
    exact = oracles.l2_norm_sigma()
    with mp.workdps(60):
        assert oracles.check_parseval(exact * (1 + mp.mpf("1e-7")), exact, exact) == []
        assert oracles.check_parseval(exact * (1 + mp.mpf("2e-6")), exact, exact)
        assert oracles.check_parseval(exact, exact * (1 + mp.mpf("1e-25")), exact)
        assert oracles.check_close("l2", decay.l2_norm(0, 128) / exact, 1, "1e-30") == []


def test_unit_norm_check():
    assert oracles.check_unit_norm("-0.306852819440054690582767878542") == []
    assert oracles.check_unit_norm("-0.30685281")


def test_total_variation_oracle():
    with mp.workprec(320):
        ln_norm = decay.l1_norm(3, 256)["ln"]
    oracle = oracles.l1_norm_total_variation(3)
    assert oracles.check_close("N=3", ln_norm, oracle, "1e-20") == []
    assert oracles.check_close("N=3", ln_norm + mp.mpf("1e-18"), oracle, "1e-20")
    assert oracles.check_close("N=3", ln_norm, oracles.l1_norm_total_variation(2), "1e-20")


def test_ratio_chain_check():
    ln_norms = {1: "-0.3068528194400546905827678785", 2: "1.161186070761350949242221347",
                5: "10.99451860985827753005779573"}
    assert oracles.check_ratio_chain(ln_norms) == []
    assert oracles.check_ratio_chain({**ln_norms, 5: "22.0"})  # ratio -1.03 > -1.69 at N = 1


def test_log_convexity_check():
    assert oracles.check_log_convex({0: mp.mpf(1), 1: mp.mpf(2), 2: mp.mpf(5)}) == []
    assert oracles.check_log_convex({0: mp.mpf(1), 1: mp.mpf(3), 2: mp.mpf(5)})


def test_conversion_check():
    y = Q(485165195)
    report = {"best_n": 178482301, "ln_bound": "-178482300.81243384229", "asymptote_ratio": "-0.36787944117144232139"}
    assert oracles.check_conversion(Q(1), Q(1), y, report) == []
    assert oracles.check_conversion(Q(1), Q(1), y, dict(report, best_n=178482306))
    assert oracles.check_conversion(Q(1), Q(1), y, dict(report, ln_bound="-178482300.80"))
    assert oracles.check_conversion(Q(1), Q(1), y, dict(report, asymptote_ratio="-0.3"))
