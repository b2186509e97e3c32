"""Property tests of the affine Weyl group engine over every type up to rank 4
at short lengths, of the integer audit kernels and ``run_audit`` against
their Fraction reference, and of the Bernstein root isolation of
``decay`` against the classical Taylor-shift form.  ``derandomize=True`` fixes the examples per test,
so the suite draws the same cases on every run."""

import random
from fractions import Fraction as Q
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcert import decay
from loopcert import inequalities as ineq
from loopcert import weyl
from loopcert.affine import AffineRoot, AffineWeight, CartanElement, affine_pairing
from loopcert.cartan import RootSystemError, Weight, build_root_system_label
from loopcert.linalg import SQRT_BITS, mat_inverse, sqrt_upper, sqrt_upper_num, vec
import reference
from reference import from_pair, from_word

# type -> the longest words and BFS layers drawn from
MAX_LEN = {"A1": 8, "A2": 6, "A3": 5, "A4": 4, "B2": 6, "B3": 5, "B4": 4,
           "C2": 6, "C3": 5, "C4": 4, "D4": 4, "F4": 4, "G2": 6}

PROPERTY = settings(max_examples=10, derandomize=True, database=None, deadline=None)
each_type = pytest.mark.parametrize("label", sorted(MAX_LEN))


@lru_cache(maxsize=None)
def _enumerated(label: str) -> tuple:
    """(depth, element) for every element up to MAX_LEN[label]."""
    rs = build_root_system_label(label)
    return tuple((d, w) for d, layer in enumerate(weyl.enumerate_by_length(rs, MAX_LEN[label])) for w in layer)


@st.composite
def words(draw, label: str):
    """A word in the affine generators, reduced or not."""
    rank = build_root_system_label(label).rank
    return tuple(draw(st.lists(st.integers(1, rank + 1), max_size=MAX_LEN[label])))


rationals = st.fractions(min_value=-8, max_value=8, max_denominator=4)


@each_type
@PROPERTY
@given(data=st.data())
def test_group_axioms(label, data):
    rs = build_root_system_label(label)
    u, v, x = (from_word(rs, data.draw(words(label))) for _ in range(3))
    e = weyl.identity_element(rs)
    assert weyl.multiply(rs, e, u) == u == weyl.multiply(rs, u, e)
    assert weyl.multiply(rs, u, weyl.inverse(rs, u)) == e == weyl.multiply(rs, weyl.inverse(rs, u), u)
    assert weyl.multiply(rs, weyl.multiply(rs, u, v), x) == weyl.multiply(rs, u, weyl.multiply(rs, v, x))
    assert weyl.inverse(rs, weyl.multiply(rs, u, v)) == weyl.multiply(rs, weyl.inverse(rs, v), weyl.inverse(rs, u))


@each_type
@PROPERTY
@given(data=st.data())
def test_im_length_equals_bfs_depth_and_inverted_count(label, data):
    rs = build_root_system_label(label)
    depth, w = data.draw(st.sampled_from(_enumerated(label)))
    assert weyl.length_im(rs, w) == depth == len(weyl.inverted_roots_scan(rs, w).roots)


@each_type
@PROPERTY
@given(data=st.data())
def test_word_path_equals_scan_path(label, data):
    rs = build_root_system_label(label)
    w = from_word(rs, data.draw(words(label)))
    assert weyl.inverted_roots_word(rs, w).roots == weyl.inverted_roots_scan(rs, w).roots


@each_type
def test_flipped_sets_and_kostant_by_definition(label):
    # every element up to MAX_LEN: the flipped set Delta_{-, w^{-1}} against its defining
    # property, and is_kostant/kappa against w^{-1} alpha_i from act_on_root
    rs = build_root_system_label(label)
    simples = [AffineRoot(tuple(int(i == j) for j in range(rs.rank)), 0) for i in range(rs.rank)]
    kostant_seen = 0
    for depth, w in _enumerated(label):
        w_inv = weyl.inverse(rs, w)
        gammas = weyl.neg_inverted_of_inverse(rs, w)
        assert len(gammas) == len(set(gammas)) == depth
        for gamma in gammas:
            assert not gamma.is_positive(rs) and weyl.act_on_root(rs, w_inv, gamma).is_positive(rs)
        images = [weyl.act_on_root(rs, w_inv, a) for a in simples]
        kostant = all(img.is_positive(rs) for img in images)
        assert weyl.is_kostant(rs, w) == kostant
        if kostant:
            kostant_seen += 1
            assert weyl.kappa(rs, w) == [(img.classical_part, img.n) for img in images]
        else:
            with pytest.raises(RootSystemError):
                weyl.kappa(rs, w)
    assert kostant_seen > 1


# the b_norm2 sweep: every type to rank 4 at MAX_LEN, and E6 to length 3
B_NORM_LEN = {**MAX_LEN, "E6": 3}


@pytest.mark.parametrize("label", sorted(B_NORM_LEN))
def test_b_norm2_is_the_coroot_form(label):
    # (b,b) off the shift table, sum_{beta>0} <beta,b>^2 / h^vee, against the
    # Gram form on every element of the sweep
    rs = build_root_system_label(label)
    for layer in weyl.enumerate_by_length(rs, B_NORM_LEN[label]):
        for w in layer:
            assert w.b_norm2 == rs.coroot_pair_form(vec(w.b), vec(w.b))


@pytest.mark.parametrize("label", sorted(B_NORM_LEN))
@PROPERTY
@given(data=st.data())
def test_b_norm2_on_drawn_translations(label, data):
    # the same identity on T_b for b drawn from the coroot lattice, far past the sweep
    rs = build_root_system_label(label)
    b = data.draw(st.lists(st.integers(-40, 40), min_size=rs.rank, max_size=rs.rank).map(tuple))
    w = from_pair(rs, weyl.identity_element(rs).tilde, b)
    assert w.b == b and w.b_norm2 == rs.coroot_pair_form(vec(b), vec(b))


@each_type
@PROPERTY
@given(data=st.data())
def test_action_duality(label, data):
    rs = build_root_system_label(label)
    w = from_word(rs, data.draw(words(label)))
    coords = st.lists(rationals, min_size=rs.rank, max_size=rs.rank).map(tuple)
    lam = AffineWeight(Weight(data.draw(coords)), data.draw(rationals), data.draw(rationals))
    x = CartanElement(data.draw(coords), data.draw(rationals), data.draw(rationals))
    lhs = affine_pairing(rs, lam, weyl.act_on_cartan(rs, w, x))
    rhs = affine_pairing(rs, weyl.act_on_weight(rs, weyl.inverse(rs, w), lam), x)
    assert lhs == rhs


@each_type
@PROPERTY
@given(data=st.data())
def test_reduced_word_round_trip(label, data):
    rs = build_root_system_label(label)
    w = from_word(rs, data.draw(words(label)))
    bare = from_pair(rs, w.tilde, w.b)  # no stored word: reduced_word peels descents
    word = weyl.reduced_word(rs, bare)
    assert len(word) == weyl.length_im(rs, w)
    assert from_word(rs, word) == w


def _mat_mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))) for i in range(len(a)))


@each_type
@PROPERTY
@given(data=st.data())
def test_coroot_matrix_is_the_dual_action(label, data):
    # D M D^{-1} against the defining (A M^{-1} A^{-1})^T, in Fractions
    rs = build_root_system_label(label)
    m = from_word(rs, data.draw(words(label))).tilde
    a = tuple(tuple(Q(e) for e in row) for row in rs.cartan.entries)
    m_inv = mat_inverse(tuple(tuple(Q(e) for e in row) for row in m))
    dual = _mat_mul(_mat_mul(a, m_inv), mat_inverse(a))
    assert weyl._coroot_matrix(rs, m) == tuple(zip(*dual))


@each_type
def test_enumerate_kostant_is_the_filtered_bfs(label):
    # same elements, words, lengths and layer order as the full BFS filtered by
    # is_kostant; the W_fin convolution gives the full layer sizes, and the
    # translation-norm rate over the Kostant layers is the full one
    rs = build_root_system_label(label)
    full = weyl.enumerate_by_length(rs, MAX_LEN[label])
    kost = weyl.enumerate_kostant(rs, MAX_LEN[label])

    def records(layers):
        return [[(w.tilde, w.b, w.word, w.length) for w in layer] for layer in layers]

    assert records(kost) == records([[w for w in layer if weyl.is_kostant(rs, w)] for layer in full])
    assert weyl.full_layer_sizes(rs, kost) == [len(layer) for layer in full]
    assert ineq.b_norm_rate(rs, kost) == ineq.b_norm_rate(rs, full)


@each_type
def test_int_inverse_on_every_finite_matrix_reached(label):
    # the table inverse on every element up to MAX_LEN: w w^{-1} = e = w^{-1} w,
    # and its classical part inverts every finite matrix reached
    rs = build_root_system_label(label)
    e = weyl.identity_element(rs)
    for _, w in _enumerated(label):
        w_inv = weyl.inverse(rs, w)
        assert weyl.multiply(rs, w, w_inv) == e == weyl.multiply(rs, w_inv, w)
        assert _mat_mul(w_inv.tilde, w.tilde) == e.tilde == _mat_mul(w.tilde, w_inv.tilde)


def _pair(w):
    return (w.tilde, w.b)


@each_type
@PROPERTY
@given(data=st.data())
def test_tables_match_matrix_form(label, data):
    # multiply, inverse and act_on_root on the tables against the (tilde, b) formulas
    rs = build_root_system_label(label)
    u, v = (from_word(rs, data.draw(words(label))) for _ in range(2))
    assert _pair(weyl.multiply(rs, u, v)) == reference.ref_multiply(rs, _pair(u), _pair(v))
    assert _pair(weyl.inverse(rs, u)) == reference.ref_inverse(rs, _pair(u))
    for beta in rs.roots:
        for n in range(-2, 3):
            got = weyl.act_on_root(rs, u, AffineRoot(beta, n))
            assert (got.classical_part, got.n) == reference.ref_act_on_root(rs, _pair(u), beta, n)


@each_type
def test_tables_round_trip_and_kostant_match_matrix_form(label):
    # every element up to MAX_LEN: (tilde, b) gives back the same tables, and
    # length_im, is_kostant and kappa agree with the (tilde, b) formulas
    rs = build_root_system_label(label)
    for depth, w in _enumerated(label):
        back = from_pair(rs, w.tilde, w.b)
        assert (back.perm, back.shift) == (w.perm, w.shift) and _pair(back) == _pair(w)
        assert weyl.length_im(rs, w) == reference.ref_length_im(rs, _pair(w)) == depth
        kostant = reference.ref_is_kostant(rs, _pair(w))
        assert weyl.is_kostant(rs, w) == kostant
        if kostant:
            assert weyl.kappa(rs, w) == reference.ref_inverse_simple_images(rs, _pair(w))


@each_type
def test_generators_are_the_one_letter_words(label):
    rs = build_root_system_label(label)
    for i in range(1, rs.rank + 2):
        g = weyl.generator(rs, i)
        w = from_word(rs, (i,))
        assert g == w and (g.word, g.length) == (w.word, w.length) == ((i,), 1)


@each_type
def test_root_norms_table(label):
    rs = build_root_system_label(label)
    roots = list(rs.positive_roots) + [tuple(-c for c in r) for r in rs.positive_roots]
    assert set(rs.root_index) == set(roots) and rs.positive_root_set == set(rs.positive_roots)
    assert all(rs.roots[x] == beta for beta, x in rs.root_index.items())
    for beta in roots:
        assert rs.root_norm2(beta) == rs.weight_form(beta, beta)
    for not_a_root in [(0,) * rs.rank, tuple(2 * c for c in rs.highest_root)]:
        assert not rs.is_root(not_a_root)
        with pytest.raises(RootSystemError):
            rs.root_norm2(not_a_root)


@PROPERTY
@given(n=st.integers(0, 2**200), d=st.integers(1, 2**100), g=st.integers(1, 2**64))
def test_sqrt_upper_num_reads_the_unreduced_fraction(n, d, g):
    # the least multiple of 2^-SQRT_BITS at or above sqrt(n/d), the same for
    # n/d and gn/gd, and the numerator of sqrt_upper(n/d)
    x = sqrt_upper_num(n, d)
    assert sqrt_upper_num(g * n, g * d) == x
    assert Q(x, 2**SQRT_BITS) == sqrt_upper(Q(n, d))
    assert x * x * d >= n << (2 * SQRT_BITS) and (x == 0 or (x - 1) ** 2 * d < n << (2 * SQRT_BITS))


# the integer audit kernels against the Fraction reference (h1_vector, h3_vector,
# verify_corollary)
KERNEL_TYPES = ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2")
each_kernel_type = pytest.mark.parametrize("label", KERNEL_TYPES)


@lru_cache(maxsize=None)
def _kostant(label: str) -> tuple:
    rs = build_root_system_label(label)
    return tuple(w for _, w in _enumerated(label) if weyl.is_kostant(rs, w))


@lru_cache(maxsize=None)
def _rate(label: str) -> Q:
    rs = build_root_system_label(label)
    return ineq.b_norm_rate(rs, weyl.enumerate_by_length(rs, MAX_LEN[label]))


@st.composite
def h1_numerators(draw, size: int):
    """Random, zero, one-hot or superposed (sum of two random) coefficient numerators."""
    coeff = st.lists(st.integers(0, ineq.DRAW_SCALE - 1), min_size=size, max_size=size)
    kind = draw(st.sampled_from(("random", "zero", "one_hot", "superposed")))
    if kind == "random":
        return draw(coeff)
    if kind == "superposed":
        return [a + b for a, b in zip(draw(coeff), draw(coeff))]
    if kind == "zero":
        return [0] * size
    pick = draw(st.integers(0, max(size - 1, 0)))
    return [ineq.DRAW_SCALE if k == pick else 0 for k in range(size)]


@each_kernel_type
@PROPERTY
@given(data=st.data())
def test_h1_kernel_matches_reference(label, data):
    rs = build_root_system_label(label)
    w = data.draw(st.sampled_from(_kostant(label)))
    kernel = ineq._H1Kernel(rs, w, ineq.growth_constant_c1(rs))
    nums = data.draw(h1_numerators(len(kernel.support)))
    sample = ineq.H1Sample(w, tuple((g, Q(c, ineq.DRAW_SCALE)) for g, c in zip(kernel.support, nums)))
    h1, checks = ineq.h1_vector(rs, sample)
    failures, kept = kernel.scan([nums], 1)
    assert failures == [(0, name) for name, ok in checks.items() if not ok]
    assert [(Q(rho, kernel.rho_den), Q(lam, kernel.lam_den)) for rho, lam in kept] == [(ineq.rho_pair(h1), h1.h_iota)]
    # the kernel draws what sample_h1 draws, from the same generator state,
    # one-hot at k % 8 == 7 as run_audit asks
    seed = data.draw(st.integers(0, 2**64 - 1))
    drawn = list(kernel.draws(random.Random(seed), 16))
    rng = random.Random(seed)
    ref = [ineq.sample_h1(rs, w, rng, one_hot=(k % 8 == 7)) for k in range(16)]
    assert [s.coeffs for s in ref] == [tuple((g, Q(c, ineq.DRAW_SCALE)) for g, c in zip(kernel.support, draw))
                                       for draw in drawn]


AUDIT_RT = pytest.mark.parametrize("r,t", [(Q(1), Q(1, 2)), (Q(1), Q(1, 3)), (Q(3, 2), Q(1, 2)), (Q(3, 2), Q(1, 3))],
                                   ids=["r1-t1/2", "r1-t1/3", "r3/2-t1/2", "r3/2-t1/3"])


@each_kernel_type
@AUDIT_RT
@PROPERTY
@given(data=st.data())
def test_h3_kernel_matches_reference(label, r, t, data):
    rs = build_root_system_label(label)
    w = data.draw(st.sampled_from(_kostant(label)))
    # a shrunk envelope and rate make omega_bounded and growth3 fail too; 1/192
    # gives the rate a denominator that is not a power of two
    shrink = data.draw(st.sampled_from((Q(1), Q(1, 64), Q(1, 192))))
    envelope = dict(ineq.siegel_envelope(rs, r, t))
    envelope["E"] *= shrink
    rate = _rate(label) * shrink
    kernel = ineq._H3Kernel(rs, w, r, t, envelope, rate)
    seed = data.draw(st.integers(0, 2**64 - 1))
    drawn = list(kernel.draws(random.Random(seed), 3))
    rng = random.Random(seed)
    refs = [ineq.sample_siegel(rs, rng, r, t) for _ in drawn]
    assert [ref.h_g for ref in refs] == [CartanElement(tuple(Q(x, kernel.den) for x in h), Q(lam, ineq.LAMBDA_SCALE),
                                                       Q(0)) for h, lam in drawn]
    failures, c3, kept = kernel.scan(drawn)
    expected = [ineq.h3_vector(rs, w, ref, envelope, rate) for ref in refs]
    assert failures == [(k, name) for k, (_, checks) in enumerate(expected)
                        for name in ("omega_bounded", "growth3") if not checks[name]]
    assert Q(c3, kernel.c3_den) == max(checks["c3"] for _, checks in expected)
    assert [(Q(rho, kernel.rho_den), Q(lam, kernel.lam_den)) for rho, lam in kept] == [
        (ineq.rho_pair(h3), h3.h_iota) for h3, _ in expected]


@each_kernel_type
@PROPERTY
@given(data=st.data())
def test_kernel_draws_follow_randrange(label, data):
    # the H1 kernel calls getrandbits itself; its stream must stay the one
    # randrange(0, 2^24) and randrange(len(support)) make, and the Siegel draws
    # the one of randrange(1, 2^24) per simple root then randrange(-2^24, 2^24),
    # so an interpreter whose randrange draws differently fails here instead
    # of silently changing the audit reports
    rs = build_root_system_label(label)
    w = data.draw(st.sampled_from(_kostant(label)))
    seed = data.draw(st.integers(0, 2**64 - 1))
    n = 24
    k1 = ineq._H1Kernel(rs, w, ineq.growth_constant_c1(rs))
    size = len(k1.support)
    rng = random.Random(seed)
    expected = []
    for k in range(n):
        if k % 8 == 7 and size:
            pick = rng.randrange(size)
            expected.append([2**24 if j == pick else 0 for j in range(size)])
        else:
            expected.append([rng.randrange(0, 2**24) for _ in range(size)])
    assert list(k1.draws(random.Random(seed), n)) == expected
    k3 = ineq._H3Kernel(rs, w, Q(1), Q(1, 2), ineq.siegel_envelope(rs, Q(1), Q(1, 2)), _rate(label))
    rng = random.Random(seed)
    expected = []
    for _ in range(n):
        xs = [k3.x0 + rng.randrange(1, 2**24) * k3.dx for _ in range(rs.rank)]
        h = tuple(sum(x * c for x, c in zip(xs, col)) for col in k3.coweight_cols)
        expected.append((h, rng.randrange(-2**24, 2**24)))
    assert list(k3.draws(random.Random(seed), n)) == expected


# run_audit end to end against the Fraction loop of tests/reference.py
AUDIT_LEN = {"A1": 8, "A2": 6, "A3": 4, "B2": 6, "B3": 4, "C2": 6, "C3": 4, "G2": 6}


@each_kernel_type
@AUDIT_RT
@pytest.mark.parametrize("with_corollary", [False, True], ids=["thm32", "cor34"])
def test_run_audit_matches_reference(label, r, t, with_corollary):
    args = (build_root_system_label(label), AUDIT_LEN[label], 16, 4, 5, r, t, with_corollary)
    assert ineq.run_audit(*args).to_results() == reference.run_audit_reference(*args).to_results()


@pytest.mark.parametrize("label", ["A2", "C2", "G2"])
def test_run_audit_matches_reference_on_violations(label, monkeypatch):
    # E, C1 and the rate shrunk (the rate by 1/192, so its denominator is not
    # a power of two) make h1.growth1, h3.omega_bounded, h3.growth3 and cor34
    # fail: both audits must list the same violations in the same order; with
    # 10 Siegel samples on 4 H1 samples the corollary wraps k % n_h1
    envelope, c1, rate = ineq.siegel_envelope, ineq.growth_constant_c1, ineq.b_norm_rate
    monkeypatch.setattr(ineq, "siegel_envelope", lambda rs, r, t: {**envelope(rs, r, t),
                                                                   "E": envelope(rs, r, t)["E"] / 64})
    monkeypatch.setattr(ineq, "growth_constant_c1", lambda rs: c1(rs) / 64)
    monkeypatch.setattr(ineq, "b_norm_rate", lambda rs, layers: rate(rs, layers) / 192)
    checks = set()
    for n_h1, n_siegel in ((16, 4), (4, 10)):
        args = (build_root_system_label(label), AUDIT_LEN[label], n_h1, n_siegel, 5, Q(1), Q(1, 2), True)
        got = ineq.run_audit(*args).to_results()
        assert got == reference.run_audit_reference(*args).to_results()
        checks |= {v["check"] for v in got["violations"]}
    assert {"h1.growth1", "h3.omega_bounded", "h3.growth3"} <= checks


# the H1 cone certificate: each check is linear in the coefficients, so it
# holds on every nonnegative sample exactly when it holds on the zero sample
# and on each one-hot sample
@st.composite
def integer_h1_kernels(draw):
    """An _H1Kernel on random integer tables: 1 to 4 coroot rows over a
    support of 0 to 6 flipped roots, sandwich weights, a growth factor and
    h_iota coefficients, zero and negative entries included.  Half the draws
    keep the coroot entries nonnegative; an h_iota coefficient is random or
    the one that puts the sandwich or growth1 column of its root at exactly 0."""
    size, rank = draw(st.integers(0, 6)), draw(st.integers(1, 4))
    entry = st.integers(0, 3) if draw(st.booleans()) else st.integers(-1, 3)
    kernel = object.__new__(ineq._H1Kernel)
    kernel.cols = [tuple(draw(st.lists(entry, min_size=size, max_size=size))) for _ in range(rank)]
    kernel.sandwich = tuple(draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)))
    kernel.growth = draw(st.integers(-2, 4))
    tight = [-min(sum(s * col[j] for s, col in zip(kernel.sandwich, kernel.cols)),
                  kernel.growth * sum(col[j] for col in kernel.cols)) for j in range(size)]
    kernel.lam = tuple(draw(st.one_of(st.just(x), st.integers(-6, 3))) for x in tight)
    return kernel


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(kernel=integer_h1_kernels(), data=st.data())
def test_h1_cone_certificate_is_exact(kernel, data):
    size = len(kernel.lam)
    corners = [[0] * size] + [[int(j == k) for j in range(size)] for k in range(size)]
    certified = kernel._cone_certified()
    assert certified == (kernel.scan(corners, 0)[0] == [])
    if certified:
        samples = data.draw(st.lists(st.lists(st.integers(0, ineq.DRAW_SCALE), min_size=size, max_size=size),
                                     min_size=1, max_size=8))
        assert kernel.scan(samples, 0)[0] == []


@pytest.mark.parametrize("label", ["A2", "C2", "G2"])
@pytest.mark.parametrize("with_corollary", [False, True], ids=["thm32", "cor34"])
def test_run_audit_scans_every_sample_of_an_uncertified_cone(label, with_corollary, monkeypatch):
    # with C1 = 1/10^6, growth1 fails on the cones of some elements: run_audit
    # must then draw and check all their H1 samples, as the Fraction loop does
    monkeypatch.setattr(ineq, "growth_constant_c1", lambda rs: Q(1, 10**6))
    rs = build_root_system_label(label)
    kostant = [w for layer in weyl.enumerate_kostant(rs, 6) for w in layer]
    assert not all(ineq._H1Kernel(rs, w, Q(1, 10**6)).certified for w in kostant)
    args = (rs, 6, 16, 4, 5, Q(1), Q(1, 2), with_corollary)
    got = ineq.run_audit(*args).to_results()
    assert got == reference.run_audit_reference(*args).to_results()
    assert "h1.growth1" in {v["check"] for v in got["violations"]}


@each_kernel_type
def test_true_constants_certify_every_cone(label):
    rs = build_root_system_label(label)
    c1 = ineq.growth_constant_c1(rs)
    assert all(ineq._H1Kernel(rs, w, c1).certified for layer in weyl.enumerate_kostant(rs, 6) for w in layer)


# root isolation in the Bernstein basis against the Taylor-shift form of
# tests/reference.py, on integer polynomials with known roots in (0, 1)
MIDPOINTS = (Q(1, 2), Q(3, 4), Q(5, 8))


@st.composite
def isolation_cases(draw):
    """(coefficients, roots): prod (q x - p) over distinct simple roots p/q in
    (0, 1), some at the dyadic midpoints 1/2, 3/4 and 5/8 the isolation
    splits at, times a factor with no root in (0, 1): (x + c), and
    (q x - p)^2 + s^2, whose complex pair near the interval forces splits."""
    roots = set(draw(st.lists(st.sampled_from(MIDPOINTS), max_size=2)))
    roots |= set(draw(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=40)
                               .filter(lambda r: 0 < r < 1), max_size=5)))
    coeffs = [draw(st.sampled_from([-3, -1, 1, 2]))]
    factors = [(-r.numerator, r.denominator) for r in roots] + [(draw(st.integers(1, 4)), 1)]
    for _ in range(draw(st.integers(0, 2))):
        p, q, s = draw(st.integers(1, 39)), 40, draw(st.integers(1, 3))
        factors.append((p * p + s * s, -2 * p * q, q * q))
    for factor in factors:
        out = [0] * (len(coeffs) + len(factor) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        coeffs = out
    return coeffs, sorted(roots)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(case=isolation_cases())
def test_bernstein_isolation_matches_reference(case):
    coeffs, roots = case
    out: list = []
    decay._isolate_bernstein(decay._bernstein_01(coeffs), 0, 0, out)
    intervals = tuple(sorted(out))
    assert intervals == reference.isolated_intervals_reference(coeffs)
    # one interval per root, each holding its root (a point interval only at
    # an exact midpoint root)
    assert len(intervals) == len(roots)
    for (lo, hi), root in zip(intervals, roots):
        assert lo <= root <= hi and (lo < root < hi or lo == hi == root), (lo, hi, root)


def test_isolated_intervals_match_reference():
    for n in range(1, 41):
        expected = reference.isolated_intervals_reference(decay._deflated_poly(n).coeffs)
        assert decay._isolated_intervals(n) == expected, n
