import itertools
import random
from fractions import Fraction as Q

import pytest

from loopcert import weyl
from loopcert.affine import AffineRoot, AffineWeight, CartanElement, affine_pairing, affine_simple_roots, coroot
from loopcert.cartan import RootSystemError, Weight, build_root_system_label
from loopcert.linalg import vec
from reference import from_pair, from_word, reflect


def rs_of(label):
    return build_root_system_label(label)


def alpha_weight(rs, i):
    return AffineRoot(tuple(1 if j == i else 0 for j in range(rs.rank)), 0).to_weight()


# --------------------------------------------------------------------------
# reflections


def test_reflect_examples():
    rs = rs_of("A1")
    out = reflect(rs, 2, alpha_weight(rs, 0))
    assert out.classical.coords == (Q(-1),) and out.iota == 2 and out.lam == 0

    rs2 = rs_of("A2")
    lam = AffineWeight(Weight(vec((0, 0))), Q(0), Q(1))
    for i in (1, 2):
        assert reflect(rs2, i, lam) == lam

    iota = AffineWeight(Weight(vec((0, 0))), Q(1), Q(0))
    for i in (1, 2, 3):
        assert reflect(rs2, i, iota) == iota

    with pytest.raises(RootSystemError):
        reflect(rs2, 4, iota)


def test_reflect_is_involution():
    rng = random.Random(5)
    rs = rs_of("G2")
    for _ in range(50):
        lam = AffineWeight(
            Weight(vec([Q(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(2)])),
            Q(rng.randrange(-9, 10)),
            Q(rng.randrange(-9, 10)),
        )
        for i in (1, 2, 3):
            assert reflect(rs, i, reflect(rs, i, lam)) == lam


# --------------------------------------------------------------------------
# canonical form and words


def test_from_word_examples():
    rs = rs_of("A1")
    w = from_word(rs, (2,))
    assert w.tilde == ((-1,),) and w.b == (1,) and w.length == 1
    e = from_word(rs, ())
    assert e == weyl.identity_element(rs)
    w1 = from_word(rs, (2, 1, 2, 1))
    w2 = from_word(rs, (1, 2, 1, 2))
    assert w1 != w2 and w1.length == w2.length == 4


@pytest.mark.parametrize("label", ["A2", "C2", "G2"])
def test_from_word_matches_generator_products(label):
    rs = rs_of(label)
    for word in itertools.product(range(1, rs.rank + 2), repeat=3):
        via_reflections = from_word(rs, word)
        prod = weyl.identity_element(rs)
        for i in word:
            prod = weyl.multiply(rs, prod, weyl.generator(rs, i))
        assert (via_reflections.tilde, via_reflections.b) == (prod.tilde, prod.b)


def test_nonreduced_word_gets_no_cached_word():
    rs = rs_of("A2")
    w = from_word(rs, (1, 1, 2))
    assert w.length == 1 and w.word is None


def test_group_axioms_spot_check():
    rs = rs_of("C2")
    rng = random.Random(3)
    layers = weyl.enumerate_by_length(rs, 5)
    elements = [w for layer in layers for w in layer]
    for _ in range(200):
        u, v = rng.choice(elements), rng.choice(elements)
        uv = weyl.multiply(rs, u, v)
        assert weyl.multiply(rs, uv, weyl.inverse(rs, v)) == u
        assert weyl.multiply(rs, weyl.inverse(rs, u), uv) == v


# --------------------------------------------------------------------------
# actions


def test_act_on_cartan_examples():
    rs = rs_of("A1")
    w = weyl.generator(rs, 2)  # (s_alpha, h_alpha)
    h_iota = CartanElement(vec((0,)), Q(1), Q(0))
    assert weyl.act_on_cartan(rs, w, h_iota) == h_iota
    d = CartanElement(vec((0,)), Q(0), Q(1))
    out = weyl.act_on_cartan(rs, w, d)
    assert out == CartanElement(vec((1,)), Q(-1), Q(1))  # -h_iota + h_alpha + D

    # pure translation on a classical coroot: (h, b) h_iota + h
    t = from_word(rs, (2, 1))  # T_{-h_alpha}
    assert t.tilde == ((1,),)
    h = CartanElement(vec((1,)), Q(0), Q(0))
    got = weyl.act_on_cartan(rs, t, h)
    assert got.classical == (Q(1),) and got.h_iota == rs.coroot_pair_form(vec((1,)), vec(t.b))


def test_action_duality_randomized():
    rng = random.Random(9)
    for label in ("A2", "G2"):
        rs = rs_of(label)
        layers = weyl.enumerate_by_length(rs, 5)
        elements = [w for layer in layers for w in layer]
        for _ in range(300):
            w = rng.choice(elements)
            lam = AffineWeight(
                Weight(vec([Q(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(rs.rank)])),
                Q(rng.randrange(-6, 7), rng.randrange(1, 4)),
                Q(rng.randrange(-6, 7), rng.randrange(1, 4)),
            )
            x = CartanElement(
                vec([Q(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(rs.rank)]),
                Q(rng.randrange(-6, 7), rng.randrange(1, 4)),
                Q(rng.randrange(-6, 7), rng.randrange(1, 4)),
            )
            lhs = affine_pairing(rs, lam, weyl.act_on_cartan(rs, w, x))
            rhs = affine_pairing(rs, weyl.act_on_weight(rs, weyl.inverse(rs, w), lam), x)
            assert lhs == rhs


def test_weight_action_matches_reflections():
    rs = rs_of("C2")
    rng = random.Random(17)
    for word_len in range(0, 5):
        for _ in range(20):
            word = tuple(rng.randrange(1, rs.rank + 2) for _ in range(word_len))
            w = from_word(rs, word)
            lam = AffineWeight(
                Weight(vec([Q(rng.randrange(-5, 6)) for _ in range(rs.rank)])),
                Q(rng.randrange(-5, 6)),
                Q(rng.randrange(-5, 6)),
            )
            step = lam
            for i in reversed(word):
                step = reflect(rs, i, step)
            assert weyl.act_on_weight(rs, w, lam) == step


def test_coroot_equivariance():
    rs = rs_of("A2")
    layers = weyl.enumerate_by_length(rs, 4)
    roots = [AffineRoot(beta, n) for beta in
             list(rs.positive_roots) + [tuple(-c for c in r) for r in rs.positive_roots]
             for n in range(-4, 5)]
    for layer in layers:
        for w in layer:
            for a in roots:
                assert coroot(rs, weyl.act_on_root(rs, w, a)) == weyl.act_on_cartan(rs, w, coroot(rs, a))


# --------------------------------------------------------------------------
# length and enumeration


def test_length_im_examples():
    rs = rs_of("A1")
    t = from_pair(rs, ((1,),), (1,))
    assert weyl.length_im(rs, t) == 2
    assert weyl.length_im(rs, weyl.identity_element(rs)) == 0
    for label in ("A2", "C2", "G2"):
        rs = rs_of(label)
        for i in range(1, rs.rank + 2):
            assert weyl.length_im(rs, weyl.generator(rs, i)) == 1


def test_enumeration_counts():
    rs = rs_of("A1")
    layers = weyl.enumerate_by_length(rs, 6)
    assert [len(l) for l in layers] == [1, 2, 2, 2, 2, 2, 2]
    assert [len(l) for l in weyl.enumerate_by_length(rs_of("A2"), 0)] == [1]


def test_enumeration_against_word_dag_oracle():
    # dedup over all words of length <= 6 gives the same census
    rs = rs_of("A2")
    seen = {}
    frontier = {(weyl.identity_element(rs).tilde, weyl.identity_element(rs).b): weyl.identity_element(rs)}
    seen.update(frontier)
    counts = [1]
    for _ in range(6):
        nxt = {}
        for w in frontier.values():
            for i in range(1, rs.rank + 2):
                p = weyl.multiply(rs, w, weyl.generator(rs, i))
                key = (p.tilde, p.b)
                if key not in seen:
                    nxt[key] = p
        seen.update(nxt)
        counts.append(len(nxt))
        frontier = nxt
    layers = weyl.enumerate_by_length(rs, 6)
    assert [len(l) for l in layers] == counts


def test_enumeration_cap():
    with pytest.raises(weyl.EnumerationLimit):
        weyl.enumerate_by_length(rs_of("A2"), 10, cap=5)


def test_lemma_2_2_window_stability():
    # E, E' extracted on length <= L move by little as the window grows
    from loopcert.inequalities import lemma22_constants

    rs = rs_of("A2")
    l1 = lemma22_constants(rs, weyl.enumerate_by_length(rs, 8))
    l2 = lemma22_constants(rs, weyl.enumerate_by_length(rs, 10))
    assert l2["E_sq"] >= l1["E_sq"]
    assert l2["Eprime_sq"] <= l1["Eprime_sq"]
    assert l2["E_sq"] <= l1["E_sq"] * Q(13, 10)
    assert l1["Eprime_sq"] <= l2["Eprime_sq"] * Q(13, 10)


# --------------------------------------------------------------------------
# inverted root sets


def test_inverted_roots_simple_reflection():
    for label in ("A2", "G2"):
        rs = rs_of(label)
        simples = affine_simple_roots(rs)
        for i in range(1, rs.rank + 2):
            got = weyl.inverted_roots_word(rs, weyl.generator(rs, i)).roots
            assert got == (simples[i - 1],)


def test_inverted_roots_a1_example():
    rs = rs_of("A1")
    w2 = weyl.generator(rs, 2)
    inv_set = weyl.inverted_roots_scan(rs, weyl.inverse(rs, w2)).roots
    assert inv_set == (AffineRoot((-1,), 1),)
    flipped = weyl.neg_inverted_of_inverse(rs, w2)
    assert flipped == (AffineRoot((1,), -1),)


@pytest.mark.parametrize("label,max_len", [("A2", 8), ("C2", 6)])
def test_inverted_roots_paths_agree(label, max_len):
    rs = rs_of(label)
    for depth, layer in enumerate(weyl.enumerate_by_length(rs, max_len)):
        for w in layer:
            a = weyl.inverted_roots_word(rs, w).roots
            b = weyl.inverted_roots_scan(rs, w).roots
            assert a == b and len(a) == depth


def _root_key(a):
    return (a.n, a.classical_part)


def test_gamma_closed_forms_reported():
    # the flipped set w^{-1} . Delta_w is -Delta_{w^{-1}} by definition.  With
    # w = g_{m_1} ... g_{m_r}, closed form A applies the suffix from the k-th
    # letter on to a_{m_k}; closed form B negates the strict-suffix image
    rs = rs_of("A2")
    simples = affine_simple_roots(rs)
    matches_a = matches_b = 0
    for layer in weyl.enumerate_by_length(rs, 5):
        for w in layer:
            defining = sorted((a.negate() for a in weyl.inverted_roots_scan(rs, weyl.inverse(rs, w)).roots),
                              key=_root_key)
            word = weyl.reduced_word(rs, w)
            r = len(word)
            suffix = [weyl.identity_element(rs)] * (r + 1)
            for k in range(r - 1, -1, -1):
                suffix[k] = weyl.multiply(rs, suffix[k + 1], weyl.generator(rs, word[k]))
            variant_a = sorted((weyl.act_on_root(rs, suffix[k], simples[word[k] - 1]) for k in range(r)),
                               key=_root_key)
            variant_b = sorted((weyl.act_on_root(rs, suffix[k + 1], simples[word[k] - 1]).negate()
                                for k in range(r)), key=_root_key)
            matches_a += variant_a == defining
            matches_b += variant_b == defining
    total = sum(len(l) for l in weyl.enumerate_by_length(rs, 5))
    # the defining property is the oracle; both closed forms coincide with it
    assert matches_a == total and matches_b == total


# --------------------------------------------------------------------------
# Kostant representatives


def test_kostant_identity_and_kappa():
    rs = rs_of("A2")
    e = weyl.identity_element(rs)
    assert weyl.is_kostant(rs, e)
    assert weyl.kappa(rs, e) == [((1, 0), 0), ((0, 1), 0)]


def test_kappa_tightness_a1():
    rs = rs_of("A1")
    w2 = weyl.generator(rs, 2)
    assert weyl.kappa(rs, w2) == [((-1,), 2)]


def test_kappa_rejects_non_kostant():
    rs = rs_of("A2")
    with pytest.raises(RootSystemError):
        weyl.kappa(rs, weyl.generator(rs, 1))


def test_kostant_census_a1():
    rs = rs_of("A1")
    layers = weyl.enumerate_by_length(rs, 9)
    assert [sum(weyl.is_kostant(rs, w) for w in layer) for layer in layers] == [1] * 10


@pytest.mark.parametrize("label", ["A2", "C2"])
def test_kostant_minimality(label):
    rs = rs_of(label)
    layers = weyl.enumerate_by_length(rs, 7)
    by_coset: dict = {}
    for depth, layer in enumerate(layers):
        for w in layer:
            by_coset.setdefault(w.b, []).append((depth, w))
    for b, members in by_coset.items():
        kost = [(d, w) for d, w in members if weyl.is_kostant(rs, w)]
        assert len(kost) == 1, b
        min_depth = min(d for d, _ in members)
        assert kost[0][0] == min_depth


def test_reduced_word_fallback():
    rs = rs_of("C2")
    for layer in weyl.enumerate_by_length(rs, 6):
        for w in layer:
            bare = from_pair(rs, w.tilde, w.b)
            word = weyl.reduced_word(rs, bare)
            assert len(word) == w.length
            assert from_word(rs, word) == w
