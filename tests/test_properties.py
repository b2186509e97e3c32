"""Property tests of the affine Weyl group engine over every type up to rank 4
at short lengths.  ``derandomize=True`` fixes the examples per test, so the
suite draws the same cases on every run."""

from fractions import Fraction as Q
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcert import weyl
from loopcert.affine import AffineWeight, CartanElement, affine_pairing
from loopcert.cartan import RootSystemError, Weight, build_root_system_label
from loopcert.linalg import mat_inverse

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
    u, v, x = (weyl.from_word(rs, data.draw(words(label))) for _ in range(3))
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
    w = weyl.from_word(rs, data.draw(words(label)))
    assert weyl.inverted_roots_word(rs, w).roots == weyl.inverted_roots_scan(rs, w).roots


@each_type
@PROPERTY
@given(data=st.data())
def test_action_duality(label, data):
    rs = build_root_system_label(label)
    w = weyl.from_word(rs, data.draw(words(label)))
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
    w = weyl.from_word(rs, data.draw(words(label)))
    bare = weyl.AffineWeylElement(w.tilde, w.b)  # no stored word: reduced_word peels descents
    word = weyl.reduced_word(rs, bare)
    assert len(word) == weyl.length_im(rs, w)
    assert weyl.from_word(rs, word) == w


def _mat_mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))) for i in range(len(a)))


@each_type
@PROPERTY
@given(data=st.data())
def test_coroot_matrix_is_the_dual_action(label, data):
    # D M D^{-1} against the defining (A M^{-1} A^{-1})^T, in Fractions
    rs = build_root_system_label(label)
    m = weyl.from_word(rs, data.draw(words(label))).tilde.matrix
    a = tuple(tuple(Q(e) for e in row) for row in rs.cartan.entries)
    m_inv = mat_inverse(tuple(tuple(Q(e) for e in row) for row in m))
    dual = _mat_mul(_mat_mul(a, m_inv), mat_inverse(a))
    assert weyl._coroot_matrix(rs, m) == tuple(zip(*dual))


@each_type
def test_generators_are_the_one_letter_words(label):
    rs = build_root_system_label(label)
    for i in range(1, rs.rank + 2):
        g = weyl.generator(rs, i)
        w = weyl.from_word(rs, (i,))
        assert g == w and (g.word, g.length) == (w.word, w.length) == ((i,), 1)


@each_type
def test_root_norms_table(label):
    rs = build_root_system_label(label)
    roots = list(rs.positive_roots) + [tuple(-c for c in r) for r in rs.positive_roots]
    assert rs.root_set == set(roots) and rs.positive_root_set == set(rs.positive_roots)
    for beta in roots:
        assert rs.root_norm2(beta) == rs.weight_form(beta, beta)
    for not_a_root in [(0,) * rs.rank, tuple(2 * c for c in rs.highest_root)]:
        assert not rs.is_root(not_a_root)
        with pytest.raises(RootSystemError):
            rs.root_norm2(not_a_root)
