from fractions import Fraction as Q

import pytest

from loopcert.cartan import (
    CartanMatrix,
    RootSystemError,
    build_root_system,
    build_root_system_label,
)
from loopcert.linalg import unit_vec, vec

ALL_TYPES_UP_TO_8 = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)

POSITIVE_COUNTS = {"A2": 3, "A1": 1, "G2": 6, "B2": 4, "C2": 4, "D4": 12, "E8": 120, "F4": 24}


def test_a2_closure_by_hand():
    rs = build_root_system_label("A2")
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1)}


def test_a1_single_root():
    rs = build_root_system_label("A1")
    assert rs.highest_root == (1,)
    assert rs.root_norm2((1,)) == 2


def test_g2_count_and_short_length():
    rs = build_root_system_label("G2")
    assert len(rs.positive_roots) == 6
    assert min(rs.root_norm2(r) for r in rs.positive_roots) == Q(2, 3)


@pytest.mark.parametrize("label,count", sorted(POSITIVE_COUNTS.items()))
def test_positive_root_counts(label, count):
    assert len(build_root_system_label(label).positive_roots) == count


def test_pairing_examples():
    rs = build_root_system_label("A2")
    h1 = unit_vec(2, 0)
    h2 = unit_vec(2, 1)
    assert rs.pairing(rs.fundamental_weights[0], h1) == 1
    assert rs.pairing(rs.fundamental_weights[0], h2) == 0
    # <alpha_1, h_2> is the Cartan matrix entry a[2][1] = -1
    assert rs.pairing(vec((1, 0)), h2) == -1
    for label in ("A2", "G2", "F4", "B2"):
        rs = build_root_system_label(label)
        for i in range(rs.rank):
            assert rs.pairing(rs.rho, unit_vec(rs.rank, i)) == 1


def test_pairing_rank_mismatch():
    rs = build_root_system_label("A2")
    with pytest.raises(RootSystemError):
        rs.pairing(vec((1,)), vec((1, 0)))


@pytest.mark.parametrize("bad", [(1,), (1, 0, 0)])
def test_pairings_reject_a_rank_mismatch(bad):
    # too short or too long on either side: the integer forms must not truncate
    rs = build_root_system_label("A2")
    good = vec((1, 2))
    for form in (rs.pairing, rs.coroot_pair_form):
        for args in ((vec(bad), good), (good, vec(bad))):
            with pytest.raises(RootSystemError):
                form(*args)


def test_weight_in_simple_roots():
    rs = build_root_system_label("A2")
    assert rs.fundamental_weights[0] == (Q(2, 3), Q(1, 3))
    assert build_root_system_label("A1").fundamental_weights[0] == (Q(1, 2),)
    rs = build_root_system_label("D4")
    for i in range(4):
        assert all(c > 0 for c in rs.fundamental_weights[i])


def test_unknown_type_and_rank_errors():
    with pytest.raises(RootSystemError):
        build_root_system("Z", 2)
    with pytest.raises(RootSystemError):
        build_root_system("E", 9)
    with pytest.raises(RootSystemError):
        build_root_system("D", 3)


def test_cartan_matrix_validation():
    with pytest.raises(RootSystemError):
        CartanMatrix(2, ((2, 1), (1, 2)))  # positive off-diagonal
    with pytest.raises(RootSystemError):
        CartanMatrix(2, ((2, -1), (0, 2)))  # asymmetric zero pattern
    with pytest.raises(RootSystemError):
        CartanMatrix(2, ((2, -2), (-2, 2)))  # affine, not finite type


@pytest.mark.parametrize("label", ALL_TYPES_UP_TO_8)
def test_reflection_closure_and_form_invariance(label):
    rs = build_root_system_label(label)
    pos = set(rs.positive_roots)
    n = rs.rank
    for i in range(n):
        alpha_i = tuple(1 if j == i else 0 for j in range(n))
        h_i = unit_vec(n, i)
        for beta in rs.positive_roots:
            refl = tuple(
                beta[j] - (int(rs.pairing(vec(beta), h_i)) if j == i else 0) for j in range(n)
            )
            if beta != alpha_i:
                assert refl in pos, (label, i, beta)
            assert rs.weight_form(vec(refl), vec(refl)) == rs.root_norm2(beta)


@pytest.mark.parametrize("label", ALL_TYPES_UP_TO_8)
def test_inverse_cartan_positivity(label):
    rs = build_root_system_label(label)
    for w in rs.fundamental_weights:
        assert all(c > 0 for c in w)


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D5", "E7", "F4", "G2"])
def test_rho_half_sum(label):
    # equality of the two rho constructions is asserted inside the builder;
    # rebuild from scratch so a cached value cannot mask it
    rs = build_root_system_label(label)
    half = tuple(Q(sum(r[i] for r in rs.positive_roots), 2) for i in range(rs.rank))
    assert rs.rho == half


def test_highest_root_dominates():
    for label in ("A4", "C3", "E6"):
        rs = build_root_system_label(label)
        for beta in rs.positive_roots:
            assert all(h >= b for h, b in zip(rs.highest_root, beta))
