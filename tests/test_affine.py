import random
from fractions import Fraction as Q

import pytest

from loopcert.affine import (
    AffineRoot,
    AffineWeight,
    CartanElement,
    affine_pairing,
    affine_simple_roots,
    coroot,
)
from loopcert.cartan import RootSystemError, Weight, build_root_system_label
from loopcert.linalg import vec, zero_vec
from reference import affine_simple_coroots


def rs_of(label):
    return build_root_system_label(label)


def iota(rs):
    return AffineWeight(Weight(zero_vec(rs.rank)), Q(1), Q(0))


def lambda_(rs):
    return AffineWeight(Weight(zero_vec(rs.rank)), Q(0), Q(1))


def degree(rs):
    return CartanElement(zero_vec(rs.rank), Q(0), Q(1))


def h_iota(rs):
    return CartanElement(zero_vec(rs.rank), Q(1), Q(0))


def test_affine_simple_roots():
    rs = rs_of("A1")
    a = affine_simple_roots(rs)
    assert a[1].classical_part == (-1,) and a[1].n == 1
    rs2 = rs_of("A2")
    assert affine_simple_roots(rs2)[2].classical_part == (-1, -1)


def test_pairing_with_degree_direction():
    # <a_i, D> = 0 for classical i, <a_{l+1}, D> = 1, for every type built
    for label in ("A1", "A2", "C2", "G2", "D4"):
        rs = rs_of(label)
        d = degree(rs)
        simples = affine_simple_roots(rs)
        for i in range(rs.rank):
            assert affine_pairing(rs, simples[i].to_weight(), d) == 0
        assert affine_pairing(rs, simples[rs.rank].to_weight(), d) == 1


def test_coroot_map():
    rs = rs_of("A1")
    h = coroot(rs, AffineRoot((-1,), 1))
    assert h.classical == (Q(-1),) and h.h_iota == 1 and h.d == 0
    h0 = coroot(rs, AffineRoot((1,), 0))
    assert h0.classical == (Q(1),) and h0.h_iota == 0

    rs = rs_of("G2")
    short = min(rs.positive_roots, key=rs.root_norm2)
    h = coroot(rs, AffineRoot(short, 1))
    assert h.h_iota == 3  # 2/(2/3)

    with pytest.raises(RootSystemError):
        coroot(rs, AffineRoot((0, 0), 2))


def test_coroot_weyl_transport_cross_check():
    # h_a from the formula equals w^{-1} h_j for w a = a_j, spot-checked in G2
    from loopcert import weyl

    rs = rs_of("G2")
    layers = weyl.enumerate_by_length(rs, 5)
    simples = affine_simple_roots(rs)
    cors = affine_simple_coroots(rs)
    for layer in layers:
        for w in layer:
            w_inv = weyl.inverse(rs, w)
            for j, a_j in enumerate(simples):
                pre = weyl.act_on_root(rs, w_inv, a_j)
                if pre.is_real(rs):
                    assert coroot(rs, pre) == weyl.act_on_cartan(rs, w_inv, cors[j])


def test_affine_pairing_examples():
    for label in ("A1", "A2", "F4"):
        rs = rs_of(label)
        assert affine_pairing(rs, iota(rs), degree(rs)) == 1
        assert affine_pairing(rs, lambda_(rs), h_iota(rs)) == 1
        rho_ext = AffineWeight(Weight(rs.rho), Q(0), Q(0))
        assert affine_pairing(rs, rho_ext, h_iota(rs)) == 0
        assert affine_pairing(rs, rho_ext, degree(rs)) == 0
    with pytest.raises(RootSystemError):
        affine_pairing(rs_of("A2"), iota(rs_of("A1")), degree(rs_of("A2")))


@pytest.mark.parametrize("bad", [(1,), (1, 0, 0)])
def test_affine_pairing_rejects_a_rank_mismatch(bad):
    rs = rs_of("A2")
    with pytest.raises(RootSystemError):
        affine_pairing(rs, AffineWeight(Weight(vec(bad)), Q(1), Q(0)), degree(rs))
    with pytest.raises(RootSystemError):
        affine_pairing(rs, iota(rs), CartanElement(vec(bad), Q(0), Q(1)))


def test_decompose_examples():
    rs = rs_of("A2")
    # X = X_cl + <Lambda, X> h_iota + <iota, X> D, read off the internal basis
    h_last = affine_simple_coroots(rs)[2]
    cl = tuple(-x for x in rs.coroot_of(rs.highest_root))
    assert (h_last.classical, h_last.h_iota, h_last.d) == (cl, 1, 0)
    assert affine_pairing(rs, lambda_(rs), h_last) == 1 and affine_pairing(rs, iota(rs), h_last) == 0
    h1 = affine_simple_coroots(rs)[0]
    assert (h1.h_iota, h1.d) == (0, 0)
    r_d = Q(5, 3) * degree(rs)
    assert (r_d.classical, r_d.h_iota, r_d.d) == ((Q(0), Q(0)), 0, Q(5, 3))
    assert affine_pairing(rs, iota(rs), r_d) == Q(5, 3)


def test_duality_componentwise_randomized():
    rng = random.Random(12)
    rs = rs_of("C2")
    for _ in range(200):
        lam = AffineWeight(
            Weight(tuple(Q(rng.randrange(-9, 10), rng.randrange(1, 6)) for _ in range(2))),
            Q(rng.randrange(-9, 10)),
            Q(rng.randrange(-9, 10)),
        )
        x = CartanElement(
            vec([Q(rng.randrange(-9, 10)) for _ in range(2)]),
            Q(rng.randrange(-9, 10)),
            Q(rng.randrange(-9, 10)),
        )
        split = (
            rs.pairing(lam.classical.coords, x.classical)
            + lam.iota * x.d
            + lam.lam * x.h_iota
        )
        assert affine_pairing(rs, lam, x) == split
