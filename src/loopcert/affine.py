"""Untwisted affine extension of a finite root system.

Coordinates fix the internal bases once and for all:

* ``(h^e)^*`` is spanned by ``{alpha_1..alpha_l, iota, Lambda}`` where ``iota``
  is the minimal positive imaginary root and ``Lambda`` the affine fundamental
  weight dual to the added coroot.  An :class:`AffineWeight` stores the
  classical component plus the two extra coefficients.
* ``h^e`` is spanned by ``{h_1..h_l, h_iota, D}``; ``h_iota`` generates the
  center, ``D`` is the degree direction.  A :class:`CartanElement` stores the
  classical coroot-coordinate vector plus the two extra coefficients.

With these bases every pairing is a dot product:
``<lam, X> = <lam_cl, X_cl> + lam_iota * X.d + lam_lambda * X.h_iota``.

Real affine roots are ``beta + n*iota`` with ``beta`` a classical root; the
coroot of such a root is ``h_beta + (2/(beta,beta)) * n * h_iota``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q

from .cartan import FiniteRootSystem, RootSystemError, Weight
from .linalg import Vec, vec, vec_add, vec_scale, zero_vec


@dataclass(frozen=True)
class AffineWeight:
    """Element of the extended dual space: classical + iota*iota-coeff + Lambda-coeff."""

    classical: Weight
    iota: Q
    lam: Q

    def __add__(self, other: "AffineWeight") -> "AffineWeight":
        return AffineWeight(self.classical + other.classical, self.iota + other.iota, self.lam + other.lam)

    def __sub__(self, other: "AffineWeight") -> "AffineWeight":
        return self + Q(-1) * other

    def __rmul__(self, c) -> "AffineWeight":
        c = Q(c)
        return AffineWeight(c * self.classical, c * self.iota, c * self.lam)


@dataclass(frozen=True)
class CartanElement:
    """Element of the extended Cartan subalgebra: X_cl + h_iota-coeff + d-coeff."""

    classical: Vec
    h_iota: Q
    d: Q

    def __add__(self, other: "CartanElement") -> "CartanElement":
        return CartanElement(vec_add(self.classical, other.classical), self.h_iota + other.h_iota, self.d + other.d)

    def __sub__(self, other: "CartanElement") -> "CartanElement":
        return self + Q(-1) * other

    def __rmul__(self, c) -> "CartanElement":
        c = Q(c)
        return CartanElement(vec_scale(c, self.classical), c * self.h_iota, c * self.d)


@dataclass(frozen=True)
class AffineRoot:
    """Real or imaginary affine root ``classical_part + n * iota`` (integer data)."""

    classical_part: tuple[int, ...]
    n: int

    @property
    def is_imaginary(self) -> bool:
        return all(c == 0 for c in self.classical_part) and self.n != 0

    def is_real(self, rs: FiniteRootSystem) -> bool:
        return rs.is_root(self.classical_part)

    def is_positive(self, rs: FiniteRootSystem) -> bool:
        if self.n != 0:
            return self.n > 0
        return self.classical_part in rs.positive_root_set

    def negate(self) -> "AffineRoot":
        return AffineRoot(tuple(-c for c in self.classical_part), -self.n)

    def to_weight(self) -> AffineWeight:
        return AffineWeight(Weight(vec(self.classical_part)), Q(self.n), Q(0))


def zero_cartan(rs: FiniteRootSystem) -> CartanElement:
    return CartanElement(zero_vec(rs.rank), Q(0), Q(0))


def affine_simple_roots(rs: FiniteRootSystem) -> tuple[AffineRoot, ...]:
    """a_i = alpha_i for i <= l, and a_{l+1} = -highest_root + iota."""
    simples = [AffineRoot(tuple(1 if j == i else 0 for j in range(rs.rank)), 0) for i in range(rs.rank)]
    simples.append(AffineRoot(tuple(-c for c in rs.highest_root), 1))
    return tuple(simples)


def coroot(rs: FiniteRootSystem, a: AffineRoot) -> CartanElement:
    """Coroot of a real root beta + n*iota: h_beta + (2/(beta,beta)) n h_iota."""
    if a.is_imaginary or not a.is_real(rs):
        raise RootSystemError(f"coroot undefined for non-real root {a}")
    beta = a.classical_part
    h_beta = rs.coroot_of(beta)
    m = Q(2) / rs.root_norm2(beta)
    return CartanElement(h_beta, m * a.n, Q(0))


def affine_pairing(rs: FiniteRootSystem, lam: AffineWeight, x: CartanElement) -> Q:
    """<lam, X>: classical pairing plus iota*d and Lambda*h_iota contributions."""
    if len(lam.classical.coords) != rs.rank or len(x.classical) != rs.rank:
        raise RootSystemError("rank mismatch in affine pairing")
    return rs.pairing(lam.classical.coords, x.classical) + lam.iota * x.d + lam.lam * x.h_iota

