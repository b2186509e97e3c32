"""Small exact linear algebra over Fraction vectors and matrices.

Vectors are tuples of Fractions (or ints where exactness is free); matrices
are tuples of row tuples.  Everything is immutable so results can live inside
frozen dataclasses and be hashed.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import isqrt, lcm

Vec = tuple[Q, ...]
Mat = tuple[tuple[Q, ...], ...]


def vec(entries) -> Vec:
    return tuple(Q(e) for e in entries)


def scaled(x) -> tuple[tuple[int, ...], int]:
    """(nums, den) with x = nums / den for exact rationals x (ints or
    Fractions), den the least common denominator."""
    den = lcm(*(e.denominator for e in x))
    return tuple(e.numerator * (den // e.denominator) for e in x), den


def zero_vec(n: int) -> Vec:
    return (Q(0),) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(Q(1) if j == i else Q(0) for j in range(n))


def vec_add(x: Vec, y: Vec) -> Vec:
    return tuple(a + b for a, b in zip(x, y, strict=True))


def vec_scale(c, x: Vec) -> Vec:
    c = Q(c)
    return tuple(c * a for a in x)


def vec_dot(x: Vec, y: Vec) -> Q:
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    return sum((a * b for a, b in zip(x, y)), Q(0))


def mat_vec(m: Mat, x: Vec) -> Vec:
    return tuple(vec_dot(row, x) for row in m)


def mat_inverse(m: Mat) -> Mat:
    """Exact inverse by Gauss-Jordan elimination; raises on singular input."""
    n = len(m)
    aug = [list(row) + list(unit_vec(n, i)) for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = Q(1) / aug[col][col]
        aug[col] = [e * inv_p for e in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [e - f * p for e, p in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def bilinear(g: Mat, x: Vec, y: Vec) -> Q:
    """x^T g y for a Gram matrix g."""
    return vec_dot(x, mat_vec(g, y))


def leading_principal_minors(m: Mat) -> list[Q]:
    """Determinants of the leading k-by-k blocks, k = 1..n, by fraction-free-ish
    Gaussian elimination on each block (sizes here are tiny)."""
    out = []
    for k in range(1, len(m) + 1):
        block = [list(row[:k]) for row in m[:k]]
        det = Q(1)
        for col in range(k):
            pivot = next((r for r in range(col, k) if block[r][col] != 0), None)
            if pivot is None:
                det = Q(0)
                break
            if pivot != col:
                block[col], block[pivot] = block[pivot], block[col]
                det = -det
            det *= block[col][col]
            inv_p = Q(1) / block[col][col]
            for r in range(col + 1, k):
                f = block[r][col] * inv_p
                if f != 0:
                    block[r] = [e - f * p for e, p in zip(block[r], block[col])]
        out.append(det)
    return out


SQRT_BITS = 48  # sqrt_upper returns a multiple of 2^-SQRT_BITS


def sqrt_upper_num(n: int, d: int) -> int:
    """ceil(sqrt(n/d) * 2^SQRT_BITS) for integers n >= 0, d > 0.

    sqrt(n/d) 2^SQRT_BITS = sqrt(n d 4^SQRT_BITS) / d, and ceil(ceil(y)/d) =
    ceil(y/d), so the result depends on n/d alone: the fraction need not be
    reduced."""
    big = n * d << (2 * SQRT_BITS)
    r = isqrt(big)
    if r * r < big:
        r += 1
    return -(-r // d)


def sqrt_upper(q: Q) -> Q:
    """Dyadic upper bound for sqrt(q), q >= 0, within 2^(1-SQRT_BITS) absolutely."""
    if q < 0:
        raise ValueError("negative input")
    out = Q(sqrt_upper_num(q.numerator, q.denominator), 1 << SQRT_BITS)
    assert out * out >= q
    return out
