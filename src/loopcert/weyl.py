"""Affine Weyl group in canonical semidirect coordinates.

An element is stored as a pair ``(tilde, b)`` with ``tilde`` a classical Weyl
element, kept as its integer matrix on simple-root coordinates, and ``b`` in
the coroot lattice, realizing ``w = tilde . T_b``
under *function composition*: acting on a weight, the translation ``T_b``
(``lam -> lam + <lam, b> iota`` on classical weights) applies first and the
classical part second.  The two product forms are interchangeable through
``T_{tilde b} tilde = tilde T_b``; which of the paper-style forms the stored
pair feeds into each formula below is pinned down by the executable ground
truths (BFS word length and the duality of the two actions), and is covered
by tests rather than trusted from notation.

Group law and inverse in canonical coordinates:

    (u, a) * (v, b) = (u v, v^{-1} a + b)        (u, a)^{-1} = (u^{-1}, -u a)

The classical inverse is integral and closed-form, u^{-1} = B^{-1} u^T B with
B = diag(sym) A the invariant form, so the group law runs on Python ints.

Every w factors uniquely as v u with v in W_fin, u a Kostant representative
and l(w) = l(v) + l(u), and the representatives are closed under prefixes of
reduced words (Bjorner-Brenti, Combinatorics of Coxeter Groups, Prop. 2.4.4).
Consumers that read only the representatives enumerate them directly
(:func:`enumerate_kostant`); the full census counts are the W_fin convolution
of the Kostant counts (:func:`full_layer_sizes`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import lru_cache

from .affine import AffineRoot, AffineWeight, CartanElement, affine_pairing, affine_simple_coroots, affine_simple_roots
from .cartan import FiniteRootSystem, RootSystemError, Weight
from .linalg import mat_vec, vec, vec_add, vec_scale

IntVec = tuple[int, ...]
IntMat = tuple[tuple[int, ...], ...]


ENUMERATION_CAP = 10**7  # elements a BFS may hold before it gives up


class EnumerationLimit(RuntimeError):
    """BFS element cap exceeded."""


class ScanBoundError(RuntimeError):
    """The |n| <= l(w)+2 scan window missed inverted roots; convention bug."""


@lru_cache(maxsize=None)
def _int_inverse(rs: FiniteRootSystem, matrix: IntMat) -> IntMat:
    """M^{-1} = B^{-1} M^T B for a classical element's root matrix M, where
    B = diag(sym) A is the integer invariant form (M^T B M = B).  Computed as
    adj(B) (M^T B) // det(B): every product is an int and the division exact."""
    b = rs.sym_cartan
    n = rs.rank
    mtb = [[sum(matrix[k][i] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    det = rs.sym_cartan_det
    return tuple(tuple(sum(adj_row[k] * mtb[k][j] for k in range(n)) // det for j in range(n))
                 for adj_row in rs.sym_cartan_adj)


def _coroot_matrix(rs: FiniteRootSystem, matrix: IntMat) -> IntMat:
    """Coroot-coordinate action of the element with root matrix M: the
    similarity D M D^{-1}, D = diag(rs.sym).  Invariance of the form,
    M^T (DA) M = DA, gives (D M D^{-1})^T A M = A, the defining property of
    (A M^{-1} A^{-1})^T; integral because the coroot lattice is preserved."""
    d = rs.sym
    return tuple(tuple(m * d[i] // d[j] for j, m in enumerate(row)) for i, row in enumerate(matrix))


@dataclass(frozen=True)
class AffineWeylElement:
    """Canonical pair (tilde, b); equality and hash use only the pair."""

    tilde: IntMat  # classical part: integer matrix on simple-root coordinates
    b: IntVec
    word: tuple[int, ...] | None = field(default=None, compare=False)
    length: int | None = field(default=None, compare=False)

    def sort_key(self):
        return (self.b, self.tilde)


def identity_element(rs: FiniteRootSystem) -> AffineWeylElement:
    one = tuple(tuple(1 if i == j else 0 for j in range(rs.rank)) for i in range(rs.rank))
    return AffineWeylElement(one, (0,) * rs.rank, word=(), length=0)


def generator(rs: FiniteRootSystem, i: int) -> AffineWeylElement:
    """Simple reflection w_i, 1-based; w_{l+1} has canonical pair (s_{a0}, h_{a0})."""
    if not 1 <= i <= rs.rank + 1:
        raise RootSystemError(f"reflection index {i} out of range")
    b = rs.highest_coroot if i > rs.rank else (0,) * rs.rank
    return AffineWeylElement(rs.reflections[i - 1], b, word=(i,), length=1)


def multiply(rs: FiniteRootSystem, u: AffineWeylElement, v: AffineWeylElement) -> AffineWeylElement:
    vt_inv = _coroot_matrix(rs, _int_inverse(rs, v.tilde))
    b = tuple(x + y for x, y in zip(mat_vec_int(vt_inv, u.b), v.b))
    return AffineWeylElement(mat_mul_int(u.tilde, v.tilde), b)


def inverse(rs: FiniteRootSystem, w: AffineWeylElement) -> AffineWeylElement:
    t_inv = _int_inverse(rs, w.tilde)
    cor = _coroot_matrix(rs, w.tilde)
    return AffineWeylElement(t_inv, tuple(-x for x in mat_vec_int(cor, w.b)))


def mat_vec_int(m: IntMat, x: IntVec) -> IntVec:
    return tuple(sum(m[i][j] * x[j] for j in range(len(x))) for i in range(len(m)))


def mat_mul_int(a: IntMat, b: IntMat) -> IntMat:
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n))


def pair_int(rs: FiniteRootSystem, beta, h) -> int:
    """<beta, h> for integer root and coroot-coordinate vectors."""
    a = rs.cartan.entries
    return sum(h[j] * sum(a[j][i] * beta[i] for i in range(rs.rank)) for j in range(rs.rank))


# ---------------------------------------------------------------------------
# actions


def reflect(rs: FiniteRootSystem, i: int, lam: AffineWeight) -> AffineWeight:
    """Simple affine reflection on the dual space: lam - <lam, h_i> a_i."""
    if not 1 <= i <= rs.rank + 1:
        raise RootSystemError(f"reflection index {i} out of range")
    h_i = affine_simple_coroots(rs)[i - 1]
    a_i = affine_simple_roots(rs)[i - 1].to_weight()
    return lam - affine_pairing(rs, lam, h_i) * a_i


def act_on_root(rs: FiniteRootSystem, w: AffineWeylElement, a: AffineRoot) -> AffineRoot:
    """w(beta + n iota) = tilde(beta) + (n + <beta, b>) iota; iota-multiples are fixed."""
    if a.is_imaginary:
        return a
    beta = a.classical_part
    return AffineRoot(mat_vec_int(w.tilde, beta), a.n + pair_int(rs, beta, w.b))


def act_on_weight(rs: FiniteRootSystem, w: AffineWeylElement, lam: AffineWeight) -> AffineWeight:
    """Action on the full dual space, dual to :func:`act_on_cartan`.

    The Lambda coefficient is invariant; the classical part picks up
    -lam_Lambda nu(tilde b) and the iota coefficient gains
    <lam_cl, b> - lam_Lambda (b,b)/2.
    """
    cor = _coroot_matrix(rs, w.tilde)
    tb = mat_vec_int(cor, w.b)
    cl = mat_vec(w.tilde, lam.classical.coords)
    if lam.lam != 0:
        cl = vec_add(cl, vec_scale(-lam.lam, rs.coweight_vector(vec(tb))))
    bb = rs.coroot_pair_form(vec(w.b), vec(w.b))
    iota = lam.iota + rs.pairing(lam.classical.coords, vec(w.b)) - lam.lam * bb / 2
    return AffineWeight(Weight(cl), iota, lam.lam)


def act_on_cartan(rs: FiniteRootSystem, w: AffineWeylElement, x: CartanElement) -> CartanElement:
    """w (m h_iota + h + r D) = [-r(b,b)/2 + (h,b) + m] h_iota - r tilde(b) + tilde(h) + r D."""
    cor = _coroot_matrix(rs, w.tilde)
    h, m, r = x.classical, x.h_iota, x.d
    bb = rs.coroot_pair_form(vec(w.b), vec(w.b))
    hb = rs.coroot_pair_form(h, vec(w.b))
    tb = vec(mat_vec_int(cor, w.b))
    th = tuple(sum((Q(cor[i][j]) * h[j] for j in range(rs.rank)), Q(0)) for i in range(rs.rank))
    classical = vec_add(vec_scale(-r, tb), th)
    return CartanElement(classical, -r * bb / 2 + hb + m, r)


# ---------------------------------------------------------------------------
# words, length, enumeration


def from_word(rs: FiniteRootSystem, word) -> AffineWeylElement:
    """Canonical form recovered from the action on classical simple roots.

    Applying the word's reflections to each alpha_i gives
    ``w alpha_i = tilde(alpha_i) + <alpha_i, b> iota``; the classical parts
    assemble the matrix of tilde and the iota coefficients determine b through
    the fundamental coweights.  Raises if b lands outside the coroot lattice.
    """
    word = tuple(int(i) for i in word)
    cols = []
    iotas = []
    for k in range(rs.rank):
        mu = AffineRoot(tuple(1 if j == k else 0 for j in range(rs.rank)), 0).to_weight()
        for letter in reversed(word):
            mu = reflect(rs, letter, mu)
        if any(c.denominator != 1 for c in mu.classical.coords) or mu.iota.denominator != 1 or mu.lam != 0:
            raise RootSystemError("word action left the root lattice; convention bug")
        cols.append(tuple(int(c) for c in mu.classical.coords))
        iotas.append(int(mu.iota))
    matrix = tuple(tuple(cols[k][i] for k in range(rs.rank)) for i in range(rs.rank))
    b = (Q(0),) * rs.rank
    for k, n_k in enumerate(iotas):
        b = vec_add(b, vec_scale(n_k, rs.fundamental_coweights[k]))
    if any(x.denominator != 1 for x in b):
        raise RootSystemError(f"translation part {b} not in the coroot lattice; convention bug")
    elem = AffineWeylElement(matrix, tuple(int(x) for x in b))
    length = length_im(rs, elem)
    return AffineWeylElement(elem.tilde, elem.b, word=word if len(word) == length else None, length=length)


def length_im(rs: FiniteRootSystem, w: AffineWeylElement) -> int:
    """Iwahori-Matsumoto length from the canonical pair:

        l(w) = sum over alpha > 0 of |<alpha, b> - chi_neg(tilde alpha)|.

    Derivation for the stored w = tilde . T_b, by counting inverted roots per
    classical-root string: a positive root beta + n iota is inverted iff
    n < <beta, tilde b>, with one boundary case at equality decided by the
    sign of tilde^{-1} beta; summing both strings +-beta collapses to
    |<beta, tilde b> + chi_neg(tilde^{-1} beta)|, which after the substitution
    beta -> tilde(alpha) is the formula above.  Matches BFS depth; the
    chi(tilde^{-1} alpha) variant matches only in rank 1 where every
    classical element is an involution.
    """
    total = 0
    for alpha in rs.positive_roots:
        chi = 1 if any(c < 0 for c in mat_vec_int(w.tilde, alpha)) else 0
        total += abs(pair_int(rs, alpha, w.b) - chi)
    return total


def element_length(rs: FiniteRootSystem, w: AffineWeylElement) -> int:
    """l(w): the stored length when enumeration or from_word set it, else IM."""
    return w.length if w.length is not None else length_im(rs, w)


def _bfs(rs: FiniteRootSystem, max_len: int, cap: int, keep) -> list[list[AffineWeylElement]]:
    """BFS layers up to max_len of the elements reached through products that
    ``keep(rs, prod)`` accepts (every product when ``keep`` is None).  Each
    layer is sorted by canonical key; every element carries its BFS word
    (reduced by construction) and depth as length."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    gens = [generator(rs, i) for i in range(1, rs.rank + 2)]
    identity = identity_element(rs)
    seen = {(identity.tilde, identity.b)}  # enumerated or rejected
    layers = [[identity]]
    total = 1
    for depth in range(1, max_len + 1):
        nxt = {}
        for w in layers[depth - 1]:
            for i, g in enumerate(gens, start=1):
                prod = multiply(rs, w, g)
                key = (prod.tilde, prod.b)
                if key in seen or key in nxt:
                    continue
                if keep is not None and not keep(rs, prod):
                    seen.add(key)
                    continue
                nxt[key] = AffineWeylElement(prod.tilde, prod.b, word=w.word + (i,), length=depth)
        layer = sorted(nxt.values(), key=AffineWeylElement.sort_key)
        total += len(layer)
        if total > cap:
            raise EnumerationLimit(f"enumeration exceeded cap of {cap} elements")
        seen.update(nxt.keys())
        layers.append(layer)
    return layers


def enumerate_by_length(
    rs: FiniteRootSystem, max_len: int, cap: int = ENUMERATION_CAP
) -> list[list[AffineWeylElement]]:
    """BFS layers of the affine Weyl group up to the given length."""
    return _bfs(rs, max_len, cap, None)


def enumerate_kostant(rs: FiniteRootSystem, max_len: int) -> list[list[AffineWeylElement]]:
    """BFS layers of the Kostant representatives ^J W of W_fin \\ W_affine.

    ^J W is closed under taking prefixes of reduced words (Bjorner-Brenti,
    Prop. 2.4.4), so keeping only the Kostant products still reaches all of
    it, and the parents of a Kostant element are Kostant: elements, words and
    layer order equal those of :func:`enumerate_by_length` filtered by
    :func:`is_kostant`."""
    return _bfs(rs, max_len, ENUMERATION_CAP, is_kostant)


def full_layer_sizes(rs: FiniteRootSystem, kostant_layers) -> list[int]:
    """Layer sizes of the whole affine Weyl group from its Kostant layers:
    w = v u uniquely with v in W_fin, u in ^J W and l(w) = l(v) + l(u)
    (Bjorner-Brenti, Prop. 2.4.4), so the count at length n is
    sum_j fin[j] kost[n - j].  fin comes from a BFS of W_fin: the classical
    reflections acting on tilde alone."""
    kost = [len(layer) for layer in kostant_layers]
    layer = {identity_element(rs).tilde}
    seen = set(layer)
    fin = [1]
    while len(fin) < len(kost):
        layer = {mat_mul_int(v, s) for v in layer for s in rs.reflections[: rs.rank]} - seen
        seen |= layer
        fin.append(len(layer))
    return [sum(fin[j] * kost[n - j] for j in range(n + 1)) for n in range(len(kost))]


def reduced_word(rs: FiniteRootSystem, w: AffineWeylElement) -> tuple[int, ...]:
    """Reduced word via right-descent peeling: i is a descent iff w(a_i) < 0."""
    if w.word is not None:
        return w.word
    simples = affine_simple_roots(rs)
    letters: list[int] = []
    cur = w
    cur_len = length_im(rs, cur)
    while cur_len > 0:
        for i in range(1, rs.rank + 2):
            img = act_on_root(rs, cur, simples[i - 1])
            if not img.is_positive(rs):
                cur = multiply(rs, cur, generator(rs, i))
                letters.append(i)
                cur_len -= 1
                break
        else:
            raise RootSystemError("no descent found; convention bug")
    return tuple(reversed(letters))


# ---------------------------------------------------------------------------
# inverted root sets


def _root_key(a: AffineRoot):
    return (a.n, a.classical_part)


@dataclass(frozen=True)
class InvertedRootSet:
    roots: tuple[AffineRoot, ...]


def inverted_roots_word(rs: FiniteRootSystem, w: AffineWeylElement) -> InvertedRootSet:
    """Reduced-word construction: with w = g_{m_1} ... g_{m_r}, the inverted
    set is {prefix_{k-1}(a_{m_k})} where prefix_k is the product of the first
    k letters."""
    word = reduced_word(rs, w)
    simples = affine_simple_roots(rs)
    out = []
    prefix = identity_element(rs)
    for k, letter in enumerate(word):
        beta = act_on_root(rs, prefix, simples[letter - 1])
        out.append(beta)
        prefix = multiply(rs, prefix, generator(rs, letter))
    roots = tuple(sorted(out, key=_root_key))
    if len(set(roots)) != len(word):
        raise RootSystemError("word construction produced repeated inverted roots")
    return InvertedRootSet(roots)


def inverted_roots_scan(rs: FiniteRootSystem, w: AffineWeylElement) -> InvertedRootSet:
    """Scan construction: positive real roots beta + n iota, 0 <= n <= l(w)+2,
    sent negative by w^{-1}.  The count must equal l(w).

    iota is fixed, so w^{-1}(beta + n iota) = w^{-1}(beta) + n iota: each
    classical root is acted on once, and every candidate n in the window is
    tested on the shifted iota coefficient."""
    ell = element_length(rs, w)
    w_inv = inverse(rs, w)
    positive = rs.positive_root_set
    out = []
    for beta in rs.root_set:
        img = act_on_root(rs, w_inv, AffineRoot(beta, 0))
        img_negative = img.classical_part not in positive
        for n in range(0 if beta in positive else 1, ell + 3):
            k = img.n + n
            if k < 0 or (k == 0 and img_negative):
                out.append(AffineRoot(beta, n))
    if len(out) != ell:
        raise ScanBoundError(f"scan found {len(out)} inverted roots, expected {ell}")
    return InvertedRootSet(tuple(sorted(out, key=_root_key)))


def _negated(roots) -> tuple[AffineRoot, ...]:
    return tuple(sorted((a.negate() for a in roots), key=_root_key))


def neg_inverted_of_inverse(rs: FiniteRootSystem, w: AffineWeylElement) -> tuple[AffineRoot, ...]:
    """Delta_{-, w^{-1}} = w . Delta_{w^{-1}} = -Delta_w: support of the H1 coefficients."""
    return _negated(inverted_roots_scan(rs, w).roots)


# ---------------------------------------------------------------------------
# Kostant coset representatives


def _inverse_simple_images(rs: FiniteRootSystem, w: AffineWeylElement):
    """w^{-1} alpha_i for the classical simple roots, i = 1..l, in order."""
    w_inv = inverse(rs, w)
    for a in affine_simple_roots(rs)[: rs.rank]:
        yield act_on_root(rs, w_inv, a)


def is_kostant(rs: FiniteRootSystem, w: AffineWeylElement) -> bool:
    """w lies in the minimal-length coset representatives of W \\ W_affine:
    w^{-1} alpha_i > 0 for every classical simple root."""
    return all(img.is_positive(rs) for img in _inverse_simple_images(rs, w))


def kappa(rs: FiniteRootSystem, w: AffineWeylElement) -> list[tuple[IntVec, int]]:
    """Decompositions w^{-1} alpha_i = sigma_i + kappa_i iota for i = 1..l."""
    images = list(_inverse_simple_images(rs, w))
    if not all(img.is_positive(rs) for img in images):
        raise RootSystemError("kappa is only defined on Kostant representatives")
    if any(img.n < 0 or not rs.is_root(img.classical_part) for img in images):
        raise RootSystemError("kappa decomposition violated; convention bug")
    return [(img.classical_part, img.n) for img in images]
