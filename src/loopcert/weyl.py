"""Affine Weyl group as permutations of the affine real roots.

An element w is stored by two integer tables over the positive roots
beta_k of the finite root system (Casselman, "Computation in Coxeter
groups", Electron. J. Combin. 2002: reflection tables):

    w(beta_k + n iota) = roots[perm[k]] + (n + shift[k]) iota

with ``roots`` the +-root index of the root-system context, where index ~k
names -beta_k.  The negative half follows by sign symmetry, perm[~k] =
~perm[k] and shift[~k] = -shift[k], so every group operation is a lookup:

    (u v).perm[k] = u.perm[v.perm[k]]     (u v).shift[k] = u.shift[v.perm[k]] + v.shift[k]
    u^{-1}.perm[u.perm[k]] = k            u^{-1}.shift[u.perm[k]] = -u.shift[k]

The canonical pair ``(tilde, b)``, read off the tables at the simple roots,
stays on every element for reports, sort keys and the actions on weights
and Cartan elements: ``tilde`` is a classical Weyl element as its integer
matrix on simple-root coordinates, ``b`` lies in the coroot lattice, and
``w = tilde . T_b`` under *function composition*: acting on a weight, the
translation ``T_b`` (``lam -> lam + <lam, b> iota`` on classical weights)
applies first and the classical part second.  So
``w(beta + n iota) = tilde(beta) + (n + <beta, b>) iota``: column i of tilde
is roots[perm[i]] and shift[i] = <alpha_i, b>.  Which of the paper-style
forms feeds each formula below is pinned down by the executable ground
truths (BFS word length and the duality of the two actions), and is covered
by tests rather than trusted from notation.

Every w factors uniquely as v u with v in W_fin, u a Kostant representative
and l(w) = l(v) + l(u), and the representatives are closed under prefixes of
reduced words (Bjorner-Brenti, Combinatorics of Coxeter Groups, Prop. 2.4.4).
Consumers that read only the representatives enumerate them directly
(:func:`enumerate_kostant`); the full census counts are the W_fin convolution
of the Kostant counts (:func:`full_layer_sizes`).

The exact oracles run on Python ints, with Fraction and AffineRoot only at
the boundary.  An affine root roots[y] + n iota has the integer key
n len(roots) + rs.root_rank[y], whose order is the (n, classical part)
order of the reported inverted sets; negation maps key to
len(roots) - 1 - key.  The scan sorts one list of key ranges, the flipped
set reverses it, and the word construction extends the memoized state of
the word's longest known prefix (``rs.prefix_states``, at most
PREFIX_MEMO_CAP prefixes).  Keys are decoded through ``rs.affine_roots``,
one AffineRoot per key.  The actions on weights and Cartan elements scale
their rational inputs to integer numerators and build each output
coefficient as one Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import cached_property
from operator import add, invert, mul, neg

from .affine import AffineRoot, AffineWeight, CartanElement
from .cartan import FiniteRootSystem, RootSystemError, Weight
from .linalg import scaled

IntVec = tuple[int, ...]
IntMat = tuple[tuple[int, ...], ...]


ENUMERATION_CAP = 10**7  # elements a BFS may hold before it gives up


class EnumerationLimit(RuntimeError):
    """BFS element cap exceeded."""


class ScanBoundError(RuntimeError):
    """The |n| <= l(w)+2 scan window missed inverted roots; convention bug."""


def _coroot_matrix(rs: FiniteRootSystem, matrix: IntMat) -> IntMat:
    """Coroot-coordinate action of the element with root matrix M: the
    similarity D M D^{-1}, D = diag(rs.sym).  Invariance of the form,
    M^T (DA) M = DA, gives (D M D^{-1})^T A M = A, the defining property of
    (A M^{-1} A^{-1})^T; integral because the coroot lattice is preserved."""
    d = rs.sym
    return tuple(tuple(m * d[i] // d[j] for j, m in enumerate(row)) for i, row in enumerate(matrix))


@dataclass(frozen=True)
class AffineWeylElement:
    """w by its tables over the positive roots of ``rs``; equality and hash
    use only the tables, which determine w."""

    rs: FiniteRootSystem = field(compare=False, repr=False)
    perm: IntVec  # signed index of tilde(beta_k) in rs.roots
    shift: IntVec  # <beta_k, b>
    word: tuple[int, ...] | None = field(default=None, compare=False)
    length: int | None = field(default=None, compare=False)

    @cached_property
    def tilde(self) -> IntMat:
        """Classical part on simple-root coordinates: column i is tilde(alpha_i)."""
        roots = self.rs.roots
        return tuple(zip(*(roots[x] for x in self.perm[: self.rs.rank])))

    @cached_property
    def b(self) -> IntVec:
        """Translation part in simple-coroot coordinates: sum_i <alpha_i, b> omega_i^vee."""
        rs = self.rs
        pairs = self.shift[: rs.rank]
        return tuple(sum(map(mul, pairs, col)) // rs.coweight_den for col in rs.coweight_cols)

    @cached_property
    def b_norm2(self) -> Q:
        """(b, b) = sum over beta > 0 of <beta, b>^2 / h^vee, from the shift
        table alone: the Killing form is 2 h^vee times the normalized form
        (Kac, Infinite-dimensional Lie algebras, Sec. 6), and the positive
        roots carry half of its sum over all roots."""
        return Q(sum(s * s for s in self.shift), self.rs.dual_coxeter)

    def sort_key(self):
        return (self.b, self.tilde)


def identity_element(rs: FiniteRootSystem) -> AffineWeylElement:
    n_pos = len(rs.positive_roots)
    return AffineWeylElement(rs, tuple(range(n_pos)), (0,) * n_pos, word=(), length=0)


def generator(rs: FiniteRootSystem, i: int) -> AffineWeylElement:
    """Simple reflection w_i, 1-based; w_{l+1} has canonical pair (s_{a0}, h_{a0})."""
    if not 1 <= i <= rs.rank + 1:
        raise RootSystemError(f"reflection index {i} out of range")
    return AffineWeylElement(rs, *rs.generators[i - 1], word=(i,), length=1)


def _full(perm: IntVec, shift: IntVec) -> tuple[IntVec, IntVec]:
    """Both halves of the tables: entry ~k holds the image of -beta_k."""
    return perm + tuple(map(invert, reversed(perm))), shift + tuple(map(neg, reversed(shift)))


def _compose(u_full: tuple[IntVec, IntVec], perm: IntVec, shift: IntVec) -> tuple[IntVec, IntVec]:
    """Tables of u v from u's full tables and v's tables: (u v)(beta) = u(v(beta))."""
    u_perm, u_shift = u_full
    return tuple(map(u_perm.__getitem__, perm)), tuple(map(add, map(u_shift.__getitem__, perm), shift))


def _simple_image(rs: FiniteRootSystem, perm: IntVec, shift: IntVec, i: int) -> tuple[int, int]:
    """w(a_i) = roots[x] + n iota as (x, n), i = 1..l+1; a_{l+1} = -theta + iota."""
    if i <= rs.rank:
        return perm[i - 1], shift[i - 1]
    t = rs.highest_index
    return ~perm[t], 1 - shift[t]


def _positive(x: int, n: int) -> bool:
    """roots[x] + n iota > 0."""
    return n > 0 or (n == 0 and x >= 0)


def multiply(rs: FiniteRootSystem, u: AffineWeylElement, v: AffineWeylElement) -> AffineWeylElement:
    return AffineWeylElement(rs, *_compose(_full(u.perm, u.shift), v.perm, v.shift))


def inverse(rs: FiniteRootSystem, w: AffineWeylElement) -> AffineWeylElement:
    """w(beta_k) = roots[y] + s iota gives w^{-1}(roots[y]) = beta_k - s iota."""
    perm = [0] * len(w.perm)
    shift = [0] * len(w.perm)
    for k, (y, s) in enumerate(zip(w.perm, w.shift)):
        if y >= 0:
            perm[y], shift[y] = k, -s
        else:
            perm[~y], shift[~y] = ~k, s
    return AffineWeylElement(rs, tuple(perm), tuple(shift))


def mat_vec_int(m: IntMat, x: IntVec) -> IntVec:
    return tuple(sum(map(mul, row, x)) for row in m)


def pair_int(rs: FiniteRootSystem, beta, h) -> int:
    """<beta, h> for integer root and coroot-coordinate vectors."""
    a = rs.cartan.entries
    return sum(h[j] * sum(a[j][i] * beta[i] for i in range(rs.rank)) for j in range(rs.rank))


def _fraction_sum(*terms: tuple[int, int]) -> Q:
    """The sum of num/den over (num, den) terms as one Fraction."""
    den = 1
    for _, d in terms:
        den *= d
    return Q(sum(n * (den // d) for n, d in terms), den)


# ---------------------------------------------------------------------------
# actions


def act_on_root(rs: FiniteRootSystem, w: AffineWeylElement, a: AffineRoot) -> AffineRoot:
    """w(beta + n iota) = tilde(beta) + (n + <beta, b>) iota; iota-multiples are fixed."""
    if a.is_imaginary:
        return a
    try:
        x = rs.root_index[a.classical_part]
    except KeyError:
        raise RootSystemError(f"{a.classical_part} is not a root of {rs.label}") from None
    if x >= 0:
        return AffineRoot(rs.roots[w.perm[x]], a.n + w.shift[x])
    return AffineRoot(rs.roots[~w.perm[~x]], a.n - w.shift[~x])


def act_on_weight(rs: FiniteRootSystem, w: AffineWeylElement, lam: AffineWeight) -> AffineWeight:
    """Action on the full dual space, dual to :func:`act_on_cartan`.

    The Lambda coefficient is invariant; the classical part picks up
    -lam_Lambda nu(tilde b), nu(h_j) = alpha_j / d_j, and the iota
    coefficient gains <lam_cl, b> - lam_Lambda (b,b)/2.  Coefficients are
    exact rationals; each output coefficient is one Fraction built from
    integer numerators.
    """
    tb = mat_vec_int(_coroot_matrix(rs, w.tilde), w.b)
    nums, den = scaled(lam.classical.coords)
    lam_l, bb = lam.lam, w.b_norm2
    classical = tuple(_fraction_sum((t, den), (-lam_l.numerator * s * d.denominator, lam_l.denominator * d.numerator))
                      for t, s, d in zip(mat_vec_int(w.tilde, nums), tb, rs.d))
    pair = sum(map(mul, w.b, mat_vec_int(rs.cartan.entries, nums)))  # <lam_cl, b> den
    iota = _fraction_sum((lam.iota.numerator, lam.iota.denominator), (pair, den),
                         (-lam_l.numerator * bb.numerator, 2 * lam_l.denominator * bb.denominator))
    return AffineWeight(Weight(classical), iota, lam_l)


def act_on_cartan(rs: FiniteRootSystem, w: AffineWeylElement, x: CartanElement) -> CartanElement:
    """w (m h_iota + h + r D) = [-r(b,b)/2 + (h,b) + m] h_iota - r tilde(b) + tilde(h) + r D,
    on exact rational coefficients, each output coefficient one Fraction
    built from integer numerators."""
    cor = _coroot_matrix(rs, w.tilde)
    nums, den = scaled(x.classical)
    m, r, bb = x.h_iota, x.d, w.b_norm2
    classical = tuple(Q(r.denominator * t - r.numerator * s * den, r.denominator * den)
                      for t, s in zip(mat_vec_int(cor, nums), mat_vec_int(cor, w.b)))
    hb = sum(map(mul, nums, mat_vec_int(rs.coroot_form_nums, w.b)))  # (h, b) den coroot_form_den
    h_iota = _fraction_sum((-r.numerator * bb.numerator, 2 * r.denominator * bb.denominator),
                           (hb, den * rs.coroot_form_den), (m.numerator, m.denominator))
    return CartanElement(classical, h_iota, r)


# ---------------------------------------------------------------------------
# words, length, enumeration


def length_im(rs: FiniteRootSystem, w: AffineWeylElement) -> int:
    """Iwahori-Matsumoto length from the tables:

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
    return sum(abs(s - (x < 0)) for x, s in zip(w.perm, w.shift))


def element_length(rs: FiniteRootSystem, w: AffineWeylElement) -> int:
    """l(w): the stored length when enumeration set it, else IM."""
    return w.length if w.length is not None else length_im(rs, w)


def _bfs(rs: FiniteRootSystem, max_len: int, cap: int, kostant: bool) -> list[list[AffineWeylElement]]:
    """BFS layers up to max_len, of the whole group or (``kostant``) of the
    Kostant representatives.  Each layer is sorted by canonical key; every
    element carries its BFS word (reduced by construction) and depth as length.

    w g_i lies one layer up iff w(a_i) > 0, and otherwise one layer down, so
    only those products are formed and no earlier layer is consulted.  For
    Kostant w, (w g_i)^{-1} alpha_j = g_i(w^{-1} alpha_j) is negative iff
    w^{-1} alpha_j = a_i, so w g_i is Kostant iff w(a_i) is no classical
    simple root."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    rank = rs.rank
    layers = [[identity_element(rs)]]
    total = 1
    for depth in range(1, max_len + 1):
        nxt = {}
        for w in layers[-1]:
            full = _full(w.perm, w.shift)
            for i, g in enumerate(rs.generators, start=1):
                x, n = _simple_image(rs, w.perm, w.shift, i)
                if not _positive(x, n) or (kostant and n == 0 and x < rank):
                    continue
                perm, shift = _compose(full, *g)
                key = perm[:rank] + shift[:rank]  # the images of the simple roots fix w
                if key not in nxt:
                    nxt[key] = AffineWeylElement(rs, perm, shift, word=w.word + (i,), length=depth)
        layer = sorted(nxt.values(), key=AffineWeylElement.sort_key)
        total += len(layer)
        if total > cap:
            raise EnumerationLimit(f"enumeration exceeded cap of {cap} elements")
        layers.append(layer)
    return layers


def enumerate_by_length(
    rs: FiniteRootSystem, max_len: int, cap: int = ENUMERATION_CAP
) -> list[list[AffineWeylElement]]:
    """BFS layers of the affine Weyl group up to the given length."""
    return _bfs(rs, max_len, cap, False)


def enumerate_kostant(rs: FiniteRootSystem, max_len: int) -> list[list[AffineWeylElement]]:
    """BFS layers of the Kostant representatives ^J W of W_fin \\ W_affine.

    ^J W is closed under taking prefixes of reduced words (Bjorner-Brenti,
    Prop. 2.4.4), so keeping only the Kostant products still reaches all of
    it, and the parents of a Kostant element are Kostant: elements, words and
    layer order equal those of :func:`enumerate_by_length` filtered by
    :func:`is_kostant`."""
    return _bfs(rs, max_len, ENUMERATION_CAP, True)


def full_layer_sizes(rs: FiniteRootSystem, kostant_layers) -> list[int]:
    """Layer sizes of the whole affine Weyl group from its Kostant layers:
    w = v u uniquely with v in W_fin, u in ^J W and l(w) = l(v) + l(u)
    (Bjorner-Brenti, Prop. 2.4.4), so the count at length n is
    sum_j fin[j] kost[n - j].  fin comes from a BFS of W_fin: the classical
    generators composed on perm alone, one layer up where v(alpha_i) > 0."""
    kost = [len(layer) for layer in kostant_layers]
    reflections = [perm for perm, _ in rs.generators[: rs.rank]]
    layer = {identity_element(rs).perm}
    fin = [1]
    while len(fin) < len(kost):
        nxt = set()
        for v in layer:
            full = v + tuple(map(invert, reversed(v)))
            nxt.update(tuple(map(full.__getitem__, s)) for i, s in enumerate(reflections) if v[i] >= 0)
        layer = nxt
        fin.append(len(layer))
    return [sum(fin[j] * kost[n - j] for j in range(n + 1)) for n in range(len(kost))]


def reduced_word(rs: FiniteRootSystem, w: AffineWeylElement) -> tuple[int, ...]:
    """Reduced word via right-descent peeling: i is a descent iff w(a_i) < 0."""
    if w.word is not None:
        return w.word
    letters: list[int] = []
    perm, shift = w.perm, w.shift
    for _ in range(length_im(rs, w)):
        for i in range(1, rs.rank + 2):
            if not _positive(*_simple_image(rs, perm, shift, i)):
                perm, shift = _compose(_full(perm, shift), *rs.generators[i - 1])
                letters.append(i)
                break
        else:
            raise RootSystemError("no descent found; convention bug")
    return tuple(reversed(letters))


# ---------------------------------------------------------------------------
# inverted root sets


PREFIX_MEMO_CAP = 1 << 14  # word prefixes rs.prefix_states holds before it is emptied


@dataclass(frozen=True)
class InvertedRootSet:
    roots: tuple[AffineRoot, ...]


def _decode(rs: FiniteRootSystem, keys) -> tuple[AffineRoot, ...]:
    """The roots of root keys (see FiniteRootSystem.root_rank), one shared
    AffineRoot per key in ``rs.affine_roots``.  Keys of inverted sets have
    |n| <= l(w) + 2, so the cache holds at most len(roots) (2 l + 5) roots
    for the longest l asked."""
    cache = rs.affine_roots
    out = []
    for key in keys:
        a = cache.get(key)
        if a is None:
            n, r = divmod(key, len(rs.roots))
            a = cache[key] = AffineRoot(rs.ranked_roots[r], n)
        out.append(a)
    return tuple(out)


def _prefix_state(rs: FiniteRootSystem, word: tuple[int, ...]) -> tuple[IntVec, IntVec, IntVec]:
    """(full perm, full shift, keys) of the product of ``word``, keys the root
    keys of prefix_{k-1}(a_{m_k}) in letter order.  Every prefix's state is
    memoized in ``rs.prefix_states``: a word one letter past a known prefix,
    as a BFS element past its parent, costs one table composition, and a
    cold word is filled forward from its longest known prefix."""
    memo = rs.prefix_states
    k = len(word)
    while k and word[:k] not in memo:
        k -= 1
    if k:
        perm, shift, keys = memo[word[:k]]
    else:
        e = identity_element(rs)
        perm, shift, keys = *_full(e.perm, e.shift), ()
    size, rank = len(rs.roots), rs.root_rank
    for end in range(k + 1, len(word) + 1):
        letter = word[end - 1]
        x, n = _simple_image(rs, perm, shift, letter)
        keys += (n * size + rank[x],)
        perm, shift = _full(*_compose((perm, shift), *rs.generators[letter - 1]))
        if len(memo) >= PREFIX_MEMO_CAP:
            memo.clear()
        memo[word[:end]] = perm, shift, keys
    return perm, shift, keys


def inverted_roots_word(rs: FiniteRootSystem, w: AffineWeylElement) -> InvertedRootSet:
    """Reduced-word construction: with w = g_{m_1} ... g_{m_r}, the inverted
    set is {prefix_{k-1}(a_{m_k})} where prefix_k is the product of the first
    k letters."""
    word = reduced_word(rs, w)
    keys = _prefix_state(rs, word)[2]
    if len(set(keys)) != len(word):
        raise RootSystemError("word construction produced repeated inverted roots")
    return InvertedRootSet(_decode(rs, sorted(keys)))


def _scan_keys(rs: FiniteRootSystem, w: AffineWeylElement) -> list[int]:
    """The sorted root keys of :func:`inverted_roots_scan`."""
    ell = element_length(rs, w)
    size, rank = len(rs.roots), rs.root_rank
    stop = ell + 3
    keys = []
    for y, s in zip(w.perm, w.shift):
        lo, lo_neg = (0, 1) if y >= 0 else (1, 0)  # n >= 1 on negative classical roots
        r, r_neg = rank[y], rank[~y]
        keys.extend(range(lo * size + r, min(s, stop) * size + r, size))
        keys.extend(range(lo_neg * size + r_neg, min(1 - s, stop) * size + r_neg, size))
    if len(keys) != ell:
        raise ScanBoundError(f"scan found {len(keys)} inverted roots, expected {ell}")
    keys.sort()
    return keys


def inverted_roots_scan(rs: FiniteRootSystem, w: AffineWeylElement) -> InvertedRootSet:
    """Scan construction: positive real roots beta + n iota, 0 <= n <= l(w)+2,
    sent negative by w^{-1}.  The count must equal l(w).

    Each classical root is the image roots[y] or roots[~y] of one +-beta_k,
    w(beta_k) = roots[y] + s iota, so w^{-1}(roots[y] + n iota) =
    beta_k + (n - s) iota is negative iff n < s, and
    w^{-1}(roots[~y] + n iota) = -beta_k + (n + s) iota iff n <= -s: the
    inverted n of each root form a range of keys read off the tables."""
    return InvertedRootSet(_decode(rs, _scan_keys(rs, w)))


def neg_inverted_of_inverse(rs: FiniteRootSystem, w: AffineWeylElement) -> tuple[AffineRoot, ...]:
    """Delta_{-, w^{-1}} = w . Delta_{w^{-1}} = -Delta_w: support of the H1
    coefficients.  The negated root of a key has key len(roots) - 1 - key,
    which reverses key order, so the negated set needs no second sort."""
    top = len(rs.roots) - 1
    return _decode(rs, [top - key for key in reversed(_scan_keys(rs, w))])


# ---------------------------------------------------------------------------
# Kostant coset representatives


def _inverse_simple_images(rs: FiniteRootSystem, w: AffineWeylElement) -> list[tuple[int, int]]:
    """w^{-1} alpha_i = roots[x] + n iota as (x, n) for i = 1..l: alpha_i is
    the image of beta_k (x = k, n = -shift[k]) or of -beta_k (x = ~k,
    n = shift[k])."""
    perm, shift = w.perm, w.shift
    out = []
    for i in range(rs.rank):
        if i in perm:
            k = perm.index(i)
            out.append((k, -shift[k]))
        else:
            k = perm.index(~i)
            out.append((~k, shift[k]))
    return out


def is_kostant(rs: FiniteRootSystem, w: AffineWeylElement) -> bool:
    """w lies in the minimal-length coset representatives of W \\ W_affine:
    w^{-1} alpha_i > 0 for every classical simple root."""
    return all(_positive(x, n) for x, n in _inverse_simple_images(rs, w))


def kappa(rs: FiniteRootSystem, w: AffineWeylElement) -> list[tuple[IntVec, int]]:
    """Decompositions w^{-1} alpha_i = sigma_i + kappa_i iota for i = 1..l."""
    images = _inverse_simple_images(rs, w)
    if not all(_positive(x, n) for x, n in images):
        raise RootSystemError("kappa is only defined on Kostant representatives")
    return [(rs.roots[x], n) for x, n in images]
