"""Finite (classical) root system engine over exact rationals.

Builds the irreducible types A-G from their Cartan matrices and exposes
positive roots, the highest root, the invariant bilinear form normalized so
the highest root has squared length 2, fundamental weights/coweights, and
the Weyl vector rho.

Conventions (documented here once, asserted in tests):

* Weights live in simple-root coordinates: ``lam = sum_i lam[i] * alpha_i``.
* Coroot vectors live in simple-coroot coordinates: ``h = sum_j h[j] * h_j``.
* The Cartan matrix entry is ``entries[i][j] = <alpha_j, h_i>``, so the
  pairing of a weight against a coroot reads ``<alpha_i, h_j> = entries[j][i]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import lru_cache
from math import lcm
from operator import mul

from .linalg import (
    Mat,
    Vec,
    bilinear,
    leading_principal_minors,
    mat_inverse,
    scaled,
    vec,
    vec_add,
    vec_scale,
    zero_vec,
)

SERIES_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

# classical counts of positive roots, used as an independent cross-check
POSITIVE_ROOT_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


class RootSystemError(ValueError):
    """Unknown type, rank out of range, or a violated structural invariant."""


def parse_type(label: str) -> tuple[str, int]:
    """Split a label like ``"A2"`` or ``"E8"`` into (series, rank)."""
    label = label.strip()
    if len(label) < 2 or label[0].upper() not in SERIES_RANK_RANGE:
        raise RootSystemError(f"unknown root system type {label!r}")
    series = label[0].upper()
    try:
        rank = int(label[1:])
    except ValueError as exc:
        raise RootSystemError(f"unknown root system type {label!r}") from exc
    return series, rank


def cartan_entries(series: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix of an irreducible finite type, Bourbaki numbering."""
    lo, hi = SERIES_RANK_RANGE.get(series, (None, None))
    if lo is None or rank < lo or (hi is not None and rank > hi):
        raise RootSystemError(f"rank {rank} out of range for series {series}")
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def bond(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        a[i][j] = aij
        a[j][i] = aji

    if series in ("A", "B", "C"):
        for i in range(rank - 1):
            bond(i, i + 1)
        if series == "B" and rank >= 2:
            # alpha_rank is short: <alpha_{rank-1}, h_rank> = -2
            a[rank - 1][rank - 2] = -2
        if series == "C" and rank >= 2:
            # alpha_rank is long: <alpha_rank, h_{rank-1}> = -2
            a[rank - 2][rank - 1] = -2
    elif series == "D":
        for i in range(rank - 3):
            bond(i, i + 1)
        bond(rank - 3, rank - 2)
        bond(rank - 3, rank - 1)
    elif series == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: rank - 1]
        for i, j in zip(chain, chain[1:]):
            bond(i, j)
        bond(1, 3)
    elif series == "F":
        bond(0, 1)
        bond(1, 2, aij=-1, aji=-2)
        bond(2, 3)
    elif series == "G":
        bond(0, 1, aij=-1, aji=-3)
    return tuple(tuple(row) for row in a)


@dataclass(frozen=True)
class CartanMatrix:
    """Integer Cartan matrix of finite type; entries[i][j] = <alpha_j, h_i>."""

    rank: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        a = self.entries
        if len(a) != self.rank or any(len(row) != self.rank for row in a):
            raise RootSystemError("entries shape does not match rank")
        for i in range(self.rank):
            if a[i][i] != 2:
                raise RootSystemError("diagonal entries must equal 2")
            for j in range(self.rank):
                if i != j:
                    if a[i][j] > 0:
                        raise RootSystemError("off-diagonal entries must be <= 0")
                    if (a[i][j] == 0) != (a[j][i] == 0):
                        raise RootSystemError("zero pattern must be symmetric")
        d = symmetrizer(a)
        sym = tuple(tuple(Q(d[i]) * a[i][j] for j in range(self.rank)) for i in range(self.rank))
        if any(m <= 0 for m in leading_principal_minors(sym)):
            raise RootSystemError("matrix is not of finite type")


def symmetrizer(a) -> list[Q]:
    """Positive d with d_i * a[i][j] = d_j * a[j][i], normalized min d = 1."""
    n = len(a)
    d: list[Q | None] = [None] * n
    d[0] = Q(1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if a[i][j] != 0 and i != j and d[j] is None:
                # d_j = d_i * a[i][j] / a[j][i]
                d[j] = d[i] * Q(a[i][j], a[j][i])
                todo.append(j)
    if any(x is None for x in d):
        raise RootSystemError("Cartan matrix is not irreducible")
    m = min(d)  # type: ignore[type-var]
    return [x / m for x in d]  # type: ignore[operator]


@dataclass(frozen=True)
class Weight:
    """Element of h^* in simple-root coordinates."""

    coords: Vec

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(vec_add(self.coords, other.coords))

    def __rmul__(self, c) -> "Weight":
        return Weight(vec_scale(c, self.coords))


@dataclass(frozen=True, eq=False)
class FiniteRootSystem:
    """The root-system context: immutable root data for one irreducible
    finite type plus the integer tables built once from it.

    ``positive_roots`` are integer vectors in simple-root coordinates;
    ``form`` is the Gram matrix (alpha_i, alpha_j) with (highest, highest) = 2;
    ``fundamental_weights`` are in simple-root coordinates and
    ``fundamental_coweights`` in simple-coroot coordinates.  Equality and
    hashing are by identity: :func:`build_root_system_label` hands out one
    object per type, so caches keyed on it never rehash its fields.
    """

    series: str
    rank: int
    cartan: CartanMatrix
    positive_roots: tuple[tuple[int, ...], ...]
    highest_root: tuple[int, ...]
    form: Mat
    fundamental_weights: tuple[Vec, ...]
    fundamental_coweights: tuple[Vec, ...]
    rho: Vec
    d: tuple[Q, ...]  # (alpha_i, alpha_i)/2 per simple root
    # (h_i, h_j) = coroot_form_nums[i][j] / coroot_form_den, the least common denominator
    coroot_form_nums: tuple[tuple[int, ...], ...]
    coroot_form_den: int
    positive_root_set: frozenset
    root_norms: dict  # root -> (beta, beta), over the positive and negative roots
    sym: tuple[int, ...]  # integer symmetrizer, proportional to d, min 1
    highest_coroot: tuple[int, ...]  # h_theta in simple-coroot coordinates
    dual_coxeter: int  # h^vee = 1 + the sum of the comarks, the coordinates of h_theta
    # the +-root index: roots[k] = positive_roots[k] for k < P and roots[~k] =
    # -roots[k], so a negative index ~k names -beta_k and ~ negates
    roots: tuple[tuple[int, ...], ...]
    root_index: dict  # root -> its signed index in roots
    highest_index: int  # index of the highest root; the simple roots are 0..l-1
    # (perm, shift) of the generators w_1..w_{l+1} over the positive roots:
    # w(beta_k + n iota) = roots[perm[k]] + (n + shift[k]) iota
    generators: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    # b = sum_i <alpha_i, b> omega_i^vee: b_k = sum_i <alpha_i, b> coweight_cols[k][i] / coweight_den
    coweight_cols: tuple[tuple[int, ...], ...]
    coweight_den: int
    # root keys: roots[y] + n iota has the integer key n * len(roots) + root_rank[y],
    # root_rank[y] the position of roots[y] in ranked_roots (tuple order), so key
    # order is (n, classical part) order; negation reverses tuple order, so the
    # negated root has key len(roots) - 1 - key
    root_rank: tuple[int, ...]  # indexed by the signed index y
    ranked_roots: tuple[tuple[int, ...], ...]
    # filled by weyl: one AffineRoot per root key, and the tables and inverted
    # root keys after each memoized word prefix
    affine_roots: dict = field(default_factory=dict, repr=False)
    prefix_states: dict = field(default_factory=dict, repr=False)

    @property
    def label(self) -> str:
        return f"{self.series}{self.rank}"

    def pairing(self, lam: Vec, h: Vec) -> Q:
        """<lam, h> for lam in simple-root and h in simple-coroot coordinates,
        both exact rationals (ints or Fractions)."""
        if len(lam) != self.rank or len(h) != self.rank:
            raise RootSystemError("rank mismatch in pairing")
        lam_nums, lam_den = scaled(lam)
        h_nums, h_den = scaled(h)
        # <alpha_i, h_j> = a[j][i], so <lam, h> = sum_j h_j * (A lam)_j
        total = sum(x * sum(map(mul, row, lam_nums)) for x, row in zip(h_nums, self.cartan.entries) if x)
        return Q(total, lam_den * h_den)

    def weight_form(self, lam: Vec, mu: Vec) -> Q:
        """(lam, mu) on h^* in simple-root coordinates."""
        return bilinear(self.form, vec(lam), vec(mu))

    def coroot_pair_form(self, g: Vec, h: Vec) -> Q:
        """(g, h) on h in simple-coroot coordinates, both exact rationals."""
        if len(g) != self.rank or len(h) != self.rank:
            raise RootSystemError("rank mismatch in coroot pair form")
        g_nums, g_den = scaled(g)
        h_nums, h_den = scaled(h)
        total = sum(x * sum(map(mul, row, h_nums)) for x, row in zip(g_nums, self.coroot_form_nums) if x)
        return Q(total, self.coroot_form_den * g_den * h_den)

    def root_norm2(self, beta) -> Q:
        """(beta, beta) for a root beta; raises on anything else."""
        try:
            return self.root_norms[tuple(beta)]
        except KeyError:
            raise RootSystemError(f"{tuple(beta)} is not a root of {self.label}") from None

    def is_root(self, beta) -> bool:
        return tuple(beta) in self.root_index

    def coroot_of(self, beta) -> Vec:
        """h_beta in simple-coroot coordinates: c_i d_i / d_beta for beta = sum c_i alpha_i."""
        d_beta = self.root_norm2(beta) / 2
        out = tuple(Q(c) * self.d[i] / d_beta for i, c in enumerate(beta))
        if any(x.denominator != 1 for x in out):
            raise RootSystemError(f"coroot of {beta} is not integral")
        return out


def build_root_system(series: str, rank: int) -> FiniteRootSystem:
    """Construct the full root datum for an irreducible finite type.

    Positive roots are produced by height-layer closure from the simple
    roots: ``beta + alpha_i`` is a root iff ``p - <beta, h_i> > 0`` where
    ``p`` is the number of backward steps ``beta - k alpha_i`` remaining
    roots.  The count is cross-checked against the classical value.
    """
    series = series.upper()
    a = cartan_entries(series, rank)
    cm = CartanMatrix(rank, a)

    def cpair(beta, i) -> int:
        # <beta, h_i> = sum_j a[i][j] beta_j
        return sum(a[i][j] * beta[j] for j in range(rank))

    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    found: set[tuple[int, ...]] = set(simple)
    layer = list(simple)
    ordered: list[tuple[int, ...]] = list(simple)
    while layer:
        nxt = []
        for beta in layer:
            for i in range(rank):
                cand = tuple(beta[j] + (1 if j == i else 0) for j in range(rank))
                if cand in found:
                    continue
                p = 0
                back = list(beta)
                while True:
                    back[i] -= 1
                    if tuple(back) in found:
                        p += 1
                    else:
                        break
                if p - cpair(beta, i) > 0:
                    found.add(cand)
                    nxt.append(cand)
        nxt.sort()
        ordered.extend(nxt)
        layer = nxt

    expected = POSITIVE_ROOT_COUNT[series](rank)
    if len(ordered) != expected:
        raise RootSystemError(
            f"closure produced {len(ordered)} positive roots for {series}{rank}, expected {expected}"
        )

    highest = max(ordered, key=lambda r: (sum(r), r))
    if any(any(h < r for h, r in zip(highest, root)) for root in ordered):
        raise RootSystemError("highest root does not dominate coordinatewise")

    d_raw = symmetrizer(a)
    sym = tuple(int(x) for x in d_raw)
    if sym != tuple(d_raw):
        raise RootSystemError("symmetrizer is not integral")
    # B = diag(sym) A is the integer invariant form: (beta, beta) = 2 beta^T B beta / theta^T B theta
    sym_cartan = tuple(tuple(sym[i] * a[i][j] for j in range(rank)) for i in range(rank))

    def quad(beta) -> int:
        return sum(x * sum(map(mul, row, beta)) for x, row in zip(beta, sym_cartan) if x)

    theta_quad = quad(highest)
    d = tuple(Q(2 * x, theta_quad) for x in sym)
    form = tuple(tuple(d[i] * a[i][j] for j in range(rank)) for i in range(rank))
    coroot_form = tuple(tuple(Q(a[i][j]) / d[j] for j in range(rank)) for i in range(rank))
    coroot_form_den = lcm(*(g.denominator for row in coroot_form for g in row))

    a_inv = mat_inverse(tuple(tuple(Q(e) for e in row) for row in a))
    # <omega_i, h_j> = delta_ij  =>  omega_i coords form column i of A^{-1}
    weights = tuple(tuple(a_inv[k][i] for k in range(rank)) for i in range(rank))
    # <alpha_i, omega_j^vee> = delta_ij  =>  omega_j^vee coords form row j of A^{-1}
    coweights = tuple(tuple(a_inv[j][k] for k in range(rank)) for j in range(rank))

    rho = zero_vec(rank)
    for w in weights:
        rho = vec_add(rho, w)
    half_sum = vec_scale(Q(1, 2), tuple(Q(sum(r[i] for r in ordered)) for i in range(rank)))
    if rho != half_sum:
        raise RootSystemError("rho as weight sum disagrees with half-sum of positive roots")

    n_pos = len(ordered)
    roots = tuple(ordered) + tuple(tuple(-c for c in r) for r in reversed(ordered))
    root_index = {r: k for k, r in enumerate(ordered)}
    root_index.update((roots[~k], ~k) for k in range(n_pos))
    root_norms = {}
    for k, r in enumerate(ordered):
        root_norms[r] = root_norms[roots[~k]] = Q(2 * quad(r), theta_quad)
    # (highest, highest) = 2, so h_theta = sum theta_i d_i h_i
    highest_coroot = tuple(int(highest[i] * d[i]) for i in range(rank))
    if highest_coroot != tuple(highest[i] * d[i] for i in range(rank)):
        raise RootSystemError("highest coroot is not integral")

    # s_i: beta -> beta - <beta, h_i> alpha_i, and w_{l+1} = (s_theta, h_theta):
    # beta -> beta - <beta, h_theta> theta, shifted by <beta, h_theta> iota
    generators = []
    for i in range(rank):
        images = [r[:i] + (r[i] - cpair(r, i),) + r[i + 1:] for r in ordered]
        generators.append((tuple(root_index[x] for x in images), (0,) * n_pos))
    theta_pair = [sum(a[t][j] * highest_coroot[t] for t in range(rank)) for j in range(rank)]
    shifts = tuple(sum(map(mul, theta_pair, r)) for r in ordered)
    images = [tuple(c - p * t for c, t in zip(r, highest)) for r, p in zip(ordered, shifts)]
    generators.append((tuple(root_index[x] for x in images), shifts))

    coweight_den = lcm(*(c.denominator for row in coweights for c in row))
    ranked = tuple(sorted(roots))
    rank_of = {r: k for k, r in enumerate(ranked)}

    return FiniteRootSystem(
        series=series,
        rank=rank,
        cartan=cm,
        positive_roots=tuple(ordered),
        highest_root=highest,
        form=form,
        fundamental_weights=weights,
        fundamental_coweights=coweights,
        rho=rho,
        d=d,
        coroot_form_nums=tuple(tuple(int(g * coroot_form_den) for g in row) for row in coroot_form),
        coroot_form_den=coroot_form_den,
        positive_root_set=frozenset(ordered),
        root_norms=root_norms,
        sym=sym,
        highest_coroot=highest_coroot,
        dual_coxeter=1 + sum(highest_coroot),
        roots=roots,
        root_index=root_index,
        highest_index=root_index[highest],
        generators=tuple(generators),
        coweight_cols=tuple(zip(*(tuple(int(c * coweight_den) for c in row) for row in coweights))),
        coweight_den=coweight_den,
        root_rank=tuple(map(rank_of.__getitem__, roots)),
        ranked_roots=ranked,
    )


@lru_cache(maxsize=None)
def build_root_system_label(label: str) -> FiniteRootSystem:
    """Cached front door; root systems are immutable, so sharing is safe."""
    return build_root_system(*parse_type(label))
