"""Independent references for the Weyl-group and audit tests.

``reflect`` and ``from_word`` act by Fraction reflections on weights, so they
reach an element without the generator tables.  The ``ref_*`` functions are
the matrix-form formulas on canonical pairs (tilde, b): the classical part as
an integer matrix on simple-root coordinates, b in simple-coroot coordinates,
w(beta + n iota) = tilde(beta) + (n + <beta, b>) iota.  The classical inverse
is taken in Fractions.

``run_audit_reference`` is the Theorem 3.2 / Corollary 3.4 audit as a
``Fraction`` loop over the readable samplers and vectors of
``loopcert.inequalities``, to hold the integer kernels of ``run_audit`` to.

``certify_reference`` is the entirety certificate with one ``cell_bound``
and one exponential per cell, to hold ``convergence.certify``'s per-class
terms to.

``isolate_01`` and ``sign_change_roots_reference`` are the classical form of
the root pipeline behind ``decay.l1_norm``: Descartes' rule on the
(0,1)-Moebius transform with two Taylor shifts per node, and 40 exact
bisections per root before Newton's method at prec + 80 bits.

``adaptive_panel``, ``rough_pass`` and ``adaptive_sum`` are the adaptive
GL24/GL48 bisection that integrated ``l2_norm`` and the N = 0 L1 norm before
their fixed graded panels, kept as an independent quadrature whose error
(GL48 - GL24) is an estimate, not a bound.
"""

import random
from fractions import Fraction as Q

from mpmath import mp

from loopcert import convergence as conv
from loopcert import decay
from loopcert import inequalities as ineq
from loopcert import weyl
from loopcert.affine import AffineWeight, affine_pairing, affine_simple_coroots, affine_simple_roots
from loopcert.cartan import FiniteRootSystem, RootSystemError
from loopcert.linalg import mat_inverse, vec_add, vec_scale
from loopcert.reports import derive_seed, q_str


def reflect(rs: FiniteRootSystem, i: int, lam: AffineWeight) -> AffineWeight:
    """Simple affine reflection on the dual space: lam - <lam, h_i> a_i."""
    if not 1 <= i <= rs.rank + 1:
        raise RootSystemError(f"reflection index {i} out of range")
    h_i = affine_simple_coroots(rs)[i - 1]
    a_i = affine_simple_roots(rs)[i - 1].to_weight()
    return lam - affine_pairing(rs, lam, h_i) * a_i


def from_pair(rs: FiniteRootSystem, tilde, b) -> weyl.AffineWeylElement:
    """The element with canonical pair (tilde, b), by its tables."""
    perm = tuple(rs.root_index[weyl.mat_vec_int(tilde, beta)] for beta in rs.positive_roots)
    shift = tuple(weyl.pair_int(rs, beta, b) for beta in rs.positive_roots)
    return weyl.AffineWeylElement(rs, perm, shift)


def from_word(rs: FiniteRootSystem, word) -> weyl.AffineWeylElement:
    """Canonical form recovered from the action on classical simple roots.

    Applying the word's reflections to each alpha_i gives
    ``w alpha_i = tilde(alpha_i) + <alpha_i, b> iota``; the classical parts
    assemble the matrix of tilde and the iota coefficients determine b through
    the fundamental coweights.  Raises if b lands outside the coroot lattice.
    The word is kept when it is reduced.
    """
    word = tuple(int(i) for i in word)
    cols = []
    iotas = []
    for k in range(rs.rank):
        mu = affine_simple_roots(rs)[k].to_weight()
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
    elem = from_pair(rs, matrix, tuple(int(x) for x in b))
    length = weyl.length_im(rs, elem)
    return weyl.AffineWeylElement(rs, elem.perm, elem.shift, word=word if len(word) == length else None,
                                  length=length)


def _classical_inverse(tilde):
    inv = mat_inverse(tuple(tuple(Q(e) for e in row) for row in tilde))
    return tuple(tuple(int(e) for e in row) for row in inv)


def _mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n))


def ref_multiply(rs: FiniteRootSystem, u, v):
    """(u, a) * (v, b) = (u v, v^{-1} a + b)."""
    (ut, ub), (vt, vb) = u, v
    vt_inv = weyl._coroot_matrix(rs, _classical_inverse(vt))
    return _mat_mul(ut, vt), tuple(x + y for x, y in zip(weyl.mat_vec_int(vt_inv, ub), vb))


def ref_inverse(rs: FiniteRootSystem, w):
    """(u, a)^{-1} = (u^{-1}, -u a)."""
    t, b = w
    return _classical_inverse(t), tuple(-x for x in weyl.mat_vec_int(weyl._coroot_matrix(rs, t), b))


def ref_act_on_root(rs: FiniteRootSystem, w, beta, n):
    """tilde(beta) + (n + <beta, b>) iota as (root, n)."""
    t, b = w
    return weyl.mat_vec_int(t, beta), n + weyl.pair_int(rs, beta, b)


def ref_length_im(rs: FiniteRootSystem, w) -> int:
    """sum over alpha > 0 of |<alpha, b> - chi_neg(tilde alpha)|."""
    t, b = w
    return sum(abs(weyl.pair_int(rs, alpha, b) - any(c < 0 for c in weyl.mat_vec_int(t, alpha)))
               for alpha in rs.positive_roots)


def ref_inverse_simple_images(rs: FiniteRootSystem, w):
    """w^{-1} alpha_i as (root, n) for i = 1..l."""
    w_inv = ref_inverse(rs, w)
    return [ref_act_on_root(rs, w_inv, a.classical_part, 0) for a in affine_simple_roots(rs)[: rs.rank]]


def ref_is_kostant(rs: FiniteRootSystem, w) -> bool:
    return all(n > 0 or (n == 0 and beta in rs.positive_root_set)
               for beta, n in ref_inverse_simple_images(rs, w))


def run_audit_reference(rs: FiniteRootSystem, max_len: int, n_h1: int, n_siegel: int, seed: int,
                        r: Q = Q(1), t: Q = Q(1, 2), with_corollary: bool = True) -> ineq.InequalityReport:
    """inequalities.run_audit from sample_h1 and h1_vector, h2_vector,
    sample_siegel and h3_vector, and verify_corollary: the same draws, checks,
    constants and violation order, every value a Fraction."""
    layers = weyl.enumerate_kostant(rs, max_len)
    rep = ineq.InequalityReport("cor34" if with_corollary else "thm32", rs.label, max_len)
    envelope = ineq.siegel_envelope(rs, r, t)
    rate = ineq.b_norm_rate(rs, layers)
    c1 = ineq.growth_constant_c1(rs)
    kostant = [w for layer in layers for w in layer]

    c2, c2_case, h2s = Q(0), None, {}
    for w in kostant:
        h2s[w], checks = ineq.h2_vector(rs, w, r)
        rep.violations += [{"check": f"h2.{name}", "w": ineq._wid(w)}
                           for name in ("d_nonpos", "q_nonpos", "omega_nonneg") if not checks[name]]
        if checks["ratio"] > c2:
            c2, c2_case = checks["ratio"], ineq._wid(w)

    c3 = Q(0)
    samples = []
    for idx, w in enumerate(kostant):
        rng_h1 = random.Random(derive_seed(seed, f"h1:{idx}"))
        rng_sg = random.Random(derive_seed(seed, f"siegel:{idx}"))
        h1s = []
        for k in range(n_h1):
            h1, checks = ineq.h1_vector(rs, ineq.sample_h1(rs, w, rng_h1, one_hot=(k % 8 == 7)))
            rep.violations += [{"check": f"h1.{name}", "sample": k, "w": ineq._wid(w)}
                               for name, ok in checks.items() if not ok]
            h1s.append(h1)
        h3s = []
        for k in range(n_siegel):
            h3, checks = ineq.h3_vector(rs, w, ineq.sample_siegel(rs, rng_sg, r, t), envelope, rate)
            rep.violations += [{"check": f"h3.{name}", "sample": k, "w": ineq._wid(w)}
                               for name in ("omega_bounded", "growth3") if not checks[name]]
            c3 = max(c3, checks["c3"])
            h3s.append(h3)
        samples.append((w, h1s, h3s))

    c_const = max(c1, c2, c3, Q(1, 10**6))
    ln_d = -(rs.rank * envelope["E"] + 1)
    worst = None
    if with_corollary:
        for w, h1s, h3s in samples:
            for k, h3 in enumerate(h3s):
                rec = ineq.verify_corollary(rs, w, h1s[k % max(1, n_h1)], h2s[w], h3, c_const, ln_d)
                if not rec["ok"]:
                    rep.violations.append({"check": "cor34", "sample": k, "w": ineq._wid(w)})
                if worst is None or rec["margin"] < worst:
                    worst = rec["margin"]

    rep.constants = {"C1": q_str(c1), "C2": q_str(c2), "C3": q_str(c3), "C": q_str(c_const), "ln_D": q_str(ln_d),
                     "E": q_str(envelope["E"]), "b_norm_rate": q_str(rate), "r": q_str(r), "t": q_str(t)}
    if c2_case is not None:
        rep.extremal_cases.append({"kind": "C2_argmax", "w": c2_case})
    if worst is not None:
        rep.extremal_cases.append({"kind": "cor34_worst_margin", "margin": q_str(worst)})
    rep.records.append({"kostant_checked": len(kostant), "h1_samples_per_w": n_h1, "siegel_samples_per_w": n_siegel})
    return rep


def certify_reference(rs: FiniteRootSystem, params: conv.CertificateParams, max_len: int, prec: int = 256) -> dict:
    """convergence.certify with a cell term per cell."""
    params.validate(rs)
    with mp.workprec(prec):
        shells = []
        for layer in weyl.enumerate_kostant(rs, max_len):
            cells = [conv.cell_bound(rs, w, params) for w in layer]
            max_cell = max(cells, key=lambda c: c.log_term, default=None)
            shells.append((len(cells), max_cell, mp.fsum(mp.e**c.log_term for c in cells)))
        return conv._certificate_report(params, max_len, shells)


def shift_by_one(coeffs: list[int]) -> list[int]:
    """The coefficients of p(x + 1), ascending, by repeated synthetic
    division."""
    out = list(coeffs)
    d = len(out) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            out[j] += out[j + 1]
    return out


def deflate_at_zero(coeffs: list[int]) -> list[int]:
    """p / x, repeated while 0 stays a root."""
    while len(coeffs) > 1 and coeffs[0] == 0:
        coeffs = coeffs[1:]
    return coeffs


def deflate_at_one(coeffs: list[int]) -> list[int]:
    """Exact synthetic division by (x - 1), repeated while 1 stays a root."""
    while len(coeffs) > 1 and sum(coeffs) == 0:
        out = [0] * (len(coeffs) - 1)
        acc = 0
        for k in range(len(coeffs) - 1, 0, -1):
            acc += coeffs[k]
            out[k - 1] = acc
        coeffs = out
    return coeffs


def variations_01(coeffs: list[int]) -> int:
    """Sign variations of (1+x)^d p(1/(1+x)): upper bound for roots in (0,1)."""
    shifted = shift_by_one(list(reversed(coeffs)))
    signs = [c for c in shifted if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def isolate_01(coeffs: list[int], lo: Q, hi: Q, depth: int, out: list) -> None:
    """Vincent-Collins-Akritas isolation of the roots of p = sum coeffs[i] x^i
    (p on [lo, hi] mapped to [0, 1]) into out.  An exact root at a midpoint,
    where the right half 2^d p((x+1)/2) has a zero constant term, is a point
    interval, deflated from both halves."""
    v = variations_01(coeffs)
    if v == 0:
        return
    if v == 1:
        out.append((lo, hi))
        return
    if depth <= 0:
        raise ArithmeticError(f"roots of P_n unresolved in [{lo}, {hi}]")
    d = len(coeffs) - 1
    left = [c << (d - k) for k, c in enumerate(coeffs)]  # 2^d p(x/2)
    right = shift_by_one(left)  # 2^d p((x+1)/2)
    mid = (lo + hi) / 2
    if right[0] == 0:  # p(mid) == 0 exactly
        out.append((mid, mid))
        right = deflate_at_zero(right)
        left = deflate_at_one(left)
    isolate_01(left, lo, mid, depth - 1, out)
    isolate_01(right, mid, hi, depth - 1, out)


def isolated_intervals_reference(coeffs) -> tuple:
    """The sorted isolating intervals of the roots in (0, 1) of
    p = sum coeffs[i] x^i by isolate_01, to depth 70."""
    out: list = []
    isolate_01(list(coeffs), Q(0), Q(1), 70, out)
    return tuple(sorted(out))


def dyadic_value(coeffs, m: int, k: int) -> int:
    """2^(k d) p(m / 2^k) for p = sum coeffs[i] x^i of degree d, exactly."""
    d = len(coeffs) - 1
    return sum(c * m**i << (k * (d - i)) for i, c in enumerate(coeffs))


def sign_change_roots_reference(n: int, prec: int) -> tuple:
    """decay.sign_change_roots by bisection: each isolating interval of P_n,
    with its roots at 0 and 1 divided out, is halved 40 times on m / 2^k with
    exact integer signs, and Newton's method then runs on integers scaled by
    2^G, G = prec + 80 (Horner with one floor per product), until a step is
    below 2^-(prec+20), at most 8 steps."""
    coeffs = deflate_at_one(deflate_at_zero(list(decay.derivative_poly(n).coeffs)))
    g = prec + 80
    shifted = [c << g for c in reversed(coeffs)]
    out = []
    for lo, hi in isolated_intervals_reference(coeffs):
        if lo == hi:
            out.append(lo)
            continue
        k = max(lo.denominator, hi.denominator).bit_length() - 1
        m = int(lo * 2**k)  # lo = m / 2^k and hi = (m + 1) / 2^k
        s_lo = dyadic_value(coeffs, m, k) > 0
        for _ in range(40):
            m, k = 2 * m + 1, k + 1  # the midpoint
            v_mid = dyadic_value(coeffs, m, k)
            if v_mid == 0:
                break
            if (v_mid > 0) != s_lo:
                m -= 1
        else:
            # the midpoint of the final interval [m / 2^k, (m + 1) / 2^k]
            m, k = 2 * m + 1, k + 1
        x = m << (g - k)
        for _ in range(8):
            p = dp = 0
            for c in shifted:
                dp = ((dp * x) >> g) + p
                p = ((p * x) >> g) + c
            if dp == 0:
                break
            step = (p << g) // dp
            x -= step
            if abs(step) < 1 << (g - prec - 20):
                break
        out.append(Q(x, 1 << g))
    with mp.workprec(prec + 40):
        return tuple(mp.mpf(x.numerator) / x.denominator for x in sorted(out))


MAX_DEPTH = 12


def adaptive_panel(panel, a, b, tol, order: int = 24, depth: int = 0, coarse=None):
    """(value, error estimate, depth-cap hits) of the integral that
    panel(a, b, order) approximates by GL(order): GL(2 order) where it is
    within tol of GL(order), else bisected.  The estimate is the sum of
    |GL(2 order) - GL(order)| over the accepted pieces, not a bound.  A piece
    still off by more than tol at depth MAX_DEPTH is accepted and counted as
    a cap hit.  `coarse` is GL(order) on [a, b] when the caller has it
    already."""
    if coarse is None:
        coarse = panel(a, b, order)
    fine = panel(a, b, 2 * order)
    err = abs(fine - coarse)
    if err <= tol:
        return fine, err, 0
    if depth >= MAX_DEPTH:
        return fine, err, 1
    mid = (a + b) / 2
    left = adaptive_panel(panel, a, mid, tol / 2, order, depth + 1)
    right = adaptive_panel(panel, mid, b, tol / 2, order, depth + 1)
    return left[0] + right[0], left[1] + right[1], left[2] + right[2]


def rough_pass(panel, bounds) -> tuple:
    """GL24 on each panel between consecutive bounds, and the sum of their
    absolute values, which anchors the panel tolerances."""
    coarse = [panel(a, b, 24) for a, b in zip(bounds, bounds[1:])]
    return coarse, mp.fsum(abs(c) for c in coarse)


def adaptive_sum(panel, bounds, coarse, tol) -> tuple:
    """(sum of |integral|, error estimate, depth-cap hits) over the panels,
    each refined from its rough-pass value."""
    total = err = mp.mpf(0)
    hits = 0
    for a, b, c in zip(bounds, bounds[1:], coarse):
        val, e, h = adaptive_panel(panel, a, b, tol, coarse=c)
        total += abs(val)
        err += e
        hits += h
    return total, err, hits
