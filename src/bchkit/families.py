"""Random generators for conformance fuzzing.

Every generated tensor goes through full validation, so a generator bug
surfaces as an antisymmetry/Jacobi error rather than a silently wrong test.

Each random coordinate is drawn as an integer pair (numerator, denominator)
by two ``rng.randint`` calls.  random_element and random_case1 rescale on
those integers and build one Fraction per output value, so the stream of a
seed, and every value drawn from it, is that of the Fraction arithmetic
they replace.

Rank-one commutator tensors f_ab^c = omega_ab n^c only satisfy the Jacobi
identity when omega_ab s_c + omega_bc s_a + omega_ca s_b = 0 for s = omega.n,
so the two branches are sampled from parameterizations that enforce it:

* s = 0 branch: omega = p ^ q for random p, q, with n drawn from the exact
  kernel of omega (anything orthogonal to both p and q);
* s != 0 branch: omega = t ^ s with s.n = 0 and t.n = -1, which makes
  omega.n = s identically.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import LieElement, StructureConstants, as_fraction, nullspace_basis, validate
from .closed_form import case1_build


def random_fraction(rng: random.Random, max_num: int = 8, max_den: int = 8) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def _nonzero_pairs(rng: random.Random, dim: int) -> list:
    """dim (numerator, denominator) pairs as random_fraction draws them, drawn
    again until a numerator is nonzero."""
    while True:
        pairs = [(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(dim)]
        if any(num for num, _ in pairs):
            return pairs


def _peak(pairs) -> tuple[int, int]:
    """(pn, pd) with pn / pd the largest |num| / den over the pairs."""
    pn, pd = 0, 1
    for num, den in pairs:
        if abs(num) * pd > pn * den:
            pn, pd = abs(num), den
    return pn, pd


def _check_dim(dim: int, least: int = 1) -> None:
    if dim < least:
        raise ValueError(f"dim must be >= {least}, got {dim}")


def random_vector(rng: random.Random, dim: int, max_num: int = 8,
                  max_den: int = 8) -> tuple:
    return tuple(random_fraction(rng, max_num, max_den) for _ in range(dim))


def random_nonzero_vector(rng: random.Random, dim: int) -> tuple:
    return tuple(Fraction(num, den) for num, den in _nonzero_pairs(rng, dim))


def random_element(rng: random.Random, dim: int,
                   sup: Fraction = Fraction(1, 2)) -> LieElement:
    """Exact-rational element scaled so its largest coordinate magnitude is sup.

    sup is read by as_fraction (a float raises TypeError) and must be positive;
    dim must be at least 1.  Each error is raised before anything is drawn.
    """
    _check_dim(dim)
    sup = as_fraction(sup)
    if sup <= 0:
        raise ValueError(f"sup must be positive, got {sup}")
    pairs = _nonzero_pairs(rng, dim)
    pn, pd = _peak(pairs)
    # sup / (pn/pd) * (num/den), reduced by the one Fraction built per coordinate
    scale_num, scale_den = sup.numerator * pd, sup.denominator * pn
    return LieElement(tuple(Fraction(scale_num * num, scale_den * den) for num, den in pairs))


def _wedge(p, q):
    dim = len(p)
    return [[p[a] * q[b] - p[b] * q[a] for b in range(dim)] for a in range(dim)]


def _tensor_from_omega_n(omega, n) -> dict:
    dim = len(n)
    entries = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            if omega[a][b] == 0:
                continue
            for c in range(dim):
                if n[c] != 0:
                    entries[(a, b, c)] = omega[a][b] * n[c]
    return entries


def _halve_until(omega, n, limit_pairs) -> list:
    """Scale omega by powers of 1/2 until every (value, limit) pair satisfies
    value <= limit; the gauge (lambda omega, n) keeps the tensor valid."""
    shrink = Fraction(1)
    for value, limit in limit_pairs:
        while value * shrink > limit:
            shrink /= 2
    if shrink != 1:
        omega = [[shrink * x for x in row] for row in omega]
    return omega


def random_rank_one(rng: random.Random, dim: int,
                    nilpotent: bool | None = None) -> StructureConstants:
    """Random algebra with a one-dimensional derived subalgebra.

    nilpotent=True forces omega.n = 0, False forces omega.n != 0, None flips
    a coin.  dim must be at least 2 with nilpotent=False and at least 3
    otherwise: the nilpotent branch needs room for the kernel of a nonzero
    antisymmetric form, and with nilpotent=None the coin may pick it.

    Non-nilpotent tensors are rescaled so that elements of sup-norm 1/2
    produce eigen-scalars |u|, |v| <= 1/6 and a bracket amplitude of order
    one; this keeps a degree-8 series truncation well under 1e-8 without
    sacrificing genericity.

    A smaller dim raises ValueError before anything is drawn.
    """
    _check_dim(dim, 2 if nilpotent is False else 3)
    if nilpotent is None:
        nilpotent = rng.random() < 0.5
    if nilpotent:
        while True:
            p = random_nonzero_vector(rng, dim)
            q = random_nonzero_vector(rng, dim)
            omega = _wedge(p, q)
            if all(all(x == 0 for x in row) for row in omega):
                continue
            kernel = nullspace_basis([p, q], dim)
            if not kernel:
                continue
            coeffs = [random_fraction(rng, 4, 4) for _ in kernel]
            n = tuple(
                sum((c * k[i] for c, k in zip(coeffs, kernel)), Fraction(0))
                for i in range(dim)
            )
            if any(c != 0 for c in n):
                break
    else:
        while True:
            n = random_nonzero_vector(rng, dim)
            # t with t.n = -1: draw freely, then repair the pivot coordinate
            pivot = next(i for i, c in enumerate(n) if c != 0)
            t = list(random_vector(rng, dim))
            partial = sum(t[i] * n[i] for i in range(dim) if i != pivot)
            t[pivot] = (-1 - partial) / n[pivot]
            # s with s.n = 0, independent of t so the wedge is nonzero
            s = list(random_vector(rng, dim))
            partial = sum(s[i] * n[i] for i in range(dim) if i != pivot)
            s[pivot] = -partial / n[pivot]
            if not any(c != 0 for c in s):
                continue
            omega = _wedge(t, s)
            if any(any(x != 0 for x in row) for row in omega):
                break
        s_vec = [sum(row[b] * n[b] for b in range(dim)) for row in omega]
        max_s = max(abs(c) for c in s_vec)
        max_w = max(abs(x) for row in omega for x in row)
        max_n = max(abs(c) for c in n)
        omega = _halve_until(omega, n, [
            (Fraction(dim, 2) * max_s, Fraction(1, 6)),       # |u|, |v| cap
            (Fraction(dim * dim, 4) * max_w * max_n, 2),      # bracket amplitude
        ])
    return validate(_tensor_from_omega_n(omega, n), dim)


def random_case1(rng: random.Random, dim: int):
    """Random scaled-antisymmetrized-delta algebra; returns (algebra, m, uvc_map).

    m is rescaled so elements of sup-norm 1/2 give |u|, |v| <= 1/6 (same
    series-window consideration as random_rank_one).  dim must be at least 1;
    ValueError is raised before anything is drawn.
    """
    _check_dim(dim)
    pairs = _nonzero_pairs(rng, dim)
    pn, pd = _peak(pairs)
    # halve m as few times as gives |u| = |y.m|/2 <= dim max|m| / 4 <= 1/6
    halvings = 0
    while 3 * dim * pn > (2 * pd) << halvings:
        halvings += 1
    m = tuple(Fraction(num, den << halvings) for num, den in pairs)
    alg, uvc_map = case1_build(m)
    return alg, m, uvc_map


def random_derived_abelian(rng: random.Random, levers: int = 2, core: int = 3,
                           kind: str = "diag") -> StructureConstants:
    """Random algebra with an abelian (typically multi-dimensional) derived part.

    Basis splits into `levers` generators T_i and an abelian `core` of U_k.
    Commuting maps A_i act on the core ([T_i, U_k] = A_i U_k), and the lever
    brackets come from a potential, [T_i, T_j] = A_i h_j - A_j h_i, which
    makes the Jacobi identity hold for any commuting family A_i.

    kind="diag" draws diagonal A_i (semisimple action, generically an
    operator-form case); kind="nilp" draws commuting nilpotent A_i built as
    polynomials in one shift matrix (terminating operator series).
    levers and core must each be at least 1; an error is raised before any draw.
    """
    if levers < 1 or core < 1:
        raise ValueError(f"dim of levers and core must be >= 1, got {levers} and {core}")
    dim = levers + core
    mats = []
    if kind == "diag":
        # small entries keep the restricted adjoint norms (and with them the
        # operator-series and oracle truncation errors) comfortably small
        for _ in range(levers):
            mats.append([[Fraction(rng.randint(-2, 2), 8) if r == c else Fraction(0)
                          for c in range(core)] for r in range(core)])
    elif kind == "nilp":
        # sum_k c_k N^k for the shift N, whose k-th power has ones on the k-th
        # superdiagonal: entry (r, c) is c_(c - r) above the diagonal, else 0
        for _ in range(levers):
            coeffs = [random_fraction(rng, 2, 4) for _ in range(1, core)]
            mats.append([[coeffs[c - r - 1] if c > r else Fraction(0) for c in range(core)]
                         for r in range(core)])
    else:
        raise ValueError(f"unknown kind {kind!r}")

    potentials = [tuple(Fraction(rng.randint(-2, 2), 8) for _ in range(core))
                  for _ in range(levers)]

    def apply_mat(m, vec):
        return [sum(m[r][c] * vec[c] for c in range(core)) for r in range(core)]

    entries = {}
    for i in range(levers):
        for j in range(i + 1, levers):
            ai_hj = apply_mat(mats[i], potentials[j])
            aj_hi = apply_mat(mats[j], potentials[i])
            for k in range(core):
                val = ai_hj[k] - aj_hi[k]
                if val != 0:
                    entries[(i, j, levers + k)] = val
    for i in range(levers):
        for k in range(core):
            for r in range(core):
                val = mats[i][r][k]
                if val != 0:
                    entries[(i, levers + k, levers + r)] = val
    return validate(entries, dim)
