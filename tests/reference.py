"""Independent references that the tests compare bchkit against.

None of these runs in the package: each is a second route to a value that
bchkit computes another way, written so that it shares as little code with
it as it can.  The element arithmetic and the rep-file writer at the top are
the tests' own too: bchkit computes on integer forms and reads rep files, so
it has no use for either.
"""

import functools
import math
from fractions import Fraction

from bchkit.algebra import (DimensionMismatch, Echelon, LieElement, Subspace, as_fraction,
                            clear_denominators, validate)
from bchkit.closed_form import BivariateSeries, f_series
from bchkit.oracle import MatrixRep


# ---------------------------------------------------------------------------
# element arithmetic, coordinate by coordinate, and rep files
# ---------------------------------------------------------------------------

def _plus(x: LieElement, y: LieElement) -> LieElement:
    if x.dim != y.dim:
        raise DimensionMismatch(f"dim {x.dim} vs {y.dim}")
    return LieElement(a + b for a, b in zip(x.coords, y.coords))


def plus(*terms: LieElement) -> LieElement:
    """terms[0] + terms[1] + ..., summed left to right in each coordinate."""
    return functools.reduce(_plus, terms)


def minus(x: LieElement, y: LieElement) -> LieElement:
    """x - y."""
    return plus(x, times(-1, y))


def times(s, x: LieElement) -> LieElement:
    """s x."""
    return LieElement(s * a for a in x.coords)


def is_zero(x: LieElement) -> bool:
    return not any(x.coords)


def rep_json_dict(rep) -> dict:
    """A MatrixRep as the JSON object that MatrixRep.from_json_dict and the CLI's
    --rep read."""
    return {"dim_rep": rep.dim_rep, "basis_images": [im.tolist() for im in rep.basis_images],
            "faithful_on": rep.faithful_on}


def direct_sum(a, b):
    """(a + b, embed): the direct sum of the algebras a and b on a's basis followed
    by b's, with [a, b] = 0 across the summands, and embed(x), which maps an element
    x of a to the element (x, 0) of the sum."""
    shift = a.dim
    entries = {(i, j, k): v for i, j, k, v in a.entries()}
    entries.update({(i + shift, j + shift, k + shift): v for i, j, k, v in b.entries()})

    def embed(x: LieElement) -> LieElement:
        return LieElement(x.coords + (Fraction(0),) * b.dim)

    return validate(entries, a.dim + b.dim), embed


# ---------------------------------------------------------------------------
# an algebra whose operator form does not split into eigenlines
# ---------------------------------------------------------------------------

def euclidean_plane(scale=1):
    """(e(2), rep): the motions of the plane on (J, P1, P2), [J, P1] = scale P2 and
    [J, P2] = -scale P1, and its faithful 3 x 3 rep for scale = 1, J as the rotation
    generator and P1, P2 as the translations, or None for another scale.

    For x = theta J and y = c P1, w = [x, y] = theta c P2 and S = span{P1, P2}:
    L_X rotates S with eigenvalues +-i theta scale and L_Y is 0 on S, so the pair
    is OperatorCommuting and its operator form has no joint eigenlines over Q."""
    alg = validate({(0, 1, 2): scale, (0, 2, 1): -scale}, 3, basis_names=["J", "P1", "P2"])
    if scale != 1:
        return alg, None
    rep = MatrixRep([((0, -1, 0), (1, 0, 0), (0, 0, 0)), ((0, 0, 1), (0, 0, 0), (0, 0, 0)),
                     ((0, 0, 0), (0, 0, 1), (0, 0, 0))], faithful_on="affine maps of the plane")
    rep.validate_against(alg)
    return alg, rep


# ---------------------------------------------------------------------------
# the exact value of a truncated series of f
# ---------------------------------------------------------------------------

def evaluate_exact(series: BivariateSeries, u, v) -> Fraction:
    """Exact value of series at rational u = a/b, v = c/e.  With U = a e and V = c b,
    the degree-m part is N_m / (q_m (b e)^m), N_m = sum_j A_mj U^(m-j) V^j, and the
    parts are summed over one denominator by Horner's rule in b e.  The table need
    not be symmetric.

    u and v are anything as_fraction takes; a float raises TypeError
    (series.evaluate() sums in floating point).

    As a reference value of f, f_series(d) is the degree-d Taylor truncation of
    r -> f(r u, r v) at r = 1, whose radius is 2 pi / |u - v| (f is singular only
    where u - v is a nonzero multiple of 2 pi i).  Its error shrinks roughly like
    (|u - v| / 2 pi)^d, at most (max(|u|, |v|) / pi)^d: keep max(|u|, |v|) well
    below pi."""
    u, v = as_fraction(u), as_fraction(v)
    be = u.denominator * v.denominator
    pu, pv = ([t**k for k in range(series.max_degree + 1)]
              for t in (u.numerator * v.denominator, v.numerator * u.denominator))
    q = math.lcm(*(qm for _, qm in series.rows))
    total = 0
    for m, (row, qm) in enumerate(series.rows):
        part = sum(a * pu[m - j] * pv[j] for j, a in enumerate(row) if a)
        total = total * be + part * (q // qm)
    return Fraction(total, q * be**series.max_degree)


# ---------------------------------------------------------------------------
# the paper's three printed forms of f, literally, with no singularity care
# ---------------------------------------------------------------------------

def f_form_product(u: float, v: float) -> float:
    """Literal ((u-v)e^(u+v) - (ue^u - ve^v)) / (uv(e^u - e^v))."""
    return ((u - v) * math.exp(u + v) - (u * math.exp(u) - v * math.exp(v))) / (
        u * v * (math.exp(u) - math.exp(v))
    )


def f_form_negexp(u: float, v: float) -> float:
    """Literal ((u-v) - (ue^-v - ve^-u)) / (uv(e^-v - e^-u))."""
    return ((u - v) - (u * math.exp(-v) - v * math.exp(-u))) / (
        u * v * (math.exp(-v) - math.exp(-u))
    )


def f_form_quotient(u: float, v: float) -> float:
    """Literal (1/(e^-u - e^-v)) ((1-e^-u)/u - (1-e^-v)/v)."""
    return ((1 - math.exp(-u)) / u - (1 - math.exp(-v)) / v) / (
        math.exp(-u) - math.exp(-v)
    )


def omega_contract(fact, x: LieElement, y: LieElement):
    """omega_ab x^a y^b, summed from the rank-one factorization's omega."""
    return sum((xa * w * y.coords[b] for xa, row in zip(x.coords, fact.omega)
                for b, w in enumerate(row) if w != 0), Fraction(0))


def rank_one_uv(fact, x: LieElement, y: LieElement) -> tuple:
    """(u, v) = (-y.omega.n, x.omega.n): L_x n = v n and L_y n = -u n on a rank-one algebra."""
    return -omega_contract(fact, y, fact.n), omega_contract(fact, x, fact.n)


def bch_rank_one_exact(fact, x: LieElement, y: LieElement, f_degree: int = 40) -> LieElement:
    """Rank-one composition with f evaluated as the exact series value
    evaluate_exact(f_series(f_degree), u, v); everything else stays exact.

    A high-precision reference while max(|u|, |v|) is well below pi: the
    error of f is roughly (|u - v| / 2 pi)^f_degree.
    """
    u, v = rank_one_uv(fact, x, y)
    c_xy = omega_contract(fact, x, y)
    if c_xy == 0:
        return plus(x, y)
    return plus(x, y, times(c_xy * evaluate_exact(f_series(f_degree), u, v), fact.n))


# ---------------------------------------------------------------------------
# adjoint matrices and subspaces over Fraction
# ---------------------------------------------------------------------------

def adjoint(alg, x: LieElement) -> tuple:
    """Matrix of L_x: y -> [x, y], entry [c][b] = sum_a x^a f_ab^c.

    Summed from alg.structure_constant, which reads the algebra's Fraction
    table, so it shares no code with the integer bracket kernel."""
    dim = alg.dim
    if x.dim != dim:
        raise DimensionMismatch(f"dim {x.dim} vs {dim}")
    support = [(a, xa) for a, xa in enumerate(x.coords) if xa != 0]
    return tuple(tuple(sum((xa * alg.structure_constant(a, b, c) for a, xa in support),
                           Fraction(0))
                       for b in range(dim))
                 for c in range(dim))


def apply(matrix, y) -> LieElement:
    """matrix . y for an element or coordinate sequence y."""
    coords = y.coords if isinstance(y, LieElement) else tuple(y)
    return LieElement(tuple(sum((m * c for m, c in zip(row, coords) if m != 0), Fraction(0))
                            for row in matrix))


def span(vectors) -> Subspace:
    """The RREF span of vectors (elements or coordinate sequences; a float is the
    binary rational it holds), from one Echelon."""
    ech = Echelon()
    for v in vectors:
        ech.insert(clear_denominators(v.coords if isinstance(v, LieElement) else v)[0])
    return ech.subspace()


def in_span(sub: Subspace, vector) -> bool:
    """True iff vector (an element or coordinate sequence) lies in sub."""
    coords = vector.coords if isinstance(vector, LieElement) else tuple(vector)
    return span(sub.basis + (coords,)) == sub


def _exact(x: LieElement) -> LieElement:
    """x with each coordinate a Fraction: a float is the binary rational it holds."""
    return LieElement(tuple(Fraction(c) for c in x.coords))


def closure(alg, x: LieElement, y: LieElement) -> Subspace:
    """The closure S of w = [x, y] under L_x, L_y: S <- span(S, L_x S, L_y S) from
    S = span{w}, on adjoint matrices, until S stops growing.  It runs no worklist:
    each sweep brackets the whole basis of S again."""
    x, y = _exact(x), _exact(y)
    ad_x, ad_y = adjoint(alg, x), adjoint(alg, y)
    sub = span([apply(ad_x, y)])
    while True:
        grown = span([*sub.basis, *(apply(ad, b) for ad in (ad_x, ad_y) for b in sub.basis)])
        if grown == sub:
            return sub
        sub = grown


def centralized_closure(alg, x: LieElement, y: LieElement):
    """(ok, S): closure(alg, x, y), and whether [w, b] = 0 for every basis vector b
    of S, w = [x, y], both on adjoint matrices."""
    sub = closure(alg, x, y)
    ad_w = adjoint(alg, apply(adjoint(alg, _exact(x)), _exact(y)))
    return all(is_zero(apply(ad_w, b)) for b in sub.basis), sub
