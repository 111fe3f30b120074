"""Finite-dimensional Lie algebras over exact rationals.

An algebra is defined by structure constants on a chosen basis,
[T_a, T_b] = f_ab^c T_c, entered sparsely and validated for antisymmetry
and the Jacobi identity.  All structural computations (brackets, subspaces,
the lower central series) run in exact arithmetic so that later
condition checks are equalities, not tolerance tests.  They run on integer
vectors: the structure constants share one common denominator per algebra,
and an element is cleared to integer coordinates over its own common
denominator, so the bracket kernel and the echelon forms never build a
Fraction until a result is returned.  A float coordinate is read as the
binary rational it holds, so float elements take the same exact path.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

_ZERO = Fraction(0)


class IndexOutOfRange(ValueError):
    """A structure-constant index lies outside 0..dim-1."""


class DimensionMismatch(ValueError):
    """An element's coordinate length does not match the algebra dimension."""


class AntisymmetryViolation(ValueError):
    """Both orientations of f_ab^c were supplied and disagree (or f_aa^c != 0)."""

    def __init__(self, a: int, b: int, c: int, message: str | None = None):
        self.indices = (a, b, c)
        super().__init__(message or f"antisymmetry violated at f_({a},{b})^{c}")


class JacobiViolation(ValueError):
    """The Jacobi identity fails for a basis triple."""

    def __init__(self, a: int, b: int, c: int, e: int, residual: Fraction):
        self.indices = (a, b, c, e)
        self.residual = residual
        super().__init__(
            f"Jacobi identity violated for (T_{a},T_{b},T_{c}): "
            f"component {e} has residual {residual}"
        )


def as_fraction(value) -> Fraction:
    """Coerce an int, string ("p/q" or "p"), or Fraction to Fraction; a bool is no number."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

# stores an attribute past _Frozen.__setattr__; for the subclasses' __init__ only
_setattr = object.__setattr__


class _Frozen:
    """An immutable value: ==, hash and repr read the attributes named in _fields,
    in that order, as those of a frozen dataclass do.

    Each subclass's __init__ stores its attributes with _setattr; assigning or
    deleting any attribute afterwards raises AttributeError.  An attribute left
    out of _fields (derived or private) takes no part in ==, hash or repr.
    cached_property writes to the instance __dict__ directly, so it still fills in.

    A value equals itself before any _key() is built: tuple comparison already
    treats identical elements as equal, so this changes no comparison's result.
    """

    _fields: tuple = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class LieElement(_Frozen):
    """A coordinate vector x^a over the algebra basis T_a.

    Coordinates are Fractions in exact mode or floats in numeric mode, as
    StructureConstants.element builds them.  An element has no arithmetic:
    brackets and closed forms act on it through the algebra.
    """

    _fields = ("coords",)

    def __init__(self, coords):
        _setattr(self, "coords", tuple(coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def is_exact(self) -> bool:
        """True iff no coordinate is a float, as for BchResult.exact."""
        return not any(map(isinstance, self.coords, itertools.repeat(float)))

    def sup_norm(self) -> float:
        return max((abs(float(a)) for a in self.coords), default=0.0)


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def nullspace_basis(vectors: Sequence[Sequence[Fraction]], dim: int) -> list[tuple[Fraction, ...]]:
    """Exact basis of {n : v . n = 0 for all given v}, one vector per free
    column of the echelon form of the v (int, Fraction or float coordinates)."""
    ech = Echelon()
    for v in vectors:
        ech.insert(clear_denominators(v)[0])
    basis = []
    for j in range(dim):
        if j not in ech.pivots:
            vec = [_ZERO] * dim
            vec[j] = Fraction(1)
            for row, p in zip(ech.rows, ech.pivots):
                vec[p] = Fraction(-row[j], row[p])
            basis.append(tuple(vec))
    return basis


def clear_denominators(coords: Sequence) -> tuple[list[int], int]:
    """(V, s) with V = s * coords an integer vector and s > 0 the least common
    denominator.  A float coordinate counts as the binary rational it holds,
    so every coordinate vector has an exact integer form."""
    ratios = [c.as_integer_ratio() for c in coords]
    s = math.lcm(*(d for _, d in ratios))
    return [n * (s // d) for n, d in ratios], s


def unscaled(vec: Sequence[int], s: int) -> tuple[Fraction, ...]:
    """The integer vector vec / s as Fraction coordinates."""
    return tuple(Fraction(v, s) if v else _ZERO for v in vec)


class Subspace(_Frozen):
    """A subspace stored as a reduced-row-echelon basis over Fraction.

    The canonical form makes equality exact and deterministic.
    """

    _fields = ("basis",)

    def __init__(self, basis):
        _setattr(self, "basis", basis)

    @property
    def dim(self) -> int:
        return len(self.basis)


class Echelon:
    """A subspace as primitive integer rows in pivot order, fully reduced.

    Fraction-free elimination (Bareiss, Math. Comp. 22, 1968), kept in
    incremental echelon form: an insert reduces the vector against the rows
    by integer cross-multiplication, stops if the residual is zero, else
    makes the residual primitive with a positive pivot, clears the new
    pivot's column from the other rows and inserts it in pivot order.  Each
    row divided by its pivot is the unique RREF, which ``subspace()`` returns;
    it is the one elimination behind every ``Subspace``.
    """

    def __init__(self):
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def reduce(self, vec: Sequence[int]) -> list[int]:
        """A nonzero multiple of vec minus a combination of the rows, zero in every
        pivot column; zero iff vec lies in the span."""
        vec = list(vec)
        for row, p in zip(self.rows, self.pivots):
            m = vec[p]
            if m:
                lead = row[p]
                g = math.gcd(lead, m)
                lead, m = lead // g, m // g
                vec = [lead * v - m * r for v, r in zip(vec, row)]
        return vec

    def insert(self, vec: Sequence[int]) -> bool:
        """Extend the span by vec; False if vec already lies in it."""
        res = self.reduce(vec)
        g = math.gcd(*res)
        if g == 0:
            return False
        k = next(j for j, v in enumerate(res) if v)
        if res[k] < 0:
            g = -g
        res = [v // g for v in res]
        lead = res[k]
        for i, row in enumerate(self.rows):
            m = row[k]
            if m:
                cleared = [lead * r - m * v for r, v in zip(row, res)]
                g = math.gcd(*cleared)
                self.rows[i] = [r // g for r in cleared]
        pos = bisect.bisect(self.pivots, k)
        self.rows.insert(pos, res)
        self.pivots.insert(pos, k)
        return True

    def subspace(self) -> Subspace:
        return Subspace(tuple(unscaled(row, row[p]) for row, p in zip(self.rows, self.pivots)))


# ---------------------------------------------------------------------------
# eigenvalues of integer maps
# ---------------------------------------------------------------------------

def _orbit(step, g, vec, first):
    """vec, L vec, L^2 vec, ... for L = step(g, .), with first = L vec; each image is
    made only when the one before it has been taken."""
    yield vec
    while True:
        yield first
        first = step(g, first)


def _least_relation(orbit, coords):
    """(edge, p) for the orbit vec, L vec, L^2 vec, ... of a nonzero integer vec under
    a linear L that keeps a subspace V, vec in V, whose vectors are told apart by
    their entries at the positions coords: edge = [vec, L vec, ..., L^s vec] ends at
    the first L^s vec that lies in the span of the vectors before it, and
    p = [p_0, ..., p_(s-1), 1] is the least relation, sum_j p_j L^j vec = 0.

    The entries at coords are eliminated in an Echelon, each vector carrying the
    coefficients of its combination of the edge.  Where L maps integer vectors to
    integer vectors, p, the minimal polynomial of L on the cyclic span of vec,
    divides the characteristic polynomial of an integer matrix: it is monic in Z[t],
    and dividing the relation by its leading coefficient is exact."""
    n = len(coords)
    ech, edge = Echelon(), []
    for img in orbit:
        aug = [img[j] for j in coords] + [0] * (n + 1)
        aug[n + len(edge)] = 1
        edge.append(img)
        res = ech.reduce(aug)
        if not any(res[:n]):
            rel = res[n:n + len(edge)]
            return edge, [c // rel[-1] for c in rel]
        ech.insert(res)


def _deflated(p, r):
    """(q, p(r)) with p = (t - r) q + p(r), by synthetic division; coefficients
    lowest first."""
    q, acc = [], 0
    for c in reversed(p):
        acc = acc * r + c
        q.append(acc)
    rem = q.pop()
    return q[::-1], rem


def _largest_root(p):
    """The largest root of the monic integer p, of degree n >= 3, where every root is
    real and the largest an integer; elsewhere None or some integer root of p.

    Real roots lie in [L, U], within sqrt(n - 1) standard deviations of their mean
    (Laguerre-Samuelson), which the two leading coefficients give: a negative
    variance means complex roots and a zero one a repeated root.  Above the largest
    root of a real-rooted p, p, p' and p'' are positive and p / p' is at least 1/n
    of the distance to it, so integer Newton steps r -= max(1, p(r) // p'(r)) from U
    never pass an integer largest root and reach it within n (bit_length(U - L) + 2)
    steps; p(r) < 0, p'(r) <= 0 or more steps mean that p is not so."""
    n = len(p) - 1
    a, b = p[n - 1], p[n - 2]
    spread = (n - 1) * ((n - 1) * a * a - 2 * n * b)  # (n - 1) n^2 variance
    if spread <= 0:
        return None
    root = math.isqrt(spread) + 1
    r, low = -((a - root) // n), (-a - root) // n  # U and L, rounded outwards
    for _ in range(n * ((r - low).bit_length() + 2)):
        q, val = _deflated(p, r)
        if not val:
            return r
        slope = _deflated(q, r)[1]  # p'(r) = q(r)
        if val < 0 or slope <= 0:
            return None
        r -= max(1, val // slope)
    return None


def _integer_roots(p):
    """The roots of the monic integer p = [p_0, ..., p_(s-1), 1], s >= 1, if they are
    s distinct integers, else None.  A rational root of a monic integer polynomial
    is an integer; each root found is divided out exactly, and the last two come
    from the discriminant's integer square root."""
    roots = []
    while len(p) > 3:
        r = _largest_root(p)
        if r is None:
            return None
        p = _deflated(p, r)[0]
        roots.append(r)
    if len(p) == 3:
        c, b, _ = p
        disc = b * b - 4 * c
        d = math.isqrt(disc) if disc > 0 else 0
        if d * d != disc or not d:
            return None
        roots += [(d - b) // 2, (-d - b) // 2]
    else:
        roots.append(-p[0])
    return roots if len(set(roots)) == len(roots) else None


def _eigenlines(edge, p):
    """[(r, W, h), ...], one per root r of p, for the (edge, p) of _least_relation,
    where p has s distinct integer roots, else None.  With h_r = p / (t - r),
    W = h_r(L) vec is the sum of h_r's coefficients times the edge and h = h_r(r),
    so L W = r W and vec = sum W / h, the Lagrange split of vec; W / h is kept
    with h > 0.  For a single root, W is vec itself, edge[0], and h = 1."""
    roots = _integer_roots(p)
    if roots is None:
        return None
    if len(roots) == 1:
        return [(roots[0], edge[0], 1)]
    lines = []
    for r in roots:
        vec = [0] * len(edge[0])
        for c, v in zip(_deflated(p, r)[0], edge):
            if c:
                vec = [a + c * t for a, t in zip(vec, v)]
        h = math.prod(r - o for o in roots if o != r)
        c = math.gcd(*vec, h) * (1 if h > 0 else -1)
        lines.append((r, [a // c for a in vec], h // c))
    return lines


def _joint_split(step, gens, vec, coords, known=()):
    """{(r_0, ..., r_(k-1)): (W, h), ...}, the split of the nonzero integer vec into
    joint eigenlines of the commuting maps L_i = step(gens[i], .), with L_i W = r_i W,
    h > 0 and vec = sum W / h; None where a relation has a repeated, irrational or
    complex root.

    vec is split by each map in turn, each part by the relation of _least_relation
    from it (vectors told apart at coords) and _eigenlines.  known[i], where given,
    is the relation of L_i from vec itself, which the caller has taken; it is used
    while the part is still vec, that is, while every map before L_i has a single
    root on vec."""
    parts = {(): (vec, 1)}
    for i, g in enumerate(gens):
        split = {}
        for r, (part, h) in parts.items():
            relation = (known[i] if part is vec and i < len(known) else
                        _least_relation(_orbit(step, g, part, step(g, part)), coords))
            lines = _eigenlines(*relation)
            if lines is None:
                return None
            for root, sub, d in lines:
                split[r + (root,)] = (sub, h * d)
        parts = split
    return parts


class NilpotencyVerdict(_Frozen):
    """Outcome of the lower-central-series computation: nil_class is the smallest
    n with g_n = 0, stable the stabilized subspace when not nilpotent."""

    _fields = ("nilpotent", "nil_class", "stable")

    def __init__(self, nilpotent: bool, nil_class: int | None = None,
                 stable: Subspace | None = None):
        _setattr(self, "nilpotent", nilpotent)
        _setattr(self, "nil_class", nil_class)
        _setattr(self, "stable", stable)


class DerivedWeights(_Frozen):
    """ad g on an abelian [g,g], where it is diagonal over Q, as
    StructureConstants.derived_weights() finds it.

    [g,g] is the direct sum of the joint weight spaces V of the kernel's maps
    scaled_bracket(T_a, .), the algebra's den times ad T_a, and spaces holds one
    (r, cols) per V: r = (r_0, ..., r_(dim-1)), with r_a the eigenvalue of
    scaled_bracket(T_a, .) on V, and cols = ((p, col), ...), over the pivots p of
    derived_echelon()'s E, the integer vectors with which the projection of a
    vector w of [g,g] onto V is sum_p w[p] col / den, over this fact's one
    denominator den; a pivot whose E-row has no part in V is left out."""

    _fields = ("den", "spaces")

    def __init__(self, den: int, spaces: tuple):
        _setattr(self, "den", den)
        _setattr(self, "spaces", spaces)


# ---------------------------------------------------------------------------
# the algebra itself
# ---------------------------------------------------------------------------

class StructureConstants:
    """A validated Lie algebra given by structure constants.

    Construct through :func:`validate`; instances are immutable and safe to
    share between threads.  The nonzero constants f_ab^c, a < b, are kept as
    the integers den f_ab^c over their common denominator ``den``; the bracket
    kernel reads them as sparse integer rows.
    """

    def __init__(self, dim: int, constants: Mapping[tuple[int, int, int], Fraction],
                 basis_names: Sequence[str]):
        self.dim = dim
        self.basis_names = tuple(basis_names)
        self.den = math.lcm(*(v.denominator for v in constants.values()))
        # _scaled[a, b, c] = den f_ab^c for the nonzero constants, a < b, in sorted order
        self._scaled = {k: v.numerator * (self.den // v.denominator)
                        for k, v in sorted(constants.items())}
        # rows[a] = ((b, ((c, den f_ab^c), ...)), ...) over the nonzero brackets, both orientations
        rows = [[] for _ in range(dim)]
        for (a, b), group in itertools.groupby(self._scaled.items(), key=lambda kv: kv[0][:2]):
            scaled = tuple((c, v) for (_, _, c), v in group)
            rows[a].append((b, scaled))
            rows[b].append((a, tuple((c, -v) for c, v in scaled)))
        self._rows = tuple(tuple(sorted(r)) for r in rows)
        # integer coordinates of the basis elements T_a
        self.units = tuple(tuple(int(i == a) for i in range(dim)) for a in range(dim))
        self._derived: tuple | None = None  # derived_echelon(), on first call
        self._derived_rref: Subspace | None = None  # derived_subalgebra(), on first call
        self._weights: tuple = ()  # (derived_weights(),), on first call
        self._series: tuple | None = None  # _central_series(), on first call

    def __repr__(self):
        pairs = sum(map(len, self._rows)) // 2  # each nonzero bracket is in two rows
        return f"StructureConstants(dim={self.dim}, nonzero_pairs={pairs})"

    # -- elements ----------------------------------------------------------

    def element(self, values: Sequence) -> LieElement:
        """Build an element from ints, "p/q" strings, Fractions and floats.

        Without a float every coordinate is an exact Fraction.  With one, every
        coordinate is a float: the element is numeric, and each float is exact
        to the structural computations as the binary rational it holds.  A NaN
        or infinite coordinate, or an exact one beyond the double range, raises
        ValueError; a string or bytes in place of the coordinate sequence raises
        TypeError.
        """
        if isinstance(values, (str, bytes, bytearray)):
            raise TypeError(f"expected a sequence of coordinates, got {values!r}")
        if len(values) != self.dim:
            raise DimensionMismatch(f"expected {self.dim} coordinates, got {len(values)}")
        if not any(isinstance(v, float) for v in values):
            return LieElement(tuple(as_fraction(v) for v in values))
        coords = []
        for i, v in enumerate(values):
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"coordinate {i} is {v}, not a finite number")
            try:
                coords.append(v if isinstance(v, float) else float(as_fraction(v)))
            except OverflowError:
                raise ValueError(f"coordinate {i} lies beyond the double range") from None
        return LieElement(tuple(coords))

    def basis_element(self, a: int) -> LieElement:
        if not 0 <= a < self.dim:
            raise IndexOutOfRange(f"basis index {a} outside 0..{self.dim - 1}")
        return LieElement(tuple(Fraction(1 if i == a else 0) for i in range(self.dim)))

    def structure_constant(self, a: int, b: int, c: int) -> Fraction:
        key, sign = ((a, b, c), 1) if a < b else ((b, a, c), -1)
        return Fraction(sign * self._scaled.get(key, 0), self.den)

    def entries(self):
        """Sparse nonzero entries (a, b, c, value) with a < b."""
        for (a, b, c), v in self._scaled.items():
            yield a, b, c, Fraction(v, self.den)

    # -- bracket ------------------------------------------------------------

    def scaled_bracket(self, x: Sequence, y: Sequence) -> list:
        """den [x, y] for integer coordinate lists x, y, summed over the support of x.

        The one bracket kernel; every element reaches it through
        clear_denominators.  Entries no term reaches stay the int 0.
        """
        out = [0] * self.dim
        rows = self._rows
        for a, xa in enumerate(x):
            if xa:
                for b, vec in rows[a]:
                    yb = y[b]
                    if yb:
                        t = xa * yb
                        for c, f in vec:
                            out[c] += t * f
        return out

    def bracket(self, x: LieElement, y: LieElement) -> LieElement:
        if x.dim != self.dim or y.dim != self.dim:
            raise DimensionMismatch("element does not belong to this algebra")
        (xs, sx), (ys, sy) = clear_denominators(x.coords), clear_denominators(y.coords)
        return LieElement(unscaled(self.scaled_bracket(xs, ys), self.den * sx * sy))

    # -- subspaces -----------------------------------------------------------

    def derived_echelon(self) -> tuple[Echelon, bool]:
        """(E, abelian): the derived algebra [g,g], the span of the basis brackets
        [T_a, T_b], a < b, as an integer Echelon E, and whether [[g,g],[g,g]] = 0,
        from the brackets of E's rows taken pairwise up to the first nonzero one.

        The one elimination of [g,g], run on the first call and published in one
        assignment: threads that race on a fresh algebra each get an equal fact.
        E is shared, so a caller must not grow it."""
        fact = self._derived
        if fact is None:
            ech = Echelon()
            for a, b in itertools.combinations(self.units, 2):
                ech.insert(self.scaled_bracket(a, b))
            abelian = not any(any(self.scaled_bracket(a, b))
                              for a, b in itertools.combinations(ech.rows, 2))
            fact = self._derived = (ech, abelian)
        return fact

    def derived_subalgebra(self) -> Subspace:
        """[g,g] as the RREF of derived_echelon()'s rows, built on first call."""
        if self._derived_rref is None:
            self._derived_rref = self.derived_echelon()[0].subspace()
        return self._derived_rref

    def derived_weights(self) -> DerivedWeights | None:
        """The weights of ad g on [g,g] (DerivedWeights), or None where [g,g] is not
        abelian or ad g is not diagonal over Q on it.

        On an abelian [g,g], [ad a, ad b] = ad [a, b] vanishes there, so the maps
        ad T_a commute on [g,g].  Each row of E is split into joint eigenvectors of
        the maps scaled_bracket(T_a, .) (_joint_split), which holds where every
        relation has distinct integer roots; a row's parts are then its projections
        onto the joint weight spaces.
        Run on the first call and published in one assignment, as derived_echelon()
        is; E is not grown."""
        fact = self._weights
        if not fact:
            fact = self._weights = (self._split_derived(),)
        return fact[0]

    def _split_derived(self) -> DerivedWeights | None:
        ech, abelian = self.derived_echelon()
        if not abelian:
            return None
        # parts[i] = {r: (W, h)}: E-row i is the sum of W / h over its weights r
        parts = [_joint_split(self.scaled_bracket, self.units, row, ech.pivots)
                 for row in ech.rows]
        if None in parts:
            return None
        # w = sum_i w[p_i] row_i / row_i[p_i], so its part in V is sum_i w[p_i] W / (h row_i[p_i])
        den = math.lcm(*(h * row[p] for row, p, split in zip(ech.rows, ech.pivots, parts)
                         for _, h in split.values()))
        spaces = {}
        for row, p, split in zip(ech.rows, ech.pivots, parts):
            for r, (vec, h) in split.items():
                k = den // (h * row[p])
                spaces.setdefault(r, []).append((p, tuple(k * c for c in vec)))
        return DerivedWeights(den, tuple((r, tuple(cols)) for r, cols in sorted(spaces.items())))

    def _central_series(self) -> tuple:
        """(chain, nilpotent): the lower central series g_1 = [g,g], g_n = [g, g_(n-1)]
        as integer Echelons, from derived_echelon()'s E up to the first term that is
        zero (g is nilpotent) or, as each term lies in the one before it, equal to
        the one before it in dimension (g is not).  Run on the first call and
        published in one assignment, as derived_echelon() is; the Echelons are
        shared, so a caller must not grow them."""
        fact = self._series
        if fact is None:
            chain, before = [self.derived_echelon()[0]], None
            while chain[-1].rows and len(chain[-1].rows) != before:
                before, nxt = len(chain[-1].rows), Echelon()
                for row in chain[-1].rows:
                    for e in self.units:
                        nxt.insert(self.scaled_bracket(e, row))
                chain.append(nxt)
            fact = self._series = (tuple(chain), not chain[-1].rows)
        return fact

    def lower_central_series(self) -> tuple[list[Subspace], NilpotencyVerdict]:
        """Chain g_1 = [g,g], g_n = [g, g_{n-1}] until zero or stabilization, the
        RREFs of _central_series()."""
        series, nilpotent = self._central_series()
        chain = [ech.subspace() for ech in series]
        if nilpotent:
            return chain, NilpotencyVerdict(True, nil_class=len(chain))
        return chain, NilpotencyVerdict(False, stable=chain[-1])

    # -- JSON ------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "basis_names": list(self.basis_names),
            "f": [
                {"a": a, "b": b, "c": c, "v": str(v)}
                for a, b, c, v in self.entries()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "StructureConstants":
        dim = data["dim"]
        entries = {}
        for item in data.get("f", []):
            key = (item["a"], item["b"], item["c"])
            val = as_fraction(item["v"])
            if key in entries and entries[key] != val:
                raise AntisymmetryViolation(*key, message=f"conflicting duplicates for {key}")
            entries[key] = val
        return validate(entries, dim, basis_names=data.get("basis_names"))


def validate(entries: Mapping[tuple[int, int, int], object] | Iterable,
             dim: int,
             basis_names: Sequence[str] | None = None) -> StructureConstants:
    """Validate sparse structure constants and build the algebra.

    Either orientation of (a, b) may be supplied; the other is completed by
    antisymmetry.  Supplying both with inconsistent values raises
    AntisymmetryViolation.  The Jacobi identity is checked exhaustively over
    basis triples a < b < c (triples with a repeated index hold automatically).
    A dim or an index that is not an int (a bool included), or basis_names that
    is a string or holds anything but strings, raises TypeError.
    """
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise TypeError(f"dim must be an integer, got {dim!r}")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if basis_names is None:
        basis_names = [f"T{i}" for i in range(dim)]
    if isinstance(basis_names, str) or not all(isinstance(n, str) for n in basis_names):
        raise TypeError(f"basis_names must be a sequence of strings, got {basis_names!r}")
    if len(basis_names) != dim:
        raise ValueError("basis_names length must equal dim")

    items = entries.items() if isinstance(entries, Mapping) else list(entries)
    oriented: dict[tuple[int, int, int], Fraction] = {}
    for (a, b, c), raw in items:
        for idx in (a, b, c):
            if not isinstance(idx, int) or isinstance(idx, bool):
                raise TypeError(f"index {idx!r} of entry {(a, b, c)!r} is not an integer")
            if not 0 <= idx < dim:
                raise IndexOutOfRange(f"index {idx} outside 0..{dim - 1}")
        val = as_fraction(raw)
        if (a, b, c) in oriented and oriented[(a, b, c)] != val:
            raise AntisymmetryViolation(a, b, c, f"conflicting duplicates for f_({a},{b})^{c}")
        oriented[(a, b, c)] = val

    canon: dict[tuple[int, int, int], Fraction] = {}
    for (a, b, c), val in oriented.items():
        if a == b:
            if val != 0:
                raise AntisymmetryViolation(a, b, c, f"f_({a},{a})^{c} must vanish")
            continue
        key = (a, b, c) if a < b else (b, a, c)
        signed = val if a < b else -val
        if canon.setdefault(key, signed) != signed:
            raise AntisymmetryViolation(a, b, c)

    alg = StructureConstants(dim, {k: v for k, v in canon.items() if v}, basis_names)

    # den^2 ([T_a,[T_b,T_c]] + [T_b,[T_c,T_a]] + [T_c,[T_a,T_b]]) on the kernel
    units, kernel = alg.units, alg.scaled_bracket
    inner = {(q, r): kernel(units[q], units[r]) for q in range(dim) for r in range(q + 1, dim)}
    for a in range(dim):
        for b in range(a + 1, dim):
            for c in range(b + 1, dim):
                residual = [s - t + u for s, t, u in zip(kernel(units[a], inner[b, c]),
                                                          kernel(units[b], inner[a, c]),
                                                          kernel(units[c], inner[a, b]))]
                if any(residual):
                    e = next(e for e, res in enumerate(residual) if res)
                    raise JacobiViolation(a, b, c, e, Fraction(residual[e], alg.den ** 2))
    return alg
