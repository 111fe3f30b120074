"""Finite-dimensional Lie algebras over exact rationals.

An algebra is defined by structure constants on a chosen basis,
[T_a, T_b] = f_ab^c T_c, entered sparsely and validated for antisymmetry
and the Jacobi identity.  All structural computations (brackets, adjoints,
subspaces, the lower central series) run in exact rational arithmetic so
that later condition checks are equalities, not tolerance tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence


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
    """Coerce an int, string ("p/q" or "p"), or Fraction to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LieElement:
    """A coordinate vector x^a over the algebra basis T_a.

    Coordinates are Fractions in exact mode or floats in numeric mode;
    arithmetic degrades from exact to float automatically when mixed.
    """

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def is_exact(self) -> bool:
        return all(isinstance(c, Fraction) for c in self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _check(self, other: "LieElement"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")

    def __add__(self, other: "LieElement") -> "LieElement":
        self._check(other)
        return LieElement(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "LieElement") -> "LieElement":
        self._check(other)
        return LieElement(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "LieElement":
        return LieElement(tuple(-a for a in self.coords))

    def scale(self, s) -> "LieElement":
        return LieElement(tuple(s * a for a in self.coords))

    def __rmul__(self, s) -> "LieElement":
        return self.scale(s)

    def to_float(self) -> "LieElement":
        return LieElement(tuple(float(a) for a in self.coords))

    def sup_norm(self) -> float:
        return max((abs(float(a)) for a in self.coords), default=0.0)


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def _rref(vectors: Iterable[Sequence[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    """Reduced row echelon form over Fraction; leftmost-pivot, deterministic."""
    rows = [list(v) for v in vectors if any(c != 0 for c in v)]
    if not rows:
        return ()
    ncols = len(rows[0])
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][col]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                m = rows[i][col]
                rows[i] = [x - m * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    out = [tuple(row) for row in rows[:r] if any(c != 0 for c in row)]
    return tuple(out)


def nullspace_basis(vectors: Sequence[Sequence[Fraction]], dim: int) -> list[tuple[Fraction, ...]]:
    """Exact basis of {n : v . n = 0 for all given v}, via RREF free variables."""
    rows = _rref([list(v) for v in vectors])
    pivots = []
    for row in rows:
        pivots.append(next(j for j, x in enumerate(row) if x != 0))
    free = [j for j in range(dim) if j not in pivots]
    basis = []
    for j in free:
        vec = [Fraction(0)] * dim
        vec[j] = Fraction(1)
        for row, p in zip(rows, pivots):
            vec[p] = -row[j]
        basis.append(tuple(vec))
    return basis


@dataclass(frozen=True)
class Subspace:
    """A subspace stored as a reduced-row-echelon basis over Fraction.

    The canonical form makes equality and membership exact and deterministic.
    """

    basis: tuple

    @classmethod
    def span(cls, vectors: Iterable[Sequence]) -> "Subspace":
        vecs = []
        for v in vectors:
            coords = v.coords if isinstance(v, LieElement) else tuple(v)
            if not all(isinstance(c, Fraction) for c in coords):
                raise TypeError("subspace arithmetic requires exact rational coordinates")
            vecs.append(coords)
        return cls(_rref(vecs))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def _pivots(self) -> list[int]:
        return [next(j for j, x in enumerate(row) if x != 0) for row in self.basis]

    def reduce(self, vector) -> tuple:
        """Residual after eliminating against the basis; zero iff contained."""
        coords = list(vector.coords if isinstance(vector, LieElement) else vector)
        for row, p in zip(self.basis, self._pivots()):
            if coords[p] != 0:
                m = coords[p]
                coords = [x - m * y for x, y in zip(coords, row)]
        return tuple(coords)

    def contains(self, vector) -> bool:
        return all(c == 0 for c in self.reduce(vector))

    def coefficients(self, vector) -> tuple:
        """Coordinates of a member vector in this basis (valid iff contains())."""
        coords = vector.coords if isinstance(vector, LieElement) else tuple(vector)
        return tuple(coords[p] for p in self._pivots())

    def extended(self, vector) -> "Subspace":
        coords = vector.coords if isinstance(vector, LieElement) else tuple(vector)
        return Subspace(_rref(list(self.basis) + [coords]))


@dataclass(frozen=True)
class NilpotencyVerdict:
    """Outcome of the lower-central-series computation."""

    nilpotent: bool
    nil_class: int | None = None      # smallest n with g_n = 0
    stable: Subspace | None = None    # the stabilized subspace when not nilpotent


# ---------------------------------------------------------------------------
# adjoint operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdjointOperator:
    """Matrix of L_X: Y -> [X, Y]; matrix[c][b] = x^a f_ab^c."""

    matrix: tuple

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def apply(self, y):
        coords = y.coords if isinstance(y, LieElement) else tuple(y)
        if len(coords) != self.dim:
            raise DimensionMismatch(f"dim {len(coords)} vs {self.dim}")
        out = tuple(
            sum((m * c for m, c in zip(row, coords) if m != 0), Fraction(0))
            for row in self.matrix
        )
        return LieElement(out) if isinstance(y, LieElement) else out

    def is_zero(self) -> bool:
        return all(all(m == 0 for m in row) for row in self.matrix)

    def sparse_rows(self) -> list[list[tuple[int, object]]]:
        """Per-row (column, value) pairs; convenient for repeated application."""
        return [[(b, m) for b, m in enumerate(row) if m != 0] for row in self.matrix]


# ---------------------------------------------------------------------------
# the algebra itself
# ---------------------------------------------------------------------------

class StructureConstants:
    """A validated Lie algebra given by structure constants.

    Construct through :func:`validate`; instances are immutable and safe to
    share between threads.  Basis brackets are stored densely per (a, b)
    pair with a < b.
    """

    def __init__(self, dim: int, pair_brackets: Mapping[tuple[int, int], tuple],
                 basis_names: Sequence[str]):
        self.dim = dim
        self.basis_names = tuple(basis_names)
        self._pairs = {k: tuple(v) for k, v in pair_brackets.items()}
        self._derived: Subspace | None = None
        self._facts = None  # detect.AlgebraFacts, filled by detect.algebra_facts

    def __repr__(self):
        return f"StructureConstants(dim={self.dim}, nonzero_pairs={len(self._pairs)})"

    # -- elements ----------------------------------------------------------

    def element(self, values: Sequence) -> LieElement:
        """Build an element; ints/strings/Fractions become exact, floats stay float."""
        if len(values) != self.dim:
            raise DimensionMismatch(f"expected {self.dim} coordinates, got {len(values)}")
        coords = tuple(v if isinstance(v, float) else as_fraction(v) for v in values)
        return LieElement(coords)

    def zero(self) -> LieElement:
        return LieElement((Fraction(0),) * self.dim)

    def basis_element(self, a: int) -> LieElement:
        if not 0 <= a < self.dim:
            raise IndexOutOfRange(f"basis index {a} outside 0..{self.dim - 1}")
        return LieElement(tuple(Fraction(1 if i == a else 0) for i in range(self.dim)))

    def _signed_pair(self, a: int, b: int):
        """(sign, vec) with [T_a, T_b] = sign * vec, or None when the bracket is zero."""
        key, sign = ((a, b), 1) if a < b else ((b, a), -1)
        vec = self._pairs.get(key)
        return None if vec is None else (sign, vec)

    def structure_constant(self, a: int, b: int, c: int) -> Fraction:
        hit = self._signed_pair(a, b)
        return hit[0] * hit[1][c] if hit is not None else Fraction(0)

    def entries(self):
        """Sparse nonzero entries (a, b, c, value) with a < b."""
        for (a, b), vec in sorted(self._pairs.items()):
            for c, v in enumerate(vec):
                if v != 0:
                    yield a, b, c, v

    # -- bracket and adjoint ------------------------------------------------

    def bracket(self, x: LieElement, y: LieElement) -> LieElement:
        if x.dim != self.dim or y.dim != self.dim:
            raise DimensionMismatch("element does not belong to this algebra")
        out = [Fraction(0)] * self.dim
        for (a, b), vec in self._pairs.items():
            coef = x.coords[a] * y.coords[b] - x.coords[b] * y.coords[a]
            if coef != 0:
                for c, v in enumerate(vec):
                    if v != 0:
                        out[c] = out[c] + coef * v
        return LieElement(tuple(out))

    def _bracket_basis_with(self, a: int, coords: Sequence) -> tuple:
        """[T_a, v] for a coordinate vector v."""
        out = [Fraction(0)] * self.dim
        for b, xb in enumerate(coords):
            hit = self._signed_pair(a, b) if xb != 0 else None
            if hit is None:
                continue
            sign, vec = hit
            for c, v in enumerate(vec):
                if v != 0:
                    out[c] = out[c] + sign * xb * v
        return tuple(out)

    def adjoint(self, x: LieElement) -> AdjointOperator:
        if x.dim != self.dim:
            raise DimensionMismatch("element does not belong to this algebra")
        # column b is [x, T_b] = -[T_b, x]
        cols = [self._bracket_basis_with(b, x.coords) for b in range(self.dim)]
        matrix = tuple(tuple(-cols[b][c] for b in range(self.dim)) for c in range(self.dim))
        return AdjointOperator(matrix)

    # -- subspaces -----------------------------------------------------------

    def derived_subalgebra(self) -> Subspace:
        """Echelonized span of all basis brackets [T_a, T_b], a < b."""
        if self._derived is None:
            self._derived = Subspace.span(self._pairs.values())
        return self._derived

    def lower_central_series(self) -> tuple[list[Subspace], NilpotencyVerdict]:
        """Chain g_1 = [g,g], g_n = [g, g_{n-1}] until zero or stabilization."""
        current = self.derived_subalgebra()
        chain = [current]
        if current.is_zero():
            return chain, NilpotencyVerdict(True, nil_class=1)
        for _ in range(self.dim + 1):
            images = [
                self._bracket_basis_with(a, w)
                for a in range(self.dim)
                for w in current.basis
            ]
            nxt = Subspace.span(images)
            chain.append(nxt)
            if nxt.is_zero():
                return chain, NilpotencyVerdict(True, nil_class=len(chain))
            if nxt == current:
                return chain, NilpotencyVerdict(False, stable=nxt)
            current = nxt
        raise AssertionError("lower central series failed to stabilize")  # unreachable

    def span_closure(self, seeds: Sequence[LieElement],
                     operators: Sequence[AdjointOperator]) -> Subspace:
        """Smallest subspace containing the seeds and invariant under the operators."""
        sub = Subspace.span([s for s in seeds if not s.is_zero()])
        changed = True
        while changed:
            changed = False
            for vec in sub.basis:
                for op in operators:
                    img = op.apply(vec)
                    if any(c != 0 for c in img) and not sub.contains(img):
                        sub = sub.extended(img)
                        changed = True
        return sub

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
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if basis_names is None:
        basis_names = [f"T{i}" for i in range(dim)]
    if len(basis_names) != dim:
        raise ValueError("basis_names length must equal dim")

    items = entries.items() if isinstance(entries, Mapping) else list(entries)
    oriented: dict[tuple[int, int, int], Fraction] = {}
    for (a, b, c), raw in items:
        for idx in (a, b, c):
            if not isinstance(idx, int) or not 0 <= idx < dim:
                raise IndexOutOfRange(f"index {idx} outside 0..{dim - 1}")
        val = as_fraction(raw)
        if (a, b, c) in oriented and oriented[(a, b, c)] != val:
            raise AntisymmetryViolation(a, b, c, f"conflicting duplicates for f_({a},{b})^{c}")
        oriented[(a, b, c)] = val

    canon: dict[tuple[int, int, int], Fraction] = {}
    supplied_both: set[tuple[int, int, int]] = set()
    for (a, b, c), val in oriented.items():
        if a == b:
            if val != 0:
                raise AntisymmetryViolation(a, b, c, f"f_({a},{a})^{c} must vanish")
            continue
        key = (a, b, c) if a < b else (b, a, c)
        signed = val if a < b else -val
        if key in canon:
            if canon[key] != signed:
                raise AntisymmetryViolation(a, b, c)
            supplied_both.add(key)
        else:
            canon[key] = signed

    pair_brackets: dict[tuple[int, int], list] = {}
    for (a, b, c), val in canon.items():
        if val == 0:
            continue
        vec = pair_brackets.setdefault((a, b), [Fraction(0)] * dim)
        vec[c] = val
    pair_brackets = {k: v for k, v in pair_brackets.items() if any(x != 0 for x in v)}

    alg = StructureConstants(dim, pair_brackets, basis_names)

    for a in range(dim):
        for b in range(a + 1, dim):
            for c in range(b + 1, dim):
                residual = [Fraction(0)] * dim
                for (p, q, r) in ((a, b, c), (b, c, a), (c, a, b)):
                    inner = alg._signed_pair(q, r)
                    if inner is None:
                        continue
                    sign, vec = inner
                    term = alg._bracket_basis_with(p, vec)
                    residual = [s + sign * t for s, t in zip(residual, term)]
                for e, res in enumerate(residual):
                    if res != 0:
                        raise JacobiViolation(a, b, c, e, res)
    return alg
