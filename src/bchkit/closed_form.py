"""Closed-form composition ln(e^X e^Y) = X + Y + f(.,.) [X,Y].

The symmetric function

    f(u, v) = ((u-v) e^(u+v) - (u e^u - v e^v)) / (u v (e^u - e^v))

has removable singularities at u = 0, v = 0 and u = v.  Near the origin the
scalar evaluator takes the exact bivariate Taylor polynomial of f, rewritten
in the symmetric s = u + v and p = u v and evaluated by nested Horner's rule.
Outside that box it uses one rearrangement of the quotient that keeps its
digits on the axes, on the diagonal and up to the double range, with no case
of their own.  The operator form f(L_X, -L_Y) [X,Y] is used when the scalar
hypothesis fails but the adjoints effectively commute: where L_X and L_Y split
[X,Y] into joint eigenlines over Q it is the scalar form once per line, with the
lines read off weights the algebra computes once where it can; otherwise one
walk of L_X^i L_Y^j [X,Y] on integers gives its exact graded parts for the same
Taylor coefficients, summed exactly when the series terminates and in floating
point otherwise.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Sequence

from .algebra import (
    DimensionMismatch,
    Echelon,
    LieElement,
    StructureConstants,
    _Frozen,
    _joint_split,
    _least_relation,
    _orbit,
    _setattr,
    as_fraction,
    unscaled,
    validate,
)
from .detect import CaseClassification, CaseTag, _closure, _uv_field, classify_pair

SERIES_CROSSOVER = 0.25     # switch to the Taylor series inside this box
SERIES_DEGREE = 20          # series truncation of the scalar evaluator

OPERATOR_MAX_DEGREE = 48    # hard cap for the adaptive operator series
OPERATOR_RADIUS = math.pi   # heuristic convergence radius for restricted adjoints


class ClassificationMismatch(ValueError):
    """bch_closed_form got a certificate that classify_pair did not make for this pair."""


class NonConvergence(RuntimeError):
    """Operator series cannot reach the target tolerance: the restricted adjoint
    norm is not inside OPERATOR_RADIUS (achieved_bound is None), or it is and
    the tail bound at OPERATOR_MAX_DEGREE is still above the tolerance.  Only a
    series that neither terminates nor splits into joint eigenlines is summed
    this way, so only such a pair raises it."""

    def __init__(self, spectral_bound: float, achieved_bound: float | None):
        self.spectral_bound = spectral_bound
        self.achieved_bound = achieved_bound
        if achieved_bound is None:
            msg = f"operator series not convergent: restricted adjoint norm {spectral_bound:.3g}"
        else:
            msg = (f"operator series missed the tolerance by degree {OPERATOR_MAX_DEGREE}: "
                   f"restricted adjoint norm {spectral_bound:.3g} is inside the radius pi, "
                   f"best tail bound {achieved_bound:.3g}")
        super().__init__(msg)


class NoClosedFormAvailable(ValueError):
    """No condition in the detector hierarchy applies to the pair."""


class BchResult(_Frozen):
    """Output of a closed-form evaluation.  residual_bound covers 8 ulp of the final
    combine x + y + f w for ScalarF, the same summed over the lines of an OperatorF
    split into joint eigenlines, and the geometric tail estimate (radius pi) for a
    non-terminating OperatorF that does not split, never the error of f; exact
    results give 0.0 or None.

    exact is True iff neither x nor y holds a float and the form takes no float
    value of f (Sum, Central, ScalarF at u = v = 0, terminating OperatorF): z is then
    all Fraction, one per coordinate of an integer sum; otherwise z is all float.
    method is one of Sum, Central, ScalarF and OperatorF.  degree is the last degree
    of f's series summed by a series OperatorF, else None.

    A ScalarF result keeps the certificate's ratios _uv = (un, ud, vn, vd),
    keyword-only and private, not the certificate, and builds u = un / ud and
    v = vn / vd from them on first read; u and v are None where _uv is None.
    An OperatorF result split into joint eigenlines w = sum_k w_k keeps one such
    ratio per line, _lines, and builds lines = ((u_k, v_k), ...) from them on first
    read, with L_X w_k = v_k w_k and L_Y w_k = -u_k w_k; lines is None where _lines
    is.  _uv, _lines and lines take no part in ==, hash or repr."""

    _fields = ("z", "method", "exact", "residual_bound", "u", "v", "degree")

    def __init__(self, z: LieElement, method: str, exact: bool,
                 residual_bound: float | None = None, degree: int | None = None, *,
                 _uv: tuple | None = None, _lines: tuple | None = None):
        _setattr(self, "z", z)
        _setattr(self, "method", method)
        _setattr(self, "exact", exact)
        _setattr(self, "residual_bound", residual_bound)
        _setattr(self, "degree", degree)
        _setattr(self, "_uv", _uv)
        _setattr(self, "_lines", _lines)

    u = _uv_field(0)
    v = _uv_field(2)

    @cached_property
    def lines(self) -> tuple | None:
        if self._lines is None:
            return None
        return tuple((Fraction(un, ud), Fraction(vn, vd)) for un, ud, vn, vd in self._lines)


# ---------------------------------------------------------------------------
# exact bivariate Taylor series of f
# ---------------------------------------------------------------------------

class BivariateSeries(_Frozen):
    """Truncated power series sum c_ij u^i v^j with exact coefficients, held as the
    graded integer rows that _f_rows gives: rows[m] = ([A_m0, ..., A_0m], q_m) with
    c_ij = A_ij / q_m for i + j = m.  max_degree is len(rows) - 1, and coefficients,
    the Fraction table {(i, j): c_ij} with its zeros, is built on first read.
    ValueError unless each row m holds m + 1 entries.  evaluate() needs a symmetric
    table, c_ij = c_ji, as f_series gives.  The table is a dict, so a series is not
    hashable."""

    _fields = ("coefficients", "max_degree")

    def __init__(self, rows: tuple):
        if any(len(row) != m + 1 for m, (row, _) in enumerate(rows)):
            raise ValueError("row m of a series table must hold m + 1 coefficients")
        _setattr(self, "rows", rows)

    @property
    def max_degree(self) -> int:
        return len(self.rows) - 1

    @cached_property
    def coefficients(self) -> dict:
        return {(m - j, j): Fraction(a, q)
                for m, (row, q) in enumerate(self.rows) for j, a in enumerate(row)}

    def evaluate(self, u: float, v: float) -> float:
        """Float value at u, v by nested Horner in s = u + v and p = u v: an
        outer Horner in p over rows that are each a Horner polynomial in s
        (see _horner_rows).  Exact-symmetric in u, v."""
        s, p = u + v, u * v
        total = 0.0
        for row in self._horner_rows:
            acc = 0.0
            for d in row:
                acc = acc * s + d
            total = total * p + acc
        return total

    @cached_property
    def _horner_rows(self) -> tuple:
        """The table as sum d_ab s^a p^b, a + 2b <= max_degree, with s = u + v and
        p = u v: row b holds float(d_ab) for a from max_degree - 2b down to 0,
        and the rows run from the highest b down to 0.

        For a symmetric table the degree-m part is sum_{i>j} c_ij p^j P_(i-j) plus
        c_kk p^k for m = 2k, with the power sums P_n = u^n + v^n = s P_(n-1) - p P_(n-2),
        P_0 = 2, P_1 = s, as integer polynomials in s and p.  Each degree runs on
        the integers A_ij = c_ij q_m of rows; the quotient by q_m is the only
        rounding.  ValueError if the table is not symmetric.
        """
        n = self.max_degree
        power_sums = [[2], [1]]  # P_k[b] = coefficient of s^(k-2b) p^b
        for k in range(2, n + 1):
            s_term, p_term = power_sums[k - 1], [0] + power_sums[k - 2]
            power_sums.append([x - y for x, y in itertools.zip_longest(s_term, p_term,
                                                                       fillvalue=0)])
        rows = [[] for _ in range(n // 2 + 1)]  # rows[b] gets d_ab for a = m - 2b, m ascending
        for m, (row, q) in enumerate(self.rows):
            if row != row[::-1]:
                raise ValueError(f"evaluate needs a symmetric table; degree {m} is not")
            part = [0] * (m // 2 + 1)  # part[b] = q_m d_(m-2b),b
            for j in range((m + 1) // 2):
                for b, e in enumerate(power_sums[m - 2 * j]):
                    part[j + b] += row[j] * e
            if m % 2 == 0:
                part[m // 2] += row[m // 2]
            for b, num in enumerate(part):
                rows[b].append(num / q)  # int / int rounds once, correctly
        return tuple(tuple(reversed(r)) for r in reversed(rows))


# (rows, prefix, K_s) of _f_rows through degree s; each step publishes a whole table in one
# assignment, so no lock is needed: a racing writer can only put back a shorter table
_F_TABLE: tuple = ((), (), 1)


def _f_rows(degree: int) -> tuple:
    """The rows ([A_m0, ..., A_0m], q_m) for m = 0 .. degree, c_ij = A_ij / q_m over the
    least common denominator of degree m, after growing the table to degree."""
    # Write g(t) = (1 - e^-t)/t.  Both g(u) - g(v) and e^-u - e^-v vanish on
    # the diagonal, so divide each by (u - v):
    #   [(h(u)-h(v))/(u-v)]_ij = h_{i+j+1}  for a univariate series h.
    # With h = g and h = e^-t this leaves two regular bivariate series whose
    # quotient is f, with coefficients that depend only on the total degree s:
    # n_s = (-1)^(s+1)/(s+2)! above and e_s = (-1)^(s+1)/(s+1)! below, e_0 = -1.
    # Long division then gives, for i + j = s,
    #   c_ij = sum_{t<s} e_{s-t} sum_{k+l=t, k<=i, l<=j} c_kl  -  n_s,
    # where the inner sum is a difference of two prefix sums along the
    # anti-diagonal t, so degree s costs O(s^2) terms.  Every denominator of
    # degree s divides K_s = prod_{m<=s} (m+2)!, so the recurrence runs on the
    # integers c_ij K_s, and f is symmetric, so only i >= j is computed.
    global _F_TABLE
    rows, prefix, scale = _F_TABLE  # prefix[t][k] = K_t sum_{k' < k} c_{k', t-k'}
    for s in range(len(rows), degree + 1):
        # weight[t] = e_{s-t} K_s / K_t, with K_s / K_t = prod_{t<m<=s} (m+2)!
        weight = [0] * s
        ratio = 1
        for t in range(s - 1, -1, -1):
            ratio *= math.factorial(t + 3)
            weight[t] = (-1) ** (s - t + 1) * (ratio // math.factorial(s - t + 1))
        row = [0] * (s + 1)
        for i in range(s, (s - 1) // 2, -1):
            j = s - i
            acc = (-1) ** s * scale  # -n_s K_s, with scale still K_(s-1)
            for t in range(s):
                pt = prefix[t]
                acc += weight[t] * (pt[min(i, t) + 1] - pt[max(0, t - j)])
            row[i] = row[j] = acc
        scale *= math.factorial(s + 2)
        g = math.gcd(*row, scale)  # A_s = row / g over q_s = K_s / g
        rows += ((tuple(c // g for c in row), scale // g),)
        prefix += (tuple(itertools.accumulate(row, initial=0)),)
        _F_TABLE = rows, prefix, scale
    return rows[:degree + 1]


@lru_cache(maxsize=None)
def f_series(max_total_degree: int) -> BivariateSeries:
    """Exact Taylor coefficients of f about (0,0) through the given total degree."""
    if max_total_degree < 0:
        raise ValueError("degree must be >= 0")
    return BivariateSeries(_f_rows(max_total_degree))


# ---------------------------------------------------------------------------
# scalar evaluation
# ---------------------------------------------------------------------------

def _f_closed(u: float, v: float) -> float:
    """f(u, v) for u >= v outside the series box, or inf where f overflows.

    With phi(t) = (1 - e^-t)/t, phi(0) = 1, f = (phi(-q)/phi(p - q) - 1)/p for
    either order (p, q) of (u, v).  Take |p| >= |q|: then "ratio - 1" = p f
    cancels only as p goes to 0, which the box rules out.  As phi(-t) = e^t phi(t),
    ratio/p = e^E phi(|q|) (d/p)/(1 - e^-d) with d = u - v >= 0 and
    E = v - min(q, 0), which is max(v, 0) or max(v, -d).  phi(|q|) is in (0, 1]
    and |d/p| <= 2, so only e^E can overflow.
    """
    p, q = (u, v) if abs(u) >= abs(v) else (v, u)
    t, d = abs(q), u - v
    phi_q = -math.expm1(-t) / t if t else 1.0
    # d/p from halves, which stays finite where u - v overflows
    scale = (0.5 * u - 0.5 * v) / (0.5 * p) / -math.expm1(-d) if d else 1.0 / p
    try:
        half = math.exp((v - min(q, 0.0)) / 2)  # e^E in two factors: e^E alone
    except OverflowError:                       # can overflow where f does not
        return math.inf  # E > 2 ln(DBL_MAX), where f > e^E / (2 E^2) overflows too
    return half * (half * (phi_q * scale)) - 1.0 / p


def f_scalar(u, v) -> float:
    """Robust evaluation of f(u, v); exact-symmetric in its arguments.

    OverflowError only where |f| exceeds the double range."""
    u, v = float(u), float(v)
    if not (math.isfinite(u) and math.isfinite(v)):
        raise ValueError("f requires finite arguments")
    a, b = (v, u) if u < v else (u, v)
    if max(abs(a), abs(b), abs(a - b)) < SERIES_CROSSOVER:
        return f_series(SERIES_DEGREE).evaluate(a, b)
    value = _f_closed(a, b)
    if math.isinf(value):
        raise OverflowError(f"f({u!r}, {v!r}) exceeds double-precision exp range")
    return value


# ---------------------------------------------------------------------------
# closed-form BCH variants
# ---------------------------------------------------------------------------

def _check_tolerance(target_tolerance: float) -> None:
    if not (target_tolerance > 0 and math.isfinite(target_tolerance)):
        raise ValueError(f"target_tolerance must be positive and finite, got {target_tolerance}")


def _finite(coords) -> list[float]:
    """The floats coords yields, or OverflowError naming the first coordinate of z
    that is not finite or whose int / int or float() overflows, as f_scalar does."""
    z = []
    with contextlib.suppress(OverflowError):
        for c in coords:
            if not math.isfinite(c):
                break
            z.append(c)
        else:
            return z
    raise OverflowError(f"coordinate {len(z)} of z lies beyond the double range")


def _sum_form(a, b) -> tuple[list[int], int]:
    """The integer form (A sb + B sa, sa sb) of A / sa + B / sb, for integer forms
    a = (A, sa) and b = (B, sb)."""
    (av, sa), (bv, sb) = a, b
    return [p * sb + q * sa for p, q in zip(av, bv)], sa * sb


def _plus_term(sums, k, vec, st):
    """Each float s_i of sums plus k t_i, where t_i = T_i / st rounds once."""
    return (s + k * (t / st) for s, t in zip(sums, vec))


def _combined(method: str, x: LieElement, y: LieElement, scaled, term=None, weighted=(),
              **fields) -> BchResult:
    """The result z = x + y + t + sum_k f_k t_k, where t = T / st for the integer form
    term = (T, st), or t = 0 for no term, weighted = [(f_k, (T_k, st_k)), ...] pairs
    a float value f_k of f with the integer form of t_k, and scaled holds the integer
    forms ((xs, sx), (ys, sy)) of x and y.

    exact means that neither x nor y holds a float and that weighted is empty; then
    each coordinate of z is one Fraction of the integer sum.  Otherwise every
    coordinate is a float, and each int / int rounds once: x + y is
    (xs sy + ys sx) / (sx sy) for exact x, y, and the float add x_i + y_i, which
    keeps -0.0, for float input; each t_i is T_i / st, the terms are added in
    order, and z is _finite.  fields go to BchResult as they are, but with weighted
    terms, residual_bound is the sum over them of 8 ulp of |f_k| |t_k|_inf.
    """
    if x.is_exact and y.is_exact:
        xy = _sum_form(*scaled)
        if not weighted:
            z = unscaled(*(xy if term is None else _sum_form(xy, term)))
            return BchResult(LieElement(z), method, exact=True, **fields)
        num, den = xy
        sums = (c / den for c in num)
    else:
        sums = (float(a + b) for a, b in zip(x.coords, y.coords))
    if term is not None:
        sums = _plus_term(sums, 1.0, *term)  # 1.0 t_i is t_i
    for fval, (vec, st) in weighted:
        sums = _plus_term(sums, fval, vec, st)
    z = LieElement(_finite(sums))
    if weighted:  # after _finite, no T_i / st overflows
        bound = 0.0
        for fval, (vec, st) in weighted:
            bound += 8.0 * 2.0**-53 * abs(fval) * (max(map(abs, vec)) / st)
        fields["residual_bound"] = bound
    return BchResult(z, method, exact=False, **fields)


def _halved(form) -> tuple[list[int], int]:
    """The integer form of w / 2 from that of w."""
    ws, sw = form
    return ws, 2 * sw


def _scalar_f(x: LieElement, y: LieElement, scaled, uv) -> BchResult:
    """z = x + y + f(u, v) w from the integer forms scaled of x, y and a nonzero w and
    the ratios uv = (un, ud, vn, vd) of u and v, ud, vd > 0; exact when
    un = vn = 0, where f = 1/2.  f_scalar gets un / ud and vn / vd, each int / int
    rounded once, as float() of the Fraction is; the result keeps uv, no Fraction."""
    un, ud, vn, vd = uv
    if not un and not vn:
        return _combined("ScalarF", x, y, scaled[:2], _halved(scaled[2]), _uv=uv,
                         residual_bound=0.0)
    fval = f_scalar(un / ud, vn / vd)
    return _combined("ScalarF", x, y, scaled[:2], weighted=[(fval, scaled[2])], _uv=uv)


# ---------------------------------------------------------------------------
# operator form
# ---------------------------------------------------------------------------

def _anti_diagonals(step, gx, gy, w, x_edge=(), y_edge=()):
    """Yield the anti-diagonals [L_X^i L_Y^j w for j = 0 .. m], i + j = m, of the
    orbit of w for m = 0, 1, ..., with None for a zero vector.  step(gx, vec)
    applies L_X and step(gy, vec) applies L_Y, each up to a fixed scale: one L_X
    step per entry and one L_Y step at the end of each diagonal.  x_edge and
    y_edge hold L_X^m w and L_Y^m w, as step makes them, for the first m: the
    walk takes those ends of a diagonal from them instead of stepping."""
    def image(g, vec):
        img = None if vec is None else step(g, vec)
        return img if img is not None and any(img) else None

    def end(edge, m, g, vec):
        return image(g, vec) if m >= len(edge) else edge[m] if any(edge[m]) else None

    diag = [w if any(w) else None]
    for m in itertools.count(1):
        yield diag
        diag = ([end(x_edge, m, gx, diag[0])] + [image(gx, vec) for vec in diag[1:]]
                + [end(y_edge, m, gy, diag[-1])])


def _restricted_norm(alg: StructureConstants, gs, scale: int, ech: Echelon) -> float:
    """Row-sum norm of L_g, g = gs / scale, on the L_g-invariant span S of the echelon
    rows, in the RREF basis b_j = row_j / row_j[p_j]: entry (i, j) is L_g b_j at the
    pivot p_i, scaled_bracket(gs, row_j)[p_i] / (den scale row_j[p_j]), one int / int."""
    cols = [(alg.scaled_bracket(gs, row), alg.den * scale * row[p])
            for row, p in zip(ech.rows, ech.pivots)]
    return max(sum(abs(img[p]) / d for img, d in cols) for p in ech.pivots)


def closed_form_terms(classification: CaseClassification, degree: int) -> tuple[LieElement, ...]:
    """The homogeneous parts (C_1, ..., C_degree) of x + y + f(L_X, -L_Y) w, w = [x, y],
    for classify_pair's certificate of (x, y): C_1 = x + y and
    C_n = sum_{i+j=n-2} c_ij L_X^i (-L_Y)^j w, with c_ij the coefficients of f_series.

    Wherever a closed form applies, C_n is the part Z_n of ln(e^X e^Y)
    (oracle.bch_series_terms), so C_n == Z_n checks the closed form degree by
    degree, exactly: each C_n is summed on the integer kernel from the certificate's
    integer forms, C_1 too, so float coordinates give the binary rationals' parts.
    The walk takes L_X w and L_Y w from an OperatorCommuting certificate, which
    holds them, and brackets them afresh for any other tag.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    alg, scaled, images = (classification.algebra, classification._integer_form,
                           classification._images)
    c_1 = LieElement(unscaled(*_sum_form(*scaled[:2])))
    (xs, _), (ys, _), (ws, _) = scaled
    edges = () if images is None else ((ws, images[0]), (ws, images[1]))
    walk = _anti_diagonals(alg.scaled_bracket, xs, ys, ws, *edges)
    rows = _f_rows(degree - 2)
    return (c_1,) + tuple(LieElement(unscaled(acc, den))
                          for acc, _, den in _graded_parts(alg, scaled, rows, walk))


def _graded_parts(alg: StructureConstants, scaled, rows, diagonals):
    """(acc, norm, den) for n = 2, 3, ..., one per coefficient row (A_m, q_m) of
    _f_rows, m = n - 2: C_n = acc / den, and norm / den is
    the shell norm sum_{i+j=m} |c_ij| |L_X^i L_Y^j w|_inf.  scaled holds the scaled
    coordinates ((xs, sx), (ys, sy), (ws, sw)) of x, y, w, and diagonals is their
    kernel walk _anti_diagonals(alg.scaled_bracket, xs, ys, ws), whose entry j on
    the anti-diagonal i + j = m is sw px^i py^j L_X^i L_Y^j w."""
    (_, sx), (_, sy), (_, sw) = scaled
    px, py = alg.den * sx, alg.den * sy
    for m, ((row, q), diag) in enumerate(zip(rows, diagonals)):  # C_(m+2)
        # over sw (px py)^m q, c_ij L_X^i (-L_Y)^j w is (-1)^j A_ij px^j py^i diag[j]
        acc = [0] * alg.dim
        norm = 0
        for j, (a, vec) in enumerate(zip(row, diag)):
            if a and vec is not None:
                k = (-1) ** j * a * px ** j * py ** (m - j)
                norm += abs(k) * max(map(abs, vec))
                for idx, t in enumerate(vec):
                    if t:
                        acc[idx] += k * t
        yield acc, norm, sw * (px * py) ** m * q


def _weight_lines(weights, scaled):
    """The split of the integer ws into joint eigenlines of the kernel's maps for xs
    and ys, read off the DerivedWeights of an algebra on whose abelian [g,g] ad g is
    diagonal over Q, with no kernel call.

    scaled holds the integer forms ((xs, sx), (ys, sy), (ws, sw)) of x, y and
    w = [x, y].  On a weight space with kernel eigenvalues r, the kernel's maps for
    xs and ys are rx = xs . r and ry = ys . r, and ws's parts in the spaces with
    equal (rx, ry) add up to one line.  Returns {(rx, ry): (W, weights.den)}, the
    shape of _joint_split: ws = sum W / weights.den; W / den is not reduced, as
    each int / int of the combine rounds the same rational once either way."""
    (xs, _), (ys, _), (ws, _) = scaled
    grouped = {}
    for r, cols in weights.spaces:
        part = None
        for p, col in cols:
            c = ws[p]
            if c:
                part = ([c * t for t in col] if part is None
                        else [a + c * t for a, t in zip(part, col)])
        if part is not None and any(part):
            key = (sum(map(operator.mul, xs, r)), sum(map(operator.mul, ys, r)))
            if key in grouped:
                part = [a + b for a, b in zip(grouped[key][0], part)]
            grouped[key] = (part, weights.den)
    return grouped


def _dying_edge(step, g, vec, first):
    """[vec, L vec, ..., L^s vec = 0] for L = step(g, .) nilpotent on the orbit of
    vec, with first = L vec: the edge of _least_relation, whose relation is t^s,
    taken with no elimination."""
    edge = [vec, first]
    while any(edge[-1]):
        edge.append(step(g, edge[-1]))
    return edge


def _terminating_sum(alg: StructureConstants, x: LieElement, y: LieElement, scaled,
                     x_edge, y_edge) -> BchResult:
    """z = x + y + f(L_X, -L_Y) w, exact, where the edges x_edge = [w, ..., L_X^nx w]
    and y_edge = [w, ..., L_Y^ny w] end at 0: C_n = 0 beyond n = nx + ny, and z sums
    the parts of closed_form_terms from the walk of L_X^i L_Y^j w between the edges."""
    degree = len(x_edge) + len(y_edge) - 4  # nx + ny - 2, as edge m is L^m w
    (xs, _), (ys, _), (ws, _) = scaled
    walk = _anti_diagonals(alg.scaled_bracket, xs, ys, ws, x_edge, y_edge)
    parts = list(_graded_parts(alg, scaled, _f_rows(degree), walk))
    den = math.lcm(*(d for _, _, d in parts))  # sum them over one denominator
    acc = [0] * alg.dim
    for part, _, d in parts:
        k = den // d
        for idx, t in enumerate(part):
            if t:
                acc[idx] += k * t
    return _combined("OperatorF", x, y, scaled[:2], (acc, den), residual_bound=0.0,
                     degree=degree)


def _operator_f(alg: StructureConstants, x: LieElement, y: LieElement, scaled,
                images, target_tolerance: float) -> BchResult:
    """z = x + y + f(L_X, -L_Y) w for a nonzero w = [x, y] that centralizes its closure S.

    scaled holds the integer forms ((xs, sx), (ys, sy), (ws, sw)) of x, y and w, and
    images holds the kernel's L_X w and L_Y w, as classify_pair computed them.

    S = span{L_X^i L_Y^j w} lies in the ideal [g,g], and [L_X, L_Y] = L_w vanishes
    on S.  Where g is nilpotent (_central_series(), computed once), so are L_X and
    L_Y, and the series terminates: the edges L_X^k w and L_Y^k w are bracketed
    until they reach 0, and _terminating_sum sums them exactly.  Where [g,g] is
    abelian and ad g is diagonal over Q on it, as the algebra's derived_weights(),
    computed once, tells, w splits into joint eigenlines w = sum w_k
    (_weight_lines), and f(L_X, -L_Y) w = sum f(u_k, v_k) w_k: the scalar form once
    per line, in descending weights, with the ScalarF bound summed over the lines.

    Otherwise (derived_weights() is None) each pair finds its own structure, with
    its vectors told apart by their entries at the pivots of [g,g]'s echelon.  The
    edge L_X^k w is taken up to its first dependency, which gives its least
    relation p (_least_relation): L_X is nilpotent on S iff p = t^s, that is, iff
    the edge dies.  Where it does, L_Y's edge is taken the same way, and if it dies
    too, the series terminates.  Otherwise w is split into joint eigenlines of the
    kernel's maps for x and y (_joint_split, handed the relations already taken),
    and the lines are summed as above.  Where it does not split (L_X nilpotent but
    not 0 on S, or a relation with a repeated, irrational or complex root),
    _shell_sum sums the walk's parts in floating point.
    """
    kernel = alg.scaled_bracket
    (xs, sx), (ys, sy), (ws, sw) = scaled
    if alg._central_series()[1]:
        x_edge, y_edge = (_dying_edge(kernel, g, ws, img) for g, img in zip((xs, ys), images))
        return _terminating_sum(alg, x, y, scaled, x_edge, y_edge)
    weights = alg.derived_weights()
    if weights is not None:
        split = _weight_lines(weights, scaled)
    else:
        pivots = alg.derived_echelon()[0].pivots
        x_edge, p = _least_relation(_orbit(kernel, xs, ws, images[0]), pivots)
        known, y_edge = [(x_edge, p)], (ws, images[1])
        if not any(p[:-1]):  # L_X is nilpotent on S
            y_edge, q = _least_relation(_orbit(kernel, ys, ws, images[1]), pivots)
            if not any(q[:-1]):  # L_X^nx w = L_Y^ny w = 0
                return _terminating_sum(alg, x, y, scaled, x_edge, y_edge)
            known.append((y_edge, q))
        split = _joint_split(kernel, (xs, ys), ws, pivots, known)
        if split is None:
            walk = _anti_diagonals(kernel, xs, ys, ws, x_edge, y_edge)
            return _shell_sum(alg, x, y, scaled, images, walk, target_tolerance)
    px, py = alg.den * sx, alg.den * sy
    lines = [((-ry, py, rx, px), (vec, h * sw))
             for (rx, ry), (vec, h) in sorted(split.items(), reverse=True)]
    terms = [(f_scalar(un / ud, vn / vd), form) for (un, ud, vn, vd), form in lines]
    return _combined("OperatorF", x, y, scaled[:2], weighted=terms,
                     _lines=tuple(uv for uv, _ in lines))


def _shell_sum(alg: StructureConstants, x: LieElement, y: LieElement, scaled,
               images, diagonals, target_tolerance: float) -> BchResult:
    """z = x + y + f(L_X, -L_Y) w for a series that does not terminate, from the walk
    diagonals of _operator_f: each exact part C_n is rounded once per coordinate and
    summed in floating point until the geometric tail bound, off the norms of L_X
    and L_Y on S (_restricted_norm), drops below target_tolerance.  S is grown here,
    as integer echelon rows, from w and its images L_X w and L_Y w."""
    (xs, _), (ys, _), (ws, _) = scaled
    ech = Echelon()
    for _ in _closure(alg, ech, xs, ys, ws, *images):
        pass
    r = max(_restricted_norm(alg, gs, sg, ech) for gs, sg in scaled[:2])
    if r >= OPERATOR_RADIUS:
        raise NonConvergence(r, achieved_bound=None)
    rho = r / OPERATOR_RADIUS
    geom = 2.0 * rho / (1.0 - rho)  # safety factor 2 on the geometric tail

    acc = [0.0] * alg.dim
    prev_norm = math.inf
    bound = math.inf
    rows = (_f_rows(m)[m] for m in range(OPERATOR_MAX_DEGREE + 1))  # row m read at shell m
    parts = _graded_parts(alg, scaled, rows, diagonals)
    for shell, (part, norm, den) in enumerate(parts):
        acc = _finite(a + t / den if t else a  # int / int rounds once, correctly
                      for a, t in zip(acc, part))
        shell_norm = norm / den
        # single shells can vanish by coefficient cancellation (pure even
        # powers of f are zero), so bound the tail off two consecutive shells
        bound = max(shell_norm, prev_norm * rho) * geom
        prev_norm = shell_norm
        if bound < target_tolerance and shell >= 2:
            break
    if bound >= target_tolerance:
        raise NonConvergence(r, achieved_bound=bound)
    z = LieElement(_finite(float(a) + float(b) + c for a, b, c in zip(x.coords, y.coords, acc)))
    return BchResult(z, "OperatorF", exact=False, residual_bound=bound, degree=shell)


# ---------------------------------------------------------------------------
# the structure-constant family that reproduces the u,v,c commutator
# ---------------------------------------------------------------------------

def case1_build(m: Sequence) -> tuple[StructureConstants, Callable]:
    """Algebra with f_ab^c = (m_a d_b^c - m_b d_a^c)/2, plus the (u,v,c) map.

    The bracket is [X, Y] = ((x.m) Y - (y.m) X)/2.  The returned map sends
    (alpha, beta, x, y) -- for shifted elements X = X^ + alpha I,
    Y = Y^ + beta I -- to the scalars
        u = -(y.m)/2,  v = (x.m)/2,  c = ((x.m) beta - (y.m) alpha)/2.
    """
    mvec = tuple(as_fraction(t) for t in m)
    dim = len(mvec)
    if dim < 1:
        raise ValueError("dim must be >= 1")
    halves = [t / 2 for t in mvec]
    negated = [-t for t in halves]
    entries = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            if halves[a]:
                entries[(a, b, b)] = halves[a]
            if halves[b]:
                entries[(a, b, a)] = negated[b]
    alg = validate(entries, dim)

    def uvc_map(alpha, beta, x: LieElement, y: LieElement):
        if x.dim != dim or y.dim != dim:
            raise DimensionMismatch("element does not match the built algebra")
        xm = sum(a * b for a, b in zip(x.coords, mvec))
        ym = sum(a * b for a, b in zip(y.coords, mvec))
        alpha = as_fraction(alpha) if not isinstance(alpha, float) else alpha
        beta = as_fraction(beta) if not isinstance(beta, float) else beta
        u = -ym / 2
        v = xm / 2
        c = (xm * beta - ym * alpha) / 2
        return u, v, c

    return alg, uvc_map


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def bch_closed_form(alg: StructureConstants, x: LieElement, y: LieElement,
                    target_tolerance: float = 1e-10,
                    classification=None) -> BchResult:
    """Compute ln(e^X e^Y) by the strongest applicable closed form.

    A classification must be classify_pair's certificate for this pair and this
    algebra object (else ClassificationMismatch, whatever its tag); it is used
    without recheck, in the integer form classify_pair decided with, so no field
    of the certificate is built here.
    target_tolerance must be positive and finite, else ValueError, whichever
    form applies.  A float z beyond the double range raises OverflowError (_finite).
    """
    _check_tolerance(target_tolerance)
    cls = classification if classification is not None else classify_pair(alg, x, y)
    if cls.x != x or cls.y != y or cls.algebra is not alg:
        raise ClassificationMismatch("classification was made for another pair or algebra")
    if cls.tag == CaseTag.NO_CLOSED_FORM:
        raise NoClosedFormAvailable("no closed-form condition applies to this pair")
    scaled = cls._integer_form
    if cls.tag == CaseTag.COMMUTING:
        return _combined("Sum", x, y, scaled[:2])
    if cls.tag == CaseTag.CENTRAL_BRACKET:
        return _combined("Central", x, y, scaled[:2], _halved(scaled[2]))
    if cls.tag == CaseTag.SIMULTANEOUS_EIGENVECTOR:
        return _scalar_f(x, y, scaled, cls._uv)
    return _operator_f(alg, x, y, scaled, cls._images, target_tolerance)
