"""Closed-form composition ln(e^X e^Y) = X + Y + f(.,.) [X,Y].

The symmetric function

    f(u, v) = ((u-v) e^(u+v) - (u e^u - v e^v)) / (u v (e^u - e^v))

has removable singularities at u = 0, v = 0 and u = v.  The scalar
evaluator switches to an exact bivariate Taylor series near the origin and
to one-variable limit formulas on the axes and diagonal, so it is accurate
everywhere.  The same Taylor coefficients drive the operator form
f(L_X, -L_Y) [X,Y] used when the scalar hypothesis fails but the adjoints
effectively commute.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .algebra import (
    DimensionMismatch,
    LieElement,
    StructureConstants,
    Subspace,
    as_fraction,
    validate,
)
from .detect import CaseTag, RankOneFactorization, uv_from_rank_one

SERIES_CROSSOVER = 0.25     # switch to the Taylor series inside this box
SERIES_DEGREE = 20          # series truncation used by the scalar evaluator
DIAGONAL_BAND = 1e-3        # |u-v| below this (outside the box): high-precision path
EXP_ARGUMENT_LIMIT = 700.0  # beyond this, exp overflows double precision

OPERATOR_MAX_DEGREE = 48    # hard cap for the adaptive operator series
OPERATOR_RADIUS = math.pi   # heuristic convergence radius for restricted adjoints


class ClassificationMismatch(ValueError):
    """A closed-form evaluator was called with a certificate that fails recheck."""


class NonConvergence(RuntimeError):
    """Operator series cannot reach the target tolerance."""

    def __init__(self, spectral_bound: float, achieved_bound: float | None):
        self.spectral_bound = spectral_bound
        self.achieved_bound = achieved_bound
        msg = f"operator series not convergent: restricted adjoint norm {spectral_bound:.3g}"
        if achieved_bound is not None:
            msg += f", best tail bound {achieved_bound:.3g}"
        super().__init__(msg)


class NoClosedFormAvailable(ValueError):
    """No condition in the detector hierarchy applies to the pair."""


@dataclass(frozen=True)
class BchResult:
    """Output of a closed-form evaluation."""

    z: LieElement
    method: str                       # Sum | Central | ScalarF | OperatorF
    exact: bool
    residual_bound: float | None = None
    u: object = None
    v: object = None
    degree: int | None = None


# ---------------------------------------------------------------------------
# exact bivariate Taylor series of f
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BivariateSeries:
    """Truncated power series sum c_ij u^i v^j with exact coefficients."""

    coefficients: dict
    max_degree: int

    def coeff(self, i: int, j: int) -> Fraction:
        return self.coefficients.get((i, j), Fraction(0))

    def evaluate(self, u: float, v: float) -> float:
        total = 0.0
        for (i, j), c in sorted(self.coefficients.items()):
            total += float(c) * u**i * v**j
        return total

    def evaluate_exact(self, u: Fraction, v: Fraction) -> Fraction:
        total = Fraction(0)
        for (i, j), c in sorted(self.coefficients.items()):
            total += c * u**i * v**j
        return total

    def truncated(self, degree: int) -> "BivariateSeries":
        kept = {k: c for k, c in self.coefficients.items() if k[0] + k[1] <= degree}
        return BivariateSeries(kept, degree)


_series_lock = threading.Lock()


@lru_cache(maxsize=None)
def _f_series_cached(max_total_degree: int) -> BivariateSeries:
    # Write g(t) = (1 - e^-t)/t.  Both g(u) - g(v) and e^-u - e^-v vanish on
    # the diagonal, so divide each by (u - v):
    #   [(h(u)-h(v))/(u-v)]_ij = h_{i+j+1}  for a univariate series h.
    # With h = g and h = e^-t this leaves two regular bivariate series whose
    # quotient is f; the divisor has constant term -1, so long division works.
    d = max_total_degree
    fact = [1] * (d + 3)
    for k in range(1, d + 3):
        fact[k] = fact[k - 1] * k

    def num(i, j):  # (g(u)-g(v))/(u-v), g_k = (-1)^k/(k+1)!
        s = i + j
        return Fraction((-1) ** (s + 1), fact[s + 2])

    def den(i, j):  # (e^-u - e^-v)/(u-v), coefficients of e^-t shifted once
        s = i + j
        return Fraction((-1) ** (s + 1), fact[s + 1])

    den00 = den(0, 0)
    coeffs: dict = {}
    for s in range(d + 1):
        for i in range(s, -1, -1):
            j = s - i
            acc = num(i, j)
            for k in range(i + 1):
                for l in range(j + 1):
                    if (k, l) == (i, j):
                        continue
                    c = coeffs.get((k, l))
                    if c:
                        acc -= c * den(i - k, j - l)
            coeffs[(i, j)] = acc / den00
    return BivariateSeries(coeffs, d)


def f_series(max_total_degree: int) -> BivariateSeries:
    """Exact Taylor coefficients of f about (0,0) through the given total degree."""
    if max_total_degree < 0:
        raise ValueError("degree must be >= 0")
    with _series_lock:
        return _f_series_cached(max_total_degree)


# ---------------------------------------------------------------------------
# scalar evaluation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _series_float_terms() -> tuple:
    series = f_series(SERIES_DEGREE)
    return tuple(
        (i, j, float(c)) for (i, j), c in sorted(series.coefficients.items()) if c != 0
    )


def _f_axis(t: float) -> float:
    # f(0, t) = (t e^t - e^t + 1)/(t (e^t - 1)), rewritten for |t| >= 0.25
    a = t / -math.expm1(-t)
    return (a - 1.0) / t


def _f_diagonal(t: float) -> float:
    # f(t, t) = (e^t - 1 - t)/t^2
    return (math.expm1(t) - t) / (t * t)


def _f_stable(u: float, v: float) -> float:
    # quotient form with 1 - e^-t computed by expm1 to survive small arguments
    em_u = -math.expm1(-u)
    em_v = -math.expm1(-v)
    return (em_u / u - em_v / v) / (em_v - em_u)


def _f_highprec(u: float, v: float) -> float:
    # near-diagonal band: the double-precision quotient cancels, so evaluate
    # the same expression with 50-digit arithmetic
    import mpmath

    with mpmath.workdps(50):
        mu, mv = mpmath.mpf(u), mpmath.mpf(v)
        em_u = -mpmath.expm1(-mu)
        em_v = -mpmath.expm1(-mv)
        return float((em_u / mu - em_v / mv) / (em_v - em_u))


def f_scalar(u, v) -> float:
    """Robust evaluation of f(u, v); exact-symmetric in its arguments."""
    u, v = float(u), float(v)
    if not (math.isfinite(u) and math.isfinite(v)):
        raise ValueError("f requires finite arguments")
    if abs(u) + abs(v) > EXP_ARGUMENT_LIMIT:
        raise OverflowError(f"f({u!r}, {v!r}) exceeds double-precision exp range")
    if u < v:
        u, v = v, u
    if max(abs(u), abs(v), abs(u - v)) < SERIES_CROSSOVER:
        total = 0.0
        for i, j, c in _series_float_terms():
            total += c * u**i * v**j
        return total
    if u == v:
        return _f_diagonal(u)
    if v == 0.0:
        return _f_axis(u)
    if u == 0.0:
        return _f_axis(v)
    if abs(u - v) < DIAGONAL_BAND:
        return _f_highprec(u, v)
    return _f_stable(u, v)


def f_form_product(u: float, v: float) -> float:
    """Literal ((u-v)e^(u+v) - (ue^u - ve^v)) / (uv(e^u - e^v)); no singularity care."""
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


def f_rational(u: Fraction, v: Fraction, degree: int = 40) -> Fraction:
    """Exact rational series value of f; accurate only for small |u|, |v|.

    The truncation error is roughly (max(|u|,|v|) * 2/pi)^degree, so keep the
    arguments well inside the unit box.  Used as a high-precision reference.
    """
    return f_series(degree).evaluate_exact(as_fraction(u), as_fraction(v))


# ---------------------------------------------------------------------------
# closed-form BCH variants
# ---------------------------------------------------------------------------

def _elements_exact(*elems: LieElement) -> bool:
    return all(e.is_exact for e in elems)


def bch_special(alg: StructureConstants, x: LieElement, y: LieElement,
                classification: CaseTag) -> BchResult:
    """Terminating cases: commuting pair, or central bracket (z = x+y+[x,y]/2)."""
    w = alg.bracket(x, y)
    if classification == CaseTag.COMMUTING:
        if not w.is_zero():
            raise ClassificationMismatch("pair does not commute")
        return BchResult(x + y, "Sum", exact=_elements_exact(x, y))
    if classification == CaseTag.CENTRAL_BRACKET:
        if not alg.adjoint(w).is_zero():
            raise ClassificationMismatch("bracket is not central")
        z = x + y + w.scale(Fraction(1, 2))
        return BchResult(z, "Central", exact=_elements_exact(x, y))
    raise ValueError(f"bch_special does not handle {classification}")


def _recheck_eigenpair(alg, x, y, w, u, v, rel_tol=1e-12):
    lx_w = alg.bracket(x, w)
    ly_w = alg.bracket(y, w)
    if _elements_exact(w, lx_w, ly_w) and isinstance(u, Fraction) and isinstance(v, Fraction):
        return lx_w == w.scale(v) and ly_w == w.scale(-u)
    scale = max(1.0, w.sup_norm() * max(abs(float(u)), abs(float(v)), 1.0))
    res_v = max(abs(float(a) - float(v) * float(b)) for a, b in zip(lx_w.coords, w.coords))
    res_u = max(abs(float(a) + float(u) * float(b)) for a, b in zip(ly_w.coords, w.coords))
    return max(res_u, res_v) <= rel_tol * scale


def _scalar_f(x: LieElement, y: LieElement, w: LieElement, u, v) -> BchResult:
    """z = x + y + f(u, v) w; exact when u = v = 0, where f = 1/2."""
    if u == 0 and v == 0:
        z = x + y + w.scale(Fraction(1, 2))
        return BchResult(z, "ScalarF", exact=_elements_exact(x, y), u=u, v=v,
                         residual_bound=0.0)
    fval = f_scalar(u, v)
    z = x + y + w.scale(fval)
    bound = 8.0 * 2.0**-53 * abs(fval) * w.sup_norm()
    return BchResult(z, "ScalarF", exact=False, residual_bound=bound, u=u, v=v)


def bch_eigenpair(alg: StructureConstants, x: LieElement, y: LieElement,
                  u, v) -> BchResult:
    """Scalar form z = x + y + f(u, v) [x, y] for a certified eigen-pair."""
    w = alg.bracket(x, y)
    if not w.is_zero() and not _recheck_eigenpair(alg, x, y, w, u, v):
        raise ClassificationMismatch("(u, v) is not a simultaneous eigen-pair for [x, y]")
    return _scalar_f(x, y, w, u, v)


def bch_rank_one(fact: RankOneFactorization, x: LieElement, y: LieElement) -> BchResult:
    """z^c = x^c + y^c + f(x.omega.n, -y.omega.n) (omega_ab x^a y^b) n^c."""
    u, v = uv_from_rank_one(fact, x, y)
    c_xy = fact.omega_contract(x, y)
    if c_xy == 0:
        return BchResult(x + y, "Sum", exact=_elements_exact(x, y), u=u, v=v)
    return _scalar_f(x, y, fact.n.scale(c_xy), u, v)


def bch_rank_one_exact(fact: RankOneFactorization, x: LieElement, y: LieElement,
                       f_degree: int = 40) -> LieElement:
    """Rank-one composition with f evaluated as an exact rational series.

    Valid as a high-precision reference when |u|, |v| are small (see
    f_rational); everything else stays in exact arithmetic.
    """
    u, v = uv_from_rank_one(fact, x, y)
    c_xy = fact.omega_contract(x, y)
    if c_xy == 0:
        return x + y
    return x + y + fact.n.scale(c_xy * f_rational(u, v, f_degree))


def oplus(fact: RankOneFactorization, x: LieElement, y: LieElement) -> LieElement:
    """Generalized addition: the coordinates of ln(e^X e^Y) on a rank-one algebra."""
    return bch_rank_one(fact, x, y).z


# ---------------------------------------------------------------------------
# operator form
# ---------------------------------------------------------------------------

def _restricted_matrix(alg, op, s_closure: Subspace):
    """Matrix of an adjoint restricted to the (invariant) closure subspace."""
    cols = []
    for b in s_closure.basis:
        img = op.apply(b)
        if not s_closure.contains(img):
            raise AssertionError("closure subspace is not operator-invariant")
        cols.append(s_closure.coefficients(img))
    k = s_closure.dim
    return tuple(tuple(cols[j][i] for j in range(k)) for i in range(k))


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _nilpotency_index(mat) -> int | None:
    """Smallest k with mat^k = 0, or None if not nilpotent (k <= size)."""
    n = len(mat)
    if n == 0:
        return 0
    power = mat
    for k in range(1, n + 1):
        if all(all(x == 0 for x in row) for row in power):
            return k
        if k < n:
            power = _mat_mul(power, mat)
    return None if any(any(x != 0 for x in row) for row in power) else n


def _inf_norm(mat) -> float:
    return max((sum(abs(float(x)) for x in row) for row in mat), default=0.0)


def bch_operator(alg: StructureConstants, x: LieElement, y: LieElement,
                 s_closure: Subspace, target_tolerance: float = 1e-10) -> BchResult:
    """Operator form z = x + y + f(L_X, -L_Y) [x, y].

    The quotient expression for f is singular as a full-space matrix (the
    exponentials share a kernel), so f is applied through its Taylor series:
    the bracket certificate guarantees L_X and L_Y commute on every term.
    If both adjoints are nilpotent on the closure subspace the series
    terminates and the result is exact; otherwise the degree grows until a
    geometric tail bound (row-sum norm against the heuristic radius pi)
    drops below target_tolerance.
    """
    w = alg.bracket(x, y)
    if w.is_zero():
        return BchResult(x + y, "Sum", exact=_elements_exact(x, y), degree=0)
    for b in s_closure.basis:
        if not alg.bracket(w, LieElement(b)).is_zero():
            raise ClassificationMismatch("[x, y] does not centralize the closure subspace")
    lx = alg.adjoint(x)
    ly = alg.adjoint(y)
    rx = _restricted_matrix(alg, lx, s_closure)
    ry = _restricted_matrix(alg, ly, s_closure)

    nx = _nilpotency_index(rx)
    ny = _nilpotency_index(ry)
    if nx is not None and ny is not None:
        degree = (nx - 1) + (ny - 1)
        series = f_series(degree)
        # table[j] = L_Y^j w; the i-direction is walked in place below
        table = [w]
        for _ in range(ny - 1):
            table.append(ly.apply(table[-1]))
        acc = alg.zero()
        for j in range(ny):
            vec = table[j]
            sign = Fraction((-1) ** j)
            for i in range(nx):
                c = series.coeff(i, j)
                if c != 0:
                    acc = acc + vec.scale(sign * c)
                if i + 1 < nx:
                    vec = lx.apply(vec)
        z = x + y + acc
        return BchResult(z, "OperatorF", exact=_elements_exact(x, y),
                         residual_bound=0.0, degree=degree)

    # non-terminating: float evaluation with an adaptive degree
    r = max(_inf_norm(rx), _inf_norm(ry))
    if r >= OPERATOR_RADIUS:
        raise NonConvergence(r, achieved_bound=None)
    rho = r / OPERATOR_RADIUS
    geom = 2.0 * rho / (1.0 - rho)  # safety factor 2 on the geometric tail

    wf = w.to_float()
    lx_rows = [[(b, float(m)) for b, m in row] for row in lx.sparse_rows()]
    ly_rows = [[(b, float(m)) for b, m in row] for row in ly.sparse_rows()]

    def apply_float(rows, vec):
        return tuple(sum(m * vec[b] for b, m in row) for row in rows)

    # estimate the degree the geometric model predicts, then grow if needed
    if rho > 0.0:
        est = int(math.log(target_tolerance / (1.0 + geom)) / math.log(rho)) + 6
    else:
        est = 4
    series = f_series(min(max(8, est), OPERATOR_MAX_DEGREE))

    acc = [0.0] * alg.dim
    cols = {0: [wf.coords]}  # cols[j][i] = L_X^i L_Y^j w, built lazily
    prev_norm = math.inf
    bound = math.inf
    degree_used = 0
    for shell in range(OPERATOR_MAX_DEGREE + 1):
        if shell > series.max_degree:
            series = f_series(min(series.max_degree + 12, OPERATOR_MAX_DEGREE))
        shell_norm = 0.0
        for j in range(shell + 1):
            i = shell - j
            if j not in cols:
                cols[j] = [apply_float(ly_rows, cols[j - 1][0])]
            col = cols[j]
            while len(col) <= i:
                col.append(apply_float(lx_rows, col[-1]))
            c = float(series.coeff(i, j)) * (-1.0) ** j
            vec = col[i]
            shell_norm += abs(c) * max(abs(t) for t in vec)
            if c != 0.0:
                for idx in range(alg.dim):
                    acc[idx] += c * vec[idx]
        # single shells can vanish by coefficient cancellation (pure even
        # powers of f are zero), so bound the tail off two consecutive shells
        bound = max(shell_norm, prev_norm * rho) * geom
        prev_norm = shell_norm
        degree_used = shell
        if bound < target_tolerance and shell >= 2:
            break
    if bound >= target_tolerance:
        raise NonConvergence(r, achieved_bound=bound)
    z = x.to_float() + y.to_float() + LieElement(tuple(acc))
    return BchResult(z, "OperatorF", exact=False, residual_bound=bound,
                     degree=degree_used)


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
    entries = {}
    half = Fraction(1, 2)
    for a in range(dim):
        for b in range(a + 1, dim):
            if mvec[a] != 0:
                entries[(a, b, b)] = entries.get((a, b, b), Fraction(0)) + half * mvec[a]
            if mvec[b] != 0:
                entries[(a, b, a)] = entries.get((a, b, a), Fraction(0)) - half * mvec[b]
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
    """Compute ln(e^X e^Y) by the strongest applicable closed form."""
    from .detect import classify_pair

    cls = classification if classification is not None else classify_pair(alg, x, y)
    if cls.tag in (CaseTag.COMMUTING, CaseTag.CENTRAL_BRACKET):
        return bch_special(alg, x, y, cls.tag)
    if cls.tag == CaseTag.SIMULTANEOUS_EIGENVECTOR:
        return bch_eigenpair(alg, x, y, cls.u, cls.v)
    if cls.tag == CaseTag.OPERATOR_COMMUTING:
        return bch_operator(alg, x, y, cls.s_closure, target_tolerance)
    raise NoClosedFormAvailable("no closed-form condition applies to this pair")
