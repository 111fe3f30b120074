"""Shared test builders."""

import sys
from fractions import Fraction

import pytest

from bchkit import closed_form, detect
from bchkit.algebra import validate


def _borel(n: int, strict: bool = False):
    """b(n), the upper-triangular n x n matrices on the basis E_ij (i <= j), and
    the index of each E_ij; with strict, n(n), the strictly upper-triangular ones
    (i < j), nilpotent of class n - 1."""
    basis = [(i, j) for i in range(n) for j in range(i + strict, n)]
    index = {e: k for k, e in enumerate(basis)}
    entries = {}
    for a, (i, j) in enumerate(basis):
        for b in range(a + 1, len(basis)):
            k, l = basis[b]
            # [E_ij, E_kl] = d_jk E_il - d_li E_kj
            if j == k:
                entries[a, b, index[i, l]] = entries.get((a, b, index[i, l]), 0) + 1
            if l == i:
                entries[a, b, index[k, j]] = entries.get((a, b, index[k, j]), 0) - 1
    return validate(entries, len(basis)), index


@pytest.fixture(scope="session")
def borel():
    """borel(n) builds a fresh (b(n), index), and borel(n, strict=True) a fresh
    (n(n), index), so no test sees another's per-algebra state."""
    return _borel


@pytest.fixture(scope="session")
def operator_form():
    """operator_form(alg, x, y, tol) is the operator form f(L_X, -L_Y) [x, y], summed
    as bch_closed_form sums it for OperatorCommuting, for a nonzero [x, y] that
    centralizes its closure, whatever stronger tag classify_pair gives the pair."""
    def evaluate(alg, x, y, target_tolerance=1e-10):
        scaled = detect._pair_forms(alg, x, y)
        (xs, _), (ys, _), (ws, _) = scaled
        images = alg.scaled_bracket(xs, ws), alg.scaled_bracket(ys, ws)
        return closed_form._operator_f(alg, x, y, scaled, images, target_tolerance)
    return evaluate


_COUNTED_MODULES = frozenset({"bchkit.algebra", "bchkit.detect", "bchkit.closed_form",
                              "bchkit.families"})


@pytest.fixture
def fraction_builds(monkeypatch):
    """A list that gets (module, function) for each Fraction built by code in
    bchkit.algebra, bchkit.detect, bchkit.closed_form or bchkit.families,
    directly or through Fraction arithmetic there, while the test runs."""
    builds = []
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None and frame.f_globals.get("__name__") == "fractions":
            frame = frame.f_back  # arithmetic inside Fraction: charge its caller
        if frame is not None and frame.f_globals.get("__name__") in _COUNTED_MODULES:
            builds.append((frame.f_globals["__name__"], frame.f_code.co_name))
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    return builds
