"""Shared test builders."""

import pytest

from bchkit.algebra import validate


def _borel(n: int):
    """b(n), the upper-triangular n x n matrices on the basis E_ij (i <= j), and
    the index of each E_ij."""
    basis = [(i, j) for i in range(n) for j in range(i, n)]
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
    """borel(n) builds a fresh (b(n), index), so no test sees another's per-algebra state."""
    return _borel
