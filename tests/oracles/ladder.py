"""Cell-by-cell reference for the exact interconnect (wire resistance) model.

:mod:`repro.crossbar.parasitics` assembles the crossbar's resistive
ladder from a cached per-shape index template and extracts the
effective matrix with a Schur sweep or one multi-RHS sparse LU solve.
This module stamps the same network one branch at a time and solves it
one drive column at a time, so the production assembly can be checked
for exact equality and the fast extractors against an independent
solve.

Unknowns are ordered ``[v_bl(0,0) ... v_bl(rows-1, cols-1), v_wl(0,0)
... v_wl(rows-1, cols-1)]`` in row-major order. BL drivers (ideal
voltage sources at the top of each column) and WL amplifier virtual
grounds (0 V at the left of each row) are eliminated into the
right-hand side, so the system is pure nodal analysis and symmetric
positive definite.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

__all__ = ["exact_effective_matrix", "ladder_system"]


def ladder_system(g: np.ndarray, r_wire: float) -> csc_matrix:
    """Sparse conductance matrix of the ladder network, stamped per branch."""
    rows, cols = g.shape
    g_seg = 1.0 / r_wire
    n_cells = rows * cols

    def bl(i: int, j: int) -> int:
        return i * cols + j

    def wl(i: int, j: int) -> int:
        return n_cells + i * cols + j

    data: list[float] = []
    rows_idx: list[int] = []
    cols_idx: list[int] = []
    diag = np.zeros(2 * n_cells)

    def add_offdiag(a: int, b: int, value: float) -> None:
        rows_idx.append(a)
        cols_idx.append(b)
        data.append(value)

    def stamp_branch(a: int, b: int, conductance: float) -> None:
        """Stamp a conductance between two internal nodes."""
        diag[a] += conductance
        diag[b] += conductance
        add_offdiag(a, b, -conductance)
        add_offdiag(b, a, -conductance)

    for i in range(rows):
        for j in range(cols):
            # Cell conductance couples the BL node to the WL node.
            gij = g[i, j]
            if gij > 0.0:
                stamp_branch(bl(i, j), wl(i, j), gij)
            # BL wire segment toward the driver (row 0 side). The segment
            # from the driver itself is eliminated into the RHS, so it
            # only loads the first node's diagonal.
            if i > 0:
                stamp_branch(bl(i, j), bl(i - 1, j), g_seg)
            else:
                diag[bl(0, j)] += g_seg
            # WL wire segment toward the amplifier (column 0 side). The
            # amplifier node is a 0 V virtual ground: diagonal only.
            if j > 0:
                stamp_branch(wl(i, j), wl(i, j - 1), g_seg)
            else:
                diag[wl(i, 0)] += g_seg

    for node, value in enumerate(diag):
        add_offdiag(node, node, value)

    return csc_matrix(
        (np.asarray(data), (np.asarray(rows_idx), np.asarray(cols_idx))),
        shape=(2 * n_cells, 2 * n_cells),
    )


def exact_effective_matrix(g: np.ndarray, r_wire: float) -> np.ndarray:
    """Effective matrix ``M`` (``i_out = M @ v_in``), one drive column at a time.

    Each BL driver in turn is set to 1 V with the others at 0 V; the
    currents reaching the WL amplifiers form that column of ``M``.
    """
    g = np.asarray(g, dtype=float)
    rows, cols = g.shape
    lu = splu(ladder_system(g, r_wire))
    g_seg = 1.0 / r_wire
    n_cells = rows * cols
    eff = np.zeros((rows, cols))
    rhs = np.zeros(2 * n_cells)
    for j in range(cols):
        rhs[:] = 0.0
        rhs[j] = g_seg  # bl(0, j) has flat index 0 * cols + j == j
        solution = lu.solve(rhs)
        # Current into the amplifier of row i flows through the WL
        # segment from node wl(i, 0) (flat index n_cells + i * cols).
        eff[:, j] = g_seg * solution[n_cells : 2 * n_cells : cols]
    return eff
