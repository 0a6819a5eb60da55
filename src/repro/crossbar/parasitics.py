"""Interconnect (wire) resistance models.

The paper (Fig. 9) assumes "the segment resistance between every two memory
cells along the BL or WL is 1 ohm, which is approximately the result in the
65 nm node". With finite wire resistance the array no longer implements its
programmed conductance matrix ``G``; it implements a perturbed operator
``M`` defined by the currents that actually reach the (virtual-ground) WL
terminals for given BL drive voltages.

Two models are provided:

- :func:`exact_effective_matrix` builds the full resistive ladder network
  (one BL node and one WL node per cell) and extracts ``M`` column by
  column with a sparse LU factorization. This is exactly the DC problem
  the paper's HSPICE netlists solve.
- :func:`first_order_effective_matrix` is the first-order perturbation
  expansion of the same network in the wire resistance ``r``. Writing
  the zeroth-order cell currents ``I_ij = G_ij v_j``, the wire segment
  between rows ``k-1`` and ``k`` of BL ``j`` carries the partial sum of
  all currents below it, and the segment between columns ``k`` and
  ``k-1`` of WL ``i`` carries the partial sum of all currents beyond it.
  Accumulating those drops at every cell and collecting coefficients of
  ``v`` gives

  ``M ~ G - r * [ G o (P_r G) + G o (G P_c) ]``

  where ``o`` is the Hadamard product and ``P_r[i,i'] = min(i,i') + 1``
  (``P_c`` likewise over columns) counts the wire segments two cells
  share. This captures the current-sharing cross terms a private-path
  model misses; the residual against the exact solve is second order in
  ``r * G0 * n`` (verified in tests). ``alpha`` survives as an overall
  scale knob (default 1, the analytic value).

Geometry convention: ``rows`` index WLs (outputs, amplifier at column 0),
``cols`` index BLs (inputs, driver at row 0).

Performance notes
-----------------
The exact model is the hot path of every interconnect Monte-Carlo sweep,
so it is engineered for batch throughput:

- the ladder system is assembled with pure NumPy index arithmetic (no
  per-cell Python loop) from a per-shape structure template that is
  cached across calls (:func:`_ladder_structure`);
- all columns of the identity drive are solved in a single multi-RHS
  ``lu.solve`` against one factorization, and the WL currents are read
  out with one strided slice instead of a per-row loop;
- :class:`ParasiticExtractor` adds an LRU result/factorization cache on
  top, so re-extracting the same programmed conductances (e.g. the
  positive and negative array of a pair across schedule steps) is free.

A cell-by-cell assembly and column-by-column solve, in
``tests/oracles/ladder.py``, are the reference these engines are tested
against.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import blas as _blas, lapack as _lapack
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from repro.errors import CircuitError, ValidationError
from repro.utils.validation import check_matrix

#: Wire segment resistance assumed in the paper's Fig. 9 (ohm).
PAPER_SEGMENT_RESISTANCE = 1.0

_FIDELITIES = ("none", "first_order", "exact")


@dataclass(frozen=True)
class ParasiticConfig:
    """Interconnect model configuration.

    Parameters
    ----------
    r_wire:
        Segment resistance between adjacent cells, in ohm (paper: 1).
    fidelity:
        ``"none"`` ignores wires; ``"first_order"`` uses the fast analytic
        correction; ``"exact"`` solves the ladder network.
    alpha:
        Overall scale of the first-order correction. 1.0 is the analytic
        perturbation value; other values exist for sensitivity studies.
    """

    r_wire: float = 0.0
    fidelity: str = "first_order"
    alpha: float = 1.0

    def __post_init__(self):
        if self.r_wire < 0.0:
            raise ValueError(f"r_wire must be >= 0, got {self.r_wire}")
        if self.fidelity not in _FIDELITIES:
            raise ValueError(f"fidelity must be one of {_FIDELITIES}, got {self.fidelity!r}")
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")

    @classmethod
    def ideal(cls) -> "ParasiticConfig":
        """No interconnect resistance."""
        return cls(r_wire=0.0, fidelity="none")

    @classmethod
    def paper_reference(cls, fidelity: str = "first_order") -> "ParasiticConfig":
        """1 ohm/segment, the configuration of Fig. 9."""
        return cls(r_wire=PAPER_SEGMENT_RESISTANCE, fidelity=fidelity)

    @property
    def is_ideal(self) -> bool:
        """True when the model has no effect."""
        return self.r_wire == 0.0 or self.fidelity == "none"


def _shared_segments(n: int) -> np.ndarray:
    """``P[k, l] = min(k, l) + 1``: wire segments two positions share."""
    idx = np.arange(n, dtype=float)
    return np.minimum(idx[:, None], idx[None, :]) + 1.0


def first_order_effective_matrix(
    g: np.ndarray,
    r_wire: float,
    alpha: float = 1.0,
) -> np.ndarray:
    """First-order perturbation model of the parasitic effective matrix.

    ``M = G - alpha * r * (G o (P_r G) + G o (G P_c))`` — see the module
    docstring for the derivation. Exact to first order in ``r * G``;
    residual against :func:`exact_effective_matrix` is second order.

    Parameters
    ----------
    g:
        Non-negative programmed conductance matrix (siemens), rows = WLs
        (amplifier at column 0), columns = BLs (driver at row 0). Shape-
        generic: a ``(trials, rows, cols)`` stack applies the model per
        slice (the batched Monte-Carlo engine delegates here, so the
        correction has exactly one implementation).
    r_wire:
        Segment resistance (ohm).
    alpha:
        Overall correction scale (1.0 = analytic value).
    """
    if np.ndim(g) == 3:
        g = np.asarray(g, dtype=float)
        if g.size == 0:
            raise ValidationError("g must be non-empty")
        if not np.all(np.isfinite(g)):
            raise ValidationError("g contains non-finite entries")
    else:
        g = check_matrix(g, "g")
    if np.any(g < 0.0):
        raise ValueError("conductances must be non-negative")
    if r_wire == 0.0:
        return g.copy()
    rows, cols = g.shape[-2:]
    p_rows = _shared_segments(rows)
    p_cols = _shared_segments(cols)
    bl_term = g * (p_rows @ g)
    wl_term = g * (g @ p_cols)
    return g - alpha * r_wire * (bl_term + wl_term)


@lru_cache(maxsize=64)
def _ladder_structure(rows: int, cols: int) -> dict:
    """Per-shape structure template of the ladder system (symbolic part).

    The sparsity pattern of the ladder network depends only on the array
    shape, never on the conductance values, so the COO index arrays and
    the diagonal segment-count vectors are computed once per shape and
    reused by every numeric assembly (this is the "symbolic
    factorization" half of the extractor's cache).

    Entry layout (value vector must follow the same order):

    1. cell branches       ``(bl_k, wl_k)`` then ``(wl_k, bl_k)``
    2. BL wire segments    ``(bl(i,j), bl(i-1,j))`` both directions
    3. WL wire segments    ``(wl(i,j), wl(i,j-1))`` both directions
    4. diagonal            all BL nodes then all WL nodes
    """
    n_cells = rows * cols
    flat = np.arange(n_cells)
    i_idx = flat // cols
    j_idx = flat % cols
    bl = flat
    wl = n_cells + flat

    # 1. cell branches (all cells; zero conductances stamp harmless zeros
    # and keep the pattern value-independent).
    cell_r = np.concatenate([bl, wl])
    cell_c = np.concatenate([wl, bl])

    # 2. BL segments between row i and i-1 (i >= 1), per column.
    bl_a = bl[i_idx >= 1]
    bl_b = bl_a - cols
    seg_bl_r = np.concatenate([bl_a, bl_b])
    seg_bl_c = np.concatenate([bl_b, bl_a])

    # 3. WL segments between column j and j-1 (j >= 1), per row.
    wl_a = wl[j_idx >= 1]
    wl_b = wl_a - 1
    seg_wl_r = np.concatenate([wl_a, wl_b])
    seg_wl_c = np.concatenate([wl_b, wl_a])

    # 4. diagonal: every node carries its cell conductance plus one wire
    # segment toward the periphery plus (if interior) one away from it.
    diag_idx = np.concatenate([bl, wl])
    bl_seg_count = 1.0 + (i_idx < rows - 1)
    wl_seg_count = 1.0 + (j_idx < cols - 1)

    rows_idx = np.concatenate([cell_r, seg_bl_r, seg_wl_r, diag_idx])
    cols_idx = np.concatenate([cell_c, seg_bl_c, seg_wl_c, diag_idx])
    return {
        "rows_idx": rows_idx,
        "cols_idx": cols_idx,
        "n_seg": seg_bl_r.size + seg_wl_r.size,
        "bl_seg_count": bl_seg_count,
        "wl_seg_count": wl_seg_count,
    }


def _ladder_system(g: np.ndarray, r_wire: float) -> tuple[csc_matrix, int, int]:
    """Assemble the sparse conductance matrix of the crossbar ladder network.

    Unknowns are ordered ``[v_bl(0,0) ... v_bl(rows-1, cols-1),
    v_wl(0,0) ... v_wl(rows-1, cols-1)]`` in row-major order. BL drivers
    (ideal voltage sources at the top of each column) and WL amplifier
    virtual grounds (0 V at the left of each row) are eliminated into the
    right-hand side, so the system is pure nodal analysis and symmetric
    positive definite.

    Built from the cached per-shape structure template in O(cells)
    NumPy work with no Python loop; tests assert exact equality with the
    cell-by-cell stamping of ``tests/oracles/ladder.py``.
    """
    rows, cols = g.shape
    g_seg = 1.0 / r_wire
    n_cells = rows * cols
    g_flat = np.ascontiguousarray(g, dtype=float).ravel()

    s = _ladder_structure(rows, cols)
    # Diagonal sums replicate the reference loop's accumulation order
    # (cell, then periphery-side segment, then interior segment) so the
    # assembled matrix is bit-identical to the cell-by-cell stamping.
    diag_bl = (g_flat + g_seg) + g_seg * (s["bl_seg_count"] - 1.0)
    diag_wl = (g_flat + g_seg) + g_seg * (s["wl_seg_count"] - 1.0)
    data = np.concatenate(
        [
            -g_flat,
            -g_flat,
            np.full(s["n_seg"], -g_seg),
            diag_bl,
            diag_wl,
        ]
    )
    matrix = csc_matrix(
        (data, (s["rows_idx"], s["cols_idx"])), shape=(2 * n_cells, 2 * n_cells)
    )
    return matrix, rows, cols


def _factorize_ladder(g: np.ndarray, r_wire: float):
    """Factor the ladder system; returns ``(lu, rows, cols)``."""
    system, rows, cols = _ladder_system(g, r_wire)
    try:
        lu = splu(system)
    except RuntimeError as exc:  # pragma: no cover - singular only if malformed
        raise CircuitError(f"parasitic network is singular: {exc}") from exc
    return lu, rows, cols


def _readout_from_lu(lu, rows: int, cols: int, r_wire: float) -> np.ndarray:
    """Solve all identity-drive columns and read the WL currents.

    Multi-RHS ``lu.solve`` calls replace the per-column solve loop; the
    currents into the amplifiers of every row are then a single strided
    slice of each solution block (WL nodes of column 0). Drives are
    chunked so the dense RHS/solution blocks stay within the same memory
    budget the Schur dispatch enforces (one 512x512 array would
    otherwise allocate a ~2 GB RHS in a single call).
    """
    g_seg = 1.0 / r_wire
    n_cells = rows * cols
    chunk = max(1, _SCHUR_MEMORY_LIMIT_BYTES // (2 * n_cells * 8))
    eff = np.empty((rows, cols))
    for start in range(0, cols, chunk):
        stop = min(cols, start + chunk)
        # Drive column j with 1 V: current g_seg injected through the
        # first BL segment into node bl(0, j), whose flat index is j.
        rhs = np.zeros((2 * n_cells, stop - start))
        rhs[np.arange(start, stop), np.arange(stop - start)] = g_seg
        solution = lu.solve(rhs)
        # Current into amplifier of row i flows through the WL segment
        # from node wl(i, 0) (flat index n_cells + i*cols) to the amp.
        eff[:, start:stop] = g_seg * solution[n_cells : 2 * n_cells : cols, :]
    return eff


#: Above this many bytes for the dense Schur block tensor, the exact
#: solver falls back to the sparse-LU path (memory over speed).
_SCHUR_MEMORY_LIMIT_BYTES = 64 * 1024 * 1024

#: Log-ratio floor below which the semiseparable closed form would
#: underflow; such extreme chains reroute to the sparse-LU path.
_SCHUR_LOG_UNDERFLOW = -600.0

#: Per-chunk budget for the batched engine's block tensor. Much smaller
#: than the dispatch limit on purpose: the batched assembly is memory-
#: bound, and chunks that spill the cache hierarchy cost more in
#: bandwidth than they save in amortization. A budget scan over 64-trial
#: stacks measured 1 MB as the knee — 1.4x over the scalar loop at
#: 16x16, parity at 64x64 — while 8 MB chunks were ~12% *slower* than
#: scalar at 64x64 and 64 MB chunks ~6x slower.
_SCHUR_BATCH_CHUNK_BYTES = 1024 * 1024


def _schur_blocks(
    g: np.ndarray, g_seg: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble the Schur diagonal blocks and reduced RHS of the WL system.

    ``g`` has shape ``(..., rows, cols)`` with ``rows <= cols``; leading
    axes (if any) are independent trials. Returns ``(D, R, l_min)``:
    the blocks ``(..., cols, rows, rows)``, the reduced right-hand sides
    ``(..., cols, rows)``, and per-trial minima of the log-ratio profile
    (``(...)``-shaped) for the underflow guard.

    Every operation here is an elementwise ufunc, a sequential scan down
    the chain axis, or pure data movement, so lifting a trials axis in
    front changes nothing per element — the batched assembly is
    bit-identical per trial to the scalar one (asserted in the kernel
    equivalence tests).
    """
    rows, cols = g.shape[-2:]
    lead = g.shape[:-2]
    g2 = g_seg * g_seg
    i_idx = np.arange(rows)

    # Per-column BL chain: tridiag(-g_seg, a, -g_seg) with loaded diagonal.
    a = g + g_seg + g_seg * (i_idx < rows - 1)[:, None]  # (..., rows, cols)
    r = np.empty(lead + (rows, cols))
    s = np.empty(lead + (rows, cols))
    r[..., 0, :] = a[..., 0, :]
    s[..., rows - 1, :] = a[..., rows - 1, :]
    for k in range(1, rows):
        r[..., k, :] = a[..., k, :] - g2 / r[..., k - 1, :]
    for k in range(rows - 2, -1, -1):
        s[..., k, :] = a[..., k, :] - g2 / s[..., k + 1, :]
    d = 1.0 / (r + s - a)  # diagonal of each chain's inverse

    # Semiseparable structure of a tridiagonal inverse: for i >= j,
    # (T^-1)_{ij} = d_i * E_i / E_j with E_i = prod_{k<i} (g_seg / r_k).
    if rows > 1:
        log_rho = np.log(g_seg / r[..., :-1, :])
        L = np.concatenate(
            [np.zeros(lead + (1, cols)), np.cumsum(log_rho, axis=-2)], axis=-2
        )
        l_min = L.min(axis=(-2, -1))
    else:
        L = np.zeros(lead + (1, cols))
        l_min = L.min(axis=(-2, -1))
    # Trials past the underflow floor are rejected by the caller; zero
    # their profile so the (discarded) assembly below stays finite and
    # warning-free. `where` passes surviving trials through untouched.
    L = np.where(l_min[..., None, None] < _SCHUR_LOG_UNDERFLOW, 0.0, L)
    E = np.exp(L)  # (..., rows, cols), decreasing down each chain

    gT = np.ascontiguousarray(np.swapaxes(g, -1, -2))  # (..., cols, rows)
    dET = np.swapaxes(d * E, -1, -2)  # (..., cols, rows)
    u = gT * dET  # g_i d_i E_i
    v = gT / np.swapaxes(E, -1, -2)  # g_j / E_j
    # Schur diagonal blocks D_j = diag(dwl_j) - G_j T_j^-1 G_j, built from
    # the rank-1 triangular outer product of u and v.
    lower = np.tril(u[..., :, :, None] * v[..., :, None, :], k=-1)  # strict
    D = -(lower + np.swapaxes(lower, -1, -2))
    j_idx = np.arange(cols)
    dwl = np.swapaxes(
        g + g_seg + g_seg * (j_idx < cols - 1)[None, :], -1, -2
    )  # (..., cols, rows)
    # diag of -G T^-1 G is -g^2 d
    D[..., i_idx, i_idx] += dwl - gT * gT * np.swapaxes(d, -1, -2)

    # Reduced RHS: drive j injects g_seg through bl(0, j), eliminated to
    # block j as G_j T_j^-1 (g_seg e_0) = g_seg * u'_j with E_0 = 1.
    R = g_seg * gT * dET  # (..., cols, rows)
    return D, R, l_min


def _schur_sweep(D: np.ndarray, R: np.ndarray, g_seg: float) -> np.ndarray | None:
    """Reverse block-UL sweep of one trial's WL system.

    ``D`` is ``(cols, rows, rows)``, ``R`` is ``(cols, rows)``. The
    sweep computes ``U_j = D_j - g_seg^2 U_{j+1}^-1`` and
    ``h_j = r_j + g_seg U_{j+1}^-1 h_{j+1}``; back-substitution then
    starts at block 0, which is the only solution block the readout
    needs — one Cholesky per block column, lower triangles only. This
    single implementation serves the scalar engine and (called per
    trial) the batched one, so per-trial bit-identity is structural.

    Returns ``None`` if a block fails Cholesky (SPD violated — only
    possible on malformed input), signalling the sparse-LU fallback.
    """
    cols, rows = R.shape
    g2 = g_seg * g_seg
    if cols == 1:
        return g_seg * np.linalg.solve(D[0], R[0][:, None])

    U = D[cols - 1].copy()
    h = np.zeros((rows, cols), order="F")
    h[:, cols - 1] = R[cols - 1]
    for j in range(cols - 2, -1, -1):
        c, info = _lapack.dpotrf(U, lower=1, overwrite_a=1)
        if info != 0:  # pragma: no cover - SPD by construction
            return None
        inv_u, info = _lapack.dpotri(c, lower=1, overwrite_c=1)
        if info != 0:  # pragma: no cover
            return None
        h[:, j + 1 :] = g_seg * _blas.dsymm(
            1.0, inv_u, h[:, j + 1 :], side=0, lower=1
        )
        h[:, j] = R[j]
        U = D[j] - g2 * inv_u
    _, x, info = _lapack.dposv(U, h, lower=1)
    if info != 0:  # pragma: no cover - SPD by construction
        return None
    return g_seg * x


def _exact_effective_schur(g: np.ndarray, r_wire: float) -> np.ndarray | None:
    """Exact effective matrix via BL elimination + block-tridiagonal Schur.

    The ladder unknowns split into BL nodes (per-column independent
    tridiagonal chains) and WL nodes. Eliminating the BL nodes leaves a
    block-tridiagonal SPD system over the WL nodes whose diagonal blocks
    come from the *closed-form semiseparable inverse* of each BL chain
    (two continued-fraction recurrences plus one rank-1 triangular outer
    product — no factorization at all; :func:`_schur_blocks`), and whose
    off-diagonal blocks are ``-g_seg I``; :func:`_schur_sweep` then
    solves for the readout block.

    Arrays with ``rows > cols`` are handled by network reciprocity
    (``M(g^T) = M(g)^T``, a consequence of the nodal matrix symmetry).

    Returns ``None`` when the closed form would underflow (pathologically
    lossy chains) so the caller can fall back to the sparse-LU path.
    """
    rows, cols = g.shape
    if rows > cols:
        result = _exact_effective_schur(g.T, r_wire)
        return None if result is None else result.T
    g = np.asarray(g, dtype=float)
    g_seg = 1.0 / r_wire
    D, R, l_min = _schur_blocks(g, g_seg)
    if float(l_min) < _SCHUR_LOG_UNDERFLOW:
        return None  # closed form would underflow; use sparse LU
    return _schur_sweep(D, R, g_seg)


def exact_effective_matrix(
    g: np.ndarray, r_wire: float, *, method: str = "auto"
) -> np.ndarray:
    """Exact parasitic effective matrix via the full ladder network.

    The result ``M`` satisfies ``i_out = M @ v_in`` where ``v_in`` are
    the BL drive voltages and ``i_out`` the currents collected at the
    virtual-ground WL terminals.

    Two solution engines are available:

    - ``"schur"``: eliminate the BL nodes through the closed-form
      semiseparable inverse of each column's tridiagonal chain and solve
      the remaining block-tridiagonal WL system with a reverse block-UL
      sweep. O(cols * rows^3) dense BLAS with tiny constants — the fast
      path for every practical array size.
    - ``"lu"``: vectorized sparse assembly, one SuperLU factorization,
      and a single multi-RHS ``lu.solve`` for all drive columns.

    ``"auto"`` (default) picks ``"schur"`` unless its dense block tensor
    would exceed the memory budget, then falls back to ``"lu"``.

    Use the first-order model for large Monte-Carlo sweeps, or a
    :class:`ParasiticExtractor` to amortize repeated extractions.

    Parameters
    ----------
    g:
        Non-negative programmed conductances (siemens).
    r_wire:
        Segment resistance (ohm).
    method:
        ``"auto"``, ``"schur"``, or ``"lu"``.
    """
    g = check_matrix(g, "g")
    if np.any(g < 0.0):
        raise ValueError("conductances must be non-negative")
    if r_wire == 0.0:
        return g.copy()
    if r_wire < 0.0:
        raise ValueError(f"r_wire must be >= 0, got {r_wire}")
    if method not in ("auto", "schur", "lu"):
        raise ValueError(f"method must be 'auto', 'schur', or 'lu', got {method!r}")

    if method in ("auto", "schur"):
        rows, cols = g.shape
        small, large = sorted(g.shape)
        tensor_bytes = large * small * small * 8
        if method == "schur" or tensor_bytes <= _SCHUR_MEMORY_LIMIT_BYTES:
            eff = _exact_effective_schur(g, r_wire)
            if eff is not None:
                return eff
            if method == "schur":
                raise CircuitError(
                    "schur engine under/overflowed for this network; "
                    "use method='lu'"
                )

    lu, rows, cols = _factorize_ladder(g, r_wire)
    return _readout_from_lu(lu, rows, cols, r_wire)


def exact_effective_matrix_batch(g: np.ndarray, r_wire: float) -> np.ndarray:
    """Exact parasitic effective matrices for a ``(trials, rows, cols)`` stack.

    Per-trial results are **bit-identical** to
    ``exact_effective_matrix(g[t], r_wire)`` (asserted in the kernel
    equivalence tests): the Schur *assembly* — elementwise recurrences,
    scans, and data movement — vectorizes over a leading trials axis
    without changing any per-element operation (:func:`_schur_blocks`),
    while the block sweep runs the exact same LAPACK sequence per trial
    (:func:`_schur_sweep` is shared with the scalar engine). The win is
    amortization: one validation pass, one fused assembly over all
    trials (the Python-loop recurrences run once instead of per trial),
    and no per-trial dispatch overhead — which is where the scalar
    engine's time outside BLAS goes for Monte-Carlo-sized arrays.

    Trials are chunked so the assembled block tensor respects the same
    memory budget the scalar auto-dispatch enforces; shapes whose
    *per-trial* tensor exceeds the budget fall back to the scalar engine
    per trial (sparse LU), as does any trial rejected by the underflow
    guard — exactly mirroring ``method="auto"``.

    Parameters
    ----------
    g:
        Non-negative programmed conductances, shape ``(trials, rows, cols)``.
    r_wire:
        Segment resistance (ohm), shared by all trials.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 3:
        raise ValidationError(f"g must be 3-D (trials, rows, cols), got {g.shape}")
    if g.size == 0:
        raise ValidationError("g must be non-empty")
    if not np.all(np.isfinite(g)):
        raise ValidationError("g contains non-finite entries")
    if np.any(g < 0.0):
        raise ValueError("conductances must be non-negative")
    if r_wire == 0.0:
        return g.copy()
    if r_wire < 0.0:
        raise ValueError(f"r_wire must be >= 0, got {r_wire}")

    trials, rows, cols = g.shape
    small, large = sorted((rows, cols))
    tensor_bytes = large * small * small * 8
    if tensor_bytes > _SCHUR_MEMORY_LIMIT_BYTES:
        # The scalar auto-dispatch would use sparse LU for this shape.
        return np.stack([exact_effective_matrix(g[t], r_wire) for t in range(trials)])

    # Reciprocity: run the Schur engine on the orientation with
    # rows <= cols and transpose each result back (exact data movement).
    transposed = rows > cols
    work = np.ascontiguousarray(np.swapaxes(g, 1, 2)) if transposed else g
    g_seg = 1.0 / r_wire
    out = np.empty_like(g)
    chunk = max(1, _SCHUR_BATCH_CHUNK_BYTES // tensor_bytes)
    for start in range(0, trials, chunk):
        stop = min(trials, start + chunk)
        D, R, l_min = _schur_blocks(work[start:stop], g_seg)
        bad = l_min < _SCHUR_LOG_UNDERFLOW
        for k in range(stop - start):
            t = start + k
            x = None if bad[k] else _schur_sweep(D[k], R[k], g_seg)
            if x is None:
                # Underflow (or SPD failure): the scalar engine reroutes
                # this trial to sparse LU on the original orientation.
                out[t] = exact_effective_matrix(g[t], r_wire)
            else:
                out[t] = x.T if transposed else x
    return out


class ParasiticExtractor:
    """LRU-cached exact parasitic extraction engine.

    Extraction cost has two parts: the *symbolic* part (the sparsity
    structure of the ladder system, a pure function of the array shape)
    and the *numeric* part (value assembly + LU factorization + solve).
    The symbolic part is shared process-wide via the per-shape structure
    template; this class additionally keeps an LRU cache of completed
    extractions keyed by the exact conductance bytes, so asking for the
    same programmed array twice — as the five-step schedule does for its
    ``A1`` array, or as paired positive/negative arrays with identical
    states do — returns instantly without re-factoring.

    When only ``g``'s *values* change (same shape), the cached structure
    template makes re-assembly a handful of vectorized concatenations;
    only the numeric factorization is redone.

    Parameters
    ----------
    maxsize:
        Maximum number of cached extractions (LRU eviction).
    """

    def __init__(self, maxsize: int = 16):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._cache: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def extract(self, g: np.ndarray, r_wire: float) -> np.ndarray:
        """Exact effective matrix, served from cache when possible."""
        g = check_matrix(g, "g")
        if r_wire == 0.0:
            return g.copy()
        key = (g.shape, float(r_wire), g.tobytes())
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            self._cache.move_to_end(key)
            return cached.copy()
        self.misses += 1
        eff = exact_effective_matrix(g, r_wire)
        self._cache[key] = eff
        if len(self._cache) > self.maxsize:
            self._cache.popitem(last=False)
        return eff.copy()

    def effective(self, g: np.ndarray, config: ParasiticConfig) -> np.ndarray:
        """Dispatch like :func:`effective_conductance_matrix`, with caching."""
        if config.is_ideal:
            return np.array(g, dtype=float, copy=True)
        if config.fidelity == "first_order":
            return first_order_effective_matrix(g, config.r_wire, config.alpha)
        return self.extract(g, config.r_wire)

    def clear(self) -> None:
        """Drop all cached extractions (keeps hit/miss counters)."""
        self._cache.clear()


#: Process-wide extractor behind :func:`effective_conductance_matrix`:
#: cross-array sharing for byte-identical conductance states (live
#: :class:`CrossbarArray` objects additionally keep their own per-array
#: cache). Kept small — at 512x512 each cached result is ~2 MB — and
#: clearable via :func:`default_extractor` for memory-sensitive runs.
_DEFAULT_EXTRACTOR = ParasiticExtractor(maxsize=8)


def default_extractor() -> ParasiticExtractor:
    """The process-wide extractor used by :func:`effective_conductance_matrix`.

    Call ``default_extractor().clear()`` to release cached extractions
    between independent experiments.
    """
    return _DEFAULT_EXTRACTOR


def effective_conductance_matrix(g: np.ndarray, config: ParasiticConfig) -> np.ndarray:
    """Dispatch to the configured parasitic model.

    Exact extractions are served through a shared process-wide
    :class:`ParasiticExtractor` (see :func:`default_extractor`), so
    repeated extraction of the same programmed conductances costs one
    cache lookup.

    Parameters
    ----------
    g:
        Non-negative programmed conductances (siemens).
    config:
        Model selection and wire resistance.
    """
    if config.is_ideal:
        return np.array(g, dtype=float, copy=True)
    if config.fidelity == "first_order":
        return first_order_effective_matrix(g, config.r_wire, config.alpha)
    return _DEFAULT_EXTRACTOR.extract(g, config.r_wire)
