"""Netlist generators for the paper's AMC crossbar topologies (Fig. 1).

These builders produce full transistor-free netlists of the MVM and INV
circuits, including the dual positive/negative arrays, optional wire
segment resistances, and either ideal or finite-gain op-amps. They are the
ground truth the fast algebraic models in :mod:`repro.amc` are validated
against (the same role HSPICE plays in the paper).

Geometry convention matches :mod:`repro.crossbar.parasitics`: BL drivers
sit at row 0 of each column, WL amplifiers at column 0 of each row.

Each builder has two assembly paths with the same element order: an
object :class:`~repro.circuits.netlist.Circuit` filled through the
bulk-append API (the default; the AC sweep in :mod:`repro.circuits.ac`
needs it, because it stamps complex op-amp gains), and a struct-of-arrays
:class:`~repro.circuits.columnar.ColumnarCircuit` (``columnar=True``,
the MNA hot path). Both are checked against the cell-by-cell builders
in ``tests/oracles/netlist.py``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.circuits.columnar import ColumnarCircuit
from repro.circuits.netlist import Circuit
from repro.errors import CircuitError
from repro.utils.validation import check_matrix, check_positive, check_vector


@lru_cache(maxsize=8)
def _array_strings(prefix: str, rows: int, cols: int) -> dict:
    """Structure template: every node/element name of one array's wiring.

    The names depend only on the array geometry, never on conductance
    values, so one template serves every netlist of the same shape —
    repeated builds (Monte-Carlo MNA validation, the serving hot path)
    skip ~5 f-string constructions per cell. Tuples, so a template can
    never be mutated by a caller.

    Layout: ``b_nodes``/``rb_names`` are column-major (index
    ``j * rows + i``), ``w_nodes``/``rw_names``/``g_names`` row-major
    (index ``i * cols + j``), matching the order :func:`_add_array`
    inserts the ladder segments in.
    """
    return {
        "b_nodes": tuple(
            f"{prefix}_b_{i}_{j}" for j in range(cols) for i in range(rows)
        ),
        "rb_names": tuple(
            f"{prefix}_rb_{i}_{j}" for j in range(cols) for i in range(rows)
        ),
        "w_nodes": tuple(
            f"{prefix}_w_{i}_{j}" for i in range(rows) for j in range(cols)
        ),
        "rw_names": tuple(
            f"{prefix}_rw_{i}_{j}" for i in range(rows) for j in range(cols)
        ),
        "g_names": tuple(
            f"{prefix}_g_{i}_{j}" for i in range(rows) for j in range(cols)
        ),
    }


def _add_array(
    circuit: Circuit,
    g: np.ndarray,
    prefix: str,
    bl_drive_nodes: list[str],
    wl_collect_nodes: list[str],
    r_wire: float,
) -> None:
    """Wire one conductance array between its BL drivers and WL collectors.

    With ``r_wire == 0`` cells connect driver and collector nodes
    directly; otherwise explicit ladder nodes are created per cell.
    Elements land through the bulk-append netlist API: cell positions
    come from one ``np.nonzero``, node/name strings from flat
    comprehensions, and the circuit registers each element class in a
    single pass (the cell-by-cell reference builders live in
    ``tests/oracles/netlist.py``; ``benchmarks/bench_perf_engine.py``
    times this path against them).
    """
    rows, cols = g.shape
    ii, jj = np.nonzero(g > 0.0)
    # Python-native ints/floats: f-string formatting and float() on
    # NumPy scalars cost ~10x their native equivalents at this volume.
    cells = list(zip(ii.tolist(), jj.tolist()))
    values = g[ii, jj].tolist()
    names = _array_strings(prefix, rows, cols)
    g_names = names["g_names"]
    if r_wire == 0.0:
        circuit.conductors(
            [bl_drive_nodes[j] for _, j in cells],
            [wl_collect_nodes[i] for i, _ in cells],
            values,
            [g_names[i * cols + j] for i, j in cells],
        )
        return

    b_nodes, w_nodes = names["b_nodes"], names["w_nodes"]
    # Column (BL) ladder: drive node -> b_0 -> b_1 -> ... per column.
    circuit.resistors(
        [
            bl_drive_nodes[j] if i == 0 else b_nodes[j * rows + i - 1]
            for j in range(cols)
            for i in range(rows)
        ],
        b_nodes,
        [r_wire] * (rows * cols),
        names["rb_names"],
    )
    # Row (WL) ladder: collect node -> w_0 -> w_1 -> ... per row.
    circuit.resistors(
        [
            wl_collect_nodes[i] if j == 0 else w_nodes[i * cols + j - 1]
            for i in range(rows)
            for j in range(cols)
        ],
        w_nodes,
        [r_wire] * (rows * cols),
        names["rw_names"],
    )
    circuit.conductors(
        [b_nodes[j * rows + i] for i, j in cells],
        [w_nodes[i * cols + j] for i, j in cells],
        values,
        [g_names[i * cols + j] for i, j in cells],
    )


def _add_array_columnar(
    circuit: ColumnarCircuit,
    g: np.ndarray,
    prefix: str,
    bl_drive_ids: np.ndarray,
    wl_collect_ids: np.ndarray,
    r_wire: float,
) -> None:
    """Columnar counterpart of :func:`_add_array`: pure index arithmetic.

    Ladder connectivity is expressed directly on interned node-id
    arrays — the drive column is prepended and the grid shifted by one —
    so no per-cell Python work happens at all. Runs land in the same
    order as the bulk object path (BL ladder, WL ladder, cells) and each
    run's internal order matches element order there, so the assembled
    matrix is bit-identical.
    """
    rows, cols = g.shape
    ii, jj = np.nonzero(g > 0.0)
    values = g[ii, jj]
    if r_wire == 0.0:
        circuit.conductors(bl_drive_ids[jj], wl_collect_ids[ii], values)
        return

    names = _array_strings(prefix, rows, cols)
    b_ids = circuit.node_ids(names["b_nodes"])  # column-major (j, i)
    w_ids = circuit.node_ids(names["w_nodes"])  # row-major (i, j)
    b_grid = b_ids.reshape(cols, rows)
    w_grid = w_ids.reshape(rows, cols)
    segments = np.full(rows * cols, r_wire)
    # Column (BL) ladder: drive node -> b_0 -> b_1 -> ... per column.
    circuit.resistors(
        np.concatenate([bl_drive_ids[:, None], b_grid[:, :-1]], axis=1).ravel(),
        b_ids,
        segments,
    )
    # Row (WL) ladder: collect node -> w_0 -> w_1 -> ... per row.
    circuit.resistors(
        np.concatenate([wl_collect_ids[:, None], w_grid[:, :-1]], axis=1).ravel(),
        w_ids,
        segments,
    )
    circuit.conductors(b_grid[jj, ii], w_grid[ii, jj], values)


def _offset_ids(
    circuit: ColumnarCircuit, offsets: np.ndarray | None, rows: int
) -> np.ndarray:
    """Columnar counterpart of :func:`_offset_nodes` (ids, ground = -1)."""
    if offsets is None:
        return np.full(rows, -1, dtype=np.intp)
    offsets = check_vector(offsets, "offsets", size=rows)
    ids = circuit.node_ids([f"vos_{i}" for i in range(rows)])
    circuit.vsources(
        ids,
        np.full(rows, -1, dtype=np.intp),
        offsets,
        [f"Vos_{i}" for i in range(rows)],
    )
    return ids


def _offset_nodes(circuit: Circuit, offsets: np.ndarray | None, rows: int) -> list[str]:
    """Non-inverting input nodes: ground, or offset sources when given.

    A real op-amp's input-referred offset is modelled exactly by a small
    voltage source in series with the non-inverting input.
    """
    if offsets is None:
        return ["0"] * rows
    offsets = check_vector(offsets, "offsets", size=rows)
    nodes = [f"vos_{i}" for i in range(rows)]
    circuit.vsources(nodes, ["0"] * rows, offsets, [f"Vos_{i}" for i in range(rows)])
    return nodes


def build_mvm_circuit(
    g_pos: np.ndarray,
    g_neg: np.ndarray,
    v_in: np.ndarray,
    g_feedback: float,
    *,
    r_wire: float = 0.0,
    opamp_gain: float | None = None,
    offsets: np.ndarray | None = None,
    columnar: bool = False,
) -> tuple[Circuit | ColumnarCircuit, list[str]]:
    """Build the MVM circuit of Fig. 1(a) with a dual array pair.

    The positive array's BLs are driven with ``v_in`` and the negative
    array's with ``-v_in`` (ideal input inverters), both collecting into
    the same per-row TIA whose feedback conductance is ``g_feedback``.
    At the ideal operating point the outputs are
    ``v_out = -(g_pos - g_neg) @ v_in / g_feedback``.

    Parameters
    ----------
    g_pos, g_neg:
        Non-negative conductance arrays (siemens), same shape.
    v_in:
        BL drive voltages, one per column.
    g_feedback:
        TIA feedback conductance (``G0``).
    r_wire:
        Wire segment resistance (ohm); 0 disables the ladder.
    opamp_gain:
        Finite open-loop gain; ``None`` for ideal op-amps.
    columnar:
        Build a struct-of-arrays :class:`ColumnarCircuit` instead of an
        object netlist. The assembled MNA
        system is bit-identical to the object path's; assembly is an
        order of magnitude faster for large ladders.

    Returns
    -------
    (circuit, output_nodes):
        The netlist and the TIA output node names, one per row.
    """
    g_pos = check_matrix(g_pos, "g_pos")
    g_neg = check_matrix(g_neg, "g_neg")
    if g_pos.shape != g_neg.shape:
        raise CircuitError(f"g_pos/g_neg shapes differ: {g_pos.shape} vs {g_neg.shape}")
    rows, cols = g_pos.shape
    v_in = check_vector(v_in, "v_in", size=cols)
    check_positive(g_feedback, "g_feedback")

    if columnar:
        return _build_mvm_columnar(
            g_pos, g_neg, v_in, g_feedback, r_wire, opamp_gain, offsets
        )

    circuit = Circuit("mvm")
    pos_drivers = [f"drv_p_{j}" for j in range(cols)]
    neg_drivers = [f"drv_n_{j}" for j in range(cols)]
    # Interleaved (Vp_j, Vn_j) per column, the cell-by-cell order.
    circuit.vsources(
        [node for j in range(cols) for node in (pos_drivers[j], neg_drivers[j])],
        ["0"] * (2 * cols),
        [value for j in range(cols) for value in (v_in[j], -v_in[j])],
        [name for j in range(cols) for name in (f"Vp_{j}", f"Vn_{j}")],
    )

    sum_nodes = [f"sum_{i}" for i in range(rows)]
    out_nodes = [f"out_{i}" for i in range(rows)]
    noninv = _offset_nodes(circuit, offsets, rows)
    for i in range(rows):
        circuit.opamp(sum_nodes[i], noninv[i], out_nodes[i], gain=opamp_gain, name=f"A_{i}")
        circuit.conductor(out_nodes[i], sum_nodes[i], g_feedback, f"Rf_{i}")

    _add_array(circuit, g_pos, "p", pos_drivers, sum_nodes, r_wire)
    _add_array(circuit, g_neg, "n", neg_drivers, sum_nodes, r_wire)
    return circuit, out_nodes


def _build_mvm_columnar(
    g_pos: np.ndarray,
    g_neg: np.ndarray,
    v_in: np.ndarray,
    g_feedback: float,
    r_wire: float,
    opamp_gain: float | None,
    offsets: np.ndarray | None,
) -> tuple[ColumnarCircuit, list[str]]:
    """Columnar MVM build (validated arguments; see :func:`build_mvm_circuit`).

    Homogeneous element groups land as single bulk runs (all drivers,
    all amplifiers, all feedback conductors, then each array). Grouping
    the per-row amplifier/feedback pair — interleaved in the object
    path — is safe for bit-identity because the two kinds stamp disjoint
    matrix cells and the branch/source orderings are unchanged.
    """
    rows, cols = g_pos.shape
    circuit = ColumnarCircuit("mvm")
    ground = np.full(2 * cols, -1, dtype=np.intp)
    pos_ids = circuit.node_ids([f"drv_p_{j}" for j in range(cols)])
    neg_ids = circuit.node_ids([f"drv_n_{j}" for j in range(cols)])
    # Interleaved (Vp_j, Vn_j) per column, matching the object path.
    circuit.vsources(
        np.stack([pos_ids, neg_ids], axis=1).ravel(),
        ground,
        np.stack([v_in, -v_in], axis=1).ravel(),
        [name for j in range(cols) for name in (f"Vp_{j}", f"Vn_{j}")],
    )

    sum_ids = circuit.node_ids([f"sum_{i}" for i in range(rows)])
    out_nodes = [f"out_{i}" for i in range(rows)]
    out_ids = circuit.node_ids(out_nodes)
    noninv_ids = _offset_ids(circuit, offsets, rows)
    amp_names = [f"A_{i}" for i in range(rows)]
    if opamp_gain is None:
        circuit.opamps(sum_ids, noninv_ids, out_ids, amp_names)
    else:
        circuit.vcvs(
            out_ids,
            np.full(rows, -1, dtype=np.intp),
            noninv_ids,
            sum_ids,
            np.full(rows, float(opamp_gain)),
            amp_names,
        )
    circuit.conductors(out_ids, sum_ids, np.full(rows, float(g_feedback)))

    _add_array_columnar(circuit, g_pos, "p", pos_ids, sum_ids, r_wire)
    _add_array_columnar(circuit, g_neg, "n", neg_ids, sum_ids, r_wire)
    return circuit, out_nodes


def build_inv_circuit(
    g_pos: np.ndarray,
    g_neg: np.ndarray,
    v_in: np.ndarray,
    g_input: float,
    *,
    r_wire: float = 0.0,
    opamp_gain: float | None = None,
    offsets: np.ndarray | None = None,
    columnar: bool = False,
) -> tuple[Circuit | ColumnarCircuit, list[str]]:
    """Build the INV circuit of Fig. 1(b) with a dual array pair.

    Input voltages are conveyed through conductances ``g_input`` onto the
    virtual-ground WLs; op-amp outputs feed back into the BLs (directly
    for the positive array, through unity inverters for the negative
    array). At the ideal operating point
    ``v_out = -inv((g_pos - g_neg) / g_input) @ v_in``, i.e. the circuit
    solves the linear system in one step.

    Parameters and return mirror :func:`build_mvm_circuit`; arrays must be
    square.
    """
    g_pos = check_matrix(g_pos, "g_pos")
    g_neg = check_matrix(g_neg, "g_neg")
    if g_pos.shape != g_neg.shape:
        raise CircuitError(f"g_pos/g_neg shapes differ: {g_pos.shape} vs {g_neg.shape}")
    rows, cols = g_pos.shape
    if rows != cols:
        raise CircuitError(f"INV requires a square array, got {g_pos.shape}")
    v_in = check_vector(v_in, "v_in", size=rows)
    check_positive(g_input, "g_input")

    if columnar:
        return _build_inv_columnar(
            g_pos, g_neg, v_in, g_input, r_wire, opamp_gain, offsets
        )

    circuit = Circuit("inv")
    sum_nodes = [f"sum_{i}" for i in range(rows)]
    out_nodes = [f"out_{i}" for i in range(rows)]
    noninv = _offset_nodes(circuit, offsets, rows)

    for i in range(rows):
        circuit.vsource(f"in_{i}", "0", float(v_in[i]), f"Vin_{i}")
        circuit.conductor(f"in_{i}", sum_nodes[i], g_input, f"Rin_{i}")
        circuit.opamp(sum_nodes[i], noninv[i], out_nodes[i], gain=opamp_gain, name=f"A_{i}")

    # Negative array BLs are driven by inverted op-amp outputs.
    ninv_nodes = [f"ninv_{j}" for j in range(cols)]
    for j in range(cols):
        circuit.vcvs(ninv_nodes[j], "0", "0", out_nodes[j], 1.0, f"Einv_{j}")

    _add_array(circuit, g_pos, "p", out_nodes, sum_nodes, r_wire)
    _add_array(circuit, g_neg, "n", ninv_nodes, sum_nodes, r_wire)
    return circuit, out_nodes


def _build_inv_columnar(
    g_pos: np.ndarray,
    g_neg: np.ndarray,
    v_in: np.ndarray,
    g_input: float,
    r_wire: float,
    opamp_gain: float | None,
    offsets: np.ndarray | None,
) -> tuple[ColumnarCircuit, list[str]]:
    """Columnar INV build (validated arguments; see :func:`build_inv_circuit`).

    The per-row input source / input conductor / amplifier triple
    *interleaves* two branch kinds (V and U), so — unlike the MVM build —
    the rows append as per-row runs to keep the branch ordering (and with
    it the assembled system) bit-identical to the object path. The row
    count is small next to the arrays, which still land as bulk runs.
    """
    rows, cols = g_pos.shape
    circuit = ColumnarCircuit("inv")
    ground1 = np.full(1, -1, dtype=np.intp)
    sum_ids = circuit.node_ids([f"sum_{i}" for i in range(rows)])
    out_nodes = [f"out_{i}" for i in range(rows)]
    out_ids = circuit.node_ids(out_nodes)
    noninv_ids = _offset_ids(circuit, offsets, rows)
    in_ids = circuit.node_ids([f"in_{i}" for i in range(rows)])
    g_in = np.full(1, float(g_input))
    gain1 = None if opamp_gain is None else np.full(1, float(opamp_gain))
    for i in range(rows):
        circuit.vsources(in_ids[i : i + 1], ground1, v_in[i : i + 1], [f"Vin_{i}"])
        circuit.conductors(in_ids[i : i + 1], sum_ids[i : i + 1], g_in)
        if gain1 is None:
            circuit.opamps(
                sum_ids[i : i + 1],
                noninv_ids[i : i + 1],
                out_ids[i : i + 1],
                [f"A_{i}"],
            )
        else:
            circuit.vcvs(
                out_ids[i : i + 1],
                ground1,
                noninv_ids[i : i + 1],
                sum_ids[i : i + 1],
                gain1,
                [f"A_{i}"],
            )

    # Negative array BLs are driven by inverted op-amp outputs.
    ninv_ids = circuit.node_ids([f"ninv_{j}" for j in range(cols)])
    circuit.vcvs(
        ninv_ids,
        np.full(cols, -1, dtype=np.intp),
        np.full(cols, -1, dtype=np.intp),
        out_ids,
        np.ones(cols),
        [f"Einv_{j}" for j in range(cols)],
    )

    _add_array_columnar(circuit, g_pos, "p", out_ids, sum_ids, r_wire)
    _add_array_columnar(circuit, g_neg, "n", ninv_ids, sum_ids, r_wire)
    return circuit, out_nodes
