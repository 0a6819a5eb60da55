"""Cell-by-cell reference builders for the Fig. 1 crossbar netlists.

:func:`repro.circuits.generators.build_mvm_circuit` and
:func:`~repro.circuits.generators.build_inv_circuit` append their
elements through the bulk netlist API, with node and element names
taken from cached per-shape templates. The builders here append every
element through the scalar :class:`~repro.circuits.netlist.Circuit`
builders, one at a time, and format every name on the spot. They share
no code with the production builders beyond the netlist container, so
an equal element list (values, names and order) checks the bulk path's
index arithmetic.

The signatures mirror the production builders minus ``columnar=``;
arguments are assumed valid.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.netlist import Circuit

__all__ = ["build_inv_circuit", "build_mvm_circuit"]


def _offset_nodes(circuit: Circuit, offsets, rows: int) -> list[str]:
    """Ground, or one series offset source per non-inverting input."""
    if offsets is None:
        return ["0"] * rows
    nodes = [f"vos_{i}" for i in range(rows)]
    for i in range(rows):
        circuit.vsource(nodes[i], "0", float(offsets[i]), f"Vos_{i}")
    return nodes


def _wire_array(circuit: Circuit, g, prefix, bl_drive_nodes, wl_collect_nodes, r_wire):
    """Wire one conductance array, cell by cell.

    Without wire resistance each cell joins its driver and collector
    directly; otherwise every column gets a BL ladder from its driver,
    every row a WL ladder from its collector, and each cell sits between
    its own ladder nodes.
    """
    rows, cols = g.shape
    if r_wire == 0.0:
        for i in range(rows):
            for j in range(cols):
                if g[i, j] > 0.0:
                    circuit.conductor(
                        bl_drive_nodes[j], wl_collect_nodes[i], g[i, j], f"{prefix}_g_{i}_{j}"
                    )
        return

    for j in range(cols):
        previous = bl_drive_nodes[j]
        for i in range(rows):
            node = f"{prefix}_b_{i}_{j}"
            circuit.resistor(previous, node, r_wire, f"{prefix}_rb_{i}_{j}")
            previous = node
    for i in range(rows):
        previous = wl_collect_nodes[i]
        for j in range(cols):
            node = f"{prefix}_w_{i}_{j}"
            circuit.resistor(previous, node, r_wire, f"{prefix}_rw_{i}_{j}")
            previous = node
    for i in range(rows):
        for j in range(cols):
            if g[i, j] > 0.0:
                circuit.conductor(
                    f"{prefix}_b_{i}_{j}", f"{prefix}_w_{i}_{j}", g[i, j], f"{prefix}_g_{i}_{j}"
                )


def build_mvm_circuit(
    g_pos: np.ndarray,
    g_neg: np.ndarray,
    v_in: np.ndarray,
    g_feedback: float,
    *,
    r_wire: float = 0.0,
    opamp_gain: float | None = None,
    offsets: np.ndarray | None = None,
) -> tuple[Circuit, list[str]]:
    """MVM circuit of Fig. 1(a), every element appended on its own."""
    rows, cols = g_pos.shape
    circuit = Circuit("mvm")
    pos_drivers = [f"drv_p_{j}" for j in range(cols)]
    neg_drivers = [f"drv_n_{j}" for j in range(cols)]
    for j in range(cols):
        circuit.vsource(pos_drivers[j], "0", float(v_in[j]), f"Vp_{j}")
        circuit.vsource(neg_drivers[j], "0", float(-v_in[j]), f"Vn_{j}")

    sum_nodes = [f"sum_{i}" for i in range(rows)]
    out_nodes = [f"out_{i}" for i in range(rows)]
    noninv = _offset_nodes(circuit, offsets, rows)
    for i in range(rows):
        circuit.opamp(sum_nodes[i], noninv[i], out_nodes[i], gain=opamp_gain, name=f"A_{i}")
        circuit.conductor(out_nodes[i], sum_nodes[i], g_feedback, f"Rf_{i}")

    _wire_array(circuit, g_pos, "p", pos_drivers, sum_nodes, r_wire)
    _wire_array(circuit, g_neg, "n", neg_drivers, sum_nodes, r_wire)
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
) -> tuple[Circuit, list[str]]:
    """INV circuit of Fig. 1(b), every element appended on its own."""
    rows, cols = g_pos.shape
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

    _wire_array(circuit, g_pos, "p", out_nodes, sum_nodes, r_wire)
    _wire_array(circuit, g_neg, "n", ninv_nodes, sum_nodes, r_wire)
    return circuit, out_nodes
