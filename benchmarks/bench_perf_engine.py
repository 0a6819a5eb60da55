"""Perf engine bench: times the batched/cached hot paths against the
pre-optimization reference implementations and writes the
``BENCH_perf_engine.json`` trajectory artifact at the repo root.

Three comparisons, matching the engine's three layers:

1. ``exact_effective_matrix`` on a 64x64 array — reference cell-by-cell
   assembly + per-column solves (``tests/oracles/ladder.py``) vs. the
   Schur/banded engine (target >= 10x).
2. The tier-1-scale Fig. 7 variation sweep — sequential ``run_trials``
   vs. trial-batched ``run_trials_batched`` (target >= 3x). The
   sequential original-AMC trials walk the scalar oracle, the
   one-vector-at-a-time reference that solver's prepared solves used
   to run.
3. 64 right-hand sides against one programmed one-stage solver — a
   loop of scalar oracle solves (``tests/oracles/scalar.py``, the
   one-vector-at-a-time reference every prepared solve used to run)
   vs. multi-RHS ``solve_many``.

The noisy-config entries time what a single ``solve`` costs now that it
is a batch of one on the cached engines: the oracle loop vs. batch-of-1
solves, and a serving cache miss (programming plus warm-up solve).

The two-stage trials entry times the Fig. 9 two-stage curve: per-trial
``run_trials`` vs. the stacked solver tree of ``run_trials_batched``.

Every comparison first asserts numerical equivalence (1e-10) so a
"speedup" can never come from computing something different.
"""

from __future__ import annotations

import numpy as np

import dataclasses

from benchmarks.conftest import paper_scale
from benchmarks.perf_harness import PerfReport, time_call
from repro.amc.config import HardwareConfig
from repro.analysis.accuracy import accuracy_sweep, run_trials, run_trials_batched
from repro.analysis.reporting import format_table
from repro.circuits.generators import build_mvm_circuit
from repro.circuits.mna import assemble_mna
from repro.core.blockamc import BlockAMCSolver
from repro.core.multistage import MultiStageSolver
from repro.core.original import OriginalAMCSolver
from repro.crossbar.parasitics import (
    exact_effective_matrix,
    exact_effective_matrix_batch,
)
from repro.serve.cache import PreparedKey, prepare_entry
from repro.workloads.matrices import random_vector, wishart_matrix
from tests.oracles import ladder, netlist
from tests.oracles.scalar import OracleSolver, oracle_solve

#: Tier-1-scale sweep shape (the CI-friendly Fig. 7 configuration).
SWEEP_SIZES = (8, 16, 32)
SWEEP_TRIALS = 3

#: Loud-regression guards for the perf smoke. The committed artifact
#: documents the actual measured speedups (>= 10x / >= 3x at merge
#: time); the asserted floors leave headroom for noisy CI machines.
MIN_EXACT_SPEEDUP = 6.0
MIN_SWEEP_SPEEDUP = 2.0
MIN_SOLVE_MANY_SPEEDUP = 4.0
MIN_ASSEMBLY_SPEEDUP = 1.25
#: The ISSUE-5 acceptance floor: a >= 32-RHS multi-stage batch must beat
#: the sequential solve loop by at least 3x (measured ~20x at merge).
MIN_MULTISTAGE_SPEEDUP = 3.0
#: The ISSUE-8 acceptance floor: columnar build+assemble must beat the
#: cell-by-cell object pipeline by at least 5x (measured ~7x at merge).
MIN_COLUMNAR_SPEEDUP = 5.0
#: The batched exact extractor's win is amortization of the block
#: assembly; the per-trial LAPACK sweep dominates and cannot be stacked
#: without changing bits, so the honest floor is modest (measured ~1.4x
#: at 16x16; parity at 64x64).
MIN_BATCHED_EXACT_SPEEDUP = 1.05
#: The float32 tier must not *cost* wall-clock: the per-column LAPACK
#: sweep dominates at tier-1 sizes, so the honest floor is near-parity
#: (the tier's headline win is halved operand memory, not time).
MIN_F32_TIER_SPEEDUP = 0.7
#: Noisy n=64 solves: batch-of-1 on the cached engines vs the scalar
#: oracle loop, and a serving cache miss (program + warm-up solve).
MIN_BATCH_OF_1_SPEEDUP = 1.5
MIN_MISS_SPEEDUP = 1.2
#: Per-operation noise (volts vs a 1 V full scale) of the noisy entries.
NOISE_V = 2e-4
#: Two-stage Monte-Carlo trials: per-trial sweep vs the stacked solver
#: tree (measured 5.4-6.8x at merge).
MIN_TWOSTAGE_TRIALS_SPEEDUP = 3.5

_report = PerfReport()


def _sweep_args():
    sizes = SWEEP_SIZES if not paper_scale() else (8, 16, 32, 64, 128)
    trials = SWEEP_TRIALS if not paper_scale() else 40
    return sizes, trials


def test_exact_effective_matrix_64x64(report):
    rng = np.random.default_rng(7)
    g = rng.uniform(0.0, 1e-4, size=(64, 64))

    reference = ladder.exact_effective_matrix(g, 1.0)
    fast = exact_effective_matrix(g, 1.0)
    assert np.max(np.abs(fast - reference)) < 1e-10

    old_s = time_call(lambda: ladder.exact_effective_matrix(g, 1.0), repeats=2)
    new_s = time_call(lambda: exact_effective_matrix(g, 1.0), repeats=5)
    speedup = _report.add(
        "exact_effective_matrix_64x64",
        old_s,
        new_s,
        detail="cell-loop assembly + per-column solves vs Schur engine",
    )
    report(
        "perf_exact_effective",
        format_table(
            ["path", "ms"],
            [["loop (reference)", old_s * 1e3], ["schur engine", new_s * 1e3]],
            title=f"exact_effective_matrix 64x64 — {speedup:.1f}x",
        ),
    )
    assert speedup >= MIN_EXACT_SPEEDUP


def test_variation_sweep_tier1(report):
    config = HardwareConfig.paper_variation()
    sizes, trials = _sweep_args()

    def sequential():
        return run_trials(
            {
                "original-amc": lambda: OracleSolver(OriginalAMCSolver(config)),
                "blockamc-1stage": lambda: BlockAMCSolver(config),
            },
            lambda n, rng: wishart_matrix(n, rng),
            sizes,
            trials,
            seed=70,
        )

    def batched():
        return run_trials_batched(
            {
                "original-amc": OriginalAMCSolver(config),
                "blockamc-1stage": BlockAMCSolver(config),
            },
            lambda n, rng: wishart_matrix(n, rng),
            sizes,
            trials,
            seed=70,
        )

    seq_records = sequential()
    bat_records = batched()
    seq_table = accuracy_sweep(seq_records)
    bat_table = accuracy_sweep(bat_records)
    for solver, by_size in seq_table.items():
        for size, (mean, std) in by_size.items():
            b_mean, b_std = bat_table[solver][size]
            assert abs(mean - b_mean) < 1e-10
            assert abs(std - b_std) < 1e-10

    old_s = time_call(sequential, repeats=2)
    new_s = time_call(batched, repeats=3)
    speedup = _report.add(
        "variation_sweep_tier1",
        old_s,
        new_s,
        detail=(
            f"Fig.7 Wishart sweep, sizes={sizes}, trials={trials}, "
            "2 solvers, sequential run_trials vs run_trials_batched"
        ),
    )
    report(
        "perf_variation_sweep",
        format_table(
            ["path", "ms"],
            [["run_trials (sequential)", old_s * 1e3], ["run_trials_batched", new_s * 1e3]],
            title=f"tier-1 variation sweep — {speedup:.1f}x",
        ),
    )
    assert speedup >= MIN_SWEEP_SPEEDUP


def test_solve_many_64rhs(report):
    config = HardwareConfig.paper_variation()
    matrix = wishart_matrix(32, rng=0)
    rhs = [random_vector(32, rng=i) for i in range(64)]
    prepared = BlockAMCSolver(config).prepare(matrix, rng=5)

    def sequential():
        gen = np.random.default_rng(9)
        return [oracle_solve(prepared, b, gen) for b in rhs]

    def many():
        return prepared.solve_many(rhs, np.random.default_rng(9))

    seq_results = sequential()
    many_results = many()
    worst = max(
        float(np.max(np.abs(a.x - b.x))) for a, b in zip(seq_results, many_results)
    )
    assert worst < 1e-10

    old_s = time_call(sequential, repeats=2)
    new_s = time_call(many, repeats=3)
    speedup = _report.add(
        "solve_many_64rhs_32x32",
        old_s,
        new_s,
        detail="64 RHS on one programmed BlockAMC: scalar oracle loop vs solve_many",
    )
    report(
        "perf_solve_many",
        format_table(
            ["path", "ms"],
            [["oracle solve loop", old_s * 1e3], ["solve_many()", new_s * 1e3]],
            title=f"64-RHS multi-solve — {speedup:.1f}x",
        ),
    )
    assert speedup >= MIN_SOLVE_MANY_SPEEDUP


def test_multistage_solve_many_32rhs(report):
    """Batched two-stage recursion vs the sequential solve loop.

    32 right-hand sides against one prepared two-stage tree. The batched
    path must be **bit-identical** (not 1e-10: the recursion delegates
    to the shared kernel, so exact equality is the contract — see
    ``tests/test_kernel_equivalence.py``) and at least 3x faster.
    """
    config = HardwareConfig.paper_variation()
    matrix = wishart_matrix(32, rng=0)
    rhs = [random_vector(32, rng=i) for i in range(32)]
    prepared = MultiStageSolver(config, stages=2).prepare(matrix, rng=5)

    def sequential():
        gen = np.random.default_rng(9)
        return [oracle_solve(prepared, b, gen) for b in rhs]

    def many():
        return prepared.solve_many(rhs, np.random.default_rng(9))

    seq_results = sequential()
    many_results = many()
    for a, b in zip(seq_results, many_results):
        assert np.array_equal(a.x, b.x)
        assert a.relative_error == b.relative_error

    old_s = time_call(sequential, repeats=2)
    new_s = time_call(many, repeats=3)
    speedup = _report.add(
        "multistage_solve_many_32rhs_32x32",
        old_s,
        new_s,
        detail=(
            "32 RHS on one prepared two-stage tree: scalar oracle loop vs "
            "matrix-valued solve_many (bit-identical asserted)"
        ),
    )
    report(
        "perf_multistage_solve_many",
        format_table(
            ["path", "ms"],
            [["oracle solve loop", old_s * 1e3], ["solve_many()", new_s * 1e3]],
            title=f"32-RHS two-stage multi-solve — {speedup:.1f}x",
        ),
    )
    assert speedup >= MIN_MULTISTAGE_SPEEDUP


def test_netlist_assembly(report):
    """Bulk-append netlist assembly vs the cell-by-cell reference.

    The MVM ladder netlist (two arrays, explicit wire segments) is the
    ROADMAP's ~130k-object case at 256x256; the bench runs 128x128
    (quick) / 256x256 (paper scale) and requires the bulk path — flat
    comprehensions + cached structure templates + one-pass element
    registration — to beat the scalar builders while producing an
    element-for-element identical netlist.
    """
    n = 128 if not paper_scale() else 256
    rng = np.random.default_rng(11)
    g_pos = rng.uniform(1e-6, 1e-4, size=(n, n))
    g_neg = rng.uniform(1e-6, 1e-4, size=(n, n))
    v_in = rng.uniform(-1.0, 1.0, size=n)

    bulk_c, bulk_out = build_mvm_circuit(g_pos, g_neg, v_in, 1e-4, r_wire=1.0)
    loop_c, loop_out = netlist.build_mvm_circuit(g_pos, g_neg, v_in, 1e-4, r_wire=1.0)
    assert bulk_out == loop_out
    assert bulk_c.elements == loop_c.elements

    old_s = time_call(
        lambda: netlist.build_mvm_circuit(g_pos, g_neg, v_in, 1e-4, r_wire=1.0),
        repeats=2,
    )
    new_s = time_call(
        lambda: build_mvm_circuit(g_pos, g_neg, v_in, 1e-4, r_wire=1.0),
        repeats=3,
    )
    speedup = _report.add(
        f"netlist_assembly_mvm_{n}x{n}",
        old_s,
        new_s,
        detail=(
            f"{len(bulk_c)}-element MVM ladder netlist: cell-by-cell builders "
            "vs bulk-append + cached structure templates"
        ),
    )
    report(
        "perf_netlist_assembly",
        format_table(
            ["path", "ms"],
            [["cell-by-cell (reference)", old_s * 1e3], ["bulk-append", new_s * 1e3]],
            title=f"MVM netlist assembly {n}x{n} — {speedup:.1f}x",
        ),
    )
    assert speedup >= MIN_ASSEMBLY_SPEEDUP


def test_netlist_assembly_columnar(report):
    """Columnar struct-of-arrays pipeline vs the cell-by-cell reference.

    Times the full netlist-to-MNA pipeline (build + assemble): the
    reference path appends ~100k element objects and stamps them one by
    one; the columnar path interns node arrays, appends contiguous
    value columns, and bulk-stamps whole runs. The assembled systems
    must be **byte-identical** — same node order, same branch order,
    same sparse structure, same floats — so the speedup can never come
    from assembling a different (even reordered) system.
    """
    n = 128 if not paper_scale() else 256
    rng = np.random.default_rng(11)
    g_pos = rng.uniform(1e-6, 1e-4, size=(n, n))
    g_neg = rng.uniform(1e-6, 1e-4, size=(n, n))
    v_in = rng.uniform(-1.0, 1.0, size=n)

    def reference():
        circuit, _ = netlist.build_mvm_circuit(g_pos, g_neg, v_in, 1e-4, r_wire=1.0)
        return assemble_mna(circuit)

    def columnar():
        circuit, _ = build_mvm_circuit(
            g_pos, g_neg, v_in, 1e-4, r_wire=1.0, columnar=True
        )
        return assemble_mna(circuit)

    ref_sys = reference()
    col_sys = columnar()
    assert col_sys.node_index == ref_sys.node_index
    assert col_sys.branch_index == ref_sys.branch_index
    assert col_sys.dense == ref_sys.dense
    if ref_sys.dense:
        assert col_sys.matrix.tobytes() == ref_sys.matrix.tobytes()
    else:
        assert col_sys.matrix.data.tobytes() == ref_sys.matrix.data.tobytes()
        assert col_sys.matrix.indices.tobytes() == ref_sys.matrix.indices.tobytes()
        assert col_sys.matrix.indptr.tobytes() == ref_sys.matrix.indptr.tobytes()

    old_s = time_call(reference, repeats=2)
    new_s = time_call(columnar, repeats=3)
    speedup = _report.add(
        f"netlist_assembly_columnar_{n}x{n}",
        old_s,
        new_s,
        detail=(
            f"MVM ladder build+assemble at {n}x{n}: cell-by-cell objects "
            "vs ColumnarCircuit bulk stamping (byte-identical MNA system)"
        ),
    )
    report(
        "perf_netlist_columnar",
        format_table(
            ["path", "ms"],
            [["object pipeline", old_s * 1e3], ["columnar pipeline", new_s * 1e3]],
            title=f"columnar MVM build+assemble {n}x{n} — {speedup:.1f}x",
        ),
    )
    assert speedup >= MIN_COLUMNAR_SPEEDUP


def test_exact_parasitics_batched(report):
    """Batched exact extraction vs the per-trial scalar loop, 64 trials.

    The batched engine amortizes Schur block assembly and input
    validation across the stack; the back-substitution sweep stays
    per-trial LAPACK (stacking it would change low-order bits).
    Bit-identity per trial is asserted, not approximate closeness.
    """
    trials, n = 64, 16
    rng = np.random.default_rng(13)
    g = rng.uniform(0.0, 1e-4, size=(trials, n, n))
    r_wire = 1.0

    def scalar_loop():
        return np.stack([exact_effective_matrix(g[t], r_wire) for t in range(trials)])

    def batched():
        return exact_effective_matrix_batch(g, r_wire)

    assert np.array_equal(scalar_loop(), batched())

    old_s = time_call(scalar_loop, repeats=3)
    new_s = time_call(batched, repeats=5)
    speedup = _report.add(
        f"exact_parasitics_batched_{trials}trials",
        old_s,
        new_s,
        detail=(
            f"{trials} stacked {n}x{n} exact extractions: per-trial scalar "
            "loop vs batched Schur assembly (bit-identical per trial)"
        ),
    )
    report(
        "perf_exact_batched",
        format_table(
            ["path", "ms"],
            [["scalar loop", old_s * 1e3], ["batched engine", new_s * 1e3]],
            title=f"batched exact parasitics {trials}x{n}x{n} — {speedup:.2f}x",
        ),
    )
    assert speedup >= MIN_BATCHED_EXACT_SPEEDUP


def test_float32_vs_float64_tier(report):
    """The ``numpy-f32`` precision tier vs the float64 default.

    Same 64-RHS workload as ``test_solve_many_64rhs``, solved once per
    tier on identically prepared solvers. The comparison first asserts
    the tier's documented tolerance contract (relative-L1, see
    :data:`repro.core.backend.F32_TOLERANCE`) — a "speedup" from a tier
    that broke its accuracy contract would be meaningless. The honest
    floor is near-parity: the kernel's per-column LAPACK sweeps dominate
    and sgetrf/sgetrs wins are size-dependent; the tier's value is the
    halved operand memory and the documented seam, not a guaranteed
    wall-clock win at tier-1 sizes.
    """
    from repro.core.backend import F32_TOLERANCE

    config64 = HardwareConfig.paper_variation()
    config32 = config64.with_(backend="numpy-f32")
    matrix = wishart_matrix(32, rng=0)
    rhs = [random_vector(32, rng=i) for i in range(64)]
    prep64 = BlockAMCSolver(config64).prepare(matrix, rng=5)
    prep32 = BlockAMCSolver(config32).prepare(matrix, rng=5)

    res64 = prep64.solve_many(rhs, np.random.default_rng(9), lean=True)
    res32 = prep32.solve_many(rhs, np.random.default_rng(9), lean=True)
    worst = 0.0
    for a, b in zip(res64, res32):
        assert a.x.dtype == np.float64
        assert b.x.dtype == np.float32
        assert F32_TOLERANCE.admits(b.x, a.x)
        worst = max(worst, F32_TOLERANCE.deviation(b.x, a.x))

    old_s = time_call(
        lambda: prep64.solve_many(rhs, np.random.default_rng(9), lean=True),
        repeats=3,
    )
    new_s = time_call(
        lambda: prep32.solve_many(rhs, np.random.default_rng(9), lean=True),
        repeats=3,
    )
    speedup = _report.add(
        "float32_tier_solve_many_64rhs_32x32",
        old_s,
        new_s,
        detail=(
            "64 RHS on one programmed BlockAMC at float64 vs the "
            f"numpy-f32 tier (worst relative-L1 deviation {worst:.2e}, "
            f"contract rtol {F32_TOLERANCE.rtol:g})"
        ),
    )
    report(
        "perf_float32_tier",
        format_table(
            ["tier", "ms"],
            [["numpy (float64)", old_s * 1e3], ["numpy-f32", new_s * 1e3]],
            title=f"float32 vs float64 tier, 64-RHS solve_many — {speedup:.2f}x",
        ),
    )
    assert speedup >= MIN_F32_TIER_SPEEDUP


def _noisy_config() -> HardwareConfig:
    base = HardwareConfig.paper_variation()
    return base.with_(
        opamp=dataclasses.replace(base.opamp, output_noise_sigma_v=NOISE_V),
        sample_hold=dataclasses.replace(base.sample_hold, noise_sigma_v=NOISE_V),
    )


def test_noisy_batch_of_1_64x64(report):
    """Single noisy solves at n=64: scalar oracle loop vs batch-of-1.

    Per-operation noise keeps every solve one vector at a time, so this
    is the per-request path of a noisy serving entry. Eight solves on a
    one-stage and eight on a two-stage solver; the engine answers are
    bit-identical to the oracle's (asserted on fresh twins first).
    """
    config = _noisy_config()
    matrix = wishart_matrix(64, rng=0)
    rhs = [random_vector(64, rng=i) for i in range(8)]
    solvers = (BlockAMCSolver(config), MultiStageSolver(config, stages=2))

    def twins():
        return [tuple(s.prepare(matrix, rng=5) for _ in range(2)) for s in solvers]

    for for_oracle, for_engine in twins():
        gen_o, gen_e = np.random.default_rng(9), np.random.default_rng(9)
        for b in rhs:
            a = oracle_solve(for_oracle, b, gen_o)
            e = for_engine.solve(b, gen_e)
            assert np.array_equal(a.x, e.x)
            assert a.relative_error == e.relative_error

    oracle_preps, engine_preps = zip(*twins())

    def oracle_loop():
        gen = np.random.default_rng(9)
        return [oracle_solve(p, b, gen) for p in oracle_preps for b in rhs]

    def batch_of_1():
        gen = np.random.default_rng(9)
        return [p.solve(b, gen) for p in engine_preps for b in rhs]

    old_s = time_call(oracle_loop, repeats=3)
    new_s = time_call(batch_of_1, repeats=3)
    speedup = _report.add(
        "noisy_batch_of_1_64x64",
        old_s,
        new_s,
        detail=(
            "8 noisy solves each on a one- and a two-stage n=64 solver: "
            "scalar oracle loop vs solve() as batch-of-1 on the cached "
            "engines (bit-identical asserted)"
        ),
    )
    report(
        "perf_noisy_batch_of_1",
        format_table(
            ["path", "ms"],
            [["oracle solve loop", old_s * 1e3], ["batch-of-1 solve()", new_s * 1e3]],
            title=f"16 noisy n=64 solves — {speedup:.1f}x",
        ),
    )
    assert speedup >= MIN_BATCH_OF_1_SPEEDUP


def test_noisy_prepare_entry_miss_64x64(report):
    """A serving cache miss at n=64, noisy: program + warm-up solve.

    The old miss warmed the entry with a scalar solve; ``prepare_entry``
    now warms it with a batch-of-1 solve that also builds the cached
    engine. Both consume the preparation generator identically, so the
    warmed entries answer the next request bit for bit alike.
    """
    config = _noisy_config()
    matrix = wishart_matrix(64, rng=0)
    kinds = {
        "blockamc-1stage": BlockAMCSolver(config),
        "blockamc-2stage": MultiStageSolver(config, stages=2),
    }

    def oracle_miss(solver):
        rng = np.random.default_rng(7)
        prepared = solver.prepare(matrix, rng)
        oracle_solve(prepared, np.ones(64), rng)
        return prepared

    def engine_miss(kind):
        return prepare_entry(PreparedKey("bench", "noisy", kind, prep_seed=7), matrix, config)

    b = random_vector(64, rng=1)
    for kind, solver in kinds.items():
        a = oracle_solve(oracle_miss(solver), b, np.random.default_rng(3))
        e = engine_miss(kind).prepared.solve(b, np.random.default_rng(3))
        assert np.array_equal(a.x, e.x)

    old_s = time_call(lambda: [oracle_miss(s) for s in kinds.values()], repeats=3)
    new_s = time_call(lambda: [engine_miss(k) for k in kinds], repeats=3)
    speedup = _report.add(
        "noisy_prepare_entry_miss_64x64",
        old_s,
        new_s,
        detail=(
            "serving cache miss, one- plus two-stage n=64 noisy entries: "
            "program + scalar oracle warm-up vs prepare_entry "
            "(program + batch-of-1 warm-up that builds the engines)"
        ),
    )
    report(
        "perf_noisy_prepare_miss",
        format_table(
            ["path", "ms"],
            [["program + oracle warm-up", old_s * 1e3], ["prepare_entry", new_s * 1e3]],
            title=f"noisy n=64 cache miss — {speedup:.1f}x",
        ),
    )
    assert speedup >= MIN_MISS_SPEEDUP


def test_twostage_trials_batched_16trials(report):
    """The Fig. 9 two-stage curve: 16 trials each at n = 32 and 64.

    The per-trial sweep prepares and solves every trial's tree on its
    own; ``run_trials_batched`` runs all trials of a size through one
    stacked tree. Records are asserted equal before timing.
    """
    solver = MultiStageSolver(HardwareConfig.paper_interconnect(), stages=2)
    sizes, trials = (32, 64), 16

    def per_trial():
        return run_trials(
            {"blockamc-2stage": lambda: solver},
            lambda n, rng: wishart_matrix(n, rng),
            sizes,
            trials,
            seed=90,
        )

    def batched():
        return run_trials_batched(
            {"blockamc-2stage": solver},
            lambda n, rng: wishart_matrix(n, rng),
            sizes,
            trials,
            seed=90,
        )

    assert per_trial() == batched()

    old_s = time_call(per_trial, repeats=3)
    new_s = time_call(batched, repeats=3)
    speedup = _report.add(
        "twostage_trials_batched_16trials",
        old_s,
        new_s,
        detail=(
            f"two-stage paper_interconnect Wishart sweep, sizes={sizes}, "
            f"trials={trials}: per-trial run_trials vs run_trials_batched "
            "(records asserted ==)"
        ),
    )
    report(
        "perf_twostage_trials",
        format_table(
            ["path", "ms"],
            [["run_trials (per trial)", old_s * 1e3], ["run_trials_batched", new_s * 1e3]],
            title=f"two-stage trials, 16 per size — {speedup:.1f}x",
        ),
    )
    assert speedup >= MIN_TWOSTAGE_TRIALS_SPEEDUP


def test_write_artifact():
    """Write BENCH_perf_engine.json (runs last: file-order collection)."""
    assert _report.entries, "perf comparisons must run before the artifact writes"
    path = _report.write()
    assert path.exists()
