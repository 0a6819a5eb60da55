"""Serving bench: sequential per-request loop vs the solver service.

Drives a mixed-traffic workload (hot Wishart/Toeplitz/Poisson matrices,
fresh right-hand sides — see :func:`repro.workloads.traffic.mixed_traffic`)
through two execution paths:

1. **sequential loop** — the repo's one-shot path before ``repro.serve``
   existed: every request independently normalizes, partitions, and
   programs a macro, then solves once (exactly what ``repro solve`` and
   the examples did per system);
2. **solver service** — :class:`repro.serve.SolverService` with its
   prepared-solver cache and micro-batching scheduler.

Before timing anything the bench asserts the service's results are
**bit-identical** to the sequential reference executor
(:func:`repro.serve.run_sequential`) — a speedup must never come from
computing something different. The measured comparison then lands in
``BENCH_serving.json`` at the repo root, alongside the perf-engine
trajectory.

Run:  python benchmarks/bench_serving.py [--quick] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _path in (str(_ROOT), str(_ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy as np

from benchmarks.perf_harness import time_call
from repro.analysis.reporting import format_table
from repro.core.blockamc import BlockAMCSolver
from repro.core.multistage import MultiStageSolver
from repro.serve import ServiceConfig, SolverService, run_sequential
from repro.workloads.traffic import mixed_traffic
from tests.oracles.scalar import oracle_solve

#: Artifact path (repo root, like BENCH_perf_engine.json).
DEFAULT_ARTIFACT = _ROOT / "BENCH_serving.json"

#: The acceptance workload: 64 mixed requests over a 4-matrix working set
#: (Wishart/Toeplitz/Poisson at 96, Wishart at 128). Preparation —
#: normalize, Schur-preprocess, program, settling analysis — scales
#: ~n^3, so these sizes are where caching it actually matters; the quick
#: (CI) workload shrinks both the sizes and the stream.
FULL_REQUESTS = 64
FULL_SIZES = (96, 128)
FULL_UNIQUE = 4
QUICK_REQUESTS = 32
QUICK_SIZES = (48, 64)
QUICK_UNIQUE = 4

#: Loud-regression floors. The committed artifact documents the actual
#: measured speedup at merge time; the asserted floors leave headroom
#: for noisy CI machines.
MIN_SPEEDUP_FULL = 5.0
MIN_SPEEDUP_QUICK = 1.5

#: Mixed one-/two-stage traffic (coalesced multi-stage solve_many vs the
#: per-request prepare+solve loop).
MULTISTAGE_REQUESTS_FULL = 64
MULTISTAGE_REQUESTS_QUICK = 32
MULTISTAGE_SIZES_FULL = (48, 64)
MULTISTAGE_SIZES_QUICK = (24, 32)
MIN_MULTISTAGE_SPEEDUP_FULL = 3.0
MIN_MULTISTAGE_SPEEDUP_QUICK = 1.2

#: The repro.obs contract: tracing a full service run may cost at most
#: this fraction of untraced wall clock (best-of-repeats vs best-of-
#: repeats; spans are id generation + dict appends, never in a kernel).
MAX_TRACING_OVERHEAD = 0.05


def run_bench(quick: bool = False, out: Path | None = None) -> dict:
    """Execute the comparison and write the artifact; returns the payload."""
    n_requests = QUICK_REQUESTS if quick else FULL_REQUESTS
    sizes = QUICK_SIZES if quick else FULL_SIZES
    unique = QUICK_UNIQUE if quick else FULL_UNIQUE
    requests = mixed_traffic(
        n_requests, unique_matrices=unique, sizes=sizes, seed=42
    )
    config = ServiceConfig(workers=2, max_batch_size=16, max_linger_s=0.002)
    hardware = config.default_hardware

    print(
        f"workload: {len(requests)} mixed requests, "
        f"{len({r.digest for r in requests})} distinct matrices, "
        f"sizes {sorted({r.size for r in requests})}"
    )

    # ------------------------------------------------------------------
    # equivalence first: service vs sequential reference, bit for bit
    # ------------------------------------------------------------------
    reference, _ = run_sequential(requests, config)
    with SolverService(config) as service:
        service_results = service.solve_all(requests)
        service_metrics = service.metrics()
    bit_identical = all(
        np.array_equal(a.x, b.x) and a.relative_error == b.relative_error
        for a, b in zip(reference, service_results)
    )
    print(f"service vs sequential reference: bit-identical = {bit_identical}")
    assert bit_identical, "service results diverged from the sequential reference"

    # ------------------------------------------------------------------
    # timing: per-request one-shot loop vs the service
    # ------------------------------------------------------------------
    def one_shot(solver, request):
        # Program, then the scalar oracle solve: the one-shot path every
        # request took before repro.serve existed.
        rng = np.random.default_rng(request.seed)
        return oracle_solve(solver.prepare(request.matrix, rng), request.b, rng)

    def sequential_loop():
        solver = BlockAMCSolver(hardware)
        return [one_shot(solver, r) for r in requests]

    def service_run():
        with SolverService(config) as svc:
            return svc.solve_all(requests)

    # Lean serving mode: identical solution bits, no per-step OpResult
    # construction (which dominates service-side time at scale).
    lean_config = ServiceConfig(
        workers=config.workers,
        max_batch_size=config.max_batch_size,
        max_linger_s=config.max_linger_s,
        lean_results=True,
    )

    def service_lean_run():
        with SolverService(lean_config) as svc:
            return svc.solve_all(requests)

    lean_results = service_lean_run()
    lean_identical = all(
        np.array_equal(a.x, b.x) and a.relative_error == b.relative_error
        for a, b in zip(reference, lean_results)
    )
    print(f"lean service vs sequential reference: bit-identical = {lean_identical}")
    assert lean_identical, "lean results diverged from the full-result reference"

    old_s = time_call(sequential_loop, repeats=2)
    new_s = time_call(service_run, repeats=3)
    lean_s = time_call(service_lean_run, repeats=3)
    speedup = old_s / new_s
    lean_speedup = new_s / lean_s

    # Result assembly is per-request overhead, so the lean win peaks in
    # the many-small-solves regime (the ROADMAP's "at scale" case) —
    # measure that separately from the large-matrix headline workload.
    small_requests = mixed_traffic(
        64 if quick else 256, unique_matrices=4, sizes=(24, 32), seed=43
    )

    def small_run(cfg):
        with SolverService(cfg) as svc:
            return svc.solve_all(small_requests)

    small_full_cfg = ServiceConfig(workers=2, max_batch_size=32)
    small_lean_cfg = ServiceConfig(workers=2, max_batch_size=32, lean_results=True)
    small_full_s = time_call(lambda: small_run(small_full_cfg), repeats=3)
    small_lean_s = time_call(lambda: small_run(small_lean_cfg), repeats=3)
    small_lean_speedup = small_full_s / small_lean_s

    print(
        format_table(
            ["path", "ms", "solve/s"],
            [
                ["sequential per-request loop", old_s * 1e3, n_requests / old_s],
                ["solver service", new_s * 1e3, n_requests / new_s],
                ["solver service (lean results)", lean_s * 1e3, n_requests / lean_s],
            ],
            title=(
                f"{n_requests}-RHS mixed traffic — {speedup:.1f}x "
                f"(lean mode: {lean_speedup:.2f}x over full results)"
            ),
        )
    )
    print(
        f"lean mode on {len(small_requests)} small solves (24/32): "
        f"{small_full_s * 1e3:.1f}ms -> {small_lean_s * 1e3:.1f}ms "
        f"({small_lean_speedup:.2f}x)"
    )
    print()
    print(service_metrics.table(title="service metrics (equivalence run)"))

    # ------------------------------------------------------------------
    # tracing overhead: the repro.obs zero-perturbation contract
    # ------------------------------------------------------------------
    # Same service run with span collection enabled (ring buffer — the
    # in-band cost; JSONL export adds only sequential file appends).
    # Bit-identity is asserted before timing: tracing must never change
    # the solution, and its wall-clock cost must stay under 5%.
    from repro.obs import tracer as obs

    obs.configure(capacity=65536)
    try:
        traced_results = service_run()
        traced_identical = all(
            np.array_equal(a.x, b.x) for a, b in zip(reference, traced_results)
        )
        assert traced_identical, "tracing perturbed the solve results"
        traced_s = time_call(service_run, repeats=3)
    finally:
        obs.disable()
    tracing_overhead = traced_s / new_s - 1.0
    print(
        f"\ntracing overhead: untraced {new_s * 1e3:.1f}ms -> traced "
        f"{traced_s * 1e3:.1f}ms ({tracing_overhead * 100:+.1f}%, "
        f"bit-identical = {traced_identical})"
    )

    # ------------------------------------------------------------------
    # 2-stage coalescing: mixed one-/two-stage traffic
    # ------------------------------------------------------------------
    ms_requests = mixed_traffic(
        MULTISTAGE_REQUESTS_QUICK if quick else MULTISTAGE_REQUESTS_FULL,
        unique_matrices=4,
        sizes=MULTISTAGE_SIZES_QUICK if quick else MULTISTAGE_SIZES_FULL,
        solvers=("blockamc-1stage", "blockamc-2stage"),
        seed=44,
    )
    ms_reference, _ = run_sequential(ms_requests, config)
    with SolverService(config) as svc:
        ms_results = svc.solve_all(ms_requests)
        ms_metrics = svc.metrics()
    ms_identical = all(
        np.array_equal(a.x, b.x) and a.relative_error == b.relative_error
        for a, b in zip(ms_reference, ms_results)
    )
    print(
        f"\nmulti-stage service vs sequential reference: "
        f"bit-identical = {ms_identical}"
    )
    assert ms_identical, "multi-stage service diverged from the reference"

    solvers = {
        "blockamc-1stage": BlockAMCSolver(hardware),
        "blockamc-2stage": MultiStageSolver(hardware, stages=2),
    }

    def ms_sequential_loop():
        return [one_shot(solvers[r.solver], r) for r in ms_requests]

    def ms_service_run():
        with SolverService(config) as svc:
            return svc.solve_all(ms_requests)

    ms_old_s = time_call(ms_sequential_loop, repeats=2)
    ms_new_s = time_call(ms_service_run, repeats=3)
    ms_speedup = ms_old_s / ms_new_s
    ms_batches = ms_metrics.as_dict()["batch_size_histogram"]
    print(
        format_table(
            ["path", "ms", "solve/s"],
            [
                ["per-request loop", ms_old_s * 1e3, len(ms_requests) / ms_old_s],
                ["solver service", ms_new_s * 1e3, len(ms_requests) / ms_new_s],
            ],
            title=(
                f"{len(ms_requests)}-request mixed 1-/2-stage traffic — "
                f"{ms_speedup:.1f}x (coalesced batches: {ms_batches})"
            ),
        )
    )

    payload = {
        "generated_by": "benchmarks/bench_serving.py",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "mode": "quick" if quick else "full",
        "workload": {
            "requests": n_requests,
            "unique_matrices": unique,
            "sizes": list(sizes),
            "seed": 42,
            "solver": config.default_solver,
            "hardware": "paper_variation",
        },
        "sequential_loop_s": old_s,
        "service_s": new_s,
        "service_lean_s": lean_s,
        "speedup": round(speedup, 2),
        "lean_speedup_vs_full": round(lean_speedup, 3),
        "lean_small_solves": {
            "requests": len(small_requests),
            "sizes": [24, 32],
            "service_full_s": small_full_s,
            "service_lean_s": small_lean_s,
            "lean_speedup_vs_full": round(small_lean_speedup, 3),
        },
        "multistage_traffic": {
            "requests": len(ms_requests),
            "sizes": list(MULTISTAGE_SIZES_QUICK if quick else MULTISTAGE_SIZES_FULL),
            "solvers": ["blockamc-1stage", "blockamc-2stage"],
            "seed": 44,
            "sequential_loop_s": ms_old_s,
            "service_s": ms_new_s,
            "speedup": round(ms_speedup, 2),
            "bit_identical_to_reference": ms_identical,
            "batch_size_histogram": ms_batches,
        },
        "tracing": {
            "untraced_s": new_s,
            "traced_s": traced_s,
            "overhead_pct": round(tracing_overhead * 100, 2),
            "bit_identical": traced_identical,
        },
        "bit_identical_to_reference": bit_identical,
        "lean_bit_identical_to_reference": lean_identical,
        "service_metrics": service_metrics.as_dict(),
        "detail": (
            "per-request prepare+solve loop vs SolverService "
            "(2 workers, prepared-solver cache, micro-batching)"
        ),
    }
    path = out or DEFAULT_ARTIFACT
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {path}")

    floor = MIN_SPEEDUP_QUICK if quick else MIN_SPEEDUP_FULL
    assert speedup >= floor, (
        f"serving speedup {speedup:.2f}x fell below the {floor}x floor"
    )
    ms_floor = MIN_MULTISTAGE_SPEEDUP_QUICK if quick else MIN_MULTISTAGE_SPEEDUP_FULL
    assert ms_speedup >= ms_floor, (
        f"multi-stage serving speedup {ms_speedup:.2f}x fell below "
        f"the {ms_floor}x floor"
    )
    assert tracing_overhead <= MAX_TRACING_OVERHEAD, (
        f"tracing overhead {tracing_overhead * 100:.1f}% exceeds the "
        f"{MAX_TRACING_OVERHEAD * 100:.0f}% ceiling"
    )
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help=f"CI-size run ({QUICK_REQUESTS} requests, {MIN_SPEEDUP_QUICK}x floor)",
    )
    parser.add_argument("--out", type=Path, default=None, help="artifact path")
    args = parser.parse_args(argv)
    run_bench(quick=args.quick, out=args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
