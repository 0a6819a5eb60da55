"""Network serving bench: the wire tier, measured and asserted.

Drives mixed traffic through the ``repro.serve.net`` TCP front-end with
process-based workers and records the acceptance facts of the network
tier in ``BENCH_net_serving.json``:

1. **bit-identity over the wire** — every result served through frames,
   the workers' response queues, and process workers equals the
   in-process sequential reference bit for bit (the wire carries raw
   float64 bytes and the queues pickled arrays; nothing reformats them).
2. **throughput: process tier vs thread tier** — the same workload
   through :class:`~repro.serve.SolverService` (threads, shared
   memory space) and through :class:`~repro.serve.net.NetServer`
   (processes + TCP round-trips). The process tier buys GIL-free solve
   parallelism at the price of wire framing and queue hops, so its
   relative throughput is the honest cost of the network boundary —
   asserted to stay within a sane factor only on multi-core hosts,
   recorded everywhere.
3. **chaos over the wire** — a seeded storm of injected solve failures,
   worker SIGKILLs, and slow calls: no hung ticket, every failure a
   typed :class:`~repro.errors.ReproError` over the wire, exactly the
   poisoned requests failing after retries, every success still
   bit-identical.

Run:  python benchmarks/bench_net_serving.py [--quick] [--out PATH]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _path in (str(_ROOT), str(_ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy as np

from repro.analysis.reporting import format_table
from repro.core.solution import LeanSolveResult
from repro.errors import ReproError, is_retryable
from repro.serve import (
    ResiliencePolicy,
    ServiceConfig,
    SolverService,
    run_sequential,
)
from repro.serve.net import NetClient, NetServer, NetServerConfig
from repro.testing import ChaosPlan, rhs_tag
from repro.testing.chaos import CHAOS_ENV
from repro.workloads.traffic import drive_network, mixed_traffic

#: Artifact path (repo root, like BENCH_serving.json).
DEFAULT_ARTIFACT = _ROOT / "BENCH_net_serving.json"

FULL_REQUESTS = 64
FULL_SIZES = (32, 48)
QUICK_REQUESTS = 32
QUICK_SIZES = (16, 24)

#: Chaos rates for the wire soak, with realized-count floors enforced by
#: a plan-seed scan (same discipline as bench_resilience.py).
FAIL_RATE = 0.15
KILL_RATE = 0.08
SLOW_RATE = 0.12
SLOW_CALL_S = 0.03
MIN_POISONED_FRACTION = 0.10
MIN_KILLS = 2
MIN_SLOW = 1

#: On a multi-core host the process tier must not collapse under the
#: wire overhead: at least this fraction of the thread tier's
#: throughput. Single-core hosts only record the ratio (process
#: workers cannot be parallel there, so the wire cost is all cost).
MIN_NET_VS_THREAD = 0.3


def _find_plan(tags: list[str]) -> ChaosPlan:
    """Scan plan seeds until the realized fault counts meet the floors."""
    need_poisoned = max(2, math.ceil(MIN_POISONED_FRACTION * len(tags)))
    for seed in range(5000):
        plan = ChaosPlan(
            seed=seed,
            solve_failure_rate=FAIL_RATE,
            worker_kill_rate=KILL_RATE,
            slow_call_rate=SLOW_RATE,
            slow_call_s=SLOW_CALL_S,
        )
        poisoned = sum(plan.decides("fail", FAIL_RATE, t) for t in tags)
        kills = sum(plan.decides("kill", KILL_RATE, t) for t in tags)
        slows = sum(plan.decides("slow", SLOW_RATE, t) for t in tags)
        if (
            poisoned >= need_poisoned
            and kills >= MIN_KILLS
            and slows >= MIN_SLOW
            and poisoned < len(tags)
        ):
            return plan
    raise AssertionError("no chaos seed met the fault floors in 5000 tries")


def _assert_identical(outcomes, reference) -> None:
    for i, outcome in enumerate(outcomes):
        # Thread tier answers with full SolveResult, net tier with
        # LeanSolveResult; both carry the same solution bits.
        assert not isinstance(outcome, BaseException), (
            f"request {i} failed unexpectedly: {type(outcome).__name__}: {outcome}"
        )
        assert np.array_equal(outcome.x, reference[i].x), f"request {i} diverged"
        assert np.array_equal(outcome.reference, reference[i].reference)


def run_bench(quick: bool = False, out: Path | None = None) -> dict:
    """Execute the network soaks and write the artifact; returns the payload."""
    n_requests = QUICK_REQUESTS if quick else FULL_REQUESTS
    sizes = QUICK_SIZES if quick else FULL_SIZES
    cpu_count = os.cpu_count() or 1
    requests = mixed_traffic(n_requests, unique_matrices=4, sizes=sizes, seed=42)
    base = ServiceConfig(workers=2, max_batch_size=16, max_linger_s=0.002)
    reference, _ = run_sequential(requests, base)
    print(
        f"workload: {n_requests} mixed requests, sizes {sizes}, "
        f"{cpu_count} CPUs visible"
    )

    # ------------------------------------------------------------------
    # thread tier (in-process shards, shared address space)
    # ------------------------------------------------------------------
    thread_start = time.perf_counter()
    with SolverService(base) as service:
        thread_results = service.solve_all(requests)
    thread_s = time.perf_counter() - thread_start
    _assert_identical(thread_results, reference)
    thread_rps = n_requests / thread_s

    # ------------------------------------------------------------------
    # process tier (TCP frames + result rows on the response queues)
    # ------------------------------------------------------------------
    net_start = time.perf_counter()
    with NetServer(NetServerConfig(service=base)) as server:
        host, port = server.address
        with NetClient(host, port, timeout_s=300.0) as client:
            net_results = drive_network(client, requests, timeout_s=300.0)
            net_metrics = client.metrics()
    net_s = time.perf_counter() - net_start
    _assert_identical(net_results, reference)
    net_rps = n_requests / net_s
    net_vs_thread = net_rps / thread_rps
    assert net_metrics.requests_completed == n_requests
    assert net_metrics.requests_failed == 0
    if cpu_count > 1:
        assert net_vs_thread >= MIN_NET_VS_THREAD, (
            f"process tier at {net_vs_thread:.2f}x of the thread tier, below "
            f"the {MIN_NET_VS_THREAD}x floor on a {cpu_count}-core machine"
        )

    print(
        format_table(
            ["tier", "wall (ms)", "throughput (req/s)"],
            [
                ["threads (in-process)", f"{thread_s * 1e3:.0f}", f"{thread_rps:.1f}"],
                ["processes (over TCP)", f"{net_s * 1e3:.0f}", f"{net_rps:.1f}"],
            ],
            title=f"clean soak — both tiers bit-identical to sequential "
            f"({net_vs_thread:.2f}x net/thread)",
        )
    )

    # ------------------------------------------------------------------
    # chaos over the wire: kills + slow storm + poisoned solves
    # ------------------------------------------------------------------
    tags = [rhs_tag(r.b) for r in requests]
    plan = _find_plan(tags)
    poisoned = {i for i, t in enumerate(tags) if plan.decides("fail", FAIL_RATE, t)}
    killed = {i for i, t in enumerate(tags) if plan.decides("kill", KILL_RATE, t)}
    slowed = {i for i, t in enumerate(tags) if plan.decides("slow", SLOW_RATE, t)}
    print(
        f"\nchaos seed {plan.seed}: {len(poisoned)} poisoned solves, "
        f"{len(killed)} worker kills, {len(slowed)} slow calls "
        f"({SLOW_CALL_S * 1e3:.0f}ms storm)"
    )
    chaos_service = ServiceConfig(
        workers=base.workers,
        max_batch_size=base.max_batch_size,
        max_linger_s=base.max_linger_s,
        resilience=ResiliencePolicy(
            # Breakers off: hot keys at a 15% poison rate would trip them
            # by design and turn deterministic SolverErrors into
            # time-dependent CircuitOpenErrors.
            breaker_threshold=0,
            max_shard_restarts=len(killed) + 1,
        ),
    )
    saved_env = os.environ.get(CHAOS_ENV)
    chaos_start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="bench-net-chaos-") as state_dir:
        budgeted = dataclasses.replace(plan, state_dir=state_dir)
        os.environ[CHAOS_ENV] = budgeted.chaos_env()[CHAOS_ENV]
        try:
            with NetServer(NetServerConfig(service=chaos_service)) as server:
                host, port = server.address
                with NetClient(host, port, timeout_s=300.0) as client:
                    outcomes = drive_network(
                        client,
                        requests,
                        max_rounds=len(killed) + 3,
                        timeout_s=300.0,  # no hung tickets, ever
                    )
                    chaos_metrics = client.metrics()
        finally:
            if saved_env is None:
                os.environ.pop(CHAOS_ENV, None)
            else:
                os.environ[CHAOS_ENV] = saved_env
        realized_kills = budgeted.injected("kill")
    chaos_s = time.perf_counter() - chaos_start

    hung = sum(1 for o in outcomes if o is None)
    failures = {i: o for i, o in enumerate(outcomes) if isinstance(o, BaseException)}
    successes = {
        i: o for i, o in enumerate(outcomes) if isinstance(o, LeanSolveResult)
    }
    all_typed = all(isinstance(o, ReproError) for o in failures.values())
    none_retryable = all(not is_retryable(o) for o in failures.values())
    successes_identical = all(
        np.array_equal(r.x, reference[i].x)
        and r.relative_error == reference[i].relative_error
        for i, r in successes.items()
    )
    assert hung == 0, f"{hung} tickets never resolved"
    assert all_typed, "an untyped failure crossed the wire"
    assert none_retryable, "a retryable failure survived the retry rounds"
    assert successes_identical, "a success diverged from the fault-free reference"
    # Kills and slow calls retried away: exactly the poisoned requests fail.
    assert set(failures) == poisoned, (
        f"failed set {sorted(failures)} != poisoned set {sorted(poisoned)}"
    )
    assert chaos_metrics.shard_crashes >= MIN_KILLS
    assert realized_kills >= MIN_KILLS

    print(
        format_table(
            ["fact", "value"],
            [
                ["requests", str(n_requests)],
                ["final failures (all injected, all typed)", str(len(failures))],
                ["successes, bit-identical", f"{len(successes)}, True"],
                ["hung tickets", "0"],
                ["worker SIGKILLs fired", str(realized_kills)],
                ["shard crashes survived", str(chaos_metrics.shard_crashes)],
                [
                    "latency p99 under faults (ms)",
                    f"{chaos_metrics.latency_p99_s * 1e3:.2f}",
                ],
            ],
            title=f"chaos soak over the wire — {chaos_s * 1e3:.0f}ms wall",
        )
    )

    payload = {
        "generated_by": "benchmarks/bench_net_serving.py",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": cpu_count,
        "mode": "quick" if quick else "full",
        "throughput": {
            "requests": n_requests,
            "sizes": list(sizes),
            "workers": base.workers,
            "thread_tier_rps": thread_rps,
            "thread_tier_wall_s": thread_s,
            "process_tier_rps": net_rps,
            "process_tier_wall_s": net_s,
            "process_vs_thread": net_vs_thread,
            "floor_asserted": cpu_count > 1,
            "both_tiers_bit_identical_to_sequential": True,
        },
        "chaos": {
            "chaos_seed": plan.seed,
            "injected": {
                "solve_failures": len(poisoned),
                "solve_failure_fraction": round(len(poisoned) / n_requests, 3),
                "worker_kills_decided": len(killed),
                "worker_kills_fired": realized_kills,
                "slow_calls": len(slowed),
                "slow_call_s": SLOW_CALL_S,
            },
            "no_hung_tickets": hung == 0,
            "all_failures_typed": all_typed,
            "failures_exactly_injected": set(failures) == poisoned,
            "successes_bit_identical_to_reference": successes_identical,
            "shard_crashes": chaos_metrics.shard_crashes,
            "wall_s": chaos_s,
        },
        "detail": (
            "mixed traffic through NetServer/NetClient (TCP frames, process "
            "workers, result rows on the response queues) vs run_sequential; "
            "clean throughput against the in-process thread tier, then a "
            "seeded chaos storm (poisoned solves, worker SIGKILLs, slow "
            "calls) with bounded client retry via drive_network"
        ),
    }
    path = out or DEFAULT_ARTIFACT
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {path}")
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help=f"CI-size run ({QUICK_REQUESTS} requests, sizes {QUICK_SIZES})",
    )
    parser.add_argument("--out", type=Path, default=None, help="artifact path")
    args = parser.parse_args(argv)
    run_bench(quick=args.quick, out=args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
