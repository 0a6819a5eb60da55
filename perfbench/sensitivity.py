"""Sensitivity check: a fixed delay in one layer moves its own workload only.

Run on demand, from the root of a checkout (never during measured runs)::

    python3 perfbench/sensitivity.py --seed 1 --seconds 20

Each probe adds a fixed delay, from the benchmark's side, before every
call of one program function. It runs the workload that owns the layer
and one workload that bypasses it, each without and then with the
delay, on the same seed. For the owner it prints the measured throughput
next to the one predicted from the delay and the calls on the blocking
path, ``1/X' = 1/X + delay * calls_per_solve / parallel``; for the
bypassing workload it prints each end-to-end metric's change against the
bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import CHILD_GRACE_S, ROOT, run_child
from workloads import CHURN_RHS, FIG9_SOLVERS, FIG9_TRIALS

#: (target, delay s, owner, bypassing workload, calls per solve, parallel paths).
#: ``None`` calls per solve: counted by the delay wrapper in the run itself.
#: A thread-tier delay holds the interpreter lock, so it has one path;
#: campaign workers are processes, one per core.
PROBES = (
    ("repro.serve.cache:prepare_entry", 0.02, "serve-churn", "serve-hot",
     1.0 / CHURN_RHS, 1),
    ("repro.core.multistage:PreparedMultiStage.solve_many", 0.005, "serve-hot",
     "serve-churn", None, 1),
    ("repro.serve.net.protocol:encode_frame", 0.0005, "net-hot", "serve-hot", 1.0, 1),
    ("repro.campaigns.store:ArtifactStore.write_unit", 0.1, "campaign-fig9",
     "serve-churn", 1.0 / (len(FIG9_SOLVERS) * FIG9_TRIALS), "cores"),
)

COMPARED = ("solves_per_s", "latency_p50_ms", "latency_p99_ms", "rel_err_p50", "rel_err_p95")


def _run(workload, seed, seconds, delay=None):
    args = ["--workload", workload, "--seed", str(seed), "--role", "run",
            "--seconds", str(seconds)]
    if delay is not None:
        args += ["--delay", delay]
    return run_child(args, seconds + CHILD_GRACE_S)[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)
    cores = len(os.sched_getaffinity(0))
    bounds = {
        metric["name"]: metric["bound"]
        for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    for target, seconds, owner, bypass, per_solve, parallel in PROBES:
        delay = f"{target}={seconds}"
        parallel = cores if parallel == "cores" else parallel
        print(f"## {target} +{seconds * 1e3:g} ms per call")
        base = _run(owner, args.seed, args.seconds)
        slowed = _run(owner, args.seed, args.seconds, delay)
        if per_solve is None:
            per_solve = slowed["delayed_calls"] / slowed["solves"]
        rate = base["metrics"]["solves_per_s"]
        predicted = 1.0 / (1.0 / rate + seconds * per_solve / parallel)
        observed = slowed["metrics"]["solves_per_s"]
        print(f"{owner}: solves_per_s {rate:.1f} -> {observed:.1f} "
              f"(predicted {predicted:.1f}; {per_solve:.3f} calls/solve over "
              f"{parallel} path(s))")
        for metric in ("latency_p50_ms", "latency_p99_ms"):
            print(f"{owner}: {metric} {base['metrics'][metric]:.2f} -> "
                  f"{slowed['metrics'][metric]:.2f}")
        base = _run(bypass, args.seed, args.seconds)
        slowed = _run(bypass, args.seed, args.seconds, delay)
        print(f"{bypass} (bypass): {slowed['delayed_calls']} delayed calls in the timed phase")
        for metric in COMPARED:
            before, after = base["metrics"][metric], slowed["metrics"][metric]
            change = (after - before) / before
            verdict = "within" if abs(change) <= bounds[metric] else "OUTSIDE"
            print(f"{bypass} (bypass): {metric} {before:.4g} -> {after:.4g} "
                  f"({change:+.1%}, {verdict} bound {bounds[metric]:.0%})")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
