"""Whole-system benchmark of the BlockAMC reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 15 --trace 0

Workloads: ``serve-hot``, ``serve-churn``, ``net-hot``, ``campaign-fig9``
(see ``perfbench/README.md``). With ``--trace 0`` the last line of
standard output is a JSON object holding the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run (plus
``trace.overhead_pct`` against an untraced run made alongside it).

Every run starts fresh processes with one BLAS thread each: several
set-up samples (their median is ``setup_s``) and one measured run, whose
process tree is sampled for ``peak_rss_mb``. The program is imported
from ``src/`` of the checkout; without it the benchmark exits non-zero
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOAD_NAMES = ("serve-hot", "serve-churn", "net-hot", "campaign-fig9")
#: Fresh-process set-up samples per run, besides the measured run's own.
SETUP_SAMPLES = 3
#: Seconds a child process may take beyond the run length before it is killed.
CHILD_GRACE_S = 75.0
#: BLAS and OpenMP pools of every process the run starts.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

UNITS = {
    "solves_per_s": "solves/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "rel_err_p50": "ratio",
    "rel_err_p95": "ratio",
}


class BenchError(Exception):
    """A benchmark process failed; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _tree_hwm_kb(root_pid: int) -> int:
    """Summed peak resident set (VmHWM) of ``root_pid`` and its descendants."""
    children: dict[int, list[int]] = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry.name))
    total, stack = 0, [root_pid]
    while stack:
        pid = stack.pop()
        stack.extend(children.get(pid, ()))
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
                        break
        except OSError:
            continue
    return total


def cpu_steal() -> tuple[int, int]:
    """Machine-wide ``(steal, total)`` CPU jiffies from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:9]]
    return fields[7], sum(fields)


def run_child(args: list[str], timeout: float, sample_rss: bool = False) -> tuple[dict, float]:
    """Run ``harness.py`` once; returns its result and the tree's peak RSS (MiB)."""
    result_path = OUT / f"result-{os.getpid()}.json"
    result_path.unlink(missing_ok=True)
    scratch = OUT / f"scratch-{os.getpid()}"
    command = [sys.executable, str(HERE / "harness.py"), *args, "--result", str(result_path),
               "--scratch", str(scratch)]
    process = subprocess.Popen(command, env=child_env(), cwd=ROOT, stdout=sys.stderr)
    peak_kb = [0]
    done = threading.Event()

    def sample():
        while not done.wait(0.2):
            peak_kb[0] = max(peak_kb[0], _tree_hwm_kb(process.pid))

    sampler = threading.Thread(target=sample, daemon=True) if sample_rss else None
    if sampler is not None:
        sampler.start()
    try:
        code = process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise BenchError(f"benchmark process exceeded {timeout:.0f} s") from None
    finally:
        done.set()
        if sampler is not None:
            sampler.join()
        shutil.rmtree(scratch, ignore_errors=True)
    if code != 0:
        raise BenchError(f"benchmark process exited with status {code}")
    result = json.loads(result_path.read_text())
    result_path.unlink()
    return result, peak_kb[0] / 1024.0


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]
    run_args = [*base, "--role", "run", "--seconds", str(seconds)]
    timeout = seconds + CHILD_GRACE_S
    if not trace:
        setups = [
            run_child([*base, "--role", "setup"], CHILD_GRACE_S)[0]["setup_s"]
            for _ in range(SETUP_SAMPLES)
        ]
        steal_before = cpu_steal()
        result, peak_mb = run_child(run_args, timeout, sample_rss=True)
        steal, total = (after - before for after, before in zip(cpu_steal(), steal_before))
        setups.append(result["setup_s"])
        metrics = dict(result["metrics"])
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = peak_mb
        report = {name: metrics[name] for name in UNITS}
        units = UNITS
        attempted, failed = result["attempted"], result["failed"]
        reasons = result["reasons"]
        print(f"# {workload} seed={seed}: {result['samples']} latency samples, "
              f"set-up samples {[round(s, 4) for s in setups]}, CPU stolen by other "
              f"tenants during the run {100.0 * steal / max(total, 1):.1f}%")
        print(f"# analog answers worse than x = 0 (Eq. 6 error above 1): "
              f"{result['worse_than_zero']}; largest error {result['largest_error']:.4g}")
    else:
        import tracing

        untraced, _ = run_child(run_args, timeout)
        traced, _ = run_child([*run_args, "--trace-dir", str(OUT / "trace" / workload)], timeout)
        report = dict(traced["layers"])
        base_rate = untraced["metrics"]["solves_per_s"]
        report["trace.overhead_pct"] = (
            (base_rate - traced["metrics"]["solves_per_s"]) / base_rate * 100.0
        )
        units = tracing.LAYER_UNITS
        attempted = untraced["attempted"] + traced["attempted"]
        failed = untraced["failed"] + traced["failed"]
        reasons = {k: untraced["reasons"].get(k, 0) + traced["reasons"].get(k, 0)
                   for k in set(untraced["reasons"]) | set(traced["reasons"])}
        absent = sorted(
            name for name, sources in tracing.LAYER_SOURCES.items()
            if any(source in traced["absent"] for source in sources)
        )
        if absent:
            print(f"# absent from the program, reported as 0: {', '.join(absent)}")
    for name, value in report.items():
        print(f"# {name:45s} {value:14.6g} {units[name]}")
    for reason, count in sorted(reasons.items()):
        print(f"# FAILED {count}: {reason}")
    return {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": report[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
