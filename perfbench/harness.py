"""One fresh benchmark process: set up a workload, measure it, check it.

``run.py`` starts this file once per set-up sample (``--role setup``)
and once per measured run (``--role run``); it is not meant to be called
by hand. The set-up clock starts just before the program's first import,
in this fresh process, and stops when the tier is ready. The result is
written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from checks import SANE_ERROR
from workloads import WORKLOADS, end_to_end


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--role", choices=("setup", "run"), required=True)
    parser.add_argument("--trace-dir", type=Path)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--delay", help="sensitivity check: module:qualname=seconds")
    args = parser.parse_args(argv)

    cores = len(os.sched_getaffinity(0))
    args.scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](
        args.seed, cores, args.scratch, trace_dir=args.trace_dir, delay=args.delay
    )
    workload.prepare_inputs()

    started = time.perf_counter()
    log, absent, delayed = None, [], None
    if args.trace_dir is not None:
        import tracing

        shutil.rmtree(args.trace_dir, ignore_errors=True)
        log = tracing.SpanLog(args.trace_dir)
        absent = tracing.install(log)
    if args.delay:
        import tracing

        delayed = tracing.install_delay(*tracing.parse_delay(args.delay))
    try:
        workload.setup()
        setup_s = time.perf_counter() - started
        if args.role == "setup":
            result = {"setup_s": setup_s}
        else:
            before = delayed[0] if delayed is not None else 0
            outcome = workload.run(args.seconds, keep_requests=log is not None)
            timed_calls = delayed[0] - before if delayed is not None else 0
            workload.post_check()
    finally:
        workload.teardown()
    if args.role == "run":
        errors = np.asarray(workload.errors())
        attempted, failed, reasons = workload.counts()
        result = {
            "setup_s": setup_s,
            "metrics": end_to_end(outcome, errors),
            "attempted": attempted,
            "failed": failed,
            "reasons": reasons,
            "samples": len(outcome.latencies),
            "solves": outcome.solves,
            "worse_than_zero": int(np.count_nonzero(errors > SANE_ERROR)),
            "largest_error": float(errors.max()) if errors.size else float("nan"),
        }
        if delayed is not None:
            result["delayed_calls"] = timed_calls
        if log is not None:
            import tracing

            log.dump()
            result["layers"] = tracing.layer_metrics(
                tracing.load_spans(args.trace_dir),
                outcome.window,
                outcome.solves,
                workload.workers,
                outcome.requests,
            )
            result["absent"] = absent
    args.result.parent.mkdir(parents=True, exist_ok=True)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
