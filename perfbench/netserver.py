"""Process-tier server of the net-hot workload, in a process of its own.

Started by the net-hot client with ``--workers N``; prints ``PORT <n>``
once it listens, serves until a line (or end of file) arrives on its
standard input, then closes the server and its worker processes. With
``--trace-dir`` the per-layer wrappers go in before the worker processes
are forked, so the workers inherit them.
"""

from __future__ import annotations

import argparse
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--trace-dir")
    parser.add_argument("--delay", help="sensitivity check: module:qualname=seconds")
    args = parser.parse_args(argv)

    from repro.serve import ServiceConfig
    from repro.serve.net import NetServer, NetServerConfig

    log = None
    if args.trace_dir:
        import tracing

        log = tracing.SpanLog(args.trace_dir)
        tracing.install(log)
    if args.delay:
        import tracing

        tracing.install_delay(*tracing.parse_delay(args.delay))
    server = NetServer(
        NetServerConfig(port=0, service=ServiceConfig(workers=args.workers))
    ).start()
    try:
        print(f"PORT {server.address[1]}", flush=True)
        sys.stdin.readline()
    finally:
        server.close()
    if log is not None:
        log.dump()
    return 0


if __name__ == "__main__":
    sys.exit(main())
