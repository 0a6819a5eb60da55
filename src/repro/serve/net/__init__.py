"""``repro.serve.net`` — the network tier of the solver service.

A TCP front-end (:class:`NetServer`) over **process-based** service
workers (:class:`~repro.serve.net.workers.ProcessWorkerPool`), speaking
a length-prefixed JSON+binary wire protocol whose array payloads are raw
float64 bytes — so a network round-trip is bit-exact. Per-tenant
token-bucket quotas (:class:`QuotaPolicy`), load shedding, deadlines,
breakers, and typed wire errors surface the same
:class:`~repro.serve.resilience.ResiliencePolicy` the in-process tier
enforces. :class:`NetClient` is the pipelined blocking client.

Entry points: ``repro serve --port`` / ``repro submit --connect`` on the
CLI, ``tests/test_net_serving.py`` for the bit-identity and chaos proof,
and ``benchmarks/bench_net_serving.py`` for the throughput artifact.
"""

from repro.serve.net.client import NetClient, NetTicket
from repro.serve.net.protocol import (
    MAX_FRAME_BYTES,
    array_from_bytes,
    array_to_bytes,
    decode_frame,
    encode_frame,
)
from repro.serve.net.quotas import QuotaPolicy, TenantQuotas, TokenBucket
from repro.serve.net.server import NetServer, NetServerConfig
from repro.serve.net.workers import ProcessWorkerPool, WorkOutcome

__all__ = [
    "MAX_FRAME_BYTES",
    "NetClient",
    "NetServer",
    "NetServerConfig",
    "NetTicket",
    "ProcessWorkerPool",
    "QuotaPolicy",
    "TenantQuotas",
    "TokenBucket",
    "WorkOutcome",
    "array_from_bytes",
    "array_to_bytes",
    "decode_frame",
    "encode_frame",
]
