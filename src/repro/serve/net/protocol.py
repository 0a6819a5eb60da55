"""The ``repro.serve.net`` wire protocol: length-prefixed JSON + binary.

One frame carries one message::

    uint32 BE  frame length N (everything after these 4 bytes)
    uint32 BE  header length H
    H bytes    UTF-8 JSON header
    N-4-H      binary payload: the header's ``blobs`` lengths, concatenated

The JSON header holds the typed fields (message ``type``, request
``id``, status, error payload, telemetry); large numeric arrays — the
matrix, the right-hand side, solution blocks — travel as raw C-order
bytes in the binary section, so a round-trip is **bit-exact**: no
decimal formatting, no JSON float parsing, no pickling. ``blobs`` in
the header lists the byte length of each binary block in order, and an
optional ``dtypes`` list names each block's element dtype
(``"float64"`` or ``"float32"``). A missing/short ``dtypes`` list means
float64 for the unnamed blocks — exactly the historical wire form, so
new peers interoperate with old ones in both directions. (The codec
used to hard-code float64, silently upcasting float32 payloads in
transit and breaking the precision-tier contract end to end.)

Message vocabulary (requests → responses):

- ``solve`` — blobs ``[b]`` or ``[b, matrix]``; fields ``solver``,
  ``seed``, ``prep_seed``, ``deadline_ms``, ``tenant``, ``digest``,
  ``n``, and optionally ``trace`` (a :meth:`repro.obs.Span.context`
  dict — ``{"trace_id", "span_id"}`` — that parents the server-side
  request span under the client's; servers without tracing ignore it,
  old clients simply omit it).  Answered by ``result`` (status
  ``ok``/``degraded``, blobs ``[x, reference]``, per-request telemetry)
  or ``error`` (typed status + :func:`repro.errors.error_to_wire`
  payload).
- ``metrics`` — answered by a ``metrics`` response whose ``metrics``
  field is :meth:`repro.serve.metrics.ServiceMetrics.as_json` data.
- ``ping`` — answered by ``pong`` (liveness / protocol smoke).

Responses carry the request's ``id`` and may arrive out of order: the
server answers each request as its worker finishes, so one slow solve
never convoys the connection (the client matches responses by id).
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Sequence

import numpy as np

from repro.core.backend import canonical_dtype
from repro.errors import WireProtocolError
from repro.serve.shard import DEGRADED as STATUS_DEGRADED
from repro.serve.shard import OK as STATUS_OK

__all__ = [
    "MAX_FRAME_BYTES",
    "STATUS_BREAKER_OPEN",
    "STATUS_CLOSED",
    "STATUS_DEADLINE",
    "STATUS_DEGRADED",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_OVERLOADED",
    "STATUS_SHARD_FAILED",
    "STATUS_SHED",
    "STATUS_UNKNOWN_DIGEST",
    "array_dtype_name",
    "array_from_bytes",
    "array_to_bytes",
    "decode_frame",
    "encode_frame",
    "read_frame",
    "recv_frame",
]

#: Hard bound on one frame (guards against a corrupt/hostile length
#: prefix allocating unbounded memory). 512 MiB admits a ~8k x 8k
#: float64 matrix payload.
MAX_FRAME_BYTES = 512 * 1024 * 1024

_LEN = struct.Struct(">I")

# Typed response statuses. ``ok``/``degraded`` (the shard engine's
# success statuses, imported above) carry result blobs; every other
# status carries a typed wire error payload.
STATUS_SHED = "shed"
STATUS_OVERLOADED = "overloaded"
STATUS_DEADLINE = "deadline"
STATUS_BREAKER_OPEN = "breaker-open"
STATUS_SHARD_FAILED = "shard-failed"
STATUS_UNKNOWN_DIGEST = "unknown-digest"
STATUS_CLOSED = "closed"
STATUS_FAILED = "failed"


#: Element dtypes a binary block may declare. The wire speaks canonical
#: tiers only: float32 travels as-is, everything else as float64.
_WIRE_DTYPES: dict[str, np.dtype] = {
    "float64": np.dtype(np.float64),
    "float32": np.dtype(np.float32),
}


def array_dtype_name(array: np.ndarray) -> str:
    """The wire dtype name :func:`array_to_bytes` will encode ``array`` at.

    This is what belongs in the header's ``dtypes`` list for the
    corresponding blob.
    """
    return canonical_dtype(np.asarray(array).dtype).name


def array_to_bytes(array: np.ndarray) -> bytes:
    """Raw C-order bytes of an array (the bit-exact wire form).

    float32 arrays stay float32; every other dtype coerces to float64
    (matching :func:`repro.core.backend.canonical_dtype`, so the wire
    can never smuggle a dtype the engines don't speak).
    """
    array = np.asarray(array)
    return np.ascontiguousarray(
        array, dtype=canonical_dtype(array.dtype)
    ).tobytes()


def array_from_bytes(blob, shape: tuple[int, ...], dtype: str = "float64") -> np.ndarray:
    """Inverse of :func:`array_to_bytes`; validates dtype and byte count.

    ``dtype`` is the wire name from the header's ``dtypes`` list
    (callers pass ``"float64"`` when the peer omitted it — the
    old-protocol default). Raises :class:`WireProtocolError` for an
    unknown dtype name or a blob whose size disagrees with
    ``shape`` x itemsize.
    """
    dt = _WIRE_DTYPES.get(dtype)
    if dt is None:
        raise WireProtocolError(
            f"unknown wire dtype {dtype!r} (known: {sorted(_WIRE_DTYPES)})"
        )
    expected = int(np.prod(shape)) * dt.itemsize
    if len(blob) != expected:
        raise WireProtocolError(
            f"binary block holds {len(blob)} bytes, expected {expected} "
            f"for {dt.name} shape {shape}"
        )
    return np.frombuffer(bytes(blob), dtype=dt).reshape(shape)


def encode_frame(header: dict, blobs: Sequence[bytes] = ()) -> bytes:
    """Serialize one message into its wire frame.

    ``header["blobs"]`` is (re)written from the actual blob lengths, so
    encoders cannot desynchronize the header from the payload.
    """
    header = dict(header)
    header["blobs"] = [len(blob) for blob in blobs]
    head = json.dumps(header, separators=(",", ":")).encode()
    body_len = 4 + len(head) + sum(len(blob) for blob in blobs)
    if body_len > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"frame of {body_len} bytes exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
        )
    parts = [_LEN.pack(body_len), _LEN.pack(len(head)), head]
    parts.extend(bytes(blob) for blob in blobs)
    return b"".join(parts)


def decode_frame(body: bytes) -> tuple[dict, list[memoryview]]:
    """Split one frame body (everything after the length prefix).

    Returns ``(header, blobs)`` where each blob is a zero-copy
    memoryview into ``body`` sized by the header's ``blobs`` list.
    """
    if len(body) < 4:
        raise WireProtocolError(f"frame body of {len(body)} bytes has no header length")
    (head_len,) = _LEN.unpack_from(body, 0)
    if 4 + head_len > len(body):
        raise WireProtocolError(
            f"header length {head_len} overruns frame of {len(body)} bytes"
        )
    try:
        header = json.loads(body[4 : 4 + head_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireProtocolError(f"frame header is not valid JSON: {exc}") from None
    if not isinstance(header, dict):
        raise WireProtocolError(f"frame header must be an object, got {type(header).__name__}")
    lengths = header.get("blobs", [])
    view = memoryview(body)
    blobs: list[memoryview] = []
    offset = 4 + head_len
    for length in lengths:
        if not isinstance(length, int) or length < 0 or offset + length > len(body):
            raise WireProtocolError(f"blob lengths {lengths} overrun frame of {len(body)} bytes")
        blobs.append(view[offset : offset + length])
        offset += length
    if offset != len(body):
        raise WireProtocolError(
            f"{len(body) - offset} trailing bytes after declared blobs"
        )
    return header, blobs


async def read_frame(reader: asyncio.StreamReader) -> tuple[dict, list[memoryview]] | None:
    """Read one frame from an asyncio stream; ``None`` on clean EOF."""
    try:
        prefix = await reader.readexactly(4)
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise WireProtocolError("connection closed mid-length-prefix") from None
        return None
    (length,) = _LEN.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"declared frame length {length} exceeds MAX_FRAME_BYTES"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise WireProtocolError("connection closed mid-frame") from None
    return decode_frame(body)


def recv_frame(sock) -> tuple[dict, list[memoryview]] | None:
    """Blocking counterpart of :func:`read_frame` for a plain socket."""
    prefix = _recv_exactly(sock, 4)
    if prefix is None:
        return None
    (length,) = _LEN.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"declared frame length {length} exceeds MAX_FRAME_BYTES"
        )
    body = _recv_exactly(sock, length)
    if body is None:
        raise WireProtocolError("connection closed mid-frame")
    return decode_frame(body)


def _recv_exactly(sock, count: int) -> bytes | None:
    """Read exactly ``count`` bytes; ``None`` on EOF at a frame boundary."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == count:
                return None
            raise WireProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
