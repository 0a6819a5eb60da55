"""Request types and content digests for the solver service.

A :class:`SolveRequest` is one unit of traffic: a matrix, a right-hand
side, and the policy knobs (solver kind, hardware configuration, seeds)
that determine *which* prepared macro executes it. Requests are
content-addressed: :func:`matrix_digest` hashes the matrix bytes, and
together with the hardware config digest, the solver kind, and the
preparation seed it forms the :class:`~repro.serve.cache.PreparedKey`
that the service caches and shards by.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.amc.config import HardwareConfig
from repro.core.backend import canonical_dtype
from repro.errors import ValidationError
from repro.utils.validation import check_square_matrix, check_vector

__all__ = ["SolveRequest", "matrix_digest"]


def matrix_digest(matrix: np.ndarray) -> str:
    """Content digest of a matrix (dtype + shape + bytes, SHA-256 hex).

    Equal matrices always digest equally; the probability of two distinct
    matrices colliding is cryptographically negligible, so the digest can
    stand in for the matrix in cache keys and shard routing.

    The **canonical dtype** participates in the hash: a float32 matrix
    and its float64 upcast hold the same values but are *different
    inputs* under precision tiers — a solver prepared from one must
    never be served for the other. (The digest used to coerce to
    float64 before hashing, which made exactly that poisoning possible
    in :class:`~repro.serve.cache.PreparedSolverCache`.)
    """
    a = np.asarray(matrix)
    a = np.ascontiguousarray(a, dtype=canonical_dtype(a.dtype))
    h = hashlib.sha256()
    h.update(a.dtype.name.encode())
    h.update(str(a.shape).encode())
    h.update(a.tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class SolveRequest:
    """One solve job submitted to the service.

    Parameters
    ----------
    matrix, b:
        The linear system ``A x = b``.
    solver:
        Solver kind (``"blockamc-1stage"``, ``"blockamc-2stage"``,
        ``"original-amc"``); ``None`` uses the service default.
    hardware:
        :class:`HardwareConfig` for this request; ``None`` uses the
        service default.
    seed:
        Per-request randomness seed. Only consumed by configurations
        with per-operation noise (op-amp output or sample-and-hold
        noise); deterministic configurations ignore it. Either way the
        result is a pure function of (prepared solver, ``b``, ``seed``),
        never of scheduling order.
    prep_seed:
        Seed of the preparation draw (programming variation, op-amp
        offsets) — the "seed policy" part of the cache key. Requests
        sharing (matrix, hardware, solver, prep_seed) share one
        programmed macro; ``None`` uses the service default.
    deadline_s:
        Per-request deadline in seconds, measured from submission. If
        the request is still queued when it expires, it fails fast with
        :class:`~repro.errors.DeadlineExceededError` instead of
        occupying a batch slot. ``None`` defers to the service's
        :class:`~repro.serve.resilience.ResiliencePolicy` default.
    tenant:
        Tenant identity for per-tenant quota accounting at the network
        tier (:mod:`repro.serve.net`); the in-process service ignores
        it. ``None`` means the anonymous tenant.
    digest:
        Precomputed :func:`matrix_digest` (skips re-hashing when the
        caller submits the same matrix many times).
    """

    matrix: np.ndarray
    b: np.ndarray
    solver: str | None = None
    hardware: HardwareConfig | None = None
    seed: int = 0
    prep_seed: int | None = None
    deadline_s: float | None = None
    tenant: str | None = None
    digest: str = field(default="")

    def __post_init__(self):
        # preserve_dtype: float32 systems stay float32 through the
        # service (distinct digests, distinct cache keys — see
        # matrix_digest); everything else still coerces to float64.
        matrix = check_square_matrix(self.matrix, preserve_dtype=True)
        b = check_vector(self.b, "b", size=matrix.shape[0], preserve_dtype=True)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "b", b)
        if self.deadline_s is not None and not self.deadline_s > 0.0:
            raise ValidationError(f"deadline_s must be > 0, got {self.deadline_s}")
        if not self.digest:
            object.__setattr__(self, "digest", matrix_digest(matrix))

    @property
    def size(self) -> int:
        """System size ``n``."""
        return self.matrix.shape[0]
