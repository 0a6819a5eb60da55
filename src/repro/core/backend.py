"""Array backends: the precision seam under the analog kernel.

Every solver layer funnels its dense math through the shape-generic
kernel in :mod:`repro.core.common`, which makes one seam cheap: an
:class:`ArrayBackend` names the canonical dtype the kernel computes in,
the dtype-matched LAPACK handles (``getrf``/``getrs``), and a
:class:`ToleranceContract` stating how results at this tier may differ
from the float64 reference.

There are exactly two tiers, in one fixed table:

- ``numpy`` (default, aliases ``numpy-f64``/``f64``/``float64``) —
  float64 on NumPy, **byte-identical** to the pre-seam engine: its
  :meth:`ArrayBackend.cast` is a no-copy pass-through for float64
  arrays and its LAPACK pair resolves the exact ``dgetrf``/``dgetrs``
  the kernel always used, so goldens pass under ``GOLDEN_STRICT=1``.
- ``numpy-f32`` (aliases ``f32``/``float32``) — the same kernel at
  float32. Converter quantization (code flips at LSB boundaries) makes
  bit-identity meaningless here; instead the tier promises the
  relative-L1 contract in :data:`F32_TOLERANCE`, enforced on the full
  config x matrix-family grid by ``tests/test_kernel_equivalence.py``.

:func:`get_backend` resolves a name or alias to the tier's one shared
instance; any other name raises :class:`repro.errors.BackendError`
listing the known ones.

The kernel never branches on dtype: consumers call ``backend.cast``
unconditionally on every array entering the analog physics, and the
default backend's cast is the identity on float64 input — which is how
the float64 path stays byte-identical without a parallel code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from repro.errors import BackendError

__all__ = [
    "ArrayBackend",
    "BACKEND_NAMES",
    "DEFAULT_BACKEND",
    "F32_TOLERANCE",
    "ToleranceContract",
    "canonical_dtype",
    "get_backend",
    "lapack_solvers",
]

_F32 = np.dtype(np.float32)
_F64 = np.dtype(np.float64)

#: Name resolved by :func:`get_backend` when no backend is requested.
DEFAULT_BACKEND = "numpy"


def canonical_dtype(dtype) -> np.dtype:
    """The kernel dtype for ``dtype``: float32 stays, all else is float64.

    The analog engine supports exactly two precision tiers; integer or
    float16 inputs promote to the float64 tier rather than silently
    computing at a precision the tolerance contracts don't cover.
    """
    return _F32 if np.dtype(dtype) == _F32 else _F64


#: canonical dtype -> ``(getrf, getrs)``, resolved once per process.
_LAPACK: dict[np.dtype, tuple] = {}


def lapack_solvers(dtype) -> tuple:
    """Memoized ``(getrf, getrs)`` LAPACK pair for ``dtype``'s tier.

    For float64 this resolves the identical ``dgetrf``/``dgetrs``
    bindings the kernel has always used (preserving byte-identity);
    float32 resolves ``sgetrf``/``sgetrs``. One resolution per dtype per
    process — :class:`repro.core.common.FactoredSystem` calls this on
    every construction.
    """
    dt = canonical_dtype(dtype)
    pair = _LAPACK.get(dt)
    if pair is None:
        pair = get_lapack_funcs(("getrf", "getrs"), (np.empty((1, 1), dtype=dt),))
        _LAPACK[dt] = pair
    return pair


@dataclass(frozen=True)
class ToleranceContract:
    """What a backend promises relative to the float64 reference tier.

    ``rtol`` bounds the relative-L1 deviation (the paper's Eq. 6 error
    metric): ``sum|actual - reference| / sum|reference|``. ``atol`` is
    an absolute element-wise escape hatch for near-zero references.
    Both zero (the default) means **bit-identical** — checked with
    ``np.array_equal``, not a tolerance.
    """

    rtol: float = 0.0
    atol: float = 0.0

    @property
    def bit_identical(self) -> bool:
        return self.rtol == 0.0 and self.atol == 0.0

    def deviation(self, actual, reference) -> float:
        """Relative-L1 deviation of ``actual`` from ``reference``."""
        act = np.asarray(actual, dtype=np.float64)
        ref = np.asarray(reference, dtype=np.float64)
        num = float(np.sum(np.abs(act - ref)))
        denom = float(np.sum(np.abs(ref)))
        if denom == 0.0:
            return 0.0 if num == 0.0 else float("inf")
        return num / denom

    def admits(self, actual, reference) -> bool:
        """Whether ``actual`` satisfies this contract against ``reference``."""
        act = np.asarray(actual, dtype=np.float64)
        ref = np.asarray(reference, dtype=np.float64)
        if act.shape != ref.shape:
            return False
        if self.bit_identical:
            return bool(np.array_equal(act, ref))
        if self.deviation(act, ref) <= self.rtol:
            return True
        return bool(np.max(np.abs(act - ref), initial=0.0) <= self.atol)


#: The float32 tier's documented contract. The dominant deviation source
#: is not float32 rounding (~1e-7 relative) but converter code flips: a
#: voltage landing within half a float32 ulp of a 12-bit quantization
#: boundary can take the adjacent code, a ~2.4e-4-of-full-scale step
#: that gain ranging then propagates. The grid in
#: ``tests/test_kernel_equivalence.py`` measures well under this bound;
#: the margin absorbs boundary flips on unseen seeds.
F32_TOLERANCE = ToleranceContract(rtol=5e-3, atol=5e-4)


class ArrayBackend:
    """One precision tier of the analog kernel.

    Instances are stateless and shared (one per tier, see
    :func:`get_backend`); the kernel consumes ``dtype`` (canonical),
    ``lapack()`` (dtype-matched solver pair), and ``cast`` — the
    universal entry coercion, a no-op on arrays already at the backend
    dtype.
    """

    def __init__(self, name: str, dtype, tolerance: ToleranceContract):
        self.name = name
        self.dtype = canonical_dtype(dtype)
        self.tolerance = tolerance

    def cast(self, value):
        """``value`` at the backend dtype (``None`` passes through).

        For the default float64 backend on float64 input this returns
        the *same object* — no copy, no bit changes — which is what
        keeps the default path byte-identical while letting consumers
        cast unconditionally.
        """
        if value is None:
            return None
        return np.asarray(value, dtype=self.dtype)

    def lapack(self) -> tuple:
        """``(getrf, getrs)`` matching :attr:`dtype` (memoized)."""
        return lapack_solvers(self.dtype)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"dtype={self.dtype.name!r}, tolerance={self.tolerance!r})"
        )


_FLOAT64_TIER = ArrayBackend("numpy", np.float64, ToleranceContract())
_FLOAT32_TIER = ArrayBackend("numpy-f32", np.float32, F32_TOLERANCE)

#: Every accepted tier name and alias -> that tier's one shared instance.
_BACKENDS: dict[str, ArrayBackend] = {
    **dict.fromkeys(("numpy", "numpy-f64", "f64", "float64"), _FLOAT64_TIER),
    **dict.fromkeys(("numpy-f32", "f32", "float32"), _FLOAT32_TIER),
}

#: Every accepted tier name and alias, sorted (the CLI's ``--backend`` choices).
BACKEND_NAMES = tuple(sorted(_BACKENDS))


def get_backend(name: str | ArrayBackend | None = None) -> ArrayBackend:
    """Resolve a backend by name/alias (``None`` -> the default tier).

    Instances pass through, so APIs can accept either form. Unknown
    names raise :class:`~repro.errors.BackendError`.
    """
    if name is None:
        name = DEFAULT_BACKEND
    if isinstance(name, ArrayBackend):
        return name
    backend = _BACKENDS.get(name)
    if backend is None:
        known = ", ".join(BACKEND_NAMES)
        raise BackendError(f"unknown array backend {name!r} (known: {known})")
    return backend
