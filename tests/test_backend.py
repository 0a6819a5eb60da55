"""Tests for ``repro.core.backend`` — the precision/namespace seam.

The contract under test, mirroring the module docstring:

- the default ``numpy`` backend's ``cast`` is the identity on float64
  arrays (no copy, no bit changes) and its LAPACK pair is the exact
  ``dgetrf``/``dgetrs`` the kernel always used — the mechanism that
  keeps the default path byte-identical;
- ``numpy-f32`` computes at float32 under the documented
  :data:`~repro.core.backend.F32_TOLERANCE` relative-L1 contract;
- the ``torch`` tier registers behind the same seam but degrades to a
  typed :class:`~repro.errors.BackendError` when PyTorch is absent;
- ``canonical_dtype`` admits exactly two tiers: float32 stays, every
  other dtype lands at float64.
"""

from __future__ import annotations

import importlib.util

import numpy as np
import pytest

from repro.core.backend import (
    DEFAULT_BACKEND,
    F32_TOLERANCE,
    ArrayBackend,
    TorchArrayBackend,
    ToleranceContract,
    available_backends,
    canonical_dtype,
    get_backend,
    lapack_solvers,
    register_backend,
)
from repro.core.common import FactoredSystem, solve_columns
from repro.errors import BackendError, SolverError
from repro.workloads.matrices import random_vector, wishart_matrix

HAS_TORCH = importlib.util.find_spec("torch") is not None


# ----------------------------------------------------------------------
# canonical dtypes and LAPACK resolution
# ----------------------------------------------------------------------


class TestCanonicalDtype:
    def test_two_tiers_only(self):
        assert canonical_dtype(np.float32) == np.dtype(np.float32)
        assert canonical_dtype("float32") == np.dtype(np.float32)
        for other in (np.float64, np.float16, np.int32, np.int64, bool, "int8"):
            assert canonical_dtype(other) == np.dtype(np.float64), other

    def test_lapack_pair_matches_tier(self):
        d_getrf, d_getrs = lapack_solvers(np.float64)
        s_getrf, s_getrs = lapack_solvers(np.float32)
        assert d_getrf.typecode == "d" and d_getrs.typecode == "d"
        assert s_getrf.typecode == "s" and s_getrs.typecode == "s"
        # integer input promotes to the float64 tier
        assert lapack_solvers(np.int64) is lapack_solvers(np.float64)

    def test_lapack_pair_memoized(self):
        assert lapack_solvers(np.float64) is lapack_solvers("float64")
        assert lapack_solvers(np.float32) is lapack_solvers("float32")


# ----------------------------------------------------------------------
# tolerance contracts
# ----------------------------------------------------------------------


class TestToleranceContract:
    def test_default_is_bit_identical(self):
        contract = ToleranceContract()
        assert contract.bit_identical
        x = np.array([1.0, -2.0, 3.0])
        assert contract.admits(x, x.copy())
        assert not contract.admits(x, x + 1e-15)

    def test_deviation_is_relative_l1(self):
        contract = F32_TOLERANCE
        ref = np.array([1.0, 1.0, 2.0])
        act = np.array([1.0, 1.0, 2.004])
        assert contract.deviation(act, ref) == pytest.approx(0.001)
        assert contract.admits(act, ref)
        assert not contract.admits(ref + 1.0, ref)

    def test_zero_reference_edge_cases(self):
        contract = F32_TOLERANCE
        zeros = np.zeros(3)
        assert contract.deviation(zeros, zeros) == 0.0
        assert contract.deviation(np.ones(3), zeros) == float("inf")
        # the atol escape hatch admits near-zero absolute differences
        assert contract.admits(np.full(3, 1e-5), zeros)
        assert not contract.admits(np.ones(3), zeros)

    def test_shape_mismatch_never_admits(self):
        assert not F32_TOLERANCE.admits(np.ones(3), np.ones(4))

    def test_f32_contract_documented_bounds(self):
        assert not F32_TOLERANCE.bit_identical
        assert F32_TOLERANCE.rtol == 5e-3
        assert F32_TOLERANCE.atol == 5e-4


# ----------------------------------------------------------------------
# registry: names, aliases, instances, failure modes
# ----------------------------------------------------------------------


class TestRegistry:
    def test_default_backend_is_float64_bit_identical(self):
        backend = get_backend()
        assert backend.name == DEFAULT_BACKEND == "numpy"
        assert backend.dtype == np.dtype(np.float64)
        assert backend.tolerance.bit_identical
        assert backend.xp is np
        assert backend.itemsize == 8

    def test_aliases_resolve_to_shared_instances(self):
        default = get_backend("numpy")
        for alias in ("numpy-f64", "f64", "float64", None):
            assert get_backend(alias) is default
        f32 = get_backend("numpy-f32")
        for alias in ("f32", "float32"):
            assert get_backend(alias) is f32
        assert f32.dtype == np.dtype(np.float32)
        assert f32.tolerance == F32_TOLERANCE

    def test_instances_pass_through(self):
        backend = get_backend("numpy-f32")
        assert get_backend(backend) is backend

    def test_unknown_name_raises_typed_error_listing_known(self):
        with pytest.raises(BackendError, match="unknown array backend"):
            get_backend("cuda")
        with pytest.raises(BackendError, match="numpy-f32"):
            get_backend("nope")

    def test_available_backends_always_includes_numpy_tiers(self):
        names = available_backends()
        assert "numpy" in names and "numpy-f32" in names
        assert ("torch" in names) == HAS_TORCH

    def test_register_replace_and_alias(self):
        try:
            register_backend(
                "test-tier",
                lambda: ArrayBackend("test-tier", np.float32, F32_TOLERANCE),
                aliases=("tt",),
            )
            first = get_backend("tt")
            assert first.name == "test-tier"
            # re-registering drops the memoized instance
            register_backend(
                "test-tier",
                lambda: ArrayBackend("test-tier", np.float64, ToleranceContract()),
            )
            second = get_backend("test-tier")
            assert second is not first
            assert second.dtype == np.dtype(np.float64)
        finally:
            from repro.core import backend as backend_module

            backend_module._FACTORIES.pop("test-tier", None)
            backend_module._INSTANCES.pop("test-tier", None)
            backend_module._ALIASES.pop("tt", None)

    def test_failing_factory_surfaces_backend_error(self):
        def broken():
            raise BackendError("dependency missing")

        try:
            register_backend("broken-tier", broken)
            with pytest.raises(BackendError, match="dependency missing"):
                get_backend("broken-tier")
            # a broken tier is excluded, not fatal, for discovery
            assert "broken-tier" not in available_backends()
        finally:
            from repro.core import backend as backend_module

            backend_module._FACTORIES.pop("broken-tier", None)


# ----------------------------------------------------------------------
# cast semantics: the mechanism behind byte-identity
# ----------------------------------------------------------------------


class TestCast:
    def test_f64_cast_is_identity_on_f64_arrays(self):
        backend = get_backend("numpy")
        a = np.random.default_rng(0).standard_normal((4, 4))
        assert backend.cast(a) is a  # same object: no copy, no bit changes

    def test_none_passes_through(self):
        assert get_backend("numpy").cast(None) is None
        assert get_backend("numpy-f32").cast(None) is None

    def test_f32_cast_downcasts_and_is_noop_on_f32(self):
        backend = get_backend("numpy-f32")
        a64 = np.array([1.0, 2.5, -3.25])
        a32 = backend.cast(a64)
        assert a32.dtype == np.float32
        assert backend.cast(a32) is a32

    def test_cast_accepts_lists_and_scalars(self):
        backend = get_backend("numpy-f32")
        assert backend.cast([1.0, 2.0]).dtype == np.float32
        assert backend.cast(3).dtype == np.float32

    def test_to_numpy_preserves_dtype(self):
        backend = get_backend("numpy-f32")
        a = np.ones(3, dtype=np.float64)
        assert backend.to_numpy(a).dtype == np.float64

    def test_lapack_accessor_matches_module_function(self):
        assert get_backend("numpy").lapack() is lapack_solvers(np.float64)
        assert get_backend("numpy-f32").lapack() is lapack_solvers(np.float32)


# ----------------------------------------------------------------------
# kernel integration: FactoredSystem at both tiers
# ----------------------------------------------------------------------


class TestFactoredSystemTiers:
    def test_f32_factorization_solves_at_f32(self):
        matrix = wishart_matrix(8, rng=0).astype(np.float32)
        b = random_vector(8, rng=1).astype(np.float32)
        fact = FactoredSystem(matrix)
        x = fact.solve(b)
        assert x.dtype == np.float32
        reference = np.linalg.solve(matrix.astype(np.float64), b.astype(np.float64))
        assert F32_TOLERANCE.admits(x, reference)

    def test_f32_block_solve_matches_per_column(self):
        matrix = wishart_matrix(6, rng=2).astype(np.float32)
        rhs = np.stack(
            [random_vector(6, rng=i).astype(np.float32) for i in range(3)]
        )
        fact = FactoredSystem(matrix)
        block = fact.solve(rhs)
        assert block.dtype == np.float32
        for r in range(3):
            assert np.array_equal(block[r], fact.solve(rhs[r]))
            assert np.array_equal(block[r], solve_columns(matrix, rhs[r]))

    def test_f64_path_unchanged_by_seam(self):
        """The dtype-generic factorization produces the exact bits the
        hardwired-dgetrf implementation always did."""
        matrix = wishart_matrix(8, rng=3)
        b = random_vector(8, rng=4)
        from scipy.linalg import lapack

        lu, piv, _ = lapack.dgetrf(matrix)
        expected, _ = lapack.dgetrs(lu, piv, b)
        assert np.array_equal(FactoredSystem(matrix).solve(b), expected)

    def test_f32_singular_rejected_like_f64(self):
        singular = np.zeros((3, 3), dtype=np.float32)
        singular[0, 0] = 1.0
        with pytest.raises(SolverError, match="singular"):
            FactoredSystem(singular)
        with pytest.raises(SolverError, match="singular"):
            solve_columns(singular, np.ones(3, dtype=np.float32))


# ----------------------------------------------------------------------
# torch tier: present or absent, always typed
# ----------------------------------------------------------------------


@pytest.mark.skipif(HAS_TORCH, reason="torch installed; absence path untestable")
class TestTorchAbsent:
    def test_construction_raises_typed_error(self):
        with pytest.raises(BackendError, match="PyTorch is not installed"):
            TorchArrayBackend()

    def test_registry_propagates_and_discovery_skips(self):
        with pytest.raises(BackendError, match="not installed"):
            get_backend("torch")
        with pytest.raises(BackendError):
            get_backend("torch-f32")
        assert "torch" not in available_backends()


@pytest.mark.skipif(not HAS_TORCH, reason="requires PyTorch")
class TestTorchPresent:
    def test_cast_round_trips_tensors(self):
        import torch

        backend = get_backend("torch")
        assert backend.dtype == np.dtype(np.float32)
        t = torch.arange(4, dtype=torch.float64)
        a = backend.cast(t)
        assert isinstance(a, np.ndarray) and a.dtype == np.float32
        back = backend.tensor(a)
        assert isinstance(back, torch.Tensor)
        assert np.array_equal(backend.to_numpy(back), a)

    def test_solves_stay_on_scipy_lapack(self):
        backend = get_backend("torch")
        assert backend.lapack() is lapack_solvers(np.float32)
