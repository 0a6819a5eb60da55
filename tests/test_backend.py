"""Tests for ``repro.core.backend`` — the precision seam.

The contract under test, mirroring the module docstring:

- the default ``numpy`` backend's ``cast`` is the identity on float64
  arrays (no copy, no bit changes) and its LAPACK pair is the exact
  ``dgetrf``/``dgetrs`` the kernel always used — the mechanism that
  keeps the default path byte-identical;
- ``numpy-f32`` computes at float32 under the documented
  :data:`~repro.core.backend.F32_TOLERANCE` relative-L1 contract;
- the two tiers are a fixed table: every name and alias resolves to its
  tier's one shared instance, and any other name (``torch`` included)
  raises a typed :class:`~repro.errors.BackendError` listing the known
  ones;
- ``canonical_dtype`` admits exactly two tiers: float32 stays, every
  other dtype lands at float64.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.backend import (
    DEFAULT_BACKEND,
    F32_TOLERANCE,
    ToleranceContract,
    canonical_dtype,
    get_backend,
    lapack_solvers,
)
from repro.core.common import FactoredSystem, solve_columns
from repro.errors import BackendError, SolverError
from repro.workloads.matrices import random_vector, wishart_matrix


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
# the tier table: names, aliases, instances, unknown names
# ----------------------------------------------------------------------


class TestRegistry:
    def test_default_backend_is_float64_bit_identical(self):
        backend = get_backend()
        assert backend.name == DEFAULT_BACKEND == "numpy"
        assert backend.dtype == np.dtype(np.float64)
        assert backend.tolerance.bit_identical

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
        known = "known: f32, f64, float32, float64, numpy, numpy-f32, numpy-f64"
        for name in ("cuda", "nope", "torch", "torch-f32"):
            with pytest.raises(BackendError, match="unknown array backend") as info:
                get_backend(name)
            assert known in str(info.value)


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
