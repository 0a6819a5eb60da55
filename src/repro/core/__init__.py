"""The paper's primary contribution: BlockAMC solvers and baselines.

- :mod:`repro.core.common` — the shared analog solve kernel (input
  scaling, offsets, raw INV/MVM, saturation, gain ranging) behind every
  solver shape: scalar, multi-RHS, and trial-batched;
- :mod:`repro.core.partition` — block partitioning and Schur-complement
  preprocessing (the digital setup phase of the algorithm);
- :mod:`repro.core.blockamc` — the one-stage BlockAMC solver (Fig. 2-4);
- :mod:`repro.core.multistage` — the two-stage (and deeper) solver
  (Fig. 5), with digital glue between macros;
- :mod:`repro.core.original` — the baseline: a single large INV circuit;
- :mod:`repro.core.batched` — trial-batched Monte-Carlo execution of the
  one-stage solvers (stacked linalg over all trials of a sweep);
- :mod:`repro.core.digital` — digital reference solvers (LU and classic
  iterative methods, used for the preconditioning experiments);
- :mod:`repro.core.refinement` — AMC-seeded iterative refinement, the
  deployment mode the paper positions AMC for;
- :mod:`repro.core.preconditioned` — flexible GMRES with a (noisy)
  analog preconditioner;
- :mod:`repro.core.precision` — compensated multi-array slicing for
  precision extension;
- :mod:`repro.core.feasibility` — the pre-flight advisor ("will this
  system solve well on AMC?").

Submodules are imported lazily (PEP 562): the analog kernel in
:mod:`repro.core.common` sits *below* :mod:`repro.amc` in the layering
(``amc.ops`` delegates its physics to it), so this package ``__init__``
must not eagerly pull in the solver modules — they import ``repro.amc``
right back, which would make ``import repro.amc`` circular.
"""

from importlib import import_module

#: Public name -> defining submodule (resolved on first attribute access).
_EXPORTS = {
    "BatchResult": "repro.core.blockamc",
    "BlockAMCSolver": "repro.core.blockamc",
    "CompensatedMVM": "repro.core.precision",
    "DigitalDirectSolver": "repro.core.digital",
    "FeasibilityReport": "repro.core.feasibility",
    "Finding": "repro.core.feasibility",
    "MultiStageSolver": "repro.core.multistage",
    "OriginalAMCSolver": "repro.core.original",
    "PartitionSpec": "repro.core.partition",
    "RefinementResult": "repro.core.refinement",
    "SolveResult": "repro.core.solution",
    "amc_preconditioner": "repro.core.preconditioned",
    "assess_feasibility": "repro.core.feasibility",
    "build_macro_arrays": "repro.core.partition",
    "compensated_refinement": "repro.core.precision",
    "conjugate_gradient": "repro.core.digital",
    "fgmres": "repro.core.preconditioned",
    "gauss_seidel": "repro.core.digital",
    "gmres": "repro.core.digital",
    "is_batchable_config": "repro.core.batched",
    "iterative_refinement": "repro.core.refinement",
    "jacobi": "repro.core.digital",
    "make_batched_runner": "repro.core.batched",
    "prepare_blocks": "repro.core.partition",
    "recommended_stage_count": "repro.core.feasibility",
    "richardson": "repro.core.digital",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.core' has no attribute {name!r}")
    value = getattr(import_module(module_name), name)
    globals()[name] = value  # cache: subsequent lookups skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
