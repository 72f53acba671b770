"""repro — floating-point non-associativity & reproducibility toolkit.

A full reproduction of *"Impacts of floating-point non-associativity on
reproducibility for HPC and deep learning applications"* (SC 2024,
arXiv:2408.05148): variability metrics, a GPU execution/scheduling model,
the six parallel-sum strategies, an OpenMP-style runtime, a PyTorch-like
tensor library whose kernels carry the paper's deterministic /
non-deterministic split, a GraphSAGE pipeline, and a statically-scheduled
LPU accelerator model — plus the experiment harness regenerating every
table and figure (see ``repro.experiments``).

Quickstart
----------
>>> import numpy as np, repro
>>> ctx = repro.seed_all(0)
>>> x = ctx.data().standard_normal(100_000)
>>> spa = repro.get_reduction("spa", device="v100")   # non-deterministic
>>> sptr = repro.get_reduction("sptr", device="v100") # deterministic
>>> vs = repro.scalar_variability(spa.sum(x), sptr.sum(x))

Determinism control mirrors PyTorch:

>>> repro.use_deterministic_algorithms(True)
"""

from .errors import (
    ReproError,
    ConfigurationError,
    NondeterministicError,
    DeviceError,
    LaunchError,
    SchedulerError,
    ShapeError,
    DTypeError,
    AutogradError,
    GraphError,
    CompileError,
    ExperimentError,
)
from .config import (
    use_deterministic_algorithms,
    deterministic_mode,
    DeterminismWarning,
)
from .runtime import RunContext, seed_all, get_context
from .metrics import (
    scalar_variability,
    scalar_variability_many,
    ermv,
    count_variability,
    variability_report,
    VariabilityReport,
    runs_all_unique,
)
from .reductions import get_reduction, properties_table
from .gpusim import DeviceSpec, get_device, list_devices, CostModel
from .tensor import Tensor, no_grad
from . import fp, metrics, gpusim, reductions, openmp, ops, nn, graph, lpu, solvers

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "ConfigurationError",
    "NondeterministicError",
    "DeviceError",
    "LaunchError",
    "SchedulerError",
    "ShapeError",
    "DTypeError",
    "AutogradError",
    "GraphError",
    "CompileError",
    "ExperimentError",
    # config
    "use_deterministic_algorithms",
    "deterministic_mode",
    "DeterminismWarning",
    # runtime
    "RunContext",
    "seed_all",
    "get_context",
    # metrics
    "scalar_variability",
    "scalar_variability_many",
    "ermv",
    "count_variability",
    "variability_report",
    "VariabilityReport",
    "runs_all_unique",
    # reductions & devices
    "get_reduction",
    "properties_table",
    "DeviceSpec",
    "get_device",
    "list_devices",
    "CostModel",
    # tensor
    "Tensor",
    "no_grad",
    # subpackages
    "fp",
    "metrics",
    "gpusim",
    "reductions",
    "openmp",
    "ops",
    "nn",
    "graph",
    "lpu",
    "solvers",
]
