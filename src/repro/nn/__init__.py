"""Neural-network modules, losses and optimizers over :mod:`repro.tensor`.

A compact PyTorch-style module system sufficient for the paper's Section V
workload: a two-layer GraphSAGE classifier trained with cross-entropy and
Adam on a Cora-like citation graph.  The GNN aggregation uses
:func:`repro.ops.index_add` — the pipeline's single source of run-to-run
variability, exactly as in the paper's setup.
"""

from .module import Module, Parameter
from .linear import Linear
from .optim import Adam, Optimizer
from .sage import SAGEConv, GraphSAGE
from . import functional, init

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "Adam",
    "Optimizer",
    "SAGEConv",
    "GraphSAGE",
    "functional",
    "init",
]
