"""Variability metrics from Section II of the paper.

Three metrics quantify run-to-run variability between a deterministic
implementation output and a non-deterministic one (or between any two runs):

* :func:`~repro.metrics.scalar.scalar_variability` — ``Vs(f) = 1 - |f_nd / f_d|``
* :func:`~repro.metrics.array.ermv` — elementwise relative mean absolute
  variation, eq. (1)
* :func:`~repro.metrics.array.count_variability` — fraction of differing
  elements, eq. (2)

All metrics are zero iff the two outputs are bitwise identical (for ``Vs``
this holds up to sign: the paper's definition can be negative, preserving
the direction of the deviation; ``Vs == 0`` iff bitwise-equal magnitudes).

Higher-level helpers summarise *sets* of runs
(:func:`~repro.metrics.array.pairwise_ermv_matrix`,
:func:`~repro.metrics.array.runs_all_unique`) and characterise the
*distribution* of ``Vs`` (:mod:`repro.metrics.distribution`) and its growth
with problem size (:mod:`repro.metrics.powerlaw`).
"""

from .scalar import scalar_variability, scalar_variability_many
from .array import (
    ermv,
    ermv_rows,
    count_variability,
    variability_report,
    pairwise_ermv_matrix,
    pairwise_count_matrix,
    runs_all_unique,
    unique_output_count,
    VariabilityReport,
)
from .distribution import (
    DistributionSummary,
    estimate_pdf,
    kl_divergence,
    kl_to_normal,
    normality_report,
)
from .powerlaw import PowerLawFit, fit_power_law

__all__ = [
    "scalar_variability",
    "scalar_variability_many",
    "ermv",
    "ermv_rows",
    "count_variability",
    "variability_report",
    "pairwise_ermv_matrix",
    "pairwise_count_matrix",
    "runs_all_unique",
    "unique_output_count",
    "VariabilityReport",
    "DistributionSummary",
    "estimate_pdf",
    "kl_divergence",
    "kl_to_normal",
    "normality_report",
    "PowerLawFit",
    "fit_power_law",
]
