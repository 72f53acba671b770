"""Floating-point summation algorithms and FPNA tools.

This package is the numerical substrate for the paper's Section III:

* :mod:`repro.fp.summation` — ordered folds (serial, permuted), tree
  reduction, blocked reductions matching the GPU algorithms.
* :mod:`repro.fp.compensated` — Kahan and Neumaier compensated sums,
  sorted sums, and an exact ``fsum`` reference.
* :mod:`repro.fp.permutation` — the Table 1 experiment primitive: the effect
  of random permutations on a serial sum.
* :mod:`repro.fp.ulp` — ULP utilities used by tests and by the
  variability analyses.
* :mod:`repro.fp.lowprec` — bfloat16/float16 round-to-nearest-even
  quantisation and step-rounded folds (the narrow accumulation variants of
  the collective combine step).
"""

from .summation import (
    serial_sum,
    permuted_sum,
    permuted_sums,
    block_partials,
    tree_fold,
    batched_tree_fold,
    iter_run_chunks,
    DEFAULT_RUN_CHUNK_ELEMENTS,
)
from .compensated import (
    kahan_sum,
    neumaier_sum,
    exact_sum,
    sorted_sum,
)
from .permutation import PermutationEffect, permutation_effects
from .ulp import ulp, ulp_distance, relative_error_in_ulps
from .lowprec import (
    round_to_bf16,
    bf16_bits,
    bf16_ulp_distance,
    bf16_fold_runs,
)

__all__ = [
    "serial_sum",
    "permuted_sum",
    "permuted_sums",
    "block_partials",
    "tree_fold",
    "batched_tree_fold",
    "iter_run_chunks",
    "DEFAULT_RUN_CHUNK_ELEMENTS",
    "kahan_sum",
    "neumaier_sum",
    "exact_sum",
    "sorted_sum",
    "PermutationEffect",
    "permutation_effects",
    "ulp",
    "ulp_distance",
    "relative_error_in_ulps",
    "round_to_bf16",
    "bf16_bits",
    "bf16_ulp_distance",
    "bf16_fold_runs",
]
