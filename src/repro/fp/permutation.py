"""Permutation-effect experiments (paper Table 1).

The simplest demonstration of FPNA: generate a list of floats, sum it
serially, apply a random permutation, sum again, and compare.  The paper
repeats this for sizes 100 … 10⁶ with normal (and Boltzmann) distributed
inputs and reports ``S_nd - S_d`` and ``Vs``; the deltas reach ~1e-13 —
above the 1e-14 tolerances of real correctness suites (CP2K).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..metrics.scalar import scalar_variability
from ..runtime import RunContext, get_context
from .summation import permuted_sum, serial_sum

__all__ = ["PermutationEffect", "permutation_effects"]


@dataclass(frozen=True)
class PermutationEffect:
    """One row of the Table 1 experiment.

    Attributes
    ----------
    size:
        Array length ``n``.
    s_d:
        Serial (deterministic) sum.
    s_nd:
        Sum after a random permutation.
    delta:
        ``s_nd - s_d`` (the paper's second column).
    vs:
        Scalar variability ``Vs = 1 - |s_nd / s_d|`` (third column).
    """

    size: int
    s_d: float
    s_nd: float
    delta: float
    vs: float


def permutation_effects(
    sizes,
    *,
    repeats: int = 2,
    distribution: str = "normal",
    ctx: RunContext | None = None,
) -> list[PermutationEffect]:
    """Reproduce the Table 1 experiment.

    Parameters
    ----------
    sizes:
        Iterable of array lengths (the paper uses 100, 10³, 10⁴, 10⁵, 10⁶,
        listing one or two draws per size).
    repeats:
        Permutations drawn per size.
    distribution:
        ``"normal"`` (N(0,1), the paper's choice), ``"uniform"`` (U(0,10))
        or ``"boltzmann"`` (Exp(1), the paper's physics-motivated variant).
    ctx:
        Run context; defaults to the active context.

    Returns
    -------
    list[PermutationEffect]
        ``len(sizes) * repeats`` rows in size-major order.
    """
    ctx = ctx or get_context()
    data_rng = ctx.data(stream=1)
    rows: list[PermutationEffect] = []
    for size in sizes:
        n = int(size)
        if distribution == "normal":
            x = data_rng.standard_normal(n)
        elif distribution == "uniform":
            x = data_rng.uniform(0.0, 10.0, n)
        elif distribution == "boltzmann":
            x = data_rng.exponential(1.0, n)
        else:
            raise ValueError(f"unknown distribution {distribution!r}")
        s_d = serial_sum(x)
        for _ in range(repeats):
            perm = ctx.scheduler().permutation(n)
            s_nd = permuted_sum(x, perm)
            rows.append(
                PermutationEffect(
                    size=n,
                    s_d=s_d,
                    s_nd=s_nd,
                    delta=s_nd - s_d,
                    vs=scalar_variability(s_nd, s_d),
                )
            )
    return rows
