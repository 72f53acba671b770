"""Conjugate gradient with injectable reduction strategies.

Standard (unpreconditioned) CG for SPD systems, with every inner product —
``r.r`` and ``p.Ap`` — evaluated by a :mod:`repro.reductions` strategy.
With a deterministic strategy the entire trajectory is bitwise
reproducible; with SPA/AO each run wanders a slightly different path, and
the run-to-run divergence of the iterates *grows with iteration count* —
the accumulation effect the paper's introduction describes.

The matvec itself uses NumPy's fixed-order GEMV (deterministic per
process), isolating the reduction strategy as the only variability source,
exactly like the paper isolates ``index_add`` in its GNN study.

RNG draw contract (batched run-axis engine)
-------------------------------------------
A non-deterministic solve is **one simulated run**: it draws one scheduler
stream from the context at solve start and every inner product of the
trajectory consumes that stream sequentially (one launch after another on
the same simulated device).  This is the engine-wide one-stream-per-run
contract, and it is what makes the batched paths bit-exact: repeating a
solve ``R`` times draws ``R`` streams in run order, whether the solves run
one after another (:func:`conjugate_gradient` in a loop) or in lockstep
(:func:`conjugate_gradient_runs`, which evaluates every iteration's two
inner products for all still-active runs as one
:meth:`~repro.reductions.base.ReductionImpl.sum_runs` batch).  Runs that
converge or break early simply stop consuming their stream — the other
runs' draws are unaffected because no streams are shared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, ShapeError
from ..reductions.base import ReductionImpl
from ..runtime import RunContext, get_context

__all__ = [
    "CGResult",
    "conjugate_gradient",
    "conjugate_gradient_runs",
    "spd_test_matrix",
    "iterate_divergence",
    "divergence_from_trajectories",
]


@dataclass(frozen=True)
class CGResult:
    """Outcome of one CG solve.

    Attributes
    ----------
    x:
        Final iterate.
    converged:
        ``True`` when the residual tolerance was met.
    n_iter:
        Iterations performed.
    residuals:
        Per-iteration residual norms (recurrence values, not recomputed).
    iterates:
        Per-iteration copies of ``x`` when tracking was requested, else
        empty list.
    """

    x: np.ndarray
    converged: bool
    n_iter: int
    residuals: list[float]
    iterates: list[np.ndarray]


def spd_test_matrix(n: int, cond: float = 1e3, rng: np.random.Generator | None = None) -> np.ndarray:
    """Random symmetric positive-definite matrix with condition ~``cond``.

    Built as ``Q diag(lambda) Q^T`` with log-spaced eigenvalues, the
    standard CG test problem.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if cond < 1:
        raise ConfigurationError(f"cond must be >= 1, got {cond}")
    rng = rng or get_context().data(stream=0xC6)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.logspace(0, np.log10(cond), n)
    return (q * eigs) @ q.T


def _matvec_for(A, n: int):
    if callable(A):
        return A
    A = np.asarray(A, dtype=np.float64)
    if A.shape != (n, n):
        raise ShapeError(f"A must be ({n}, {n}), got {A.shape}")
    return lambda v: A @ v


def conjugate_gradient(
    A,
    b,
    *,
    reduction: ReductionImpl | None = None,
    x0=None,
    tol: float = 1e-10,
    max_iter: int | None = None,
    track_iterates: bool = False,
    ctx: RunContext | None = None,
    rng: np.random.Generator | None = None,
) -> CGResult:
    """Solve ``A x = b`` for SPD ``A`` by conjugate gradient.

    Parameters
    ----------
    A:
        ``(n, n)`` SPD array, or a callable ``A(v) -> ndarray`` matvec.
    b:
        Right-hand side.
    reduction:
        Strategy evaluating the inner products (``None`` → NumPy's ``dot``,
        the deterministic baseline).  Pass
        ``repro.get_reduction("spa")`` to study FPNA accumulation.
    tol:
        Relative residual tolerance ``|r| <= tol * |b|``.
    max_iter:
        Default ``10 n``.
    track_iterates:
        Store a copy of ``x`` per iteration (for divergence studies).
    ctx, rng:
        A non-deterministic solve is one simulated run: it draws **one**
        scheduler stream from ``ctx`` at solve start (or uses the given
        ``rng``) and every inner product consumes it sequentially — the
        module-level draw contract.  Deterministic reductions consume no
        randomness.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1:
        raise ShapeError(f"b must be 1-D, got shape {b.shape}")
    n = b.size
    matvec = _matvec_for(A, n)

    if reduction is not None and not reduction.properties.deterministic and rng is None:
        rng = (ctx or get_context()).scheduler()

    def dot(u, v) -> float:
        if reduction is None:
            return float(u @ v)
        return reduction.sum(u * v, rng=rng)

    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    if x.shape != (n,):
        raise ShapeError(f"x0 must have shape ({n},), got {x.shape}")
    max_iter = max_iter if max_iter is not None else 10 * n

    r = b - matvec(x)
    p = r.copy()
    rs = dot(r, r)
    b_norm = float(np.sqrt(b @ b)) or 1.0
    residuals: list[float] = [float(np.sqrt(max(rs, 0.0)))]
    iterates: list[np.ndarray] = []
    converged = residuals[0] <= tol * b_norm

    k = 0
    while not converged and k < max_iter:
        Ap = matvec(p)
        pAp = dot(p, Ap)
        if pAp <= 0:
            # Loss of positive definiteness (can only happen numerically).
            break
        alpha = rs / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = dot(r, r)
        residuals.append(float(np.sqrt(max(rs_new, 0.0))))
        if track_iterates:
            iterates.append(x.copy())
        converged = residuals[-1] <= tol * b_norm
        beta = rs_new / rs
        p = r + beta * p
        rs = rs_new
        k += 1

    return CGResult(x=x, converged=converged, n_iter=k, residuals=residuals, iterates=iterates)


def conjugate_gradient_runs(
    A,
    b,
    n_runs: int,
    *,
    reduction: ReductionImpl | None = None,
    x0=None,
    tol: float = 1e-10,
    max_iter: int | None = None,
    track_iterates: bool = False,
    ctx: RunContext | None = None,
) -> list[CGResult]:
    """``n_runs`` CG solves of the same system, iterated in lockstep.

    The batched run-axis engine for the cgdiv experiment: per-run
    randomness follows the module-level contract (one scheduler stream per
    run, drawn in run order at batch start), while each iteration's two
    inner products are evaluated for all still-active runs as one
    :meth:`~repro.reductions.base.ReductionImpl.sum_runs` batch and the
    state updates (``alpha``/``beta`` recurrences) are vectorised over the
    run axis.  Every returned :class:`CGResult` is bit-identical to the
    corresponding scalar :func:`conjugate_gradient` call on the same
    context — including runs that converge or lose positive definiteness
    before the others, which freeze and stop consuming their stream.

    Parameters are as in :func:`conjugate_gradient`, applied to every run.
    """
    if n_runs < 1:
        raise ConfigurationError(f"n_runs must be >= 1, got {n_runs}")
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1:
        raise ShapeError(f"b must be 1-D, got shape {b.shape}")
    n = b.size
    matvec = _matvec_for(A, n)
    A_mat = None if callable(A) else np.asarray(A, dtype=np.float64)
    max_iter = max_iter if max_iter is not None else 10 * n

    nd = reduction is not None and not reduction.properties.deterministic
    # One persistent stream per solve; the active runs' subset view draws
    # from (and advances) the same window rows.
    rngs = (ctx or get_context()).schedulers(n_runs) if nd else None

    def dots(U: np.ndarray, V: np.ndarray, run_ids: np.ndarray) -> np.ndarray:
        if reduction is None:
            return np.array([float(U[i] @ V[i]) for i in range(len(run_ids))])
        sub = None
        if nd:
            sub = rngs if run_ids is all_runs else rngs.take(run_ids)
        return reduction.sum_runs(U * V, rngs=sub)

    if x0 is None:
        X = np.zeros((n_runs, n))
    else:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != (n,):
            raise ShapeError(f"x0 must have shape ({n},), got {x0.shape}")
        X = np.tile(x0, (n_runs, 1))
    Rm = np.stack([b - matvec(X[r]) for r in range(n_runs)])
    P = Rm.copy()
    all_runs = np.arange(n_runs)
    rs = dots(Rm, Rm, all_runs)
    b_norm = float(np.sqrt(b @ b)) or 1.0
    res0 = np.sqrt(np.maximum(rs, 0.0))
    residuals: list[list[float]] = [[float(v)] for v in res0]
    iterates: list[list[np.ndarray]] = [[] for _ in range(n_runs)]
    conv = res0 <= tol * b_norm
    n_iter = np.zeros(n_runs, dtype=np.int64)
    active = ~conv & (max_iter > 0)

    Ap = np.empty_like(P)
    k = 0
    while active.any():
        # Fast path while every run is still active (the overwhelmingly
        # common case): whole-matrix updates, no fancy-index round trips.
        full = active.all()
        act = all_runs if full else np.flatnonzero(active)
        if A_mat is not None:
            # Lockstep matvec: NumPy runs the same gemv per batch element,
            # bit-identical to the per-run ``A @ p``.
            np.matmul(A_mat, P[act, :, None], out=Ap[: act.size, :, None])
        else:
            for j, i in enumerate(act):
                Ap[j] = matvec(P[i])
        Apv = Ap if full else Ap[: act.size]
        Pg = P if full else P[act]
        pAp = dots(Pg, Apv, act)
        ok = pAp > 0
        if not ok.all():
            # Runs losing positive definiteness break before the second
            # dot, exactly like the scalar loop.
            active[act[~ok]] = False
            g = act[ok]
            if g.size == 0:
                break
            Apg = Apv[ok]
            pAp_g = pAp[ok]
        else:
            g = act
            Apg = Apv
            pAp_g = pAp
        alpha = rs[g] / pAp_g
        Xg = X[g] + alpha[:, None] * P[g]
        Rg = Rm[g] - alpha[:, None] * Apg
        X[g] = Xg
        Rm[g] = Rg
        rs_new = dots(Rg, Rg, g)
        res = np.sqrt(np.maximum(rs_new, 0.0))
        for j, i in enumerate(g):
            residuals[i].append(float(res[j]))
            if track_iterates:
                iterates[i].append(np.array(Xg[j]))
        conv_now = res <= tol * b_norm
        conv[g] = conv_now
        beta = rs_new / rs[g]
        P[g] = Rg + beta[:, None] * P[g]
        rs[g] = rs_new
        n_iter[g] += 1
        k += 1
        active[g] = ~conv_now & (k < max_iter)

    return [
        CGResult(
            x=X[r].copy(),
            converged=bool(conv[r]),
            n_iter=int(n_iter[r]),
            residuals=residuals[r],
            iterates=iterates[r],
        )
        for r in range(n_runs)
    ]


def iterate_divergence(
    A,
    b,
    *,
    reduction: ReductionImpl,
    n_runs: int = 5,
    n_iter: int = 20,
    ctx: RunContext | None = None,
) -> np.ndarray:
    """Per-iteration run-to-run divergence of CG trajectories.

    Runs CG ``n_runs`` times with the (non-deterministic) ``reduction`` —
    all runs in lockstep through :func:`conjugate_gradient_runs` — and
    returns, for each iteration ``k``, the maximum relative L2 distance
    between any run's iterate and the first run's —
    ``max_j |x_k^j - x_k^0| / |x_k^0|``.  For a deterministic reduction the
    result is identically zero; for SPA/AO it grows with ``k`` (the paper's
    accumulating-error narrative).
    """
    if n_runs < 2:
        raise ConfigurationError(f"n_runs must be >= 2, got {n_runs}")
    results = conjugate_gradient_runs(
        A, b, n_runs, reduction=reduction, tol=0.0, max_iter=n_iter,
        track_iterates=True, ctx=ctx,
    )
    return divergence_from_trajectories([res.iterates for res in results])


def divergence_from_trajectories(trajectories: list[list[np.ndarray]]) -> np.ndarray:
    """Per-iteration divergence of pre-computed iterate trajectories.

    The post-processing half of :func:`iterate_divergence`, shared with
    the sharded cgdiv experiment (whose trajectories arrive merged from
    worker shards): ``out[k] = max_j |x_k^j - x_k^0| / |x_k^0|`` over the
    common depth of all trajectories.
    """
    if len(trajectories) < 2:
        raise ConfigurationError(
            f"need at least 2 trajectories, got {len(trajectories)}"
        )
    depth = min(len(t) for t in trajectories)
    out = np.zeros(depth)
    base = trajectories[0]
    for k in range(depth):
        ref = base[k]
        norm = float(np.linalg.norm(ref)) or 1.0
        out[k] = max(
            float(np.linalg.norm(t[k] - ref)) / norm for t in trajectories[1:]
        )
    return out
