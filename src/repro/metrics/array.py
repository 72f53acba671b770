"""Array variability metrics ``Vermv`` and ``Vc`` (paper §II-2).

Given two outputs ``A`` (reference) and ``B`` (comparison run) of the same
shape with ``D`` total elements:

* ``Vermv = (1/D) * sum(|A - B| / |A|)`` — elementwise relative mean
  absolute variation, eq. (1).
* ``Vc = (1/D) * sum(1[A != B])`` — fraction of bitwise-differing elements,
  eq. (2).

Both are zero iff the arrays are bitwise identical.  ``Vermv`` handles the
``A == 0`` corner the same way error analysis does: a zero reference with a
nonzero comparison contributes ``+inf`` (unbounded relative deviation); two
zeros contribute nothing.  Negative zero and positive zero compare equal
under IEEE ``==`` but are bitwise different; because the paper defines the
indicator through value inequality (``A != B``), we follow the value
semantics — ``-0.0`` and ``0.0`` are treated as equal.  NaNs are never equal
to anything, including themselves, again matching value semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError

__all__ = [
    "ermv",
    "ermv_rows",
    "count_variability",
    "variability_report",
    "VariabilityReport",
    "runs_all_unique",
    "unique_output_count",
]


def _as_pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ShapeError(f"arrays must have identical shapes, got {a.shape} vs {b.shape}")
    return a, b


def ermv(a, b) -> float:
    """Elementwise relative mean absolute variation (eq. 1).

    Parameters
    ----------
    a:
        Reference output (the deterministic implementation when one exists,
        else the first non-deterministic run, per §IV).
    b:
        Comparison output; same shape as ``a``.

    Returns
    -------
    float
        ``mean(|a - b| / |a|)`` over all elements; ``0.0`` iff bitwise
        identical; ``inf`` when some reference element is exactly zero while
        the comparison differs there.
    """
    a, b = _as_pair(a, b)
    if a.size == 0:
        return 0.0
    af = a.astype(np.float64, copy=False)
    bf = b.astype(np.float64, copy=False)
    diff = np.abs(af - bf)
    denom = np.abs(af)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rel = np.divide(diff, denom, out=np.zeros_like(diff), where=denom != 0)
    zero_ref = denom == 0
    if np.any(zero_ref):
        rel = np.where(zero_ref & (diff != 0), np.inf, rel)
    return float(np.mean(rel))


#: Row-chunk size of :func:`ermv_rows` in bytes of float64 work array
#: (1 MiB measured a little faster than 256 KiB or 4 MiB on x86-64).
_ERMV_CHUNK_BYTES = 1 << 20


def ermv_rows(reference, outputs) -> np.ndarray:
    """Vermv of every output against one reference, row-batched.

    Element ``i`` equals ``ermv(reference, outputs[i])`` bit for bit.  The
    reference-side work (float64 cast, ``|a|``, zero mask) is done once
    and the outputs are processed in row chunks of about 1 MiB.

    Parameters
    ----------
    reference:
        Reference output.
    outputs:
        Sequence (or leading-axis stack) of comparison outputs, each of
        the reference's shape.

    Returns
    -------
    numpy.ndarray
        ``(len(outputs),)`` float64 per-output Vermv values.
    """
    a = np.asarray(reference)
    outs = [np.asarray(o) for o in outputs]
    for o in outs:
        if o.shape != a.shape:
            raise ShapeError(f"arrays must have identical shapes, got {a.shape} vs {o.shape}")
    result = np.zeros(len(outs), dtype=np.float64)
    if a.size == 0 or not outs:
        return result
    af = a.astype(np.float64, copy=False).reshape(-1)
    denom = np.abs(af)
    nonzero = denom != 0
    zero_cols = np.flatnonzero(~nonzero)
    step = max(1, _ERMV_CHUNK_BYTES // (8 * a.size))
    buf = np.empty((min(step, len(outs)), a.size), dtype=np.float64)
    for lo in range(0, len(outs), step):
        chunk = outs[lo : lo + step]
        rel = buf[: len(chunk)]
        for row, o in zip(rel, chunk):
            row[...] = o.reshape(-1)
        # In place: |a - b|, then / |a| where a != 0; where a == 0 the
        # element is inf if the run differs there, else 0 (as in ermv).
        np.subtract(af, rel, out=rel)
        np.abs(rel, out=rel)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.divide(rel, denom, out=rel, where=nonzero)
        if zero_cols.size:
            rel[:, zero_cols] = np.where(rel[:, zero_cols] != 0, np.inf, 0.0)
        result[lo : lo + len(chunk)] = np.mean(rel, axis=1)
    return result


def count_variability(a, b) -> float:
    """Count variability ``Vc`` (eq. 2): fraction of differing elements."""
    a, b = _as_pair(a, b)
    if a.size == 0:
        return 0.0
    return float(np.mean(a != b))


@dataclass(frozen=True)
class VariabilityReport:
    """Summary of variability across ``N`` runs against a reference.

    Attributes
    ----------
    n_runs:
        Number of comparison runs.
    ermv_mean, ermv_std, ermv_min, ermv_max:
        Statistics of per-run ``Vermv`` values.
    vc_mean, vc_std, vc_min, vc_max:
        Statistics of per-run ``Vc`` values.
    all_unique:
        ``True`` when every run produced a distinct bit pattern.
    n_unique:
        Number of distinct outputs among the runs (reference excluded).
    """

    n_runs: int
    ermv_mean: float
    ermv_std: float
    ermv_min: float
    ermv_max: float
    vc_mean: float
    vc_std: float
    vc_min: float
    vc_max: float
    all_unique: bool
    n_unique: int

    def as_dict(self) -> dict:
        """Return a JSON-serialisable dict of the report fields."""
        return {
            "n_runs": self.n_runs,
            "ermv_mean": self.ermv_mean,
            "ermv_std": self.ermv_std,
            "ermv_min": self.ermv_min,
            "ermv_max": self.ermv_max,
            "vc_mean": self.vc_mean,
            "vc_std": self.vc_std,
            "vc_min": self.vc_min,
            "vc_max": self.vc_max,
            "all_unique": self.all_unique,
            "n_unique": self.n_unique,
        }


def variability_report(reference, runs) -> VariabilityReport:
    """Compare a sequence of run outputs against a reference.

    This implements the experimental protocol of §IV: when a deterministic
    kernel exists, ``reference`` is its output; otherwise the caller passes
    the first non-deterministic run as reference.

    Parameters
    ----------
    reference:
        Array; the comparison baseline.
    runs:
        Iterable of arrays, each the output of one run.
    """
    ref = np.asarray(reference)
    ermvs: list[float] = []
    vcs: list[float] = []
    hashes: set[bytes] = set()
    n = 0
    for run in runs:
        arr = np.asarray(run)
        ermvs.append(ermv(ref, arr))
        vcs.append(count_variability(ref, arr))
        hashes.add(np.ascontiguousarray(arr).tobytes())
        n += 1
    if n == 0:
        return VariabilityReport(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, True, 0)
    e = np.asarray(ermvs, dtype=np.float64)
    v = np.asarray(vcs, dtype=np.float64)
    finite = e[np.isfinite(e)]
    e_mean = float(np.mean(finite)) if finite.size else float("inf")
    e_std = float(np.std(finite)) if finite.size else float("nan")
    return VariabilityReport(
        n_runs=n,
        ermv_mean=e_mean,
        ermv_std=e_std,
        ermv_min=float(np.min(e)),
        ermv_max=float(np.max(e)),
        vc_mean=float(np.mean(v)),
        vc_std=float(np.std(v)),
        vc_min=float(np.min(v)),
        vc_max=float(np.max(v)),
        all_unique=len(hashes) == n,
        n_unique=len(hashes),
    )


def unique_output_count(runs) -> int:
    """Number of bitwise-distinct outputs in ``runs``."""
    return len({np.ascontiguousarray(np.asarray(r)).tobytes() for r in runs})


def runs_all_unique(runs) -> bool:
    """True when every run output has a distinct bit pattern.

    The paper's headline GNN result: after 10 epochs, *all 1 000 models had
    a unique set of model weights* — this predicate checks exactly that.
    """
    arrs = [np.ascontiguousarray(np.asarray(r)).tobytes() for r in runs]
    return len(set(arrs)) == len(arrs)
