"""Run-context and simulated-scheduler randomness management.

Every source of "non-determinism" in this library is *simulated*: the GPU
scheduler model, the OpenMP interleaving model and the non-deterministic
tensor kernels all draw from NumPy :class:`~numpy.random.Generator` streams
owned by a :class:`RunContext`.  This gives the library a property real
hardware does not have — the whole experiment is replayable from a master
seed — while still exhibiting run-to-run variability *within* a context,
because each simulated "run" advances a run counter that perturbs the
scheduler stream.

Design
------
``RunContext`` owns a :class:`numpy.random.SeedSequence` and spawns three
kinds of streams:

``data``
    For workload generation (input arrays, random indices).  Stable across
    runs: the same context always generates the same inputs.

``scheduler``
    For execution-order sampling.  Every call to :meth:`RunContext.scheduler`
    consumes the run counter, so two successive non-deterministic kernel
    invocations see *different* interleavings — exactly like back-to-back
    launches on a real GPU.  :meth:`RunContext.schedulers` hands out a
    whole window of these streams in one vectorised derivation, bit for
    bit the streams the same number of ``scheduler()`` calls would, as a
    :class:`RunStreams`: one PCG64 state array whose batched methods draw
    a contracted pattern for every run in one pass (in C under the
    compiled backend), and which stays a ``Sequence[Generator]`` for
    consumers that iterate it.  Ownership rule: a row is drawn through
    the batched methods or through its materialised Generator, never
    both (mixing raises :class:`~repro.errors.SchedulerError`).

``init``
    For model parameter initialisation; stable across runs so that training
    variability measured by the experiments comes only from kernel
    non-determinism, matching the paper's controlled setup (fixed RNG seed,
    single GPU).

A fourth kind, the **device plane** (:meth:`RunContext.device_stream`),
serves the cross-architecture sweeps: one stream per ``(device name,
anchor, cell)`` tuple, independent of the run-counter ladder, so each
simulated device's scheduling draws are the same no matter which other
devices run alongside it or in which order.

A module-level default context is used by code that does not thread an
explicit context; :func:`seed_all` resets it.

Sharding (the run-offset ladder)
--------------------------------
Scheduler streams are a *pure function* of ``(seed, run_index)`` — the
run counter only selects the spawn key, it carries no hidden state.  That
makes run partitions order-independent: a worker process that constructs
``RunContext(seed, run_offset=off)`` and draws ``r`` scheduler streams
consumes exactly the streams runs ``[off, off + r)`` of a single-process
context would, bit for bit.  This is the contract the sharded experiment
executor (:mod:`repro.harness.parallel`) is built on; :meth:`RunContext.
seek_runs` repositions the ladder mid-experiment for layouts where a
shard's draws are not one contiguous block (e.g. a sweep that consumes
``R`` streams per grid cell).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import operator
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import backend as _backend
from .errors import ConfigurationError, SchedulerError

__all__ = [
    "RunContext",
    "RunStreams",
    "default_context",
    "seed_all",
    "get_context",
    "use_context",
]

_DATA_TAG = 0x0DA7A
_SCHED_TAG = 0x5C4ED
_INIT_TAG = 0x1217
_DEVICE_TAG = 0xDE51CE

# SeedSequence's published pool-mixing constants (NumPy's
# ``bit_generator.pyx``, after O'Neill's ``seed_seq_fe``): the batched
# scheduler-stream derivation below re-runs that algorithm vectorised over
# the run word.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16

# Below this window size the per-run SeedSequence path is at least as fast
# as one vectorised pass.  Measured on NumPy 2.4, x86-64: one stream costs
# 25 µs batched against 23 µs per run; two cost 14 µs per stream against
# 23 µs.
_BATCH_MIN_RUNS = 2


def _hash_constants(init: int, mult: int, n: int) -> tuple[list[int], list[int]]:
    """The ``(xor, multiply)`` constant pairs of ``n`` successive hash
    steps.  SeedSequence's hash constant advances by a fixed multiply per
    step whatever the data, so each step's constants are fixed by its
    position alone."""
    xors, mults = [], []
    h = init
    for _ in range(n):
        xors.append(h)
        h = (h * mult) & _MASK32
        mults.append(h)
    return xors, mults


def _uint32_words(value: int) -> list[int]:
    """SeedSequence's int coercion: little-endian 32-bit words, ``[0]``
    for zero."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _mix(x: int, y: int) -> int:
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ (r >> _XSHIFT)


def _frozen_words(values: list[int]) -> np.ndarray:
    arr = np.array(values, dtype=np.uint32)
    arr.setflags(write=False)
    return arr


# generate_state(4, uint64) reads the pool cyclically into 8 words with
# fixed hash constants.
_OUT_XOR, _OUT_MULT = (_frozen_words(c) for c in _hash_constants(_INIT_B, _MULT_B, 8))


@functools.lru_cache(maxsize=256)
def _sched_prefix(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(seed, _SCHED_TAG)``-only part of a scheduler stream's pool.

    A scheduler stream's entropy is the seed's words (zero-padded to the
    pool size, as SeedSequence does when a spawn key is given), the tag,
    then the run word last.  Everything before the run word is mixed here
    once per seed; returns the last word's per-pool-slot hash constants
    ``(xor, multiply)`` and the ``_MIX_MULT_L * pool`` terms it mixes into.
    """
    run_entropy = _uint32_words(seed)
    run_entropy += [0] * (_POOL_SIZE - len(run_entropy))
    words = run_entropy + [_SCHED_TAG]
    h = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal h
        value ^= h
        h = (h * _MULT_A) & _MASK32
        value = (value * h) & _MASK32
        return value ^ (value >> _XSHIFT)

    pool = [hashmix(w) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(w))
    xors, mults = _hash_constants(h, _MULT_A, _POOL_SIZE)
    mixed = [(_MIX_MULT_L * p) & _MASK32 for p in pool]
    return tuple(_frozen_words(c) for c in (xors, mults, mixed))


def _sched_seed_words(seed: int, runs: np.ndarray) -> np.ndarray:
    """PCG64 seed words of the scheduler streams of ``runs`` (each below
    ``2**32``): row ``i`` equals ``SeedSequence(seed, spawn_key=(_SCHED_TAG,
    runs[i])).generate_state(4, np.uint64)``."""
    xor, mult, mixed = _sched_prefix(seed)
    h = runs.astype(np.uint32, copy=False)[:, None] ^ xor
    h *= mult
    h ^= h >> _XSHIFT
    h *= np.uint32(_MIX_MULT_R)
    pool = mixed - h
    pool ^= pool >> _XSHIFT
    out = np.concatenate((pool, pool), axis=1)
    out ^= _OUT_XOR
    out *= _OUT_MULT
    out ^= out >> _XSHIFT
    # Little-endian word pairs, as SeedSequence assembles its uint64s.
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _batch_derivation_ok() -> bool:
    """One-time self-check of :func:`_sched_seed_words` against NumPy's
    own SeedSequence; a mismatch (a future NumPy changing the algorithm)
    sends :meth:`RunContext.schedulers` down the per-run reference path."""
    runs = np.array([0, 1, 7, 2**31, 2**32 - 1], dtype=np.int64)
    for seed in (0, 5, 2**32, 2**127 + 9):
        want = np.stack([
            np.random.SeedSequence(seed, spawn_key=(_SCHED_TAG, int(r)))
            .generate_state(4, np.uint64)
            for r in runs
        ])
        if not np.array_equal(_sched_seed_words(seed, runs), want):
            return False
    return True


class _DerivedSeed(ISeedSequence):
    """Precomputed PCG64 seed words standing in for a scheduler stream's
    SeedSequence, so PCG64's own C seeding runs on the derived words.

    Serves only the one request PCG64 makes, ``generate_state(4,
    np.uint64)``; it cannot spawn.
    """

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise NotImplementedError(
                "a derived scheduler seed only serves generate_state(4, np.uint64)"
            )
        return self._words


def _reference_scheduler(seed: int, run: int) -> np.random.Generator:
    """Scheduler stream ``run`` of ``seed``, derived by NumPy's SeedSequence."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(_SCHED_TAG, run))
    return np.random.default_rng(ss)


def _reference_words(seed: int, run: int) -> np.ndarray:
    """PCG64 seed words of scheduler stream ``run``, by NumPy's SeedSequence."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(_SCHED_TAG, run))
    return ss.generate_state(4, np.uint64)


def _derived_generator(words: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_DerivedSeed(words)))


def _pcg64_state_words(gen: np.random.Generator) -> list[int]:
    """A PCG64 generator's state in the kernels' six-word row layout."""
    st = gen.bit_generator.state
    s, inc = st["state"]["state"], st["state"]["inc"]
    return [s >> 64, s & (2**64 - 1), inc >> 64, inc & (2**64 - 1),
            st["has_uint32"], st["uinteger"]]


@functools.cache
def _stream_kernels_ok() -> bool:
    """One-time self-check of the compiled run-stream kernels against
    NumPy's own PCG64 ``Generator``: seeding, Lemire bounds (rejection
    included), float32 fills that leave a half-word buffered, the
    raced-candidate Bernoulli, its float64 keys and its packed tap keys,
    on all rows and on a row subset.  A mismatch (a future NumPy changing
    PCG64, Lemire or the buffer) keeps every window on the per-run
    ``Generator`` loop."""
    from .backend import compiled

    k = compiled.IMPLS
    words = np.stack([
        _reference_words(seed, run)
        for seed, run in ((0, 0), (5, 1), (2**40 + 3, 7), (2**127 + 9, 2**31))
    ])
    gens = [_derived_generator(w) for w in words]
    counts = np.array([2, 3, 1, 5, 2, 4, 2, 7], dtype=np.int64)
    sub = np.array([3, 1], dtype=np.int64)
    try:
        states = k["pcg64_seed"](words)
        if states is NotImplemented:
            return False
        for rows, bound, m, q in (
            (None, 5, 3, 0.4), (sub, 2**31, 5, 0.9), (None, 2**32 - 1, 1, 0.1),
            (sub, 1, 4, 0.5), (None, 2**31 + 7, 2, 0.3),
        ):
            picked = [gens[i] for i in (range(len(gens)) if rows is None else rows)]
            n = len(picked)
            got = k["pcg64_bounded"](states, rows, n, bound)
            if got.tolist() != [int(g.integers(bound + 1)) for g in picked]:
                return False
            got = k["pcg64_fill_f32"](states, rows, n, m)
            if not np.array_equal(got, [g.random(m, dtype=np.float32) for g in picked]):
                return False
            mask, row_keys = k["pcg64_bernoulli"](states, rows, n, q, counts)
            keys = k["pcg64_fill_f64"](states, rows, row_keys)
            want = [g.random(counts.size) < q for g in picked]
            if not np.array_equal(mask, want):
                return False
            want_keys = [g.random(int(counts[w].sum())) for g, w in zip(picked, want)]
            if not np.array_equal(keys, np.concatenate(want_keys)):
                return False
            taps = m + 1
            tap_counts = np.full(counts.size, taps, dtype=np.int64)
            mask, row_keys = k["pcg64_bernoulli"](states, rows, n, q, tap_counts)
            packed = k["pcg64_tap_keys"](states, rows, row_keys, taps)
            want = [g.random(counts.size) < q for g in picked]
            want_keys = [g.random(taps * int(w.sum())) for g, w in zip(picked, want)]
            want_packed = _pack_tap_keys(np.concatenate(want_keys), taps)
            if not (np.array_equal(mask, want) and np.array_equal(packed, want_packed)):
                return False
        return states.tolist() == [_pcg64_state_words(g) for g in gens]
    except Exception:  # noqa: BLE001 - any kernel failure => Generator loop
        return False


#: Low bits of a packed tap key (:meth:`RunStreams.raced_tap_keys`) that
#: hold the tap index: a float64 ``random()`` draw carries 53 bits.
TAP_KEY_MASK = (1 << 11) - 1


def _pack_tap_keys(keys: np.ndarray, taps: int) -> np.ndarray:
    """Pack float64 ``random()`` keys, ``taps`` per candidate, with their
    tap index: ``(key * 2**53) << 11 | t`` (exact, the draws are
    multiples of ``2**-53``)."""
    packed = (keys * 2.0**53).astype(np.uint64)
    packed <<= np.uint64(11)
    rows = packed.reshape(-1, taps)
    rows |= np.arange(taps, dtype=np.uint64)
    return packed


def _stream_kernels() -> dict | None:
    """The compiled run-stream kernels, or ``None`` for the per-run
    ``Generator`` loop (NumPy backend, or a failed self-check)."""
    seed = _backend.resolve("pcg64_seed")
    if seed is None or not _stream_kernels_ok():
        return None
    return {
        "seed": seed,
        "bounded": _backend.resolve("pcg64_bounded"),
        "fill_f32": _backend.resolve("pcg64_fill_f32"),
        "bernoulli": _backend.resolve("pcg64_bernoulli"),
        "fill_f64": _backend.resolve("pcg64_fill_f64"),
        "tap_keys": _backend.resolve("pcg64_tap_keys"),
    }


# Row owners of a window: untouched, drawn by the batched methods,
# materialised as a Generator, or handed to another window by concat.
_FRESH, _BATCHED, _MATERIALISED, _MOVED = 0, 1, 2, 3


class _Window:
    """Storage shared by a window's :class:`RunStreams` views."""

    __slots__ = ("words", "gens", "owner", "states", "kernels")

    def __init__(self, words, gens, owner) -> None:
        #: ``(R, 4)`` PCG64 seed words (``None`` for wrapped Generators).
        self.words = words
        #: Per-row Generator, materialised on first need.
        self.gens = gens
        #: ``(R,)`` uint8 row owners (``None`` for wrapped Generators,
        #: whose caller holds them: there is no rule to enforce).
        self.owner = owner
        #: ``(R, 6)`` uint64 PCG64 states, once the kernels draw.
        self.states = None
        #: Fixed by the first batched draw: the kernel dict, or ``False``
        #: for the per-run Generator loop.
        self.kernels = None

    def generator(self, row: int) -> np.random.Generator:
        if self.owner is not None:
            own = self.owner[row]
            if own == _BATCHED or own == _MOVED:
                raise SchedulerError(
                    f"run stream row {row} was "
                    + ("drawn by the batched methods" if own == _BATCHED
                       else "handed to another window by concat")
                    + "; it cannot also be drawn as a Generator"
                )
            self.owner[row] = _MATERIALISED
        return self._gen(row)

    def _gen(self, row: int) -> np.random.Generator:
        g = self.gens[row]
        if g is None:
            g = self.gens[row] = _derived_generator(self.words[row])
        return g


class RunStreams(Sequence):
    """A window of per-run scheduler streams, held as one PCG64 state array.

    :meth:`RunContext.schedulers` returns one.  Row ``r`` is the stream a
    ``scheduler()`` call would have returned, bit for bit, and the window
    serves it two ways:

    * **as a** ``Sequence[Generator]`` — indexing or iterating
      materialises a row's NumPy Generator lazily, with the row's exact
      fresh state (the consumers that iterate: cumsum chunk draws,
      OpenMP trials, permutations, collectives);
    * **through the batched draw methods** — :meth:`block_inputs`,
      :meth:`random_f32`, :meth:`raced_keys` and :meth:`raced_tap_keys`
      draw one contracted pattern for every row in one pass.  Under the
      compiled backend the ``repro_pcg64_*`` kernels advance the ``(R,
      6)`` uint64 state array in C (state and increment as 128-bit
      pairs, then NumPy's buffered 32-bit half-word); otherwise the same
      draws come from a per-run loop over the materialised Generators.  Either way every
      row yields the draws its own Generator would, in the same order.

    **Ownership rule.**  A row is drawn either through the batched
    methods or through its materialised Generator, never both: mixing the
    two on one row raises :class:`~repro.errors.SchedulerError` (the two
    would otherwise hold diverging copies of one stream).
    :meth:`take` gives a view on a row subset that draws from (and
    advances) the same rows — the run batch's active runs — and
    :meth:`concat` joins untouched windows into one, retiring the parts.
    :meth:`wrap` adapts a plain list of Generators (e.g. device-plane
    streams) to the batched methods, drawing through the Generators.
    """

    __slots__ = ("_win", "_rows")

    def __init__(self, win: _Window, rows: np.ndarray | None = None) -> None:
        self._win = win
        self._rows = rows

    @classmethod
    def _from_words(cls, words: np.ndarray) -> "RunStreams":
        n = len(words)
        return cls(_Window(words, [None] * n, np.zeros(n, dtype=np.uint8)))

    @classmethod
    def wrap(cls, rngs) -> "RunStreams":
        """``rngs`` itself when it is a :class:`RunStreams`, else a window
        drawing through the given Generators."""
        if isinstance(rngs, RunStreams):
            return rngs
        return cls(_Window(None, list(rngs), None))

    @classmethod
    def concat(cls, parts) -> "RunStreams":
        """One window of the rows of ``parts``, in order.

        Only untouched windows of context streams concatenate; their rows
        move to the new window (any later draw through a part raises).
        """
        words = []
        for part in parts:
            win, rows = part._win, part._row_ids()
            if win.words is None or (win.owner[rows] != _FRESH).any():
                raise SchedulerError("only untouched context stream windows concatenate")
            words.append(win.words[rows])
            win.owner[rows] = _MOVED
        return cls._from_words(
            np.concatenate(words) if words else np.empty((0, 4), dtype=np.uint64)
        )

    def __len__(self) -> int:
        return len(self._win.gens) if self._rows is None else self._rows.size

    def _row_ids(self) -> np.ndarray:
        return np.arange(len(self._win.gens)) if self._rows is None else self._rows

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(np.arange(len(self))[i])
        n = len(self)
        i = operator.index(i)
        if not -n <= i < n:
            raise IndexError(f"run stream index {i} out of range for {n} runs")
        i %= n
        return self._win.generator(i if self._rows is None else int(self._rows[i]))

    def __iter__(self) -> Iterator[np.random.Generator]:
        win = self._win
        for row in self._row_ids().tolist():
            yield win.generator(row)

    def take(self, idx) -> "RunStreams":
        """A view on rows ``idx`` (positions in this window): its draws
        advance those rows of the shared window."""
        idx = np.ascontiguousarray(idx, dtype=np.int64)
        n = len(self)
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise IndexError(f"run stream rows {idx} out of range for {n} runs")
        return RunStreams(self._win, idx if self._rows is None else self._rows[idx])

    # ------------------------------------------------------- batched draws
    def _claim(self):
        """Mark the rows batched-owned; return the kernels (or ``False``)."""
        win, rows = self._win, self._rows
        if win.owner is not None:
            sel = win.owner if rows is None else win.owner[rows]
            if (sel >= _MATERIALISED).any():
                raise SchedulerError(
                    "run stream rows already drawn as Generators (or handed "
                    "to another window) cannot be drawn by the batched methods"
                )
            if rows is None:
                win.owner[:] = _BATCHED
            else:
                win.owner[rows] = _BATCHED
        if win.kernels is None:
            kernels = _stream_kernels() if win.words is not None else None
            states = kernels["seed"](win.words) if kernels else NotImplemented
            if states is NotImplemented:
                win.kernels = False
            else:
                win.kernels, win.states = kernels, states
        return win.kernels

    def _loop_gens(self) -> list[np.random.Generator]:
        win = self._win
        return [win._gen(row) for row in self._row_ids().tolist()]

    def block_inputs(
        self, num_gpcs: int | None, n_blocks: int
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Per row, in order: one ``integers(num_gpcs)`` (skipped when
        ``num_gpcs`` is ``None``), then one ``random(n_blocks,
        dtype=float32)`` (skipped when ``n_blocks`` is 0) — the wave
        scheduler's rotation and block vector.

        Returns ``(rotations, u)``: ``(R,)`` int64 raw rotation draws and
        the ``(R, n_blocks)`` float32 block matrix, each ``None`` when
        skipped.  ``num_gpcs = 1`` draws nothing (NumPy's ``integers(1)``
        consumes no randomness).
        """
        if num_gpcs is not None and not 1 <= num_gpcs <= 2**32:
            raise SchedulerError(f"num_gpcs must be in [1, 2**32], got {num_gpcs}")
        n = len(self)
        k = self._claim()
        if k:
            st, rows = self._win.states, self._rows
            rot = None
            if num_gpcs is not None:
                rot = (
                    np.zeros(n, dtype=np.int64) if num_gpcs == 1
                    else k["bounded"](st, rows, n, num_gpcs - 1)
                )
            u = k["fill_f32"](st, rows, n, n_blocks) if n_blocks else None
            return rot, u
        rot = None if num_gpcs is None else np.empty(n, dtype=np.int64)
        u = np.empty((n, n_blocks), dtype=np.float32) if n_blocks else None
        for r, g in enumerate(self._loop_gens()):
            if rot is not None:
                rot[r] = g.integers(num_gpcs)
            if u is not None:
                g.random(out=u[r], dtype=np.float32)
        return rot, u

    def random_f32(self, shape: tuple[int, ...]) -> np.ndarray:
        """``(R, *shape)`` float32: one ``random(shape, dtype=float32)``
        per row (the warp jitter)."""
        n, shape = len(self), tuple(shape)
        k = self._claim()
        if k:
            m = int(np.prod(shape, dtype=np.int64))
            return k["fill_f32"](self._win.states, self._rows, n, m).reshape((n,) + shape)
        out = np.empty((n,) + shape, dtype=np.float32)
        for r, g in enumerate(self._loop_gens()):
            g.random(out=out[r], dtype=np.float32)
        return out

    def raced_keys(
        self, q: float, counts
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per row, in order: ``random(C) < q`` over ``C = len(counts)``
        race candidates, then, when any raced, ``random(k)`` float64
        shuffle keys with ``k`` the raced candidates' ``counts`` summed.

        Returns ``(runs, cands, keys)``: the raced ``(row, candidate)``
        pairs, row-major, and every row's keys concatenated in the same
        order.  Draws nothing when ``q <= 0`` or there are no candidates
        (the contention models' no-race short cut).
        """
        return self._raced(q, np.asarray(counts, dtype=np.int64), None)

    def raced_tap_keys(
        self, q: float, n_cand: int, taps: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`raced_keys` with ``taps`` keys per raced candidate, each
        packed with its tap index into one unique uint64.

        The draws are exactly :meth:`raced_keys`'s.  NumPy's ``random()``
        double is ``(word >> 11) * 2**-53``, so key ``t`` of a candidate
        becomes ``(word >> 11) << 11 | t``: sorting a candidate's packed
        keys orders its taps as ``np.argsort(keys, kind="stable")`` does,
        on every SIMD target, and ``& TAP_KEY_MASK`` recovers the taps.
        ``taps`` must be in ``[1, 2048]`` (the 11 freed low bits), else
        :class:`~repro.errors.ConfigurationError`.
        """
        if not 1 <= taps <= TAP_KEY_MASK + 1:
            raise ConfigurationError(
                f"cannot pack {taps} tap indices into a shuffle key "
                f"(at most {TAP_KEY_MASK + 1} taps)"
            )
        return self._raced(q, np.full(n_cand, taps, dtype=np.int64), taps)

    def _raced(self, q: float, counts: np.ndarray, taps: int | None):
        """The draws of :meth:`raced_keys`; with ``taps``, the keys come
        back packed (:meth:`raced_tap_keys`)."""
        n, c = len(self), counts.size
        dtype = np.float64 if taps is None else np.uint64
        if q <= 0.0 or c == 0:
            none = np.empty(0, dtype=np.int64)
            return none, none, np.empty(0, dtype=dtype)
        k = self._claim()
        if k:
            st, rows = self._win.states, self._rows
            mask, row_keys = k["bernoulli"](st, rows, n, q, counts)
            if taps is None:
                keys = k["fill_f64"](st, rows, row_keys)
            else:
                keys = k["tap_keys"](st, rows, row_keys, taps)
        else:
            mask = np.empty((n, c), dtype=bool)
            parts = []
            for r, g in enumerate(self._loop_gens()):
                raced = mask[r] = g.random(c) < q
                n_keys = int(np.dot(counts, raced))
                if n_keys:
                    parts.append(g.random(n_keys))
            keys = np.concatenate(parts) if parts else np.empty(0, dtype=np.float64)
            if taps is not None:
                keys = _pack_tap_keys(keys, taps)
        runs, cands = np.divmod(np.flatnonzero(mask), c)
        return runs, cands, keys


@dataclass
class RunContext:
    """Replayable randomness hub for a set of simulated runs.

    Parameters
    ----------
    seed:
        Master seed.  Two contexts with the same seed produce bitwise
        identical experiment results (including the "non-deterministic"
        kernels, whose scheduling is sampled from this context).
    run_offset:
        Starting position of the scheduler-stream ladder.  A context with
        ``run_offset=k`` hands out exactly the streams a ``run_offset=0``
        context hands out from its ``k``-th :meth:`scheduler` call onward
        — the shard-derivation contract of the parallel executor.  Data
        and init streams are unaffected (they are run-stable by design).

    Examples
    --------
    >>> ctx = RunContext(seed=0)
    >>> g1 = ctx.scheduler()
    >>> g2 = ctx.scheduler()   # a different stream: simulates a new run
    >>> ctx2 = RunContext(seed=0)
    >>> np.allclose(ctx2.scheduler().random(3), RunContext(0).scheduler().random(3))
    True
    """

    seed: int = 0
    run_offset: int = 0
    _run_counter: int = field(default=0, init=False, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.seed, (int, np.integer)):
            raise ConfigurationError(f"seed must be an int, got {type(self.seed).__name__}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        self.seed = int(self.seed)
        if not isinstance(self.run_offset, (int, np.integer)):
            raise ConfigurationError(
                f"run_offset must be an int, got {type(self.run_offset).__name__}"
            )
        if self.run_offset < 0:
            raise ConfigurationError(f"run_offset must be >= 0, got {self.run_offset}")
        self.run_offset = int(self.run_offset)
        self._run_counter = self.run_offset

    # ------------------------------------------------------------------ data
    def data(self, stream: int = 0) -> np.random.Generator:
        """Return a generator for workload/input data.

        The stream is a pure function of ``(seed, stream)`` — it does *not*
        advance with the run counter, so inputs are identical across runs.
        """
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(_DATA_TAG, int(stream)))
        return np.random.default_rng(ss)

    # ------------------------------------------------------------- scheduler
    def scheduler(self) -> np.random.Generator:
        """Return a fresh scheduler stream and advance the run counter.

        Each call simulates one independent hardware run: asynchronous
        completion jitter, atomic serialization order and interleavings all
        derive from this stream.
        """
        with self._lock:
            run = self._run_counter
            self._run_counter += 1
        return _reference_scheduler(self.seed, run)

    def schedulers(self, n: int) -> RunStreams:
        """Return the next ``n`` scheduler streams as one
        :class:`RunStreams` window and advance the run counter by ``n``
        in one step.

        Row ``i`` is bit-identical to the ``i``-th of ``n`` successive
        :meth:`scheduler` calls (equal ``bit_generator.state``, equal
        draws), but the window's PCG64 seed words come from one vectorised
        pass of SeedSequence's pool mixing over the run word, with the
        ``(seed, tag)`` part memoised per seed, and no Generator is built
        until a consumer indexes the window.  A materialised row's
        ``bit_generator.seed_seq`` is a stand-in that cannot spawn.
        Single-stream windows (where the batch does not pay), windows
        reaching run ``2**32`` (where the spawn key grows a word) and a
        NumPy whose SeedSequence fails the one-time self-check derive
        their words per run through SeedSequence itself.
        """
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise ConfigurationError(f"n must be a non-negative int, got {n!r}")
        n = int(n)
        with self._lock:
            start = self._run_counter
            self._run_counter += n
        stop = start + n
        if n < _BATCH_MIN_RUNS or stop > 2**32 or not _batch_derivation_ok():
            words = np.array(
                [_reference_words(self.seed, run) for run in range(start, stop)],
                dtype=np.uint64,
            ).reshape(n, 4)
        else:
            words = _sched_seed_words(self.seed, np.arange(start, stop, dtype=np.uint32))
        return RunStreams._from_words(words)

    def device_stream(
        self, device: str, cell: int = 0, *, anchor: int = 0
    ) -> np.random.Generator:
        """Return one anchored device-plane stream.

        The stream is a pure function of ``(seed, device name, anchor,
        cell)`` — it neither reads nor advances the run-counter ladder,
        and no two devices (or cells, or anchors) ever share a stream.
        This is the anchoring contract of the cross-architecture sweeps
        (:mod:`repro.experiments.figs_devices`): every ``(device, array)``
        cell owns one stream holding that cell's whole run axis, so a
        sweep over any *subset* of devices reproduces each device's rows
        bit-identically — devices no longer consume a shared sequential
        ladder whose bits depend on the device list and loop order.
        ``anchor`` carries the caller's ladder position on entry, so
        reused contexts keep drawing fresh device planes (the same
        continuation semantics as :meth:`scheduler`).  The per-cell draw
        order is defined by the consumer; the device-sweep cell sequence
        is catalogued in :mod:`repro.gpusim.scheduler`.
        """
        if not isinstance(device, str) or not device:
            raise ConfigurationError(f"device must be a non-empty str, got {device!r}")
        if not isinstance(cell, (int, np.integer)) or cell < 0:
            raise ConfigurationError(f"cell must be a non-negative int, got {cell!r}")
        if not isinstance(anchor, (int, np.integer)) or anchor < 0:
            raise ConfigurationError(f"anchor must be a non-negative int, got {anchor!r}")
        # hashlib, not hash(): the latter is process-randomised for str and
        # would break cross-process replayability (the sharded executor
        # rebuilds these streams in worker processes).
        digest = hashlib.sha256(device.lower().encode()).digest()
        words = tuple(
            int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)
        )
        ss = np.random.SeedSequence(
            entropy=self.seed,
            spawn_key=(_DEVICE_TAG, *words, int(anchor), int(cell)),
        )
        return np.random.default_rng(ss)

    def peek_run_counter(self) -> int:
        """Return the number of scheduler streams handed out so far."""
        with self._lock:
            return self._run_counter

    def seek_runs(self, run: int) -> None:
        """Position the ladder so the next :meth:`scheduler` call is ``run``.

        Streams are pure functions of ``(seed, run_index)``, so seeking is
        exact: after ``seek_runs(k)`` the context hands out stream ``k``,
        then ``k + 1``, ... — precisely what a serial context would hand
        out from its ``k``-th draw onward.  The sharded executor's
        experiment shards use this to reproduce a serial experiment's
        stream layout when their run window is not one contiguous block
        (e.g. one window per sweep cell).
        """
        if not isinstance(run, (int, np.integer)) or run < 0:
            raise ConfigurationError(f"run must be a non-negative int, got {run!r}")
        with self._lock:
            self._run_counter = int(run)

    # ------------------------------------------------------------------ init
    def init(self, stream: int = 0) -> np.random.Generator:
        """Return a generator for parameter initialisation (run-stable)."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(_INIT_TAG, int(stream)))
        return np.random.default_rng(ss)


_default_context = RunContext(seed=0)
_context_stack: list[RunContext] = []
_stack_lock = threading.Lock()


def default_context() -> RunContext:
    """Return the process-wide default :class:`RunContext`."""
    return _default_context


def get_context() -> RunContext:
    """Return the innermost active context (see :func:`use_context`)."""
    with _stack_lock:
        if _context_stack:
            return _context_stack[-1]
    return _default_context


def seed_all(seed: int) -> RunContext:
    """Replace the default context with a fresh one seeded with ``seed``.

    Returns the new context.  Mirrors ``torch.manual_seed`` ergonomics.
    """
    global _default_context
    _default_context = RunContext(seed=seed)
    return _default_context


@contextlib.contextmanager
def use_context(ctx: RunContext) -> Iterator[RunContext]:
    """Context manager installing ``ctx`` as the active context.

    >>> with use_context(RunContext(42)) as ctx:
    ...     assert get_context() is ctx
    """
    with _stack_lock:
        _context_stack.append(ctx)
    try:
        yield ctx
    finally:
        with _stack_lock:
            _context_stack.pop()
