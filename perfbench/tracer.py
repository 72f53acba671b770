"""Outside-in span tracer for the benchmark's traced runs.

The tracer never edits the program.  It replaces each layer's public
functions, by identity, at every place the name is bound (module globals
and class dictionaries of every loaded ``repro`` module, plus the entries
of ``repro.backend.compiled.IMPLS``) with a wrapper that records a span,
and puts every original back on :meth:`Tracer.uninstall`.

Spans are aggregated in memory per span name (calls, busy time, self
time, bytes) and read once the run ends (:meth:`Tracer.snapshot`).  Self
time is a span's duration minus the part of it covered by nested spans.
A span name belongs to a group (the per-layer metric, e.g. ``ops.runs``
groups every public ``*_runs`` kernel); a group counts a call, its busy
time and its bytes only when no span of the same group is already open
on the thread, so nested calls inside one layer are not counted twice.

Worker processes of the sharded executor are traced through
``multiprocessing.pool.Pool.map``: in a traced run each shard task runs
inside :func:`traced_task`, which wraps the worker's layer functions for
that task only and returns the shard's span aggregates beside its payload.
"""

from __future__ import annotations

import functools
import importlib
import os
import pickle
import pkgutil
import resource
import sys
import threading
import time

_MARK = "__perfbench_span__"


def is_wrapper(obj) -> bool:
    return getattr(obj, _MARK, None) is not None


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Agg:
    __slots__ = ("calls", "busy_ns", "self_ns", "bytes", "hits")

    def __init__(self) -> None:
        self.calls = self.busy_ns = self.self_ns = self.bytes = self.hits = 0

    def add(self, other: dict) -> None:
        self.calls += other["calls"]
        self.busy_ns += round(other["busy_s"] * 1e9)
        self.self_ns += round(other["self_s"] * 1e9)
        self.bytes += other["bytes"]
        self.hits += other["hits"]

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "busy_s": self.busy_ns / 1e9,
            "self_s": self.self_ns / 1e9,
            "bytes": self.bytes,
            "hits": self.hits,
        }


def _agg(table: dict, name: str) -> _Agg:
    agg = table.get(name)
    if agg is None:
        agg = table[name] = _Agg()
    return agg


class Tracer:
    """Records spans for the layer functions listed by :func:`targets`."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.RLock()  # reset() may run in a signal handler
        self._tables: list[dict[str, _Agg]] = []
        self._sites: list[tuple[object, str, object, bool]] = []
        #: Span aggregates returned by traced worker tasks.
        self.worker_spans: dict[str, _Agg] = {}
        self.shards = 0
        self.ipc_bytes = 0
        self.worker_peak_rss_mb = 0.0

    # ------------------------------------------------------------ recording
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.depth = {}
            local.table = {}
            with self._lock:
                self._tables.append(local.table)
        return local

    def wrap(self, fn, name: str, group: str, measure=None):
        """Return ``fn`` wrapped in span ``name`` of layer ``group``.

        ``measure(args, kwargs, result)`` returns ``(bytes, hit)`` for
        layers that move data or answer probes.
        """
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            st = tracer._state()
            depth = st.depth
            outer = depth.get(group, 0) == 0
            depth[group] = depth.get(group, 0) + 1
            frame = [0]
            st.stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter_ns() - start
                st.stack.pop()
                depth[group] -= 1
                if st.stack:
                    st.stack[-1][0] += dur
                own = dur - frame[0]
                agg = _agg(st.table, name)
                agg.calls += 1
                agg.busy_ns += dur
                agg.self_ns += own
                gagg = _agg(st.table, group) if group != name else None
                if gagg is not None:
                    gagg.self_ns += own
                    if outer:
                        gagg.calls += 1
                        gagg.busy_ns += dur
            if measure is not None:
                nbytes, hit = measure(args, kwargs, result)
                agg.bytes += nbytes
                agg.hits += hit
                if gagg is not None and outer:
                    gagg.bytes += nbytes
                    gagg.hits += hit
            return result

        setattr(span, _MARK, name)
        return span

    def _wrap_pool_map(self, original):
        """``Pool.map`` wrapper: parent blocked time, shard count, computed
        IPC bytes, and the span aggregates the traced workers send back."""
        tracer = self

        def traced_map(pool, func, iterable, chunksize=None):
            tasks = list(iterable)
            tracer.shards += len(tasks)
            tracer.ipc_bytes += sum(len(pickle.dumps(t)) for t in tasks)
            task = functools.partial(traced_task, func)
            replies = original(pool, task, tasks, chunksize)
            out = []
            for result, spans, payload_bytes, rss_mb in replies:
                tracer.ipc_bytes += payload_bytes
                tracer.worker_peak_rss_mb = max(tracer.worker_peak_rss_mb, rss_mb)
                for name, doc in spans.items():
                    _agg(tracer.worker_spans, name).add(doc)
                out.append(result)
            return out

        return self.wrap(traced_map, "parallel.map", "parallel.map")

    def reset(self) -> None:
        with self._lock:
            for table in self._tables:
                table.clear()
        self.worker_spans.clear()
        self.shards = self.ipc_bytes = 0
        self.worker_peak_rss_mb = 0.0

    def snapshot(self) -> dict[str, dict]:
        """Aggregates of every thread and traced worker task, merged."""
        merged: dict[str, _Agg] = {}
        with self._lock:
            tables = [dict(t) for t in self._tables]
        tables.append(dict(self.worker_spans))
        for table in tables:
            for name, agg in table.items():
                _agg(merged, name).add(agg.as_dict())
        return {name: agg.as_dict() for name, agg in sorted(merged.items())}

    # ------------------------------------------------------ install/restore
    def install(self, *, pool: bool = False) -> None:
        """Wrap every target at every binding site; with ``pool``, also
        trace the worker pool through ``Pool.map``."""
        import multiprocessing.pool

        from repro import backend

        sites = binding_sites()
        for original, name, group, measure in targets():
            wrapper = self.wrap(original, name, group, measure)
            for owner, attr, is_dict in sites.get(id(original), ()):
                self._bind(owner, attr, original, wrapper, is_dict)
        if pool:
            original = vars(multiprocessing.pool.Pool)["map"]
            self._bind(multiprocessing.pool.Pool, "map", original,
                       self._wrap_pool_map(original), False)
        # Clear the per-primitive resolution cache so the next resolve
        # hands out the wrapped kernels.
        backend.set_backend(backend.backend_mode())

    def _bind(self, owner, attr, original, wrapper, is_dict) -> None:
        self._sites.append((owner, attr, original, is_dict))
        _set(owner, attr, wrapper, is_dict)

    def uninstall(self) -> None:
        """Put every original back; check each one by identity."""
        from repro import backend

        for owner, attr, original, is_dict in reversed(self._sites):
            _set(owner, attr, original, is_dict)
        for owner, attr, original, is_dict in self._sites:
            if _get(owner, attr, is_dict) is not original:
                raise RuntimeError(f"tracer failed to restore {attr!r}")
        self._sites.clear()
        backend.set_backend(backend.backend_mode())
        assert_unwrapped()


def _set(owner, attr, value, is_dict) -> None:
    if is_dict:
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def _get(owner, attr, is_dict):
    return owner[attr] if is_dict else vars(owner)[attr]


# -------------------------------------------------------- worker processes

def traced_task(func, task):
    """Run one shard task with the layer functions wrapped in this worker.

    The wrappers are installed for the task only, so later untraced tasks
    in the same worker run the originals.  Returns ``(result, span
    aggregates, pickled result bytes, worker peak RSS in MB)``; the
    parent's ``Pool.map`` wrapper unpacks it.
    """
    import_all()
    tracer = Tracer()
    tracer.install()
    try:
        result = tracer.wrap(func, "parallel.task", "parallel.task")(task)
    finally:
        tracer.uninstall()
    return result, tracer.snapshot(), len(pickle.dumps(result)), peak_rss_mb()


# ----------------------------------------------------------------- targets


def import_all() -> None:
    """Import every ``repro`` module, so that no binding site is created
    after the wrappers are installed."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _owners() -> list:
    """Modules of ``repro`` and the classes they bind (each once)."""
    import multiprocessing.pool

    owners, seen = [multiprocessing.pool.Pool], set()
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        owners.append(mod)
        for value in list(vars(mod).values()):
            if (
                isinstance(value, type)
                and value.__module__.startswith("repro")
                and value not in seen
            ):
                seen.add(value)
                owners.append(value)
    return owners


def binding_sites() -> dict[int, list[tuple[object, str, bool]]]:
    """``id(obj) -> [(owner, attribute, is_dict), ...]`` for every object
    bound in a ``repro`` module, a class it binds, or ``compiled.IMPLS``."""
    from repro.backend import compiled

    sites: dict[int, list] = {}
    for owner in _owners():
        for attr, value in list(vars(owner).items()):
            sites.setdefault(id(value), []).append((owner, attr, False))
    for key, value in compiled.IMPLS.items():
        sites.setdefault(id(value), []).append((compiled.IMPLS, key, True))
    return sites


def wrapped_sites() -> list[str]:
    """Every binding site that still holds a tracer wrapper."""
    from repro.backend import compiled

    found = [f"IMPLS[{k!r}]" for k, v in compiled.IMPLS.items() if is_wrapper(v)]
    for owner in _owners():
        for attr, value in list(vars(owner).items()):
            if is_wrapper(value):
                found.append(f"{owner.__name__}.{attr}")
    return found


def assert_unwrapped() -> None:
    """Raise if any binding site still holds a tracer wrapper."""
    left = wrapped_sites()
    if left:
        raise RuntimeError(f"tracer wrappers left installed: {left[:5]}")


#: Public draw methods of ``WaveSchedulerBatch`` (the draw-sampling layer).
DRAW_METHODS = (
    "block_arrival_times_batch",
    "block_completion_orders",
    "block_completion_orders_from_draws",
    "thread_retirement_orders",
    "thread_retirement_warp_orders",
)


def _measure_fold(args, kwargs, result):
    nbytes = sum(
        v.nbytes for v in (*args, *kwargs.values())
        if isinstance(getattr(v, "nbytes", None), int)
    )
    return nbytes, 0


def _measure_contains(args, kwargs, result):
    return 0, int(bool(result))


def _measure_lookup(args, kwargs, result):
    if result is None:
        return 0, 0
    cache, key = args[0], args[1]
    try:
        return os.stat(cache.path_for(key)).st_size, 1
    except OSError:
        return 0, 1


def _measure_store(args, kwargs, result):
    try:
        return os.stat(result).st_size, 0
    except (OSError, TypeError):
        return 0, 0


def ops_run_functions() -> dict:
    """Public module-level ``*_runs`` functions defined in ``repro.ops``."""
    found = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not name.startswith("repro.ops."):
            continue
        for attr, value in vars(mod).items():
            if (
                attr.endswith("_runs")
                and not attr.startswith("_")
                and callable(value)
                and getattr(value, "__module__", None) == name
            ):
                found[attr] = value
    return found


def _subclasses(root) -> list:
    seen, todo = [], [root]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def targets() -> list[tuple]:
    """``(function, span name, layer group, measure)`` for every traced
    layer function, resolved from the loaded program by name."""
    from repro import runtime
    from repro.backend import compiled
    from repro.experiments import base, sharding
    from repro.gpusim.scheduler import WaveSchedulerBatch
    from repro.harness import jobs, results
    from repro.metrics import array
    from repro.solvers import cg

    ctx, cache, runner = runtime.RunContext, results.ResultCache, jobs.JobRunner
    out = [
        (vars(ctx)["scheduler"], "runtime.scheduler", "runtime.scheduler", None),
        (vars(ctx)["device_stream"], "runtime.device_stream",
         "runtime.device_stream", None),
    ]
    out += [
        (vars(WaveSchedulerBatch)[m], f"gpusim.{m}", "gpusim.draws", None)
        for m in DRAW_METHODS
    ]
    out += [
        (fn, f"ops.{name}", "ops.runs", None)
        for name, fn in sorted(ops_run_functions().items())
    ]
    out.append((cg.conjugate_gradient_runs, "solvers.cg_runs", "solvers.cg_runs", None))
    out += [
        (fn, f"backend.{prim}", "backend.fold", _measure_fold)
        for prim, fn in compiled.IMPLS.items()
    ]
    out += [
        (sharding.run_digest, "metrics.run_digest", "metrics.run_digest", None),
        (array.ermv, "metrics.ermv", "metrics.ermv", None),
        (results.result_digest, "results.result_digest", "results.result_digest", None),
        (results.cache_key, "results.cache_key", "results.cache_key", None),
        (vars(cache)["contains"], "results.contains", "results.contains",
         _measure_contains),
        (vars(cache)["read_meta"], "results.read_meta", "results.read_meta", None),
        (vars(cache)["lookup"], "results.lookup", "results.lookup", _measure_lookup),
        (vars(cache)["store"], "results.store", "results.store", _measure_store),
        (vars(runner)["run"], "jobs.run", "jobs.run", None),
        (vars(runner)["plan_overrides"], "jobs.plan_overrides",
         "jobs.plan_overrides", None),
    ]
    for cls in _subclasses(base.Experiment):
        for meth in ("merge_shards", "finalize"):
            fn = vars(cls).get(meth)
            if fn is not None:
                out.append((fn, f"experiments.{meth}.{cls.__name__}",
                            f"experiments.{meth}", None))
    return out
