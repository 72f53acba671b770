"""Cross-backend parity and selection semantics of :mod:`repro.backend`.

Three layers of pinning:

1. **Parity fuzz** — every compiled primitive against its NumPy twin,
   bit-for-bit, across dtypes (f32/f64), sizes (0/1/prime/large), special
   payloads (−0.0, inf, NaN) and run-chunk edges.  The NumPy results
   are computed under ``use_backend("numpy")`` so the reference can never
   silently ride the compiled path.  The kernel-less tree fold, blocked
   scan and canonical segmented folds are pinned backend-invariant too.
2. **Selection semantics** — mode validation, ``auto`` fallback when the
   toolchain is simulated absent, the loud failure of explicit
   ``compiled``, worker-pool inheritance, warm-up, and the dispatch
   table (every ``resolve`` site names a kernel, every kernel has a
   site, every declared C function has a body and a calling wrapper).
3. **Cache-key hygiene** — backend identity in
   :func:`repro.harness.results.cache_key`, including kernel-fingerprint
   sensitivity.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import backend as B
from repro.backend import compiled as C
from repro.backend import csrc
from repro.backend import registry as R
from repro.errors import ConfigurationError
from repro.fp import summation
from repro.fp.summation import batched_tree_fold, permuted_sums
from repro.gpusim.atomics import batched_atomic_fold
from repro.ops.cumsum import blocked_cumsum, cumsum_runs
from repro.ops.segmented import SegmentPlan
from repro.runtime import RunContext

requires_compiled = pytest.mark.skipif(
    not B.compiled_available(),
    reason=f"compiled backend unavailable: {B.availability_error()}",
)

DTYPES = (np.float32, np.float64)
SIZES = (0, 1, 2, 5, 31, 97, 1000)


def bits(a: np.ndarray) -> np.ndarray:
    """Reinterpret a float array as integers for exact comparisons
    (distinguishes −0.0 from +0.0 and compares NaN payloads)."""
    return a.view(np.int32 if a.dtype == np.float32 else np.int64)


def both_backends(fn):
    """Evaluate ``fn`` under each backend; returns (numpy, compiled)."""
    with B.use_backend("numpy"):
        ref = fn()
    with B.use_backend("compiled"):
        got = fn()
    return ref, got


def assert_parity(fn) -> None:
    ref, got = both_backends(fn)
    assert ref.dtype == got.dtype and ref.shape == got.shape
    assert np.array_equal(bits(ref), bits(got))


def special_values(rng, n, dtype):
    """Random data salted with the IEEE-754 troublemakers."""
    x = rng.standard_normal(n).astype(dtype)
    if n >= 4:
        x[::4] = -0.0
        x[1] = np.inf
        x[3] = -np.inf
    if n >= 8:
        x[5] = np.nan
    return x


# ------------------------------------------------------------- parity fuzz


@requires_compiled
class TestFoldParity:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", SIZES)
    def test_permuted_sums(self, rng, dtype, n):
        x = special_values(rng, n, dtype)
        perms = np.stack([rng.permutation(n) for _ in range(7)]) if n else np.empty(
            (7, 0), dtype=np.int64
        )
        assert_parity(lambda: permuted_sums(x, perms))

    @pytest.mark.parametrize("runs_per_chunk", (1, 2, 3, 1000))
    def test_permuted_sums_chunk_runs(self, rng, monkeypatch, runs_per_chunk):
        """NumPy's chunked folds match the kernel's unchunked pass."""
        monkeypatch.setattr(summation, "DEFAULT_RUN_CHUNK_ELEMENTS", runs_per_chunk * 31)
        x = special_values(rng, 31, np.float64)
        perms = np.stack([rng.permutation(31) for _ in range(5)])
        assert_parity(lambda: permuted_sums(x, perms))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", SIZES)
    def test_batched_tree_fold(self, rng, dtype, n):
        """No kernel: the tree fold stays backend-invariant."""
        mat = np.stack([special_values(rng, n, dtype) for _ in range(5)])
        assert_parity(lambda: batched_tree_fold(mat))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("per_run", (False, True))
    @pytest.mark.parametrize("n", SIZES)
    def test_batched_atomic_fold(self, rng, dtype, per_run, n):
        n_runs = 6
        vals = (
            np.stack([special_values(rng, n, dtype) for _ in range(n_runs)])
            if per_run
            else special_values(rng, n, dtype)
        )
        orders = (
            np.stack([rng.permutation(n) for _ in range(n_runs)])
            if n
            else np.empty((n_runs, 0), dtype=np.int64)
        )
        assert_parity(lambda: batched_atomic_fold(vals, orders))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("chunk", (1, 2, 30, 31, 32, 4096))
    def test_blocked_cumsum(self, rng, dtype, chunk):
        """No kernel: the blocked scan stays backend-invariant."""
        x = special_values(rng, 31, dtype)
        assert_parity(lambda: blocked_cumsum(x, chunk))

    def test_cumsum_runs_draw_contract(self, rng):
        """The compiled scan consumes no RNG: chunk draws land identically."""
        x = rng.standard_normal(700)

        def run():
            return np.stack(cumsum_runs(x, n_runs=9, ctx=RunContext(seed=3)))

        assert_parity(run)


def _plan_and_vals(rng, n_sources, n_targets, dtype, payload=()):
    idx = (
        rng.integers(0, n_targets, size=n_sources)
        if n_sources
        else np.empty(0, dtype=np.int64)
    )
    plan = SegmentPlan(idx, n_targets)
    vals = rng.standard_normal((n_sources,) + payload).astype(dtype)
    if n_sources >= 3:
        vals[::3] = -0.0
    return plan, vals


@requires_compiled
class TestSegmentParity:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n_sources,n_targets", [(0, 3), (1, 1), (97, 13), (400, 64)])
    @pytest.mark.parametrize("payload", [(), (3,), (2, 2)])
    def test_fold(self, rng, dtype, n_sources, n_targets, payload):
        plan, vals = _plan_and_vals(rng, n_sources, n_targets, dtype, payload)
        init = rng.standard_normal((n_targets,) + payload).astype(dtype)
        init[0] = -0.0
        assert_parity(lambda: plan.fold(vals))
        assert_parity(lambda: plan.fold(vals, init=init))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_fold_runs_sparse(self, rng, dtype):
        from repro.ops.nondet import ContentionModel

        plan, vals = _plan_and_vals(rng, 300, 40, dtype)
        model = ContentionModel(q0=0.9, gamma=0.0, n0=1.0)  # race a lot

        def run():
            draws = plan.sample_run_draws(6, model, RunContext(seed=17))
            return plan.fold_runs_sparse(vals, draws)

        assert_parity(run)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_fold_runs_values_canonical(self, rng, dtype):
        plan, _ = _plan_and_vals(rng, 200, 30, dtype)
        vals = rng.standard_normal((7, 200, 2)).astype(dtype)
        vals[:, ::5] = -0.0
        init = rng.standard_normal((30, 2)).astype(dtype)
        assert_parity(lambda: plan.fold_runs_values(vals))
        assert_parity(lambda: plan.fold_runs_values(vals, init=init))

    @pytest.mark.parametrize("reduce", ["amax", "amin", "prod"])
    def test_non_add_reduces_fall_back(self, rng, reduce):
        """Non-add reduces stay on NumPy under the compiled backend (the C
        kernels only implement the ``np.add`` contract) — and still agree."""
        plan, vals = _plan_and_vals(rng, 120, 20, np.float64)
        assert_parity(lambda: plan.fold(vals, reduce=reduce))

    def test_index_add_runs_end_to_end(self, rng):
        """The full op-layer path (draws + sparse refold) is backend-invariant."""
        from repro.ops import index_add_runs

        x = rng.standard_normal((40, 3))
        index = rng.integers(0, 40, size=200)
        src = rng.standard_normal((200, 3))

        def run():
            outs = index_add_runs(
                x, 0, index, src, n_runs=6, ctx=RunContext(seed=23)
            )
            return np.stack(outs)

        assert_parity(run)


# ---------------------------------------------------- selection semantics


class TestSelection:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            B.set_backend("bogus")

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setattr(R, "_mode", None)
        monkeypatch.setenv(B.BACKEND_ENV, "fpga")
        with pytest.raises(ConfigurationError, match="unknown backend"):
            B.backend_mode()

    def test_env_default_is_auto(self, monkeypatch):
        monkeypatch.setattr(R, "_mode", None)
        monkeypatch.delenv(B.BACKEND_ENV, raising=False)
        assert B.backend_mode() == "auto"

    def test_use_backend_restores(self):
        before = B.backend_mode()
        with B.use_backend("numpy"):
            assert B.backend_mode() == "numpy"
        assert B.backend_mode() == before

    def test_numpy_mode_never_dispatches(self):
        with B.use_backend("numpy"):
            assert B.active_backend() == "numpy"
            assert B.resolve("batched_atomic_fold") is None

    @requires_compiled
    def test_compiled_mode_dispatches(self):
        with B.use_backend("compiled"):
            assert B.active_backend() == "compiled"
            assert callable(B.resolve("batched_atomic_fold"))
            assert B.resolve("no_such_primitive") is None

    @requires_compiled
    def test_warm_up(self):
        with B.use_backend("compiled"):
            assert B.warm_up() == "compiled"
        with B.use_backend("numpy"):
            assert B.warm_up() == "numpy"

    def test_worker_initializer_sets_mode(self):
        from repro.harness.parallel import _worker_initializer

        before = B.backend_mode()
        try:
            _worker_initializer("numpy")
            assert B.backend_mode() == "numpy"
        finally:
            B.set_backend(before)

    def test_pool_created_with_backend_initializer(self, monkeypatch):
        """The sharded executor forwards the parent's backend selection to
        spawn workers through the pool initializer (spawn re-imports the
        library, so a ``set_backend`` override would otherwise be lost)."""
        from repro.harness import parallel

        captured = {}

        class FakeCtx:
            def Pool(self, processes, initializer=None, initargs=()):
                captured.update(
                    processes=processes, initializer=initializer, initargs=initargs
                )

                class FakePool:
                    def terminate(self):
                        pass

                    def join(self):
                        pass

                return FakePool()

        monkeypatch.setattr(
            parallel.multiprocessing, "get_context", lambda method: FakeCtx()
        )
        with B.use_backend("numpy"):
            with parallel.ShardedExecutor(workers=2) as ex:
                ex._get_pool()
        assert captured["initializer"] is parallel._worker_initializer
        assert captured["initargs"] == ("numpy",)


def _resolve_sites() -> dict[str, list[str]]:
    """Primitive name -> files holding a ``_backend.resolve("<name>")``
    dispatch site, over the whole ``repro`` package."""
    site = re.compile(r"""_backend\.resolve\(\s*["'](\w+)["']""")
    root = Path(repro.__file__).parent
    sites: dict[str, list[str]] = {}
    for path in sorted(root.rglob("*.py")):
        for name in site.findall(path.read_text()):
            sites.setdefault(name, []).append(str(path.relative_to(root)))
    return sites


def _wrapper_kernel_calls() -> set[str]:
    """C symbols the wrappers in ``compiled.py`` call: ``lib.repro_x`` and
    ``getattr(lib, f"repro_x_{sfx}")`` (expanded over the dtype suffixes)."""
    called: set[str] = set()
    for node in ast.walk(ast.parse(Path(C.__file__).read_text())):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "lib"):
            called.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "getattr" and isinstance(node.args[0], ast.Name)
                and node.args[0].id == "lib"):
            stem = "".join(
                part.value for part in node.args[1].values
                if isinstance(part, ast.Constant)
            )
            called |= {stem + sfx for sfx in C._SUFFIX.values()}
    return called


class TestDispatchTable:
    """A dispatch site naming no kernel would silently run NumPy forever,
    and a kernel without a site is dead C: both directions are pinned."""

    def test_every_declared_kernel_is_called_by_a_wrapper(self):
        declared = set(re.findall(r"\b(repro_\w+)\s*\(", csrc.CDEF))
        defined = set(re.findall(r"^(?:int|void) (repro_\w+)\(", csrc.CSRC, re.M))
        called = _wrapper_kernel_calls()
        assert declared == defined
        assert declared - called == set(), "declared C no wrapper calls"
        assert called - declared == set(), "wrapper calls of undeclared C"

    def test_every_resolve_site_names_a_kernel(self):
        unknown = {n: f for n, f in _resolve_sites().items() if n not in C.IMPLS}
        assert not unknown, f"resolve() names without a compiled kernel: {unknown}"

    def test_every_kernel_has_a_resolve_site(self):
        assert set(C.IMPLS) <= set(_resolve_sites())

    @requires_compiled
    def test_warm_up_calls_every_kernel(self, monkeypatch):
        calls: Counter = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name, fn in list(C.IMPLS.items()):
            monkeypatch.setitem(C.IMPLS, name, counted(name, fn))
        with B.use_backend("compiled"):
            B.warm_up()
        assert set(calls) == set(C.IMPLS)


class TestToolchainAbsent:
    """Simulate a machine with no C compiler and an empty build cache."""

    @pytest.fixture()
    def no_toolchain(self, tmp_path, monkeypatch):
        monkeypatch.setenv(C.BUILD_DIR_ENV, str(tmp_path / "no-build"))
        monkeypatch.setattr(C, "_find_compiler", lambda: None)
        C._reset_for_tests()
        R._resolved.clear()
        yield
        C._reset_for_tests()
        R._resolved.clear()

    def test_auto_falls_back_silently(self, no_toolchain, rng):
        with B.use_backend("auto"):
            assert not B.compiled_available()
            assert "no C compiler" in (B.availability_error() or "")
            assert B.active_backend() == "numpy"
            assert B.resolve("batched_atomic_fold") is None
            x = rng.standard_normal(17)
            perms = np.stack([rng.permutation(17) for _ in range(3)])
            out = permuted_sums(x, perms)  # hot path keeps working
            assert out.shape == (3,)

    def test_explicit_compiled_fails_loudly(self, no_toolchain):
        with B.use_backend("compiled"):
            with pytest.raises(ConfigurationError, match="unavailable"):
                B.active_backend()
            with pytest.raises(ConfigurationError, match="unavailable"):
                B.resolve("batched_atomic_fold")


# ------------------------------------------------------- cache-key hygiene


@requires_compiled
class TestCacheKeys:
    def test_identity_shape(self):
        with B.use_backend("numpy"):
            assert B.cache_identity() == {"name": "numpy"}
        with B.use_backend("compiled"):
            ident = B.cache_identity()
        assert ident["name"] == "compiled"
        assert ident["kernels"] == C.KERNEL_FINGERPRINT
        assert len(ident["kernels"]) == 64

    def test_cache_key_differs_across_backends(self):
        from repro.harness.results import cache_key

        with B.use_backend("numpy"):
            k_np = cache_key("fig3", "default", 0, {"n_runs": 8})
        with B.use_backend("compiled"):
            k_c = cache_key("fig3", "default", 0, {"n_runs": 8})
            k_c2 = cache_key("fig3", "default", 0, {"n_runs": 8})
        assert k_np != k_c
        assert k_c == k_c2

    def test_kernel_fingerprint_covers_source_and_flags(self):
        from repro.backend.csrc import CDEF, CFLAGS, CSRC, KERNEL_FINGERPRINT
        import hashlib

        expect = hashlib.sha256(
            "\0".join((CDEF, CSRC, " ".join(CFLAGS))).encode()
        ).hexdigest()
        assert KERNEL_FINGERPRINT == expect
