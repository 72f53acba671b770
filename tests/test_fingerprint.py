"""Tests for module-granular code fingerprints (:mod:`repro.harness.fingerprint`).

Two layers: a synthetic package under ``tmp_path`` pins the import-graph
extraction and closure semantics (resolution depth, relative levels,
cycles, the deliberate no-ancestor-``__init__`` rule), and a copied
``repro`` tree with a monkeypatched :func:`~repro.harness.fingerprint.package_root`
exercises real edits — the invalidation contract the result cache keys on:
an edit changes exactly the fingerprints of the experiments whose closure
reaches the edited module.
"""

from __future__ import annotations

import ast
import shutil
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigurationError
from repro.harness import fingerprint
from repro.harness.fingerprint import (
    experiment_fingerprint,
    fingerprint_delta,
    import_graph,
    module_hashes,
    package_fingerprint,
    transitive_closure,
)


def _make_pkg(tmp_path: Path, files: dict[str, str]) -> Path:
    root = tmp_path / "pkg"
    for rel, src in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(src)
    return root


class TestImportGraph:
    def test_absolute_and_relative_forms(self, tmp_path):
        root = _make_pkg(tmp_path, {
            "__init__.py": "",
            "a.py": "from . import b\n",
            "b.py": "import pkg.c\n",
            "c.py": "x = 1\n",
            "d.py": "import numpy\n",  # non-package import: invisible
        })
        graph = import_graph(root, "pkg")
        assert graph["pkg.a"] == frozenset({"pkg.b"})
        assert graph["pkg.b"] == frozenset({"pkg.c"})
        assert graph["pkg.c"] == frozenset()
        assert graph["pkg.d"] == frozenset()

    def test_from_import_resolves_to_deepest_module(self, tmp_path):
        # ``from pkg.sub.mod import thing`` names the module, not the attr.
        root = _make_pkg(tmp_path, {
            "__init__.py": "",
            "a.py": "from pkg.sub.mod import thing\n",
            "sub/__init__.py": "",
            "sub/mod.py": "thing = 1\n",
        })
        graph = import_graph(root, "pkg")
        assert graph["pkg.a"] == frozenset({"pkg.sub.mod"})

    def test_relative_import_levels(self, tmp_path):
        root = _make_pkg(tmp_path, {
            "__init__.py": "",
            "c.py": "x = 1\n",
            "sub/__init__.py": "",
            "sub/mod.py": "from ..c import x\nfrom . import peer\n",
            "sub/peer.py": "y = 2\n",
        })
        graph = import_graph(root, "pkg")
        assert graph["pkg.sub.mod"] == frozenset({"pkg.c", "pkg.sub.peer"})

    def test_relative_import_beyond_root_is_skipped(self, tmp_path):
        root = _make_pkg(tmp_path, {
            "__init__.py": "",
            "a.py": "from ....nowhere import x\n",
        })
        assert import_graph(root, "pkg")["pkg.a"] == frozenset()

    def test_submodule_import_skips_ancestor_init(self, tmp_path):
        # The deliberate approximation: importing pkg.sub.mod does NOT
        # depend on pkg/__init__.py or pkg/sub/__init__.py — otherwise a
        # re-exporting package __init__ collapses every closure into one.
        root = _make_pkg(tmp_path, {
            "__init__.py": "from . import a\nfrom .sub import mod\n",
            "a.py": "import pkg.sub.mod\n",
            "sub/__init__.py": "from . import mod\n",
            "sub/mod.py": "x = 1\n",
        })
        closure = transitive_closure("pkg.a", root=root, package="pkg")
        assert closure == frozenset({"pkg.a", "pkg.sub.mod"})

    def test_function_local_imports_are_seen(self, tmp_path):
        root = _make_pkg(tmp_path, {
            "__init__.py": "",
            "a.py": "def f():\n    from .b import g\n    return g()\n",
            "b.py": "def g():\n    return 1\n",
        })
        assert import_graph(root, "pkg")["pkg.a"] == frozenset({"pkg.b"})


def _ast_walk_targets(path: Path, module: str, is_package: bool) -> tuple[str, ...]:
    """The import extractor as it was before the statement-only walk:
    ``ast.walk`` over every node.  Kept as the oracle the faster walker
    must agree with, target for target."""
    targets: set[str] = set()
    for node in ast.walk(ast.parse(path.read_bytes(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                targets.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                parts = module.split(".")
                if not is_package:
                    parts = parts[:-1]
                drop = node.level - 1
                if drop >= len(parts):
                    continue
                if drop:
                    parts = parts[: len(parts) - drop]
                base = ".".join(parts)
                if node.module:
                    base = f"{base}.{node.module}"
            if not base:
                continue
            for alias in node.names:
                targets.add(base if alias.name == "*" else f"{base}.{alias.name}")
    return tuple(sorted(targets))


def _targets_both_ways(path: Path, module: str, is_package: bool = False):
    st = path.stat()
    new = fingerprint._import_targets(
        str(path), (st.st_mtime_ns, st.st_size), module, is_package
    )
    return new, _ast_walk_targets(path, module, is_package)


_NESTED_IMPORTS = """\
import pkg.top
if FLAG:
    import pkg.if_body
elif OTHER:
    from . import elif_body
else:
    from .else_body import x
try:
    import pkg.try_body
except ImportError:
    import pkg.except_body
else:
    import pkg.try_else
finally:
    import pkg.finally_body
try:
    pass
except* OSError:
    import pkg.except_star_body
with open(__file__) as fh:
    import pkg.with_body
for _ in range(1):
    import pkg.for_body
else:
    import pkg.for_else
while False:
    import pkg.while_body
else:
    import pkg.while_else
class C:
    import pkg.class_body
    def method(self):
        import pkg.method_body
        def inner():
            from ..beyond import nothing
            from .deep import inner_def
        return inner
async def coro():
    import pkg.async_def
    async with ctx() as c:
        import pkg.async_with
    async for _ in agen():
        import pkg.async_for
match VALUE:
    case 1:
        import pkg.match_case
    case _:
        if True:
            from pkg.match_default import y
lam = lambda: __import__("pkg.not_a_statement")
from . import *
"""


class TestStatementWalk:
    """The statement-only import walk finds exactly what ``ast.walk`` over
    every node found, so no cache key moves."""

    def test_nested_statement_fixture(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(_NESTED_IMPORTS)
        new, old = _targets_both_ways(path, "pkg.mod")
        assert new == old
        for name in ("pkg.if_body", "pkg.elif_body", "pkg.else_body.x",
                     "pkg.except_body", "pkg.except_star_body", "pkg.try_else",
                     "pkg.finally_body", "pkg.with_body", "pkg.for_else",
                     "pkg.while_body", "pkg.class_body", "pkg.method_body",
                     "pkg.deep.inner_def", "pkg.async_with", "pkg.async_for",
                     "pkg.match_case", "pkg.match_default.y", "pkg"):
            assert name in new, name
        assert "pkg.not_a_statement" not in new

    def test_package_relative_fixture(self, tmp_path):
        path = tmp_path / "__init__.py"
        path.write_text("try:\n    from . import a\nexcept Exception:\n"
                        "    from .. import b\n")
        new, old = _targets_both_ways(path, "pkg.sub", is_package=True)
        assert new == old == ("pkg.b", "pkg.sub.a")

    def test_every_real_module_matches_the_ast_walk(self):
        root = Path(repro.__file__).resolve().parent
        modules = fingerprint._walk(str(root), "repro")
        assert len(modules) > 50
        for name, (path, _sig) in modules.items():
            is_package = path.endswith("__init__.py")
            new, old = _targets_both_ways(Path(path), name, is_package)
            assert new == old, name


class TestTransitiveClosure:
    def test_chain_and_isolation(self, tmp_path):
        root = _make_pkg(tmp_path, {
            "__init__.py": "",
            "a.py": "from . import b\n",
            "b.py": "from . import c\n",
            "c.py": "x = 1\n",
            "d.py": "y = 2\n",
        })
        graph = import_graph(root, "pkg")
        assert transitive_closure("pkg.a", graph) == frozenset(
            {"pkg.a", "pkg.b", "pkg.c"}
        )
        assert transitive_closure("pkg.d", graph) == frozenset({"pkg.d"})

    def test_cycle_terminates_with_both_members(self, tmp_path):
        root = _make_pkg(tmp_path, {
            "__init__.py": "",
            "x.py": "from .y import f\n",
            "y.py": "from .x import g\n",
        })
        graph = import_graph(root, "pkg")
        both = frozenset({"pkg.x", "pkg.y"})
        assert transitive_closure("pkg.x", graph) == both
        assert transitive_closure("pkg.y", graph) == both

    def test_unknown_module_raises(self, tmp_path):
        root = _make_pkg(tmp_path, {"__init__.py": ""})
        with pytest.raises(ConfigurationError, match="nosuch"):
            transitive_closure("pkg.nosuch", root=root, package="pkg")


class TestMemoization:
    def test_hash_memo_invalidates_on_edit(self, tmp_path):
        root = _make_pkg(tmp_path, {"__init__.py": "", "a.py": "x = 1\n"})
        before = module_hashes(root, "pkg")
        assert module_hashes(root, "pkg") == before  # memo hit, same bits
        (root / "a.py").write_text("x = 2  # edited\n")
        after = module_hashes(root, "pkg")
        assert after["pkg.a"] != before["pkg.a"]
        assert after["pkg"] == before["pkg"]

    def test_import_memo_invalidates_on_edit(self, tmp_path):
        root = _make_pkg(tmp_path, {
            "__init__.py": "", "a.py": "x = 1\n", "b.py": "y = 2\n",
        })
        assert import_graph(root, "pkg")["pkg.a"] == frozenset()
        (root / "a.py").write_text("from . import b\n")
        assert import_graph(root, "pkg")["pkg.a"] == frozenset({"pkg.b"})

    def test_package_fingerprint_tracks_any_edit(self, tmp_path):
        root = _make_pkg(tmp_path, {"__init__.py": "", "a.py": "x = 1\n"})
        before = package_fingerprint(root, "pkg")
        (root / "a.py").write_text("x = 1  # docstring-level edit\n")
        assert package_fingerprint(root, "pkg") != before


class TestFingerprintDelta:
    def test_changed_added_removed(self):
        old = {"m.a": "1", "m.b": "2", "m.gone": "3"}
        new = {"m.a": "1", "m.b": "9", "m.new": "4"}
        assert fingerprint_delta(old, new) == ("m.b", "m.gone", "m.new")

    def test_identical_maps_empty(self):
        assert fingerprint_delta({"m": "1"}, {"m": "1"}) == ()


# --------------------------------------------------------- the real package

@pytest.fixture(scope="module")
def repro_copy(tmp_path_factory):
    """A private copy of the installed ``repro`` tree (edits stay local)."""
    src = Path(repro.__file__).resolve().parent
    dst = tmp_path_factory.mktemp("pkgcopy") / "repro"
    shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
    return dst


@pytest.fixture()
def patched_root(repro_copy, monkeypatch):
    """Point the fingerprint machinery at the copied tree."""
    monkeypatch.setattr(fingerprint, "package_root", lambda: (repro_copy, "repro"))
    return repro_copy


def _edit(path: Path) -> None:
    path.write_text(path.read_text() + "\n# fingerprint-test edit\n")


def _unedit(path: Path) -> None:
    text = path.read_text()
    path.write_text(text.replace("\n# fingerprint-test edit\n", ""))


class TestExperimentInvalidation:
    def test_outside_closure_edit_is_invisible(self, patched_root):
        # fig1 never imports GNN code: a _gnn.py edit must not move it.
        target = patched_root / "experiments" / "_gnn.py"
        fig1 = experiment_fingerprint("fig1")
        table7 = experiment_fingerprint("table7")
        _edit(target)
        try:
            assert experiment_fingerprint("fig1") == fig1
            assert experiment_fingerprint("table7") != table7
        finally:
            _unedit(target)

    def test_shared_module_edit_hits_every_dependent(self, patched_root):
        # fp/summation.py is the paper's core: every summation experiment
        # (and the GNN tables, whose kernels fold through it) depends on it.
        target = patched_root / "fp" / "summation.py"
        before = {
            eid: experiment_fingerprint(eid)
            for eid in ("fig1", "fig2", "table7", "maxvs")
        }
        _edit(target)
        try:
            for eid, fp in before.items():
                assert experiment_fingerprint(eid) != fp, eid
        finally:
            _unedit(target)

    def test_closures_include_backend_kernel_source(self, patched_root):
        # A compiled-kernel source edit must invalidate every experiment
        # that could dispatch through the backend.
        closure = transitive_closure(
            "repro.experiments.fig1", root=patched_root, package="repro"
        )
        assert "repro.backend.csrc" in closure

    def test_cache_key_rides_the_experiment_fingerprint(self, patched_root):
        from repro.harness import cache_key

        target = patched_root / "experiments" / "_gnn.py"
        fig1_key = cache_key("fig1", "default", 0)
        table7_key = cache_key("table7", "default", 0)
        _edit(target)
        try:
            assert cache_key("fig1", "default", 0) == fig1_key
            assert cache_key("table7", "default", 0) != table7_key
        finally:
            _unedit(target)

    def test_fingerprint_stable_across_calls(self, patched_root):
        assert experiment_fingerprint("fig4") == experiment_fingerprint("fig4")


class TestSnapshot:
    """The per-process snapshot: one stat walk per call, every on-disk
    change seen by the very next call, no memo reset between steps."""

    def test_added_module_enters_the_closure_once_imported(self, patched_root):
        from repro.harness import cache_key

        extra = patched_root / "fp" / "_snapshot_probe.py"
        importer = patched_root / "fp" / "summation.py"
        original = importer.read_bytes()
        fp0, key0 = experiment_fingerprint("fig1"), cache_key("fig1", "default", 0)
        try:
            extra.write_text("PROBE = 1\n")
            assert "repro.fp._snapshot_probe" in module_hashes()
            assert experiment_fingerprint("fig1") == fp0  # not imported yet
            importer.write_bytes(original + b"\nfrom . import _snapshot_probe\n")
            assert "repro.fp._snapshot_probe" in fingerprint.closure_hashes("fig1")
            assert experiment_fingerprint("fig1") != fp0
            assert cache_key("fig1", "default", 0) != key0
        finally:
            importer.write_bytes(original)
            extra.unlink(missing_ok=True)
        assert "repro.fp._snapshot_probe" not in module_hashes()
        assert experiment_fingerprint("fig1") == fp0
        assert cache_key("fig1", "default", 0) == key0

    def test_deleted_closure_module_changes_the_fingerprint(self, patched_root):
        target = patched_root / "experiments" / "_gnn.py"
        original = target.read_bytes()
        before = experiment_fingerprint("table7")
        assert "repro.experiments._gnn" in fingerprint.closure_hashes("table7")
        target.unlink()
        try:
            assert "repro.experiments._gnn" not in module_hashes()
            assert experiment_fingerprint("table7") != before
        finally:
            target.write_bytes(original)
        assert experiment_fingerprint("table7") == before

    def test_warm_cache_key_reads_and_parses_nothing(self, patched_root, monkeypatch):
        import ast

        from repro.harness import cache_key

        target = patched_root / "fp" / "summation.py"
        key = cache_key("fig1", "default", 0)  # warm the snapshot
        calls = {"read_bytes": 0, "parse": 0}
        read_bytes, parse = Path.read_bytes, ast.parse

        def counting_read_bytes(self):
            calls["read_bytes"] += 1
            return read_bytes(self)

        def counting_parse(*args, **kwargs):
            calls["parse"] += 1
            return parse(*args, **kwargs)

        monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
        monkeypatch.setattr(ast, "parse", counting_parse)
        assert cache_key("fig1", "default", 0) == key
        assert cache_key("fig1", "default", 0) == key
        assert calls == {"read_bytes": 0, "parse": 0}
        # The counters do see the cold path: an edit re-reads the edited
        # file (once to hash, once to parse) and nothing else.
        _edit(target)
        try:
            assert cache_key("fig1", "default", 0) != key
            assert calls == {"read_bytes": 2, "parse": 1}
        finally:
            _unedit(target)
        assert cache_key("fig1", "default", 0) == key

    def test_lazy_closure_is_the_full_graph_closure(self, patched_root):
        from repro.experiments import get_experiment, list_experiments

        fingerprint.invalidate_memo()
        lazy = {
            eid: frozenset(fingerprint.closure_hashes(eid))
            for eid in list_experiments()
        }
        graph = import_graph()
        for eid, members in lazy.items():
            module = get_experiment(eid).source_module
            assert members == transitive_closure(module, graph), eid
            assert members == transitive_closure(module), eid

    def test_cold_closure_parses_only_its_members(self, patched_root, monkeypatch):
        parsed: list[str] = []
        parse = ast.parse

        def recording_parse(source, filename="<unknown>", *args, **kwargs):
            parsed.append(str(filename))
            return parse(source, filename, *args, **kwargs)

        fingerprint.invalidate_memo()
        monkeypatch.setattr(ast, "parse", recording_parse)
        members = fingerprint.closure_hashes("fig4")
        n_modules = len(module_hashes())
        assert len(parsed) == len(members) < n_modules
        assert {Path(p).resolve() for p in parsed} == {
            Path(fingerprint.snapshot().signature[name][0]).resolve()
            for name in members
        }

    def test_every_experiment_matches_a_from_scratch_reference(self, patched_root):
        import hashlib

        from repro.experiments import get_experiment, list_experiments

        warm = {eid: experiment_fingerprint(eid) for eid in list_experiments()}
        fingerprint.invalidate_memo()
        graph = import_graph()

        def source(module: str) -> Path:
            path = patched_root.joinpath(*module.split(".")[1:])
            return path / "__init__.py" if path.is_dir() else path.with_suffix(".py")

        for eid, fp in warm.items():
            closure = transitive_closure(get_experiment(eid).source_module, graph)
            reference = fingerprint._combined({
                name: hashlib.sha256(source(name).read_bytes()).hexdigest()
                for name in closure
            })
            assert fp == reference, eid
