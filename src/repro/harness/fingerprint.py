"""Module-granular code fingerprints over the static import graph.

The result cache keys every experiment invocation on a *code fingerprint*
so edited code can never serve stale results.  Hashing the whole package
(the pre-farm behaviour) makes that guard maximally blunt: touching a
docstring in ``experiments/_gnn.py`` invalidated ``fig1``'s key even
though ``fig1`` never imports a line of GNN code, and iterating on one
experiment forced cold re-runs of every other.  This module provides the
granular alternative:

* :attr:`Snapshot.hashes` — one SHA-256 per ``*.py`` file of the package;
* :attr:`Snapshot.graph` — the static intra-package import graph,
  extracted with :mod:`ast` (both ``import a.b`` and ``from .x import y``
  forms, any nesting depth, function-local imports included);
* :meth:`Snapshot.closure` — the set of package modules one module can
  reach (cycle-safe walk) and their hashes;
* :func:`experiment_fingerprint` — the SHA-256 of exactly the modules in
  the experiment's closure, rooted at its defining module
  (:attr:`~repro.experiments.base.Experiment.source_module`).

An edit therefore invalidates precisely the experiments whose closure
contains the edited module: ``_gnn.py`` reaches only ``table7``/
``table8``, ``fp/summation.py`` reaches every summation experiment, and
the compiled-backend kernel source (``backend/csrc.py``) is inside every
closure that dispatches through :mod:`repro.backend` — so a kernel edit
still invalidates every experiment that could ride the compiled kernels
(the backend *identity*, including the kernel fingerprint when the
compiled backend is active, is additionally a separate cache-key field;
see :func:`repro.harness.results.cache_key`).

Static approximation
--------------------
Resolution maps each imported dotted name onto the **deepest package
module that exists** (``from ..metrics.distribution import estimate_pdf``
depends on ``repro.metrics.distribution``; ``from .base import register``
depends on ``repro.experiments.base``).  Importing a submodule does *not*
create a dependency on its ancestor ``__init__`` files: at runtime those
do execute, but their work (re-exports, registry side effects) is
result-neutral by construction — and including them would collapse the
granularity, because ``repro/experiments/__init__.py`` imports every
experiment module.  Conditional imports are treated as unconditional
(closures over-approximate, never under-approximate).  Non-package
imports (``numpy`` ...) are outside the fingerprint by design: the
environment is not part of the code state.

Pinning and cost
----------------
A process keys the tree it pinned.  The first call of any entry point
below walks the package once (one ``os.scandir`` pass), reads every
``*.py`` file and hashes it; that :class:`Snapshot` is *pinned* for the
rest of the process, and every later ``cache_key``, :func:`closure_hashes`
or drift lookup is served from it by dictionary lookups: no stat, no
read.  Import edges are parsed lazily from the pinned bytes, one module
at a time as a closure walk reaches it, so a process that keys a few
experiments parses only the modules their closures hold (about a third
of the package for the lightest cells); only the full
:attr:`Snapshot.graph` parses every module.  The parse extracts imports by
walking statement lists alone (imports are always statements), never
the expressions inside them.

An on-disk edit is deliberately not seen by a running process.  The
process still runs the code it imported, so a result it computes must be
keyed under that code: keying it under the edited tree would let a later
process, which does run the edit, be served the old bits as a cache hit.
A restart picks up edits; tools and tests that edit a tree on purpose
call :func:`repin`.  Spawn-pool workers pin their own snapshot when they
start, and :class:`~repro.harness.parallel.ShardedExecutor` refuses
shards computed under any tree other than its own process's pin
(:class:`~repro.harness.parallel.CodeMismatchError`).  The pin is taken at the
first key derivation, shortly after the package was imported; an edit
inside that window is the one the pin cannot see.
"""

from __future__ import annotations

import ast
import functools
import hashlib
import os
import threading
import time
from pathlib import Path

from ..errors import ConfigurationError

__all__ = [
    "package_root",
    "Snapshot",
    "snapshot",
    "repin",
    "experiment_fingerprint",
    "closure_hashes",
    "fingerprint_delta",
]


@functools.cache
def package_root() -> tuple[Path, str]:
    """``(directory, package name)`` of the fingerprinted package.

    Module-level so tests can monkeypatch it at a copied tree and exercise
    real edits without touching the installed sources.  Resolved once per
    process: the package does not move while it is imported.
    """
    import repro

    return Path(repro.__file__).resolve().parent, "repro"


#: (root, package) -> the snapshot pinned for this process
_SNAPSHOTS: dict[tuple[str, str], "Snapshot"] = {}
_PIN_LOCK = threading.Lock()


def _walk(root: str, package: str) -> dict[str, str]:
    """``{dotted module name: path}`` for every ``*.py`` under ``root``,
    in one ``scandir`` pass.

    ``__init__.py`` maps onto its package's dotted name, so ``repro.ops``
    names ``repro/ops/__init__.py``.  ``__pycache__`` holds no sources and
    is skipped; symlinked directories are not followed.
    """
    modules: dict[str, str] = {}
    todo = [(root, package)]
    while todo:
        directory, prefix = todo.pop()
        with os.scandir(directory) as entries:
            for entry in entries:
                name = entry.name
                if entry.is_dir(follow_symlinks=False):
                    if name != "__pycache__":
                        todo.append((entry.path, f"{prefix}.{name}"))
                elif name.endswith(".py"):
                    dotted = prefix if name == "__init__.py" else f"{prefix}.{name[:-3]}"
                    modules[dotted] = entry.path
    return modules


def _combined(hashes: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name in sorted(hashes):
        h.update(name.encode())
        h.update(b"\0")
        h.update(hashes[name].encode())
        h.update(b"\0")
    return h.hexdigest()


class Snapshot:
    """One read of the package: every module's path, bytes and hash.

    The walk, the reads and the hashes happen at construction; import
    edges, the package fingerprint and each closure's ``(hashes,
    fingerprint)`` are derived from the pinned bytes on first use and
    then kept, so nothing after construction touches the file system.
    Returned containers are shared — copy before mutating.
    """

    __slots__ = (
        "paths", "hashes", "pinned_at", "_sources", "_deps", "_graph",
        "_fingerprint", "_closures",
    )

    def __init__(self, root: str, package: str) -> None:
        #: ``{dotted name: source path}``, sorted by name.
        self.paths = dict(sorted(_walk(root, package).items()))
        self._sources = {
            name: Path(path).read_bytes() for name, path in self.paths.items()
        }
        #: ``{dotted name: sha256}`` for every module, sorted by name.
        self.hashes = {
            name: hashlib.sha256(source).hexdigest()
            for name, source in self._sources.items()
        }
        #: Wall-clock time (``time.time()``) the tree was read.
        self.pinned_at = time.time()
        self._deps: dict[str, frozenset[str]] = {}
        self._graph: dict[str, frozenset[str]] | None = None
        self._fingerprint: str | None = None
        self._closures: dict[str, tuple[dict[str, str], str]] = {}

    @property
    def fingerprint(self) -> str:
        """Whole-package fingerprint: SHA-256 over every module's (name,
        hash).  The fallback key material for results that map onto no
        registered experiment, and the tree digest spawn-pool workers
        report with their shards."""
        if self._fingerprint is None:
            self._fingerprint = _combined(self.hashes)
        return self._fingerprint

    def deps(self, module: str) -> frozenset[str]:
        """Direct intra-package imports of ``module``: its pinned source is
        parsed the first time they are asked for, and only then."""
        deps = self._deps.get(module)
        if deps is None:
            path = self.paths[module]
            is_package = os.path.basename(path) == "__init__.py"
            targets = _import_targets(
                self._sources[module], path, module, is_package
            )
            deps = self._deps[module] = frozenset(
                resolved
                for target in targets
                if (resolved := _resolve(target, self.paths)) is not None
                and resolved != module
            )
        return deps

    @property
    def graph(self) -> dict[str, frozenset[str]]:
        """Static intra-package import graph: ``{module: direct deps}``."""
        if self._graph is None:
            self._graph = {name: self.deps(name) for name in self.paths}
        return self._graph

    def closure(self, module: str) -> tuple[dict[str, str], str]:
        """``(closure hashes, fingerprint)`` of ``module``'s transitive
        closure (:func:`closure_hashes`, :func:`experiment_fingerprint`).

        Only the modules the walk reaches are parsed."""
        memo = self._closures.get(module)
        if memo is None:
            reach = _reach(module, self.paths, self.deps)
            members = {name: self.hashes[name] for name in sorted(reach)}
            memo = self._closures[module] = (members, _combined(members))
        return memo

    def experiment(self, experiment_id: str) -> tuple[dict[str, str], str]:
        """:meth:`closure` of the experiment's defining module."""
        from ..experiments import get_experiment

        return self.closure(get_experiment(experiment_id).source_module)


def _key(root: Path | None, package: str | None) -> tuple[str, str]:
    if root is None or package is None:
        root, package = package_root()
    return os.fspath(root), package


def snapshot(root: Path | None = None, package: str | None = None) -> Snapshot:
    """The process's pinned :class:`Snapshot` of the package.

    The first call reads the tree and pins it; every later call returns
    that same snapshot without touching the file system, so an on-disk
    edit, addition or removal is seen only after :func:`repin` (or by a
    new process).
    """
    key = _key(root, package)
    snap = _SNAPSHOTS.get(key)
    if snap is None:
        with _PIN_LOCK:
            snap = _SNAPSHOTS.get(key)
            if snap is None:
                snap = _SNAPSHOTS[key] = Snapshot(*key)
    return snap


def repin(root: Path | None = None, package: str | None = None) -> Snapshot:
    """Re-read the tree and pin the fresh :class:`Snapshot` in place of
    the old one.

    For tests and tools that edit a tree on purpose; a running product
    process never re-pins, because it keeps running the code it imported.
    """
    key = _key(root, package)
    snap = Snapshot(*key)
    with _PIN_LOCK:
        _SNAPSHOTS[key] = snap
    return snap


# ------------------------------------------------------------ import graph
def _import_targets(
    source: bytes, path: str, module: str, is_package: bool
) -> tuple[str, ...]:
    """Raw absolute dotted names ``module``'s ``source`` imports.

    Relative imports are resolved against the module's package per the
    language rules (level 1 = own package, each further level one package
    up).  ``from BASE import NAME`` contributes ``BASE.NAME`` — when
    ``NAME`` is a submodule, longest-prefix resolution lands on it; when
    it is an attribute, resolution falls back onto ``BASE`` (whose source
    defines the attribute).  The bare ``BASE`` is recorded only for
    ``import *`` (the names live in ``BASE``'s own namespace); adding it
    unconditionally would make every ``from . import sibling`` depend on
    the package ``__init__`` and collapse the granularity.
    """
    tree = ast.parse(source, filename=path)
    targets: set[str] = set()
    for node in _import_statements(tree):
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
                    continue  # beyond the package root: unimportable
                if drop:
                    parts = parts[: len(parts) - drop]
                base = ".".join(parts)
                if node.module:
                    base = f"{base}.{node.module}"
            if not base:
                continue
            for alias in node.names:
                if alias.name == "*":
                    targets.add(base)
                else:
                    targets.add(f"{base}.{alias.name}")
    return tuple(sorted(targets))


def _import_statements(tree: ast.Module):
    """Every ``import``/``from ... import`` statement in ``tree``.

    Imports are statements, so only statement lists are walked (the
    bodies, ``else``/``finally`` blocks, ``except`` handlers and ``match``
    cases of compound statements, at any depth, function and class
    bodies included); expressions are never entered.
    """
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
            continue
        for block in ("body", "orelse", "finalbody"):
            todo.extend(getattr(node, block, ()))
        for clauses in ("handlers", "cases"):
            for clause in getattr(node, clauses, ()):
                todo.extend(clause.body)


def _resolve(target: str, modules: dict) -> str | None:
    """Deepest existing package module named by a dotted import target."""
    parts = target.split(".")
    while parts:
        candidate = ".".join(parts)
        if candidate in modules:
            return candidate
        parts.pop()
    return None


def _reach(module: str, known, deps) -> frozenset[str]:
    """Every module reachable from ``module`` over ``deps(name)``;
    ``known`` holds every module name of the package."""
    if module not in known:
        raise ConfigurationError(
            f"module {module!r} is not part of the fingerprinted package"
        )
    seen = {module}
    frontier = [module]
    while frontier:
        fresh = deps(frontier.pop()) - seen
        seen |= fresh
        frontier.extend(fresh)
    return frozenset(seen)


# ------------------------------------------------- experiment fingerprints
def closure_hashes(
    experiment_id: str,
    *,
    root: Path | None = None,
    package: str | None = None,
) -> dict[str, str]:
    """``{module: hash}`` for every module in the experiment's closure.

    The raw material of :func:`experiment_fingerprint`, stored in cache
    entries so a later drift report can name the exact modules whose
    edits invalidated a cell (:func:`fingerprint_delta`).
    """
    return dict(snapshot(root, package).experiment(experiment_id)[0])


def experiment_fingerprint(
    experiment_id: str,
    *,
    root: Path | None = None,
    package: str | None = None,
) -> str:
    """SHA-256 over exactly the modules the experiment's code can reach.

    An edit to a module outside the closure leaves this fingerprint — and
    therefore every cache key derived from it — unchanged; an edit to any
    module inside it (however transitively imported) changes it.
    """
    return snapshot(root, package).experiment(experiment_id)[1]


def fingerprint_delta(old: dict[str, str], new: dict[str, str]) -> tuple[str, ...]:
    """Modules whose hashes differ between two closure snapshots.

    Sorted union of changed, added and removed module names — the
    "responsible modules" line of the farm's drift report.
    """
    return tuple(sorted(
        name
        for name in set(old) | set(new)
        if old.get(name) != new.get(name)
    ))
