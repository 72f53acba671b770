"""Module-granular code fingerprints over the static import graph.

The result cache keys every experiment invocation on a *code fingerprint*
so edited code can never serve stale results.  Hashing the whole package
(the pre-farm behaviour) makes that guard maximally blunt: touching a
docstring in ``experiments/_gnn.py`` invalidated ``fig1``'s key even
though ``fig1`` never imports a line of GNN code, and iterating on one
experiment forced cold re-runs of every other.  This module provides the
granular alternative:

* :func:`module_hashes` — one SHA-256 per ``*.py`` file of the package;
* :func:`import_graph` — the static intra-package import graph, extracted
  with :mod:`ast` (both ``import a.b`` and ``from .x import y`` forms,
  any nesting depth, function-local imports included);
* :func:`transitive_closure` — the set of package modules one module can
  reach (cycle-safe breadth-first walk);
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

Cost
----
Every public entry point starts with one ``os.scandir`` walk of the
package that stats each ``*.py`` file: the walk's ``{module: (path,
(mtime_ns, size))}`` map is the package's *signature*.  While the
signature equals the previous walk's, everything derived from it — module
hashes, import edges, each closure's hashes and fingerprint — is served
from one in-process :class:`Snapshot`, so a warm ``cache_key`` costs that
stat walk plus dictionary lookups.  A cold closure is built lazily: the
walk parses a module only when it reaches it, so a process that keys a
few experiments reads and parses only the modules their closures hold
(about a third of the package for the lightest cells), and only the full
:func:`import_graph` or :func:`package_fingerprint` touches every file.
The parse extracts imports by walking statement lists alone (imports are
always statements), never the expressions inside them.  Any edit,
addition or removal changes the signature, and the very next call
rebuilds the snapshot through per-file memos keyed on ``(path, mtime_ns,
size)``: only the files whose signature moved are re-read and re-parsed.
"""

from __future__ import annotations

import ast
import functools
import hashlib
import os
from pathlib import Path

from ..errors import ConfigurationError

__all__ = [
    "package_root",
    "Snapshot",
    "snapshot",
    "module_hashes",
    "package_fingerprint",
    "import_graph",
    "transitive_closure",
    "experiment_fingerprint",
    "closure_hashes",
    "fingerprint_delta",
    "invalidate_memo",
]

#: ``(mtime_ns, size)`` of one source file.
_Sig = tuple[int, int]


@functools.cache
def package_root() -> tuple[Path, str]:
    """``(directory, package name)`` of the fingerprinted package.

    Module-level so tests can monkeypatch it at a copied tree and exercise
    real edits without touching the installed sources.  Resolved once per
    process: the package does not move while it is imported.
    """
    import repro

    return Path(repro.__file__).resolve().parent, "repro"


# ------------------------------------------------------------------ memos
#: path -> ((mtime_ns, size), sha256 hexdigest)
_HASH_MEMO: dict[str, tuple[_Sig, str]] = {}
#: path -> ((mtime_ns, size), raw dotted import targets)
_IMPORT_MEMO: dict[str, tuple[_Sig, tuple[str, ...]]] = {}
#: (root, package) -> the snapshot of the last walk
_SNAPSHOTS: dict[tuple[str, str], "Snapshot"] = {}


def invalidate_memo() -> None:
    """Drop every per-module memo and snapshot (tests; never needed in
    production — the ``(mtime_ns, size)`` signature self-invalidates on
    edits)."""
    _HASH_MEMO.clear()
    _IMPORT_MEMO.clear()
    _SNAPSHOTS.clear()


def _walk(root: str, package: str) -> dict[str, tuple[str, _Sig]]:
    """``{dotted module name: (path, (mtime_ns, size))}`` for every
    ``*.py`` under ``root``: one ``scandir`` pass, one ``stat`` per file.

    ``__init__.py`` maps onto its package's dotted name, so ``repro.ops``
    names ``repro/ops/__init__.py``.  ``__pycache__`` holds no sources and
    is skipped; symlinked directories are not followed.
    """
    modules: dict[str, tuple[str, _Sig]] = {}
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
                    st = entry.stat()
                    dotted = prefix if name == "__init__.py" else f"{prefix}.{name[:-3]}"
                    modules[dotted] = (entry.path, (st.st_mtime_ns, st.st_size))
    return modules


def _hash_file(path: str, sig: _Sig) -> str:
    """Content hash of one source file, memoized on its signature."""
    memo = _HASH_MEMO.get(path)
    if memo is not None and memo[0] == sig:
        return memo[1]
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    _HASH_MEMO[path] = (sig, digest)
    return digest


def _combined(hashes: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name in sorted(hashes):
        h.update(name.encode())
        h.update(b"\0")
        h.update(hashes[name].encode())
        h.update(b"\0")
    return h.hexdigest()


class Snapshot:
    """Everything derived from one package signature.

    :attr:`signature` is the walk that built it; every other value is
    computed on first use and then kept, so callers that find the
    signature unchanged (:func:`snapshot`) pay no hashing, parsing or
    graph work.  Returned containers are shared — copy before mutating.
    """

    __slots__ = (
        "signature", "_hashes", "_deps", "_graph", "_fingerprint", "_closures"
    )

    def __init__(self, signature: dict[str, tuple[str, _Sig]]) -> None:
        self.signature = signature
        self._hashes: dict[str, str] | None = None
        self._deps: dict[str, frozenset[str]] = {}
        self._graph: dict[str, frozenset[str]] | None = None
        self._fingerprint: str | None = None
        self._closures: dict[str, tuple[dict[str, str], str]] = {}

    @property
    def hashes(self) -> dict[str, str]:
        """``{dotted name: sha256}`` for every module, sorted by name."""
        if self._hashes is None:
            self._hashes = {
                name: _hash_file(path, sig)
                for name, (path, sig) in sorted(self.signature.items())
            }
        return self._hashes

    @property
    def fingerprint(self) -> str:
        """Whole-package fingerprint (:func:`package_fingerprint`)."""
        if self._fingerprint is None:
            self._fingerprint = _combined(self.hashes)
        return self._fingerprint

    def deps(self, module: str) -> frozenset[str]:
        """Direct intra-package imports of ``module``: its source is parsed
        the first time they are asked for, and only then."""
        deps = self._deps.get(module)
        if deps is None:
            modules = self.signature
            path, sig = modules[module]
            is_package = os.path.basename(path) == "__init__.py"
            deps = self._deps[module] = frozenset(
                resolved
                for target in _import_targets(path, sig, module, is_package)
                if (resolved := _resolve(target, modules)) is not None
                and resolved != module
            )
        return deps

    @property
    def graph(self) -> dict[str, frozenset[str]]:
        """Static intra-package import graph (:func:`import_graph`)."""
        if self._graph is None:
            self._graph = {name: self.deps(name) for name in sorted(self.signature)}
        return self._graph

    def closure(self, module: str) -> tuple[dict[str, str], str]:
        """``(closure hashes, fingerprint)`` of ``module``'s transitive
        closure (:func:`closure_hashes`, :func:`experiment_fingerprint`).

        Only the modules the walk reaches are parsed and hashed."""
        memo = self._closures.get(module)
        if memo is None:
            reach = _reach(module, self.signature, self.deps)
            members = {
                name: _hash_file(*self.signature[name]) for name in sorted(reach)
            }
            memo = self._closures[module] = (members, _combined(members))
        return memo

    def experiment(self, experiment_id: str) -> tuple[dict[str, str], str]:
        """:meth:`closure` of the experiment's defining module."""
        from ..experiments import get_experiment

        return self.closure(get_experiment(experiment_id).source_module)


def snapshot(root: Path | None = None, package: str | None = None) -> Snapshot:
    """The package's current :class:`Snapshot`.

    Walks the package once; the previous snapshot is reused when the walk
    reports the same signature and replaced otherwise, so an on-disk edit,
    addition or removal is seen by the very next call.
    """
    if root is None or package is None:
        root, package = package_root()
    key = (os.fspath(root), package)
    signature = _walk(*key)
    snap = _SNAPSHOTS.get(key)
    if snap is None or snap.signature != signature:
        snap = _SNAPSHOTS[key] = Snapshot(signature)
    return snap


def module_hashes(root: Path | None = None, package: str | None = None) -> dict[str, str]:
    """Per-module content hashes, ``{dotted name: sha256}``."""
    return dict(snapshot(root, package).hashes)


def package_fingerprint(root: Path | None = None, package: str | None = None) -> str:
    """Whole-package fingerprint: SHA-256 over every module's (name, hash).

    The coarse fallback :func:`repro.harness.results.code_fingerprint`
    serves for results that map onto no registered experiment.
    """
    return snapshot(root, package).fingerprint


# ------------------------------------------------------------ import graph
def _import_targets(
    path: str, sig: _Sig, module: str, is_package: bool
) -> tuple[str, ...]:
    """Raw absolute dotted names ``module``'s source imports (memoized).

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
    memo = _IMPORT_MEMO.get(path)
    if memo is not None and memo[0] == sig:
        return memo[1]
    tree = ast.parse(Path(path).read_bytes(), filename=path)
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
    out = tuple(sorted(targets))
    _IMPORT_MEMO[path] = (sig, out)
    return out


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


def import_graph(
    root: Path | None = None, package: str | None = None
) -> dict[str, frozenset[str]]:
    """Static intra-package import graph: ``{module: direct deps}``."""
    return dict(snapshot(root, package).graph)


def transitive_closure(
    module: str,
    graph: dict[str, frozenset[str]] | None = None,
    *,
    root: Path | None = None,
    package: str | None = None,
) -> frozenset[str]:
    """Every package module ``module`` can reach (itself included).

    Walks ``graph``, or without one the current snapshot's import edges,
    parsing only the modules reached; the seen-set makes import cycles
    (``a <-> b``) terminate with both members in both closures.
    """
    if graph is None:
        snap = snapshot(root, package)
        return _reach(module, snap.signature, snap.deps)
    return _reach(module, graph, graph.__getitem__)


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
