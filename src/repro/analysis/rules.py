"""The amlint rule catalog: repo-specific invariants as AST checks.

Every rule encodes one invariant that earlier PRs established by
convention and DESIGN.md records in prose — here they become machine
checks that run on every commit.  Rules are scoped to the subsystems
whose contract they guard; see DESIGN.md §10 for the full catalog with
rationale and examples.

================  ========  =====================================================
ID                severity  invariant
================  ========  =====================================================
``REP101``        error     no wall-clock reads in build/query/geometry code
``REP102``        error     RNG construction must thread an explicit seed
``REP104``        error     mutation paths write pages through the WAL
                            wrapper, never the raw page file beneath it
``REP201``        error     fork workers must reopen file-backed stores
``REP202``        error     fork workers must be module-level; no live handles
                            captured into fork state
``REP203``        error     serving daemon worker entrypoints reopen
                            file-backed stores after the fork
``REP205``        error     no parent-only handle acquisition (socketpair,
                            Process, shm create, os.fork) reachable from a
                            fork worker through the module call graph
``REP301``        error     no bare/broad ``except`` that swallows in
                            ``storage/`` and ``gist/``
``REP302``        error     storage paths raise ``StorageError`` subclasses,
                            never raw ``KeyError``/``OSError``/``struct.error``
``REP401``        error     no byte copies (``.tobytes()``, ``bytes(view)``,
                            ``copy=True``) in the serving read path
``REP402``        warning   ``.copy()`` in a decode path (scalar-compat copies)
``REP403``        warning   eager full-page dequantization (``.astype("f8")``
                            on decoded blocks) in query hot paths
``REP501``        error     page-file protocol implementers define every
                            protocol method with a matching signature
``REP601``        error     raw fds (``os.open``/``os.pipe``) and socketpair
                            sockets reach close on every CFG path
``REP602``        error     owning ``SharedMemory`` segments reach ``unlink``
                            (not just close), mmaps reach close, on every path
``REP603``        error     forked ``Process`` handles reach join/terminate
                            on every path
``REP701``        error     WAL protocol ordering: images logged before
                            applied, data file fsynced before log reset
================  ========  =====================================================

The REP6xx family, REP701 and REP205 run on the CFG/dataflow engine
(:mod:`repro.analysis.cfg` / :mod:`repro.analysis.dataflow`) rather
than per-node matching; see DESIGN.md §15 for the lattice and call
graph construction.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.amlint import ERROR, WARNING, Finding, ModuleSource
from repro.analysis.cfg import CFG, build_cfg, iter_functions
from repro.analysis.dataflow import (CallGraph, ForwardAnalysis,
                                     ResourceSpec, call_name, calls_at,
                                     find_leaks, name_matches)

#: packages whose structure must be a pure function of (data, seed).
_DETERMINISM_SCOPE = ("bulk/", "gist/", "geometry/")
#: files hosting fork-parallel worker plumbing.
_FORK_SCOPE = ("bulk/loader.py",)
#: the zero-copy serving hot path.
_SERVING_SCOPE = ("blobworld/query.py", "storage/diskfile.py",
                  "storage/codecs.py")


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for an attribute chain rooted at a plain name."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    return None


def _normalized_call_name(node: ast.Call) -> Optional[str]:
    name = dotted_name(node.func)
    if name is None:
        return None
    if name == "numpy" or name.startswith("numpy."):
        name = "np" + name[len("numpy"):]
    return name


class Rule:
    """One lintable invariant: ID, severity, scope, and a check hook."""

    id: str = "REP999"
    severity: str = ERROR
    title: str = ""
    #: package-relative path prefixes (or exact files) the rule covers;
    #: empty means every linted file.
    scopes: Tuple[str, ...] = ()
    #: True for rules that need the whole module set at once.
    project: bool = False

    def applies_to(self, relpath: str) -> bool:
        if not self.scopes:
            return True
        return any(relpath == scope or relpath.startswith(scope)
                   for scope in self.scopes)

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        raise NotImplementedError

    def check_project(self,
                      modules: Sequence[ModuleSource]) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleSource, node: ast.AST, message: str,
                severity: Optional[str] = None) -> Finding:
        return Finding(self.id, severity or self.severity, module.path,
                       getattr(node, "lineno", 0),
                       getattr(node, "col_offset", 0), message)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

class WallClockRule(Rule):
    """REP101: builds and searches must not read the wall clock.

    Parallel builds are byte-identical to sequential ones only because
    nothing in ``bulk/``, ``gist/``, or ``geometry/`` depends on *when*
    it ran.  ``time.perf_counter``/``time.monotonic`` stay legal — they
    feed profiling counters, never data — but calendar time does not.
    """

    id = "REP101"
    title = "no wall-clock reads in deterministic code"
    scopes = _DETERMINISM_SCOPE

    _BANNED = frozenset({
        "time.time", "time.time_ns", "time.localtime", "time.gmtime",
        "datetime.now", "datetime.utcnow", "datetime.today",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "date.today", "datetime.date.today",
    })

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _normalized_call_name(node)
            if name in self._BANNED:
                yield self.finding(
                    module, node,
                    f"wall-clock call {name}() in deterministic code; "
                    f"build and search results must be a pure function "
                    f"of (data, seed)")


class SeededRngRule(Rule):
    """REP102: every RNG must be constructed with an explicit seed.

    The parallel bulk loader keys randomness to ``(level, index)`` so
    any sharding of the work produces identical bytes; a module-level
    ``random.*`` / ``np.random.*`` call (hidden global state) or an
    unseeded generator breaks that contract silently.
    """

    id = "REP102"
    title = "RNG construction must thread an explicit seed"
    scopes = _DETERMINISM_SCOPE

    _CONSTRUCTORS = frozenset({
        "random.Random", "np.random.default_rng", "np.random.RandomState",
        "np.random.Generator", "np.random.SeedSequence",
    })

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _normalized_call_name(node)
            if name is None:
                continue
            if name in self._CONSTRUCTORS:
                if not node.args and not node.keywords:
                    yield self.finding(
                        module, node,
                        f"{name}() constructed without an explicit "
                        f"seed; parallel builds key RNGs to "
                        f"(level, index)")
            elif name.startswith("np.random.") or \
                    (name.startswith("random.") and name.count(".") == 1):
                yield self.finding(
                    module, node,
                    f"module-level RNG call {name}() uses hidden "
                    f"global state; construct a seeded generator and "
                    f"thread it explicitly")


# ---------------------------------------------------------------------------
# write-ahead logging discipline
# ---------------------------------------------------------------------------

class UnloggedWriteRule(Rule):
    """REP104: mutation paths must write through the WAL wrapper.

    Crash safety rests on every page image reaching the log (and its
    fsync) *before* the data file.  In the mutation-path files, a call
    to ``_write_raw`` — or to ``write``/``write_many``/``free`` on a
    receiver that reaches beneath the WAL wrapper (``.base``,
    ``.pagefile``, ``.inner``, ``._file``) — bypasses that ordering.
    The WAL's own machinery is exempt by construction: its append,
    apply, tear-injection, recovery, and checkpoint functions are
    exactly the places allowed to touch raw slots.
    """

    id = "REP104"
    title = "mutation paths must write through the WAL wrapper"
    scopes = ("gist/tree.py", "gist/mutable.py", "storage/wal.py")

    #: receiver-chain segments that reach beneath the WAL wrapper.
    _BYPASS_SEGMENTS = frozenset({"base", "pagefile", "inner", "_file"})
    _WRITERS = frozenset({"write", "write_many", "free"})
    #: enclosing-function name prefixes (underscores stripped) that ARE
    #: the logging/redo machinery and may touch raw slots.
    _EXEMPT_PREFIXES = ("apply", "tear", "write_partial", "append",
                        "recover", "replay", "checkpoint", "reset",
                        "sync", "flush", "close")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        visitor = _FunctionStackVisitor()
        visitor.visit(module.tree)
        for node, stack in visitor.calls:
            if any(name.lstrip("_").startswith(self._EXEMPT_PREFIXES)
                   for name in stack):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr == "_write_raw":
                yield self.finding(
                    module, node,
                    "_write_raw() in a mutation path bypasses the "
                    "write-ahead log; stage the page through the "
                    "WALPageFile overlay instead")
            elif func.attr in self._WRITERS:
                chain = (dotted_name(func.value) or "").split(".")
                if self._BYPASS_SEGMENTS & set(chain):
                    yield self.finding(
                        module, node,
                        f".{func.attr}() on {'.'.join(chain)} reaches "
                        f"beneath the WAL wrapper; unlogged page "
                        f"writes are lost on crash")


class _FunctionStackVisitor(ast.NodeVisitor):
    """Collects call sites with their enclosing-function name stack."""

    def __init__(self) -> None:
        self.stack: List[str] = []
        self.calls: List[Tuple[ast.Call, Tuple[str, ...]]] = []

    def _visit_func(self, node: ast.AST, name: str) -> None:
        self.stack.append(name)
        self.generic_visit(node)
        self.stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_func(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_func(node, node.name)

    def visit_Call(self, node: ast.Call) -> None:
        self.calls.append((node, tuple(self.stack)))
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# fork safety
# ---------------------------------------------------------------------------

def _fork_entrypoints(tree: ast.Module) -> Set[str]:
    """Functions that run on the child side of a fork: module-level
    ``_worker*`` defs plus any module-level def handed to a
    ``Process(target=...)`` constructor anywhere in the module."""
    defs = {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    entries = {name for name in defs if name.startswith("_worker")}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if not (dotted_name(node.func) or "").endswith("Process"):
            continue
        for kw in node.keywords:
            if kw.arg != "target":
                continue
            target = (dotted_name(kw.value) or "").split(".")[-1]
            if target in defs:
                entries.add(target)
    return entries


def _reaches_reopen(graph: CallGraph, entry: str) -> bool:
    """Does any function reachable from ``entry`` call a reopen helper?
    Matched by suffix so module-level aliases (``_reopen_files =
    reopen_files``) count the way they always have."""
    return any(name.endswith("reopen_files")
               for name in graph.reachable_calls(entry))


def _own_calls(func: ast.AST) -> List[ast.Call]:
    """Call sites lexically inside ``func``, excluding nested defs
    (those are their own call-graph nodes)."""
    calls: List[ast.Call] = []

    class _V(ast.NodeVisitor):
        def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
            if node is not func:
                return
            self.generic_visit(node)

        visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

        def visit_Call(self, node: ast.Call) -> None:
            calls.append(node)
            self.generic_visit(node)

    _V().visit(func)
    return calls


class ForkReopenRule(Rule):
    """REP201: forked workers must reopen file-backed stores.

    A forked child inherits the parent's file descriptions — and their
    *shared offsets*.  Every ``_worker_*`` function in the fork-parallel
    files must reach a ``storage/fork.py`` reopen helper before touching
    a store (conditionally is fine: workers that only read inherited
    copy-on-write memory guard the call).  Reaching it through a helper
    counts: the check walks the module call graph from the worker, not
    just the worker's own body, so factoring the reopen into a setup
    function neither hides a violation nor manufactures one.
    """

    id = "REP201"
    title = "fork workers must reopen file-backed stores"
    scopes = _FORK_SCOPE

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        graph = CallGraph.build(module.tree)
        for node in module.tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not node.name.startswith("_worker"):
                continue
            if _reaches_reopen(graph, node.name):
                continue
            yield self.finding(
                module, node,
                f"fork worker {node.name}() never calls a "
                f"reopen_files helper (directly or through any function "
                f"it can reach); inherited descriptors share their file "
                f"offset across workers")


class ForkCaptureRule(Rule):
    """REP202: fork workers are module-level; no handles in fork state.

    Work crosses the fork boundary through a module-global state dict
    plus a module-level worker function.  A lambda/closure handed to
    ``pool.map`` can smuggle live mmaps or file objects past review, as
    can opening a handle directly inside the fork-state assignment.
    """

    id = "REP202"
    title = "no handle capture into fork workers"
    scopes = _FORK_SCOPE

    _POOL_METHODS = (".map", ".imap", ".imap_unordered", ".starmap",
                     ".apply", ".apply_async", ".map_async")
    _HANDLE_CALLS = frozenset({"open", "mmap.mmap"})

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func) or ""
                if any(name.endswith(m) for m in self._POOL_METHODS):
                    for arg in list(node.args) + \
                            [kw.value for kw in node.keywords]:
                        if isinstance(arg, ast.Lambda):
                            yield self.finding(
                                module, arg,
                                "fork worker passed to pool as a "
                                "lambda; workers must be module-level "
                                "functions taking state from the fork "
                                "dict")
            elif isinstance(node, ast.Assign):
                targets = [dotted_name(t) for t in node.targets
                           if isinstance(t, (ast.Name, ast.Attribute))]
                if "_FORK_STATE" not in targets:
                    continue
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Call) and \
                            (dotted_name(sub.func) or "") \
                            in self._HANDLE_CALLS:
                        yield self.finding(
                            module, sub,
                            "fork state captures a live OS handle; "
                            "workers must reopen by path via the "
                            "storage.fork helpers")


class DaemonReopenRule(Rule):
    """REP203: daemon worker entrypoints reopen stores after the fork.

    The serving daemon forks long-lived workers that keep reading their
    shard's page file for the life of the process — a shared inherited
    file offset there is not a transient race but a permanent
    corruption source under concurrent queries.  Any function in
    ``serving/`` that runs on the child side of the fork — named
    ``_worker*`` by the repo convention, or handed to a
    ``Process(target=...)`` constructor defined in the same module —
    must reach a ``reopen_files`` helper before serving, where "reach"
    is real call-graph reachability: the reopen may live in any helper
    the entrypoint calls into.
    """

    id = "REP203"
    title = "daemon workers must reopen stores post-fork"
    scopes = ("serving/",)

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        graph = CallGraph.build(module.tree)
        defs = {node.name: node for node in module.tree.body
                if isinstance(node,
                              (ast.FunctionDef, ast.AsyncFunctionDef))}
        for name in sorted(_fork_entrypoints(module.tree)):
            func = defs[name]
            if _reaches_reopen(graph, name):
                continue
            yield self.finding(
                module, func,
                f"daemon worker {name}() never calls a "
                f"reopen_files helper (directly or through any function "
                f"it can reach); a long-lived forked worker sharing the "
                f"parent's file offset corrupts concurrent page reads")


class ForkReachabilityRule(Rule):
    """REP205: no parent-only acquisition reachable from a fork worker.

    The name-heuristic rules (REP201/REP203) ask whether a worker
    reopens what it inherited; this rule asks the dual question with
    the same call graph: can a worker *reach* code that acquires a
    parent-side handle?  A forked child that creates its own
    ``socketpair``, forks again, constructs a ``Process``, or creates a
    shm segment is almost always a refactor accident — those
    acquisitions belong to the coordinator, and a child-side copy
    leaks a kernel object per request or double-forks the daemon.
    ``SharedMemory(create=False)`` attaches — that is exactly what a
    worker *should* do — so only creating acquisitions count.
    """

    id = "REP205"
    title = "no parent-only handle acquisition reachable from fork workers"
    scopes = ("serving/", "bulk/", "workload/")

    def _parent_only(self, call: ast.Call) -> Optional[str]:
        dotted = call_name(call)
        if name_matches(dotted, ("socketpair",)):
            return "socketpair()"
        if dotted == "os.fork":
            return "os.fork()"
        if name_matches(dotted, ("Process",)):
            return "Process construction"
        if name_matches(dotted, ("SharedMemory",)):
            for kw in call.keywords:
                if kw.arg == "create" and \
                        isinstance(kw.value, ast.Constant) and \
                        kw.value.value is True:
                    return "SharedMemory(create=True)"
        return None

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        entries = _fork_entrypoints(module.tree)
        if not entries:
            return
        graph = CallGraph.build(module.tree)
        reached_by: Dict[str, Set[str]] = {}
        for entry in sorted(entries):
            for name in graph.reachable([entry]):
                reached_by.setdefault(name, set()).add(entry)
        for name in sorted(reached_by):
            for func in graph.defs.get(name, []):
                for call in _own_calls(func):
                    what = self._parent_only(call)
                    if what is None:
                        continue
                    entries_str = ", ".join(
                        f"{e}()" for e in sorted(reached_by[name]))
                    yield self.finding(
                        module, call,
                        f"{what} in {name}() is reachable from fork "
                        f"entrypoint {entries_str}; parent-only handle "
                        f"acquisitions must stay on the coordinator "
                        f"side of the fork")


# ---------------------------------------------------------------------------
# exception discipline
# ---------------------------------------------------------------------------

class BroadExceptRule(Rule):
    """REP301: no swallowed broad excepts in ``storage/`` and ``gist/``.

    The typed ``StorageError`` hierarchy exists so callers can tell
    "never written" from "written and damaged".  A bare ``except:`` is
    always an error; ``except Exception``/``BaseException`` is an error
    unless the handler re-raises unchanged (a bare ``raise``), which
    keeps cleanup-then-propagate legal.
    """

    id = "REP301"
    title = "no swallowed broad excepts in storage paths"
    scopes = ("storage/", "gist/")

    @staticmethod
    def _names(node: Optional[ast.expr]) -> List[str]:
        if node is None:
            return []
        if isinstance(node, ast.Tuple):
            return [dotted_name(e) or "" for e in node.elts]
        return [dotted_name(node) or ""]

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module, node,
                    "bare 'except:' swallows everything including "
                    "KeyboardInterrupt; catch a StorageError subclass")
                continue
            broad = [n for n in self._names(node.type)
                     if n in ("Exception", "BaseException")]
            if not broad:
                continue
            reraises = any(isinstance(sub, ast.Raise) and sub.exc is None
                           for sub in ast.walk(node))
            if not reraises:
                yield self.finding(
                    module, node,
                    f"'except {broad[0]}' swallows typed storage "
                    f"failures; catch a StorageError subclass (or "
                    f"re-raise unchanged)")


class TypedRaiseRule(Rule):
    """REP302: storage paths raise ``StorageError`` subclasses.

    Raising raw ``KeyError``/``OSError``/``struct.error`` reintroduces
    exactly the duck-typed failures PR 1 eliminated.  ``ValueError`` /
    ``TypeError`` for argument validation stay legal: those are
    programming errors, not storage outcomes.
    """

    id = "REP302"
    title = "storage failures must be StorageError subclasses"
    scopes = ("storage/",)

    _BANNED = frozenset({
        "KeyError", "OSError", "IOError", "EOFError", "PermissionError",
        "FileNotFoundError", "InterruptedError", "struct.error",
        "json.JSONDecodeError",
    })

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name = dotted_name(exc.func) if isinstance(exc, ast.Call) \
                else dotted_name(exc)
            if name in self._BANNED:
                yield self.finding(
                    module, node,
                    f"storage path raises raw {name}; use a "
                    f"StorageError subclass (PageMissingError / "
                    f"PageCorruptError / TransientIOError)")


# ---------------------------------------------------------------------------
# zero-copy discipline
# ---------------------------------------------------------------------------

def _is_decode_path(name: str) -> bool:
    return name.lstrip("_").startswith(("decode", "read", "verify"))


def _is_query_hot_path(name: str) -> bool:
    """Functions on the query/serving hot path (REP403's scope)."""
    return name.lstrip("_").startswith(
        ("decode", "read", "knn", "search", "query", "expand", "serve",
         "am_query", "nn_", "plan"))


class _ServingVisitor(ast.NodeVisitor):
    """Tracks the enclosing function-name stack for the serving rules.

    ``is_hot`` classifies enclosing function names; call sites are
    collected with a flag saying whether any enclosing function
    matched (decode paths by default).
    """

    def __init__(self, is_hot=_is_decode_path) -> None:
        self._is_hot = is_hot
        self.stack: List[str] = []
        #: (node, in_decode_path) call sites, collected in source order.
        self.calls: List[Tuple[ast.Call, bool]] = []

    def _visit_func(self, node: ast.AST, name: str) -> None:
        self.stack.append(name)
        self.generic_visit(node)
        self.stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_func(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_func(node, node.name)

    def visit_Call(self, node: ast.Call) -> None:
        in_decode = any(self._is_hot(name) for name in self.stack)
        self.calls.append((node, in_decode))
        self.generic_visit(node)


class ZeroCopyRule(Rule):
    """REP401: no byte copies on the serving read path.

    PR 4's mmap serving layer keeps pages as ``memoryview`` slices from
    the map to the decoded node arrays.  Inside decode/read/verify
    functions of the hot-path files, materializing bytes —
    ``.tobytes()``, ``bytes(view)``, ``np.array(..., copy=True)`` —
    silently reintroduces the copy the layer exists to avoid.  Encode
    and write paths are exempt: sealing a page *must* materialize it.
    """

    id = "REP401"
    title = "no byte copies in the serving read path"
    scopes = _SERVING_SCOPE

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        visitor = _ServingVisitor()
        visitor.visit(module.tree)
        for node, in_decode in visitor.calls:
            func = node.func
            if in_decode and isinstance(func, ast.Attribute) \
                    and func.attr == "tobytes":
                yield self.finding(
                    module, node,
                    ".tobytes() materializes a copy in the read path; "
                    "serve memoryview slices instead")
            elif in_decode and isinstance(func, ast.Name) \
                    and func.id == "bytes" and len(node.args) == 1 \
                    and not node.keywords \
                    and not isinstance(node.args[0], ast.Constant):
                yield self.finding(
                    module, node,
                    "bytes(view) materializes a copy in the read "
                    "path; serve memoryview slices instead")
            else:
                name = _normalized_call_name(node)
                if name in ("np.array", "np.asarray"):
                    for kw in node.keywords:
                        if kw.arg == "copy" and \
                                isinstance(kw.value, ast.Constant) and \
                                kw.value.value is True:
                            yield self.finding(
                                module, node,
                                f"{name}(..., copy=True) in a "
                                f"zero-copy hot-path file; decode "
                                f"into views")


class CopyInDecodeRule(Rule):
    """REP402 (warning): ``.copy()`` inside a decode path.

    The scalar-compat decode paths copy entry arrays out of page
    buffers; that is deliberate (legacy per-entry decode) but worth a
    flag so new hot-path code reaches for ``decode_block`` views first.
    """

    id = "REP402"
    severity = WARNING
    title = "array copy in a decode path"
    scopes = _SERVING_SCOPE

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        visitor = _ServingVisitor()
        visitor.visit(module.tree)
        for node, in_decode in visitor.calls:
            if in_decode and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "copy":
                yield self.finding(
                    module, node,
                    ".copy() in a decode path keeps the scalar-compat "
                    "copy alive; the zero-copy path is decode_block")


#: dtype spellings that mean "materialize the whole block as float64".
_F8_NAMES = {"f8", "<f8", "float64", "double", "float"}


def _astype_f8(node: ast.Call) -> bool:
    """Is this call ``something.astype(<a float64 spelling>)``?"""
    if not (isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype"):
        return False
    args = list(node.args)
    for kw in node.keywords:
        if kw.arg == "dtype":
            args.append(kw.value)
    for arg in args:
        if isinstance(arg, ast.Constant) and arg.value in _F8_NAMES:
            return True
        name = dotted_name(arg)
        if name in ("float", "np.float64", "np.double",
                    "numpy.float64", "numpy.double"):
            return True
    return False


class EagerDequantizeRule(Rule):
    """REP403 (warning): eager full-page dequantization in a hot path.

    Quantized (sq8) leaf pages decode to
    :class:`~repro.storage.codecs.QuantizedKeys` views; the k-NN
    kernels prune whole pages on admissible cell bounds and let
    ``Node.keys_array()`` materialize floats only for pages that
    survive.  An ``.astype("f8")`` / ``.astype(np.float64)`` over a
    decoded block inside a query hot path dequantizes every entry up
    front — exactly the work the lazy layout exists to avoid.  Cold
    paths (corpus construction, feature extraction, encode) are not
    covered.
    """

    id = "REP403"
    severity = WARNING
    title = "eager dequantization in a query hot path"
    scopes = ("gist/", "blobworld/")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        visitor = _ServingVisitor(_is_query_hot_path)
        visitor.visit(module.tree)
        for node, in_hot in visitor.calls:
            if in_hot and _astype_f8(node):
                yield self.finding(
                    module, node,
                    ".astype(float64) dequantizes a whole block in a "
                    "query hot path; prune on cell bounds and let "
                    "keys_array() materialize survivors lazily")


# ---------------------------------------------------------------------------
# protocol conformance
# ---------------------------------------------------------------------------

class _Signature:
    """Positional shape of one method, compared structurally."""

    def __init__(self, args: ast.arguments) -> None:
        self.names = [a.arg for a in args.args[1:]]  # drop self
        self.defaults = len(args.defaults)
        self.vararg = args.vararg is not None

    @property
    def required(self) -> int:
        return len(self.names) - self.defaults

    def accepts(self, proto: "_Signature") -> Optional[str]:
        """None if this signature can take the protocol's calls, else why."""
        if proto.vararg:
            if not self.vararg and self.required > 0:
                return ("protocol method takes *args but implementation "
                        "requires fixed positional arguments")
            return None
        want = len(proto.names)
        if self.required > want:
            return (f"requires {self.required} positional arguments, "
                    f"protocol passes {want}")
        if not self.vararg and len(self.names) < want:
            return (f"accepts only {len(self.names)} positional "
                    f"arguments, protocol passes {want}")
        for mine, theirs in zip(self.names, proto.names):
            if mine != theirs:
                return (f"positional parameter {mine!r} does not match "
                        f"protocol's {theirs!r}")
        return None


class ProtocolConformanceRule(Rule):
    """REP501: page-file implementers match ``PageFileProtocol``.

    ``runtime_checkable`` protocols check method *presence* at runtime
    only — and only when somebody isinstance-checks.  This rule checks
    statically, at lint time: every class in ``storage/`` that offers
    the core trio (``read``/``write``/``allocate``) must define every
    protocol method, with positional signatures the protocol's call
    shape can satisfy.
    """

    id = "REP501"
    title = "page-file protocol conformance"
    project = True

    _CORE = frozenset({"read", "write", "allocate"})

    @staticmethod
    def _protocol_methods(modules: Sequence[ModuleSource]
                          ) -> Tuple[Dict[str, _Signature], Set[str]]:
        methods: Dict[str, _Signature] = {}
        protocol_names: Set[str] = set()
        for module in modules:
            if module.relpath != "storage/__init__.py":
                continue
            for node in module.tree.body:
                if not isinstance(node, ast.ClassDef):
                    continue
                bases = [dotted_name(b) or "" for b in node.bases]
                if not any(b.split(".")[-1] == "Protocol" for b in bases):
                    continue
                protocol_names.add(node.name)
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        methods[item.name] = _Signature(item.args)
        return methods, protocol_names

    def check_project(self,
                      modules: Sequence[ModuleSource]) -> Iterator[Finding]:
        protocol, protocol_names = self._protocol_methods(modules)
        if not protocol:
            return
        for module in modules:
            if not module.relpath.startswith("storage/"):
                continue
            for node in module.tree.body:
                if not isinstance(node, ast.ClassDef) \
                        or node.name in protocol_names:
                    continue
                defined: Dict[str, _Signature] = {
                    item.name: _Signature(item.args)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)}
                if not self._CORE <= set(defined):
                    continue
                for name, proto_sig in sorted(protocol.items()):
                    if name not in defined:
                        yield self.finding(
                            module, node,
                            f"class {node.name} implements the "
                            f"page-file protocol but lacks {name}()")
                        continue
                    why = defined[name].accepts(proto_sig)
                    if why is not None:
                        yield self.finding(
                            module, node,
                            f"{node.name}.{name}() signature "
                            f"mismatch: {why}")


# ---------------------------------------------------------------------------
# resource lifecycle (CFG/dataflow)
# ---------------------------------------------------------------------------

class _Loc:
    """A bare source location for findings not tied to one AST node."""

    def __init__(self, line: int, col: int = 0) -> None:
        self.lineno = line
        self.col_offset = col


def _path_phrase(path: str) -> str:
    return {"exit": "on a normal path",
            "raise_exit": "on an exception path",
            "exit+raise_exit": "on normal and exception paths"}.get(
                path, path)


class _ResourceLifecycleRule(Rule):
    """Shared machinery for the REP6xx family: run the resource-state
    lattice (:mod:`repro.analysis.dataflow`) over every function's CFG
    and report acquisitions that may reach an exit un-discharged.

    The analysis is escape-aware — a handle that is returned, stored
    into an object or container, or passed to another call transfers
    its release duty and is never reported — and exception-aware: the
    sanctioned ``BufferError`` teardown idiom (a ``close``/``unlink``
    that itself raises) counts as discharged on its own raise edge.
    """

    specs: Tuple[ResourceSpec, ...] = ()

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for func in iter_functions(module.tree):
            for leak in find_leaks(func, self.specs):
                res = leak.resource
                yield self.finding(
                    module, _Loc(res.line),
                    f"{res.kind} {res.var!r} acquired in {func.name}() "
                    f"may never reach {res.duty} "
                    f"({_path_phrase(leak.path)}); discharge it in a "
                    f"finally/except cleanup on every path")


#: os functions that read/write *through* a descriptor without taking
#: ownership of it — passing an fd to these is a use, not an escape.
_FD_USES = ("os.read", "os.write", "os.pread", "os.pwrite", "os.lseek",
            "os.fsync", "os.fstat", "os.ftruncate", "os.fdatasync")


class FdLifecycleRule(_ResourceLifecycleRule):
    """REP601: raw descriptors reach ``close`` on every CFG path.

    Tracks ``os.open`` / ``os.pipe`` descriptors and ``socketpair``
    pairs.  File *objects* from ``open()`` are deliberately out of
    scope — they own their descriptor and ``with`` handles them — the
    raw-fd APIs are the ones with nothing watching their back.
    """

    id = "REP601"
    title = "raw fds and socketpairs must reach close on every path"
    scopes = ("serving/", "storage/", "bulk/", "workload/")

    specs = (
        ResourceSpec(kind="fd", acquires=("os.open",), releases=(),
                     release_funcs=("os.close",), duty="os.close()",
                     use_funcs=_FD_USES),
        ResourceSpec(kind="pipe fd", acquires=("os.pipe",), releases=(),
                     release_funcs=("os.close",), arity=2,
                     duty="os.close()", use_funcs=_FD_USES),
        ResourceSpec(kind="socket", acquires=("socketpair",),
                     releases=("close",), arity=2, duty=".close()"),
    )


class SegmentLifecycleRule(_ResourceLifecycleRule):
    """REP602: shm segments and mmaps reach unlink/close on every path.

    A ``SharedMemory(create=True)`` segment is a *named kernel object*:
    a missed ``unlink`` outlives the process as a ``/dev/shm`` entry
    (the PR 9 leak class), so for owning acquisitions only ``unlink``
    discharges the duty — ``close`` alone merely drops the mapping.
    Attaching (``create=False``) carries no unlink duty and is not
    tracked.  ``mmap.mmap`` maps discharge with ``close``.
    """

    id = "REP602"
    title = "shm segments must reach unlink, mmaps close, on every path"
    scopes = ("serving/", "storage/")

    specs = (
        ResourceSpec(kind="shm segment", acquires=("SharedMemory",),
                     releases=("unlink",),
                     require_kwarg=("create", True), duty=".unlink()"),
        ResourceSpec(kind="mmap", acquires=("mmap.mmap",),
                     releases=("close",), duty=".close()"),
    )


class ProcessLifecycleRule(_ResourceLifecycleRule):
    """REP603: forked ``Process`` handles reach join on every path.

    An unjoined child is a zombie holding its exit status (and, for
    daemon workers, its inherited descriptors) until the parent exits.
    ``terminate``/``kill`` count too: the repo's retire path terminates
    then joins, and either call proves the handle was not forgotten.
    """

    id = "REP603"
    title = "forked Process handles must reach join on every path"
    scopes = ("serving/", "bulk/", "workload/")

    specs = (
        ResourceSpec(kind="process", acquires=("Process",),
                     releases=("join", "terminate", "kill"),
                     duty=".join()"),
    )


# ---------------------------------------------------------------------------
# protocol state machines (CFG/dataflow)
# ---------------------------------------------------------------------------

_WalState = Tuple[frozenset, frozenset]


class _WalAnalysis(ForwardAnalysis):
    """Tracks (logged?, fsynced?) as may-sets through one function."""

    def initial(self) -> _WalState:
        return (frozenset({"unlogged"}), frozenset({"unsynced"}))

    def join(self, a: _WalState, b: _WalState) -> _WalState:
        return (a[0] | b[0], a[1] | b[1])

    def transfer(self, node, state):
        log, sync = state
        for call in calls_at(node):
            dotted = call_name(call)
            if dotted.endswith("append_transaction"):
                log = frozenset({"logged"})
                # append_transaction fsyncs the log before returning,
                # so the log is durable from here on.
                sync = frozenset({"synced"})
            elif dotted.endswith("fsync"):
                sync = frozenset({"synced"})
            elif dotted.split(".")[-1] == "begin":
                log = frozenset({"unlogged"})
        out = (log, sync)
        return out, out


class WalDisciplineRule(Rule):
    """REP701: the WAL commit protocol, as a dataflow state machine.

    Two orderings make crash recovery sound, and both are invisible to
    a per-node matcher because they are *orderings*:

    - **log before apply** — in any function that is not itself the
      redo machinery, a call to ``_apply_images``/``_write_raw`` must
      be dominated by an ``append_transaction`` call: images reach the
      durable log (which fsyncs internally) before any byte of the
      data file moves.
    - **fsync before reset** — truncating the log (``wal.reset()``)
      while the data file may still be unsynced turns a crash into
      silent data loss; an ``os.fsync`` must dominate the reset.

    The redo machinery itself (apply/tear/recover/... by the REP104
    naming convention) is exempt from the first check — it *is* the
    sanctioned applier — but nothing is exempt from the second except
    ``reset`` itself.
    """

    id = "REP701"
    title = "WAL writes are logged before applied, fsynced before reset"
    scopes = ("storage/wal",)

    _APPLIERS = frozenset({"_apply_images", "_write_raw"})

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for func in iter_functions(module.tree):
            stripped = func.name.lstrip("_")
            check_apply = not stripped.startswith(
                UnloggedWriteRule._EXEMPT_PREFIXES)
            check_reset = not stripped.startswith(("reset", "clear"))
            if not (check_apply or check_reset):
                continue
            cfg = build_cfg(func)
            states = _WalAnalysis().run(cfg)
            for node in cfg.stmt_nodes():
                state = states.get(node.id)
                if state is None:
                    continue  # unreachable
                log, sync = state
                for call in calls_at(node):
                    func_expr = call.func
                    attr = (func_expr.attr
                            if isinstance(func_expr, ast.Attribute)
                            else "")
                    if check_apply and attr in self._APPLIERS \
                            and "unlogged" in log:
                        yield self.finding(
                            module, call,
                            f"{attr}() in {func.name}() can run before "
                            f"append_transaction() on some path; pages "
                            f"must reach the durable log before the "
                            f"data file")
                    if check_reset and attr == "reset":
                        chain = (dotted_name(func_expr.value) or "")
                        if "wal" in chain.split(".") \
                                and "unsynced" in sync:
                            yield self.finding(
                                module, call,
                                f"wal.reset() in {func.name}() can run "
                                f"before os.fsync() of the data file; "
                                f"truncating the log first loses the "
                                f"only durable copy of applied pages")


#: every rule amlint runs, in catalog order.
ALL_RULES: List[Rule] = [
    WallClockRule(),
    SeededRngRule(),
    UnloggedWriteRule(),
    ForkReopenRule(),
    ForkCaptureRule(),
    DaemonReopenRule(),
    ForkReachabilityRule(),
    BroadExceptRule(),
    TypedRaiseRule(),
    ZeroCopyRule(),
    CopyInDecodeRule(),
    EagerDequantizeRule(),
    ProtocolConformanceRule(),
    FdLifecycleRule(),
    SegmentLifecycleRule(),
    ProcessLifecycleRule(),
    WalDisciplineRule(),
]

RULES_BY_ID: Dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}
