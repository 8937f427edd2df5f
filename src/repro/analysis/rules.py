"""The amlint rule catalog: repo-specific invariants as AST checks.

Every rule encodes one invariant that earlier PRs established by
convention and DESIGN.md records in prose — here they become machine
checks that run on every commit.  Each rule matches single AST nodes
(REP501 compares classes across files); none follows control flow.
Rules are scoped to the subsystems whose contract they guard; see
DESIGN.md §10 for the full catalog with rationale and examples.

================  ========  =====================================================
ID                severity  invariant
================  ========  =====================================================
``REP101``        error     no wall-clock reads in build/query/geometry code
``REP102``        error     RNG construction must thread an explicit seed
``REP104``        error     mutation paths write pages through the WAL
                            wrapper, never the raw page file beneath it
``REP301``        error     no bare/broad ``except`` that swallows in
                            ``storage/`` and ``gist/``
``REP302``        error     storage paths raise ``StorageError`` subclasses,
                            never raw ``KeyError``/``OSError``/``struct.error``
``REP401``        error     no byte copies (``.tobytes()``, ``bytes(view)``,
                            ``copy=True``) in the serving read path
``REP402``        warning   ``.copy()`` in a decode path (decode returns views)
``REP403``        warning   eager full-page dequantization (``.astype("f8")``
                            on decoded blocks) in query hot paths
``REP501``        error     page-file protocol implementers define every
                            protocol method with a matching signature
================  ========  =====================================================

Orderings and lifecycles (WAL log-before-apply and fsync-before-reset,
the serving worker's post-fork reopen) are pinned by runtime tests in
``tests/storage/test_wal.py`` and ``tests/serving/``, not by lint rules.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.amlint import ERROR, WARNING, Finding, ModuleSource

#: packages whose structure must be a pure function of (data, seed).
_DETERMINISM_SCOPE = ("bulk/", "gist/", "geometry/")
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

    Page files are a pure function of the keys and the seed only
    because nothing in ``bulk/``, ``gist/``, or ``geometry/`` depends on
    *when* it ran.  ``time.perf_counter``/``time.monotonic`` stay legal
    — they feed profiling counters, never data — but calendar time does
    not.
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

    The bulk loader keys randomness to ``(level, index)`` so page bytes
    are a pure function of the keys and the seed; a module-level
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
                        f"seed; the bulk loader keys RNGs to "
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

    Every page decodes as views over its buffer
    (``NodeCodec.decode_node`` through the ``decode_block`` pair), so a
    copy in a decode path undoes what the block decode saved; the flag
    keeps new decode code on the views.
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
                    ".copy() in a decode path copies what decode_block "
                    "returns as a view")


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


#: every rule amlint runs, in catalog order.
ALL_RULES: List[Rule] = [
    WallClockRule(),
    SeededRngRule(),
    UnloggedWriteRule(),
    BroadExceptRule(),
    TypedRaiseRule(),
    ZeroCopyRule(),
    CopyInDecodeRule(),
    EagerDequantizeRule(),
    ProtocolConformanceRule(),
]

RULES_BY_ID: Dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}
