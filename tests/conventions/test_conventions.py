"""Repo conventions, checked over the live ``src/repro`` tree.

Each check below is a function from a parsed module to the line numbers
that break one convention an earlier change established (DESIGN.md
section 10 gives each one's rationale).  :data:`SCOPES` limits it to
the package-relative paths whose contract it guards.  Every check
matches single AST nodes; none follows control flow: orderings and
lifecycles are pinned by runtime tests, listed with their seeded
mutations in ``tests/mutations.py``.

A line a check reports may stay only if :data:`ALLOWED` names it, and
an entry there must still match a report.  Every check must also report
its own one-line mutation of live source from ``tests/mutations.py``.
Page-file protocol conformance is checked at runtime, by signature.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro.storage
from repro.storage import PageFileProtocol
from tests.mutations import MUTATIONS, REPO, row_id

SRC = REPO / "src" / "repro"


def dotted_name(node):
    """``a.b.c`` for an attribute chain rooted at a plain name."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    return None


def call_name(call):
    """The callee's dotted name, with ``numpy.`` spelled ``np.``."""
    name = dotted_name(call.func)
    if name is not None and (name == "numpy" or name.startswith("numpy.")):
        name = "np" + name[len("numpy"):]
    return name


def calls_with_stack(tree):
    """Every call with the names of the functions enclosing it."""
    found = []

    def visit(node, stack):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack = stack + (node.name,)
        elif isinstance(node, ast.Call):
            found.append((node, stack))
        for child in ast.iter_child_nodes(node):
            visit(child, stack)

    visit(tree, ())
    return found


def _named(stack, prefixes):
    """Does any enclosing function name start with one of ``prefixes``
    once its leading underscores are stripped?"""
    return any(name.lstrip("_").startswith(prefixes) for name in stack)


# -- determinism: bulk/, gist/ and geometry/ are a pure function of
# -- (data, seed) -----------------------------------------------------

#: calendar time; perf_counter/monotonic feed profiling counters only.
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.localtime", "time.gmtime",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "date.today", "datetime.date.today",
})

_RNG_CONSTRUCTORS = frozenset({
    "random.Random", "np.random.default_rng", "np.random.RandomState",
    "np.random.Generator", "np.random.SeedSequence",
})


def wall_clock(tree):
    """Wall-clock reads (REP101)."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and call_name(node) in _WALL_CLOCK]


def unseeded_rng(tree):
    """An RNG built without a seed, or a module-level ``random.*`` /
    ``np.random.*`` call on hidden global state (REP102)."""
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        if name is None:
            continue
        if name in _RNG_CONSTRUCTORS:
            if not node.args and not node.keywords:
                hits.append(node.lineno)
        elif name.startswith("np.random.") or \
                (name.startswith("random.") and name.count(".") == 1):
            hits.append(node.lineno)
    return hits


# -- write-ahead logging ----------------------------------------------

#: receiver-chain segments that reach beneath the WAL wrapper.
_BENEATH_WAL = frozenset({"base", "pagefile", "inner", "_file"})
_WRITERS = frozenset({"write", "write_many", "free"})
#: enclosing-function prefixes of the logging and redo machinery, the
#: only places allowed to touch raw slots (storage/wal.py's do).
_REDO_MACHINERY = ("apply", "tear", "write_partial", "append", "recover",
                   "replay", "checkpoint", "reset", "sync", "flush",
                   "close")


def unlogged_write(tree):
    """A mutation path calling ``_write_raw``, or ``write``/
    ``write_many``/``free`` beneath the WAL wrapper (REP104)."""
    hits = []
    for call, stack in calls_with_stack(tree):
        func = call.func
        if _named(stack, _REDO_MACHINERY) or \
                not isinstance(func, ast.Attribute):
            continue
        chain = set((dotted_name(func.value) or "").split("."))
        if func.attr == "_write_raw" or \
                (func.attr in _WRITERS and _BENEATH_WAL & chain):
            hits.append(call.lineno)
    return hits


# -- exception discipline ---------------------------------------------

_RAW_ERRORS = frozenset({
    "KeyError", "OSError", "IOError", "EOFError", "PermissionError",
    "FileNotFoundError", "InterruptedError", "struct.error",
    "json.JSONDecodeError",
})


def broad_except(tree):
    """A bare ``except:``, or ``except Exception``/``BaseException``
    whose handler does not re-raise unchanged (REP301)."""
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            hits.append(node.lineno)
            continue
        types = node.type.elts if isinstance(node.type, ast.Tuple) \
            else [node.type]
        if not any(dotted_name(t) in ("Exception", "BaseException")
                   for t in types):
            continue
        if not any(isinstance(sub, ast.Raise) and sub.exc is None
                   for sub in ast.walk(node)):
            hits.append(node.lineno)
    return hits


def untyped_raise(tree):
    """Raising a raw ``KeyError``/``OSError``/``struct.error`` ... where
    a ``StorageError`` subclass belongs (REP302)."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc
            name = dotted_name(exc.func if isinstance(exc, ast.Call)
                               else exc)
            if name in _RAW_ERRORS:
                hits.append(node.lineno)
    return hits


# -- zero-copy reads --------------------------------------------------

#: decode paths; encode and write paths must materialize, so they are
#: exempt (storage/codecs.py's encoders call ``.tobytes()``).
_DECODE = ("decode", "read", "verify")
#: query hot paths: a function whose name holds one of these parts.
_HOT = ("decode", "read", "knn", "search", "query", "expand", "serve",
        "am_query", "nn_", "plan")
#: dtype spellings that mean "materialize as float64".
_F8_CONSTANTS = {"f8", "<f8", "float64", "double", "float"}
_F8_NAMES = {"float", "np.float64", "np.double", "numpy.float64",
             "numpy.double"}


def byte_copy(tree):
    """``.tobytes()`` or ``bytes(view)`` in a decode path, or
    ``np.array``/``np.asarray(..., copy=True)`` anywhere (REP401)."""
    hits = []
    for call, stack in calls_with_stack(tree):
        func = call.func
        decode = _named(stack, _DECODE)
        if decode and isinstance(func, ast.Attribute) \
                and func.attr == "tobytes":
            hits.append(call.lineno)
        elif decode and isinstance(func, ast.Name) and func.id == "bytes" \
                and len(call.args) == 1 and not call.keywords \
                and not isinstance(call.args[0], ast.Constant):
            hits.append(call.lineno)
        elif call_name(call) in ("np.array", "np.asarray") and any(
                kw.arg == "copy" and isinstance(kw.value, ast.Constant)
                and kw.value.value is True for kw in call.keywords):
            hits.append(call.lineno)
    return hits


def decode_copy(tree):
    """``.copy()`` in a decode path, which returns views (REP402)."""
    return [call.lineno for call, stack in calls_with_stack(tree)
            if _named(stack, _DECODE) and isinstance(call.func, ast.Attribute)
            and call.func.attr == "copy"]


def _astype_f8(call):
    if not (isinstance(call.func, ast.Attribute)
            and call.func.attr == "astype"):
        return False
    args = list(call.args) + [kw.value for kw in call.keywords
                              if kw.arg == "dtype"]
    return any((isinstance(arg, ast.Constant) and arg.value in _F8_CONSTANTS)
               or dotted_name(arg) in _F8_NAMES for arg in args)


def eager_dequantize(tree):
    """``.astype`` to float64 in a query hot path: quantized leaves
    must be pruned on cell bounds and dequantized lazily (REP403)."""
    return [call.lineno for call, stack in calls_with_stack(tree)
            if _named(stack, _HOT) and _astype_f8(call)]


_DETERMINISM = ("bulk/", "gist/", "geometry/")
_SERVING = ("blobworld/query.py", "storage/diskfile.py",
            "storage/codecs.py")

#: each check and the package-relative path prefixes it covers.
SCOPES = {
    wall_clock: _DETERMINISM,
    unseeded_rng: _DETERMINISM,
    unlogged_write: ("gist/tree.py", "gist/mutable.py", "storage/wal.py"),
    broad_except: ("storage/", "gist/"),
    untyped_raise: ("storage/",),
    byte_copy: _SERVING,
    decode_copy: _SERVING,
    eager_dequantize: ("gist/", "blobworld/"),
}
CHECKS = {check.__name__: check for check in SCOPES}

#: ``(check, relpath, stripped line)`` a check may report and keep.
ALLOWED = {
    # fsck never raises on damage: a hostile ext_config may fail inside
    # any extension constructor, and all of it must become a report.
    ("broad_except", "gist/validate.py", "except Exception as exc:"),
}


def unwaived(check, relpath, text):
    """The lines ``check`` reports in ``text`` that ALLOWED does not."""
    lines = text.splitlines()
    return [n for n in check(ast.parse(text))
            if (check.__name__, relpath, lines[n - 1].strip())
            not in ALLOWED]


def in_scope(check, relpath):
    return relpath.startswith(SCOPES[check])


@pytest.mark.parametrize("check", SCOPES, ids=lambda check: check.__name__)
def test_convention_holds(check):
    relpaths = [path.relative_to(SRC).as_posix()
                for path in sorted(SRC.rglob("*.py"))]
    scoped = [relpath for relpath in relpaths if in_scope(check, relpath)]
    assert scoped, f"{check.__name__}'s scope matches no file"
    offenders = {relpath: hits for relpath in scoped
                 if (hits := unwaived(check, relpath,
                                      (SRC / relpath).read_text()))}
    assert offenders == {}


@pytest.mark.parametrize("name,relpath,line", sorted(ALLOWED),
                         ids=[f"{name}-{path}" for name, path, _ in
                              sorted(ALLOWED)])
def test_every_waiver_is_still_needed(name, relpath, line):
    check = CHECKS[name]
    assert in_scope(check, relpath)
    text = (SRC / relpath).read_text()
    lines = text.splitlines()
    assert line in {lines[n - 1].strip() for n in check(ast.parse(text))}


@pytest.mark.parametrize("row", MUTATIONS, ids=map(row_id, MUTATIONS))
def test_mutation_anchor_occurs_once(row):
    path, anchor, _, _ = row
    assert (REPO / path).read_text().count(anchor) == 1


@pytest.mark.parametrize("check", SCOPES, ids=lambda check: check.__name__)
def test_check_catches_its_mutation(check):
    [(path, anchor, replacement, _)] = [
        row for row in MUTATIONS if row[3] == check.__name__]
    relpath = Path(path).relative_to("src/repro").as_posix()
    assert in_scope(check, relpath)
    text = (REPO / path).read_text().replace(anchor, replacement)
    assert unwaived(check, relpath, text)


# -- page-file protocol conformance -----------------------------------

def page_file_classes():
    """Every ``repro.storage`` class that defines read/write/allocate."""
    found = []
    for info in pkgutil.iter_modules(repro.storage.__path__):
        module = importlib.import_module(f"repro.storage.{info.name}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__ \
                    and {"read", "write", "allocate"} <= set(vars(cls)):
                found.append(cls)
    return found


def _positional(func):
    """Positional parameter names after ``self``."""
    params = list(inspect.signature(func).parameters.values())[1:]
    return [p.name for p in params
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]


@pytest.mark.parametrize("cls", page_file_classes(),
                         ids=lambda cls: cls.__name__)
def test_page_files_match_the_protocol(cls):
    """Every protocol method exists, takes the protocol's positional
    call, and names its positional parameters as the protocol does."""
    problems = {}
    for name, proto in vars(PageFileProtocol).items():
        if not (inspect.isfunction(proto) and
                proto.__qualname__.startswith("PageFileProtocol.")):
            continue
        impl = getattr(cls, name, None)
        if not inspect.isfunction(impl):
            problems[name] = "missing"
            continue
        want, mine = _positional(proto), _positional(impl)
        try:
            inspect.signature(impl).bind(None, *want)
        except TypeError as exc:
            problems[name] = f"cannot take the protocol's call: {exc}"
            continue
        if mine[:len(want)] != want[:len(mine)]:
            problems[name] = f"parameters {mine} against protocol's {want}"
    assert problems == {}
