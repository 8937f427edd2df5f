"""Forward dataflow over :mod:`repro.analysis.cfg` graphs.

Three layers, each used by the REP6xx/REP701/REP205 rules:

- :class:`ForwardAnalysis` — a minimal worklist framework.  Subclasses
  provide the lattice (``initial``/``join``) and the transfer function,
  which returns *two* out-states: one for normal fall-through edges and
  one for exception edges.  That split is what lets a release call
  count as released even when the release itself raises (the sanctioned
  ``BufferError`` teardown idiom), while an *acquire* that raises
  propagates its pre-state (the resource never existed).

- :class:`ResourceLeakAnalysis` — a value-state lattice instance: each
  acquisition site mints a resource id, names bind to ids, and ids
  carry a may-set over ``{"open", "released"}``.  A resource that can
  reach either exit with ``"open"`` still in its set — and that never
  *escaped* the function (returned, stored to an attribute, passed to
  another call) — is a leak on some path.

- :class:`CallGraph` — module-level, name-based call edges for
  interprocedural reachability (REP203/REP205).  Deliberately
  intra-module: a cross-module graph would mark parent-side teardown
  helpers as worker-reachable through shared helper names and drown
  the fork-safety rules in false positives.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Generic, Iterable, List, Optional,
                    Sequence, Set, Tuple, TypeVar)

from repro.analysis.cfg import (CFG, EXC, WITH_EXIT, CFGNode, FunctionNode,
                                build_cfg)

S = TypeVar("S")


def call_name(call: ast.Call) -> str:
    """Dotted name of a call target: ``os.open``, ``ctx.Process``, ``f``."""
    parts: List[str] = []
    node: ast.expr = call.func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif parts:
        parts.append("?")  # call on a non-name receiver: x[0].close()
    return ".".join(reversed(parts))


def name_matches(dotted: str, candidates: Iterable[str]) -> bool:
    """True if ``dotted`` is one of ``candidates`` or ends with one
    (``shared_memory.SharedMemory`` matches candidate ``SharedMemory``)."""
    for cand in candidates:
        if dotted == cand or dotted.endswith("." + cand):
            return True
    return False


def calls_at(node: CFGNode) -> List[ast.Call]:
    """Every call expression evaluated at this CFG node, inner-first."""
    found = [e for e in node.walk_expressions() if isinstance(e, ast.Call)]
    found.reverse()
    return found


# ---------------------------------------------------------------------------
# the worklist framework
# ---------------------------------------------------------------------------

class ForwardAnalysis(Generic[S]):
    """May-forward dataflow: join over paths, fixpoint by worklist."""

    def initial(self) -> S:
        """The state flowing into the entry node."""
        raise NotImplementedError

    def join(self, a: S, b: S) -> S:
        raise NotImplementedError

    def transfer(self, node: CFGNode, state: S) -> Tuple[S, S]:
        """Return ``(normal_out, exc_out)`` for this node."""
        raise NotImplementedError

    def run(self, cfg: CFG) -> Dict[int, S]:
        """Fixpoint; returns the in-state of every reached node."""
        in_states: Dict[int, S] = {cfg.entry: self.initial()}
        work: List[int] = [cfg.entry]
        while work:
            nid = work.pop()
            state = in_states[nid]
            normal_out, exc_out = self.transfer(cfg.node(nid), state)
            for target, kind in cfg.successors(nid):
                out = exc_out if kind == EXC else normal_out
                if target in in_states:
                    merged = self.join(in_states[target], out)
                    if merged == in_states[target]:
                        continue
                    in_states[target] = merged
                else:
                    in_states[target] = out
                work.append(target)
        return in_states


# ---------------------------------------------------------------------------
# reaching definitions
# ---------------------------------------------------------------------------

Defs = Dict[str, FrozenSet[int]]


def _assigned_names(node: CFGNode) -> List[str]:
    """Names this node (re)binds — assignment targets, loop and with
    variables.  Compound bodies bind at their own nodes, not here."""
    stmt = node.stmt
    names: List[str] = []
    if node.kind == WITH_EXIT or stmt is None:
        return names

    def collect(target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            names.append(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                collect(elt)
        elif isinstance(target, ast.Starred):
            collect(target.value)

    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            collect(target)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        collect(stmt.target)
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        collect(stmt.target)
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                collect(item.optional_vars)
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef)):
        names.append(stmt.name)
    return names


class ReachingDefinitions(ForwardAnalysis[Defs]):
    """Which nodes' bindings of each name may reach each point."""

    def initial(self) -> Defs:
        return {}

    def join(self, a: Defs, b: Defs) -> Defs:
        out = dict(a)
        for var, sites in b.items():
            out[var] = out.get(var, frozenset()) | sites
        return out

    def transfer(self, node: CFGNode, state: Defs) -> Tuple[Defs, Defs]:
        killed = _assigned_names(node)
        if not killed:
            return state, state
        out = dict(state)
        for var in killed:
            out[var] = frozenset({node.id})
        # On the exception edge the binding may not have happened.
        exc = self.join(state, out)
        return out, exc


# ---------------------------------------------------------------------------
# resource lifecycle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResourceSpec:
    """One tracked resource class: how it is acquired and discharged.

    ``releases`` are method names on the bound variable (``x.close()``);
    ``release_funcs`` are function names taking it as first argument
    (``os.close(x)``).  ``arity=2`` acquisitions (``socketpair``,
    ``os.pipe``) bind a pair and are tracked only when unpacked into
    two plain names.  ``require_kwarg`` gates on a literal keyword:
    ``("create", True)`` distinguishes owning a SharedMemory segment
    (must ``unlink``) from merely attaching to one.
    """

    kind: str
    acquires: Tuple[str, ...]
    releases: Tuple[str, ...]
    release_funcs: Tuple[str, ...] = ()
    #: function names that *use* the resource without taking ownership
    #: (``os.write(fd, buf)``); their arguments do not escape.
    use_funcs: Tuple[str, ...] = ()
    arity: int = 1
    require_kwarg: Optional[Tuple[str, object]] = None
    duty: str = "close"  # human word for the missing action in findings

    def matches_acquire(self, call: ast.Call) -> bool:
        if not name_matches(call_name(call), self.acquires):
            return False
        if self.require_kwarg is not None:
            key, expected = self.require_kwarg
            for kw in call.keywords:
                if kw.arg == key:
                    return (isinstance(kw.value, ast.Constant)
                            and kw.value.value == expected)
            return False
        return True


OPEN = "open"
RELEASED = "released"

RState = FrozenSet[str]


@dataclass(frozen=True)
class Resource:
    """Identity of one acquisition site (node id + position in node)."""

    rid: Tuple[int, int]
    kind: str
    duty: str
    var: str
    line: int


@dataclass
class Leak:
    resource: Resource
    #: "exit", "raise_exit", or "exit+raise_exit"
    path: str


class _RState:
    """Immutable-ish analysis state: name bindings + per-resource sets."""

    __slots__ = ("bindings", "states")

    def __init__(self, bindings: Dict[str, Tuple[int, int]],
                 states: Dict[Tuple[int, int], RState]) -> None:
        self.bindings = bindings
        self.states = states

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, _RState)
                and self.bindings == other.bindings
                and self.states == other.states)

    def copy(self) -> "_RState":
        return _RState(dict(self.bindings), dict(self.states))


class ResourceLeakAnalysis(ForwardAnalysis[_RState]):
    """Find tracked resources that may reach an exit un-discharged."""

    def __init__(self, specs: Sequence[ResourceSpec]) -> None:
        self.specs = tuple(specs)
        self.resources: Dict[Tuple[int, int], Resource] = {}
        self.escaped: Set[Tuple[int, int]] = set()
        self._release_methods: FrozenSet[str] = frozenset(
            m for s in specs for m in s.releases)
        self._release_funcs: FrozenSet[str] = frozenset(
            f for s in specs for f in s.release_funcs)
        self._use_funcs: FrozenSet[str] = frozenset(
            f for s in specs for f in s.use_funcs)

    # -- lattice -------------------------------------------------------------

    def initial(self) -> _RState:
        return _RState({}, {})

    def join(self, a: _RState, b: _RState) -> _RState:
        bindings = {var: rid for var, rid in a.bindings.items()
                    if b.bindings.get(var) == rid}
        # A name bound to different resources on different paths keeps
        # neither binding: releasing through it can no longer be proven
        # to discharge a specific id, so both ids escape.
        for var, rid in a.bindings.items():
            other = b.bindings.get(var)
            if other is not None and other != rid:
                self._escape(rid)
                self._escape(other)
        states = dict(a.states)
        for rid, st in b.states.items():
            states[rid] = states.get(rid, frozenset()) | st
        return _RState(bindings, states)

    # -- transfer ------------------------------------------------------------

    def transfer(self, node: CFGNode,
                 state: _RState) -> Tuple[_RState, _RState]:
        pre = state
        out = state.copy()
        attempted: Set[Tuple[int, int]] = set()

        if node.kind == WITH_EXIT:
            # __exit__ discharges every resource the header acquired.
            for item in node.items:
                var = item.optional_vars
                if isinstance(var, ast.Name):
                    rid = out.bindings.get(var.id)
                    if rid is not None:
                        out.states[rid] = frozenset({RELEASED})
            return out, out

        stmt = node.stmt
        if stmt is None:
            return out, out

        for call in calls_at(node):
            self._apply_release(call, out, attempted)
            self._apply_escapes(call, out)
        self._apply_other_escapes(node, out)

        acquired = self._apply_acquire(node, out)

        # Exception semantics: a raise during the acquire leaves the
        # pre-state (nothing was acquired); a raise during *any*
        # teardown attempt on the resource still counts it discharged
        # on that edge — the BufferError teardown idiom, and the
        # reason ``probe.close()`` raising does not read as an unlink
        # leak — while the normal edge keeps demanding the real duty;
        # any other raise sees the post-state.
        if acquired:
            exc = pre
        elif attempted:
            exc = out.copy()
            for rid in attempted:
                exc.states[rid] = frozenset({RELEASED})
        else:
            exc = out
        return out, exc

    # release ---------------------------------------------------------------

    def _apply_release(self, call: ast.Call, out: _RState,
                       attempted: Set[Tuple[int, int]]) -> None:
        func = call.func
        if (isinstance(func, ast.Attribute)
                and func.attr in self._release_methods
                and isinstance(func.value, ast.Name)):
            rid = out.bindings.get(func.value.id)
            if rid is not None:
                attempted.add(rid)
                res = self.resources[rid]
                if func.attr in self._methods_for(res.kind):
                    out.states[rid] = frozenset({RELEASED})
        dotted = call_name(call)
        if self._release_funcs and name_matches(dotted, self._release_funcs):
            for arg in call.args[:1]:
                if isinstance(arg, ast.Name):
                    rid = out.bindings.get(arg.id)
                    if rid is not None:
                        attempted.add(rid)
                        out.states[rid] = frozenset({RELEASED})

    def _methods_for(self, kind: str) -> FrozenSet[str]:
        return frozenset(m for s in self.specs if s.kind == kind
                         for m in s.releases)

    # escape ----------------------------------------------------------------

    def _escape(self, rid: Tuple[int, int]) -> None:
        self.escaped.add(rid)

    def _escape_names_in(self, expr: ast.AST, out: _RState) -> None:
        for name in ast.walk(expr):
            if isinstance(name, ast.Name):
                rid = out.bindings.get(name.id)
                if rid is not None:
                    self._escape(rid)

    def _apply_escapes(self, call: ast.Call, out: _RState) -> None:
        """A tracked resource passed as an argument leaves our sight."""
        dotted = call_name(call)
        if self._use_funcs and name_matches(dotted, self._use_funcs):
            return  # a use, not an ownership transfer
        is_release_func = name_matches(dotted, self._release_funcs)
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            if is_release_func and arg in call.args[:1]:
                continue  # os.close(fd) is the discharge itself
            self._escape_names_in(arg, out)

    def _apply_other_escapes(self, node: CFGNode, out: _RState) -> None:
        stmt = node.stmt
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            self._escape_names_in(stmt.value, out)
        if isinstance(stmt, ast.Assign):
            value = stmt.value
            if isinstance(value, ast.Name):
                src_rid = out.bindings.get(value.id)
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        if src_rid is not None:
                            out.bindings[target.id] = src_rid  # alias
                        elif target.id in out.bindings:
                            del out.bindings[target.id]  # rebound away
                    elif src_rid is not None:
                        self._escape(src_rid)  # stored to attr/subscript
            elif not isinstance(value, ast.Call):
                # Stored into a literal, comprehension, or computed
                # value: the structure now holds the handle.
                self._escape_names_in(value, out)
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and \
                            target.id in out.bindings:
                        del out.bindings[target.id]
        for expr in node.expressions():
            for sub in ast.walk(expr):
                if isinstance(sub, (ast.Yield, ast.YieldFrom)) and \
                        sub.value is not None:
                    self._escape_names_in(sub.value, out)

    # acquire ---------------------------------------------------------------

    def _apply_acquire(self, node: CFGNode, out: _RState) -> bool:
        stmt = node.stmt
        call: Optional[ast.Call] = None
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
            call, targets = stmt.value, stmt.targets
        elif (isinstance(stmt, (ast.With, ast.AsyncWith))
              and node.kind != WITH_EXIT):
            acquired_any = False
            for idx, item in enumerate(stmt.items):
                if not isinstance(item.context_expr, ast.Call):
                    continue
                spec = self._spec_for(item.context_expr)
                var = item.optional_vars
                if spec is not None and isinstance(var, ast.Name):
                    self._mint(node, idx, spec, var.id, out)
                    acquired_any = True
            return acquired_any
        if call is None:
            return False
        spec = self._spec_for(call)
        if spec is None or len(targets) != 1:
            return False
        target = targets[0]
        if spec.arity == 2:
            if (isinstance(target, (ast.Tuple, ast.List))
                    and len(target.elts) == 2
                    and all(isinstance(e, ast.Name) for e in target.elts)):
                for idx, elt in enumerate(target.elts):
                    assert isinstance(elt, ast.Name)
                    self._mint(node, idx, spec, elt.id, out)
                return True
            return False
        if isinstance(target, ast.Name):
            self._mint(node, 0, spec, target.id, out)
            return True
        return False

    def _spec_for(self, call: ast.Call) -> Optional[ResourceSpec]:
        for spec in self.specs:
            if spec.matches_acquire(call):
                return spec
        return None

    def _mint(self, node: CFGNode, idx: int, spec: ResourceSpec,
              var: str, out: _RState) -> None:
        rid = (node.id, idx)
        self.resources[rid] = Resource(rid, spec.kind, spec.duty, var,
                                       node.line)
        out.bindings[var] = rid
        out.states[rid] = frozenset({OPEN})

    # -- the verdict ---------------------------------------------------------

    def leaks(self, cfg: CFG) -> List[Leak]:
        in_states = self.run(cfg)
        open_at: Dict[Tuple[int, int], List[str]] = {}
        for exit_id, label in ((cfg.exit, "exit"),
                               (cfg.raise_exit, "raise_exit")):
            state = in_states.get(exit_id)
            if state is None:
                continue
            for rid, st in state.states.items():
                if OPEN in st and rid not in self.escaped:
                    open_at.setdefault(rid, []).append(label)
        found = [Leak(self.resources[rid], "+".join(paths))
                 for rid, paths in sorted(open_at.items())]
        return found


def find_leaks(func: FunctionNode,
               specs: Sequence[ResourceSpec]) -> List[Leak]:
    """Convenience wrapper: build the CFG and report leaks in one call."""
    analysis = ResourceLeakAnalysis(specs)
    return analysis.leaks(build_cfg(func))


# ---------------------------------------------------------------------------
# the module call graph
# ---------------------------------------------------------------------------

@dataclass
class CallGraph:
    """Name-based, intra-module call edges.

    Nodes are bare definition names (functions and methods alike — a
    method call ``obj.handle()`` can reach any same-module ``def
    handle``, which over-approximates dispatch but never misses it).
    ``target=`` keywords count as call edges so ``Process(target=f)``
    and thread targets are followed.
    """

    defs: Dict[str, List[FunctionNode]] = field(default_factory=dict)
    edges: Dict[str, Set[str]] = field(default_factory=dict)

    @classmethod
    def build(cls, tree: ast.Module) -> "CallGraph":
        graph = cls()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                graph.defs.setdefault(node.name, []).append(node)
        for name, funcs in graph.defs.items():
            called = graph.edges.setdefault(name, set())
            for func in funcs:
                called |= _called_names(func)
        return graph

    def reachable(self, roots: Iterable[str]) -> Set[str]:
        """Definition names reachable from ``roots`` (roots included
        when defined in the module)."""
        seen: Set[str] = set()
        stack = [r for r in roots if r in self.defs]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            for callee in self.edges.get(name, ()):
                if callee in self.defs and callee not in seen:
                    stack.append(callee)
        return seen

    def reachable_calls(self, root: str) -> Set[str]:
        """Every *called name* (defined here or not) visible from any
        definition reachable from ``root`` — the set REP203 probes for
        ``reopen_files``."""
        names: Set[str] = set()
        for defname in self.reachable([root]):
            names |= self.edges.get(defname, set())
        return names


def _called_names(func: FunctionNode) -> Set[str]:
    """Bare names called directly inside ``func`` (nested defs have
    their own graph node and are skipped here; calling one still makes
    an edge by name)."""
    names: Set[str] = set()

    class _V(ast.NodeVisitor):
        def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
            if node is not func:
                return  # the nested def owns its body
            self.generic_visit(node)

        visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

        def visit_Call(self, node: ast.Call) -> None:
            target = node.func
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, ast.Attribute):
                names.add(target.attr)
            for kw in node.keywords:
                if kw.arg == "target" and isinstance(kw.value, ast.Name):
                    names.add(kw.value.id)
                elif kw.arg == "target" and isinstance(kw.value,
                                                       ast.Attribute):
                    names.add(kw.value.attr)
            self.generic_visit(node)

    _V().visit(func)
    return names
