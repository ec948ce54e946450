"""Race analysis for the cooperative DES: yields are preemption points.

The engine (:mod:`repro.sim.process`) runs process bodies as
generators: between two ``yield``\\ s a body executes atomically, and a
yield is the *only* place another process — or an engine callback, or
an :class:`~repro.sim.events.Interrupted` thrown by ``interrupt()`` —
can run. That discipline makes most locking unnecessary, but it also
means every multi-step update of shared state that straddles a yield
is a race with whoever else can touch that state while the body is
suspended. Such a bug replays bit-identically (the interleaving is
deterministic per seed) and fails no invariant check; it just shifts
the contention numbers the paper's Figs. 5-10 report.

``python -m repro check --tool racecheck`` adapts classic dynamic-race
machinery to this cooperative world, statically:

* **preemption points** are the ``yield``\\ s of a process-like
  generator body (semcheck's heuristic, plus bodies that delegate
  through ``yield from call()``: stages of a process);
* **locksets** are :class:`~repro.sim.resources.Resource` grants held
  across those yields (``with res.request() as grant:`` or an explicit
  ``request()``/``release()`` pair) — a grant held continuously from
  one access to the next excludes any other would-be holder in
  between, exactly like a mutex;
* **shared state** is an attribute path (``self.stats.calls``, a
  module global, ``router.outstanding`` through a captured object)
  that a *different* function in the module can also write or read —
  ``__init__``-time writes do not count, and state nobody else touches
  cannot race.

Rule families (each finding names the location and the yield-crossing
that makes it unsafe):

* ``atomicity-violation`` — shared state is read, the body yields, and
  the same state is written, with no Resource held across the window:
  a check-then-act or read-modify-write that another process can
  interleave with (lost update / stale decision).
* ``unguarded-shared-write`` — a lock-free write to state that every
  other accessor touches under a Resource; one undisciplined writer
  voids the protocol the locked sites rely on.
* ``stale-read-across-yield`` — a local caches a shared value, the
  body yields, and the local is then used as if current. Windowed
  deltas that compare the cached value against a *fresh* re-read in
  the same statement (``self._total_busy - last_busy``) are the
  intended idiom and do not fire.
* ``interrupt-unsafe-update`` — a multi-step update (an ``+=``/``-=``
  balance pair on one location, or writes to two fields of the same
  owner object) split across a yield outside any ``try``/``finally``:
  an interrupt delivered at the interior yield leaves the object torn
  for the rest of the run.
* ``lock-order-inversion`` — two Resources acquired in opposite
  orders on different paths; two processes interleaving at the
  interior yield deadlock. A ``yield``-while-holding inventory
  (:func:`lock_inventory`, ``--list-locks``) backs this rule.

Scope and honesty: the analysis is per-module (cross-module aliasing
is undecidable here), matches multi-hop attribute paths by their leaf
name (``self.kernel._total_busy`` vs ``kernel._total_busy``), and does
not model re-entry of one body by two processes over the same object.
Suppression, baselines, and exit codes are shared with the other
checkers (``# repro: allow[rule-id]``, an empty committed baseline,
0/1/2); see ``docs/analysis.md``.
"""

import ast
from dataclasses import dataclass

from repro.analysis.common import (
    FlowWalker,
    RuleInfo,
    SourceModule,
    check_module,
    check_paths,
    handler_catches_interrupt,
    has_own_yield,
    is_request_call,
    process_like,
)
from repro.analysis.common import render_findings as _render_findings

RULES = (
    RuleInfo(
        "atomicity-violation",
        "shared state read before a yield and written after it with no "
        "Resource held across the window",
        "re-read the shared value after the last yield so the decision "
        "and the write happen in one atomic step, or hold a Resource "
        "across the whole read-modify-write (`with lock.request():`); "
        "another process can run at the yield and invalidate the value "
        "the write is based on.",
    ),
    RuleInfo(
        "unguarded-shared-write",
        "lock-free write to state every other accessor touches under a "
        "Resource",
        "acquire the same Resource around this write (or move it into "
        "the existing locked region); one writer outside the lock "
        "invalidates what every locked reader assumes it excludes.",
    ),
    RuleInfo(
        "stale-read-across-yield",
        "local caches a shared value across a yield, then is used as "
        "if current",
        "re-read the shared attribute after the yield instead of using "
        "the cached local — writers may have run while this process "
        "was suspended. Intentional windowed deltas are fine when the "
        "using statement also re-reads the shared value fresh.",
    ),
    RuleInfo(
        "interrupt-unsafe-update",
        "multi-step shared update can be torn by Interrupted at an "
        "interior yield",
        "wrap the update in try/finally that commits the balancing "
        "write, or accumulate into locals and commit after the last "
        "yield in one atomic step; an interrupt at the interior yield "
        "otherwise leaves the object half-updated for the rest of the "
        "run.",
    ),
    RuleInfo(
        "lock-order-inversion",
        "Resources acquired in opposite orders on different paths",
        "pick one global acquisition order and nest every "
        "request() the same way; two processes that take the pair in "
        "opposite orders deadlock when they interleave at the yield "
        "inside the first grant.",
    ),
)

RULES_BY_ID = {rule.id: rule for rule in RULES}

#: Method names that mutate their receiver (container write).
_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popleft",
        "popitem",
        "push",
        "remove",
        "setdefault",
        "sort",
        "update",
    }
)

#: Constructor-time writers never race with running processes.
_INIT_METHODS = frozenset({"__init__", "__post_init__", "__new__"})


# ---------------------------------------------------------------------------
# Attribute-chain plumbing
# ---------------------------------------------------------------------------


def _chain(node):
    """``(root_name, path)`` of a Name/Attribute/Subscript chain.

    Subscripts are transparent — ``self.d[k].x`` resolves to
    ``('self', ('d', 'x'))``? No: a subscript *truncates* the path, so
    ``self.d[k] = v`` is a mutation of ``self.d`` (the container), and
    anything reached through the element is attributed to the
    container too. Returns ``None`` for chains not rooted at a name.
    """
    parts = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            parts.clear()  # element attrs belong to the container
            node = node.value
        else:
            break
    if not isinstance(node, ast.Name):
        return None
    return node.id, tuple(reversed(parts))


def _chain_subscript_slices(node):
    """The slice expressions buried inside a chain (still plain reads)."""
    slices = []
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Subscript):
            slices.append(node.slice)
        node = node.value
    return slices


@dataclass(frozen=True)
class _Loc:
    """One shared-state location, canonical within a module.

    ``kind`` is ``"self"`` (instance attribute, ``owner`` is the class
    name), ``"obj"`` (reached through a non-self object reference,
    ``owner`` is the variable name), or ``"global"`` (module-level
    name). ``path`` is the attribute chain after the root.
    """

    kind: str
    owner: str
    path: tuple

    @property
    def leaf(self):
        return self.path[-1]

    @property
    def direct(self):
        """A plain ``self.attr`` — aliased only within its own class."""
        return self.kind == "self" and len(self.path) == 1

    def render(self):
        if self.kind == "global":
            return self.path[0]
        root = "self" if self.kind == "self" else self.owner
        return ".".join((root,) + self.path)


def _aliases(a, b):
    """Whether two locations may be the same object's state.

    Exact within a class for plain ``self.attr``; multi-hop paths and
    object references match by leaf name (``self.kernel._total_busy``
    aliases ``self._total_busy`` of the kernel class) — per-module, so
    the collision surface stays small.
    """
    if a.kind == "global" or b.kind == "global":
        return a.kind == b.kind and a.path[0] == b.path[0]
    if a.leaf != b.leaf:
        return False
    if a.direct and b.direct:
        return a.owner == b.owner
    return True


@dataclass(frozen=True)
class _Access:
    """One attribute access recorded by the module scan."""

    func: str  # unique body id, e.g. "FastRpcChannel.invoke:155"
    loc: _Loc
    kind: str  # "read" | "write"
    locked: bool  # lexically inside a `with *.request():` block
    is_init: bool


# ---------------------------------------------------------------------------
# Phase A: the module model (who can touch what, and under which lock)
# ---------------------------------------------------------------------------


class _Scope:
    """Name classification for one function body."""

    def __init__(self, index, func, cls, module_globals):
        self.cls = cls
        self.module_globals = module_globals
        self.global_decls = set()
        self.locals = set()
        args = func.args
        for param in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            self.locals.add(param.arg)
        for node in index.own_nodes(func):
            if isinstance(node, ast.Global):
                self.global_decls.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Store
            ):
                self.locals.add(node.id)
        self.locals -= self.global_decls

    def classify(self, root, path):
        """Map a chain to a :class:`_Loc`, or ``None`` for pure locals."""
        if root == "self" and self.cls is not None:
            if not path:
                return None
            return _Loc("self", self.cls, path)
        if root in self.global_decls or (
            root not in self.locals and root in self.module_globals
        ):
            if not path:
                return _Loc("global", root, (root,))
            return _Loc("obj", root, path)
        if path:
            return _Loc("obj", root, path)
        return None


def _iter_functions(tree):
    """Every function with its owning class name, in source order.

    Nested defs inherit the enclosing class so a closure's captured
    ``self`` still classifies as instance state.
    """

    def visit(nodes, cls):
        for node in nodes:
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node, cls
                yield from visit(node.body, cls)
            elif isinstance(
                node,
                (ast.If, ast.While, ast.For, ast.Try, ast.With),
            ):
                yield from visit(ast.iter_child_nodes(node), cls)

    yield from visit(tree.body, None)


class _ModuleModel:
    """The module's access table plus its analyzable process bodies."""

    def __init__(self, index):
        tree = index.tree
        self.index = index
        self.accesses = []
        self.process_bodies = []  # (func, cls, func_id, scope)
        self._alias_cache = {}
        self.module_globals = {
            target.id
            for stmt in tree.body
            if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign))
            for target in (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            if isinstance(target, ast.Name)
        }
        for func, cls in _iter_functions(tree):
            func_id = (
                f"{cls}.{func.name}:{func.lineno}"
                if cls
                else f"{func.name}:{func.lineno}"
            )
            scope = _Scope(index, func, cls, self.module_globals)
            is_init = cls is not None and func.name in _INIT_METHODS
            _AccessScan(self, func, func_id, scope, is_init).run()
            if has_own_yield(index, func) and process_like(
                index, func, stages=True
            ):
                self.process_bodies.append((func, cls, func_id, scope))

    # -- queries ---------------------------------------------------------

    def _interferers(self, func_id, loc):
        key = (func_id, loc)
        cached = self._alias_cache.get(key)
        if cached is None:
            cached = tuple(
                access
                for access in self.accesses
                if access.func != func_id
                and not access.is_init
                and _aliases(loc, access.loc)
            )
            self._alias_cache[key] = cached
        return cached

    def has_interfering_writer(self, func_id, loc):
        return any(
            access.kind == "write"
            for access in self._interferers(func_id, loc)
        )

    def has_interferer(self, func_id, loc):
        return bool(self._interferers(func_id, loc))

    def locked_elsewhere(self, func_id, loc):
        """Every other accessor is disciplined under a Resource."""
        others = self._interferers(func_id, loc)
        return bool(others) and all(access.locked for access in others)


class _AccessScan:
    """Phase A: record every access of one body with its lock context."""

    def __init__(self, model, func, func_id, scope, is_init):
        self.model = model
        self.func = func
        self.func_id = func_id
        self.scope = scope
        self.is_init = is_init

    def run(self):
        self._walk(self.func.body, locked=False)

    def _walk(self, body, locked):
        for stmt in body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue  # nested scopes scanned separately
            if isinstance(stmt, ast.With):
                inner = locked or any(
                    is_request_call(item.context_expr)
                    for item in stmt.items
                )
                for item in stmt.items:
                    self._scan(item.context_expr, locked)
                self._walk(stmt.body, inner)
            elif isinstance(stmt, (ast.If, ast.While, ast.For)):
                if isinstance(stmt, ast.For):
                    self._scan(stmt.iter, locked)
                    self._scan(stmt.target, locked)
                else:
                    self._scan(stmt.test, locked)
                self._walk(stmt.body, locked)
                self._walk(stmt.orelse, locked)
            elif isinstance(stmt, ast.Try):
                self._walk(stmt.body, locked)
                for handler in stmt.handlers:
                    self._walk(handler.body, locked)
                self._walk(stmt.orelse, locked)
                self._walk(stmt.finalbody, locked)
            elif isinstance(stmt, ast.AnnAssign):
                if stmt.value is not None:
                    self._scan(stmt.value, locked)
                    self._scan(stmt.target, locked)
            else:
                self._scan(stmt, locked)

    def _scan(self, node, locked):
        """Record the reads and writes of one simple statement."""
        reads, writes, _yields = _collect_events(
            node, self.model.index.children
        )
        for kind, accesses in (("read", reads), ("write", writes)):
            for chain, *_where in accesses:
                loc = self.scope.classify(*chain)
                if loc is not None:
                    self.model.accesses.append(
                        _Access(self.func_id, loc, kind, locked, self.is_init)
                    )


# ---------------------------------------------------------------------------
# Phase B: flow-sensitive pass over each process body
# ---------------------------------------------------------------------------
#
# The pass walks one generator body tracking three things per path:
# the live lockset (each acquisition gets a unique id, so an id seen
# at two accesses proves the grant was held *continuously* between
# them), a record per shared location of its latest read and latest
# write, and the shared-derived locals. Every yield marks all records
# "crossed" (and "unprotected" when no enclosing try/finally or
# Interrupted handler covers it); rule checks then reduce to record
# flags at the second access. The shared FlowWalker walks branches on
# copies; this pass merges them conservatively (flags OR, locksets
# intersect).


def _new_record(node, acqs, op="set"):
    return {
        "node": node,
        "acqs": frozenset(acqs),
        "crossed": False,
        "unprot": False,
        "op": op,
    }


def _merge_records(a, b):
    return {
        "node": a["node"],
        "acqs": a["acqs"] & b["acqs"],
        "crossed": a["crossed"] or b["crossed"],
        "unprot": a["unprot"] or b["unprot"],
        "op": a["op"] if a["op"] == b["op"] else "set",
    }


def _copy_state(state):
    return {
        "reads": {loc: dict(rec) for loc, rec in state["reads"].items()},
        "writes": {loc: dict(rec) for loc, rec in state["writes"].items()},
        "groups": {
            group: {loc: dict(rec) for loc, rec in members.items()}
            for group, members in state["groups"].items()
        },
        "locals": {
            name: {
                "sources": set(rec["sources"]),
                **{k: v for k, v in rec.items() if k != "sources"},
            }
            for name, rec in state["locals"].items()
        },
        "live": dict(state["live"]),
        "handles": dict(state["handles"]),
    }


def _merge_states(a, b):
    merged = {
        "reads": {},
        "writes": {},
        "groups": {},
        "locals": {},
        # A grant held on only one path does not guard the join.
        "live": {
            acq: token
            for acq, token in a["live"].items()
            if acq in b["live"]
        },
        "handles": {
            name: acq
            for name, acq in a["handles"].items()
            if b["handles"].get(name) == acq
        },
    }
    for key in ("reads", "writes"):
        for loc in set(a[key]) | set(b[key]):
            rec_a, rec_b = a[key].get(loc), b[key].get(loc)
            merged[key][loc] = (
                _merge_records(rec_a, rec_b)
                if rec_a and rec_b
                else dict(rec_a or rec_b)
            )
    for group in set(a["groups"]) | set(b["groups"]):
        members_a = a["groups"].get(group, {})
        members_b = b["groups"].get(group, {})
        merged["groups"][group] = {
            loc: (
                _merge_records(members_a[loc], members_b[loc])
                if loc in members_a and loc in members_b
                else dict(members_a.get(loc) or members_b[loc])
            )
            for loc in set(members_a) | set(members_b)
        }
    for name in set(a["locals"]) | set(b["locals"]):
        rec_a, rec_b = a["locals"].get(name), b["locals"].get(name)
        if rec_a and rec_b:
            rec = _merge_records(rec_a, rec_b)
            rec["sources"] = rec_a["sources"] | rec_b["sources"]
        else:
            rec = dict(rec_a or rec_b)
            rec["sources"] = set(rec["sources"])
        merged["locals"][name] = rec
    return merged


class _ModuleSink:
    """Cross-body facts one module run accumulates."""

    def __init__(self):
        #: (held_token, acquired_token) -> (node, func_label), first seen.
        self.pairs = {}
        #: yield-while-holding inventory rows.
        self.inventory = []


class _BodyPass(FlowWalker):
    """The flow-sensitive race walk over one process body."""

    def __init__(self, checker, func, func_id, scope, model, sink):
        super().__init__()
        self.checker = checker
        self.func = func
        self.func_id = func_id
        self.scope = scope
        self.model = model
        self.sink = sink
        self.state = {
            "reads": {},
            "writes": {},
            "groups": {},
            "locals": {},
            "live": {},  # acq_id -> lock token
            "handles": {},  # handle local name -> acq_id
        }
        self.protect = 0  # enclosing try body with finally/Interrupted handler
        self.acq_seq = 0
        self.flagged = set()
        # Reads are only worth tracking for locations this body also
        # writes (atomicity needs the read-...-write pair).
        self.written_locs = self._prescan_written()

    # -- setup -----------------------------------------------------------

    def _prescan_written(self):
        written = set()
        for node in self.model.index.own_nodes(self.func):
            chain = None
            if isinstance(node, (ast.Attribute, ast.Subscript)) and (
                isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del))
            ):
                chain = _chain(node)
            elif isinstance(node, ast.AugAssign):
                chain = _chain(node.target)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS
            ):
                chain = _chain(node.func.value)
            if chain is None:
                continue
            loc = self.scope.classify(*chain)
            if loc is not None:
                written.add(loc)
        return written

    # -- driver ----------------------------------------------------------

    def run(self):
        self.walk_block(self.func.body)

    def _flag(self, rule, node, dedupe_key, message):
        key = (rule, dedupe_key)
        if key in self.flagged:
            return
        self.flagged.add(key)
        self.checker.flag(rule, node, message)

    # -- control-flow hooks ----------------------------------------------

    copy_state = staticmethod(_copy_state)
    merge_states = staticmethod(_merge_states)

    def enter_loop(self, stmt):
        if isinstance(stmt, ast.For):
            self._bind_loop_targets(stmt.target)

    def begin_iteration(self):
        # Each iteration's writes are a complete, consistent update, so
        # the group map resets per pass instead of pairing across them.
        self.state["groups"] = {}

    def _bind_loop_targets(self, target):
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_loop_targets(element)
        elif isinstance(target, ast.Name):
            self.state["locals"].pop(target.id, None)

    def protect_try(self, stmt, delta):
        if stmt.finalbody or any(
            handler_catches_interrupt(handler) for handler in stmt.handlers
        ):
            self.protect += delta

    def enter_with(self, stmt):
        acquired = []
        for item in stmt.items:
            context = item.context_expr
            if is_request_call(context):
                token = self._lock_token(context)
                for held in self.state["live"].values():
                    self.sink.pairs.setdefault(
                        (held, token),
                        (context, self.func_id),
                    )
                self.acq_seq += 1
                self.state["live"][self.acq_seq] = token
                acquired.append(self.acq_seq)
                if isinstance(item.optional_vars, ast.Name):
                    self.state["handles"][item.optional_vars.id] = (
                        self.acq_seq
                    )
            else:
                self.transfer(context)
                if isinstance(item.optional_vars, ast.Name):
                    self.state["locals"].pop(item.optional_vars.id, None)
        return acquired

    def exit_with(self, stmt, acquired):
        for acq in acquired:
            self.state["live"].pop(acq, None)
        self.state["handles"] = {
            name: acq
            for name, acq in self.state["handles"].items()
            if acq not in acquired
        }

    def _lock_token(self, request_call):
        """Cross-body comparable token for the requested Resource."""
        chain = _chain(request_call.func.value)
        if chain is None:
            return f"<expr:{request_call.lineno}>"
        root, path = chain
        if root == "self":
            return ".".join(path) if path else "self"
        return ".".join((root,) + path)

    # -- one simple statement --------------------------------------------

    def transfer(self, stmt):
        reads, writes, yields = _collect_events(
            stmt, self.model.index.children
        )
        # Explicit request()/release() handle protocol.
        release_handles = _released_handles(stmt)
        read_locs = set()
        for chain, node in reads:
            loc = self.scope.classify(*chain)
            if loc is not None:
                read_locs.add(loc)
        write_locs = set()
        for chain, node, _op in writes:
            loc = self.scope.classify(*chain)
            if loc is not None:
                write_locs.add(loc)

        self._check_stale_locals(stmt, reads, read_locs, write_locs)
        live_ids = frozenset(self.state["live"])
        for loc in read_locs:
            if loc in self.written_locs:
                self.state["reads"][loc] = _new_record(stmt, live_ids)

        has_yield = bool(yields)
        if has_yield:
            self._apply_yield(yields[0])

        request_target = self._apply_request(stmt)
        for handle in release_handles:
            acq = self.state["handles"].pop(handle, None)
            if acq is not None:
                self.state["live"].pop(acq, None)

        live_ids = frozenset(self.state["live"])
        for chain, node, op in writes:
            loc = self.scope.classify(*chain)
            if loc is not None:
                self._apply_shared_write(loc, node, op, live_ids)
            elif isinstance(node, ast.Name) or (
                isinstance(node, ast.AugAssign)
                and isinstance(node.target, ast.Name)
            ):
                name = node.id if isinstance(node, ast.Name) else (
                    node.target.id
                )
                if name != request_target:
                    self.state["locals"].pop(name, None)
        if not has_yield:
            self._track_locals(stmt, read_locs, request_target)

    def _apply_request(self, stmt):
        """``handle = res.request()`` acquires; returns the handle name."""
        if not (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and is_request_call(stmt.value)
        ):
            return None
        token = self._lock_token(stmt.value)
        for held in self.state["live"].values():
            self.sink.pairs.setdefault(
                (held, token), (stmt.value, self.func_id)
            )
        self.acq_seq += 1
        self.state["live"][self.acq_seq] = token
        name = stmt.targets[0].id
        self.state["handles"][name] = self.acq_seq
        self.state["locals"].pop(name, None)
        return name

    def _apply_yield(self, node):
        if self.state["live"]:
            self.sink.inventory.append(
                {
                    "line": node.lineno,
                    # func_id carries a ":line" disambiguator; the
                    # inventory is for humans, so report the qualname.
                    "function": self.func_id.rsplit(":", 1)[0],
                    "locks": sorted(set(self.state["live"].values())),
                }
            )
        unprotected = self.protect == 0 and not self.finally_depth
        for table in ("reads", "writes", "locals"):
            for record in self.state[table].values():
                record["crossed"] = True
                record["unprot"] = record["unprot"] or unprotected
        for members in self.state["groups"].values():
            for record in members.values():
                record["crossed"] = True
                record["unprot"] = record["unprot"] or unprotected

    def _check_stale_locals(self, stmt, reads, read_locs, write_locs):
        for chain, node in reads:
            root, path = chain
            if path or root not in self.state["locals"]:
                continue
            record = self.state["locals"][root]
            if not record["crossed"]:
                continue
            if record["acqs"] & frozenset(self.state["live"]):
                continue  # a Resource was held across the whole window
            sources = record["sources"]
            if sources & read_locs:
                # Windowed delta: the statement re-reads the shared
                # value fresh, so the code acknowledges the cached one
                # is a snapshot; that clears the obligation for later
                # uses too (the snapshot is now deliberate history).
                self.state["locals"].pop(root, None)
                continue
            if sources & write_locs:
                # Write-back: the shared value now equals the local
                # (and atomicity-violation owns the racy-update case).
                self.state["locals"].pop(root, None)
                continue
            source = sorted(sources, key=lambda loc: loc.render())[0]
            if not self.model.has_interfering_writer(self.func_id, source):
                continue
            self._flag(
                "stale-read-across-yield",
                node,
                root,
                f"`{root}` caches `{source.render()}` from before a "
                "yield; writers may have run while this process was "
                "suspended, so the cached value can be stale here",
            )
            self.state["locals"].pop(root, None)

    def _track_locals(self, stmt, read_locs, request_target):
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            return
        sources = {
            loc
            for loc in read_locs
            if self.model.has_interfering_writer(self.func_id, loc)
        }
        if not sources:
            return
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        )
        for target in targets:
            if isinstance(target, ast.Name) and target.id != request_target:
                record = _new_record(stmt, self.state["live"])
                record["sources"] = sources
                self.state["locals"][target.id] = record

    def _apply_shared_write(self, loc, node, op, live_ids):
        read_rec = self.state["reads"].get(loc)
        if (
            read_rec is not None
            and read_rec["crossed"]
            and not (read_rec["acqs"] & live_ids)
            and self.model.has_interfering_writer(self.func_id, loc)
        ):
            self._flag(
                "atomicity-violation",
                node,
                loc,
                f"`{loc.render()}` was read at line "
                f"{read_rec['node'].lineno}, the process yielded, and "
                "is written here with no Resource held across the "
                "window; another writer can interleave at the yield",
            )
        if (
            not live_ids
            and self.model.locked_elsewhere(self.func_id, loc)
        ):
            self._flag(
                "unguarded-shared-write",
                node,
                loc,
                f"`{loc.render()}` is written without a Resource here "
                "but every other accessor holds one; this write races "
                "the locked regions",
            )
        prev = self.state["writes"].get(loc)
        if (
            prev is not None
            and prev["unprot"]
            and {prev["op"], op} == {"add", "sub"}
            and self.model.has_interferer(self.func_id, loc)
        ):
            self._flag(
                "interrupt-unsafe-update",
                node,
                loc,
                f"`{loc.render()}` is adjusted at line "
                f"{prev['node'].lineno} and balanced here across an "
                "unprotected yield; an Interrupted delivered between "
                "them leaves the counter permanently skewed",
            )
        if len(loc.path) >= 2:
            group = (loc.kind, loc.owner, loc.path[:-1])
            members = self.state["groups"].setdefault(group, {})
            for other_loc, other_rec in members.items():
                if other_loc == loc or not other_rec["unprot"]:
                    continue
                if not (
                    self.model.has_interferer(self.func_id, loc)
                    or self.model.has_interferer(self.func_id, other_loc)
                ):
                    continue
                owner = loc.render().rsplit(".", 1)[0]
                self._flag(
                    "interrupt-unsafe-update",
                    node,
                    group,
                    f"`{owner}` is updated field-by-field across an "
                    f"unprotected yield (`{other_loc.leaf}` at line "
                    f"{other_rec['node'].lineno}, `{loc.leaf}` here); "
                    "an Interrupted at the interior yield leaves it "
                    "half-updated",
                )
                break
            members[loc] = _new_record(node, live_ids, op)
        self.state["writes"][loc] = _new_record(node, live_ids, op)
        self.state["reads"].pop(loc, None)


def _collect_events(stmt, children):
    """``(reads, writes, yields)`` of one simple statement.

    Reads and writes are maximal attribute chains (chains in Store/Del
    context, AugAssign targets, and mutator calls count as writes;
    AugAssign targets also read). Yields cover Yield and YieldFrom.
    ``children`` is the module's :attr:`ScopeIndex.children`.
    """
    reads = []
    writes = []
    yields = []

    def visit(node):
        if node is None:
            return
        if isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
             ast.Lambda),
        ):
            return
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            yields.append(node)
            visit(node.value)
            return
        if isinstance(node, ast.AugAssign):
            chain = _chain(node.target)
            if chain is not None:
                reads.append((chain, node.target))
                writes.append((chain, node, _aug_op(node.op)))
            else:
                visit(node.target)
            visit(node.value)
            return
        if isinstance(node, (ast.Attribute, ast.Subscript, ast.Name)):
            chain = _chain(node)
            if chain is not None:
                ctx = getattr(node, "ctx", None)
                if isinstance(ctx, (ast.Store, ast.Del)):
                    op = "mut" if isinstance(node, ast.Subscript) else "set"
                    writes.append((chain, node, op))
                else:
                    reads.append((chain, node))
                for slice_expr in _chain_subscript_slices(node):
                    visit(slice_expr)
                return
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
                chain = _chain(func.value)
                if chain is not None:
                    writes.append((chain, node, "mut"))
                else:
                    visit(func.value)
            else:
                visit(func)
            for arg in node.args:
                visit(arg)
            for keyword in node.keywords:
                visit(keyword.value)
            return
        for child in children[node]:
            visit(child)

    visit(stmt)
    return reads, writes, yields


def _aug_op(op):
    if isinstance(op, ast.Add):
        return "add"
    if isinstance(op, ast.Sub):
        return "sub"
    return "aug"


def _released_handles(stmt):
    """Handle names ``release()``d anywhere in the statement."""
    names = set()
    for node in ast.walk(stmt):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "release"
            and isinstance(node.func.value, ast.Name)
            and not node.args
        ):
            names.add(node.func.value.id)
    return names


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _flag_lock_inversions(checker, sink):
    for (first, second), (node, func_id) in sorted(
        sink.pairs.items(),
        key=lambda item: (item[1][0].lineno, item[1][0].col_offset),
    ):
        if first == second:
            continue
        other = sink.pairs.get((second, first))
        if other is None:
            continue
        other_node, other_func = other
        checker.flag(
            "lock-order-inversion",
            node,
            f"`{second}` is requested while `{first}` is held, but "
            f"{other_func} (line {other_node.lineno}) requests "
            f"`{first}` while holding `{second}`; the two orders "
            "deadlock when the holders interleave at a yield",
        )


def _analyze(module):
    """Full module analysis: ``(findings, errors, sink)``."""
    facts = _ModuleSink()

    def analyze(index, sink):
        model = _ModuleModel(index)
        for func, _cls, func_id, scope in model.process_bodies:
            _BodyPass(sink, func, func_id, scope, model, facts).run()
        _flag_lock_inversions(sink, facts)

    findings, errors = check_module(module, RULES_BY_ID, analyze)
    return findings, errors, facts


def racecheck_source(source, path, resolved_path=None):
    """Racecheck one module's source text; returns ``(findings, errors)``."""
    return _analyze(SourceModule(path, source, resolved_path))[:2]


def racecheck_paths(paths):
    """Racecheck every ``*.py`` file under ``paths``.

    ``paths`` may also be loaded :class:`~repro.analysis.common.Sources`.
    """
    return check_paths(paths, lambda module: _analyze(module)[:2])


def lock_inventory(paths):
    """The yield-while-holding inventory for every file under ``paths``.

    Returns ``(records, errors)``; one record per yield executed while
    at least one Resource grant is live, sorted by location — the raw
    material behind ``lock-order-inversion`` and the honest answer to
    "what is ever held across a suspension?".
    """
    records = []

    def inventory(module):
        _findings, errors, facts = _analyze(module)
        records.extend(
            {"path": module.display, **row} for row in facts.inventory
        )
        return [], errors

    _findings, errors = check_paths(paths, inventory)
    records.sort(key=lambda row: (row["path"], row["line"]))
    return records, errors


def render_findings(findings, show_hints=True):
    """Human-readable report lines for racecheck findings."""
    return _render_findings(findings, RULES_BY_ID, show_hints=show_hints)
