"""Machinery shared by the AST checkers.

Every checker speaks the same dialect: findings located at
``path:line:col`` with a stable rule id and a fix-it hint, suppression
through ``# repro: allow[rule-id]`` pragmas, an acknowledged-findings
baseline, and the 0/1/2 exit-code contract (clean / findings / the run
itself cannot be trusted). This module holds the dialect, the
one loader (:func:`load_sources`: each file is read, decoded and parsed
once per run, whichever tools then read it), the per-module scope index
(:class:`ScopeIndex`), the per-module driver (:func:`check_module`),
the DES process-body helpers and the one flow walker
(:class:`FlowWalker`), so :mod:`repro.analysis.lint`,
:mod:`repro.analysis.semcheck`, :mod:`repro.analysis.archcheck`, and
:mod:`repro.analysis.racecheck` only contain rules.

Pragmas are validated against the union of every checker's rule ids
(:func:`known_rule_ids`): a pragma naming a rule another checker owns
is silently inapplicable here, but a pragma naming a rule nobody owns
is a hard error — typos must fail the run, not rot.
"""

import ast
import fnmatch
import functools
import io
import pathlib
import re
import tokenize
from dataclasses import dataclass


@dataclass(frozen=True)
class RuleInfo:
    """One check rule: stable id, what it catches, and how to fix it."""

    id: str
    summary: str
    hint: str


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def key(self):
        """Identity used for baseline matching and de-duplication."""
        return (self.path, self.line, self.rule)

    def render(self):
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


@dataclass(frozen=True)
class LintError:
    """A configuration problem (bad pragma, stale/unknown baseline).

    Errors are not findings: they mean the check run itself cannot be
    trusted, so the CLI exits 2 instead of 1.
    """

    path: str
    line: int
    message: str

    def render(self):
        return f"{self.path}:{self.line}: error: {self.message}"


_PRAGMA = re.compile(r"#\s*repro:\s*(allow|allow-file)\[([^\]]*)\]")


def known_rule_ids():
    """Every rule id any checker owns (for pragma/typo validation)."""
    return frozenset(rule_owners())


def rule_owners():
    """Rule id -> owning checker name, across every checker.

    Rule ids are globally unique (a test pins this), so one flat map
    is enough to annotate a pragma with the tool it speaks to.
    """
    from repro.analysis import archcheck, lint, racecheck, semcheck

    owners = {}
    for name, rules in (
        ("lint", lint.RULES_BY_ID),
        ("semcheck", semcheck.RULES_BY_ID),
        ("archcheck", archcheck.RULES_BY_ID),
        ("racecheck", racecheck.RULES_BY_ID),
    ):
        for rule_id in rules:
            owners[rule_id] = name
    return owners


def _pragma_comments(source):
    """``(line, kind, rule ids)`` of every pragma in ``source``.

    Only real COMMENT tokens count: a pragma example quoted in a
    docstring or help string must not suppress anything.
    """
    if "repro:" not in source:
        return  # no pragma can match: skip the tokenizer
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        tokens = []
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        for match in _PRAGMA.finditer(token.string):
            rules = tuple(
                part.strip() for part in match.group(2).split(",")
                if part.strip()
            )
            yield token.start[0], match.group(1), rules


def parse_pragmas(module, applicable=None, known=None):
    """The suppression pragmas of a loaded :class:`SourceModule`.

    Anything with its ``display`` and ``pragmas`` attributes will do
    (archcheck passes its ``ModuleInfo``).

    Returns ``(line_allows, file_allows, errors)`` where ``line_allows``
    maps a line number to the rule ids allowed on that line, filtered to
    ``applicable`` (the running checker's rules). Rule ids outside
    ``known`` (default: every checker's rules) are
    :class:`LintError`\\ s — a typo'd pragma must fail the run, not
    silently suppress nothing (or worse, keep "working" after the rule
    it named is renamed). Rule ids known to another checker are valid
    but inert here.
    """
    known = known if known is not None else known_rule_ids()
    line_allows = {}
    file_allows = set()
    errors = []
    for lineno, kind, names in module.pragmas:
        rules = set(names)
        if not rules:
            errors.append(LintError(
                module.display, lineno, "empty repro pragma rule list"
            ))
            continue
        unknown = sorted(rules - set(known))
        if unknown:
            errors.append(
                LintError(
                    module.display,
                    lineno,
                    f"unknown rule id(s) in pragma: {', '.join(unknown)} "
                    f"(known: {', '.join(sorted(known))})",
                )
            )
            rules &= set(known)
        if applicable is not None:
            rules &= set(applicable)
        if kind == "allow":
            line_allows.setdefault(lineno, set()).update(rules)
        else:
            file_allows.update(rules)
    return line_allows, file_allows, errors


class AliasResolver:
    """Resolve call targets to dotted paths through import aliases.

    ``nodes`` are every node of the module, in :func:`ast.walk` order
    (:attr:`ScopeIndex.nodes`): a later import of a name wins.
    """

    def __init__(self, nodes, tracked_roots):
        self._tracked = tuple(tracked_roots)
        self._aliases = {}
        for node in nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in self._tracked:
                        self._aliases[alias.asname or root] = (
                            alias.name if alias.asname else root
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module.split(".")[0] in self._tracked:
                    for alias in node.names:
                        self._aliases[alias.asname or alias.name] = (
                            f"{module}.{alias.name}"
                        )

    def dotted(self, node):
        """Dotted path of a ``Name``/``Attribute`` chain, or ``None``."""
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self._aliases.get(node.id, node.id))
        return ".".join(reversed(parts))


def matches_any(path, patterns):
    """fnmatch ``path`` against any of ``patterns``."""
    return any(fnmatch.fnmatch(path, pattern) for pattern in patterns)


def display_path(path):
    """Repo-relative posix path when possible, absolute otherwise."""
    resolved = pathlib.Path(path).resolve()
    try:
        return resolved.relative_to(pathlib.Path.cwd()).as_posix()
    except ValueError:
        return resolved.as_posix()


def iter_python_files(paths):
    """Expand files/directories into a sorted list of ``*.py`` files."""
    files = set()
    for path in paths:
        path = pathlib.Path(path)
        if path.is_dir():
            files.update(path.rglob("*.py"))
        else:
            files.add(path)
    return sorted(files)


def _decode_source(data):
    """Decode a file's bytes as the interpreter does.

    The PEP 263 coding cookie names the encoding, else UTF-8
    (:func:`tokenize.detect_encoding`); newlines are translated as
    text-mode reading does. Raises :class:`SyntaxError` for a bad
    cookie and :class:`UnicodeDecodeError` for undecodable bytes.
    """
    encoding, _lines = tokenize.detect_encoding(io.BytesIO(data).readline)
    text = data.decode(encoding)
    return text.replace("\r\n", "\n").replace("\r", "\n")


class SourceModule:
    """One module: read and decoded once, parsed at most once.

    ``source`` is ``None`` when the file could not be read or decoded;
    ``tree`` is ``None`` then and when the source does not parse.
    ``error`` says why, as a :class:`LintError`; ``pragmas`` are the
    ``(line, kind, rule ids)`` of every pragma comment in the source.
    """

    def __init__(self, display, source=None, resolved=None, file=None):
        self.display = display
        self.source = source
        #: What path globs match against; defaults to ``display``.
        self.resolved = resolved or display
        #: The path as :func:`iter_python_files` expanded it, if any.
        self.file = file
        self._error = None

    @classmethod
    def read(cls, file_path):
        """Read and decode ``file_path``; a failure becomes ``error``."""
        resolved = file_path.resolve()
        module = cls(
            display_path(resolved), resolved=resolved.as_posix(),
            file=file_path,
        )
        try:
            module.source = _decode_source(file_path.read_bytes())
        except OSError as exc:
            module._error = LintError(
                str(file_path), 0, f"unreadable: {exc}"
            )
        except (SyntaxError, UnicodeDecodeError) as exc:
            line = 0  # a bad coding cookie has no position
            if isinstance(exc, UnicodeDecodeError):
                line = exc.object[:exc.start].count(b"\n") + 1
            module._error = LintError(
                module.display, line,
                f"cannot decode source ({exc}); save it as UTF-8 or "
                "declare its encoding (PEP 263)",
            )
        return module

    @functools.cached_property
    def tree(self):
        """The parsed module, or ``None`` (see :attr:`error`)."""
        if self.source is None:
            return None
        try:
            return ast.parse(self.source)
        except SyntaxError as exc:
            self._error = LintError(
                self.display, exc.lineno or 0, f"syntax error: {exc.msg}"
            )
            return None

    @property
    def error(self):
        """Why the module cannot be checked, or ``None``."""
        return self._error if self.tree is None else None

    @functools.cached_property
    def pragmas(self):
        """``(line, kind, rule ids)`` of every pragma comment."""
        if self.source is None:
            return ()
        return tuple(_pragma_comments(self.source))


class Sources(tuple):
    """The :class:`SourceModule`\\ s under a path list, in file order.

    Every ``*_paths`` entry point takes one in place of a path list, so
    a run that checks the same paths with several tools reads, decodes
    and parses each file once.
    """


def load_sources(paths):
    """Load every ``*.py`` file under ``paths``; a :class:`Sources` as is."""
    if isinstance(paths, Sources):
        return paths
    return Sources(
        SourceModule.read(file_path) for file_path in iter_python_files(paths)
    )


def check_paths(paths, check):
    """Run ``check(module)`` over every :class:`SourceModule`.

    The shared loop behind every ``*_paths`` entry point but
    archcheck's; ``paths`` is a path list or a :class:`Sources`.
    Returns combined ``(findings, errors)``.
    """
    findings = []
    errors = []
    for module in load_sources(paths):
        file_findings, file_errors = check(module)
        findings.extend(file_findings)
        errors.extend(file_errors)
    return findings, errors


class FindingSink:
    """One module's findings; the first report per location and rule wins."""

    def __init__(self, path):
        self.path = path
        self.findings = {}

    def flag(self, rule, node, message):
        finding = Finding(
            rule, self.path, node.lineno, node.col_offset, message
        )
        self.findings.setdefault(finding.key(), finding)


def check_module(module, rules_by_id, analyze):
    """Run one per-module checker over ``module``; ``(findings, errors)``.

    The driver behind the per-module checkers: a module that cannot be
    parsed is its :class:`LintError`; otherwise read the pragmas, let
    ``analyze(index, sink)`` flag into a :class:`FindingSink` through a
    fresh :class:`ScopeIndex` of the tree, drop what a pragma
    suppresses, and sort by location.
    """
    if module.tree is None:
        return [], [module.error]
    line_allows, file_allows, errors = parse_pragmas(
        module, applicable=set(rules_by_id)
    )
    sink = FindingSink(module.display)
    analyze(ScopeIndex(module.tree), sink)
    findings = [
        finding
        for _key, finding in sorted(sink.findings.items())
        if finding.rule not in file_allows
        and finding.rule not in line_allows.get(finding.line, ())
    ]
    return findings, errors


def render_findings(findings, rules_by_id, show_hints=True):
    """Human-readable report lines for a list of findings."""
    lines = []
    for finding in findings:
        lines.append(finding.render())
        if show_hints:
            rule = rules_by_id.get(finding.rule)
            if rule is not None:
                lines.append(f"    fix: {rule.hint}")
    return lines


def findings_to_json(findings):
    """The shared ``--format=json`` payload for every checker."""
    return [
        {
            "rule": finding.rule,
            "path": finding.path,
            "line": finding.line,
            "col": finding.col,
            "message": finding.message,
        }
        for finding in findings
    ]


def inventory_pragmas(paths, known=None):
    """Audit every ``# repro: allow[...]`` suppression under ``paths``.

    Returns ``(records, errors)``: one record per pragma, sorted by
    location, with the rule ids it names — the ``--list-pragmas`` view
    that keeps the suppression debt visible. Unknown rule ids are
    errors, exactly as they are during a check run.
    """
    known = known if known is not None else known_rule_ids()
    records = []

    def inventory(module):
        if module.source is None:
            return [], [module.error]
        errors = []
        for lineno, kind, rules in module.pragmas:
            unknown = sorted(set(rules) - set(known))
            if unknown:
                errors.append(LintError(
                    module.display, lineno,
                    f"unknown rule id(s) in pragma: {', '.join(unknown)}",
                ))
            records.append({
                "path": module.display,
                "line": lineno,
                "kind": kind,
                "rules": sorted(rules),
            })
        return [], errors

    _findings, errors = check_paths(paths, inventory)
    records.sort(key=lambda record: (record["path"], record["line"]))
    return records, errors


# ---------------------------------------------------------------------------
# Scope index
# ---------------------------------------------------------------------------

#: Nodes that open a new function scope.
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
#: Nodes whose bodies :meth:`ScopeIndex.scope_nodes` leaves to their
#: own scope.
_SCOPES = _DEFS + (ast.Lambda, ast.ClassDef)


def _child_nodes(node):
    """``tuple(ast.iter_child_nodes(node))``, same order, one call."""
    children = []
    for name in node._fields:
        value = getattr(node, name, None)
        if isinstance(value, list):
            for item in value:
                if isinstance(item, ast.AST):
                    children.append(item)
        elif isinstance(value, ast.AST):
            children.append(value)
    return tuple(children)


class ScopeIndex:
    """Memoized walks of one module's tree, for one tool's pass over it.

    Construction walks the tree once: ``nodes`` is every node in
    :func:`ast.walk` order and ``children`` maps each node to the
    tuple of its direct children, in field order. The other walks
    derive from ``children``; each is computed once and kept as a
    tuple keyed by the node object it starts from. An index lives as
    long as one checker's look at one module.
    """

    def __init__(self, tree):
        self.tree = tree
        children = self.children = {}
        order = [tree]
        # Appending while iterating visits the appended nodes too: a
        # breadth-first queue without the pops, as ast.walk walks.
        for node in order:
            kids = children[node] = _child_nodes(node)
            order.extend(kids)
        self.nodes = tuple(order)
        self._parents = None
        self._own = {}
        self._scoped = {}

    def parents(self):
        """Child node -> parent node over the whole tree."""
        if self._parents is None:
            children = self.children
            self._parents = {
                child: node for node in self.nodes for child in children[node]
            }
        return self._parents

    def own_nodes(self, owner):
        """The nodes of ``owner.body``, not descending into nested defs.

        Depth first, last statement first. A nested def is yielded but
        not entered; a lambda or class body is entered.
        """
        nodes = self._own.get(owner)
        if nodes is None:
            nodes = self._own[owner] = self._scope_walk(
                list(owner.body), _DEFS
            )
        return nodes

    def scope_nodes(self, node):
        """The nodes under ``node``, not entering nested scopes.

        A def's arguments, decorators and return annotation count. A
        nested def, lambda or class is yielded but not entered.
        """
        nodes = self._scoped.get(node)
        if nodes is None:
            nodes = self._scoped[node] = self._scope_walk(
                list(self.children[node]), _SCOPES
            )
        return nodes

    def _scope_walk(self, stack, stops):
        children = self.children
        nodes = []
        while stack:
            node = stack.pop()
            nodes.append(node)
            if not isinstance(node, stops):
                stack.extend(children[node])
        return tuple(nodes)


class IndexedVisitor(ast.NodeVisitor):
    """An :class:`ast.NodeVisitor` that reads children from ``self.index``.

    Same visit order as the stock visitor, without re-deriving each
    node's children from its fields.
    """

    index = None

    def generic_visit(self, node):
        """Visit each child of ``node``, in field order."""
        for child in self.index.children[node]:
            self.visit(child)


# ---------------------------------------------------------------------------
# DES process bodies
# ---------------------------------------------------------------------------

#: Call names that construct yieldable events (process-body heuristic).
_EVENT_CONSTRUCTORS = frozenset(
    {"Sleep", "Work", "WaitFor", "Timeout", "Event", "AllOf", "AnyOf"}
)
_EVENT_METHODS = frozenset(
    {"timeout", "event", "request", "any_of", "all_of", "get", "process"}
)


def has_own_yield(index, func):
    """Whether ``func`` itself (not a nested def) is a generator."""
    return any(
        isinstance(node, (ast.Yield, ast.YieldFrom))
        for node in index.own_nodes(func)
    )


def is_request_call(node):
    """Whether ``node`` is a ``<resource>.request()`` call."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "request"
    )


def is_eventish(node, handles):
    """Whether a yielded expression looks like an Event."""
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name):
            return node.func.id in _EVENT_CONSTRUCTORS
        if isinstance(node.func, ast.Attribute):
            return node.func.attr in _EVENT_METHODS
        return False
    if isinstance(node, ast.Name):
        return node.id in handles
    return False


def process_like(index, func, stages=False):
    """Whether ``func`` looks like a DES process body.

    A body that yields an Event or requests a Resource is one. With
    ``stages``, so is a body that delegates through ``yield from
    call()`` — a stage of a process. Racecheck needs stages (a read and
    a write split by a stage still race); semcheck must not use them,
    or every plain recursive generator would be held to the Event-only
    yield rule.
    """
    own = index.own_nodes(func)
    handles = {
        stmt.targets[0].id
        for stmt in own
        if isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
        and is_request_call(stmt.value)
    }
    for node in own:
        if (
            isinstance(node, ast.Yield)
            and node.value is not None
            and is_eventish(node.value, handles)
        ):
            return True
        if stages and isinstance(node, ast.YieldFrom) and isinstance(
            node.value, ast.Call
        ):
            return True
        if is_request_call(node):
            return True
    return False


def handler_catches_interrupt(handler):
    """Whether an except clause would catch :class:`Interrupted`."""
    if handler.type is None:
        return True
    names = set()
    nodes = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for node in nodes:
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return bool(names & {"Interrupted", "Exception", "BaseException"})


class FlowWalker:
    """The forward walk over one function body that the flow passes share.

    The walker owns the control flow: statement lists, branch joins,
    the two-pass loop, ``try``/``except``/``else``/``finally`` and
    ``with``. A pass keeps its abstract state in ``self.state`` and
    supplies only its own behaviour through the hooks below. Nested
    defs and classes are skipped; each is walked on its own.
    """

    def __init__(self):
        self.state = None
        #: >0 while walking ``except`` bodies.
        self.handler_depth = 0
        #: >0 while walking ``finally`` bodies.
        self.finally_depth = 0

    # -- hooks -----------------------------------------------------------

    def copy_state(self, state):
        """An independent copy of ``state`` for one branch."""
        raise NotImplementedError

    def merge_states(self, a, b):
        """The join of two paths' states; must not alias either input."""
        raise NotImplementedError

    def transfer(self, node):
        """Apply one simple statement, loop header or branch test."""
        raise NotImplementedError

    def exit_check(self, stmt):
        """The body leaves at this ``return`` or ``raise``."""

    def enter_loop(self, stmt):
        """After the loop header, before the body passes."""

    def begin_iteration(self):
        """Before each pass over a loop body and before its ``else``."""

    def protect_try(self, stmt, delta):
        """Around a ``try`` body: ``delta`` is +1 on entry, -1 on exit."""

    def enter_with(self, stmt):
        """Apply the ``with`` items; the result goes to :meth:`exit_with`."""

    def exit_with(self, stmt, entered):
        """After the ``with`` body."""

    # -- the walk --------------------------------------------------------

    def walk_block(self, body):
        """Walk a statement list; True when it definitely terminates.

        A block ending in ``return``/``raise``/``break``/``continue``
        (or an ``if`` whose branches all do) contributes no state to
        the join after its parent statement.
        """
        for stmt in body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if isinstance(stmt, ast.If):
                if self._walk_if(stmt):
                    return True
            elif isinstance(stmt, (ast.While, ast.For)):
                self._walk_loop(stmt)
            elif isinstance(stmt, ast.Try):
                self._walk_try(stmt)
            elif isinstance(stmt, ast.With):
                entered = self.enter_with(stmt)
                self.walk_block(stmt.body)
                self.exit_with(stmt, entered)
            else:
                self.transfer(stmt)
                if isinstance(stmt, (ast.Return, ast.Raise)):
                    self.exit_check(stmt)
                if isinstance(
                    stmt, (ast.Return, ast.Raise, ast.Break, ast.Continue)
                ):
                    return True
        return False

    def _walk_if(self, stmt):
        self.transfer(stmt.test)
        entry = self.copy_state(self.state)
        then_done = self.walk_block(stmt.body)
        then_state = self.state
        self.state = entry
        else_done = self.walk_block(stmt.orelse)
        if then_done and else_done:
            return True
        if else_done:
            self.state = then_state
        elif not then_done:
            self.state = self.merge_states(then_state, self.state)
        return False

    def _walk_loop(self, stmt):
        self.transfer(stmt.test if isinstance(stmt, ast.While) else stmt.iter)
        self.enter_loop(stmt)
        entry = self.copy_state(self.state)
        # The second pass starts from the back-edge join, so state
        # carried into the next iteration is seen.
        for _round in range(2):
            self.begin_iteration()
            self.walk_block(stmt.body)
            self.state = self.merge_states(entry, self.state)
        self.begin_iteration()
        self.walk_block(stmt.orelse)

    def _walk_try(self, stmt):
        entry = self.copy_state(self.state)
        self.protect_try(stmt, 1)
        body_done = self.walk_block(stmt.body)
        self.protect_try(stmt, -1)
        body_state = self.copy_state(self.state)
        exits = []
        if not body_done:
            self.walk_block(stmt.orelse)
            exits.append(self.state)
        self.handler_depth += 1
        for handler in stmt.handlers:
            # A handler can run after any prefix of the body: its input
            # is the join of the entry and body-exit states.
            self.state = self.merge_states(entry, body_state)
            if not self.walk_block(handler.body):
                exits.append(self.state)
        self.handler_depth -= 1
        if exits:
            self.state = exits[0]
            for other in exits[1:]:
                self.state = self.merge_states(self.state, other)
        else:
            self.state = self.merge_states(entry, body_state)
        if stmt.finalbody:
            self.finally_depth += 1
            self.walk_block(stmt.finalbody)
            self.finally_depth -= 1
