"""Machinery shared by the AST checkers.

Every checker speaks the same dialect: findings located at
``path:line:col`` with a stable rule id and a fix-it hint, suppression
through ``# repro: allow[rule-id]`` pragmas, an acknowledged-findings
baseline, and the 0/1/2 exit-code contract (clean / findings / the run
itself cannot be trusted). This module holds the dialect, the
per-module driver (:func:`check_module`), the DES process-body helpers
and the one flow walker (:class:`FlowWalker`), so
:mod:`repro.analysis.lint`, :mod:`repro.analysis.semcheck`,
:mod:`repro.analysis.archcheck`, and :mod:`repro.analysis.racecheck`
only contain rules.

Pragmas are validated against the union of every checker's rule ids
(:func:`known_rule_ids`): a pragma naming a rule another checker owns
is silently inapplicable here, but a pragma naming a rule nobody owns
is a hard error — typos must fail the run, not rot.
"""

import ast
import fnmatch
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
            rules = [
                part.strip() for part in match.group(2).split(",")
                if part.strip()
            ]
            yield token.start[0], match.group(1), rules


def parse_pragmas(source, path, applicable=None, known=None):
    """Extract suppression pragmas from ``source``.

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
    for lineno, kind, names in _pragma_comments(source):
        rules = set(names)
        if not rules:
            errors.append(
                LintError(path, lineno, "empty repro pragma rule list")
            )
            continue
        unknown = sorted(rules - set(known))
        if unknown:
            errors.append(
                LintError(
                    path,
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
    """Resolve call targets to dotted paths through import aliases."""

    def __init__(self, tree, tracked_roots):
        self._tracked = tuple(tracked_roots)
        self._aliases = {}
        for node in ast.walk(tree):
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


def check_paths(paths, check_source):
    """Run ``check_source(source, display, resolved)`` over every file.

    The shared directory-walking loop behind ``lint_paths`` and
    ``semcheck_paths``; returns combined ``(findings, errors)``.
    """
    findings = []
    errors = []
    for file_path in iter_python_files(paths):
        try:
            source = file_path.read_text()
        except OSError as exc:
            errors.append(LintError(str(file_path), 0, f"unreadable: {exc}"))
            continue
        file_findings, file_errors = check_source(
            source,
            display_path(file_path),
            file_path.resolve().as_posix(),
        )
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


def check_module(source, path, rules_by_id, analyze):
    """Run one per-module checker over ``source``; ``(findings, errors)``.

    The driver behind ``lint_source``, ``semcheck_source`` and
    ``racecheck_source``: parse (a syntax error is a :class:`LintError`),
    read the pragmas, let ``analyze(tree, sink)`` flag into a
    :class:`FindingSink`, drop what a pragma suppresses, and sort by
    location.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [], [
            LintError(path, exc.lineno or 0, f"syntax error: {exc.msg}")
        ]
    line_allows, file_allows, errors = parse_pragmas(
        source, path, applicable=set(rules_by_id)
    )
    sink = FindingSink(path)
    analyze(tree, sink)
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

    def inventory(source, display, _resolved):
        errors = []
        for lineno, kind, rules in _pragma_comments(source):
            unknown = sorted(set(rules) - set(known))
            if unknown:
                errors.append(LintError(
                    display, lineno,
                    f"unknown rule id(s) in pragma: {', '.join(unknown)}",
                ))
            records.append({
                "path": display,
                "line": lineno,
                "kind": kind,
                "rules": sorted(rules),
            })
        return [], errors

    _findings, errors = check_paths(paths, inventory)
    records.sort(key=lambda record: (record["path"], record["line"]))
    return records, errors


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


def own_nodes(body):
    """Walk nodes of a scope without descending into nested defs."""
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def has_own_yield(func):
    """Whether ``func`` itself (not a nested def) is a generator."""
    return any(
        isinstance(node, (ast.Yield, ast.YieldFrom))
        for node in own_nodes(func.body)
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


def process_like(func, stages=False):
    """Whether ``func`` looks like a DES process body.

    A body that yields an Event or requests a Resource is one. With
    ``stages``, so is a body that delegates through ``yield from
    call()`` — a stage of a process. Racecheck needs stages (a read and
    a write split by a stage still race); semcheck must not use them,
    or every plain recursive generator would be held to the Event-only
    yield rule.
    """
    handles = {
        stmt.targets[0].id
        for stmt in own_nodes(func.body)
        if isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
        and is_request_call(stmt.value)
    }
    for node in own_nodes(func.body):
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
