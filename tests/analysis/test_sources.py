"""The shared loader and scope index behind every checker.

``check`` reads, decodes and parses each file once and hands the same
trees to all four tools; each tool walks them through a per-module
:class:`~repro.analysis.common.ScopeIndex`. These tests pin that the
sharing is invisible (same findings and errors as a tool run alone),
that it really happens (one parse per file), that decoding follows
the interpreter rather than the locale, and that the memoized walks
keep the exact order of the walks they replace.
"""

import ast
import collections
import os
import pathlib
import subprocess
import sys

from repro import cli
from repro.analysis import archcheck, common, lint, racecheck, semcheck

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
FIXTURES = REPO_ROOT / "tests" / "analysis" / "fixtures"
CONTRACT = REPO_ROOT / ".repro-arch.toml"


def _sections(text):
    """``check`` text output split into its ``== tool ==`` sections."""
    sections = {}
    lines = None
    for line in text.splitlines():
        if line.startswith("== ") and line.endswith(" =="):
            lines = sections[line[3:-3]] = []
        elif lines is not None:
            lines.append(line)
    return sections


def test_undecodable_file_is_one_error_per_tool(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_bytes(b'x = "\xff"\n')
    display = bad.resolve().as_posix()
    code = cli.main(["check", "--contract", str(CONTRACT), str(tmp_path)])
    sections = _sections(capsys.readouterr().out)
    # A decode failure means the run cannot be trusted: exit 2, not a
    # traceback (which exits 1 and reads as "findings").
    assert code == 2
    assert set(sections) == set(cli.CHECK_TOOLS)
    for name, lines in sections.items():
        errors = [line for line in lines if "error: cannot decode" in line]
        assert len(errors) == 1, (name, lines)
        assert errors[0].startswith(f"{display}:")

    for findings, errors in (
        lint.lint_paths([tmp_path]),
        semcheck.semcheck_paths([tmp_path]),
        archcheck.archcheck_paths([tmp_path], contract_path=CONTRACT),
        racecheck.racecheck_paths([tmp_path]),
    ):
        assert findings == []
        assert [error.path for error in errors] == [display]


def test_coding_cookie_and_bom_decode_as_the_interpreter_does(tmp_path):
    latin = tmp_path / "latin.py"
    latin.write_bytes(b'# -*- coding: latin-1 -*-\nNAME = "caf\xe9"\n')
    bom = tmp_path / "bom.py"
    bom.write_bytes(b"\xef\xbb\xbfVALUE = 1\r\n")
    sources = common.load_sources([tmp_path])
    assert [module.error for module in sources] == [None, None]
    assert [module.source for module in sources] == [
        "VALUE = 1\n",
        '# -*- coding: latin-1 -*-\nNAME = "caf\xe9"\n',
    ]


def test_check_reads_utf8_sources_under_an_ascii_locale():
    kernel = REPO_ROOT / "src" / "repro" / "android" / "kernel.py"
    # The test only means something while the file is not pure ASCII.
    assert not kernel.read_bytes().isascii()
    env = dict(
        os.environ,
        LC_ALL="C",
        PYTHONCOERCECLOCALE="0",
        PYTHONUTF8="0",
        PYTHONPATH=str(REPO_ROOT / "src"),
    )
    result = subprocess.run(
        [sys.executable, "-m", "repro", "check", "--tool", "lint",
         "src/repro/android/kernel.py"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_check_parses_each_file_once(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    parse = ast.parse
    parsed = collections.Counter()

    def counting_parse(source, *args, **kwargs):
        # Module parses only: a contract read by the TOML fallback
        # parser goes through ast.literal_eval (mode="eval").
        if not args and kwargs.get("mode", "exec") == "exec":
            parsed[source] += 1
        return parse(source, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    code = cli.main([
        "check", "--format=json", "--contract", str(CONTRACT),
        "tests/analysis/fixtures",
    ])
    capsys.readouterr()
    assert code == 1
    expected = collections.Counter(
        path.read_text(encoding="utf-8") for path in FIXTURES.rglob("*.py")
    )
    assert parsed == expected


def test_all_tools_report_what_each_tool_reports_alone(
    monkeypatch, tmp_path, capsys
):
    # Shared trees must leak no state from one tool into the next:
    # findings, hints and errors (a syntax error here) match per tool.
    monkeypatch.chdir(REPO_ROOT)
    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n    pass\n")
    paths = ["tests/analysis/fixtures", str(broken)]
    base = ["check", "--contract", str(CONTRACT)]
    assert cli.main(base + paths) == 2
    together = _sections(capsys.readouterr().out)
    assert set(together) == set(cli.CHECK_TOOLS)
    for name in cli.CHECK_TOOLS:
        assert cli.main(base + ["--tool", name] + paths) == 2
        alone = _sections(capsys.readouterr().out)
        assert alone == {name: together[name]}
        assert any("syntax error" in line for line in alone[name])


# -- scope index -----------------------------------------------------------


def _reference_own_nodes(body):
    """The walk ``own_nodes(body)`` did before the index existed."""
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _reference_scope_nodes(node):
    """The walk archcheck's ``_own_nodes(node)`` did before the index."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(
            child,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
        ):
            continue
        stack.extend(ast.iter_child_nodes(child))


def test_scope_index_walks_keep_their_order():
    tree = ast.parse((REPO_ROOT / "src" / "repro" / "cli.py").read_text(
        encoding="utf-8"
    ))
    index = common.ScopeIndex(tree)
    assert index.nodes == tuple(ast.walk(tree))
    scopes = [tree] + [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for scope in scopes:
        assert index.own_nodes(scope) == tuple(
            _reference_own_nodes(scope.body)
        )
        assert index.scope_nodes(scope) == tuple(
            _reference_scope_nodes(scope)
        )
        # Memoized: the same tuple object on every call.
        assert index.own_nodes(scope) is index.own_nodes(scope)
    parents = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    assert index.parents() == parents
