"""Golden pin of every finding ``check`` reports over the fixtures.

``check_json_schema.json`` pins the *shape* of the payload; this file
pins its *content*: the exact ``(tool, rule, path, line, col, message)``
rows the four checkers report over ``tests/analysis/fixtures``. The
column and message are pinned too: a checker keeps the first finding
per (path, line, rule), so a change in walk order shows up as a
different message. A refactor of the analysis plumbing must leave it
unchanged; a deliberate rule change regenerates it in the same
commit::

    PYTHONPATH=src python -m repro check --format=json \\
        tests/analysis/fixtures
"""

import json
import pathlib

from repro import cli

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
GOLDEN = (
    pathlib.Path(__file__).parent / "goldens" / "fixture_findings.json"
)


def _findings(payload):
    return sorted(
        [
            tool, item["rule"], item["path"], item["line"], item["col"],
            item["message"],
        ]
        for tool, items in payload.items()
        for item in items
    )


def test_fixture_findings_match_the_golden(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    code = cli.main([
        "check", "--format=json", "--contract", ".repro-arch.toml",
        "tests/analysis/fixtures",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert _findings(payload) == json.loads(GOLDEN.read_text())


def test_source_tree_passes_check_in_ci_mode(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    assert cli.main(["check", "--check", "src"]) == 0
    assert "check: all clean" in capsys.readouterr().out
