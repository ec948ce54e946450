"""The shared checker machinery itself: pragmas, baselines, JSON.

lint/semcheck/archcheck all ride on analysis/common.py and
analysis/baseline.py; these tests pin the cross-tool contract — one
pragma namespace spanning every checker, baselines that only shrink,
and a stable JSON finding schema.
"""

import json

import pytest

from repro.analysis import archcheck, baseline, common, lint, semcheck


def test_known_rule_ids_union_all_three_checkers():
    known = common.known_rule_ids()
    assert set(lint.RULES_BY_ID) <= known
    assert set(semcheck.RULES_BY_ID) <= known
    assert set(archcheck.RULES_BY_ID) <= known
    # The checkers own disjoint rule-id namespaces.
    assert not set(lint.RULES_BY_ID) & set(archcheck.RULES_BY_ID)
    assert not set(semcheck.RULES_BY_ID) & set(archcheck.RULES_BY_ID)


def test_pragma_for_another_checker_is_inert_not_an_error(tmp_path):
    # A file carrying only archcheck pragmas must lint clean: shared
    # namespace means no checker rejects another checker's rule ids.
    target = tmp_path / "mod.py"
    target.write_text(
        "# repro: allow-file[sim-blocking-call]\n"
        "VALUE = 1  # repro: allow[layer-violation]\n"
    )
    findings, errors = lint.lint_paths([target])
    assert findings == []
    assert errors == []
    findings, errors = semcheck.semcheck_paths([target])
    assert findings == []
    assert errors == []


def test_findings_to_json_schema():
    finding = common.Finding("wall-clock", "a.py", 3, 7, "tick")
    payload = common.findings_to_json([finding])
    assert json.loads(json.dumps(payload)) == [{
        "rule": "wall-clock",
        "path": "a.py",
        "line": 3,
        "col": 7,
        "message": "tick",
    }]


def test_baseline_round_trip_preserves_unknown_free_entries(tmp_path):
    path = tmp_path / "baseline.json"
    findings = [
        common.Finding("wall-clock", "b.py", 9, 0, "m"),
        common.Finding("wall-clock", "a.py", 4, 0, "m"),
    ]
    count = baseline.write_baseline(path, findings)
    assert count == 2
    entries, errors = baseline.load_baseline(
        path, known_rules=common.known_rule_ids()
    )
    assert errors == []
    assert [e.key() for e in entries] == [
        ("a.py", 4, "wall-clock"),
        ("b.py", 9, "wall-clock"),
    ]


def test_baseline_rejects_rules_unknown_to_every_checker(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({
        "version": 1,
        "entries": [
            {"rule": "sim-blocking-call", "path": "a.py", "line": 1},
            {"rule": "never-a-rule", "path": "a.py", "line": 2},
        ],
    }))
    entries, errors = baseline.load_baseline(
        path, known_rules=common.known_rule_ids()
    )
    # The archcheck rule parses (family-wide namespace); the junk
    # entry is a hard error, not a silent skip.
    assert [e.rule for e in entries] == ["sim-blocking-call"]
    assert len(errors) == 1
    assert "never-a-rule" in errors[0].message


def test_inventory_pragmas_lists_every_suppression(tmp_path):
    first = tmp_path / "first.py"
    first.write_text(
        "import time\n"
        "T0 = time.time()  # repro: allow[wall-clock]\n"
    )
    second = tmp_path / "second.py"
    second.write_text("# repro: allow-file[unsorted-items, wall-clock]\n")
    records, errors = common.inventory_pragmas([tmp_path])
    assert errors == []
    assert records == [
        {
            "path": str(first),
            "line": 2,
            "kind": "allow",
            "rules": ["wall-clock"],
        },
        {
            "path": str(second),
            "line": 1,
            "kind": "allow-file",
            "rules": ["unsorted-items", "wall-clock"],
        },
    ]


def test_inventory_pragmas_flags_unknown_rule_ids(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("VALUE = 1  # repro: allow[bogus-rule]\n")
    records, errors = common.inventory_pragmas([tmp_path])
    # The record still appears (the audit shows everything) but the
    # unknown rule id is a hard error, exactly as in a check run.
    assert [record["rules"] for record in records] == [["bogus-rule"]]
    assert len(errors) == 1
    assert "bogus-rule" in errors[0].message


def test_rule_owners_covers_every_known_rule_exactly_once():
    owners = common.rule_owners()
    assert set(owners) == set(common.known_rule_ids())
    assert set(owners.values()) == {
        "lint", "semcheck", "archcheck", "racecheck",
    }
    assert owners["wall-clock"] == "lint"
    assert owners["sim-blocking-call"] == "archcheck"
    assert owners["atomicity-violation"] == "racecheck"


def test_prune_baseline_drops_only_stale_entries(tmp_path):
    path = tmp_path / "baseline.json"
    live = common.Finding("wall-clock", "a.py", 4, 0, "m")
    gone = common.Finding("wall-clock", "b.py", 9, 0, "m")
    baseline.write_baseline(path, [live, gone])

    kept, pruned, errors = baseline.prune_baseline(
        path, [live], known_rules=common.known_rule_ids()
    )
    assert errors == []
    assert [e.key() for e in kept] == [("a.py", 4, "wall-clock")]
    assert [e.key() for e in pruned] == [("b.py", 9, "wall-clock")]
    # The file was rewritten without the stale entry.
    entries, errors = baseline.load_baseline(
        path, known_rules=common.known_rule_ids()
    )
    assert errors == []
    assert [e.key() for e in entries] == [("a.py", 4, "wall-clock")]


def test_prune_baseline_never_repairs_an_unreadable_file(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text("{not json")
    before = path.read_text()
    _kept, pruned, errors = baseline.prune_baseline(
        path, [], known_rules=common.known_rule_ids()
    )
    assert pruned == []
    assert len(errors) == 1
    assert path.read_text() == before


def test_prune_baseline_leaves_a_current_file_untouched(tmp_path):
    path = tmp_path / "baseline.json"
    live = common.Finding("wall-clock", "a.py", 4, 0, "m")
    baseline.write_baseline(path, [live])
    stamp = path.read_text()
    kept, pruned, errors = baseline.prune_baseline(
        path, [live], known_rules=common.known_rule_ids()
    )
    assert (len(kept), pruned, errors) == (1, [], [])
    assert path.read_text() == stamp


def test_list_pragmas_merges_rows_and_annotates_owning_tools(
        tmp_path, capsys):
    from repro import cli

    target = tmp_path / "mod.py"
    target.write_text(
        "import time\n"
        "T0 = time.time()  # repro: allow[wall-clock]\n"
        "X = 1  # repro: allow[atomicity-violation]\n"
        "# repro: allow-file[sim-blocking-call]\n"
    )
    assert cli.main(["check", str(target), "--list-pragmas"]) == 0
    out = capsys.readouterr().out
    assert "allow[wall-clock] (lint)" in out
    assert "allow[atomicity-violation] (racecheck)" in out
    assert "allow-file[sim-blocking-call] (archcheck)" in out
    assert "3 pragma(s)" in out

    assert cli.main([
        "check", str(target), "--list-pragmas", "--format=json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["tools"] for row in payload] == [
        ["lint"], ["racecheck"], ["archcheck"],
    ]
    assert all(row["unrecognized"] == [] for row in payload)


def test_list_pragmas_flags_rules_no_tool_recognizes(tmp_path, capsys):
    from repro import cli

    target = tmp_path / "mod.py"
    target.write_text("X = 1  # repro: allow[not-anyones-rule]\n")
    assert cli.main(["check", str(target), "--list-pragmas"]) == 2
    out = capsys.readouterr().out
    assert "unrecognized by every tool: not-anyones-rule" in out


def test_cli_update_baseline_prunes_and_reports(tmp_path, capsys):
    from repro import cli

    target = tmp_path / "mod.py"
    target.write_text("import time\nT0 = time.time()\n")
    path = tmp_path / "baseline.json"
    assert cli.main([
        "check", "--tool", "lint", str(target),
        "--baseline", str(path), "--write-baseline",
    ]) == 0
    capsys.readouterr()

    # Nothing stale yet: the file is left alone.
    assert cli.main([
        "check", "--tool", "lint", str(target),
        "--baseline", str(path), "--update-baseline",
    ]) == 0
    assert "pruned 0 stale entries, 1 kept" in capsys.readouterr().out

    # Fix the hazard; the acknowledged entry is now stale and pruned.
    target.write_text("VALUE = 1\n")
    assert cli.main([
        "check", "--tool", "lint", str(target),
        "--baseline", str(path), "--update-baseline",
    ]) == 0
    out = capsys.readouterr().out
    assert "[wall-clock]" in out
    assert "pruned 1 stale entry, 0 kept" in out
    assert json.loads(path.read_text())["entries"] == []


@pytest.mark.parametrize("flag", ["--write-baseline", "--update-baseline"])
def test_cli_baseline_edit_skips_a_run_with_errors(tmp_path, capsys, flag):
    from repro import cli

    target = tmp_path / "mod.py"
    target.write_text("import time\nT0 = time.time()\n")
    path = tmp_path / "baseline.json"
    argv = ["check", "--tool", "lint", str(target), "--baseline", str(path)]
    assert cli.main(argv + ["--write-baseline"]) == 0
    before = path.read_bytes()
    capsys.readouterr()

    # A file that no longer parses says nothing about which findings
    # still exist: the acknowledged entry must survive.
    target.write_text("import time\nT0 = time.time(\n")
    assert cli.main(argv + [flag]) == 2
    assert path.read_bytes() == before
    assert "pruned" not in capsys.readouterr().out


def test_cli_json_mode_keeps_baseline_diagnostics_off_stdout(
    tmp_path, capsys
):
    from repro import cli

    target = tmp_path / "mod.py"
    target.write_text("VALUE = 1\n")
    assert cli.main([
        "check", str(target), "--format", "json",
        "--baseline", str(tmp_path / "baseline.json"),
    ]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "a baseline belongs to one tool" in captured.err


def test_repo_pragma_inventory_is_tiny():
    # Every committed suppression must be deliberate; inventory the
    # real tree so new pragmas show up in review.
    import pathlib

    src = pathlib.Path(common.__file__).resolve().parents[1]
    records, errors = common.inventory_pragmas([src])
    assert errors == []
    assert len(records) <= 4, records
    for record in records:
        assert record["kind"] in {"allow", "allow-file"}
