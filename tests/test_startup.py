"""Start-up cost: commands import only what they use.

``check`` and ``--help`` must start without numpy or the simulator; the
package surfaces resolve their re-exports on first access, and the
parser registers only the invoked command's arguments.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
import repro.analysis
from repro import cli

SRC = pathlib.Path(repro.__file__).resolve().parents[1]


def _run_python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True,
        timeout=120,
    )


def test_check_needs_no_third_party_package():
    # -S hides site-packages: importing numpy would fail the command.
    result = _run_python(
        "-S", "-m", "repro", "check", "--check",
        str(SRC / "repro" / "analysis"),
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "check: all clean" in result.stdout


def test_check_and_help_load_neither_numpy_nor_the_simulator():
    target = str(SRC / "repro" / "cli.py")
    script = f"""
import sys
from repro.cli import main
assert main(["check", "--tool", "lint", {target!r}]) == 0
try:
    main(["--help"])
except SystemExit:
    pass
loaded = sorted(
    name for name in sys.modules
    if name == "numpy" or name.startswith(("numpy.", "repro.sim"))
)
print("loaded:", loaded)
"""
    result = _run_python("-c", script)
    assert result.returncode == 0, result.stderr
    assert "loaded: []" in result.stdout


def _help(parser, argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        parser.parse_args(argv)
    assert exit_info.value.code == 0
    return capsys.readouterr().out


def test_per_command_parser_help_matches_the_full_parser(capsys):
    full = cli.build_parser()
    assert _help(cli.build_parser(""), ["--help"], capsys) == _help(
        full, ["--help"], capsys
    )
    for name in cli.COMMANDS:
        alone = _help(cli.build_parser(name), [name, "--help"], capsys)
        assert alone == _help(full, [name, "--help"], capsys), name


@pytest.mark.parametrize("argv, message", [
    (["run", "--soc", "nope"], "argument --soc: invalid choice: 'nope'"),
    (["experiment", "nope"], "argument id: invalid choice: 'nope'"),
    (["trace", "nope"], "argument scenario: invalid choice: 'nope'"),
    (["serve", "--policy", "nope"],
     "argument --policy: invalid choice: 'nope'"),
    (["serve", "--arrivals", "nope"],
     "argument --arrivals: invalid choice: 'nope'"),
    (["bogus"], "argument command: invalid choice: 'bogus'"),
])
def test_invalid_choices_fail_as_before(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("package", [repro, repro.analysis])
def test_every_lazy_export_resolves(package):
    for name in package.__all__:
        namespace = {}
        exec(f"from {package.__name__} import {name}", namespace)
        assert namespace[name] is getattr(package, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
