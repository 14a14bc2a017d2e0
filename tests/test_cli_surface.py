"""The CLI's surface is a snapshot: every parser action of every command.

``repro`` builds only the invoked command's arguments, so the parser a
test builds is not the one a user runs unless both come from the same
table.  ``tests/data/cli_surface.json`` records, per command path, each
action's option strings, dest, default, choices, nargs, required flag,
help text, metavar and type -- fields that, unlike raw ``--help`` text,
do not change between Python versions.  Regenerate it (only for an
intended change of the CLI) with::

    PYTHONPATH=src python -c "import json, repro.cli as c; \\
        from tests.test_cli_surface import surface; \\
        print(json.dumps(surface(c.build_parser()), indent=1))" \\
        > tests/data/cli_surface.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _COMMANDS, build_parser

ROOT = Path(__file__).resolve().parents[1]
SNAPSHOT = json.loads((ROOT / "tests" / "data" / "cli_surface.json")
                      .read_text())


def _action(action: argparse.Action) -> dict:
    choices = action.choices
    return {
        "kind": type(action).__name__,
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "choices": None if choices is None else list(choices),
        "nargs": action.nargs,
        "required": action.required,
        "help": action.help,
        "metavar": action.metavar,
        "type": getattr(action.type, "__name__", None),
    }


def surface(parser: argparse.ArgumentParser, path: str = "") -> dict:
    """``{command path: [action fields]}`` for ``parser`` and every
    subcommand parser below it."""
    found = {path: [_action(action) for action in parser._actions]}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                found.update(surface(child, f"{path} {name}".strip()))
    return found


def test_full_parser_matches_the_snapshot():
    assert surface(build_parser()) == SNAPSHOT


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_invoked_command_alone_builds_its_snapshot(command):
    """What ``main`` builds for ``repro <command>``: every command name
    and help line, and only ``command``'s arguments."""
    built = surface(build_parser([command]))
    assert built[""] == SNAPSHOT[""]
    for path, actions in built.items():
        if path.split(" ")[0] == command:
            assert actions == SNAPSHOT[path], path
        elif path:
            # an uninvoked command is a bare parser: only -h
            assert [a["dest"] for a in actions] == ["help"], path


def test_flag_count():
    """119 flags and positionals across the 14 commands (``-h`` and the
    subcommand selectors not counted)."""
    count = sum(1 for path, actions in SNAPSHOT.items() if path
                for action in actions
                if action["kind"] not in ("_HelpAction", "_SubParsersAction"))
    assert count == 119


def _run(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80")
    return subprocess.run([sys.executable, "-m", "repro", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("argv", [[], ["bogus"], ["workload"],
                                  ["figures", "4z"]])
def test_usage_errors_match_the_full_parser(argv, capsys, monkeypatch):
    """``repro`` with no command or an unknown one fails exactly as the
    parser with every command built does (its wording varies across
    Python versions, so the full parser is the reference)."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    want = capsys.readouterr()
    done = _run(*argv)
    assert (done.returncode, done.stdout, done.stderr) == (
        exit_info.value.code, want.out, want.err)
    assert done.returncode == 2
    assert done.stderr.startswith("usage: repro")
