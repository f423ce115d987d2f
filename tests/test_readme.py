"""The README names only what `bmm` exports and the flags its CLI takes."""

from __future__ import annotations

import argparse
import re
from pathlib import Path

import bmm
from bmm import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_imports_are_exported():
    blocks = re.findall(r"from bmm import \(([^)]*)\)", README.read_text(encoding="utf-8"))
    assert blocks, "README has no `from bmm import (...)` block"
    names = [name.strip() for block in blocks for name in block.split(",") if name.strip()]
    assert names
    for name in names:
        assert name in bmm.__all__, name
        assert hasattr(bmm, name), name


def test_readme_flags_exist():
    """Every `--flag` the README names, pip's aside, is an option of some
    `bmm` subcommand."""
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {flag for command in sub.choices.values() for flag in command._option_string_actions}
    named = set(re.findall(r"(?<![\w-])--[a-zA-Z][\w-]*", README.read_text(encoding="utf-8")))
    named.discard("--no-build-isolation")
    assert "--target-clusters" in named
    assert sorted(named - options) == []


def test_readme_flag_table_matches_each_command():
    """The README's command table has one row per `bmm` subcommand, and each
    row lists exactly that subcommand's options, `--help` aside."""
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    table = re.findall(r"^\| `([\w-]+)` \| [^|]* \| (.*) \|$", README.read_text(encoding="utf-8"),
                       re.MULTILINE)
    assert sorted(command for command, _ in table) == sorted(sub.choices)
    for command, cell in table:
        options = {
            flag for action in sub.choices[command]._actions
            if not isinstance(action, argparse._HelpAction) for flag in action.option_strings
        }
        assert set(re.findall(r"--[a-zA-Z][\w-]*", cell)) == options, command
