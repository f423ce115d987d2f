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
