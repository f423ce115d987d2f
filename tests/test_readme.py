"""The README's library example names only what `bmm` exports."""

from __future__ import annotations

import re
from pathlib import Path

import bmm

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_imports_are_exported():
    blocks = re.findall(r"from bmm import \(([^)]*)\)", README.read_text(encoding="utf-8"))
    assert blocks, "README has no `from bmm import (...)` block"
    names = [name.strip() for block in blocks for name in block.split(",") if name.strip()]
    assert names
    for name in names:
        assert name in bmm.__all__, name
        assert hasattr(bmm, name), name
