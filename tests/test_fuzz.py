"""Fuzz the binary readers: a truncated or byte-flipped tree or feature file
must make the command exit 0 or exit 2 with an error line, never raise."""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmm import generate, write_features
from bmm.cli import main
from bmm.synth import random_subset_world


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    world = random_subset_world(seed=1, d=3, n_supers=2, subs_per_super=2, per_sub=12,
                                n_target_modes=2, per_target=12, include_whole_super=False)
    server, target, _ = generate(world)
    write_features(server, root / "server.bmmf")
    write_features(target, root / "target.bmmf")
    assert run(["build-server", "--server-features", str(root / "server.bmmf"),
                "--leaves", "4", "--tree", str(root / "tree.bmmt")])[0] == 0
    return root


def run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def mutations(size: int):
    """Truncate at any offset, or overwrite any single byte with another value."""
    truncate = st.tuples(st.just("truncate"), st.integers(0, size - 1), st.just(0))
    overwrite = st.tuples(st.just("overwrite"), st.integers(0, size - 1), st.integers(0, 255))
    return st.one_of(truncate, overwrite)


def mutate(blob: bytes, mutation) -> bytes:
    kind, offset, value = mutation
    if kind == "truncate":
        return blob[:offset]
    return blob[:offset] + bytes([value]) + blob[offset + 1:]


def check(code: int, err: str) -> None:
    assert code in (0, 2)
    assert "Traceback" not in err
    if code == 2:  # a numpy warning may come first
        assert any(line.startswith("error: ") for line in err.splitlines())


def test_fuzz_tree_reader(files):
    blob = (files / "tree.bmmt").read_bytes()

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(mutations(len(blob)))
    def fuzz(mutation):
        (files / "mutated.bmmt").write_bytes(mutate(blob, mutation))
        check(*run([
            "match", "--tree", str(files / "mutated.bmmt"),
            "--server-features", str(files / "server.bmmf"),
            "--target-features", str(files / "target.bmmf"),
            "--target-clusters", "2", "--out", str(files / "out.manifest"),
        ]))

    fuzz()


def test_fuzz_feature_reader(files):
    blob = (files / "server.bmmf").read_bytes()

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(mutations(len(blob)))
    def fuzz(mutation):
        (files / "mutated.bmmf").write_bytes(mutate(blob, mutation))
        check(*run([
            "build-server", "--server-features", str(files / "mutated.bmmf"),
            "--leaves", "4", "--tree", str(files / "out.bmmt"),
        ]))

    fuzz()
