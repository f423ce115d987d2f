from __future__ import annotations

import string
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmm import (
    FeatureMatrix,
    FormatError,
    Manifest,
    ValidationError,
    generate,
    read_features,
    read_manifest,
    write_features,
    write_manifest,
)
from bmm.features import _string_block, _uniform_ascii_block
from bmm.synth import granularity_probe_world, random_subset_world

from conftest import make_features
from oracles import oracle_read_manifest, oracle_string_block, oracle_write_manifest


def test_binary_minimal_roundtrip(tmp_path):
    m = make_features(np.arange(6, dtype=np.float32).reshape(2, 3))
    path = tmp_path / "f.bmmf"
    write_features(m, path)
    back = read_features(path)
    assert back.n == 2 and back.d == 3
    assert np.array_equal(back.values, m.values)
    assert back.sample_ids == m.sample_ids
    assert back.dataset_labels == m.dataset_labels


def test_binary_read_then_write_is_byte_identical(tmp_path, rng):
    m = make_features(rng.normal(size=(17, 5)))
    first = tmp_path / "a.bmmf"
    second = tmp_path / "b.bmmf"
    write_features(m, first)
    write_features(read_features(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_binary_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bmmf"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError, match="magic"):
        read_features(path)


def test_binary_rejects_future_version(tmp_path):
    m = make_features(np.ones((1, 1)))
    path = tmp_path / "f.bmmf"
    write_features(m, path)
    raw = bytearray(path.read_bytes())
    raw[4:6] = struct.pack("<H", 9)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version 9"):
        read_features(path)


def test_binary_rejects_nan_values(tmp_path):
    m = make_features(np.ones((2, 2)))
    path = tmp_path / "f.bmmf"
    write_features(m, path)
    raw = bytearray(path.read_bytes())
    raw[18:22] = struct.pack("<f", float("nan"))
    path.write_bytes(bytes(raw))
    with pytest.raises(ValidationError, match="non-finite"):
        read_features(path)


def test_binary_rejects_truncation(tmp_path):
    m = make_features(np.ones((3, 2)))
    path = tmp_path / "f.bmmf"
    write_features(m, path)
    raw = path.read_bytes()
    short_tail = raw[:-4]
    # A header declaring 2^40 rows must be refused before anything is allocated.
    huge_header = raw[:6] + struct.pack("<Q", 2**40) + raw[14:]
    for data in (short_tail, huge_header):
        path.write_bytes(data)
        with pytest.raises(FormatError, match="truncated"):
            read_features(path)


@pytest.mark.parametrize("edit, message", [
    (lambda raw: raw[:10], "truncated file while reading row count"),
    (lambda raw: raw[:6] + struct.pack("<Q", 0) + raw[14:], "invalid shape 0x1"),
    (lambda raw: raw[:49], "truncated file while reading dataset label length 1"),
    (lambda raw: raw[:53], "truncated file while reading dataset label 1"),
    (lambda raw: raw[:30] + b"\xff" + raw[31:], "sample id 0 is not valid UTF-8"),
    (lambda raw: raw + b"\x00", "trailing bytes after string blocks"),
], ids=["header", "zero-rows", "string-length", "string", "utf-8", "trailing"])
def test_binary_errors_name_what_failed(tmp_path, edit, message):
    # 18 header bytes, 8 value bytes, ids at 26..38 ("p0", "p1"), labels at 38..56
    path = tmp_path / "f.bmmf"
    write_features(make_features(np.ones((2, 1))), path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(FormatError, match=message):
        read_features(path)


@pytest.mark.parametrize("content, read", [
    (b"sample_id,dataset_label,f0\np\xff0,set-a,1.0\n", read_features),
    (b"# k=v\np\xff0,set-a\n", read_manifest),
], ids=["csv", "manifest"])
def test_text_readers_reject_invalid_utf8(tmp_path, content, read):
    path = tmp_path / "bad.txt"
    path.write_bytes(content)
    with pytest.raises(FormatError, match="not valid UTF-8") as info:
        read(path)
    assert str(path) in str(info.value)


def test_csv_minimal(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("id,dataset,f0,f1\na,alpha,0.5,1.5\n")
    m = read_features(path)
    assert m.n == 1 and m.d == 2
    assert m.sample_ids == ("a",)
    assert m.dataset_labels == ("alpha",)
    assert np.allclose(m.values, [[0.5, 1.5]])


def test_csv_roundtrip_preserves_float32(tmp_path, rng):
    m = make_features(rng.normal(size=(9, 4)))
    path = tmp_path / "f.csv"
    write_features(m, path, "csv")
    back = read_features(path)
    assert np.array_equal(back.values, m.values)
    assert back.sample_ids == m.sample_ids


def test_duplicate_sample_ids_rejected(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("sample_id,dataset_label,f0\na,x,1.0\na,x,2.0\n")
    with pytest.raises(ValidationError, match="duplicate"):
        read_features(path)


def test_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("sample_id,dataset_label,f0,f1\na,x,1.0\n")
    with pytest.raises(FormatError, match="columns"):
        read_features(path)


@pytest.mark.parametrize("row, message", [
    ("b,x,zz", "c.csv:5: bad float"),
    ("b,x,2,3", "c.csv:5: expected 3 columns, got 4"),
    ("b,x,1e39", "c.csv:5: feature value 1e39 is beyond float32's range"),
    ("b,x,-3.5e38", "c.csv:5: feature value -3.5e38 is beyond float32's range"),
], ids=["bad-float", "column-count", "beyond-float32", "below-float32"])
def test_csv_errors_name_the_line_in_the_file(tmp_path, row, message):
    """Blank lines are skipped but counted: the bad row is line 5. No
    warning is printed on the way."""
    path = tmp_path / "c.csv"
    path.write_text(f"sample_id,dataset_label,f0\n\n\na,x,1\n{row}\n")
    with warnings.catch_warnings(), pytest.raises(FormatError, match=message):
        warnings.simplefilter("error")
        read_features(path)


def test_csv_keeps_values_that_round_to_float32s_largest(tmp_path):
    """A value past float32's largest that rounds down to it is read, as the
    float32 cast reads it; only a value that rounds to infinity is refused."""
    largest = float(np.finfo(np.float32).max)
    path = tmp_path / "c.csv"
    path.write_text(f"sample_id,dataset_label,f0\na,x,{largest * (1 + 2**-26)!r}\n")
    assert read_features(path).values[0, 0] == np.float32(largest)


def test_feature_matrix_invariants():
    with pytest.raises(ValidationError):
        FeatureMatrix(values=np.empty((0, 3)), sample_ids=[], dataset_labels=[])
    with pytest.raises(ValidationError, match="duplicate"):
        FeatureMatrix(values=np.ones((2, 1)), sample_ids=["a", "a"], dataset_labels=["x", "x"])
    with pytest.raises(ValidationError):
        FeatureMatrix(values=np.ones((2, 1)), sample_ids=["a"], dataset_labels=["x", "y"])


def test_manifest_empty_roundtrip(tmp_path):
    path = tmp_path / "m.txt"
    m = Manifest(entries=[], metadata={"seed": "0"})
    write_manifest(m, path)
    assert path.read_text() == "# seed=0\n"
    back = read_manifest(path)
    assert back.entries == [] and back.metadata == {"seed": "0"}


def test_manifest_order_preserved(tmp_path):
    entries = [("c", "x"), ("a", "y"), ("b", "x")]
    path = tmp_path / "m.txt"
    write_manifest(Manifest(entries=entries, metadata={}), path)
    assert read_manifest(path).entries == entries


def test_manifest_random_ids_roundtrip(tmp_path, rng):
    ids = [f"id-{v:08x}" for v in rng.integers(0, 2**32, size=1000)]
    ids = list(dict.fromkeys(ids))
    entries = [(sid, f"set-{i % 7}") for i, sid in enumerate(ids)]
    meta = {"seed": "12345", "cmd": "test --flag value"}
    path = tmp_path / "m.txt"
    write_manifest(Manifest(entries=entries, metadata=meta), path)
    back = read_manifest(path)
    assert back.entries == entries
    assert back.metadata == meta


def test_manifest_refuses_repeats_on_read(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("a,x\nb,y\na,z\n")
    with pytest.raises(ValidationError, match="duplicate sample_id 'a' in manifest"):
        read_manifest(path)


@pytest.mark.parametrize("content, message", [
    ("# k=v\n\na,x\n", "m.txt:2: expected 'sample_id,dataset_label'"),
    ("a,x\n\n", "m.txt:2: expected 'sample_id,dataset_label'"),
    ("\n", "m.txt:1: expected 'sample_id,dataset_label'"),
    ("a,x\n# k=v\n", "m.txt:2: expected 'sample_id,dataset_label'"),
    ("a,x\n#b=c,y\n", "m.txt:2: expected 'sample_id,dataset_label'"),
    ("# k=v\na,x,y\n", "m.txt:2: expected 'sample_id,dataset_label'"),
    ("# k\na,x\n", "m.txt:1: metadata line without '='"),
    ("# seed=0\n# seed=1\na,x\n", "m.txt:2: repeated metadata key 'seed'"),
], ids=["blank-after-metadata", "blank-last", "blank-only", "late-metadata", "late-hash-id",
        "two-commas", "no-equals", "repeated-key"])
def test_manifest_refuses_lines_outside_the_grammar(tmp_path, content, message):
    path = tmp_path / "m.txt"
    path.write_text(content)
    with pytest.raises(FormatError, match=message):
        read_manifest(path)


def test_manifest_rejects_duplicate_construction():
    with pytest.raises(ValidationError, match="duplicate"):
        Manifest(entries=[("a", "x"), ("a", "y")])


def test_manifest_checks_repeats_but_keeps_the_entries():
    entries = [("a", "x"), ("b", "y")]
    manifest = Manifest(entries, {"k": "v"})
    assert manifest.entries is entries
    assert manifest == Manifest(entries=list(entries), metadata={"k": "v"})
    with pytest.raises(ValidationError, match="duplicate sample_id 'a' in manifest"):
        Manifest([("a", "x"), ("b", "y"), ("a", "z")], {})


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """One directory that each hypothesis example overwrites."""
    return tmp_path_factory.mktemp("oracle")


def _outcome(call, *args):
    """What a reader or writer returned, or the type and message of what it raised."""
    try:
        return "ok", call(*args)
    except (FormatError, ValidationError) as exc:
        return type(exc).__name__, str(exc)


def _block(payloads: list[bytes]) -> bytes:
    return b"".join(struct.pack("<I", len(p)) + p for p in payloads)


@st.composite
def string_blocks(draw):
    """(block bytes, string count) for the block shapes the fast path must take or refuse."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["ascii", "nul", "non-ascii", "mixed", "bytes", "raw"]))
    if kind == "raw":  # arbitrary bytes, so the length prefixes are arbitrary too
        return draw(st.binary(max_size=48)), n
    width = draw(st.integers(0, 6))
    if kind == "ascii":  # width 0 is a block of empty strings
        text = st.text(alphabet=string.printable, min_size=width, max_size=width)
        payloads = [draw(text).encode() for _ in range(n)]
    elif kind == "nul":
        raw = st.lists(st.sampled_from([b"\x00", b"a", b"\x7f"]), min_size=width, max_size=width)
        payloads = [b"".join(draw(raw)) for _ in range(n)]
    elif kind == "non-ascii":  # two-byte characters: one byte width, but not ASCII
        text = st.text(alphabet="\u00e9\u00fc\u00df", min_size=width, max_size=width)
        payloads = [draw(text).encode() for _ in range(n)]
    elif kind == "mixed":
        payloads = [draw(st.text(max_size=6)).encode() for _ in range(n)]
    else:  # uniform width, any bytes: ASCII, UTF-8 or neither
        payloads = [draw(st.binary(min_size=width, max_size=width)) for _ in range(n)]
    return _block(payloads), n


@settings(max_examples=300, derandomize=True, deadline=None)
@given(string_blocks(), st.binary(max_size=5), st.binary(max_size=3))
def test_string_block_equals_loop_oracle(scratch, case, prefix, suffix):
    block, n = case
    offset = len(prefix)
    # every truncation, the whole block, and the block followed by more bytes
    for data in [prefix + block[:cut] for cut in range(len(block))] + [prefix + block + suffix]:
        got = _outcome(_string_block, data, offset, n, "sample id")
        assert got == _outcome(oracle_string_block, data, offset, n, "sample id")
    if got[0] != "ok":
        return
    # read-then-write of a file holding the block as its labels, and as its ids when distinct
    files = [(_block([f"r{i:02d}".encode() for i in range(n)]), block)]
    if len(set(got[1][0])) == n:
        files.append((block, _block([b"x"] * n)))
    first, second = scratch / "a.bmmf", scratch / "b.bmmf"
    for id_block, label_block in files:
        raw = b"BMMF" + struct.pack("<HQI", 1, n, 1) + bytes(4 * n) + id_block + label_block
        first.write_bytes(raw)
        write_features(read_features(first), second)
        assert second.read_bytes() == raw


@pytest.mark.parametrize("world", [
    random_subset_world(0, d=16, n_supers=8, subs_per_super=8, per_sub=160,
                        n_target_modes=3, per_target=200),
    random_subset_world(0, d=32, n_supers=8, subs_per_super=8, per_sub=80,
                        n_target_modes=8, per_target=200),
    granularity_probe_world(0),
], ids=["build", "query", "quick-start"])
def test_world_string_blocks_take_the_fast_path(tmp_path, world):
    for m in generate(world)[:2]:
        path = tmp_path / "f.bmmf"
        write_features(m, path)
        raw = path.read_bytes()
        offset = 18 + 4 * m.n * m.d
        for strings in (m.sample_ids, m.dataset_labels):
            fast = _uniform_ascii_block(raw, offset, m.n)
            assert fast is not None and fast[0] == list(strings)
            offset = fast[1]
        assert offset == len(raw)


_FIELD = st.text(alphabet="ab #=\t\u00e9,", max_size=3)
_MANIFEST_LINES = st.one_of(
    st.builds("# {}={}".format, _FIELD, _FIELD),
    st.builds("#{}={}".format, _FIELD, _FIELD),
    st.builds("{},{}".format, st.sampled_from(["a", "b", "c d", " ", "#x"]), _FIELD),
    st.builds("{},{}".format, _FIELD, _FIELD),
    st.sampled_from(["", " ", "\t", " \t ", "# no-equals", "#", "a,b,c", "lonely", ","]),
)


@st.composite
def manifest_files(draw):
    """Manifest file bytes: metadata and data lines in any order, every line ending."""
    if draw(st.booleans()):  # shaped like write_manifest's output, so often split in one pass
        meta = draw(st.lists(st.builds("# {}={}".format, _FIELD, _FIELD), max_size=3))
        # a '#' id makes a '#' line after the data, which both readers refuse
        pool = st.sampled_from(["a", "b", "c d", "e", "f", "#k=v", "#x"])
        ids = draw(st.lists(pool, max_size=6, unique=draw(st.booleans())))
        label = st.text(alphabet="ab #=\t\u00e9", max_size=3)
        lines = sorted(meta) + [f"{sid},{draw(label)}" for sid in ids]
    else:
        lines = draw(st.lists(_MANIFEST_LINES, max_size=10))
    if draw(st.booleans()):
        endings = ["\n"] * len(lines)
    else:
        endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                                min_size=len(lines), max_size=len(lines)))
    if lines and draw(st.booleans()):
        endings[-1] = ""  # no newline after the last line
    raw = "".join(line + end for line, end in zip(lines, endings)).encode("utf-8")
    if draw(st.booleans()) and raw:
        cut = draw(st.integers(0, len(raw)))
        raw = raw[:cut] + b"\xff" + raw[cut:]
    return raw


def _read(read, path):
    m = read(path)
    return m.entries, m.metadata


@settings(max_examples=500, derandomize=True, deadline=None)
@given(manifest_files())
def test_read_manifest_equals_line_oracle(scratch, raw):
    path = scratch / "m.txt"
    path.write_bytes(raw)
    assert _outcome(_read, read_manifest, path) == _outcome(_read, oracle_read_manifest, path)


_WRITE_FIELD = st.text(alphabet="ab ,\n\r\u00e9#", max_size=3)
# what the grammar refuses, line breaks that str.splitlines would split at, and a few letters
_GRAMMAR_FIELD = st.text(alphabet="#,= \t\r\n\x0c\x85\u2028\u00e9bcy", max_size=4)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.lists(st.tuples(_GRAMMAR_FIELD, _GRAMMAR_FIELD), max_size=6, unique_by=lambda e: e[0]),
    st.dictionaries(_GRAMMAR_FIELD, _GRAMMAR_FIELD, max_size=3),
)
def test_manifest_round_trips_or_is_refused(scratch, entries, metadata):
    path = scratch / "m.txt"
    try:
        write_manifest(Manifest(entries=entries, metadata=metadata), path)
    except ValidationError:
        return
    back = read_manifest(path)
    assert (back.entries, back.metadata) == (entries, metadata)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.lists(st.tuples(_WRITE_FIELD, _WRITE_FIELD), max_size=6, unique_by=lambda e: e[0]),
    st.dictionaries(st.text(alphabet="k=\n\r ", max_size=3), _WRITE_FIELD, max_size=3),
)
def test_write_manifest_equals_line_oracle(scratch, entries, metadata):
    manifest = Manifest(entries=entries, metadata=metadata)
    new, old = scratch / "new.txt", scratch / "old.txt"
    got = _outcome(write_manifest, manifest, new)
    assert got == _outcome(oracle_write_manifest, manifest, old)
    if got[0] == "ok":
        assert new.read_bytes() == old.read_bytes()
