from __future__ import annotations

import struct

import numpy as np
import pytest

from bmm import (
    FeatureMatrix,
    FormatError,
    Manifest,
    ValidationError,
    read_features,
    read_manifest,
    write_features,
    write_manifest,
)

from conftest import make_features


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
    (lambda raw: raw[:49], "truncated file while reading dataset label length 1"),
    (lambda raw: raw[:53], "truncated file while reading dataset label 1"),
    (lambda raw: raw[:30] + b"\xff" + raw[31:], "sample id 0 is not valid UTF-8"),
    (lambda raw: raw + b"\x00", "trailing bytes after string blocks"),
], ids=["header", "string-length", "string", "utf-8", "trailing"])
def test_binary_errors_name_what_failed(tmp_path, edit, message):
    # 18 header bytes, 8 value bytes, ids at 26..38 ("p0", "p1"), labels at 38..56
    path = tmp_path / "f.bmmf"
    write_features(make_features(np.ones((2, 1))), path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(FormatError, match=message):
        read_features(path)


@pytest.mark.parametrize("content, read", [
    (b"sample_id,dataset_label,f0\np\xff0,set-a,1.0\n", lambda p: read_features(p, format="csv")),
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
    m = read_features(path, "csv")
    assert m.n == 1 and m.d == 2
    assert m.sample_ids == ("a",)
    assert m.dataset_labels == ("alpha",)
    assert np.allclose(m.values, [[0.5, 1.5]])


def test_csv_roundtrip_preserves_float32(tmp_path, rng):
    m = make_features(rng.normal(size=(9, 4)))
    path = tmp_path / "f.csv"
    write_features(m, path, "csv")
    back = read_features(path, "csv")
    assert np.array_equal(back.values, m.values)
    assert back.sample_ids == m.sample_ids


def test_duplicate_sample_ids_rejected(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("sample_id,dataset_label,f0\na,x,1.0\na,x,2.0\n")
    with pytest.raises(ValidationError, match="duplicate"):
        read_features(path, "csv")


def test_csv_rejects_ragged_rows(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("sample_id,dataset_label,f0,f1\na,x,1.0\n")
    with pytest.raises(FormatError, match="columns"):
        read_features(path, "csv")


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


def test_manifest_dedups_on_read(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("a,x\nb,y\na,z\n")
    assert read_manifest(path).entries == [("a", "x"), ("b", "y")]


def test_manifest_rejects_duplicate_construction():
    with pytest.raises(ValidationError, match="duplicate"):
        Manifest(entries=[("a", "x"), ("a", "y")])
