"""Feature-set and manifest file formats.

Feature matrices are stored in one of two formats:

* ``binary`` -- magic ``BMMF``, little-endian ``u16`` version (currently 1),
  ``u64`` row count ``n``, ``u32`` feature dimension ``d``, then ``n*d``
  little-endian float32 values in row-major order, then two length-prefixed
  UTF-8 string blocks: the ``n`` sample ids followed by the ``n`` dataset
  labels (each string is a ``u32`` byte length plus payload).
* ``csv`` -- header ``sample_id,dataset_label,f0,...,f{d-1}`` followed by one
  data row per sample.

Manifests are UTF-8 text files: ``# key=value`` metadata lines followed by
one ``sample_id,dataset_label`` line per selected sample.

Readers reject invalid files instead of repairing them; the binary format is
endianness-pinned and read-then-write is byte identical. A string block whose
length prefixes are all equal and whose payload is ASCII is read with one
decode, any other block one string at a time; the format is the same.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError

BINARY_MAGIC = b"BMMF"
BINARY_VERSION = 1


@dataclass(eq=False)
class FeatureMatrix:
    """n x d float32 feature vectors with per-row sample ids and dataset labels."""

    values: np.ndarray
    sample_ids: tuple[str, ...]
    dataset_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        self.values = np.ascontiguousarray(self.values, dtype=np.float32)
        self.sample_ids = tuple(self.sample_ids)
        self.dataset_labels = tuple(self.dataset_labels)
        if self.values.ndim != 2:
            raise ValidationError(f"feature values must be 2-D, got shape {self.values.shape}")
        n, d = self.values.shape
        if n < 1 or d < 1:
            raise ValidationError(f"feature matrix must be at least 1x1, got {n}x{d}")
        if not np.isfinite(self.values).all():
            bad = int(np.flatnonzero(~np.isfinite(self.values).all(axis=1))[0])
            raise ValidationError(f"non-finite feature value in row {bad}")
        if len(self.sample_ids) != n or len(self.dataset_labels) != n:
            raise ValidationError(
                f"row count {n} does not match {len(self.sample_ids)} ids / "
                f"{len(self.dataset_labels)} labels"
            )
        if len(set(self.sample_ids)) != n:
            seen: set[str] = set()
            for sid in self.sample_ids:
                if sid in seen:
                    raise ValidationError(f"duplicate sample_id {sid!r}")
                seen.add(sid)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def row_index(self) -> dict[str, int]:
        """Map sample_id -> row number."""
        return dict(zip(self.sample_ids, range(self.n)))


@dataclass
class Manifest:
    """Ordered (sample_id, dataset_label) entries plus free-form metadata."""

    entries: list[tuple[str, str]] = field(default_factory=list)
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.entries = [(str(s), str(l)) for s, l in self.entries]
        self._refuse_repeats()

    @classmethod
    def _of_strings(cls, entries: list[tuple[str, str]], metadata: dict[str, str]) -> "Manifest":
        """A manifest of entries that are (str, str) pairs already, as the rows of
        a FeatureMatrix or a manifest that was read are: the repeated-id check
        runs, the per-entry str() coercion of the public constructor does not."""
        manifest = object.__new__(cls)
        manifest.entries, manifest.metadata = entries, metadata
        manifest._refuse_repeats()
        return manifest

    def _refuse_repeats(self) -> None:
        if len({sid for sid, _ in self.entries}) != len(self.entries):
            seen: set[str] = set()
            for sid, _ in self.entries:
                if sid in seen:
                    raise ValidationError(f"duplicate sample_id {sid!r} in manifest")
                seen.add(sid)


def _unpack(data: bytes, offset: int, fmt: str, what: str) -> tuple:
    """The value of `fmt` at `offset` in `data`, and the offset just past it."""
    end = offset + struct.calcsize(fmt)
    if end > len(data):
        raise FormatError(f"truncated file while reading {what}")
    return struct.unpack_from(fmt, data, offset)[0], end


def _uniform_ascii_block(data: bytes, offset: int, n: int) -> tuple[list[str], int] | None:
    """The block `_string_block` reads, from one decode, when its n length
    prefixes all equal the first and its payload is ASCII; otherwise None."""
    if offset + 4 > len(data):
        return None
    width = int.from_bytes(data[offset:offset + 4], "little")
    end = offset + n * (4 + width)
    if end > len(data):
        return None
    block = np.frombuffer(data, dtype=[("len", "<u4"), ("s", f"S{width}")], count=n, offset=offset)
    if not (block["len"] == width).all():
        return None
    # tobytes keeps the trailing NULs that converting the S field would drop
    payload = block["s"].tobytes()
    if not payload.isascii():
        return None
    # End each string with the non-ASCII byte 0x80 and split the decoded text
    # there: one split makes the n strings faster than n slices, and width 0
    # needs no special case.
    cut = np.full((n, width + 1), 0x80, dtype=np.uint8)
    cut[:, :width] = np.frombuffer(payload, dtype=np.uint8).reshape(n, width)
    return cut.tobytes().decode("latin-1").split("\x80")[:-1], end


def _string_block(data: bytes, offset: int, n: int, what: str) -> tuple[list[str], int]:
    """n length-prefixed UTF-8 strings from `offset`, and the offset just past them.

    Uniform-width ASCII blocks take one decode; any other block is read
    string by string, which names the first truncated or non-UTF-8 string.
    """
    fast = _uniform_ascii_block(data, offset, n)
    if fast is not None:
        return fast
    out = []
    size = len(data)
    for i in range(n):
        start = offset + 4
        if start > size:
            raise FormatError(f"truncated file while reading {what} length {i}")
        offset = start + int.from_bytes(data[start - 4:start], "little")
        if offset > size:
            raise FormatError(f"truncated file while reading {what} {i}")
        try:
            out.append(data[start:offset].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise FormatError(f"{what} {i} is not valid UTF-8: {exc}") from exc
    return out, offset


def read_features(path: str | Path, format: str = "binary") -> FeatureMatrix:
    """Read a feature matrix from `path` in the given format (binary or csv)."""
    if format == "binary":
        return _read_features_binary(path)
    if format == "csv":
        return _read_features_csv(path)
    raise FormatError(f"unknown feature format {format!r} (expected 'binary' or 'csv')")


def write_features(m: FeatureMatrix, path: str | Path, format: str = "binary") -> None:
    if format == "binary":
        _write_features_binary(m, path)
    elif format == "csv":
        _write_features_csv(m, path)
    else:
        raise FormatError(f"unknown feature format {format!r} (expected 'binary' or 'csv')")


def _read_features_binary(path: str | Path) -> FeatureMatrix:
    with open(path, "rb") as fh:
        data = fh.read()
    magic, offset = _unpack(data, 0, "4s", "magic")
    if magic != BINARY_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {BINARY_MAGIC!r}")
    version, offset = _unpack(data, offset, "<H", "version")
    if version != BINARY_VERSION:
        raise FormatError(
            f"{path}: unsupported feature-file version {version} (this build reads {BINARY_VERSION})"
        )
    n, offset = _unpack(data, offset, "<Q", "row count")
    d, offset = _unpack(data, offset, "<I", "dimension")
    if n < 1 or d < 1:
        raise FormatError(f"{path}: invalid shape {n}x{d}")
    # Values plus at least two string-length prefixes per row must follow.
    available = len(data) - offset
    if n * (4 * d + 8) > available:
        raise FormatError(
            f"{path}: truncated file: a {n}x{d} header needs more than {available} bytes"
        )
    values = np.frombuffer(data, dtype="<f4", count=n * d, offset=offset).reshape(n, d)
    ids, offset = _string_block(data, offset + 4 * n * d, n, "sample id")
    labels, offset = _string_block(data, offset, n, "dataset label")
    if offset != len(data):
        raise FormatError(f"{path}: trailing bytes after string blocks")
    return FeatureMatrix(values=values.copy(), sample_ids=ids, dataset_labels=labels)


def _write_features_binary(m: FeatureMatrix, path: str | Path) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(BINARY_MAGIC)
            fh.write(struct.pack("<HQI", BINARY_VERSION, m.n, m.d))
            fh.write(np.ascontiguousarray(m.values, dtype="<f4").tobytes())
            for block in (m.sample_ids, m.dataset_labels):
                for text in block:
                    raw = text.encode("utf-8")
                    fh.write(struct.pack("<I", len(raw)))
                    fh.write(raw)
    except OSError as exc:
        raise OSError(f"cannot write feature file {path}: {exc}") from exc


def _read_text(path: str | Path) -> str:
    """A UTF-8 text file's contents, newlines translated to '\\n' as text mode reads them."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: file is not valid UTF-8: {exc}") from exc


def _read_features_csv(path: str | Path) -> FeatureMatrix:
    lines = [line for line in _read_text(path).split("\n") if line.strip()]
    if not lines:
        raise FormatError(f"{path}: empty CSV feature file")
    header = lines[0].split(",")
    if len(header) < 3:
        raise FormatError(f"{path}: CSV header needs at least 3 columns, got {len(header)}")
    d = len(header) - 2
    ids, labels, rows = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        cols = line.split(",")
        if len(cols) != d + 2:
            raise FormatError(f"{path}:{lineno}: expected {d + 2} columns, got {len(cols)}")
        ids.append(cols[0])
        labels.append(cols[1])
        try:
            rows.append([float(v) for v in cols[2:]])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: bad float: {exc}") from exc
    if not rows:
        raise FormatError(f"{path}: CSV file has a header but no data rows")
    return FeatureMatrix(
        values=np.asarray(rows, dtype=np.float32), sample_ids=ids, dataset_labels=labels
    )


def _csv_safe(text: str, what: str) -> str:
    if "," in text or "\n" in text or "\r" in text:
        raise ValidationError(f"{what} {text!r} may not contain commas or newlines")
    return text


def _write_features_csv(m: FeatureMatrix, path: str | Path) -> None:
    header = "sample_id,dataset_label," + ",".join(f"f{i}" for i in range(m.d))
    lines = [header]
    for i in range(m.n):
        sid = _csv_safe(m.sample_ids[i], "sample_id")
        label = _csv_safe(m.dataset_labels[i], "dataset_label")
        vals = ",".join(repr(float(v)) for v in m.values[i])
        lines.append(f"{sid},{label},{vals}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path: str | Path) -> Manifest:
    """Read a manifest; duplicate sample ids keep their first occurrence.

    The data lines after the leading metadata lines are split in bulk when
    each holds exactly one comma, none starts with '#' and no id repeats;
    any other file is read line by line, which names the first bad line.
    """
    text = _read_text(path)
    head = 0  # the leading metadata lines end at text[head]
    while text.startswith("#", head):
        head = text.find("\n", head) + 1 or len(text)
    data = text[head:].removesuffix("\n")
    cells = data.replace("\n", ",").split(",")
    ids, names = cells[0::2], cells[1::2]
    bulk = (
        "\n#" not in data
        and len(ids) == len(names) == len(set(ids))
        and "\n".join(map(",".join, zip(ids, names))) == data
    )
    metadata: dict[str, str] = {}
    labels: dict[str, str] = {}  # sample_id -> label of its first occurrence, in file order
    lines = (text[:head] if bulk else text).split("\n")
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:]
            if body.startswith(" "):
                body = body[1:]
            if "=" not in body:
                raise FormatError(f"{path}:{lineno}: metadata line without '=': {line!r}")
            key, value = body.split("=", 1)
            metadata[key] = value
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise FormatError(f"{path}:{lineno}: expected 'sample_id,dataset_label'")
        labels.setdefault(parts[0], parts[1])
    # the entries are str and their ids distinct already, so skip Manifest.__post_init__
    manifest = object.__new__(Manifest)
    manifest.entries = list(zip(ids, names)) if bulk else list(labels.items())
    manifest.metadata = metadata
    return manifest


def write_manifest(m: Manifest, path: str | Path) -> None:
    """Write a manifest; read_manifest(write_manifest(m)) == m, order preserved."""
    lines = []
    for key in sorted(m.metadata):
        value = m.metadata[key]
        if "=" in key or any(c in key + value for c in "\n\r"):
            raise ValidationError(f"metadata key {key!r} or its value is not representable")
        lines.append(f"# {key}={m.metadata[key]}\n")
    body = "\n".join(map(",".join, m.entries))
    rows = len(m.entries)
    # each entry adds one comma and, but for the last, one newline; any more is in a field
    if body.count(",") != rows or body.count("\n") != max(rows - 1, 0) or "\r" in body:
        for sid, label in m.entries:
            _csv_safe(sid, "sample_id")
            _csv_safe(label, "dataset_label")
    if rows:
        lines.append(body + "\n")
    try:
        Path(path).write_text("".join(lines), encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write manifest {path}: {exc}") from exc
