"""Feature-set and manifest file formats.

Feature matrices are stored in one of two formats, and `read_features` tells
them apart by the first four bytes:

* ``binary`` -- magic ``BMMF``, little-endian ``u16`` version (currently 1),
  ``u64`` row count ``n``, ``u32`` feature dimension ``d``, then ``n*d``
  little-endian float32 values in row-major order, then two length-prefixed
  UTF-8 string blocks: the ``n`` sample ids followed by the ``n`` dataset
  labels (each string is a ``u32`` byte length plus payload).
* ``csv`` -- any file without that magic: header
  ``sample_id,dataset_label,f0,...,f{d-1}`` followed by one data row per
  sample. Its format errors add that the file had no ``BMMF`` magic.

Manifests are UTF-8 text files in one grammar, shared by `write_manifest`,
`read_manifest` and `FeatureMatrix.sha256`: zero or more leading ``# key=value``
lines, no key twice, then one ``sample_id,dataset_label`` line per entry,
lines ending at ``\n`` only. Ids and labels hold no comma, CR or LF, no id
starts with ``#`` and no id repeats; a `Manifest`'s one constructor checks
the last, with the same check as `FeatureMatrix`.

Readers reject invalid files instead of repairing them; the binary format is
endianness-pinned and read-then-write is byte identical. `FeatureMatrix.sha256`
identifies a server by its content; it refuses ids and labels that a manifest
line cannot hold, so that every server a tree is built from or matched
against can write its manifest. A string block whose length prefixes are all
equal and whose payload is ASCII is read with one decode, any other block one
string at a time; the format is the same.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Sequence

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
        _refuse_repeats(self.sample_ids)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def row_index(self) -> dict[str, int]:
        """Map sample_id -> row number."""
        return dict(zip(self.sample_ids, range(self.n)))

    @cached_property
    def sha256(self) -> bytes:
        """SHA-256 of the ``<QI`` shape (n, d), the little-endian float32
        values and the newline-joined ids then labels, as UTF-8.

        Raises ValidationError for a row a manifest line could not list (see
        `_manifest_entry`); a newline would also make the join ambiguous.
        """
        text = "\n".join(self.sample_ids + self.dataset_labels)
        if "," in text or "\r" in text or "#" in text or text.count("\n") != 2 * self.n - 1:
            for sid, label in zip(self.sample_ids, self.dataset_labels):
                _manifest_entry(sid, label)
        digest = hashlib.sha256(struct.pack("<QI", self.n, self.d))
        digest.update(np.ascontiguousarray(self.values, dtype="<f4"))
        digest.update(text.encode("utf-8"))
        return digest.digest()


@dataclass
class Manifest:
    """Ordered (sample_id, dataset_label) entries plus free-form metadata."""

    entries: list[tuple[str, str]] = field(default_factory=list)
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _refuse_repeats([sid for sid, _ in self.entries], " in manifest")


def _refuse_repeats(ids: Sequence[str], where: str = "") -> None:
    """Name the first sample id that repeats in `ids`, if one does."""
    if len(set(ids)) != len(ids):
        seen: set[str] = set()
        for sid in ids:
            if sid in seen:
                raise ValidationError(f"duplicate sample_id {sid!r}{where}")
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


def read_features(path: str | Path) -> FeatureMatrix:
    """Read a feature matrix from `path`: binary when the file starts with
    the ``BMMF`` magic, CSV otherwise."""
    data = Path(path).read_bytes()
    if data.startswith(BINARY_MAGIC):
        return _read_features_binary(path, data)
    try:
        return _read_features_csv(path, _decode(data, path))
    except FormatError as exc:
        raise FormatError(f"{exc} (no {BINARY_MAGIC!r} magic, so read as CSV)") from exc


def write_features(m: FeatureMatrix, path: str | Path, format: str = "binary") -> None:
    if format == "binary":
        _write_features_binary(m, path)
    elif format == "csv":
        _write_features_csv(m, path)
    else:
        raise FormatError(f"unknown feature format {format!r} (expected 'binary' or 'csv')")


def _read_features_binary(path: str | Path, data: bytes) -> FeatureMatrix:
    """The feature matrix in `data`, which starts with the binary magic."""
    version, offset = _unpack(data, len(BINARY_MAGIC), "<H", "version")
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


def _decode(data: bytes, path: str | Path) -> str:
    """`data` from the file `path` as UTF-8 text, newlines translated to
    '\\n' as text mode reads them."""
    try:
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: file is not valid UTF-8: {exc}") from exc


def _read_features_csv(path: str | Path, text: str) -> FeatureMatrix:
    # blank lines are skipped, but count in the line numbers that errors name
    lines = [(lineno, line) for lineno, line in enumerate(text.split("\n"), start=1)
             if line.strip()]
    if not lines:
        raise FormatError(f"{path}: empty CSV feature file")
    header = lines[0][1].split(",")
    if len(header) < 3:
        raise FormatError(f"{path}: CSV header needs at least 3 columns, got {len(header)}")
    d = len(header) - 2
    ids, labels, rows = [], [], []
    for lineno, line in lines[1:]:
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
    exact = np.asarray(rows)
    with np.errstate(over="ignore"):  # reported below, with the line
        values = exact.astype(np.float32)
    over = np.argwhere(np.isinf(values) & np.isfinite(exact))
    if over.size:
        row, column = over[0]
        lineno, line = lines[1 + row]
        value = line.split(",")[2 + column]
        raise FormatError(f"{path}:{lineno}: feature value {value} is beyond float32's range")
    return FeatureMatrix(values=values, sample_ids=ids, dataset_labels=labels)


def _csv_safe(text: str, what: str) -> str:
    if "," in text or "\n" in text or "\r" in text:
        raise ValidationError(f"{what} {text!r} may not contain commas or newlines")
    return text


def _manifest_entry(sid: str, label: str) -> None:
    """Refuse an entry no manifest line can hold: a CSV-unsafe field, or a '#' id."""
    _csv_safe(sid, "sample_id")
    _csv_safe(label, "dataset_label")
    if sid.startswith("#"):
        raise ValidationError(f"sample_id {sid!r} may not start with '#'")


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
    """Read a manifest in the module docstring's grammar.

    The data lines after the metadata lines are split in one pass; when they
    are not all 'sample_id,dataset_label' pairs, a scan names the first bad line.
    """
    text = _decode(Path(path).read_bytes(), path)
    metadata: dict[str, str] = {}
    head = lineno = 0  # the leading metadata lines end at text[head], line `lineno`
    while text.startswith("#", head):
        end = text.find("\n", head) + 1 or len(text)
        line = text[head:end].removesuffix("\n")
        lineno += 1
        key, eq, value = line[1:].removeprefix(" ").partition("=")
        if not eq:
            raise FormatError(f"{path}:{lineno}: metadata line without '=': {line!r}")
        if key in metadata:
            raise FormatError(f"{path}:{lineno}: repeated metadata key {key!r}")
        metadata[key] = value
        head = end
    data = text[head:].removesuffix("\n")
    cells = data.replace("\n", ",").split(",") if head < len(text) else []
    ids, names = cells[0::2], cells[1::2]
    # the rebuilt text equals the data only when every line holds one comma;
    # "#" in data is one memchr, where "\n#" in data stops at every newline
    if (len(ids) != len(names) or "#" in data and "\n#" in data
            or "\n".join(map(",".join, zip(ids, names))) != data):
        for lineno, line in enumerate(data.split("\n"), start=lineno + 1):
            if line.count(",") != 1 or line.startswith("#"):
                raise FormatError(f"{path}:{lineno}: expected 'sample_id,dataset_label'")
    return Manifest(list(zip(ids, names)), metadata)


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
    # an entry adds one comma and, but the last, one newline; '#' may start an id
    if ("\r" in body or "#" in body or body.count(",") != rows
            or body.count("\n") != max(rows - 1, 0)):
        for sid, label in m.entries:
            _manifest_entry(sid, label)
    if rows:
        lines.append(body + "\n")
    try:
        Path(path).write_text("".join(lines), encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write manifest {path}: {exc}") from exc
