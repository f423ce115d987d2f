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
starts with ``#`` and no id repeats; every way to make a `Manifest` checks
the last with `FeatureMatrix`'s check, unless its entries are ascending rows
of a source that passed it.

Readers reject invalid files instead of repairing them; the binary format is
endianness-pinned and read-then-write is byte identical. `FeatureMatrix.sha256`
identifies a server by its content; it refuses ids and labels that a manifest
line cannot hold, so that every server a tree is built from or matched
against can write its manifest.

Ids and labels stay UTF-8 bytes from the file to the manifest: a `Strings`
column holds them in one buffer. A string block whose length prefixes are
all equal and whose payload is ASCII becomes a column with one copy; any
other block is checked string by string; the format is the same. One stable
sort of a column's keys finds a repeated id and serves every manifest
lookup, and manifest lines and hashed text are cut from the columns at the
rows asked for, without a decode.
"""

from __future__ import annotations

import hashlib
import struct
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import FormatError, ValidationError

BINARY_MAGIC = b"BMMF"
BINARY_VERSION = 1


class Strings:
    """n UTF-8 strings in one byte buffer: string i is ``buf[offsets[i]:offsets[i+1]]``
    (Arrow's variable-size binary layout). Never changed once built.

    Its keys order the strings as their bytes do, which for UTF-8 is the
    code-point order that `sorted` gives the decoded strings.
    """

    def __init__(self, buf: np.ndarray, offsets: np.ndarray) -> None:
        self.buf = buf  # uint8
        self.offsets = offsets  # int64, n + 1 of them

    @classmethod
    def from_bytes(cls, raw: Sequence[bytes]) -> Strings:
        lengths = np.fromiter(map(len, raw), np.int64, len(raw))
        return cls(np.frombuffer(b"".join(raw), dtype=np.uint8), _offsets(lengths))

    @classmethod
    def from_str(cls, strings: Iterable[str]) -> Strings:
        return cls.from_bytes([s.encode("utf-8") for s in strings])

    @classmethod
    def spans(cls, data: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> Strings:
        """The strings ``data[starts[i]:stops[i]]``; starts strictly ascend and no
        span reaches into the next. Spans of one length at one step, as the
        fields of a manifest of equal-width lines are, take one strided copy."""
        lengths, steps = stops - starts, np.diff(starts)
        offsets = _offsets(lengths)
        if starts.size and (lengths == lengths[0]).all() and (steps == steps[:1]).all():
            step = int(steps[0]) if steps.size else 0
            rows = np.lib.stride_tricks.as_strided(
                data[starts[0]:], (starts.size, int(lengths[0])), (step, 1))
            return cls(rows.copy().reshape(-1), offsets)
        mark = np.zeros(data.size + 1, dtype=np.int8)
        mark[starts] += 1
        mark[stops] -= 1
        return cls(data[np.cumsum(mark[:-1], dtype=np.int8).view(bool)], offsets)

    def __len__(self) -> int:
        return self.offsets.size - 1

    @cached_property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    @cached_property
    def width(self) -> int:
        """The longest string's byte length."""
        return int(self.lengths.max(initial=0))

    @cached_property
    def mask(self) -> np.ndarray | None:
        """Which bytes of `padded` are the strings'; None when every string is `width` long."""
        if self.buf.size == len(self) * self.width:
            return None
        return np.arange(self.width) < self.lengths[:, None]

    @cached_property
    def padded(self) -> np.ndarray:
        """The strings as the rows of an (n, width) byte matrix, NUL-padded: a
        view of `buf` when no row is padded, else n * width new bytes."""
        if self.mask is None:
            return self.buf.reshape(len(self), self.width)
        out = np.zeros((len(self), self.width), dtype=np.uint8)
        out[self.mask] = self.buf
        return out

    def item(self, i: int) -> str:
        return self.buf[self.offsets[i]:self.offsets[i + 1]].tobytes().decode("utf-8")

    def decode(self) -> tuple[str, ...]:
        """Every string, from one decode: each ends at a 0xFF byte, which UTF-8 never holds."""
        text = _concat([self, b"\xff"]).decode("utf-8", "surrogateescape")
        return tuple(text.split("\udcff")[:-1])

    def take(self, rows: np.ndarray) -> Strings:
        """The strings at `rows`, in that order."""
        buf = np.frombuffer(_concat([self], rows), dtype=np.uint8)
        return Strings(buf, _offsets(self.lengths[rows]))

    def keys(self, width: int) -> np.ndarray:
        """One ``S`` key per string: its bytes NUL-padded or cut to `width`, then
        its big-endian ``u32`` length, so that "a" and "a\\0" differ and a string
        longer than `width` equals no key of a column that `width` fits; then
        NULs to a whole number of 8-byte words, for `_same`."""
        size = (width + 4 + 7) // 8 * 8
        keys = np.zeros(len(self), dtype={"names": ["s", "n"], "formats": [f"S{width}", ">u4"],
                                          "offsets": [0, width], "itemsize": size})
        fits = min(width, self.width)
        if fits:
            keys["s"] = self.padded[:, :fits].view(f"S{fits}")[:, 0]
        keys["n"] = self.lengths
        return keys.view(f"S{size}")

    @cached_property
    def _sorted(self) -> tuple[np.ndarray, np.ndarray]:
        """(order, keys[order]): the column's one stable sort of its keys."""
        keys = self.keys(self.width)
        order = np.argsort(keys, kind="stable")
        return order, keys[order]

    def first_repeat(self) -> int | None:
        """The first row whose string an earlier row holds, or None."""
        order, keys = self._sorted
        again = _same(keys[1:], keys[:-1])  # later rows of equal strings: the sort keeps row order
        return int(order[1:][again].min()) if again.any() else None

    def find(self, queries: Strings) -> np.ndarray:
        """The row of this non-empty, repeat-free column that holds each query, or -1."""
        order, keys = self._sorted
        wanted = queries.keys(self.width)
        at = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
        return np.where(_same(keys[at], wanted), order[at], -1)

    def counts(self, rows: np.ndarray) -> dict[str, int]:
        """How many of `rows` hold each string, keys sorted."""
        picked = self.take(rows)
        order, keys = picked._sorted
        starts = np.flatnonzero(np.concatenate(([True], ~_same(keys[1:], keys[:-1])))[:keys.size])
        sizes = np.diff(np.append(starts, keys.size))
        return {picked.item(order[at]): int(size) for at, size in zip(starts, sizes)}


def _same(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a == b for `Strings.keys` of one width, compared a word at a time,
    several times faster than numpy's comparison of ``S`` values."""
    a, b = (keys.view(np.uint64).reshape(keys.size, keys.itemsize // 8) for keys in (a, b))
    same = a[:, 0] == b[:, 0]
    for word in range(1, a.shape[1]):
        same &= a[:, word] == b[:, word]
    return same


def _offsets(lengths: np.ndarray) -> np.ndarray:
    """The n + 1 offsets of n strings of these lengths, laid end to end."""
    return np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))


def _concat(pieces: Sequence[Strings | bytes], rows: np.ndarray | None = None) -> bytes:
    """Row after row (every row, or `rows` in order), each piece in turn: a
    `Strings` piece gives the row's string, a bytes piece itself."""
    n = len(rows) if rows is not None else len(next(p for p in pieces if isinstance(p, Strings)))
    widths = [len(p) if isinstance(p, bytes) else p.width for p in pieces]
    out = np.empty(n, dtype=[(f"f{i}", f"S{w}") for i, w in enumerate(widths) if w])
    keep = []  # per piece, which of its bytes are the strings'; None when all are
    for i, (piece, width) in enumerate(zip(pieces, widths)):
        mask = None
        if isinstance(piece, bytes):
            out[f"f{i}"] = piece
        elif width:
            strings, mask = piece.padded.view(f"S{width}")[:, 0], piece.mask
            if rows is not None:
                strings = strings.take(rows)
                mask = None if mask is None else mask.take(rows, axis=0)
            out[f"f{i}"] = strings
        keep.append(mask)
    if all(mask is None for mask in keep):
        return out.tobytes()
    full = [np.ones((n, w), dtype=bool) if m is None else m for m, w in zip(keep, widths)]
    return out.view(np.uint8).reshape(n, out.itemsize)[np.concatenate(full, axis=1)].tobytes()


class FeatureMatrix:
    """n x d float32 feature vectors with per-row sample ids and dataset labels.

    The ids and labels are kept as `Strings` columns, `ids` and `labels`;
    `sample_ids` and `dataset_labels` are their str tuples, decoded on first
    read. Never changed once built.
    """

    def __init__(self, values, sample_ids: Sequence[str] | Strings,
                 dataset_labels: Sequence[str] | Strings) -> None:
        self.values = np.ascontiguousarray(values, dtype=np.float32)
        self.ids, self.labels = (column if isinstance(column, Strings) else Strings.from_str(column)
                                 for column in (sample_ids, dataset_labels))
        if self.values.ndim != 2:
            raise ValidationError(f"feature values must be 2-D, got shape {self.values.shape}")
        n, d = self.values.shape
        if n < 1 or d < 1:
            raise ValidationError(f"feature matrix must be at least 1x1, got {n}x{d}")
        if not np.isfinite(self.values).all():
            bad = int(np.flatnonzero(~np.isfinite(self.values).all(axis=1))[0])
            raise ValidationError(f"non-finite feature value in row {bad}")
        if len(self.ids) != n or len(self.labels) != n:
            raise ValidationError(
                f"row count {n} does not match {len(self.ids)} ids / {len(self.labels)} labels"
            )
        _refuse_repeats(self.ids)

    @cached_property
    def sample_ids(self) -> tuple[str, ...]:
        return self.ids.decode()

    @cached_property
    def dataset_labels(self) -> tuple[str, ...]:
        return self.labels.decode()

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @cached_property
    def sha256(self) -> bytes:
        """SHA-256 of the ``<QI`` shape (n, d), the little-endian float32
        values and the newline-joined ids then labels, as UTF-8.

        Raises ValidationError for a row a manifest line could not list (see
        `_manifest_entry`); a newline would also make the join ambiguous.
        """
        text = _concat([self.ids, b"\n"]) + _concat([self.labels, b"\n"])
        if b"," in text or b"\r" in text or b"#" in text or text.count(b"\n") != 2 * self.n:
            for sid, label in zip(self.sample_ids, self.dataset_labels):
                _manifest_entry(sid, label)
        digest = hashlib.sha256(struct.pack("<QI", self.n, self.d))
        digest.update(np.ascontiguousarray(self.values, dtype="<f4"))
        digest.update(memoryview(text)[:-1])
        return digest.digest()


class Manifest:
    """Ordered (sample_id, dataset_label) entries plus free-form metadata.

    The entries are kept as `Strings` columns, `ids` and `labels`; `entries`
    lists them as str pairs, decoded on first read unless they were given.
    No id repeats. Never changed once built, but for its metadata.
    """

    def __init__(self, entries: list[tuple[str, str]] | None = None,
                 metadata: dict[str, str] | None = None) -> None:
        entries = [] if entries is None else entries
        self.__dict__["entries"] = entries
        self._fill(Strings.from_str([sid for sid, _ in entries]),
                   Strings.from_str([label for _, label in entries]),
                   {} if metadata is None else metadata)

    @classmethod
    def of_rows(cls, source: FeatureMatrix | Manifest, rows: np.ndarray,
                metadata: dict[str, str]) -> Manifest:
        """The entries of `source` at `rows`, in that order. Strictly ascending
        rows of a repeat-free source cannot repeat an id; other rows are checked."""
        return cls.__new__(cls)._fill(source.ids.take(rows), source.labels.take(rows), metadata,
                                      check=not (np.diff(rows) > 0).all())

    def _fill(self, ids: Strings, labels: Strings, metadata: dict[str, str],
              check: bool = True) -> Manifest:
        self.ids, self.labels, self.metadata = ids, labels, metadata
        if check:
            _refuse_repeats(ids, " in manifest")
        return self

    @cached_property
    def entries(self) -> list[tuple[str, str]]:
        return list(zip(self.ids.decode(), self.labels.decode()))

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Manifest):
            return NotImplemented
        return (self.entries, self.metadata) == (other.entries, other.metadata)


def _refuse_repeats(ids: Strings, where: str = "") -> None:
    """Name the first sample id that repeats in `ids`, if one does."""
    row = ids.first_repeat()
    if row is not None:
        raise ValidationError(f"duplicate sample_id {ids.item(row)!r}{where}")


def _unpack(data: bytes, offset: int, fmt: str, what: str) -> tuple:
    """The value of `fmt` at `offset` in `data`, and the offset just past it."""
    end = offset + struct.calcsize(fmt)
    if end > len(data):
        raise FormatError(f"truncated file while reading {what}")
    return struct.unpack_from(fmt, data, offset)[0], end


def _uniform_ascii_block(data: bytes, offset: int, n: int) -> tuple[Strings, int] | None:
    """The block `_string_block` reads, with one copy, when its n length
    prefixes all equal the first and its payload is ASCII; otherwise None."""
    if offset + 4 > len(data):
        return None
    width = int.from_bytes(data[offset:offset + 4], "little")
    end = offset + n * (4 + width)
    if end > len(data):
        return None
    dtype = [("len", "<u4"), ("s", np.uint8, (width,))]
    block = np.frombuffer(data, dtype=dtype, count=n, offset=offset)
    payload = np.ascontiguousarray(block["s"]).reshape(-1)
    if not (block["len"] == width).all() or payload.max(initial=0) >= 0x80:
        return None
    return Strings(payload, np.arange(n + 1, dtype=np.int64) * width), end


def _string_block(data: bytes, offset: int, n: int, what: str) -> tuple[Strings, int]:
    """n length-prefixed UTF-8 strings from `offset`, and the offset just past them.

    Uniform-width ASCII blocks take one copy; any other block is read
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
        out.append(data[start:offset])
        try:
            out[-1].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{what} {i} is not valid UTF-8: {exc}") from exc
    return Strings.from_bytes(out), offset


def read_features(path: str | Path) -> FeatureMatrix:
    """Read a feature matrix from `path`: binary when the file starts with
    the ``BMMF`` magic, CSV otherwise."""
    data = Path(path).read_bytes()
    if data.startswith(BINARY_MAGIC):
        return _read_features_binary(path, data)
    try:
        return _read_features_csv(path, _text(data, path).decode("utf-8"))
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
            for column in (m.ids, m.labels):
                prefixes = column.lengths.astype("<u4").view(np.uint8)
                fh.write(_concat([Strings(prefixes, np.arange(m.n + 1) * 4), column]))
    except OSError as exc:
        raise OSError(f"cannot write feature file {path}: {exc}") from exc


def _text(data: bytes, path: str | Path) -> bytes:
    """`data` from the file `path`, checked to be UTF-8 text, with newlines
    translated to '\\n' as text mode reads them."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: file is not valid UTF-8: {exc}") from exc
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data


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
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        row, column = bad[0]
        lineno, line = lines[1 + row]
        value = line.split(",")[2 + column]
        why = "is beyond float32's range" if np.isfinite(exact[row, column]) else "is not finite"
        raise FormatError(f"{path}:{lineno}: feature value {value} {why}")
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

    The data lines after the metadata lines are split in one pass over their
    bytes; when they are not all 'sample_id,dataset_label' pairs, a scan
    names the first bad line.
    """
    data = _text(Path(path).read_bytes(), path)
    metadata: dict[str, str] = {}
    head = lineno = 0  # the leading metadata lines end at data[head], line `lineno`
    while data.startswith(b"#", head):
        end = data.find(b"\n", head) + 1 or len(data)
        line = data[head:end].removesuffix(b"\n").decode("utf-8")
        lineno += 1
        key, eq, value = line[1:].removeprefix(" ").partition("=")
        if not eq:
            raise FormatError(f"{path}:{lineno}: metadata line without '=': {line!r}")
        if key in metadata:
            raise FormatError(f"{path}:{lineno}: repeated metadata key {key!r}")
        metadata[key] = value
        head = end
    body = np.frombuffer(data, dtype=np.uint8)[head:]
    ends = np.flatnonzero(body == ord("\n"))  # each line ends at its newline, the last maybe at EOF
    if body.size and body[-1] != ord("\n"):
        ends = np.append(ends, body.size)
    starts = np.concatenate(([0], ends[:-1] + 1))[:ends.size]
    commas = np.flatnonzero(body == ord(","))
    # one comma per line, inside it, and then no line is empty or starts with '#'
    if not (commas.size == ends.size and (starts <= commas).all() and (commas < ends).all()
            and not (body[starts] == ord("#")).any()):
        text = data[head:].removesuffix(b"\n").decode("utf-8")
        for lineno, line in enumerate(text.split("\n"), start=lineno + 1):
            if line.count(",") != 1 or line.startswith("#"):
                raise FormatError(f"{path}:{lineno}: expected 'sample_id,dataset_label'")
    ids, labels = Strings.spans(body, starts, commas), Strings.spans(body, commas + 1, ends)
    return Manifest.__new__(Manifest)._fill(ids, labels, metadata)


def write_manifest(m: Manifest, path: str | Path) -> None:
    """Write a manifest; read_manifest(write_manifest(m)) == m, order preserved."""
    lines = []
    for key in sorted(m.metadata):
        value = m.metadata[key]
        if "=" in key or any(c in key + value for c in "\n\r"):
            raise ValidationError(f"metadata key {key!r} or its value is not representable")
        lines.append(f"# {key}={m.metadata[key]}\n")
    body = _concat([m.ids, b",", m.labels, b"\n"])
    rows = len(m)
    # an entry adds one comma and one newline; '#' may start an id
    if b"\r" in body or b"#" in body or body.count(b",") != rows or body.count(b"\n") != rows:
        for sid, label in m.entries:
            _manifest_entry(sid, label)
    try:
        Path(path).write_bytes("".join(lines).encode("utf-8") + body)
    except OSError as exc:
        raise OSError(f"cannot write manifest {path}: {exc}") from exc
