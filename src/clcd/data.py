"""Dataset container and CSV loading for discrete multi-label data."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# A variable is addressed by its column index, stable for the Dataset's lifetime.
VariableId = int


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable column-oriented table of categorical codes.

    ``codes`` has shape (n_vars, n_rows) so a test over (x, y | z) touches
    only the rows it involves. Codes are whole numbers, variable v's in
    [0, arities[v]); ``is_label`` marks target columns, the rest features.
    The arrays are the dataset's own read-only copies, so what ``citest``
    derives from them never goes stale. ``citest`` caches the bit planes in
    ``_planes``, the kernel's fold and compaction of the last z in ``_memo``
    and a batch's waiting results in ``_stash``; all die with the dataset.
    ``codes`` is kept without a copy only when it is already a read-only,
    C-contiguous int64 array that owns its data, as the loaders and
    ``synth.sample`` hand it over. Equality is identity.
    """

    codes: np.ndarray
    arities: np.ndarray
    is_label: np.ndarray
    names: tuple[str, ...]
    _memo: dict = field(default_factory=dict, init=False, repr=False)
    _planes: list = field(default_factory=list, init=False, repr=False)
    _stash: dict = field(default_factory=dict, init=False, repr=False)

    @np.errstate(invalid="ignore")  # a NaN or inf cast: unequal below
    def __post_init__(self) -> None:
        codes, arities = self.codes, np.array(self.arities, dtype=np.int64)
        if not (isinstance(codes, np.ndarray) and codes.dtype == np.int64
                and codes.flags.c_contiguous and codes.flags.owndata
                and not codes.flags.writeable):
            codes = np.array(codes, dtype=np.int64, order="C")
        if not (codes is self.codes or np.array_equal(codes, self.codes)) \
                or not np.array_equal(arities, self.arities):
            raise ValueError("codes and arities must be whole numbers")
        is_label = np.array(self.is_label, dtype=bool)
        if codes.ndim != 2:
            raise ValueError("codes must be 2-dimensional (n_vars, n_rows)")
        n_vars = codes.shape[0]
        if not (len(arities) == len(is_label) == len(self.names) == n_vars):
            raise ValueError("arities, is_label and names must match codes")
        if codes.shape[1] < 1:
            raise ValueError("dataset has no rows")
        if np.any(arities < 1):
            raise ValueError("arities must be >= 1")
        if np.any(codes < 0) or np.any(codes >= arities[:, None]):
            raise ValueError("code out of range for its arity")
        if not is_label.any():
            raise ValueError("dataset must contain at least one label")
        codes.setflags(write=False)
        arities.setflags(write=False)
        is_label.setflags(write=False)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "arities", arities)
        object.__setattr__(self, "is_label", is_label)
        object.__setattr__(self, "names", tuple(self.names))

    @property
    def n_vars(self) -> int:
        return self.codes.shape[0]

    @property
    def n_rows(self) -> int:
        return self.codes.shape[1]

    @property
    def labels(self) -> tuple[VariableId, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.is_label))

    @property
    def features(self) -> tuple[VariableId, ...]:
        return tuple(int(i) for i in np.flatnonzero(~self.is_label))

    def arity(self, v: VariableId) -> int:
        return self.arities.item(v)

    def id_of(self, name: str) -> VariableId:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable name: {name!r}") from None


def load_dataset(csv_path, meta_path) -> Dataset:
    """Load a dataset from a header CSV plus a JSON file naming the labels.

    Integer columns are taken verbatim as codes (arity = max code + 1, gaps
    allowed); any other column is coded by first appearance of each distinct
    string. Blank cells, blank lines, ragged rows and negative integers are
    hard errors. Both files are read as UTF-8; lines end in LF or CRLF. A
    body of plain integers is parsed in one vectorised scan of its bytes; any
    other goes column by column, the only path that codes strings or reports
    errors.
    """
    meta = json.loads(Path(meta_path).read_text(encoding="utf-8"))
    label_names = meta.get("labels") if isinstance(meta, dict) else None
    if not isinstance(label_names, list) or not all(isinstance(s, str) for s in label_names):
        raise ValueError('metadata must be a JSON object {"labels": [name, ...]}')
    blob = Path(csv_path).read_bytes()
    header, codes, arities = (
        _parse_integers(blob, label_names)
        or _parse_by_column(blob.decode("utf-8"), label_names))
    codes.setflags(write=False)
    is_label = np.array([name in set(label_names) for name in header])
    return Dataset(codes=codes, arities=arities, is_label=is_label,
                   names=tuple(header))


def _parse_integers(blob: bytes, label_names: list) -> tuple | None:
    """(header, codes, arities) of a CSV whose body is plain integers, or None.

    Each cell must be 1 to 18 ASCII digits with no leading zero, followed by
    ``,`` or, at a row's end, LF (optional after the last row). A sign,
    padding, a quote, a blank line, a ragged row or any other byte gives
    None, and the per-column path decides. The scan starts at the header's
    LF, so a separator comes before every cell, and sums the codes one digit
    place at a time.
    """
    blob = blob.replace(b"\r\n", b"\n")
    head, _, body = blob.partition(b"\n")
    if b'"' in blob or b"\r" in blob or not body:
        return None
    try:
        header = next(csv.reader([head.decode("utf-8")]))
    except UnicodeDecodeError:
        return None
    ncols = len(header)
    if (not ncols or len(set(header)) != ncols
            or not set(label_names) <= set(header)):
        return None
    raw = np.frombuffer(blob if blob.endswith(b"\n") else blob + b"\n",
                        np.uint8, offset=len(head))  # a separator leads
    ends = np.array([44] * (ncols - 1) + [10], np.uint8)  # a row's "," and LF
    seps = np.flatnonzero(raw < 48)  # any byte below "0" ends a cell
    gaps = np.diff(seps)  # each cell's width plus one
    if (gaps.size % ncols or raw.max() > 57
            or gaps.min() < 2 or gaps.max() > 19  # 19 digits can overflow
            or (raw[seps[1:]].reshape(-1, ncols) != ends).any()
            or ((raw[:-2] < 48) & (raw[1:-1] == 48) & (raw[2:] > 47)).any()):
        return None  # the last test finds a 0 that leads a wider cell
    at = seps[1:]  # each cell's end, moved back one digit a pass
    at -= 1
    codes = (raw[at] - 48).reshape(-1, ncols).T.astype(np.int64, order="C")
    for k in range(2, gaps.max()):  # the k-th digit from each cell's end
        at -= 1
        digit = ((raw[at] - 48) * (gaps > k)).reshape(-1, ncols).T
        codes += digit.astype(np.int64, order="C") * 10 ** (k - 1)
    return header, codes, codes.max(axis=1) + 1


def _parse_by_column(text: str, label_names: list) -> tuple:
    """(header, codes, arities) of any CSV, column by column, or its error."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty CSV file") from None
    rows = list(reader)

    if len(set(header)) != len(header):
        raise ValueError("duplicate column names in CSV header")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"ragged row {i + 2}: expected {len(header)} cells")
    if not rows:
        raise ValueError("CSV contains a header but no data rows")

    missing = [name for name in label_names if name not in header]
    if missing:
        raise ValueError(f"unknown label column(s): {', '.join(missing)}")

    n_rows = len(rows)
    codes = np.empty((len(header), n_rows), dtype=np.int64)
    arities = np.empty(len(header), dtype=np.int64)
    for j, name in enumerate(header):
        cells = [row[j] for row in rows]
        if any(c == "" for c in cells):
            raise ValueError(f"blank cell in column {name!r}")
        try:
            values = [int(c) for c in cells]
        except ValueError:
            seen: dict[str, int] = {}
            col = [seen.setdefault(c, len(seen)) for c in cells]
            codes[j] = col
            arities[j] = len(seen)
            continue
        if min(values) < 0:
            raise ValueError(f"negative code in column {name!r}")
        codes[j] = values
        arities[j] = max(values) + 1
    return header, codes, arities
