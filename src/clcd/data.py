"""Dataset container and CSV loading for discrete multi-label data."""

from __future__ import annotations

import csv
import io
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# A variable is addressed by its column index, stable for the Dataset's lifetime.
VariableId = int


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable column-oriented table of categorical codes.

    ``codes`` has shape (n_vars, n_rows) so a test over (x, y | z) touches
    only the rows it involves. Codes for variable v lie in [0, arities[v]).
    ``is_label`` marks target columns; everything else is a feature.
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

    def __post_init__(self) -> None:
        codes = self.codes
        if not (isinstance(codes, np.ndarray) and codes.dtype == np.int64
                and codes.flags.c_contiguous and codes.flags.owndata
                and not codes.flags.writeable):
            codes = np.array(codes, dtype=np.int64, order="C")
        arities = np.array(self.arities, dtype=np.int64)
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

    def column(self, v: VariableId) -> np.ndarray:
        return self.codes[v]

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
    hard errors. Lines end in LF or CRLF. A body of plain integers is parsed
    in one C pass; any other goes column by column, the only path that codes
    strings or reports errors.
    """
    meta = json.loads(Path(meta_path).read_text(encoding="utf-8"))
    label_names = meta.get("labels") if isinstance(meta, dict) else None
    if not isinstance(label_names, list) or not all(isinstance(s, str) for s in label_names):
        raise ValueError('metadata must be a JSON object {"labels": [name, ...]}')
    with open(csv_path, newline="", encoding="utf-8") as fh:
        text = fh.read()
    header, codes, arities = (_parse_integers(text, label_names)
                              or _parse_by_column(text, label_names))
    codes.setflags(write=False)
    is_label = np.array([name in set(label_names) for name in header])
    return Dataset(codes=codes, arities=arities, is_label=is_label,
                   names=tuple(header))


def _parse_integers(text: str, label_names: list) -> tuple | None:
    """(header, codes, arities) of a CSV whose body is plain integers, or None.

    ``np.loadtxt`` skips blank lines and reads ``+1``, ``007`` and padding
    that ``int()`` may refuse, so its parse counts only when the body is as
    long as the plain rendering of what it read: each cell's digits and one
    separator. A sign, a leading zero, padding or a blank line is longer.
    """
    flat = text.replace("\r\n", "\n")
    head, _, body = flat.partition("\n")
    if '"' in flat or "\r" in flat or not body:
        return None
    header = next(csv.reader([head]))
    if len(set(header)) != len(header) or not set(label_names) <= set(header):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(io.StringIO(body), dtype=np.int64,
                              delimiter=",", comments=None, ndmin=2)
    except (ValueError, Warning):
        return None
    top = int(rows.max())
    digits = rows.size + sum(int(np.count_nonzero(rows >= 10 ** k))
                             for k in range(1, len(str(top))))
    if (rows.shape[1] != len(header) or top == np.iinfo(np.int64).max
            or len(body) != digits + rows.size - (not body.endswith("\n"))):
        return None  # at int64's max, the arity top + 1 would overflow
    codes = np.ascontiguousarray(rows.T)
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
