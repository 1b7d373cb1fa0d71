"""G² conditional-independence tests and plug-in conditional mutual information.

Every test sums O·ln(O/E) over a stratum-minor count table of shape
``(rx, ry, n_strata)``, scored by :func:`_nat_tables` in a stack of one or
more. :func:`g2_test` is :func:`set_ci` with singleton sides, so the two are
the same test, and :func:`cond_mutual_information` reads the same sum, so
``G² = 2 n ln(2) I(X;Y|Z)`` holds to floating-point rounding by construction.

A table whose cells times the words of one bit plane fit in the rows is
AND-popcounted from the planes (one per variable and level; a set of several
variables ANDs its members' planes in :func:`_fold`'s order). Any other table
is built in O(n) by one ``np.bincount`` of mixed-radix codes
(:func:`_nat_kernel`), its strata first compacted to the observed ones, in
code order, when it has more cells than the data has rows. Cells are read back
in (stratum, x, y) order and empty strata add nothing, so both counters give
identical bits. The marginal table (x ⊥ y, single variables, no z) keeps one
row of O·ln(O/E) terms per variable u against every later variable, made by
:func:`_nat_tables`' own int64 product, true division and ufuncs; a test sums
its block in (x, y) order. The dataset keeps the last conditioning set's
fold, compaction and planes, so tests under one set build each once, and
the results :func:`prefetch` counted ahead under it, one stack per table
shape with each table still summed alone, until their tests take them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, VariableId
from .special import chi2_sf

# A stratum of a composite pair (a side with two or more variables) never
# needs more cells than this; such pairs beyond the cap are reported
# unreliable instead of being materialized. Singleton sides are never capped,
# so a singleton set_ci is the same test as g2_test at every arity.
MAX_CELLS_PER_STRATUM = 4096

# Hard cap on the whole (strata x cells) work array. Tests large enough to
# trip it could never be reliable at the sample sizes this library targets.
# The marginal table's bit planes and rows are held to it too.
_MAX_TABLE_CELLS = 1 << 26
_BATCH_WORDS = 1 << 17  # ANDed plane words per prefetch chunk (1 MiB)


@dataclass(frozen=True)
class CiConfig:
    """Knobs shared by every statistical scan.

    ``reliability_h`` is the minimum rows-per-degree-of-freedom for a test to
    count as reliable; unreliable tests are read as "independence not
    refutable". ``max_cond_size`` caps conditioning-subset searches downstream.
    """

    alpha: float = 0.05
    reliability_h: float = 5.0
    max_cond_size: int = 3

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.reliability_h <= 0.0:
            raise ValueError("reliability_h must be positive")
        if self.max_cond_size < 1:
            raise ValueError("max_cond_size must be >= 1")


@dataclass(frozen=True)
class CiResult:
    statistic: float
    dof: int
    p_value: float
    reliable: bool
    independent: bool


def _unreliable() -> CiResult:
    return CiResult(statistic=0.0, dof=0, p_value=1.0, reliable=False,
                    independent=True)


def _nat_kernel(xcode: np.ndarray, rx: int, ycode: np.ndarray, ry: int,
                zidx: np.ndarray | None, n_strata: int) -> tuple[float, int]:
    """:func:`_nat_tables` of one bincount's table, cell ``(x·ry + y)·n_strata
    + s``. ``zidx`` is a per-row stratum code below ``n_strata``, or None for
    the empty conditioning set (one stratum)."""
    flat = xcode * ry + ycode
    if zidx is not None:
        flat *= n_strata
        flat += zidx
    return _nat_tables(np.bincount(flat, minlength=rx * ry * n_strata).reshape(
        1, rx, ry, n_strata))[0]


def _nat_tables(counts: np.ndarray) -> list[tuple[float, int]]:
    """Sum of O·ln(O·N_s / (row·col)) over the strata, and the adjusted dof,
    of each int64 ``(rx, ry, n_strata)`` table in a ``(B, ...)`` stack. The
    terms are made for the whole stack; each table's nonzero ones, in
    (stratum, x, y) order, are summed alone, the same in any stack."""
    rows, cols = np.add.reduce(counts, 2), np.add.reduce(counts, 1)
    # Empty strata divide by 1, not 0: they have no nonzero cell to read.
    expected = (rows[:, :, None] * cols[:, None] / np.maximum(
        np.add.reduce(rows, 1), 1)[:, None, None]).transpose(0, 3, 1, 2)
    counts = counts.transpose(0, 3, 1, 2).ravel()  # (table, stratum, x, y)
    nonzero = counts.nonzero()[0]
    o = counts[nonzero]  # int64 counts convert exactly inside the float ops
    terms = o * np.log(o / expected.ravel()[nonzero])
    ends = [len(o)] if len(rows) == 1 else nonzero.searchsorted(
        np.arange(1, len(rows) + 1) * (counts.size // len(rows))).tolist()
    # Per-stratum levels with nonzero marginals; one clip zeroes empty strata.
    lx, ly = (np.add.reduce(np.minimum(m, 1), 1) for m in (rows, cols))
    dofs = np.vecdot(np.maximum(lx - 1, 0), ly - 1).tolist()
    return [(max(float(np.add.reduce(terms[start:end])), 0.0), dof)
            for start, end, dof in zip([0] + ends, ends, dofs)]


def _result_from_kernel(nat: float, dof: int, n_rows: int,
                        cfg: CiConfig) -> CiResult:
    statistic = 2.0 * nat
    p_value = chi2_sf(statistic, dof)
    reliable = dof >= 1 and n_rows >= cfg.reliability_h * dof
    independent = (p_value > cfg.alpha) if reliable else True
    return CiResult(statistic=statistic, dof=dof, p_value=p_value,
                    reliable=reliable, independent=independent)


def _fold(ds: Dataset,
          vs: tuple[VariableId, ...]) -> tuple[np.ndarray | None, int]:
    """Mixed-radix code of a variable set, first variable most significant.

    Returns (code per row, number of states). The empty set has one state
    and no code array (None). A single variable's code is its column itself,
    with no array work; a longer set folds into one new buffer.
    """
    if not vs:
        return None, 1
    code, states = ds.codes[vs[0]], ds.arity(vs[0])
    for i, v in enumerate(vs[1:]):
        states *= ds.arity(v)
        if states > 1 << 62:
            raise ValueError("composite state space exceeds int64 coding")
        code = np.multiply(code, ds.arity(v), out=code if i else None)
        code += ds.codes[v]
    return code, states


def _memo_entry(ds: Dataset, zt: tuple[VariableId, ...]) -> dict:
    """``ds._memo``'s one entry, for sorted ``zt``; a new set replaces it."""
    if zt not in ds._memo:
        ds._memo.clear()
        ds._memo[zt] = {"n_states": math.prod(map(ds.arity, zt))}
    return ds._memo[zt]


def _strata(ds: Dataset, zt: tuple[VariableId, ...],
            cells: int) -> tuple[np.ndarray | None, int] | None:
    """Stratum code per row of sorted ``zt`` and the stratum count, or None
    past _MAX_TABLE_CELLS. With ``cells`` cells per stratum and more cells
    than rows, the observed strata are compacted by ``np.unique`` in code
    order."""
    entry = _memo_entry(ds, zt)
    if "code" not in entry:
        entry["code"] = _fold(ds, zt)[0]
        if len(zt) > 1:  # a new buffer; a single column is read-only already
            entry["code"].setflags(write=False)
    code, n_states = entry["code"], entry["n_states"]
    if min(n_states, ds.n_rows) * cells > _MAX_TABLE_CELLS:
        return None
    if code is None or n_states * cells <= ds.n_rows:
        return code, n_states
    if "inverse" not in entry:
        observed, entry["inverse"] = np.unique(code, return_inverse=True)
        entry["inverse"].setflags(write=False)
        entry["n_strata"] = len(observed)
    return entry["inverse"], entry["n_strata"]


def _planes(ds: Dataset) -> tuple | None:
    """(words, offsets, margins, observed): bit plane ``codes[v] == k`` packed
    into uint64 row ``offsets[v] + k`` of ``words``, its count, and v's levels
    that occur. None when the planes or rows could pass _MAX_TABLE_CELLS."""
    if None not in ds._marginal:
        offsets = np.concatenate(([0], np.cumsum(ds.arities)))
        levels, n_words = int(offsets[-1]), -(-ds.n_rows // 64)
        entry = None
        if levels * max(n_words, levels) <= _MAX_TABLE_CELLS:
            planes = np.zeros((levels, 8 * n_words), dtype=np.uint8)
            for v, a in enumerate(ds.arities):
                planes[offsets[v]:offsets[v + 1], :(ds.n_rows + 7) // 8] = \
                    np.packbits(ds.codes[v] == np.arange(a)[:, None], axis=1)
            words = planes.view(np.uint64)
            margins = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
            observed = np.add.reduceat(margins > 0, offsets[:-1],
                                       dtype=np.int64)
            entry = words, offsets, margins, observed
            for arr in entry:
                arr.setflags(write=False)
        ds._marginal[None] = entry
    return ds._marginal[None]


def _and_count(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Set bits of ``a & b`` (broadcast) over the last axis, as int64."""
    return np.bitwise_count(a & b).sum(axis=-1, dtype=np.int64)


def _composite(words: np.ndarray, offsets: np.ndarray,
               vs: tuple[VariableId, ...]) -> np.ndarray:
    """Planes of the fold of nonempty ``vs``, one per state: each the AND of
    one plane per member, in :func:`_fold`'s order (one member: a view)."""
    head = words[offsets[vs[0]]:offsets[vs[0] + 1]]
    for v in vs[1:]:
        head = (head[:, None] & words[offsets[v]:offsets[v + 1]]).reshape(
            -1, words.shape[1])
    return head


def _z_count(ds: Dataset, rows: np.ndarray, zt: tuple) -> np.ndarray:
    """AND-popcounts of plane ``rows`` by the strata of nonempty sorted
    ``zt``, whose planes its memo entry keeps."""
    entry = _memo_entry(ds, zt)
    if "planes" not in entry:
        entry["planes"] = _composite(*_planes(ds)[:2], zt)
        entry["planes"].setflags(write=False)
    return _and_count(rows[:, None], entry["planes"])


def _plane_table(ds: Dataset, xt: tuple, yt: tuple, zt: tuple) -> np.ndarray:
    """Bit-plane counts of ``xt``'s states by ``yt``'s with no z, else of the
    fold of ``xt + yt`` (rows) in each stratum of sorted ``zt`` (columns)."""
    words, offsets = _planes(ds)[:2]
    if not zt:
        return _and_count(_composite(words, offsets, xt)[:, None],
                          _composite(words, offsets, yt))
    return _z_count(ds, _composite(words, offsets, xt + yt), zt)


def _on_planes(ds: Dataset, cells: int) -> bool:
    """Whether the planes count a table of ``cells``: cells × words ≤ rows."""
    return (cells * -(-ds.n_rows // 64) <= min(ds.n_rows, _MAX_TABLE_CELLS)
            and _planes(ds) is not None)


def prefetch(ds: Dataset, tests, zt: tuple[VariableId, ...]) -> None:
    """Count and score the sorted ``(xt, yt)`` pairs of ``tests`` that the
    planes count under nonempty sorted ``zt``: per table shape (and chunk),
    one AND-popcount and one :func:`_nat_tables` call. Each (nat, dof) waits
    in z's memo entry, under ``(xt, yt)``, for :func:`_nat` to take it."""
    entry = _memo_entry(ds, zt)
    n_states = entry["n_states"]
    groups: dict = {}
    for xt, yt in tests:
        rx, ry = math.prod(map(ds.arity, xt)), math.prod(map(ds.arity, yt))
        if _on_planes(ds, rx * ry * n_states):
            groups.setdefault((rx, ry), []).append((xt, yt))
    for (rx, ry), members in groups.items():
        words, offsets = _planes(ds)[:2]
        step = max(1, _BATCH_WORDS // (rx * ry * n_states * words.shape[1]))
        for i in range(0, len(members), step):
            chunk = members[i:i + step]
            counts = _z_count(ds, np.concatenate(
                [_composite(words, offsets, xt + yt) for xt, yt in chunk]), zt)
            entry.update(zip(chunk, _nat_tables(
                counts.reshape(len(chunk), rx, ry, n_states))))


def _marginal(ds: Dataset, x: VariableId, y: VariableId) -> tuple[float, int]:
    """:func:`_nat_tables`' (nat, dof) for ``x ⊥ y`` with no conditioning z.

    The row of u = min(x, y) holds the terms of u against every later
    variable, NaN where a count is 0. A test sums its block's other terms,
    transposed into (x, y) order when x > y.
    """
    words, offsets, margins, observed = ds._marginal[None]
    u, w = min(x, y), max(x, y)
    lo, hi = offsets[u], offsets[u + 1]
    row = ds._marginal.get(u)
    if row is None:
        counts = np.array([_and_count(words[k], words[hi:])
                           for k in range(lo, hi)])
        with np.errstate(divide="ignore", invalid="ignore"):
            row = counts * np.log(
                counts / (margins[lo:hi, None] * margins[hi:] / ds.n_rows))
        row.setflags(write=False)
        ds._marginal[u] = row
    terms = row[:, offsets[w] - hi:offsets[w + 1] - hi]
    if x > y:
        terms = terms.T
    nat = float(terms[~np.isnan(terms)].sum())
    dof = max(int(observed[x]) - 1, 0) * (int(observed[y]) - 1)
    return max(nat, 0.0), dof


def _validate_sets(xs, ys, z) -> tuple[tuple, tuple, tuple]:
    xt = tuple(sorted(map(int, xs)))
    yt = tuple(sorted(map(int, ys)))
    zt = tuple(sorted(map(int, z)))
    if not xt or not yt:
        raise ValueError("variable sets must be nonempty")
    pool = xt + yt + zt
    if len(set(pool)) != len(pool):
        raise ValueError("variable sets must be pairwise disjoint")
    return xt, yt, zt


def _nat(ds: Dataset, xt: tuple, yt: tuple, zt: tuple,
         capped: bool) -> tuple[float, int] | None:
    """:func:`_nat_tables`' (nat, dof) for sorted ``xt ⊥ yt | zt``, or None
    past _MAX_TABLE_CELLS or, if ``capped``, past MAX_CELLS_PER_STRATUM. A
    :func:`prefetch` result comes first, then the planes, then the kernel."""
    if not zt and len(xt) == len(yt) == 1 and _planes(ds) is not None:
        return _marginal(ds, xt[0], yt[0])
    entry = _memo_entry(ds, zt)
    if (xt, yt) in entry:  # left by prefetch
        return entry.pop((xt, yt))
    rx, ry = math.prod(map(ds.arity, xt)), math.prod(map(ds.arity, yt))
    if _on_planes(ds, rx * ry * entry["n_states"]):
        return _nat_tables(_plane_table(ds, xt, yt, zt).reshape(
            1, rx, ry, entry["n_states"]))[0]
    xcode, rx = _fold(ds, xt)
    ycode, ry = _fold(ds, yt)
    if capped and len(xt + yt) > 2 and rx * ry > MAX_CELLS_PER_STRATUM:
        return None
    strata = _strata(ds, zt, rx * ry)
    return strata and _nat_kernel(xcode, rx, ycode, ry, *strata)


def g2_test(ds: Dataset, x: VariableId, y: VariableId, z=(),
            cfg: CiConfig = CiConfig()) -> CiResult:
    """Likelihood-ratio test of ``x ⊥ y | z`` on the dataset's counts.

    The statistic is 2·Σ O·ln(O/E) within each stratum of z; dof counts, per
    nonempty stratum, (r_x−1)(r_y−1) over values with nonzero marginals.
    A test with fewer than ``reliability_h`` rows per dof (or dof 0) is
    unreliable and reported independent. Same as ``set_ci(ds, [x], [y], z)``.
    """
    return set_ci(ds, (x,), (y,), z, cfg)


def set_ci(ds: Dataset, xs, ys, z=(), cfg: CiConfig = CiConfig()) -> CiResult:
    """G² test between composite variables built from ``xs`` and ``ys``.

    Singleton sets are exactly :func:`g2_test`. When either side has two or
    more variables and the composite table would exceed
    MAX_CELLS_PER_STRATUM cells, the test is reported unreliable.
    """
    found = _nat(ds, *_validate_sets(xs, ys, z), capped=True)
    if found is None:
        return _unreliable()
    return _result_from_kernel(*found, ds.n_rows, cfg)


def cond_mutual_information(ds: Dataset, xs, ys, z=()) -> float:
    """Plug-in estimate of I(xs; ys | z) in bits; tiny negatives clamp to 0."""
    found = _nat(ds, *_validate_sets(xs, ys, z), capped=False)
    if found is None:
        raise ValueError("count table exceeds _MAX_TABLE_CELLS cells")
    return found[0] / (ds.n_rows * math.log(2.0))
