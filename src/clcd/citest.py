"""G² conditional-independence tests.

Every test sums O·ln(O/E) over a stratum-minor count table of shape
``(rx, ry, n_strata)``, scored by :func:`_nat_tables` in a stack of one or
more. :func:`g2_test` is :func:`set_ci` with singleton sides, and swapped
sides are one test: every test, memo and check goes by :func:`_set_key`.
``G² = 2 n ln(2) I(X;Y|Z)``, so a table's plug-in conditional mutual
information in bits is ``set_ci(...).statistic / (2·n·ln 2)``.

A table whose cells times the words of one bit plane fit in the rows is
AND-popcounted from stacked bit planes (one per variable and level; a set of
several variables ANDs its members' planes in :func:`_fold`'s order) by
:func:`_plane_tables`: a lone test's x against the fold of y and z, and in
:func:`prefetch` a batch's sides against the folds of a common side with
each of many z's, the empty one too. Any other table is built in O(n)
by one ``np.bincount`` of mixed-radix codes (:func:`_nat_kernel`), its
strata first compacted to the observed ones, in code order, when it has more
cells than the data has rows, and its one-row strata dropped, their one
exact +0.0 term each put back in place. Cells are read back in (stratum, x,
y) order and empty strata add nothing, so every path gives identical bits.
The dataset keeps the kernel's fold and compaction of the last conditioning
set, so kernel tests under one set build each once, and a batch's results,
each table summed alone, in one stash under each test's key until the test
takes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

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
# The bit planes are held to it too.
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


def _nat_kernel(xcode: np.ndarray, rx: int, ycode: np.ndarray, ry: int,
                zidx: np.ndarray | None, n_strata: int, rows=None,
                before=None) -> tuple[float, int]:
    """:func:`_nat_tables` of one bincount's table, cell ``(x·ry + y)·n_strata
    + s``. ``zidx`` is a per-row stratum code below ``n_strata``, or None for
    the empty conditioning set (one stratum). With :func:`_strata`'s filter,
    only ``rows`` are counted, ``zidx`` being theirs."""
    flat = xcode * ry + ycode
    if rows is not None:
        flat = flat[rows]
    if zidx is not None:
        flat *= n_strata
        flat += zidx
    return _nat_tables(np.bincount(flat, minlength=rx * ry * n_strata).reshape(
        1, rx, ry, n_strata), before)[0]


def _nat_tables(counts: np.ndarray,
                before: np.ndarray | None = None) -> list[tuple[float, int]]:
    """Sum of O·ln(O·N_s / (row·col)) over the strata, and the adjusted dof,
    of each int64 ``(rx, ry, n_strata)`` table in a ``(B, ...)`` stack. The
    terms are made for the whole stack; each table's nonzero ones, in
    (stratum, x, y) order, are summed alone, the same in any stack. A stack
    of one may pass ``before``, a +0.0 term per dropped one-row stratum:
    ``before[s]`` ahead of stratum s, ``before[-1]`` in all."""
    rows, cols = np.add.reduce(counts, 2), np.add.reduce(counts, 1)
    # Empty strata divide by 1, not 0: they have no nonzero cell to read.
    expected = (rows[:, :, None] * cols[:, None] / np.maximum(
        np.add.reduce(rows, 1), 1)[:, None, None]).transpose(0, 3, 1, 2)
    counts = counts.transpose(0, 3, 1, 2).ravel()  # (table, stratum, x, y)
    nonzero = counts.nonzero()[0]
    o = counts[nonzero]  # int64 counts convert exactly inside the float ops
    terms = o * np.log(o / expected.ravel()[nonzero])
    if before is not None:
        stratum = nonzero // (rows.shape[1] * cols.shape[1])
        terms, kept = np.zeros(len(o) + before[-1]), terms
        terms[np.arange(len(o)) + before[stratum]] = kept
    ends = [len(terms)] if len(rows) == 1 else nonzero.searchsorted(
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


def _strata(ds: Dataset, zt: tuple[VariableId, ...],
            cells: int) -> tuple | None:
    """Stratum code per row of sorted ``zt`` and the stratum count, or None
    past _MAX_TABLE_CELLS, judged before pruning. With ``cells`` cells per
    stratum and more cells than rows, the observed strata are compacted by
    ``np.unique`` in code order and the one-row strata dropped: the kept
    rows and :func:`_nat_tables`' ``before`` follow, or None and None.
    ``ds._memo`` holds one entry, for the last ``zt``: its fold and state
    count, and its compaction once needed, each array read-only."""
    if zt not in ds._memo:
        code, n_states = _fold(ds, zt)
        if len(zt) > 1:  # a new buffer; a single column is read-only already
            code.setflags(write=False)
        ds._memo.clear()
        ds._memo[zt] = {"code": code, "n_states": n_states}
    entry = ds._memo[zt]
    code, n_states = entry["code"], entry["n_states"]
    if min(n_states, ds.n_rows) * cells > _MAX_TABLE_CELLS:
        return None
    if code is None or n_states * cells <= ds.n_rows:
        return code, n_states
    if "inverse" not in entry:
        _, inverse, sizes = np.unique(code, return_inverse=True,
                                      return_counts=True)
        lone = np.cumsum(sizes == 1)  # one-row strata up to each stratum
        if lone[-1]:
            entry["rows"] = (sizes[inverse] > 1).nonzero()[0]
            entry["before"] = np.append(lone[sizes > 1], lone[-1])
            inverse = inverse[entry["rows"]]
            inverse -= lone[inverse]
        entry.update(inverse=inverse, n_strata=len(sizes) - int(lone[-1]))
        for key in entry.keys() & {"inverse", "rows", "before"}:
            entry[key].setflags(write=False)
    return tuple(map(entry.get, ("inverse", "n_strata", "rows", "before")))


def _planes(ds: Dataset) -> tuple | None:
    """(words, offsets): bit plane ``codes[v] == k`` packed into uint64 row
    ``offsets[v] + k`` of ``words``. None when they pass _MAX_TABLE_CELLS.
    Built once into ``ds._planes``, read-only, and never replaced."""
    if not ds._planes:
        offsets = np.concatenate(([0], np.cumsum(ds.arities)))
        levels, n_words = int(offsets[-1]), -(-ds.n_rows // 64)
        entry = None
        if levels * n_words <= _MAX_TABLE_CELLS:
            planes = np.zeros((levels, 8 * n_words), dtype=np.uint8)
            for v, a in enumerate(ds.arities):
                planes[offsets[v]:offsets[v + 1], :(ds.n_rows + 7) // 8] = \
                    np.packbits(ds.codes[v] == np.arange(a)[:, None], axis=1)
            entry = planes.view(np.uint64), offsets
            for arr in entry:
                arr.setflags(write=False)
        ds._planes.append(entry)
    return ds._planes[0]


def _composite(words: np.ndarray, offsets: np.ndarray,
               vs: tuple[VariableId, ...]) -> np.ndarray:
    """Planes of the fold of nonempty ``vs``, one per state: each the AND of
    one plane per member, in :func:`_fold`'s order (one member: a view)."""
    head = words[offsets[vs[0]]:offsets[vs[0] + 1]]
    for v in vs[1:]:
        head = (head[:, None] & words[offsets[v]:offsets[v + 1]]).reshape(
            -1, words.shape[1])
    return head


def _plane_tables(stack: np.ndarray, heads: np.ndarray, rs: int, rx: int,
                  nz: int) -> np.ndarray:
    """AND-popcounts of each side's ``rs`` planes in ``stack`` by each z's
    ``rx · nz`` planes of the fold of x and z in ``heads``: one int64
    ``(rs, rx, nz)`` table per side and z, side-major."""
    counts = np.bitwise_count(stack[:, None] & heads).sum(axis=-1,
                                                          dtype=np.int64)
    return counts.reshape(-1, rs, len(heads) // (rx * nz), rx * nz).swapaxes(
        1, 2).reshape(-1, rs, rx, nz)


def _on_planes(ds: Dataset, cells: int) -> bool:
    """Whether the planes count a table of ``cells``: cells × words ≤ rows."""
    return (cells * -(-ds.n_rows // 64) <= min(ds.n_rows, _MAX_TABLE_CELLS)
            and _planes(ds) is not None)


def prefetch(ds: Dataset, xt: tuple, tests) -> None:
    """Count and score ``xt ⊥ s | z`` for the (s, z) pairs of ``tests`` that
    the planes count, s and z sorted, z maybe empty. Each side shape's planes
    are stacked once and ANDed with the stacked heads ``fold(xt + z)`` of a
    chunk of z's of one state count: one :func:`_plane_tables` call on at
    most _BATCH_WORDS words (z's chunked so that one side fits, then sides
    so that the chunk does) and one :func:`_nat_tables` call, each table in
    the order ``(min(xt, s), max(xt, s))``. Each asked (nat, dof) waits in
    ``ds._stash`` under its :func:`_set_key` for :func:`_nat` to take it."""
    rx, n_words = math.prod(map(ds.arity, xt)), -(-ds.n_rows // 64)
    sides, zs, wanted, planes = {}, {}, dict.fromkeys(tests), _planes(ds)
    for s in dict.fromkeys(s for s, _ in wanted):
        rs = math.prod(map(ds.arity, s))  # square: either orientation
        sides.setdefault((rs, rs == rx or xt < s), []).append(s)
    for zt in dict.fromkeys(zt for _, zt in wanted):
        zs.setdefault(math.prod(map(ds.arity, zt)), []).append(zt)
    stacks = {key: np.concatenate([_composite(*planes, s) for s in group])
              for key, group in sides.items()
              if _on_planes(ds, rx * key[0] * min(zs))}
    for (nz, group), ((rs, sq), stack) in product(zs.items(), stacks.items()):
        if not _on_planes(ds, rx * rs * nz):
            continue
        members, head_words = sides[rs, sq], rx * nz * n_words
        z_step = min(len(group), max(1, _BATCH_WORDS // (rs * head_words)))
        step = max(1, _BATCH_WORDS // (rs * head_words * z_step))
        for i, j in product(range(0, len(group), z_step),
                            range(0, len(members), step)):
            chunk, part = group[i:i + z_step], members[j:j + step]
            if not j:  # a new chunk of z's
                heads = np.concatenate([_composite(*planes, xt + zt)
                                        for zt in chunk])
            tables = _plane_tables(stack[j * rs:(j + step) * rs], heads, rs,
                                   rx, nz)
            flip = np.repeat([xt < s for s in part], len(chunk))
            if flip.any():  # those tables into (xt, s) order
                tables = (np.where(flip[:, None, None, None], tables.swapaxes(
                    1, 2), tables) if rs == rx else tables.swapaxes(1, 2))
            for (s, zt), res in zip(product(part, chunk), _nat_tables(tables)):
                if (s, zt) in wanted:  # stashed by _set_key's rule, inline
                    ds._stash[(xt, s, zt) if xt < s else (s, xt, zt)] = res


def _set_key(xs, ys, z) -> tuple:
    """The one key of a test, and of its swap, as G² is symmetric: each side
    sorted, the smaller side first, then the sorted z."""
    a, b = tuple(sorted(xs)), tuple(sorted(ys))
    return (a, b, tuple(sorted(z))) if a <= b else (b, a, tuple(sorted(z)))


def _validate_sets(xs, ys, z) -> tuple[tuple, tuple, tuple]:
    """:func:`_set_key` in ints of nonempty, pairwise disjoint sets."""
    key = _set_key(map(int, xs), map(int, ys), map(int, z))
    if not key[0]:  # the smaller side: empty if either is
        raise ValueError("variable sets must be nonempty")
    pool = key[0] + key[1] + key[2]
    if len(set(pool)) != len(pool):
        raise ValueError("variable sets must be pairwise disjoint")
    return key


def _validate_grid(xt: tuple, sides: list, zts: list) -> None:
    """:func:`_validate_sets`' error for the first malformed test (z-major)
    of the grid ``xt`` × ``sides`` × ``zts``, in O(its sets): sets nonempty
    but z's, none repeating a variable, ``xt``, ∪sides and ∪z's disjoint."""
    in_sides, in_zs = set().union(*sides), set().union(*zts)
    if (not xt or not all(sides) or set(xt) & (in_sides | in_zs)
            or in_sides & in_zs or any(len(set(t)) < len(t) for t in (
                xt, *sides, *zts) if len(t) > 1)):  # one variable: no repeat
        for zt, s in product(zts, sides):
            _validate_sets(xt, s, zt)


def _nat(ds: Dataset, xt: tuple, yt: tuple,
         zt: tuple) -> tuple[float, int] | None:
    """:func:`_nat_tables`' (nat, dof) for the key ``(xt, yt, zt)``, every
    table's first axis the smaller side, or None past MAX_CELLS_PER_STRATUM
    or _MAX_TABLE_CELLS: a :func:`prefetch` result, else planes or kernel."""
    if (xt, yt, zt) in ds._stash:  # left by prefetch
        return ds._stash.pop((xt, yt, zt))
    rx, ry = math.prod(map(ds.arity, xt)), math.prod(map(ds.arity, yt))
    nz = math.prod(map(ds.arity, zt))
    if _on_planes(ds, rx * ry * nz):
        planes = _planes(ds)
        return _nat_tables(_plane_tables(_composite(*planes, xt), _composite(
            *planes, yt + zt), rx, ry, nz))[0]
    xcode, rx = _fold(ds, xt)
    ycode, ry = _fold(ds, yt)
    if len(xt + yt) > 2 and rx * ry > MAX_CELLS_PER_STRATUM:
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
    found = _nat(ds, *_validate_sets(xs, ys, z))
    if found is None:  # read as "independence not refutable"
        return CiResult(0.0, 0, 1.0, reliable=False, independent=True)
    return _result_from_kernel(*found, ds.n_rows, cfg)

