import dataclasses
import gc
import math
import weakref
from collections import Counter
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clcd import citest
from clcd.citest import (
    MAX_CELLS_PER_STRATUM,
    CiConfig,
    CiResult,
    _fold,
    _nat_kernel,
    _result_from_kernel,
    _strata,
    cond_mutual_information,
    g2_test,
    set_ci,
)
from clcd.mb import G2Tester
from clcd.synth import GenConfig, generate, sample
from conftest import build_dataset, permute_rows


def test_config_validation():
    with pytest.raises(ValueError, match="alpha"):
        CiConfig(alpha=0.0)
    with pytest.raises(ValueError, match="alpha"):
        CiConfig(alpha=1.0)
    with pytest.raises(ValueError, match="reliability_h"):
        CiConfig(reliability_h=0.0)
    with pytest.raises(ValueError, match="max_cond_size"):
        CiConfig(max_cond_size=0)


def test_g2_perfect_association_value():
    # Diagonal 2x2 table with 10 per cell: G2 = 2*20*ln2, dof 1.
    ds = build_dataset({"x": [0] * 10 + [1] * 10, "y": [0] * 10 + [1] * 10})
    res = g2_test(ds, 0, 1, cfg=CiConfig(reliability_h=5.0))
    assert res.statistic == pytest.approx(40.0 * math.log(2.0), rel=1e-14)
    assert res.dof == 1
    assert res.p_value == pytest.approx(1.3977963343581466e-7, rel=1e-9)
    assert res.reliable
    assert not res.independent


def test_g2_exact_independence_is_zero():
    # Product table: counts factorize, so every O equals E.
    x, y = [], []
    for xv, yv, c in ((0, 0, 12), (0, 1, 4), (1, 0, 6), (1, 1, 2)):
        x += [xv] * c
        y += [yv] * c
    ds = build_dataset({"x": x, "y": y})
    res = g2_test(ds, 0, 1)
    assert res.statistic == 0.0
    assert res.p_value == 1.0
    assert res.independent


def test_identity_with_cmi_fuzz():
    # statistic == 2 n ln2 * cmi must hold to rounding for arbitrary data.
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(20, 400))
        ax = int(rng.integers(2, 5))
        ay = int(rng.integers(2, 5))
        cols = {
            "x": rng.integers(0, ax, n),
            "y": rng.integers(0, ay, n),
            "z": rng.integers(0, 2, n),
        }
        ds = build_dataset(cols, arities=[ax, ay, 2])
        res = g2_test(ds, 0, 1, (2,))
        cmi = cond_mutual_information(ds, [0], [1], [2])
        assert res.statistic == pytest.approx(
            2.0 * n * math.log(2.0) * cmi, abs=1e-9)


def test_dof_skips_empty_strata_and_zero_marginals():
    # z=2 never occurs and y=2 never occurs within z=1: both shrink the dof.
    ds = build_dataset(
        {
            "x": [0, 0, 1, 1, 0, 0, 1, 1],
            "y": [0, 1, 0, 1, 0, 0, 1, 1],
            "z": [0, 0, 0, 0, 1, 1, 1, 1],
        },
        arities=[2, 3, 3],
    )
    res = g2_test(ds, 0, 1, (2,), cfg=CiConfig(reliability_h=0.1))
    # stratum z=0: x has 2 values, y has 2 observed values -> 1
    # stratum z=1: x has 2 values, y has 2 observed values -> 1
    # stratum z=2: empty -> 0
    assert res.dof == 2


def _g2_by_counting(x, y, zrows):
    """Reference G² and dof from cell counts kept in a Python dict."""
    cells = Counter(zip(zrows, x, y))
    strata = Counter(zrows)
    rows = Counter(zip(zrows, x))
    cols = Counter(zip(zrows, y))
    g2 = 2.0 * sum(o * math.log(o * strata[s] / (rows[s, a] * cols[s, b]))
                   for (s, a, b), o in cells.items())
    dof = sum((len({a for t, a in rows if t == s}) - 1)
              * (len({b for t, b in cols if t == s}) - 1) for s in strata)
    return max(g2, 0.0), dof


@st.composite
def _small_tables(draw):
    n = draw(st.integers(1, 60))
    arities = draw(st.lists(st.integers(1, 4), min_size=2, max_size=5))
    columns = [draw(st.lists(st.integers(0, a - 1), min_size=n, max_size=n))
               for a in arities]
    return arities, columns


@settings(max_examples=300, deadline=None)
@given(_small_tables())
def test_g2_matches_dict_count_reference(table):
    # Up to 3 z columns of arity <= 4 over <= 60 rows: the stratum table is
    # dense when it fits in n_rows cells and compacted when it does not.
    arities, columns = table
    ds = build_dataset({f"v{i}": c for i, c in enumerate(columns)},
                       arities=arities)
    z = tuple(range(2, len(columns)))
    res = g2_test(ds, 0, 1, z)
    zrows = list(zip(*columns[2:])) or [()] * len(columns[0])
    g2, dof = _g2_by_counting(columns[0], columns[1], zrows)
    assert res.dof == dof
    assert res.statistic == pytest.approx(g2, rel=1e-12, abs=1e-12)


def test_kernel_dense_and_compacted_strata_are_bit_identical():
    # z columns declare arity 5 but only ever take the values 0 and 4, so raw
    # codes leave empty strata; at |z|=4 (625 strata x 4 cells > 2000
    # rows) _strata compacts the raw codes, while the kernel also takes
    # the raw codes as one dense table and np.unique's codes as another.
    rng = np.random.default_rng(17)
    n = 2000
    x = rng.integers(0, 2, n)
    cols = {"x": x, "y": (x + (rng.random(n) < 0.3)) % 2}
    for i in range(4):
        cols[f"z{i}"] = 4 * ((x + (rng.random(n) < 0.2 + 0.1 * i)) % 2)
    ds = build_dataset(cols, arities=[2, 2, 5, 5, 5, 5])
    xcode, rx = _fold(ds, (0,))
    ycode, ry = _fold(ds, (1,))
    for k in range(5):
        zt = tuple(range(2, 2 + k))
        zidx, n_strata = _fold(ds, zt)
        raw = np.zeros(n, dtype=np.int64) if zidx is None else zidx
        observed, compact = np.unique(raw, return_inverse=True)
        dense = _nat_kernel(xcode, rx, ycode, ry, zidx, n_strata)
        ref = _nat_kernel(xcode, rx, ycode, ry, compact, len(observed))
        strata = _strata(ds, zt, rx * ry)
        assert (strata[1] < n_strata) == (k == 4)
        assert _nat_kernel(xcode, rx, ycode, ry, *strata) == dense == ref
        assert dense[1] > 0


def _stratum_major_reference(xcode, rx, ycode, ry, zidx, n_strata):
    """The kernel as a stratum-major ``(S, rx, ry)`` table, read in C order.

    It compacts raw fold codes itself, as the kernel once did; the library
    now compacts them in ``_strata`` before the kernel.
    """
    cells = rx * ry
    flat = xcode * ry + ycode
    if zidx is not None:
        if n_strata * cells > len(flat):
            strata, zidx = np.unique(zidx, return_inverse=True)
            n_strata = len(strata)
        flat += zidx * cells
    counts = np.bincount(flat, minlength=n_strata * cells).reshape(
        n_strata, rx, ry)

    rows = counts.sum(axis=2, keepdims=True)
    cols = counts.sum(axis=1, keepdims=True)
    totals = rows.sum(axis=1, keepdims=True)

    mask = counts > 0
    o = counts[mask].astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = rows * cols / totals  # empty strata yield NaN, masked out
    nat = float((o * np.log(o / expected[mask])).sum()) if o.size else 0.0
    rx_eff = (rows > 0).sum(axis=1).ravel()
    ry_eff = (cols > 0).sum(axis=2).ravel()
    dof = int(np.maximum(rx_eff - 1, 0) @ np.maximum(ry_eff - 1, 0))
    return max(nat, 0.0), dof


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 300), k=st.integers(0, 10),
       arities=st.lists(st.integers(1, 6), min_size=12, max_size=12),
       seed=st.integers(0, 2**32 - 1))
def test_kernel_matches_stratum_major_reference(n, k, arities, seed):
    # |z|=0 is the single-stratum path; small z tables stay dense and large
    # ones (up to 6**10 raw strata over <= 300 rows) take the compaction.
    # Each z column leans on x so that strata differ in their association.
    rng = np.random.default_rng(seed)
    x = rng.integers(0, arities[0], n)
    cols = {"x": x, "y": (x + rng.integers(0, 2, n)) % arities[1]}
    for i, a in enumerate(arities[2:2 + k]):
        cols[f"z{i}"] = np.where(rng.random(n) < 0.5, x % a,
                                 rng.integers(0, a, n))
    ds = build_dataset(cols, arities=arities[:2 + k])
    xcode, rx = _fold(ds, (0,))
    ycode, ry = _fold(ds, (1,))
    zt = tuple(range(2, 2 + k))
    got = _nat_kernel(xcode, rx, ycode, ry, *_strata(ds, zt, rx * ry))
    assert got == _stratum_major_reference(xcode, rx, ycode, ry,
                                           *_fold(ds, zt))


def test_row_permutation_leaves_g2_results_identical():
    # 14 planted binary variables over 400 rows: from |z|=8 on the raw
    # strata outnumber the rows and the kernel compacts them.
    net, _ = generate(GenConfig(n_labels=2, n_features=12, seed=4))
    ds = sample(net, 400, 4)
    rng = np.random.default_rng(4)
    for seed in range(3):
        shuffled = permute_rows(ds, seed)
        for k in range(13):
            for _ in range(4):
                x, y, *z = rng.permutation(ds.n_vars)[:2 + k].tolist()
                assert g2_test(shuffled, x, y, z) == g2_test(ds, x, y, z)


def test_cmi_rejects_table_past_cell_cap(monkeypatch):
    # Where set_ci reports the test unreliable, the estimate cannot be made.
    rng = np.random.default_rng(2)
    ds = build_dataset({f"v{i}": rng.integers(0, 2, 40) for i in range(5)})
    at_cap = cond_mutual_information(ds, [0], [1], [2, 3])
    monkeypatch.setattr(citest, "_MAX_TABLE_CELLS", 16)
    assert cond_mutual_information(ds, [0], [1], [2, 3]) == at_cap
    assert not set_ci(ds, [0], [1], [2, 3, 4]).reliable
    with pytest.raises(ValueError, match="cells"):
        cond_mutual_information(ds, [0], [1], [2, 3, 4])


def test_unreliable_when_rows_scarce():
    ds = build_dataset({"x": [0, 1, 0, 1], "y": [0, 1, 1, 0]})
    res = g2_test(ds, 0, 1, cfg=CiConfig(reliability_h=10.0))
    assert not res.reliable
    assert res.independent
    assert res.p_value <= 1.0


def test_degenerate_constant_column_dof_zero():
    ds = build_dataset({"x": [0] * 8, "y": [0, 1] * 4}, arities=[2, 2])
    res = g2_test(ds, 0, 1)
    assert res.dof == 0
    assert not res.reliable
    assert res.independent


def test_set_ci_matches_manual_composite():
    # Composite of two binary columns must behave like one 4-ary column.
    rng = np.random.default_rng(11)
    n = 600
    a = rng.integers(0, 2, n)
    b = rng.integers(0, 2, n)
    y = (a ^ b) & rng.integers(0, 2, n) | (a & b)
    ds = build_dataset({"a": a, "b": b, "y": y})
    merged = build_dataset({"ab": a * 2 + b, "y": y}, arities=[4, 2])
    got = set_ci(ds, [0, 1], [2])
    ref = g2_test(merged, 0, 1)
    assert got.statistic == pytest.approx(ref.statistic, rel=1e-12)
    assert got.dof == ref.dof
    assert got.p_value == pytest.approx(ref.p_value, rel=1e-9)


def test_set_ci_singleton_reduces_to_g2():
    rng = np.random.default_rng(3)
    n = 300
    ds = build_dataset(
        {
            "x": rng.integers(0, 3, n),
            "y": rng.integers(0, 2, n),
            "z": rng.integers(0, 2, n),
        },
        arities=[3, 2, 2],
    )
    lhs = set_ci(ds, [0], [1], [2])
    rhs = g2_test(ds, 0, 1, (2,))
    assert lhs == rhs


def test_set_ci_singleton_equals_g2_past_cell_guard():
    # 70 x 70 = 4900 cells exceeds the guard, which caps composite sides only.
    rng = np.random.default_rng(13)
    n = 3000
    x = rng.integers(0, 70, n)
    ds = build_dataset({"x": x, "y": (x + rng.integers(0, 3, n)) % 70},
                       arities=[70, 70])
    assert 70 * 70 > MAX_CELLS_PER_STRATUM
    ref = g2_test(ds, 0, 1, cfg=CiConfig(reliability_h=0.5))
    assert ref.dof > 0
    assert set_ci(ds, [0], [1], cfg=CiConfig(reliability_h=0.5)) == ref


def test_set_ci_rejects_overlap_and_empty():
    ds = build_dataset({"x": [0, 1], "y": [1, 0], "z": [0, 1]})
    with pytest.raises(ValueError, match="disjoint"):
        set_ci(ds, [0], [0])
    with pytest.raises(ValueError, match="disjoint"):
        set_ci(ds, [0], [1], [1])
    with pytest.raises(ValueError, match="nonempty"):
        set_ci(ds, [], [1])


def test_set_ci_cell_guard():
    # 13 binary x-vars -> composite arity 8192 > MAX_CELLS_PER_STRATUM.
    rng = np.random.default_rng(0)
    n = 50
    cols = {f"v{i}": rng.integers(0, 2, n) for i in range(14)}
    ds = build_dataset(cols)
    assert 2 ** 13 > MAX_CELLS_PER_STRATUM
    res = set_ci(ds, list(range(13)), [13])
    assert not res.reliable
    assert res.independent
    assert res.dof == 0


def test_set_independent_wrapper():
    ds = build_dataset({"x": [0] * 10 + [1] * 10, "y": [0] * 10 + [1] * 10})
    assert not G2Tester(ds, CiConfig()).set_independent([0], [1])
    rng = np.random.default_rng(5)
    ds2 = build_dataset(
        {"x": rng.integers(0, 2, 500), "y": rng.integers(0, 2, 500)})
    assert G2Tester(ds2, CiConfig()).set_independent([0], [1])


def test_cmi_nonnegative_and_bounded():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = int(rng.integers(30, 200))
        ds = build_dataset(
            {
                "x": rng.integers(0, 2, n),
                "y": rng.integers(0, 3, n),
                "z": rng.integers(0, 2, n),
            },
            arities=[2, 3, 2],
        )
        cmi = cond_mutual_information(ds, [0], [1], [2])
        assert 0.0 <= cmi <= 1.0 + 1e-12  # capped by H(X) <= 1 bit


def test_cmi_of_copy_is_entropy():
    # I(X;X') for a bijective copy equals H(X).
    x = np.array([0] * 30 + [1] * 10)
    ds = build_dataset({"x": x, "x2": 1 - x})
    p = 0.75
    h = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
    assert cond_mutual_information(ds, [0], [1]) == pytest.approx(h, rel=1e-12)


def test_g2_result_is_deterministic():
    rng = np.random.default_rng(9)
    cols = {
        "x": rng.integers(0, 2, 100),
        "y": rng.integers(0, 2, 100),
        "z": rng.integers(0, 3, 100),
    }
    ds = build_dataset(cols, arities=[2, 2, 3])
    first = g2_test(ds, 0, 1, (2,))
    for _ in range(3):
        assert g2_test(ds, 0, 1, (2,)) == first
        assert isinstance(first, CiResult)


def _cold(ds):
    """The same data in a new Dataset, whose memo starts empty."""
    return dataclasses.replace(ds)


def _counter(ds, xs, ys, z):
    """Which counter the size rule picks: the marginal table, the bit planes
    (cells x words per plane <= rows) or the bincount kernel."""
    if not z and len(xs) == len(ys) == 1:
        return "marginal"
    cells = math.prod(ds.arity(v) for v in (*xs, *ys, *z))
    return "planes" if cells * -(-ds.n_rows // 64) <= ds.n_rows else "kernel"


def _spy_counters(mp):
    """Count the calls that reach each counter."""
    seen = Counter()
    for name, label in (("_marginal", "marginal"), ("_plane_table", "planes"),
                        ("_nat_kernel", "kernel")):
        def spy(*args, _fn=getattr(citest, name), _label=label):
            seen[_label] += 1
            return _fn(*args)
        mp.setattr(citest, name, spy)
    return seen


def _took_kernel(ds, z):
    """True when the memo holds ``z``'s fold, which only the kernel builds."""
    return "code" in ds._memo.get(tuple(sorted(z)), {})


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_strata_memo_matches_memo_cold_dataset(data):
    # A few z sets, reused in any order and interleaved across the three
    # entry points, over 8 columns of arity 1-5 and 5-120 rows: large z take
    # the compaction, small ones the dense table or the bit planes. Each
    # answer must equal a cold dataset's answer for z in sorted order, and
    # each call must reach the counter that the size rule names.
    n = data.draw(st.integers(5, 120))
    arities = data.draw(st.lists(st.integers(1, 5), min_size=8, max_size=8))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    ds = build_dataset({f"v{i}": rng.integers(0, a, n)
                        for i, a in enumerate(arities)}, arities=arities)
    zsets = data.draw(st.lists(st.sets(st.integers(0, 7), max_size=6),
                               min_size=1, max_size=3))
    calls = data.draw(st.lists(st.tuples(
        st.sampled_from((g2_test, set_ci, cond_mutual_information)),
        st.sampled_from(zsets), st.permutations(range(8))),
        min_size=1, max_size=12))
    with pytest.MonkeyPatch.context() as mp:
        seen = _spy_counters(mp)
        for call, zset, order in calls:
            z = [v for v in order if v in zset]
            rest = [v for v in order if v not in zset]
            if len(rest) < 2:
                continue
            args = ((rest[0], rest[1]) if call is g2_test
                    else (rest[:1], rest[1:3]))
            sides = [[a] if call is g2_test else a for a in args]
            before = seen.copy()
            got = call(ds, *args, z)
            assert seen - before == Counter([_counter(ds, *sides, z)])
            assert got == call(_cold(ds), *args, sorted(z))


def test_strata_memo_is_per_dataset():
    # Equal x, y and z over different z codes, checked against the dict-count
    # reference; 81 strata x 9 cells > 200 rows, so entries hold compactions.
    rng = np.random.default_rng(8)
    a = build_dataset({f"v{i}": rng.integers(0, 3, 200) for i in range(6)})
    shift = np.zeros((6, 200), dtype=np.int64)
    shift[2:] = rng.random((4, 200)) < 0.5
    b = build_dataset({f"v{i}": c for i, c in enumerate((a.codes + shift) % 3)},
                      arities=a.arities)
    z = (2, 3, 4, 5)
    results = []
    for ds in (a, b, a, b):
        zrows = list(zip(*ds.codes[list(z)]))
        for x, y in ((0, 1), (1, 0)):
            res = g2_test(ds, x, y, z)
            g2, dof = _g2_by_counting(ds.codes[x], ds.codes[y], zrows)
            assert res.dof == dof
            assert res.statistic == pytest.approx(g2, rel=1e-12)
            cmi = cond_mutual_information(ds, [x], [y], z)
            assert cmi * 2 * ds.n_rows * math.log(2.0) == pytest.approx(g2)
            results.append(res)
        assert _took_kernel(ds, z)
    assert results[0] != results[2]


def test_strata_memo_arrays_are_read_only():
    # 8 strata x 4 cells > 20 rows: the entry holds a fold and a compaction.
    rng = np.random.default_rng(6)
    ds = build_dataset({f"v{i}": rng.integers(0, 2, 20) for i in range(5)},
                       arities=[2] * 5)
    g2_test(ds, 0, 1, (4, 2, 3))
    (key, entry), = ds._memo.items()
    assert key == (2, 3, 4)
    assert _took_kernel(ds, key) and "planes" not in entry
    arrays = [v for v in entry.values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 2
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def test_dataset_with_strata_memo_is_freed():
    rng = np.random.default_rng(1)
    ds = build_dataset({f"v{i}": rng.integers(0, 2, 20) for i in range(5)},
                       arities=[2] * 5)
    g2_test(ds, 0, 1, (2, 3, 4))
    assert _took_kernel(ds, (2, 3, 4))
    g2_test(ds, 0, 1, (2, 3))  # 4 strata x 4 cells x 1 word <= 20 rows
    assert "planes" in ds._memo[(2, 3)]
    ref = weakref.ref(ds)
    del ds
    gc.collect()
    assert ref() is None


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_category_recoding_keeps_g2_results(seed):
    # Relabelling every column's categories by a bijection gives the same
    # tables with cells and strata in another order: dof and reliability
    # stay exact and the sums move by rounding only. |z|=3 over 300 rows
    # reaches the compacted strata.
    rng = np.random.default_rng(seed)
    n = 300
    arities = rng.integers(2, 5, 7)
    base = rng.integers(0, arities[0], n)
    cols = [base] + [np.where(rng.random(n) < 0.4, base % a,
                              rng.integers(0, a, n)) for a in arities[1:]]
    ds = build_dataset({f"v{i}": c for i, c in enumerate(cols)},
                       arities=arities)
    recoded = build_dataset({f"v{i}": rng.permutation(a)[c] for i, (a, c)
                             in enumerate(zip(arities, cols))},
                            arities=arities)
    for k in range(4):
        for _ in range(3):
            x, y, *z = rng.permutation(7)[:2 + k].tolist()
            got, ref = g2_test(recoded, x, y, z), g2_test(ds, x, y, z)
            assert (got.dof, got.reliable) == (ref.dof, ref.reliable)
            assert got.statistic == pytest.approx(ref.statistic, rel=1e-12,
                                                  abs=1e-12)
            assert got.p_value == pytest.approx(ref.p_value, rel=1e-12)


def _kernel_only(ds, xt, yt, zt=()):
    """The count table and result of ``set_ci(ds, xt, yt, zt)`` through
    ``_fold``, one bincount and ``_nat_kernel``, with no memo and no planes."""
    (xcode, rx), (ycode, ry), (zcode, nz) = map(partial(_fold, ds),
                                                (xt, yt, zt))
    flat = (xcode * ry + ycode) * nz + (0 if zcode is None else zcode)
    counts = np.bincount(flat, minlength=rx * ry * nz).reshape(rx, ry, nz)
    nat_dof = _nat_kernel(xcode, rx, ycode, ry, zcode, nz)
    return counts, _result_from_kernel(*nat_dof, ds.n_rows, CiConfig())


@st.composite
def _marginal_tables(draw):
    # Declared arities 2-6 over columns that may use fewer levels, skip the
    # lower ones, or hold one value; n crosses the 64-row word boundaries.
    n = draw(st.sampled_from([1, 2, 63, 64, 65, 127, 128, 129])
             | st.integers(1, 300))
    arities = draw(st.lists(st.integers(2, 6), min_size=2, max_size=7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for a in arities:
        low, high = sorted(rng.integers(0, a, 2))
        columns.append(rng.integers(low, high + 1, n))
    return build_dataset({f"v{i}": c for i, c in enumerate(columns)},
                         arities=arities)


@settings(max_examples=300, deadline=None)
@given(_marginal_tables())
def test_marginal_table_equals_kernel_for_every_ordered_pair(ds):
    # Both orders of a pair read one row's block, one of them transposed.
    for x in range(ds.n_vars):
        for y in range(ds.n_vars):
            if x != y:
                assert g2_test(ds, x, y) == _kernel_only(ds, (x,), (y,))[1]
    assert ds._marginal[None] is not None


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_marginal_table_warm_matches_cold_dataset(data):
    # Marginal tests through both entry points, in any order and interleaved
    # with conditional ones, each equal to a cold dataset's answer.
    ds = data.draw(_marginal_tables())
    orders = st.permutations(range(ds.n_vars))
    for x, y, *rest in data.draw(st.lists(orders, min_size=1, max_size=12)):
        zs = data.draw(st.sampled_from([(), tuple(rest[:1])]))
        assert g2_test(ds, x, y, zs) == g2_test(_cold(ds), x, y, zs)
        assert set_ci(ds, [y], [x]) == set_ci(_cold(ds), [y], [x])


def test_marginal_table_is_per_dataset():
    # Two datasets of one shape: each test reads its own dataset's rows.
    rng = np.random.default_rng(12)
    a = build_dataset({f"v{i}": rng.integers(0, 3, 200) for i in range(4)})
    flip = rng.random((4, 200)) < 0.5
    b = build_dataset({f"v{i}": c for i, c in enumerate((a.codes + flip) % 3)},
                      arities=a.arities)
    results = []
    for ds in (a, b, a, b):
        for x, y in ((0, 1), (1, 0), (2, 3)):
            res = g2_test(ds, x, y)
            assert res == _kernel_only(ds, (x,), (y,))[1]
            g2, dof = _g2_by_counting(ds.codes[x], ds.codes[y], [()] * 200)
            assert res.dof == dof
            assert res.statistic == pytest.approx(g2, rel=1e-12)
            results.append(res)
    assert results[:3] == results[6:9] and results[3:6] == results[9:]
    assert results[:3] != results[3:6]
    assert a._marginal[0] is not b._marginal[0]


def test_marginal_table_arrays_are_read_only():
    rng = np.random.default_rng(6)
    ds = build_dataset({f"v{i}": rng.integers(0, 3, 70) for i in range(4)})
    g2_test(ds, 2, 0)
    g2_test(ds, 1, 3)
    assert sorted(k for k in ds._marginal if k is not None) == [0, 1]
    arrays = [*ds._marginal[None], ds._marginal[0], ds._marginal[1]]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def test_dataset_with_marginal_table_is_freed():
    rng = np.random.default_rng(1)
    ds = build_dataset({f"v{i}": rng.integers(0, 2, 20) for i in range(5)},
                       arities=[2] * 5)
    g2_test(ds, 0, 1)
    assert ds._marginal
    ref = weakref.ref(ds)
    del ds
    gc.collect()
    assert ref() is None


@st.composite
def _plane_tests(draw):
    # 7 columns of declared arity 1-4 that may use fewer levels, skip the
    # lower ones, or hold one value; n crosses the 64-row word boundaries.
    # Each test has sides of 1-2 variables and 0-3 conditioning variables.
    n = draw(st.sampled_from([63, 64, 65, 127, 128, 129])
             | st.integers(1, 300))
    arities = draw(st.lists(st.integers(1, 4), min_size=7, max_size=7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for a in arities:
        low, high = sorted(rng.integers(0, a, 2))
        columns.append(rng.integers(low, high + 1, n))
    ds = build_dataset({f"v{i}": c for i, c in enumerate(columns)},
                       arities=arities)
    tests = []
    for order in draw(st.lists(st.permutations(range(7)), min_size=1,
                               max_size=6)):
        kx, ky = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        kz = draw(st.integers(0, 3))
        tests.append((order[:kx], order[kx:kx + ky],
                      order[kx + ky:kx + ky + kz]))
    return ds, tests


@settings(max_examples=300, deadline=None)
@given(_plane_tests())
def test_plane_tables_equal_kernel(case):
    # Every test, in both orientations, equals the kernel's result through
    # set_ci and g2_test, and a popcounted table equals the bincount table
    # cell for cell, so a permuted composite order cannot hide in a sum.
    ds, tests = case
    for xs, ys, z in tests:
        xt, yt, zt = (tuple(sorted(t)) for t in (xs, ys, z))
        for a, b in ((xt, yt), (yt, xt)):
            counts, ref = _kernel_only(ds, a, b, zt)
            assert set_ci(ds, list(a), list(b), z) == ref
            if len(a) == len(b) == 1:
                assert g2_test(ds, a[0], b[0], z) == ref
            if _counter(ds, a, b, zt) == "planes":
                got = citest._plane_table(ds, a, b, zt)
                assert (got.reshape(counts.shape) == counts).all()


def test_size_rule_picks_the_counter(monkeypatch):
    # 128 binary rows are 2 words per plane: 64 cells x 2 words = 128 rows
    # is the largest table the planes count, so x, y | 4 binary z takes the
    # planes and | 5 z the kernel; composite sides spend the same cells.
    rng = np.random.default_rng(3)
    ds = build_dataset({f"v{i}": rng.integers(0, 2, 128) for i in range(9)})
    cases = [((0,), (1,), ()), ((0,), (1,), (2,)), ((0,), (1,), (2, 3, 4, 5)),
             ((0, 1), (2,), (3, 4, 5)), ((0,), (1,), (2, 3, 4, 5, 6)),
             ((0, 1), (2, 3), (4, 5, 6))]
    expected = ["marginal", "planes", "planes", "planes", "kernel", "kernel"]
    refs = [_kernel_only(ds, *case)[1] for case in cases]
    seen = _spy_counters(monkeypatch)
    for case, path, ref in zip(cases, expected, refs):
        assert _counter(ds, *case) == path
        before = seen.copy()
        assert set_ci(ds, *case) == ref
        assert seen - before == Counter([path])
    cond_mutual_information(ds, [0], [1], [2, 3])
    assert seen == Counter(marginal=1, planes=4, kernel=2)


def test_plane_memo_is_one_read_only_entry():
    # 4 strata x 4 cells x 4 words <= 200 rows: the planes count the test and
    # the entry holds only z's planes; a kernel test under the same z adds
    # the fold to that entry, and a new z replaces it.
    rng = np.random.default_rng(6)
    ds = build_dataset({f"v{i}": rng.integers(0, 2, 200) for i in range(8)})
    set_ci(ds, [0], [1], [3, 2])
    (key, entry), = ds._memo.items()
    assert key == (2, 3) and set(entry) == {"n_states", "planes"}
    planes = entry["planes"]
    assert planes.shape == (4, 4) and planes.dtype == np.uint64
    assert not planes.flags.writeable
    with pytest.raises(ValueError):
        planes[0] = 0
    set_ci(ds, [0, 4, 5], [1, 6], [2, 3])
    (key, entry), = ds._memo.items()
    assert key == (2, 3) and entry["planes"] is planes
    assert _took_kernel(ds, key)
    set_ci(ds, [0], [1], [4, 2])
    assert list(ds._memo) == [(2, 4)]


def test_plane_memo_warm_matches_cold_for_sets_of_one_size():
    # Conditioning sets of equal size, revisited: each answer reads its own
    # set's planes, never those of another set of the same length.
    rng = np.random.default_rng(9)
    x = rng.integers(0, 2, 300)
    cols = {"x": x, "y": (x + (rng.random(300) < 0.3)) % 2}
    for i in range(4):
        cols[f"z{i}"] = np.where(rng.random(300) < 0.2 * i, x,
                                 rng.integers(0, 3, 300))
    ds = build_dataset(cols)
    results = []
    for z in [(2,), (3,), (2,), (5,), (2, 3), (4, 5), (3, 2), (2, 5)]:
        assert _counter(ds, [0], [1], z) == "planes"
        res = g2_test(ds, 0, 1, z)
        assert res == g2_test(_cold(ds), 0, 1, z)
        results.append(res)
    assert len({r.statistic for r in results}) == 6  # one per distinct set


def _nat_table_reference(counts):
    """The one-table scorer that ``_nat_tables`` replaced, kept as its
    oracle: margins, expected counts and one sum over one 3-D table."""
    rows = counts.sum(axis=1)
    cols = counts.sum(axis=0)
    totals = rows.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = (rows[:, None] * cols / totals).transpose(2, 0, 1).ravel()
    counts = counts.transpose(2, 0, 1).ravel()
    nonzero = counts.nonzero()[0]
    o = counts[nonzero]
    nat = float((o * np.log(o / expected[nonzero])).sum())
    dof = int(np.maximum((rows > 0).sum(0) - 1, 0) @ ((cols > 0).sum(0) - 1))
    return max(nat, 0.0), dof


@st.composite
def _table_stacks(draw):
    # 1-8 tables of one shape, from a single cell up to 4 x 4 x 40; sparse
    # counts, and rows, columns or strata emptied in some of the tables.
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 4)),
             draw(st.integers(1, 4)), draw(st.integers(1, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(0, draw(st.sampled_from([2, 9, 1000])), shape)
    counts[rng.random(shape) < draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))] = 0
    for axis in (1, 2, 3):
        if draw(st.booleans()):
            index = [rng.random(shape[0]) < 0.5, slice(None), slice(None),
                     slice(None)]
            index[axis] = rng.integers(shape[axis])
            counts[tuple(index)] = 0
    return counts


@settings(max_examples=300, deadline=None)
@given(_table_stacks())
def test_nat_tables_score_each_table_as_if_alone(counts):
    got = citest._nat_tables(counts)
    assert got == [_nat_table_reference(table) for table in counts]
    assert got == [citest._nat_tables(table[None])[0] for table in counts]


def test_prefetched_result_is_read_by_its_own_test_only():
    # A result waits under its conditioning set and its orientation: a test
    # under another z, or with the sides swapped, counts afresh, and the
    # test itself takes the result out of the memo.
    rng = np.random.default_rng(5)
    ds = build_dataset({f"v{i}": rng.integers(0, 2, 400) for i in range(7)})
    a, b = (0,), (1, 2)
    cases = [(a, b, (3, 4)), (a, b, (3, 5)), (b, a, (3, 4))]
    refs = [set_ci(_cold(ds), *case) for case in cases]
    assert len({r.statistic for r in refs}) == 3  # a misread would show
    citest.prefetch(ds, [(a, b)], (3, 4))
    assert (a, b) in ds._memo[(3, 4)]
    assert set_ci(ds, *cases[1]) == refs[1]
    citest.prefetch(ds, [(a, b)], (3, 4))
    assert set_ci(ds, *cases[2]) == refs[2]
    assert set_ci(ds, *cases[0]) == refs[0]
    assert all(isinstance(key, str) for key in ds._memo[(3, 4)])


@pytest.mark.parametrize("batch_words", [1, 250, citest._BATCH_WORDS])
def test_prefetch_in_chunks_answers_like_lone_tests(monkeypatch, batch_words):
    # 400 rows are 7 words a plane, so under a 4-state z a (2, 2) member
    # ANDs 112 words and a (2, 4) or (4, 2) one 224: chunks of one member,
    # of two with a remainder, or each shape's whole stack.
    rng = np.random.default_rng(8)
    ds = build_dataset({f"v{i}": rng.integers(0, 2, 400) for i in range(9)})
    zt = (7, 8)
    tests = [((0,), (v,)) for v in range(1, 6)]
    tests += [((0,), (1, 2)), ((3, 4), (5,)), ((1, 6), (2,))]
    refs = [set_ci(_cold(ds), *test, zt) for test in tests]
    monkeypatch.setattr(citest, "_BATCH_WORDS", batch_words)
    citest.prefetch(ds, tests, zt)
    assert all(test in ds._memo[zt] for test in tests)
    assert [set_ci(ds, *test, zt) for test in tests] == refs
