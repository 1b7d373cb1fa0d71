import math

import numpy as np
import pytest

from clcd.citest import CiConfig, _fold, g2_test
from clcd.data import Dataset, load_dataset

from conftest import build_dataset


def test_dataset_basic_properties():
    ds = build_dataset({"a": [0, 1, 2], "b": [1, 0, 1], "y": [0, 1, 1]},
                       labels={"y"})
    assert ds.n_vars == 3
    assert ds.n_rows == 3
    assert ds.labels == (2,)
    assert ds.features == (0, 1)
    assert ds.arity(0) == 3
    assert ds.id_of("b") == 1
    with pytest.raises(KeyError):
        ds.id_of("nope")


def test_dataset_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Dataset(codes=np.zeros(3, dtype=np.int64), arities=np.array([2]),
                is_label=np.array([True]), names=("a",))
    with pytest.raises(ValueError):
        build_dataset({"a": [0, 3], "y": [0, 1]}, labels={"y"},
                      arities=[2, 2])
    with pytest.raises(ValueError):
        build_dataset({"a": [0, 1], "b": [0, 1]}, labels=set())


def test_dataset_is_immutable():
    ds = build_dataset({"a": [0, 1], "y": [1, 0]}, labels={"y"})
    with pytest.raises(ValueError):
        ds.codes[0, 0] = 1


def test_stratum_index_orders_high_to_low():
    ds = build_dataset({"a": [0, 0, 1, 1], "b": [0, 1, 0, 1],
                        "y": [0, 0, 0, 0]}, labels={"y"})
    idx, n = _fold(ds, (0, 1))
    # variable 0 is the most significant digit
    assert n == 4
    assert idx.tolist() == [0, 1, 2, 3]


def _g2_by_hand(strata):
    """2·Σ O·ln(O/E) over nested [stratum][x][y] count lists."""
    total = 0.0
    for table in strata:
        n = sum(map(sum, table))
        rows = [sum(r) for r in table]
        cols = [sum(c) for c in zip(*table)]
        for i, r in enumerate(table):
            for j, o in enumerate(r):
                if o:
                    total += o * math.log(o * n / (rows[i] * cols[j]))
    return 2.0 * total


def test_contingency_counts():
    ds = build_dataset({"a": [0, 0, 1, 1, 1], "b": [0, 1, 0, 1, 1],
                        "y": [0, 0, 0, 1, 1]}, labels={"y"})
    cfg = CiConfig(reliability_h=0.1)
    res = g2_test(ds, 0, 1, cfg=cfg)
    assert res.statistic == pytest.approx(_g2_by_hand([[[1, 1], [1, 2]]]),
                                          rel=1e-12)
    assert res.dof == 1
    # within y: [[1, 1], [1, 0]] at y=0 and a single filled cell at y=1
    cond = g2_test(ds, 0, 1, (2,), cfg=cfg)
    assert cond.statistic == pytest.approx(
        _g2_by_hand([[[1, 1], [1, 0]], [[0, 0], [0, 2]]]), rel=1e-12)
    assert cond.dof == 1


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


META = '{"labels": ["y"]}'


def test_load_dataset_integer_and_string_columns(tmp_path):
    data = _write(tmp_path, "d.csv",
                  "x,color,y\n0,red,0\n2,blue,1\n1,red,0\n")
    meta = _write(tmp_path, "m.json", META)
    ds = load_dataset(data, meta)
    assert ds.names == ("x", "color", "y")
    # integer column keeps its codes verbatim; arity covers the max
    assert ds.column(0).tolist() == [0, 2, 1]
    assert ds.arity(0) == 3
    # string column is coded in first-seen order
    assert ds.column(1).tolist() == [0, 1, 0]
    assert ds.labels == (2,)


def test_load_dataset_errors(tmp_path):
    meta = _write(tmp_path, "m.json", META)
    bad_rows = _write(tmp_path, "r.csv", "x,y\n0,1\n0\n")
    with pytest.raises(ValueError, match="row 3"):
        load_dataset(bad_rows, meta)
    dup = _write(tmp_path, "dup.csv", "x,x,y\n0,1,0\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_dataset(dup, meta)
    missing_label = _write(tmp_path, "ml.csv", "x,z\n0,1\n")
    with pytest.raises(ValueError, match="label"):
        load_dataset(missing_label, meta)
    blank = _write(tmp_path, "b.csv", "x,y\n0,\n")
    with pytest.raises(ValueError, match="blank"):
        load_dataset(blank, meta)
    negative = _write(tmp_path, "n.csv", "x,y\n-1,0\n")
    with pytest.raises(ValueError, match="negative"):
        load_dataset(negative, meta)
    empty = _write(tmp_path, "e.csv", "")
    with pytest.raises(ValueError):
        load_dataset(empty, meta)
    headers_only = _write(tmp_path, "h.csv", "x,y\n")
    with pytest.raises(ValueError):
        load_dataset(headers_only, meta)


def test_load_dataset_roundtrip_codes(tmp_path):
    rows = ["a,b,y"]
    rng = np.random.default_rng(3)
    a = rng.integers(0, 3, size=50)
    b = rng.integers(0, 2, size=50)
    y = rng.integers(0, 2, size=50)
    for i in range(50):
        rows.append(f"{a[i]},{b[i]},{y[i]}")
    data = _write(tmp_path, "d.csv", "\n".join(rows) + "\n")
    meta = _write(tmp_path, "m.json", META)
    ds = load_dataset(data, meta)
    assert ds.column(0).tolist() == a.tolist()
    assert ds.column(2).tolist() == y.tolist()
