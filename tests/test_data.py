import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clcd import data
from clcd.citest import CiConfig, _fold, g2_test
from clcd.cli import main
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


def test_dataset_rejects_codes_and_arities_that_are_not_whole():
    # A cast to int64 would truncate 0.7 to 0 and 2.7 to 2 without a word;
    # whole numbers of any dtype still build the same dataset.
    def make(codes, arities=(2, 2)):
        return Dataset(codes=codes, arities=arities, is_label=[False, True],
                       names=("a", "y"))

    for codes, arities in (([[0.7, 1.9, 0.2], [0, 1, 1]], [2.7, 2]),
                           ([[0.7, 1.9, 0.2], [0, 1, 1]], [2, 2]),
                           ([[0, 1, 0], [0, 1, 1]], [2.5, 2]),
                           (np.array([[np.nan, 1, 0], [0, 1, 1]]), [2, 2]),
                           ([[0, 1, 0], [0, 1, 1]], np.array([np.inf, 2]))):
        with pytest.raises(ValueError, match="whole numbers"):
            make(codes, arities)
    ds = make(np.array([[0.0, 1.0, 0.0], [0, 1, 1]]), np.array([2.0, 2.0]))
    assert ds.codes.tolist() == [[0, 1, 0], [0, 1, 1]]
    assert ds.arities.tolist() == [2, 2]


def test_dataset_is_immutable():
    ds = build_dataset({"a": [0, 1], "y": [1, 0]}, labels={"y"})
    with pytest.raises(ValueError):
        ds.codes[0, 0] = 1


def test_dataset_copies_a_view_of_writable_codes():
    base = np.random.default_rng(0).integers(0, 2, size=(6, 50))
    ds = Dataset(codes=base[:, :], arities=np.full(6, 2),
                 is_label=np.arange(6) == 5, names=tuple("abcdef"))
    first = g2_test(ds, 0, 1, (2, 3))
    base[2] = 0
    again = g2_test(ds, 0, 1, (2, 3))
    # the dataset keeps the rows it was built from, and its memo stays true
    assert again == first == g2_test(dataclasses.replace(ds), 0, 1, (2, 3))
    assert (again.dof, round(again.statistic, 2)) == (4, 2.04)
    moved = g2_test(dataclasses.replace(ds, codes=base), 0, 1, (2, 3))
    assert (moved.dof, round(moved.statistic, 2)) == (2, 0.57)


def test_dataset_leaves_the_callers_arrays_writable():
    codes = np.array([[0, 1, 0, 1], [1, 1, 0, 0]], dtype=np.int64)
    is_label = np.array([False, True])
    ds = Dataset(codes=codes, arities=np.array([2, 2]), is_label=is_label,
                 names=("a", "y"))
    assert codes.flags.writeable and is_label.flags.writeable
    codes[0, 0] = 1
    is_label[0] = True
    assert ds.codes[0].tolist() == [0, 1, 0, 1]
    assert ds.labels == (1,)
    # a read-only array that owns its data is the one handover kept as is
    frozen = np.array([[0, 1, 0, 1], [1, 1, 0, 0]], dtype=np.int64)
    frozen.setflags(write=False)
    assert Dataset(codes=frozen, arities=[2, 2], is_label=[False, True],
                   names=("a", "y")).codes is frozen


def test_dataset_does_not_follow_writes_to_arities_or_is_label():
    codes = np.array([[0, 1, 0, 1], [1, 1, 0, 0], [0, 0, 1, 1],
                      [1, 0, 1, 0]])
    ar = np.array([2, 2, 2, 2])
    lab = np.array([False, False, False, True])
    ds = Dataset(codes=codes, arities=ar[:], is_label=lab[:],
                 names=tuple("abcy"))
    first = g2_test(ds, 0, 1)
    ar[0] = 1
    lab[0] = True
    assert not np.shares_memory(ds.arities, ar)
    assert not np.shares_memory(ds.is_label, lab)
    assert ds.arities.tolist() == [2, 2, 2, 2]
    assert ds.labels == (3,)
    assert g2_test(ds, 0, 1) == first


def test_dataset_equality_is_identity():
    ds = build_dataset({"a": [0, 1], "y": [1, 0]}, labels={"y"})
    twin = dataclasses.replace(ds)
    assert ds == ds and ds != twin
    assert len({ds, twin, ds}) == 2


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
    assert ds.codes[0].tolist() == [0, 2, 1]
    assert ds.arity(0) == 3
    # string column is coded in first-seen order
    assert ds.codes[1].tolist() == [0, 1, 0]
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
    assert ds.codes[0].tolist() == a.tolist()
    assert ds.codes[2].tolist() == y.tolist()


PLAIN_CELLS = [str(i) for i in range(10)] + ["10", "12", "305"]
ODD_CELLS = [" 1", "1 ", "\t1", "+1", "-0", "007", "-1", "1.0", "1e0", "1_0",
             "\u0663", "#1", '""', '"1"', "red", "", "12345678901234567890",
             "99999999999999999999", "9223372036854775807"]


@st.composite
def _csv_texts(draw):
    names = draw(st.lists(st.sampled_from("abc"), unique=True, max_size=3))
    names.append("y")
    header = draw(st.sampled_from(["ok"] * 9 + ["dup", "no-label", "none"]))
    if header == "dup":
        names.append(names[0])
    elif header == "no-label":
        names.remove("y")
    elif header == "none":
        names = []
    width = max(len(names) + draw(st.sampled_from([0] * 8 + [-1, 1])), 1)
    plain = st.sampled_from(PLAIN_CELLS)
    rows = [[draw(plain) for _ in range(width)]
            for _ in range(draw(st.integers(0, 6)))]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])) if rows else 0):
        row = draw(st.sampled_from(rows))
        edit = draw(st.sampled_from(["odd", "odd", "short", "long"]))
        if edit == "long" or not row:
            row.append(draw(plain))
        elif edit == "short":
            row.pop()
        else:
            row[draw(st.integers(0, len(row) - 1))] = draw(
                st.sampled_from(ODD_CELLS))
    lines = [",".join(names)] + [",".join(row) for row in rows]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    eol = draw(st.sampled_from(["\n"] * 3 + ["\r\n"] * 3 + ["\r"]))
    return eol.join(lines) + (eol if draw(st.booleans()) else "")


def _loaded(path, meta, one_pass=True):
    try:
        if one_pass:
            ds = load_dataset(path, meta)
        else:
            with mock.patch.object(data, "_parse_integers", return_value=None):
                ds = load_dataset(path, meta)
    except Exception as exc:
        return type(exc), str(exc)
    return (ds.codes.tolist(), ds.arities.tolist(), ds.is_label.tolist(),
            ds.names)


@settings(max_examples=400, deadline=None)
@given(text=_csv_texts())
@example(text="a,y\n0,1\n\n1,0\n")
@example(text="a,y\n0,1,1\n1,0,0\n")
@example(text="a,y\n-1,1\n")
@example(text="a,y\n9223372036854775807,1\n")
@example(text="a,y\r\n1,0\r\n12,1")
@example(text='"y\n1\n')
@example(text="a,y\r0,1\n1,0\n")
def test_load_dataset_matches_per_column_reference(tmp_path_factory, text):
    base = tmp_path_factory.getbasetemp()
    path, meta = base / "eq.csv", base / "eq.json"
    path.write_bytes(text.encode("utf-8"))
    meta.write_text(META)
    assert _loaded(path, meta) == _loaded(path, meta, one_pass=False)


def _refuse_per_column(*args):
    raise AssertionError("per-column path used")


def test_generated_csv_takes_the_one_pass_parse(tmp_path, monkeypatch):
    out = tmp_path / "gen"
    assert main(["gen", "--labels", "2", "--features", "8", "--samples",
                 "300", "--seed", "5", "--out", str(out)]) == 0
    assert b"\r\n" in (out / "data.csv").read_bytes()
    expected = _loaded(out / "data.csv", out / "meta.json", one_pass=False)

    monkeypatch.setattr(data, "_parse_by_column", _refuse_per_column)
    assert _loaded(out / "data.csv", out / "meta.json") == expected


@pytest.mark.parametrize("text", [
    "a,b,y\n0,1,2\n9,0,1\n", "a,b,y\r\n0,1,2\r\n9,0,1\r\n",
    "a,b,y\n0,1,2\n9,0,1", "y\n1\n0\n1\n", "y\n123\n", "a,y\n10,11\n22,33\n"],
    ids=["one-digit-lf", "one-digit-crlf", "one-digit-no-final-eol",
         "one-column", "one-column-multi-digit", "two-columns-multi-digit"])
def test_plain_layouts_take_the_one_pass_parse(tmp_path, monkeypatch, text):
    path = _write(tmp_path, "d.csv", text)
    meta = _write(tmp_path, "m.json", META)
    expected = _loaded(path, meta, one_pass=False)
    monkeypatch.setattr(data, "_parse_by_column", _refuse_per_column)
    assert _loaded(path, meta) == expected


def test_large_mixed_width_body_matches_per_column_reference(tmp_path,
                                                              monkeypatch):
    codes = np.random.default_rng(11).integers(0, 13, size=(2000, 40))
    names = [f"f{j}" for j in range(39)] + ["y"]
    text = "\n".join([",".join(names)] + [",".join(map(str, row))
                                          for row in codes.tolist()]) + "\n"
    path = _write(tmp_path, "d.csv", text)
    meta = _write(tmp_path, "m.json", META)
    expected = _loaded(path, meta, one_pass=False)
    assert expected[0] == codes.T.tolist()
    monkeypatch.setattr(data, "_parse_by_column", _refuse_per_column)
    assert _loaded(path, meta) == expected
