import csv

import numpy as np
import pytest

from clcd.benchmark import (
    ALGORITHMS,
    CSV_HEADER,
    METRIC_NAMES,
    intersection_common,
    render_benchmark_csv,
    rep_seed,
    run_algorithm,
    run_benchmark,
)
from clcd.synth import GenConfig, generate, sample


def test_rep_seed_spreads():
    seeds = {rep_seed(b, r) for b in range(3) for r in range(4)}
    assert len(seeds) == 12
    assert all(0 <= s < 1 << 63 for s in seeds)
    assert rep_seed(5, 2) == rep_seed(5, 2)


def test_intersection_common_pairs():
    mbs = {10: {1, 2, 11}, 11: {2, 3, 10}, 12: {9}}
    out = intersection_common(mbs, [10, 11, 12])
    assert out == {frozenset({10, 11}): {2}}


def test_run_algorithm_names():
    cfg = GenConfig(n_labels=2, n_features=10, n_samples=1500, seed=0)
    net, _ = generate(cfg)
    ds = sample(net, cfg.n_samples, seed=1)
    for name in ALGORITHMS:
        common, specific = run_algorithm(name, ds)
        assert isinstance(common, dict)
        assert set(specific) == set(ds.labels)
    with pytest.raises(ValueError, match="unknown"):
        run_algorithm("pc-simple", ds)


def test_run_benchmark_grid_and_csv_roundtrip():
    template = GenConfig(n_labels=2, n_features=10, n_samples=1200,
                         mb_size_range=(2, 3), seed=3)
    rows, details = run_benchmark(template, p_c_grid=[0.0],
                                  p_m_grid=[0.0, 0.5],
                                  algorithms=("clcd", "hiton-intersect"),
                                  n_seeds=2)
    # 2 cells x 2 algorithms x 6 metrics
    assert len(rows) == 24
    assert len(details) == 4
    for row in rows:
        assert row["metric"] in METRIC_NAMES
        assert 0.0 <= row["mean"] <= 1.0
        assert row["n_seeds"] == 2
    # paired design: both algorithms see identical seeds per cell
    for cell in range(2):
        a, b = details[2 * cell], details[2 * cell + 1]
        assert [r["seed"] for r in a["runs"]] == [r["seed"] for r in b["runs"]]

    # the report.csv body the CLI writes: a comment line, then plain CSV
    comment, *lines = render_benchmark_csv(rows).splitlines()
    assert comment.startswith("#")
    reader = csv.DictReader(lines)
    back = list(reader)
    assert tuple(reader.fieldnames) == CSV_HEADER
    assert len(back) == len(rows)
    for orig, parsed in zip(rows, back):
        assert parsed["metric"] == orig["metric"]
        assert parsed["algorithm"] == orig["algorithm"]
        assert float(parsed["mean"]) == pytest.approx(orig["mean"], abs=1e-6)
        assert float(parsed["lg_time"]) == pytest.approx(orig["lg_time"],
                                                         abs=1e-3)


def test_run_benchmark_scores_are_deterministic():
    template = GenConfig(n_labels=2, n_features=8, n_samples=800,
                         mb_size_range=(2, 2), seed=7)
    rows1, _ = run_benchmark(template, [0.0], [0.0],
                             algorithms=("hiton-intersect",), n_seeds=2)
    rows2, _ = run_benchmark(template, [0.0], [0.0],
                             algorithms=("hiton-intersect",), n_seeds=2)
    for a, b in zip(rows1, rows2):
        assert a["mean"] == b["mean"]
        assert a["std"] == b["std"]
