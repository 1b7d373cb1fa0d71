"""Grid benchmark: discovery quality versus intersection baselines.

Each cell of the (p_c, p_m) grid draws fresh networks, runs every requested
algorithm on the same samples, and scores recovered common/specific variables
against ground truth. Intersection baselines mimic the common practice of
running a single-label boundary learner per label and intersecting.
"""

from __future__ import annotations

import csv
import io
import itertools
import logging
import math
import time
from dataclasses import replace

import numpy as np

from .citest import CiConfig
from .discovery import clcd
from .mb import G2Tester, hiton_mb, iamb
from .metrics import score_variables
from .synth import GenConfig, generate, sample

log = logging.getLogger("clcd")

ALGORITHMS = ("clcd", "hiton-intersect", "iamb-intersect")
METRIC_NAMES = tuple(f"{group}_{stat}"
                     for group in ("common", "specific", "averaged")
                     for stat in ("precision", "recall"))
CSV_HEADER = ("metric", "p_c", "p_m", "algorithm", "mean", "std",
              "n_seeds", "lg_time")
CSV_COMMENT = "# lg_time is log10 of mean wall-clock seconds per run"


def rep_seed(base: int, rep: int) -> int:
    """Spread replicate seeds away from consecutive user seeds."""
    return (base * 1000003 + rep) % (1 << 63)


def intersection_common(mbs: dict, labels) -> dict:
    """Pairwise boundary intersections, labels excluded."""
    label_set = set(labels)
    common: dict = {}
    for i, j in itertools.combinations(sorted(labels), 2):
        shared = (mbs[i] & mbs[j]) - label_set
        if shared:
            common[frozenset((i, j))] = shared
    return common


def run_algorithm(name: str, ds, cfg: CiConfig = CiConfig(), max_z: int = 1):
    """Run one algorithm; returns (common dict, specific dict)."""
    labels = sorted(ds.labels)
    if name == "clcd":
        out = clcd(ds, cfg=cfg, max_z=max_z)
        return dict(out.ccv), dict(out.tcv)
    if name not in ("hiton-intersect", "iamb-intersect"):
        raise ValueError(f"unknown algorithm: {name}")
    tester = G2Tester(ds, cfg)
    mbs = {}
    for t in labels:
        candidates = sorted(set(range(ds.n_vars)) - {t})
        if name == "hiton-intersect":
            mbs[t] = hiton_mb(tester, t, candidates, cfg).mb
        else:
            mbs[t] = iamb(tester, t, candidates, cfg)
    common = intersection_common(mbs, labels)
    claimed = set().union(*common.values()) if common else set()
    label_set = set(labels)
    specific = {t: (mbs[t] - label_set) - claimed for t in labels}
    return common, specific


def run_benchmark(template: GenConfig, p_c_grid, p_m_grid,
                  algorithms=ALGORITHMS, n_seeds: int = 5,
                  cfg: CiConfig = CiConfig(), max_z: int = 1):
    """Sweep the grid; returns (csv rows, per-cell details).

    The same generated datasets are reused across algorithms within a cell,
    so comparisons are paired. Generation or scoring never consumes the
    discovery algorithms' RNG (they have none); replicate r of a cell uses
    ``rep_seed(template.seed, r)`` for both network and sample draws.
    """
    rows: list = []
    details: list = []
    for p_c, p_m in itertools.product(p_c_grid, p_m_grid):
        datasets = []
        for rep in range(n_seeds):
            seed = rep_seed(template.seed, rep)
            gcfg = replace(template, p_c=p_c, p_m=p_m, seed=seed)
            net, truth = generate(gcfg)
            datasets.append((seed, sample(net, gcfg.n_samples, seed), truth))
        for name in algorithms:
            per_metric = {m: [] for m in METRIC_NAMES}
            times = []
            cell_runs = []
            for seed, ds, truth in datasets:
                start = time.perf_counter()
                common, specific = run_algorithm(name, ds, cfg=cfg,
                                                 max_z=max_z)
                elapsed = time.perf_counter() - start
                times.append(elapsed)
                scores = score_variables(common, specific, truth)
                for group, vs in scores.items():
                    per_metric[f"{group}_precision"].append(vs.precision)
                    per_metric[f"{group}_recall"].append(vs.recall)
                cell_runs.append({
                    "seed": seed,
                    "time_s": elapsed,
                    "scores": {g: {"tp": vs.tp, "fp": vs.fp, "fn": vs.fn,
                                   "precision": vs.precision,
                                   "recall": vs.recall}
                               for g, vs in scores.items()}})
            lg_time = math.log10(max(float(np.mean(times)), 1e-9))
            for metric in METRIC_NAMES:
                vals = per_metric[metric]
                rows.append({
                    "metric": metric,
                    "p_c": p_c,
                    "p_m": p_m,
                    "algorithm": name,
                    "mean": float(np.mean(vals)),
                    "std": float(np.std(vals)),
                    "n_seeds": n_seeds,
                    "lg_time": lg_time})
            details.append({"p_c": p_c, "p_m": p_m, "algorithm": name,
                            "runs": cell_runs})
            log.info("cell p_c=%s p_m=%s %s: averaged recall %.3f",
                     p_c, p_m, name,
                     float(np.mean(per_metric["averaged_recall"])))
    return rows, details


def render_benchmark_csv(rows) -> str:
    buf = io.StringIO()
    buf.write(CSV_COMMENT + "\n")
    writer = csv.DictWriter(buf, fieldnames=CSV_HEADER)
    writer.writeheader()
    for row in rows:
        out = dict(row)
        out["mean"] = f"{row['mean']:.6f}"
        out["std"] = f"{row['std']:.6f}"
        out["lg_time"] = f"{row['lg_time']:.3f}"
        writer.writerow(out)
    return buf.getvalue()
