"""Acceptance gate: eleven end-to-end checks, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
every check is deterministic (fixed seeds throughout).
"""

import csv
import itertools
import json
import math
import time

import numpy as np
import pytest

from clcd.benchmark import rep_seed, run_algorithm
from clcd.citest import CiConfig, g2_test
from clcd.cli import main
from clcd.discovery import phase1_structures, phase2_retrieve
from clcd.equivalence import contains_equivalent_info
from clcd.mb import G2Tester, hiton_mb
from clcd.metrics import (
    f_scores,
    hamming_loss,
    ranking_loss_detail,
    score_variables,
)
from clcd.selection import clcd_fs
from clcd.special import chi2_sf
from clcd.synth import (
    DsepTester,
    GenConfig,
    children_map,
    exact_cmi,
    generate,
    graphical_mb,
    random_net,
    sample,
)
from conftest import build_dataset, plug_in_cmi, xor_labels_net


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_kernel_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_gap = 0.0
    for _ in range(1000):
        n = int(rng.integers(20, 300))
        ax = int(rng.integers(2, 5))
        ay = int(rng.integers(2, 5))
        ds = build_dataset(
            {"x": rng.integers(0, ax, n),
             "y": rng.integers(0, ay, n),
             "z": rng.integers(0, 2, n)},
            arities=[ax, ay, 2])
        z = (2,) if rng.random() < 0.5 else ()
        stat = g2_test(ds, 0, 1, z).statistic
        cmi = plug_in_cmi(ds.codes[0].tolist(), ds.codes[1].tolist(),
                          ds.codes[2].tolist() if z else [0] * n)
        worst_gap = max(worst_gap, abs(stat - 2.0 * n * math.log(2.0) * cmi))

    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    worst_rel = 0.0
    for _ in range(20):
        x = float(rng.uniform(0.01, 150.0))
        k = int(rng.integers(1, 51))
        ref = float(mpmath.gammainc(k / 2.0, x / 2.0, mpmath.inf,
                                    regularized=True))
        got = chi2_sf(x, k)
        if ref > 1e-300:
            worst_rel = max(worst_rel, abs(got - ref) / ref)

    elapsed = time.perf_counter() - started
    ok = worst_gap <= 1e-9 and worst_rel <= 1e-8 and elapsed < 10.0
    _verdict(1, "statistic/information identity", ok,
             f"identity gap {worst_gap:.2e}, tail rel err {worst_rel:.2e}, "
             f"{elapsed:.1f}s")


def test_criterion_02_cmi_consistency():
    started = time.perf_counter()
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(5, 13))
        net = random_net(n, 0.3, rng, max_parents=3, label_nodes=(0,))
        ds = sample(net, 50000, seed=int(rng.integers(1 << 31)))
        for _ in range(10):
            picks = rng.choice(n, size=min(4, n), replace=False)
            x, y = int(picks[0]), int(picks[1])
            z = [int(v) for v in picks[2:2 + int(rng.integers(0, 3))]]
            # the plug-in information G² reads: statistic / (2 n ln 2)
            est = (g2_test(ds, x, y, z).statistic
                   / (2.0 * ds.n_rows * math.log(2.0)))
            worst = max(worst, abs(est - exact_cmi(net, [x], [y], z)))
    elapsed = time.perf_counter() - started
    ok = worst <= 0.01 and elapsed < 120.0
    _verdict(2, "plug-in information estimate", ok,
             f"worst |err| {worst:.5f} bits over 200 queries, {elapsed:.1f}s")


def test_criterion_03_oracle_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    cfg = CiConfig(max_cond_size=8)
    nets = checked = errors = 0
    while nets < 100:
        n = int(rng.integers(6, 16))
        net = random_net(n, float(rng.uniform(0.15, 0.35)), rng,
                         max_parents=4, label_nodes=(0,))
        sizes = [len(graphical_mb(net, t)) for t in range(n)]
        if max(sizes) > 6 or max(sizes) == 0:
            continue
        nets += 1
        tester = DsepTester(net)
        for t in range(n):
            found = hiton_mb(tester, t, set(range(n)) - {t}, cfg,
                             symmetric=True).mb
            checked += 1
            errors += found != graphical_mb(net, t)
    elapsed = time.perf_counter() - started
    ok = errors == 0 and elapsed < 30.0
    _verdict(3, "exactness under a graph oracle", ok,
             f"{errors} errors over {checked} targets in {nets} graphs, "
             f"{elapsed:.1f}s")


def test_criterion_04_mb_recovery():
    started = time.perf_counter()
    precisions, recalls = [], []
    for rep in range(20):
        seed = rep_seed(4, rep)
        gcfg = GenConfig(n_labels=3, n_features=20, n_samples=5000,
                         share_prob=0.0, seed=seed)
        net, _ = generate(gcfg)
        ds = sample(net, 5000, seed)
        tester = G2Tester(ds, CiConfig())
        for t in net.labels:
            found = hiton_mb(tester, t, set(range(ds.n_vars)) - {t},
                             CiConfig()).mb
            true = graphical_mb(net, t)
            tp = len(found & true)
            precisions.append(tp / len(found) if found else 1.0)
            recalls.append(tp / len(true) if true else 1.0)
    prec, rec = float(np.mean(precisions)), float(np.mean(recalls))
    elapsed = time.perf_counter() - started
    ok = prec >= 0.90 and rec >= 0.90 and elapsed < 120.0
    _verdict(4, "boundary recovery from samples", ok,
             f"precision {prec:.3f}, recall {rec:.3f} over 60 boundaries, "
             f"{elapsed:.1f}s")


def test_criterion_05_equivalence_detection():
    started = time.perf_counter()
    cfg = CiConfig()
    hits = total = 0
    for rep in range(20):
        seed = rep_seed(5, rep)
        gcfg = GenConfig(n_labels=3, n_features=25, n_samples=5000, p_m=1.0,
                         seed=seed)
        net, truth = generate(gcfg)
        ds = sample(net, 5000, seed)
        tester = G2Tester(ds, cfg)
        kids = children_map(net)
        for cls in truth.equivalence_classes:
            members = sorted(cls)
            orig, copies = members[0], members[1:]
            targets = [c for c in kids[orig] if c not in cls]
            if not targets:
                continue
            for c in copies:
                total += 1
                hits += contains_equivalent_info(tester, targets[0], [orig],
                                                 [c])
    recall = hits / total

    false_hits = tested = 0
    for rep in range(20):
        seed = rep_seed(55, rep)
        gcfg = GenConfig(n_labels=3, n_features=20, n_samples=5000, seed=seed)
        net, _ = generate(gcfg)
        ds = sample(net, 5000, seed)
        tester = G2Tester(ds, cfg)
        label_set = set(net.labels)
        for t in net.labels:
            mb = graphical_mb(net, t)
            pc = (set(net.parents[t])
                  | set(children_map(net)[t])) - label_set
            outside = [f for f in ds.features if f not in mb and f != t]
            for s in sorted(pc):
                for z in outside:
                    tested += 1
                    false_hits += contains_equivalent_info(tester, t, [s],
                                                           [z])
    rate = false_hits / tested
    elapsed = time.perf_counter() - started
    ok = recall >= 0.90 and rate <= 2 * cfg.alpha
    _verdict(5, "equivalent-information detection", ok,
             f"recall {hits}/{total} = {recall:.3f}, false pairs "
             f"{false_hits}/{tested} = {rate:.4f}, {elapsed:.1f}s")


def test_criterion_06_common_recovery_under_multiplicity():
    started = time.perf_counter()
    recalls: dict = {}
    for p_m, algorithms in ((1.0, ("clcd", "hiton-intersect")),
                            (0.0, ("clcd",))):
        datasets = []
        for rep in range(10):
            seed = rep_seed(6, rep)
            gcfg = GenConfig(n_labels=10, n_features=100, n_samples=5000,
                             p_m=p_m, seed=seed)
            net, truth = generate(gcfg)
            datasets.append((sample(net, 5000, seed), truth))
        for name in algorithms:
            vals = []
            for ds, truth in datasets:
                common, specific = run_algorithm(name, ds)
                vals.append(
                    score_variables(common, specific, truth)["common"].recall)
            recalls[(name, p_m)] = float(np.mean(vals))
    clcd_1 = recalls[("clcd", 1.0)]
    clcd_0 = recalls[("clcd", 0.0)]
    inter_1 = recalls[("hiton-intersect", 1.0)]
    degradation = clcd_0 - clcd_1
    elapsed = time.perf_counter() - started
    ok = (inter_1 <= 0.5 and clcd_1 >= 0.8 and degradation < 0.1
          and elapsed < 600.0)
    _verdict(6, "common recovery under boundary multiplicity", ok,
             f"intersection {inter_1:.3f} vs clcd {clcd_1:.3f} at p_m=1, "
             f"degradation {degradation:+.3f}, {elapsed:.0f}s")


def test_criterion_07_robustness_to_label_causality():
    started = time.perf_counter()
    precs, recs = {}, {}
    for p_c in (0.0, 0.5, 1.0):
        p_vals, r_vals = [], []
        for rep in range(10):
            seed = rep_seed(7, rep)
            gcfg = GenConfig(n_labels=10, n_features=100, n_samples=5000,
                             p_c=p_c, p_m=0.5, seed=seed)
            net, truth = generate(gcfg)
            ds = sample(net, 5000, seed)
            common, specific = run_algorithm("clcd", ds)
            sc = score_variables(common, specific, truth)["averaged"]
            p_vals.append(sc.precision)
            r_vals.append(sc.recall)
        precs[p_c] = float(np.mean(p_vals))
        recs[p_c] = float(np.mean(r_vals))
    p_spread = max(precs.values()) - min(precs.values())
    r_spread = max(recs.values()) - min(recs.values())
    elapsed = time.perf_counter() - started
    ok = p_spread < 0.1 and r_spread < 0.1 and elapsed < 600.0
    _verdict(7, "robustness to label-label causality", ok,
             f"precision {[f'{precs[p]:.3f}' for p in (0.0, 0.5, 1.0)]} "
             f"recall {[f'{recs[p]:.3f}' for p in (0.0, 0.5, 1.0)]}, "
             f"spreads {p_spread:.3f}/{r_spread:.3f}, {elapsed:.0f}s")


def test_criterion_08_cross_label_retrieval():
    net = xor_labels_net()
    labels = list(net.labels)
    cfg = CiConfig()
    restored = ablated = 0
    for seed in range(10):
        ds = sample(net, 5000, seed=seed)
        tester = G2Tester(ds, cfg)
        st = phase1_structures(tester, ds, labels, cfg)
        if any(0 in st[t].pc for t in labels):
            ablated += 1
        work = {t: st[t].clone() for t in labels}
        phase2_retrieve(tester, ds, labels, work, cfg)
        if all(0 in work[t].pc for t in labels):
            restored += 1
    ok = restored >= 8 and ablated <= 2
    _verdict(8, "retrieval of variables hidden behind labels", ok,
             f"restored {restored}/10 with retrieval, {ablated}/10 without")


def test_criterion_09_selection_properties():
    started = time.perf_counter()
    cfg = CiConfig()
    passed = tested = 0
    recheck_bad = recheck_total = 0
    leaks = 0
    for rep in range(5):
        seed = rep_seed(9, rep)
        gcfg = GenConfig(n_labels=5, n_features=40, n_samples=5000,
                         p_c=0.5, p_m=0.5, seed=seed)
        net, _ = generate(gcfg)
        ds = sample(net, 5000, seed)
        res = clcd_fs(ds)
        tester = G2Tester(ds, cfg)
        label_set = set(ds.labels)
        leaks += len(res.selected & label_set)

        # relevance: every unselected feature should separate from each
        # label given a small witness drawn from that label's features
        for t in sorted(ds.labels):
            witnesses = sorted(f for f, ts in res.feature_label_map.items()
                               if t in ts)
            for f in ds.features:
                if f in res.selected:
                    continue
                tested += 1
                sep = tester.ci(f, t).independent
                if not sep:
                    top = min(cfg.max_cond_size, len(witnesses))
                    for size in range(1, top + 1):
                        for w in itertools.combinations(witnesses, size):
                            if tester.ci(f, t, w).independent:
                                sep = True
                                break
                        if sep:
                            break
                passed += sep

        # redundancy: each common stand-in must re-verify as equivalent
        # information for the members it replaced
        for choice in res.common:
            for t, repl in sorted(choice.replaced.items()):
                if repl == choice.features:
                    continue
                recheck_total += 1
                hit = None
                for pairs in res.ei.values():
                    for p in pairs:
                        if {p.s, p.z} == {repl, choice.features}:
                            hit = p
                            break
                    if hit:
                        break
                if hit is None or not contains_equivalent_info(
                        tester, hit.target, hit.s, hit.z):
                    recheck_bad += 1
    rate = passed / tested
    elapsed = time.perf_counter() - started
    ok = rate >= 0.95 and recheck_bad == 0 and leaks == 0
    _verdict(9, "selection relevance/redundancy", ok,
             f"witness independence {passed}/{tested} = {rate:.3f}, "
             f"rechecks {recheck_total - recheck_bad}/{recheck_total}, "
             f"label leaks {leaks}, {elapsed:.1f}s")


def test_criterion_10_metric_oracles():
    fixtures_ok = True
    # 1: hamming, one wrong cell out of four
    fixtures_ok &= hamming_loss(np.array([[0, 1], [1, 1]]),
                                np.array([[0, 1], [0, 1]])) == 0.25
    # 2: ranking with a tie counted as an error
    loss, skipped = ranking_loss_detail(np.array([[0.5, 0.5, 0.2]]),
                                        np.array([[0, 1, 0]]))
    fixtures_ok &= loss == 0.5 and skipped == 0
    # 3: unrankable rows are skipped, remaining row is clean
    loss, skipped = ranking_loss_detail(
        np.array([[0.9, 0.8], [0.1, 0.2], [0.9, 0.1]]),
        np.array([[1, 1], [0, 0], [1, 0]]))
    fixtures_ok &= loss == 0.0 and skipped == 2
    # 4: macro averages per label, micro pools counts
    macro, micro = f_scores(np.array([[1, 0], [1, 1], [0, 0], [1, 0]]),
                            np.array([[1, 0], [1, 0], [0, 1], [1, 1]]))
    fixtures_ok &= macro == 0.5 and micro == 2 / 3
    # 5: perfect prediction
    t = np.array([[1, 0], [0, 1]])
    macro, micro = f_scores(t, t)
    fixtures_ok &= (hamming_loss(t, t) == 0.0 and macro == 1.0
                    and micro == 1.0)

    rng = np.random.default_rng(10)
    fuzz_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 15))
        k = int(rng.integers(1, 6))
        pred = rng.integers(0, 2, (n, k))
        truth = rng.integers(0, 2, (n, k))
        scores = rng.random((n, k))
        h = hamming_loss(pred, truth)
        r, _ = ranking_loss_detail(scores, truth)
        macro, micro = f_scores(pred, truth)
        fuzz_ok &= 0.0 <= h <= 1.0 and 0.0 <= r <= 1.0
        fuzz_ok &= 0.0 <= macro <= 1.0 and 0.0 <= micro <= 1.0
        fuzz_ok &= hamming_loss(truth, truth) == 0.0
        fuzz_ok &= f_scores(truth, truth) == (1.0, 1.0)
        # permuting label columns consistently changes nothing
        perm = rng.permutation(k)
        fuzz_ok &= hamming_loss(pred[:, perm], truth[:, perm]) == h
        fuzz_ok &= f_scores(pred[:, perm], truth[:, perm])[1] == micro
        # permuting rows changes nothing
        rows = rng.permutation(n)
        fuzz_ok &= ranking_loss_detail(scores[rows], truth[rows])[0] \
            == pytest.approx(r, abs=1e-12)
    ok = bool(fixtures_ok and fuzz_ok)
    _verdict(10, "prediction metric oracles", ok,
             f"5 fixtures {'exact' if fixtures_ok else 'BROKEN'}, "
             f"fuzz {'clean' if fuzz_ok else 'violated'} on 1000 matrices")


def _masked_report(path) -> list:
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(ln for ln in fh
                                      if not ln.startswith("#"))]
    header = rows[0]
    drop = header.index("lg_time")
    return [[c for i, c in enumerate(r) if i != drop] for r in rows]


def _stripped_details(path) -> list:
    with open(path) as fh:
        doc = json.load(fh)
    for cell in doc:
        for run in cell["runs"]:
            run.pop("time_s", None)
    return doc


def test_criterion_11_cli_determinism(tmp_path):
    started = time.perf_counter()
    checks = []

    gen1 = tmp_path / "gen1"
    assert main(["gen", "--labels", "3", "--features", "15", "--samples",
                 "600", "--pm", "0.5", "--mb-min", "2", "--mb-max", "3",
                 "--seed", "5", "--out", str(gen1)]) == 0
    gen2 = tmp_path / "gen2"
    assert main(["rerun", "--manifest", str(gen1 / "manifest.json"),
                 "--out", str(gen2)]) == 0
    for name in ("data.csv", "meta.json", "network.json", "truth.json"):
        checks.append((gen1 / name).read_bytes() == (gen2 / name).read_bytes())

    data, meta = str(gen1 / "data.csv"), str(gen1 / "meta.json")
    disc1, disc2, disc_w = (tmp_path / d for d in ("d1", "d2", "dw"))
    assert main(["discover", "--data", data, "--meta", meta,
                 "--out", str(disc1)]) == 0
    assert main(["rerun", "--manifest", str(disc1 / "manifest.json"),
                 "--out", str(disc2)]) == 0
    assert main(["discover", "--data", data, "--meta", meta,
                 "--workers", "2", "--out", str(disc_w)]) == 0
    blob = (disc1 / "discovery.json").read_bytes()
    checks.append(blob == (disc2 / "discovery.json").read_bytes())
    checks.append(blob == (disc_w / "discovery.json").read_bytes())

    sel1, sel2, sel_w = (tmp_path / s for s in ("s1", "s2", "sw"))
    assert main(["select", "--data", data, "--meta", meta,
                 "--out", str(sel1)]) == 0
    assert main(["rerun", "--manifest", str(sel1 / "manifest.json"),
                 "--out", str(sel2)]) == 0
    assert main(["select", "--data", data, "--meta", meta, "--workers", "2",
                 "--out", str(sel_w)]) == 0
    for name in ("selection.json", "selected.csv", "grid.csv"):
        blob = (sel1 / name).read_bytes()
        checks.append(blob == (sel2 / name).read_bytes())
        checks.append(blob == (sel_w / name).read_bytes())

    ev1, ev2 = tmp_path / "e1", tmp_path / "e2"
    assert main(["eval", "--selected", str(sel1 / "selected.csv"),
                 "--data", data, "--meta", meta, "--split", "0.7",
                 "--seed", "2", "--out", str(ev1)]) == 0
    assert main(["rerun", "--manifest", str(ev1 / "manifest.json"),
                 "--out", str(ev2)]) == 0
    checks.append((ev1 / "eval.json").read_bytes()
                  == (ev2 / "eval.json").read_bytes())

    vv1, vv2 = tmp_path / "v1", tmp_path / "v2"
    assert main(["eval", "--found", str(disc1 / "discovery.json"),
                 "--truth", str(gen1 / "truth.json"), "--out", str(vv1)]) == 0
    assert main(["rerun", "--manifest", str(vv1 / "manifest.json"),
                 "--out", str(vv2)]) == 0
    checks.append((vv1 / "eval.json").read_bytes()
                  == (vv2 / "eval.json").read_bytes())

    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({
        "n_labels": 2, "n_features": 8, "n_samples": 500,
        "mb_size_range": [2, 2], "p_c": [0.0], "p_m": [0.0],
        "algorithms": ["hiton-intersect"], "seed": 5}))
    b1, b2 = tmp_path / "b1", tmp_path / "b2"
    assert main(["bench", "--sweep", str(sweep), "--seeds", "2",
                 "--out", str(b1)]) == 0
    assert main(["rerun", "--manifest", str(b1 / "manifest.json"),
                 "--out", str(b2)]) == 0
    checks.append(_masked_report(b1 / "report.csv")
                  == _masked_report(b2 / "report.csv"))
    checks.append(_stripped_details(b1 / "details.json")
                  == _stripped_details(b2 / "details.json"))

    elapsed = time.perf_counter() - started
    ok = all(checks)
    _verdict(11, "reproducible command line runs", ok,
             f"{sum(checks)}/{len(checks)} byte comparisons hold, "
             f"{elapsed:.1f}s")
