"""The benchmark's workloads: how each one builds its inputs and calls clcd.

Every workload has a few input slots. Slot 0 is the anchor: its input is the
same for every ``--seed``, so its output hash is pinned in ``reference.json``
and the output-identity gate holds on every run. The other slots draw their
samples from ``--seed``. Networks are planted from fixed seeds (one per slot)
so that the seed moves the data but not the size of the search, which keeps
run-to-run spread low; ``deep-baselines`` is the exception, because
``run_benchmark`` draws networks and samples from one template seed.

A workload call returns an :class:`Outcome`: the canonical output bytes that
the hash gate compares, and the recovery scores of ``metrics.score_variables``
against the planted ground truth.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import fmean

import numpy as np

from clcd import benchmark, cli, discovery, metrics, selection, synth

ANCHOR_SAMPLE_SEED = 0
SCORE_NAMES = ("averaged_precision", "averaged_recall", "common_recall")


@dataclass
class Outcome:
    canonical: bytes
    scores: dict


@dataclass
class Input:
    """One slot's input; ``files`` holds what a CLI workload reads."""

    ds: object = None
    truth: object = None
    template: object = None
    files: dict = field(default_factory=dict)


def slot_seed(seed: int, slot: int) -> int:
    """Sample (or template) seed of one slot; slot 0 ignores ``seed``."""
    if slot == 0:
        return ANCHOR_SAMPLE_SEED
    ss = np.random.SeedSequence(entropy=int(seed) % (1 << 64),
                                spawn_key=(slot,))
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)


def _dump(doc) -> bytes:
    return cli._dump_json(doc).encode()


def discovery_doc(out, names) -> dict:
    """The document ``clcd discover`` writes as discovery.json.

    ``cmd_discover`` and ``cmd_select`` build their documents inline, so the
    two builders below repeat that assembly; the shared pieces (``_dump_json``,
    ``_common_doc``, ``_specific_doc``) come from ``clcd.cli`` itself.
    """
    return {
        "algorithm": "clcd",
        "common": cli._common_doc(out.ccv, names),
        "specific": cli._specific_doc(out.tcv, names),
        "structures": {
            names[t]: {
                "pc": sorted(names[v] for v in st.pc),
                "spouses": {names[s]: sorted(names[c] for c in kids)
                            for s, kids in st.spouses.items()},
            } for t, st in out.structures.items()},
        "ei": {names[t]: [{"s": sorted(names[v] for v in pair.s),
                           "z": sorted(names[v] for v in pair.z)}
                          for pair in pairs]
               for t, pairs in out.ei.items()},
    }


def selection_doc(result, ds) -> dict:
    """The document ``clcd select`` writes as selection.json."""
    names = ds.names
    common: dict = {}
    for choice in result.common:
        common.setdefault(choice.labels, set()).update(choice.features)
    return {
        "common": cli._common_doc(common, names),
        "choices": [{
            "features": sorted(names[v] for v in choice.features),
            "labels": sorted(names[t] for t in choice.labels),
            "replaced": {names[t]: sorted(names[v] for v in members)
                         for t, members in choice.replaced.items()},
        } for choice in result.common],
        "specific": cli._specific_doc(result.specific, names),
        "feature_label_map": {names[f]: sorted(names[t] for t in ts)
                              for f, ts in result.feature_label_map.items()},
        "selected": result.selected_names(ds),
    }


def _scores(common, specific, truth) -> dict:
    s = metrics.score_variables(common, specific, truth)
    return {"averaged_precision": s["averaged"].precision,
            "averaged_recall": s["averaged"].recall,
            "common_recall": s["common"].recall}


def _planted(gcfg, seed: int, slot: int) -> Input:
    net, truth = synth.generate(replace(gcfg, seed=slot + 1))
    ds = synth.sample(net, gcfg.n_samples, slot_seed(seed, slot))
    return Input(ds=ds, truth=truth)


class Workload:
    """Base: ``setup`` builds one slot's input, ``call`` is the timed call.

    A run of ``run_seconds`` calls every slot two to four times. How much
    search a seeded sample needs varies by up to 2x from seed to seed, more
    than the host's noise once timings are scaled by the probe, so the
    workloads whose seeded slots varied most (``pairs-pool``,
    ``deep-baselines``, ``tall-select``) get more slots to average over.
    """

    name = ""
    slots = 3
    workers = 1

    def __init__(self, gcfg):
        self.gcfg = gcfg

    def setup(self, seed: int, slot: int, workdir: Path) -> Input:
        return _planted(self.gcfg, seed, slot)

    def call(self, inp: Input) -> Outcome:
        raise NotImplementedError


class WideDiscover(Workload):
    name = "wide-discover"

    def call(self, inp):
        out = discovery.clcd(inp.ds, max_z=1, workers=1)
        return Outcome(_dump(discovery_doc(out, inp.ds.names)),
                       _scores(out.ccv, out.tcv, inp.truth))


class PairsPool(Workload):
    name = "pairs-pool"
    slots = 6
    workers = 2

    def call(self, inp):
        res = selection.clcd_fs(inp.ds, max_z=2, workers=self.workers)
        common = {c.labels: c.features for c in res.common}
        return Outcome(_dump(selection_doc(res, inp.ds)),
                       _scores(common, res.specific, inp.truth))


class TallSelect(Workload):
    name = "tall-select"
    slots = 5

    def setup(self, seed, slot, workdir):
        inp = _planted(self.gcfg, seed, slot)
        ds = inp.ds
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(ds.names)
        writer.writerows(ds.codes.T.tolist())
        slot_dir = Path(tempfile.mkdtemp(prefix=f"slot{slot}-", dir=workdir))
        data, meta = slot_dir / "data.csv", slot_dir / "meta.json"
        data.write_text(buf.getvalue())
        meta.write_text(json.dumps(
            {"labels": [ds.names[t] for t in ds.labels]}))
        inp.files = {"data": data, "meta": meta, "out": slot_dir / "out"}
        return inp

    def call(self, inp):
        f = inp.files
        shutil.rmtree(f["out"], ignore_errors=True)
        code = cli.main(["select", "--data", str(f["data"]),
                         "--meta", str(f["meta"]), "--out", str(f["out"])])
        if code != 0:
            raise RuntimeError(f"clcd select exited with {code}")
        raw = (f["out"] / "selection.json").read_bytes()
        doc = json.loads(raw)
        ids = {name: i for i, name in enumerate(inp.ds.names)}
        common = {frozenset(ids[t] for t in e["labels"]):
                  {ids[v] for v in e["variables"]} for e in doc["common"]}
        specific = {ids[t]: {ids[v] for v in vs}
                    for t, vs in doc["specific"].items()}
        return Outcome(raw, _scores(common, specific, inp.truth))


class DeepBaselines(Workload):
    name = "deep-baselines"
    slots = 6
    algorithms = ("hiton-intersect", "iamb-intersect")
    n_seeds = 1

    def setup(self, seed, slot, workdir):
        template = replace(self.gcfg, seed=slot_seed(seed, slot))
        # The same draws run_benchmark makes inside the call; they are the
        # synth cost every workload pays in set-up.
        for rep in range(self.n_seeds):
            rep_seed = benchmark.rep_seed(template.seed, rep)
            net, _ = synth.generate(replace(template, seed=rep_seed))
            synth.sample(net, template.n_samples, rep_seed)
        return Input(template=template)

    def call(self, inp):
        t = inp.template
        rows, details = benchmark.run_benchmark(
            t, [t.p_c], [t.p_m], algorithms=self.algorithms,
            n_seeds=self.n_seeds)
        doc = {"rows": [{k: v for k, v in r.items() if k != "lg_time"}
                        for r in rows],
               "details": [{**d, "runs": [{k: v for k, v in run.items()
                                           if k != "time_s"}
                                          for run in d["runs"]]}
                           for d in details]}
        runs = [run["scores"] for d in details for run in d["runs"]]
        return Outcome(_dump(doc), {
            "averaged_precision": fmean(s["averaged"]["precision"]
                                        for s in runs),
            "averaged_recall": fmean(s["averaged"]["recall"] for s in runs),
            "common_recall": fmean(s["common"]["recall"] for s in runs)})


def _gen(n_labels, n_features, n_samples):
    return synth.GenConfig(n_labels=n_labels, n_features=n_features,
                           n_samples=n_samples, p_c=0.5, p_m=1.0)


# workload -> (full-size config, tiny config used by the warm-up and the tests)
SIZES = {
    WideDiscover: (_gen(8, 120, 5000), _gen(3, 30, 600)),
    TallSelect: (_gen(4, 60, 12_000), _gen(3, 30, 2000)),
    PairsPool: (_gen(5, 40, 3000), _gen(3, 30, 600)),
    DeepBaselines: (_gen(4, 40, 3000), _gen(3, 30, 600)),
}
WORKLOADS = {cls.name: cls for cls in SIZES}


def make(name: str, tiny: bool = False) -> Workload:
    cls = WORKLOADS[name]
    return cls(SIZES[cls][1 if tiny else 0])
