"""Command line entry points.

Every subcommand resolves its configuration and computes all outputs in
memory, returning them with its seed and input paths. ``main`` then writes
them plus a manifest recording the exact invocation, input file hashes, and
wall-clock time. ``rerun`` replays a manifest into a new directory, which is
the reproducibility contract: byte-identical outputs up to the manifest
itself and timing fields.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import logging
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .benchmark import (
    ALGORITHMS,
    render_benchmark_csv,
    run_algorithm,
    run_benchmark,
)
from .citest import CiConfig
from .data import load_dataset
from .discovery import clcd
from .metrics import (
    br_nb_predict,
    br_nb_train,
    f_scores,
    hamming_loss,
    label_matrix,
    ranking_loss_detail,
    score_variables,
    split_dataset,
)
from .selection import clcd_fs
from .synth import GenConfig, GroundTruth, generate, sample

log = logging.getLogger("clcd")

_STREAMS = {"generate": 0, "sample": 1, "split": 2}

# Runs are serial; the flag stays so that manifests that pass it still replay.
_WORKERS_HELP = "accepted for old manifests and ignored"


def substream(seed: int, name: str) -> int:
    """Independent child seed for one pipeline stage of a run."""
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=(_STREAMS[name],))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _setup_logging() -> None:
    level_name = os.environ.get("CLCD_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    if level_name not in levels:
        level_name = "error"
    logging.basicConfig(level=levels[level_name],
                        format="%(levelname)s %(name)s: %(message)s")


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


class RunOutputs:
    """A run's rendered files (name -> text), written together at the end
    as UTF-8; a failed write removes every file and directory begun."""

    def __init__(self, out_dir, files: dict):
        self.out_dir = Path(out_dir)
        self.files = files

    def flush(self) -> None:
        made = [d for d in (self.out_dir, *self.out_dir.parents)
                if not d.exists()]  # deepest first
        self.out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        try:
            for name, text in self.files.items():
                path = self.out_dir / name
                written.append(path)  # write_text creates it before it fails
                path.write_text(text, encoding="utf-8")
        except BaseException:
            for path in written:
                path.unlink(missing_ok=True)
            for folder in made:
                folder.rmdir()
            raise


def _common_doc(common: dict, names) -> list:
    entries = []
    for key, members in common.items():
        entries.append({"labels": sorted(names[t] for t in key),
                        "variables": sorted(names[v] for v in members)})
    entries.sort(key=lambda e: (e["labels"], e["variables"]))
    return entries


def _specific_doc(specific: dict, names) -> dict:
    return {names[t]: sorted(names[v] for v in members)
            for t, members in specific.items()}


def discovery_doc(out, names) -> dict:
    """The discovery.json document of a ``clcd`` run."""
    return {
        "algorithm": "clcd",
        "common": _common_doc(out.ccv, names),
        "specific": _specific_doc(out.tcv, names),
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
    """The selection.json document of a ``clcd_fs`` run."""
    names = ds.names
    common: dict = {}
    for choice in result.common:
        common.setdefault(choice.labels, set()).update(choice.features)
    return {
        "common": _common_doc(common, names),
        "choices": [{
            "features": sorted(names[v] for v in choice.features),
            "labels": sorted(names[t] for t in choice.labels),
            "replaced": {names[t]: sorted(names[v] for v in members)
                         for t, members in choice.replaced.items()},
        } for choice in result.common],
        "specific": _specific_doc(result.specific, names),
        "feature_label_map": {names[f]: sorted(names[t] for t in ts)
                              for f, ts in result.feature_label_map.items()},
        "selected": result.selected_names(ds),
    }


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> tuple:
    gcfg = GenConfig(n_labels=args.labels, n_features=args.features,
                     n_samples=args.samples, p_c=args.pc, p_m=args.pm,
                     mb_size_range=(args.mb_min, args.mb_max),
                     eq_copies_range=(args.eq_min, args.eq_max),
                     share_prob=args.share_prob, arity=args.arity,
                     seed=substream(args.seed, "generate"))
    net, truth = generate(gcfg)
    ds = sample(net, args.samples, substream(args.seed, "sample"))
    names = net.names

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(names)
    writer.writerows(ds.codes.T.tolist())

    network_doc = {
        "parents": [list(p) for p in net.parents],
        "cpts": [cpt.tolist() for cpt in net.cpts],
        "arities": list(net.arities),
        "is_label": list(net.is_label),
        "names": list(names),
    }
    files = {
        "data.csv": buf.getvalue(),
        "meta.json": _dump_json({"labels": [names[t] for t in net.labels]}),
        "network.json": _dump_json(network_doc),
        "truth.json": _dump_json(truth_doc(truth, names)),
    }
    return files, args.seed, []


# ---------------------------------------------------------------------------
# discover


def cmd_discover(args) -> tuple:
    ds = load_dataset(args.data, args.meta)
    cfg = CiConfig(alpha=args.alpha, max_cond_size=args.max_cond)
    names = ds.names
    if args.algo == "clcd":
        doc = discovery_doc(clcd(ds, cfg=cfg, max_z=args.max_z), names)
    else:
        common, specific = run_algorithm(args.algo, ds, cfg=cfg,
                                         max_z=args.max_z)
        doc = {
            "algorithm": args.algo,
            "common": _common_doc(common, names),
            "specific": _specific_doc(specific, names),
        }
    return {"discovery.json": _dump_json(doc)}, None, [args.data, args.meta]


# ---------------------------------------------------------------------------
# select


def cmd_select(args) -> tuple:
    ds = load_dataset(args.data, args.meta)
    cfg = CiConfig(alpha=args.alpha, max_cond_size=args.max_cond)
    names = ds.names
    result = clcd_fs(ds, cfg=cfg, max_z=args.max_z)

    selected_csv = "".join(f"{name}\n" for name in result.selected_names(ds))

    labels = sorted(ds.labels)
    feats = sorted(result.selected)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["label"] + [names[f] for f in feats])
    for t in labels:
        row = [names[t]]
        row += [1 if t in result.feature_label_map.get(f, ()) else 0
                for f in feats]
        writer.writerow(row)

    files = {
        "selection.json": _dump_json(selection_doc(result, ds)),
        "selected.csv": selected_csv,
        "grid.csv": buf.getvalue(),
    }
    return files, None, [args.data, args.meta]


# ---------------------------------------------------------------------------
# eval


def _read_object(path) -> dict:
    """The JSON object a file holds; any other JSON is a ValueError."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    return doc


def _variable_sets(doc: dict, suffix: str = "") -> tuple:
    """A found document's (common, specific); with "_true", a truth's. Any
    other shape of either is a ValueError."""
    try:
        return ({frozenset(e["labels"]): set(e["variables"])
                 for e in doc.get("common" + suffix, [])},
                {t: set(vs)
                 for t, vs in doc.get("specific" + suffix, {}).items()})
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"'common{suffix}' or 'specific{suffix}' is not "
                         "shaped as the documents clcd writes") from exc


def _load_found(path):
    return _variable_sets(_read_object(path))


def truth_doc(truth: GroundTruth, names) -> dict:
    """The truth.json document ``gen`` writes and :func:`_load_truth` reads."""
    return {
        "mb_variants": {names[t]: [sorted(names[v] for v in var)
                                   for var in variants]
                        for t, variants in truth.mb_variants.items()},
        "equivalence_classes": [sorted(names[v] for v in cls)
                                for cls in truth.equivalence_classes],
        "common_true": _common_doc(truth.common_true, names),
        "specific_true": _specific_doc(truth.specific_true, names),
    }


def _load_truth(path) -> GroundTruth:
    doc = _read_object(path)
    common_true, specific_true = _variable_sets(doc, "_true")
    classes = tuple(frozenset(cls)
                    for cls in doc.get("equivalence_classes", []))
    variants = {t: [frozenset(v) for v in vs]
                for t, vs in doc.get("mb_variants", {}).items()}
    return GroundTruth(mb_variants=variants, equivalence_classes=classes,
                       common_true=common_true, specific_true=specific_true)


def cmd_eval(args) -> tuple:
    variable_mode = args.found is not None or args.truth is not None
    predict_mode = args.selected is not None
    if variable_mode == predict_mode:
        raise SystemExit("eval needs either --found/--truth or "
                         "--selected/--data/--meta")
    if variable_mode:
        if args.found is None or args.truth is None:
            raise SystemExit("variable scoring needs both --found and --truth")
        common, specific = _load_found(args.found)
        truth = _load_truth(args.truth)
        scores = score_variables(common, specific, truth)
        doc = {group: asdict(vs) for group, vs in scores.items()}
        inputs = [args.found, args.truth]
    else:
        if args.data is None or args.meta is None:
            raise SystemExit("prediction scoring needs --data and --meta")
        ds = load_dataset(args.data, args.meta)
        with open(args.selected, encoding="utf-8") as fh:
            feature_names = [ln.strip() for ln in fh if ln.strip()]
        features = [ds.id_of(n) for n in feature_names]
        train, test = split_dataset(ds, args.split,
                                    substream(args.seed, "split"))
        model = br_nb_train(train, features)
        pred, prob = br_nb_predict(model, test)
        truth_mat = label_matrix(test)
        ranking, skipped = ranking_loss_detail(prob, truth_mat)
        macro, micro = f_scores(pred, truth_mat)
        doc = {
            "hamming": hamming_loss(pred, truth_mat),
            "ranking": ranking,
            "ranking_rows_skipped": skipped,
            "f_macro": macro,
            "f_micro": micro,
            "n_train": train.n_rows,
            "n_test": test.n_rows,
            "features": feature_names,
        }
        inputs = [args.selected, args.data, args.meta]
    return {"eval.json": _dump_json(doc)}, args.seed, inputs


# ---------------------------------------------------------------------------
# bench


def cmd_bench(args) -> tuple:
    sweep = _read_object(args.sweep)

    def get(key, default):
        """The sweep's ``key``, or ``default`` when absent; a ValueError
        unless it has the default's JSON type (a list's items, its first
        item's). An int passes for a float; a bool is no number."""
        value, listed = sweep.get(key, default), isinstance(default, list)
        like = default[0] if listed else default
        kinds = (int, float) if type(like) is float else (type(like),)
        if isinstance(value, list) != listed or any(
                type(v) not in kinds for v in (value if listed else [value])):
            raise ValueError(f"sweep field {key!r} must be "
                             f"{'a list of ' * listed}"
                             f"{' or '.join(k.__name__ for k in kinds)}")
        return value

    template = GenConfig(
        n_labels=get("n_labels", 4),
        n_features=get("n_features", 40),
        n_samples=get("n_samples", 2000),
        mb_size_range=tuple(get("mb_size_range", [3, 5])),
        eq_copies_range=tuple(get("eq_copies_range", [2, 3])),
        share_prob=get("share_prob", 0.5),
        arity=get("arity", 2),
        seed=get("seed", 0),
        p_c=0.0, p_m=0.0)
    cfg = CiConfig(alpha=get("alpha", 0.05),
                   max_cond_size=get("max_cond_size", 3))
    rows, details = run_benchmark(
        template,
        p_c_grid=get("p_c", [0.0]),
        p_m_grid=get("p_m", [0.0]),
        algorithms=tuple(get("algorithms", list(ALGORITHMS))),
        n_seeds=args.seeds,
        cfg=cfg,
        max_z=get("max_z", 1))
    files = {"report.csv": render_benchmark_csv(rows),
             "details.json": _dump_json(details)}
    return files, template.seed, [args.sweep]


# ---------------------------------------------------------------------------
# rerun


def cmd_rerun(args) -> list:
    """The manifest's argv with ``--out`` pointed at the new directory."""
    stored = _read_object(args.manifest).get("argv")
    if not (isinstance(stored, list)
            and all(isinstance(a, str) for a in stored)):
        raise ValueError("manifest has no argv list of strings")
    if not stored:
        raise SystemExit("manifest records no argv")
    if stored[0] == "rerun":
        raise ValueError("manifest argv is itself a rerun")
    idx = stored.index("--out") if "--out" in stored else len(stored)
    if idx == len(stored) - 1:
        raise ValueError("manifest argv has no value after --out")
    stored[idx:idx + 2] = ["--out", args.out]
    return stored


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clcd",
        description="Multi-label causal discovery and feature selection.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset with truth")
    p.add_argument("--labels", type=int, required=True)
    p.add_argument("--features", type=int, required=True)
    p.add_argument("--samples", type=int, default=5000)
    p.add_argument("--pc", type=float, default=0.0,
                   help="fraction of labels with a label parent or child")
    p.add_argument("--pm", type=float, default=0.0,
                   help="fraction of labels with multiple boundary variants")
    p.add_argument("--mb-min", type=int, default=3)
    p.add_argument("--mb-max", type=int, default=5)
    p.add_argument("--eq-min", type=int, default=2)
    p.add_argument("--eq-max", type=int, default=3)
    p.add_argument("--share-prob", type=float, default=0.5)
    p.add_argument("--arity", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    # the flags discover and select share
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--data", required=True)
    search.add_argument("--meta", required=True)
    search.add_argument("--alpha", type=float, default=0.05)
    search.add_argument("--max-z", type=int, default=1)
    search.add_argument("--max-cond", type=int, default=3)
    search.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    search.add_argument("--out", required=True)

    p = sub.add_parser("discover", parents=[search],
                       help="run discovery on a dataset")
    p.add_argument("--algo", default="clcd", choices=ALGORITHMS)
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("select", parents=[search],
                       help="causal feature selection")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("eval", help="score variables or downstream prediction")
    p.add_argument("--found", help="discovery or selection JSON")
    p.add_argument("--truth", help="truth JSON from gen")
    p.add_argument("--selected", help="selected.csv from select")
    p.add_argument("--data")
    p.add_argument("--meta")
    p.add_argument("--split", type=float, default=0.7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="benchmark sweep described by a JSON file")
    p.add_argument("--sweep", required=True)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("rerun", help="replay a manifest into a new directory")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.time()
    try:
        if args.command == "rerun":
            return main(cmd_rerun(args))
        files, seed, inputs = args.func(args)
        files["manifest.json"] = _dump_json({
            "subcommand": args.command,
            "argv": list(argv),
            "seed": seed,
            "inputs": {str(p): _sha256(p) for p in inputs},
            "version": __version__,
            "wall_clock": time.time() - started,
        })
        RunOutputs(args.out, files).flush()
    except (ValueError, KeyError, OSError) as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
