"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload pairs-pool --seeds 0-9 [--record]
    python3 perfbench/spread.py --workload pairs-pool --seeds 0-9 --compare

Each seed is one fresh ``run.py --trace 0`` process, run one after another.
For every end-to-end metric the spread is the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) divided by the median.
``--record`` stores the spreads, next to the bounds of ``BENCHMARK.json``, in
``reference.json``; ``--compare`` checks this set's medians against the
recorded set, so that two sets of runs of the same code must agree. The exit
code is 1 when any spread exceeds its bound, or, with ``--compare``, when a
median is worse than the recorded one by more than its bound. The fewest
calls any slot got in a run is reported next to the spreads, because the
median of a slot's calls needs several of them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
REFERENCE = BENCH_DIR / "reference.json"


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--compare", action="store_true")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    higher = {m["name"] for m in bench["end_to_end"]
              if m["better"] == "higher"}
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    seconds = str(bench["run_seconds"])
    seeds = parse_seeds(args.seeds)
    report: dict = {}
    ok = True
    for name in args.workload:
        values: dict = {}
        fewest: list = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", name,
                 "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
            result = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{name} seed {seed}: run failed", file=sys.stderr)
                return 1
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
            calls = json.loads(
                (BENCH_DIR / "out" / f"calls-{name}-seed{seed}.json")
                .read_text())
            fewest.append(min(len(w) for w in calls["wall"]))
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4f}" for k, m in result["metrics"].items())
                + f" fewest_calls_per_slot={fewest[-1]}", flush=True)
        print(f"{name:16s} fewest calls per slot: median "
              f"{statistics.median(fewest)}, min {min(fewest)}")
        recorded = ref.get("spread", {}).get(name, {}).get("metrics", {})
        report[name] = {"fewest_calls_per_slot": fewest, "metrics": {}}
        for key, vals in values.items():
            med, frac = spread(vals)
            bound = bounds[key]
            report[name]["metrics"][key] = {
                "median": med, "iqr_frac": round(frac, 4), "bound": bound}
            flag = ""
            if frac > bound:
                ok = False
                flag = "  OVER BOUND"
            elif frac > bound / 3:
                flag = "  over a third of the bound"
            if args.compare and key in recorded:
                before = recorded[key]["median"]
                worse = (before - med if key in higher else med - before)
                shift = worse / before if before else 0.0
                flag += f"  vs recorded {before:.5f}: {shift:+.3f}"
                if shift > bound:
                    ok = False
                    flag += " WORSE BY MORE THAN BOUND"
            print(f"{name:16s} {key:20s} median {med:12.5f} spread "
                  f"{frac:7.4f} bound {bound:5.3f}{flag}")
    if args.record:
        for name, entry in report.items():
            ref.setdefault("spread", {})[name] = {"seeds": args.seeds,
                                                  **entry}
        REFERENCE.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
