"""clcd benchmark: one workload per process, end-to-end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wide-discover --seed 1 --seconds 25 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced calls and prints the per-layer
metrics. ``--workload all`` runs every workload, each in a fresh process.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every call succeeded and every output hash matched.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
OUT_DIR = BENCH_DIR / "out"
# every slot is called at least this often, so its median has samples
MIN_ROUNDS = 2


def _import_clcd():
    """Import clcd from this checkout's ``src``; exit non-zero if absent."""
    sys.path.insert(0, str(SRC))
    try:
        import clcd
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import clcd from {SRC}: {exc}")
    if Path(clcd.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: clcd imported from {clcd.__file__}, "
                 f"not from {SRC}")


def run_seconds() -> float:
    """``run_seconds`` of BENCHMARK.json, the length every bound is set for."""
    try:
        return float(json.loads((ROOT / "BENCHMARK.json").read_text())
                     ["run_seconds"])
    except (OSError, KeyError, ValueError):
        return 25.0


def load_reference() -> dict:
    if REFERENCE.exists():
        return json.loads(REFERENCE.read_text())
    return {}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class HashGate:
    """Compares each call's canonical output with the expected hash.

    A slot with no stored hash is held to the hash of its own first call, so
    repeated calls on one input must agree byte for byte.
    """

    def __init__(self, expected: dict):
        self.expected = dict(expected)
        self.seen: dict = {}

    def check(self, slot: int, canonical: bytes) -> bool:
        digest = sha256(canonical)
        self.seen.setdefault(slot, digest)
        want = self.expected.get(slot, self.seen[slot])
        if digest != want:
            print(f"perfbench: slot {slot} output sha256 {digest} "
                  f"differs from {want}", file=sys.stderr)
            return False
        return True


def expected_hashes(ref: dict, workload: str, seed: int) -> dict:
    """Stored hashes for this workload and seed, keyed by slot."""
    entry = ref.get("workloads", {}).get(workload, {})
    out = {}
    if "anchor_sha256" in entry:
        out[0] = entry["anchor_sha256"]
    for i, digest in enumerate(entry.get("seed_sha256", {}).get(str(seed),
                                                                 ())):
        out[i + 1] = digest
    return out


def cpu_now() -> float:
    """User+system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children report their largest member
    kib = sum(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


class Calls:
    """Per-slot results of the timed calls of one run."""

    def __init__(self, n_slots: int, gate: HashGate):
        self.gate = gate
        self.wall = [[] for _ in range(n_slots)]
        self.cpu = [[] for _ in range(n_slots)]
        self.scores: list = [None] * n_slots
        self.setup: list = [[] for _ in range(n_slots)]
        self.probes: list = []
        self.unscaled: dict = {}
        self.attempted = 0
        self.failed = 0

    def timed(self, workload, inp, slot: int):
        """One call; returns (wall, cpu) seconds, or None when it failed."""
        self.attempted += 1
        cpu0 = cpu_now()
        t0 = time.perf_counter()
        try:
            out = workload.call(inp)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        wall = time.perf_counter() - t0
        cpu = cpu_now() - cpu0
        if not self.gate.check(slot, out.canonical):
            self.failed += 1
            return None
        self.scores[slot] = out.scores
        return wall, cpu


def _mean_of_medians(per_slot) -> float:
    """Median of a slot's samples, mean over slots."""
    return statistics.fmean(statistics.median(v) for v in per_slot)


class HostClock:
    """Records events between runs of the host-speed probe.

    The probe runs once before the first event and once after each event.
    An event is scaled by ``reference / speed``, where ``speed`` is the
    median of the six probe runs nearest to it (three before, three after),
    so a call made while the host runs slow reads as it would have at
    reference speed. Over five seeds of ``deep-baselines`` (3 slots) this
    window cut the quartile spread of ``wall_s`` from 0.15 (unscaled) to
    0.045; the two probe runs right around a call gave 0.09, because one
    probe run is itself noisy. The reference is ``host_probe`` in reference.json, or, when that
    is missing, the median probe of this run.
    """

    WINDOW = 3

    def __init__(self, reference: dict):
        from hostspeed import Probe
        self.probe = Probe()
        self.probe.measure()  # untimed: first touch of the probe's arrays
        self.ref = reference
        self.probes = [self.probe.measure()]
        self.events: list = []  # raw (wall, cpu) of each event

    def record(self, wall: float, cpu: float) -> int:
        """Run the probe after an event; returns the event's index."""
        self.events.append((wall, cpu))
        self.probes.append(self.probe.measure())
        return len(self.events) - 1

    def reference(self) -> tuple:
        if "wall_s" in self.ref:
            return self.ref["wall_s"], self.ref["cpu_s"]
        return (statistics.median(p[0] for p in self.probes),
                statistics.median(p[1] for p in self.probes))

    def scaled(self, index: int) -> tuple:
        """(wall, cpu) of one event at reference host speed."""
        near = self.probes[max(0, index + 1 - self.WINDOW):
                           index + 1 + self.WINDOW]
        wall, cpu = self.events[index]
        rw, rc = self.reference()
        return (wall * rw / statistics.median(p[0] for p in near),
                cpu * rc / statistics.median(p[1] for p in near))


def setup_inputs(wl, seed: int, workdir: Path):
    """Set up every slot once; returns the inputs and their set-up times."""
    inputs, times = [], []
    for slot in range(wl.slots):
        t0 = time.perf_counter()
        inputs.append(wl.setup(seed, slot, workdir))
        times.append(time.perf_counter() - t0)
    return inputs, times


def warm_up(name: str, workdir: Path) -> None:
    """One untimed tiny call, so lazy imports and allocator growth are paid."""
    from workloads import make
    tiny = make(name, tiny=True)
    tiny.call(tiny.setup(0, 0, workdir))


def run_e2e(wl, seed: int, workdir: Path, seconds: float, gate: HashGate):
    """Set up the slots and call them round-robin for ``seconds``.

    Every slot is called at least ``MIN_ROUNDS`` times, even if that takes
    longer than ``seconds``. After each call the slot is set up once more
    and timed, so that ``setup_s`` is sampled across the whole run, like
    ``wall_s``. Every set-up and call is timed between two probe runs and
    scaled to reference host speed (:class:`HostClock`); the metrics are the
    median of a slot's scaled samples, mean over slots.
    """
    clock = HostClock(load_reference().get("host_probe", {}))
    calls = Calls(wl.slots, gate)

    def set_up(slot):
        t0 = time.perf_counter()
        inp = wl.setup(seed, slot, workdir)
        wall = time.perf_counter() - t0
        calls.setup[slot].append(wall)
        setups[slot].append(clock.record(wall, wall))
        return inp

    setups = [[] for _ in range(wl.slots)]
    inputs = [set_up(slot) for slot in range(wl.slots)]
    walls = [[] for _ in range(wl.slots)]
    start = time.perf_counter()
    i = 0
    while (i < MIN_ROUNDS * wl.slots
           or time.perf_counter() - start < seconds):
        slot = i % wl.slots
        i += 1
        got = calls.timed(wl, inputs[slot], slot)
        if got is None:
            clock.record(0.0, 0.0)
        else:
            calls.wall[slot].append(got[0])
            calls.cpu[slot].append(got[1])
            walls[slot].append(clock.record(*got))
        set_up(slot)
    calls.probes = clock.probes
    metrics = {}
    if all(walls):
        scaled = [[clock.scaled(k) for k in ks] for ks in walls]
        metrics["wall_s"] = (_mean_of_medians(
            [[w for w, _ in v] for v in scaled]), "s")
        metrics["cpu_s"] = (_mean_of_medians(
            [[c for _, c in v] for v in scaled]), "s")
        metrics["setup_s"] = (_mean_of_medians(
            [[clock.scaled(k)[0] for k in ks] for ks in setups]), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        metrics["ok_rate"] = (
            (calls.attempted - calls.failed) / calls.attempted, "ratio")
        from workloads import SCORE_NAMES
        for key in SCORE_NAMES:
            metrics[key] = (statistics.fmean(s[key] for s in calls.scores),
                            "ratio")
        calls.unscaled = {
            "unscaled wall_s": (_mean_of_medians(calls.wall), "s"),
            "host slowdown": (statistics.median(p for p, _ in clock.probes)
                              / clock.reference()[0], "ratio")}
    return calls, metrics


def _is_time(key: str) -> bool:
    return key.endswith(".t")


def run_traced(wl, inputs, setup_spans, seconds: float, gate: HashGate,
               tracer):
    """Alternate untraced and traced calls on every slot.

    Per-layer values are summed over the slots (one pass: each input set up
    once and called once); each slot contributes the median of its traced
    calls for times and its first traced call for counts. Counts that differ
    between traced calls of one slot fail the run.
    """
    from tracer import summarize
    calls = Calls(wl.slots, gate)
    plain = calls.wall
    traced = [[] for _ in range(wl.slots)]
    layers = [[] for _ in range(wl.slots)]
    start = time.perf_counter()
    i = 0
    while i < wl.slots or time.perf_counter() - start < seconds:
        slot = i % wl.slots
        i += 1
        got = calls.timed(wl, inputs[slot], slot)
        if got is not None:
            plain[slot].append(got[0])
            calls.cpu[slot].append(got[1])
        lo = len(tracer.spans)
        tracer.install()
        try:
            got = calls.timed(wl, inputs[slot], slot)
        finally:
            tracer.uninstall()
        if got is None:
            continue
        traced[slot].append(got[0])
        summary = summarize(tracer.spans, lo)
        first = layers[slot][0] if layers[slot] else summary
        counts = {k: v for k, v in summary.items() if not _is_time(k)}
        if counts != {k: v for k, v in first.items() if not _is_time(k)}:
            print(f"perfbench: slot {slot} counts changed between traced "
                  f"calls", file=sys.stderr)
            calls.failed += 1
        layers[slot].append(summary)

    if not (all(plain) and all(traced)):
        return calls, {}
    agg: dict = {}
    for slot in range(wl.slots):
        per_slot = dict(setup_spans[slot])
        keys = set().union(*layers[slot])
        for key in keys:
            if _is_time(key):
                value = statistics.median(s.get(key, 0.0)
                                          for s in layers[slot])
            else:
                value = layers[slot][0].get(key, 0)
            per_slot[key] = per_slot.get(key, 0) + value
        for key, value in per_slot.items():
            agg[key] = agg.get(key, 0) + value
    traced_pass = sum(statistics.median(v) for v in traced)
    plain_pass = sum(statistics.median(v) for v in plain)
    return calls, layer_metrics(agg, traced_pass, plain_pass, wl)


def layer_metrics(agg: dict, traced_pass: float, plain_pass: float,
                  wl) -> dict:
    g = agg.get

    def per_call_us(prefix):
        n = g(f"{prefix}.n", 0)
        return 1e6 * g(f"{prefix}.t", 0.0) / n if n else 0.0

    kernel_n = g("citest.g2.n", 0) + g("citest.set.n", 0)
    kernel_t = g("citest.g2.t", 0.0) + g("citest.set.t", 0.0)
    lookups = g("mb.tester.ci.n", 0) + g("mb.tester.set_ci.n", 0)
    pool_wall = g("pool.wall.t", 0.0)
    m = {
        "citest.g2.calls": (g("citest.g2.n", 0), "count"),
        "citest.set.calls": (g("citest.set.n", 0), "count"),
        "citest.set.us_per_call": (per_call_us("citest.set"), "us"),
        "citest.rows_scanned": (g("kernel.rows", 0), "count"),
        "citest.self_s": (kernel_t - g("kernel.child.t", 0.0), "s"),
        "special.chi2_sf.calls": (g("special.chi2_sf.n", 0), "count"),
        "special.chi2_sf.us_per_call": (per_call_us("special.chi2_sf"),
                                        "us"),
        "mb.tester.lookups": (lookups, "count"),
        "mb.tester.distinct_tests": (kernel_n, "count"),
        "mb.tester.hit_rate": (1.0 - kernel_n / lookups if lookups else 0.0,
                               "ratio"),
        "mb.unreliable_frac": (g("kernel.unreliable", 0) / kernel_n
                               if kernel_n else 0.0, "ratio"),
        "mb.overhead_s": (traced_pass - kernel_t, "s"),
        "mb.iamb_s": (g("mb.iamb.t", 0.0), "s"),
        "mb.hiton_mb_s": (g("mb.hiton_mb.t", 0.0), "s"),
        "discovery.theta_s": (g("theta.t", 0.0)
                              + g("selection.select_common.t", 0.0), "s"),
        "discovery.pool_busy_frac": (
            g("pool.cpu.t", 0.0) / (wl.workers * pool_wall)
            if pool_wall else 0.0, "ratio"),
        "equivalence.pairs_found": (g("equivalence.pairs", 0), "count"),
        "selection.delabel_s": (g("selection.delabel_pc.t", 0.0), "s"),
        "selection.select_common_s": (g("selection.select_common.t", 0.0),
                                      "s"),
        "data.load_s": (g("data.load_dataset.t", 0.0), "s"),
        "cli.write_s": (g("cli.write.t", 0.0), "s"),
        "synth.generate_s": (g("synth.generate.t", 0.0), "s"),
        "synth.sample_s": (g("synth.sample.t", 0.0), "s"),
        "metrics.score_s": (g("metrics.score_variables.t", 0.0), "s"),
        "trace.overhead_s": ((traced_pass - plain_pass) / wl.slots, "s"),
        "trace.overhead_frac": (traced_pass / plain_pass - 1.0, "ratio"),
    }
    for bucket in ("z0", "z1", "z2", "z3"):
        name = "z3p" if bucket == "z3" else bucket
        m[f"citest.g2.us_per_call.{name}"] = (
            per_call_us(f"citest.g2.{bucket}"), "us")
    for k in (1, 2, 3):
        m[f"discovery.phase{k}_s"] = (g(f"discovery.phase{k}.t", 0.0), "s")
        m[f"discovery.phase{k}_tests"] = (g(f"discovery.phase{k}.tests", 0),
                                          "count")
    return m


def machine_info() -> dict:
    import numpy
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__}


def bless(name: str, seed: int) -> int:
    """Store this checkout's output hashes for ``seed`` in reference.json."""
    from workloads import make
    wl = make(name)
    ref = load_reference()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="bless-", dir=OUT_DIR))
    try:
        inputs, _ = setup_inputs(wl, seed, workdir)
        digests = [sha256(wl.call(inp).canonical) for inp in inputs]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    entry = ref.setdefault("workloads", {}).setdefault(name, {})
    if entry.get("anchor_sha256", digests[0]) != digests[0]:
        print(f"perfbench: anchor of {name} changed; delete it from "
              f"{REFERENCE.name} to re-bless", file=sys.stderr)
        return 1
    entry["anchor_sha256"] = digests[0]
    entry.setdefault("seed_sha256", {})[str(seed)] = digests[1:]
    ref["machine"] = machine_info()
    REFERENCE.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")
    print(f"{name} seed {seed}: " + " ".join(digests))
    return 0


def record_probe(samples: int = 200) -> int:
    """Store the host-speed probe's median times as the reference speed."""
    from hostspeed import Probe
    probe = Probe()
    probe.measure()
    got = [probe.measure() for _ in range(samples)]
    ref = load_reference()
    ref["host_probe"] = {
        "wall_s": statistics.median(w for w, _ in got),
        "cpu_s": statistics.median(c for _, c in got),
        "samples": samples, "machine": machine_info()}
    REFERENCE.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")
    print(json.dumps(ref["host_probe"]))
    return 0


def run_one(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> int:
    from workloads import make
    wl = make(name, tiny=tiny)
    expected = {} if tiny else expected_hashes(load_reference(), name, seed)
    if not tiny and 0 not in expected:
        print(f"perfbench: no reference hash for {name}; run --bless",
              file=sys.stderr)
        return 2
    gate = HashGate(expected)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    try:
        warm_up(name, workdir)
        if trace:
            from tracer import Tracer, summarize
            tracer = Tracer()
            inputs, setup_spans = [], []
            for slot in range(wl.slots):
                lo = len(tracer.spans)
                tracer.install()
                try:
                    inputs.append(wl.setup(seed, slot, workdir))
                finally:
                    tracer.uninstall()
                setup_spans.append(summarize(tracer.spans, lo))
            calls, metrics = run_traced(wl, inputs, setup_spans, seconds,
                                        gate, tracer)
            tracer.write(OUT_DIR / f"trace-{name}-seed{seed}.csv.gz")
        else:
            calls, metrics = run_e2e(wl, seed, workdir, seconds, gate)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    (OUT_DIR / f"calls-{name}-seed{seed}.json").write_text(json.dumps(
        {"trace": trace, "wall": calls.wall, "cpu": calls.cpu,
         "setup": calls.setup, "probes": calls.probes}) + "\n")
    correct = calls.failed == 0 and bool(metrics)
    print(f"{name:16s} {'calls per slot':32s} "
          + " ".join(str(len(w)) for w in calls.wall))
    for key, (value, unit) in sorted(metrics.items()) + sorted(
            calls.unscaled.items()):
        print(f"{name:16s} {key:32s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": calls.attempted,
        "failed": calls.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in a fresh process; fails if any of them fails."""
    from workloads import WORKLOADS
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        worst = max(worst, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary["correct"] = False
            continue
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = value
    print(json.dumps(summary))
    return worst if worst else (0 if summary["correct"] else 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--bless", action="store_true",
                        help="store output hashes for --seed instead of "
                             "measuring")
    parser.add_argument("--record-probe", action="store_true",
                        help="store the host-speed probe's time on this "
                             "host as the reference speed")
    args = parser.parse_args(argv)
    _import_clcd()
    sys.path.insert(0, str(BENCH_DIR))
    if args.record_probe:
        return record_probe()
    from workloads import WORKLOADS
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    if args.bless:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        return max(bless(name, args.seed) for name in names)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
