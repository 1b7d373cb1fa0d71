"""Traced mode: spans around the calls into each clcd layer, from outside.

The tracer replaces the names each layer actually calls through (``clcd.mb``
binds ``g2_test``/``set_ci`` at import, ``clcd.citest`` binds ``chi2_sf``,
``clcd.selection`` and ``clcd.cli`` bind the phase and pipeline functions)
with wrappers that append a span ``[name, start, end, parent, attrs]`` to an
in-memory list. Nothing in ``src/clcd`` changes. Spans recorded inside pool
worker processes stay in those processes: kernel counts of a pooled phase
cannot be seen from outside, and only the parent's spans plus the children's
CPU (``RUSAGE_CHILDREN``, read when the pool is joined) are reported.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import resource
import time

KERNELS = ("citest.g2", "citest.set")
PHASES = ("discovery.phase1", "discovery.phase2", "discovery.phase3")


def _kernel_attrs(n_cols):
    def attrs(args, kwargs, result):
        ds = args[0]
        return n_cols(args), ds.n_rows, result.reliable
    return attrs


def _g2_cols(args):
    return 2 + len(args[3]) if len(args) > 3 else 2


def _set_cols(args):
    z = args[3] if len(args) > 3 else ()
    return len(args[1]) + len(args[2]) + len(z)


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _pairs_found(args, kwargs, result):
    return sum(len(pairs) for pairs in result.values())


# (module, attribute, span name, attrs(args, kwargs, result) or None)
TARGETS = (
    ("clcd.mb", "g2_test", "citest.g2", _kernel_attrs(_g2_cols)),
    ("clcd.mb", "set_ci", "citest.set", _kernel_attrs(_set_cols)),
    ("clcd.citest", "chi2_sf", "special.chi2_sf", None),
    ("clcd.mb", "G2Tester.ci", "mb.tester.ci", None),
    ("clcd.mb", "G2Tester.set_ci", "mb.tester.set_ci", None),
    ("clcd.discovery", "hiton_mb", "mb.hiton_mb", None),
    ("clcd.benchmark", "hiton_mb", "mb.hiton_mb", None),
    ("clcd.benchmark", "iamb", "mb.iamb", None),
    ("clcd.discovery", "phase1_structures", "discovery.phase1", None),
    ("clcd.discovery", "phase2_retrieve", "discovery.phase2", None),
    ("clcd.discovery", "phase3_equivalences", "discovery.phase3",
     _pairs_found),
    ("clcd.selection", "phase1_structures", "discovery.phase1", None),
    ("clcd.selection", "phase2_retrieve", "discovery.phase2", None),
    ("clcd.selection", "phase3_equivalences", "discovery.phase3",
     _pairs_found),
    ("clcd.discovery", "clcd", "discovery.clcd", None),
    ("clcd.selection", "delabel_pc", "selection.delabel_pc", None),
    ("clcd.selection", "select_common", "selection.select_common", None),
    ("clcd.selection", "clcd_fs", "selection.clcd_fs", None),
    ("clcd.cli", "clcd_fs", "selection.clcd_fs", None),
    ("clcd.cli", "load_dataset", "data.load_dataset", None),
    ("clcd.cli", "RunOutputs.flush", "cli.write", None),
    ("clcd.synth", "generate", "synth.generate", None),
    ("clcd.synth", "sample", "synth.sample", None),
    ("clcd.benchmark", "generate", "synth.generate", None),
    ("clcd.benchmark", "sample", "synth.sample", None),
    ("clcd.benchmark", "score_variables", "metrics.score_variables", None),
    ("clcd.benchmark", "run_algorithm", "benchmark.run_algorithm", None),
)


class Tracer:
    """Records spans while installed; ``spans`` is kept until written out.

    A span is ``[name, start, end, parent, attrs, children_cpu]``; ``parent``
    indexes ``spans`` (-1 at top level) and ``children_cpu`` is the CPU time
    of child processes reaped while a phase span was open.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, name, fn, attrs):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        # getrusage costs a system call, so only the pool phases pay for it
        track_cpu = name in PHASES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            if track_cpu:
                cpu0 = _children_cpu()
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    rec[4] = attrs(args, kwargs, result)
                return result
            finally:
                rec[2] = clock()
                if track_cpu:
                    rec[5] = _children_cpu() - cpu0
                stack.pop()
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name, attrs in TARGETS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original, attrs))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()

    def write(self, path) -> None:
        """Write every span as gzipped CSV (a traced run holds ~10^6)."""
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            writer = csv.writer(fh)
            writer.writerow(("index", "name", "start", "end", "parent"))
            for i, (name, start, end, parent, _, _) in enumerate(self.spans):
                writer.writerow((i, name, f"{start:.9f}", f"{end:.9f}",
                                 parent))


def summarize(spans, lo: int = 0) -> dict:
    """Per-layer counts and times of the spans ``spans[lo:]``.

    Counts are exact integers; times are seconds. Kernel calls are attributed
    to the discovery phase that encloses them.
    """
    out: dict = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    phase_of: dict = {}
    child_time: dict = {}
    for i in range(lo, len(spans)):
        name, start, end, parent, attrs, kids_cpu = spans[i]
        dur = end - start
        phase = name if name in PHASES else phase_of.get(parent)
        phase_of[i] = phase
        if parent >= lo:
            child_time[parent] = child_time.get(parent, 0.0) + dur
        add(f"{name}.n", 1)
        add(f"{name}.t", dur)
        if name in KERNELS:
            n_cols, n_rows, reliable = attrs
            add("kernel.rows", n_rows * n_cols)
            add("kernel.unreliable", 0 if reliable else 1)
            if name == "citest.g2":
                bucket = min(n_cols - 2, 3)
                add(f"citest.g2.z{bucket}.n", 1)
                add(f"citest.g2.z{bucket}.t", dur)
            if phase is not None:
                add(f"{phase}.tests", 1)
        elif name in PHASES:
            add("pool.cpu.t", kids_cpu)
            if kids_cpu > 0.0:
                add("pool.wall.t", dur)
            if name == "discovery.phase3":
                add("equivalence.pairs", attrs)
        elif name == "discovery.clcd":
            ends = [spans[j][2] for j in range(i + 1, len(spans))
                    if spans[j][0] == "discovery.phase3"
                    and spans[j][3] == i]
            if ends:
                add("theta.t", end - max(ends))
    for i, busy in child_time.items():
        name = spans[i][0]
        if name in KERNELS:
            add("kernel.child.t", busy)
    return out
