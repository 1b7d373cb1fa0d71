"""The benchmark's own tests, on tiny workloads.

    python3 -m pytest perfbench
"""

import json

import numpy as np
import pytest

import run

run._import_clcd()

import tracer  # noqa: E402
import workloads  # noqa: E402
from clcd.citest import CiConfig  # noqa: E402
from clcd.discovery import clcd  # noqa: E402
from clcd.mb import G2Tester  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny_input(name, seed, slot, tmp_path):
    return workloads.make(name, tiny=True).setup(seed, slot, tmp_path)


def test_traced_kernel_calls_equal_tester_n_tests(tmp_path):
    ds = _tiny_input("wide-discover", 0, 1, tmp_path).ds
    counts = []
    for _ in range(2):
        tester = G2Tester(ds, CiConfig())
        t = tracer.Tracer()
        t.install()
        try:
            clcd(ds, tester=tester)
        finally:
            t.uninstall()
        s = tracer.summarize(t.spans)
        assert s["citest.g2.n"] + s.get("citest.set.n", 0) == tester.n_tests
        assert s["mb.tester.ci.n"] + s.get("mb.tester.set_ci.n", 0) \
            >= tester.n_tests
        assert s["special.chi2_sf.n"] == tester.n_tests
        counts.append({k: v for k, v in s.items() if not k.endswith(".t")})
    assert counts[0] == counts[1]


def test_uninstall_restores_every_name():
    import importlib
    before = []
    for module, attr, _, _ in tracer.TARGETS:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        before.append(owner)
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    for (module, attr, _, _), original in zip(tracer.TARGETS, before):
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert owner is original


def test_perturbed_output_trips_hash_gate(tmp_path):
    wl = workloads.make("wide-discover", tiny=True)
    inputs, _ = run.setup_inputs(wl, 0, tmp_path)
    expected = {slot: run.sha256(wl.call(inp).canonical)
                for slot, inp in enumerate(inputs)}
    calls, metrics = run.run_e2e(wl, 0, tmp_path, 0.0,
                                 run.HashGate(expected))
    assert calls.failed == 0 and metrics["ok_rate"][0] == 1.0

    class Perturbed(workloads.WideDiscover):
        def call(self, inp):
            out = super().call(inp)
            out.canonical = out.canonical.replace(b"specific", b"specifik", 1)
            return out

    bad = Perturbed(wl.gcfg)
    calls, _ = run.run_e2e(bad, 0, tmp_path, 0.0, run.HashGate(expected))
    assert calls.attempted == run.MIN_ROUNDS * wl.slots
    assert calls.failed == calls.attempted


def test_host_clock_scales_to_reference_speed(monkeypatch):
    clock = run.HostClock({"wall_s": 0.05, "cpu_s": 0.04})
    # the host now runs the probe in twice the reference time
    monkeypatch.setattr(clock.probe, "measure", lambda: (0.1, 0.08))
    clock.probes = [(0.1, 0.08)]
    k = clock.record(3.0, 2.0)
    assert clock.scaled(k) == pytest.approx((1.5, 1.0))


def test_stored_hash_mismatch_fails_the_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(workloads, "make",
                        lambda name, tiny=False: workloads.WORKLOADS[name](
                            workloads.SIZES[workloads.WORKLOADS[name]][1]))
    monkeypatch.setattr(run, "load_reference", lambda: {
        "workloads": {"wide-discover": {"anchor_sha256": "0" * 64}}})
    assert run.run_one("wide-discover", 0, 0.0, False) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    def fingerprint(inp):
        if inp.template is not None:
            return repr(inp.template).encode()
        data = inp.ds.codes.tobytes()
        if inp.files:
            data += inp.files["data"].read_bytes()
        return data

    wl = workloads.make(name, tiny=True)
    a = [fingerprint(wl.setup(7, s, tmp_path)) for s in range(wl.slots)]
    b = [fingerprint(wl.setup(7, s, tmp_path)) for s in range(wl.slots)]
    c = [fingerprint(wl.setup(8, s, tmp_path)) for s in range(wl.slots)]
    assert a == b
    assert a[0] == c[0]  # the anchor slot ignores the seed
    assert a[1:] != c[1:]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_result_names_every_declared_metric(trace, section, tmp_path,
                                            monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    assert run.run_one("pairs-pool", 3, 0.0, bool(trace), tiny=True) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
