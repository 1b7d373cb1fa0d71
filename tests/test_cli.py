import csv
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from clcd import cli
from clcd.cli import main, substream
from clcd.discovery import clcd
from clcd.selection import clcd_fs
from clcd.synth import GenConfig, GroundTruth, generate, sample


def _gen(tmp_path, name="run", seed=3, labels=2, features=10, samples=400,
         extra=()):
    out = tmp_path / name
    rc = main(["gen", "--labels", str(labels), "--features", str(features),
               "--samples", str(samples), "--mb-min", "2", "--mb-max", "3",
               "--seed", str(seed), "--out", str(out), *extra])
    assert rc == 0
    return out


def test_substream_distinct_and_stable():
    a = substream(7, "generate")
    b = substream(7, "sample")
    c = substream(7, "split")
    assert len({a, b, c}) == 3
    assert substream(7, "generate") == a
    assert substream(8, "generate") != a
    with pytest.raises(KeyError):
        substream(7, "nope")


def test_gen_outputs(tmp_path):
    out = _gen(tmp_path)
    for name in ("data.csv", "meta.json", "network.json", "truth.json",
                 "manifest.json"):
        assert (out / name).exists(), name

    with open(out / "data.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    assert len(body) == 400
    assert len(header) == 12  # 10 features + 2 labels
    assert {"L0", "L1"} <= set(header)
    assert all(all(cell in ("0", "1") for cell in row) for row in body)

    meta = json.loads((out / "meta.json").read_text())
    assert meta == {"labels": ["L0", "L1"]}

    truth = json.loads((out / "truth.json").read_text())
    assert set(truth) == {"mb_variants", "equivalence_classes",
                          "common_true", "specific_true"}

    net = json.loads((out / "network.json").read_text())
    assert net["names"] == header
    assert len(net["cpts"]) == 12

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "gen"
    assert manifest["seed"] == 3
    assert "--seed" in manifest["argv"]


def test_gen_infeasible_returns_error(tmp_path, capsys):
    rc = main(["gen", "--labels", "4", "--features", "3",
               "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_discover_clcd_and_baseline(tmp_path):
    out = _gen(tmp_path)
    disc = tmp_path / "disc"
    rc = main(["discover", "--data", str(out / "data.csv"),
               "--meta", str(out / "meta.json"), "--out", str(disc)])
    assert rc == 0
    doc = json.loads((disc / "discovery.json").read_text())
    assert doc["algorithm"] == "clcd"
    assert set(doc) == {"algorithm", "common", "specific", "structures", "ei"}
    assert set(doc["structures"]) == {"L0", "L1"}
    for entry in doc["common"]:
        assert set(entry) == {"labels", "variables"}

    disc2 = tmp_path / "disc2"
    rc = main(["discover", "--data", str(out / "data.csv"),
               "--meta", str(out / "meta.json"), "--algo", "hiton-intersect",
               "--out", str(disc2)])
    assert rc == 0
    doc2 = json.loads((disc2 / "discovery.json").read_text())
    assert set(doc2) == {"algorithm", "common", "specific"}


def test_select_and_eval_prediction(tmp_path):
    out = _gen(tmp_path, samples=800)
    sel = tmp_path / "sel"
    rc = main(["select", "--data", str(out / "data.csv"),
               "--meta", str(out / "meta.json"), "--out", str(sel)])
    assert rc == 0
    doc = json.loads((sel / "selection.json").read_text())
    assert set(doc) == {"common", "choices", "specific", "feature_label_map",
                        "selected"}
    selected = [ln for ln in (sel / "selected.csv").read_text().splitlines()
                if ln]
    assert selected == doc["selected"]

    with open(sel / "grid.csv", newline="") as fh:
        grid = list(csv.reader(fh))
    assert grid[0][0] == "label"
    assert [row[0] for row in grid[1:]] == ["L0", "L1"]
    assert all(cell in ("0", "1") for row in grid[1:] for cell in row[1:])

    ev = tmp_path / "ev"
    rc = main(["eval", "--selected", str(sel / "selected.csv"),
               "--data", str(out / "data.csv"),
               "--meta", str(out / "meta.json"),
               "--split", "0.7", "--seed", "1", "--out", str(ev)])
    assert rc == 0
    metrics = json.loads((ev / "eval.json").read_text())
    assert metrics["n_train"] == 560
    assert metrics["n_test"] == 240
    assert 0.0 <= metrics["hamming"] <= 1.0
    assert 0.0 <= metrics["ranking"] <= 1.0
    assert metrics["features"] == selected


def test_outputs_are_utf8_whatever_the_locale(tmp_path):
    data = _gen(tmp_path) / "data.csv"
    data.write_bytes(data.read_bytes().replace(b"F", "Fé".encode()))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
               LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")

    def run(*argv):
        done = subprocess.run(
            [sys.executable, "-m", "clcd", *argv, "--data", "run/data.csv",
             "--meta", "run/meta.json"],
            cwd=tmp_path, env=env, capture_output=True)
        assert done.returncode == 0, done.stderr

    run("select", "--out", "sel")
    selected = (tmp_path / "sel" / "selected.csv").read_bytes()
    names = selected.decode("utf-8").split()
    assert names and all(name.startswith("Fé") for name in names)
    run("eval", "--selected", "sel/selected.csv", "--out", "ev")
    assert json.loads((tmp_path / "ev" / "eval.json").read_bytes()
                      )["features"] == names


_FILES = {"a.txt": "1\n", "b.txt": "2\n", "c.txt": "3\n"}


def _fail_on_b(monkeypatch):
    write_text = Path.write_text

    def fail_on_b(path, text, **kwargs):
        if path.name == "b.txt":  # b.txt is created, then its write fails
            write_text(path, text[:1], **kwargs)
            raise ValueError("cannot encode b.txt")
        return write_text(path, text, **kwargs)

    monkeypatch.setattr(Path, "write_text", fail_on_b)


def test_failed_flush_removes_the_files_it_wrote(tmp_path, monkeypatch):
    # the directories it made go too: out/ and the parent made for it
    _fail_on_b(monkeypatch)
    with pytest.raises(ValueError, match="cannot encode"):
        cli.RunOutputs(tmp_path / "new" / "out", _FILES).flush()
    assert list(tmp_path.iterdir()) == []


def test_failed_flush_keeps_an_existing_directory(tmp_path, monkeypatch):
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "keep.txt").write_text("mine\n")
    _fail_on_b(monkeypatch)
    with pytest.raises(ValueError, match="cannot encode"):
        cli.RunOutputs(tmp_path / "out", _FILES).flush()
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["keep.txt"]
    assert (tmp_path / "out" / "keep.txt").read_text() == "mine\n"


def test_eval_variable_mode(tmp_path):
    out = _gen(tmp_path)
    disc = tmp_path / "disc"
    main(["discover", "--data", str(out / "data.csv"),
          "--meta", str(out / "meta.json"), "--out", str(disc)])
    ev = tmp_path / "ev"
    rc = main(["eval", "--found", str(disc / "discovery.json"),
               "--truth", str(out / "truth.json"), "--out", str(ev)])
    assert rc == 0
    doc = json.loads((ev / "eval.json").read_text())
    assert set(doc) == {"common", "specific", "averaged"}
    for group in doc.values():
        assert set(group) == {"tp", "fp", "fn", "precision", "recall"}
        assert 0.0 <= group["precision"] <= 1.0


def test_eval_rejects_mode_mixups(tmp_path):
    with pytest.raises(SystemExit):
        main(["eval", "--out", str(tmp_path / "e1")])
    with pytest.raises(SystemExit):
        main(["eval", "--found", "x.json", "--selected", "y.csv",
              "--out", str(tmp_path / "e2")])
    with pytest.raises(SystemExit):
        main(["eval", "--found", "x.json", "--out", str(tmp_path / "e3")])


def test_eval_bad_split_returns_error(tmp_path, capsys):
    out = _gen(tmp_path)
    sel = tmp_path / "sel"
    main(["select", "--data", str(out / "data.csv"),
          "--meta", str(out / "meta.json"), "--out", str(sel)])
    rc = main(["eval", "--selected", str(sel / "selected.csv"),
               "--data", str(out / "data.csv"),
               "--meta", str(out / "meta.json"),
               "--split", "0", "--out", str(tmp_path / "ev")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_missing_input_returns_error(tmp_path, capsys):
    rc = main(["discover", "--data", str(tmp_path / "absent.csv"),
               "--meta", str(tmp_path / "absent.json"),
               "--out", str(tmp_path / "d")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_bench_small_sweep(tmp_path):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({
        "n_labels": 2, "n_features": 8, "n_samples": 500,
        "mb_size_range": [2, 2], "p_c": [0.0], "p_m": [0.0],
        "algorithms": ["hiton-intersect"], "seed": 5}))
    out = tmp_path / "bench"
    rc = main(["bench", "--sweep", str(sweep), "--seeds", "2",
               "--out", str(out)])
    assert rc == 0
    report = (out / "report.csv").read_text()
    assert report.startswith("#")
    assert "hiton-intersect" in report
    details = json.loads((out / "details.json").read_text())
    assert len(details) == 1
    assert len(details[0]["runs"]) == 2


def test_rerun_reproduces_bytes(tmp_path):
    out = _gen(tmp_path, seed=11)
    redo = tmp_path / "redo"
    rc = main(["rerun", "--manifest", str(out / "manifest.json"),
               "--out", str(redo)])
    assert rc == 0
    for name in ("data.csv", "meta.json", "network.json", "truth.json"):
        assert (redo / name).read_bytes() == (out / name).read_bytes(), name
    # the manifest itself differs (argv --out, wall clock) by design
    m1 = json.loads((out / "manifest.json").read_text())
    m2 = json.loads((redo / "manifest.json").read_text())
    assert m1["seed"] == m2["seed"]
    assert m1["version"] == m2["version"]


def test_rerun_requires_argv(tmp_path):
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps({"argv": []}))
    with pytest.raises(SystemExit):
        main(["rerun", "--manifest", str(bad), "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("manifest", [
    None, '{"subcommand": "gen"}', "{", '{"argv": ["gen", "--out"]}',
    '{"argv": null}', '{"argv": ["gen", 3]}', "[]",
    '{"argv": ["rerun", "--manifest", "SELF", "--out", "o"]}'],
    ids=["missing", "no-argv", "malformed", "out-without-value", "null-argv",
         "non-string-argv", "not-an-object", "rerun-of-itself"])
def test_rerun_bad_manifest_returns_error(tmp_path, capsys, manifest):
    path = tmp_path / "manifest.json"
    if manifest is not None:
        path.write_text(manifest.replace('"SELF"', json.dumps(str(path))))
    rc = main(["rerun", "--manifest", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["discover", "--data", "data.csv", "--meta", "input.json"],
    ["select", "--data", "data.csv", "--meta", "input.json"],
    ["bench", "--sweep", "input.json"],
    ["eval", "--found", "input.json", "--truth", "truth.json"]],
    ids=["discover-meta", "select-meta", "bench-sweep", "eval-found"])
def test_json_input_that_is_not_an_object_returns_error(tmp_path, argv):
    _assert_input_is_an_error(tmp_path, argv, {
        "discover": '["a"]', "select": '["a"]', "bench": "[1]",
        "eval": "[]"}[argv[0]])


def _assert_input_is_an_error(tmp_path, argv, text):
    """``python -m clcd argv`` on input.json holding ``text`` exits 1 with
    ``error:``, no traceback and no output directory."""
    (tmp_path / "data.csv").write_text("a,b\n0,1\n1,0\n")
    (tmp_path / "truth.json").write_text("{}")
    (tmp_path / "input.json").write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "clcd", *argv, "--out", "o"],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True)
    assert done.returncode == 1
    assert "error:" in done.stderr and "Traceback" not in done.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, text", [
    (["eval", "--found", "input.json", "--truth", "truth.json"],
     '{"common": [1]}'),
    (["eval", "--found", "input.json", "--truth", "truth.json"],
     '{"specific": []}'),
    (["bench", "--sweep", "input.json"], '{"p_c": 1}'),
    (["bench", "--sweep", "input.json"], '{"n_labels": "x"}'),
    (["bench", "--sweep", "input.json"], '{"alpha": "0.1"}'),
    (["bench", "--sweep", "input.json"], '{"max_z": "2"}'),
    (["bench", "--sweep", "input.json"], '{"seed": 1.5}'),
    (["bench", "--sweep", "input.json"], '{"p_c": ["a"]}')],
    ids=["eval-common-of-ints", "eval-specific-list", "bench-scalar-grid",
         "bench-string-count", "bench-string-alpha", "bench-string-max-z",
         "bench-float-seed", "bench-grid-of-strings"])
def test_json_object_of_the_wrong_shape_returns_error(tmp_path, argv, text):
    _assert_input_is_an_error(tmp_path, argv, text)


@pytest.mark.parametrize("pc,pm", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_documents_load_back(tmp_path, monkeypatch, pc, pm):
    """What gen, discover and select write, the eval loaders read back."""
    made = {}
    for name in ("generate", "clcd", "clcd_fs"):
        def spy(*args, _name=name, _fn=getattr(cli, name), **kwargs):
            made[_name] = _fn(*args, **kwargs)
            return made[_name]
        monkeypatch.setattr(cli, name, spy)
    out = _gen(tmp_path, labels=3, features=20,
               extra=("--pc", str(pc), "--pm", str(pm)))
    inputs = ["--data", str(out / "data.csv"), "--meta", str(out / "meta.json")]
    assert main(["discover", *inputs, "--out", str(tmp_path / "disc")]) == 0
    assert main(["select", *inputs, "--out", str(tmp_path / "sel")]) == 0

    net, truth = made["generate"]
    names = net.names

    def named(vs):
        return {names[v] for v in vs}

    def common(doc):
        return {frozenset(named(ts)): named(vs) for ts, vs in doc.items()}

    def specific(doc):
        return {names[t]: named(vs) for t, vs in doc.items()}

    found = made["clcd"]
    assert cli._load_found(tmp_path / "disc" / "discovery.json") == (
        common(found.ccv), specific(found.tcv))

    result = made["clcd_fs"]
    union: dict = {}
    for choice in result.common:
        union.setdefault(choice.labels, set()).update(choice.features)
    assert cli._load_found(tmp_path / "sel" / "selection.json") == (
        common(union), specific(result.specific))

    assert cli._load_truth(out / "truth.json") == GroundTruth(
        mb_variants={names[t]: [frozenset(named(v)) for v in variants]
                     for t, variants in truth.mb_variants.items()},
        equivalence_classes=tuple(frozenset(named(cls))
                                  for cls in truth.equivalence_classes),
        common_true=common(truth.common_true),
        specific_true=specific(truth.specific_true))


def test_document_builders_match_perfbench(monkeypatch):
    """perfbench hashes its own copies of the two builders; they must agree."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)

    net, _ = generate(GenConfig(n_labels=3, n_features=14, n_samples=600,
                                p_c=0.5, p_m=1.0, mb_size_range=(2, 3),
                                seed=1))
    ds = sample(net, 600, 2)
    out = clcd(ds)
    result = clcd_fs(ds)
    assert out.ccv and result.common
    assert (cli.discovery_doc(out, ds.names)
            == workloads.discovery_doc(out, ds.names))
    assert cli.selection_doc(result, ds) == workloads.selection_doc(result, ds)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    from clcd import __version__
    assert __version__ in capsys.readouterr().out
