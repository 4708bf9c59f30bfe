import importlib.util
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_snapshot.py"

SPEC = {"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                       {"name": "ops_per_s", "unit": "1/s", "better": "higher",
                        "bound": 0.25}],
        "per_layer": [{"name": "a.calls", "unit": "count", "better": "lower"},
                      {"name": "a.ratio", "unit": "1", "better": "higher"}]}
MACHINE = {"platform": "Linux", "cpu": "test cpu", "cpus": 2, "python": "3.11"}


def write_records(checkout: Path, revision: str, runs: dict, traced: dict = None):
    """runs: (workload, seed) -> (setup_s, ops_per_s, warmup_ms);
    traced: (workload, seed) -> per-layer metrics of a traced run."""
    results = checkout / "perfbench" / "results"
    results.mkdir(parents=True)
    (checkout / "BENCHMARK.json").write_text(json.dumps(SPEC))
    for (workload, seed), (setup, ops, warmup) in runs.items():
        record = {"workload": workload, "seed": seed, "seconds": 20.0, "trace": False,
                  "machine": MACHINE, "numpy": "2.0", "scipy": "1.14",
                  "git_revision": revision, "warmup_ms": warmup, "import_s": setup / 2,
                  "module_count": 700 if revision == "aaa" else 470,
                  "attempted": 10, "failed": 1 if seed == 1 else 0,
                  "end_to_end": {"setup_s": setup, "ops_per_s": ops}}
        (results / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(record))
    for (workload, seed), per_layer in (traced or {}).items():
        record = {"workload": workload, "seed": seed, "seconds": 20.0, "trace": True,
                  "machine": MACHINE, "numpy": "2.0", "scipy": "1.14",
                  "git_revision": revision, "per_layer": per_layer}
        (results / f"{workload}-seed{seed}-trace1.json").write_text(json.dumps(record))


def test_pairs_by_workload_and_seed(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_records(parent, "aaa", {("w", 1): (1.0, 10.0, 5.0), ("w", 2): (2.0, 20.0, 5.0),
                                  ("w", 3): (3.0, 30.0, 5.0), ("w", 4): (4.0, 40.0, 5.0),
                                  ("w", 9): (9.0, 90.0, 5.0), ("v", 1): (1.0, 1.0, 1.0)})
    # seed 9 has no partner; seed 4 is a tie on setup_s and a loss on ops_per_s
    write_records(change, "bbb", {("w", 1): (0.5, 11.0, 5.0), ("w", 2): (1.0, 21.0, 4.0),
                                  ("w", 3): (1.5, 31.0, 6.0), ("w", 4): (4.0, 39.0, 5.0),
                                  ("v", 1): (2.0, 1.0, 1.0)})
    out = tmp_path / "BENCH_t.json"
    proc = subprocess.run([sys.executable, str(SCRIPT), str(parent), str(change),
                           "--label", "t", "--output", str(out)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    snap = json.loads(out.read_text())
    assert snap["git_revision"] == {"parent": "aaa", "change": "bbb"}
    assert {side: len(digest) for side, digest in snap["source_digest"].items()} == {
        "parent": 64, "change": 64}
    assert snap["machine"] == MACHINE
    assert (snap["numpy"], snap["scipy"]) == ("2.0", "1.14")
    w = snap["workloads"]["w"]
    assert (w["pairs"], w["seeds"]) == (4, [1, 2, 3, 4])
    assert w["parent_failed_of_attempted"] == [1, 40]
    setup = w["metrics"]["setup_s"]
    assert setup["parent"]["runs"] == [1.0, 2.0, 3.0, 4.0]
    assert setup["parent"]["median"] == 2.5
    assert (setup["parent"]["q1"], setup["parent"]["q3"]) == (1.25, 3.75)
    assert setup["change_wins"] == 3
    assert w["metrics"]["ops_per_s"]["better"] == "higher"
    assert w["metrics"]["ops_per_s"]["change_wins"] == 3
    assert w["metrics"]["warmup_ms"]["change_wins"] == 1
    assert w["metrics"]["module_count"]["change"]["median"] == 470
    v = snap["workloads"]["v"]
    assert v["pairs"] == 1
    assert v["metrics"]["setup_s"]["parent"] == {"median": 1.0, "q1": 1.0, "q3": 1.0,
                                                 "runs": [1.0]}
    assert v["metrics"]["setup_s"]["change_wins"] == 0


def test_mixed_revisions_rejected(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_records(parent, "aaa", {("w", 1): (1.0, 1.0, 1.0)})
    write_records(change, "bbb", {("w", 1): (1.0, 1.0, 1.0)})
    record = json.loads((change / "perfbench/results/w-seed1-trace0.json").read_text())
    record.update(seed=2, git_revision="ccc")
    (parent / "perfbench/results/w-seed2-trace0.json").write_text(json.dumps(
        {**record, "git_revision": "aaa"}))
    (change / "perfbench/results/w-seed2-trace0.json").write_text(json.dumps(record))
    proc = subprocess.run([sys.executable, str(SCRIPT), str(parent), str(change),
                           "--label", "t", "--output", str(tmp_path / "B.json")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "records disagree on git_revision" in proc.stderr
    assert not (tmp_path / "B.json").exists()


def test_traced_records_fold_per_layer_medians(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    runs = {("w", 1): (1.0, 1.0, 1.0), ("v", 1): (1.0, 1.0, 1.0)}
    write_records(parent, "aaa", runs,
                  {("w", 5): {"a.calls": 80, "a.ratio": 0.5},
                   ("w", 6): {"a.calls": 80, "a.ratio": 0.5},
                   ("w", 7): {"a.calls": 81, "a.ratio": 0.4},
                   ("v", 5): {"a.calls": 3}})
    # seed 7 has no traced partner; a.ratio is missing from v's records
    write_records(change, "bbb", runs,
                  {("w", 5): {"a.calls": 2, "a.ratio": 0.5},
                   ("w", 6): {"a.calls": 4, "a.ratio": 1.0},
                   ("v", 5): {"a.calls": 3}})
    out = tmp_path / "BENCH_t.json"
    proc = subprocess.run([sys.executable, str(SCRIPT), str(parent), str(change),
                           "--label", "t", "--output", str(out)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    snap = json.loads(out.read_text())
    assert snap["git_revision"] == {"parent": "aaa", "change": "bbb"}
    w = snap["workloads"]["w"]
    assert w["pairs"] == 1 and "setup_s" in w["metrics"]
    layers = w["per_layer"]
    assert (layers["pairs"], layers["seeds"]) == (2, [5, 6])
    calls = layers["metrics"]["a.calls"]
    assert calls["unit"] == "count" and calls["better"] == "lower"
    assert calls["parent"] == {"median": 80, "q1": 80, "q3": 80, "runs": [80, 80]}
    assert calls["change"]["median"] == 3 and calls["change"]["runs"] == [2, 4]
    assert calls["change_wins"] == 2
    ratio = layers["metrics"]["a.ratio"]
    assert ratio["better"] == "higher" and ratio["change_wins"] == 1
    v = snap["workloads"]["v"]["per_layer"]
    assert list(v["metrics"]) == ["a.calls"] and v["metrics"]["a.calls"]["change_wins"] == 0


def test_untraced_only_has_no_per_layer(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_records(parent, "aaa", {("w", 1): (1.0, 1.0, 1.0)})
    write_records(change, "bbb", {("w", 1): (1.0, 1.0, 1.0)},
                  {("w", 1): {"a.calls": 2, "a.ratio": 0.5}})
    out = tmp_path / "BENCH_t.json"
    proc = subprocess.run([sys.executable, str(SCRIPT), str(parent), str(change),
                           "--label", "t", "--output", str(out)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "per_layer" not in json.loads(out.read_text())["workloads"]["w"]


def test_source_digest_names_the_code(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_snapshot", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name in ("a", "b", "c"):
        (tmp_path / name / "src" / "issgain").mkdir(parents=True)
        (tmp_path / name / "perfbench").mkdir()
        (tmp_path / name / "src" / "issgain" / "cli.py").write_text("x = 1\n")
        (tmp_path / name / "perfbench" / "run.py").write_text("run = 1\n")
    (tmp_path / "c" / "src" / "issgain" / "cli.py").write_text("x = 2\n")
    digest = {name: module.source_digest(tmp_path / name) for name in ("a", "b", "c")}
    assert digest["a"] == digest["b"]
    assert digest["c"] != digest["a"]
