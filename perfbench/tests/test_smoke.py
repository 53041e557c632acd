"""Smoke test of the benchmark harness at toy size (n=40, 2 folds, 2 epochs).

    python3 -m pytest perfbench/tests
"""

import importlib
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import child  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
FOLDS, EPOCHS = 2, 2
TOY = {
    "full-n300": {},
    "sampled-n1000": {"batch_budget": 4},   # n/10, as at full size
    "depth-n300": {},
}


def quiet(*_):
    pass


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_at_toy_size(name, tmp_path):
    toy = replace(run.WORKLOADS[name], n_subjects=40, folds=FOLDS, epochs=EPOCHS, **TOY[name])
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    plain = run.run_workload(toy, seed=1, seconds=0, trace=0, work=tmp_path / "plain", log=quiet)
    assert plain["correct"] and plain["failed"] == 0
    assert plain["attempted"] == 1   # seconds=0: one command
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    # the check rejects a command that trained other than the fixed work
    out = tmp_path / "plain" / "out0" / toy.out_name()
    report = json.loads((out.parent / f"{out.name}.report.json").read_text())
    run.check_outputs(toy, out, report)
    with pytest.raises(run.CheckFailed, match="fold-epochs"):
        run.check_outputs(replace(toy, epochs=EPOCHS + 1), out, report)

    traced = run.run_workload(toy, seed=1, seconds=0, trace=1, work=tmp_path / "traced", log=quiet)
    assert traced["correct"] and traced["attempted"] == 2
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    m = {k: v["value"] for k, v in traced["metrics"].items()}

    cv_calls = 4 if toy.command == "sweep-depth" else 1   # two depths x two variants
    epochs = cv_calls * FOLDS * EPOCHS
    assert m["training.epochs"] == epochs
    assert m["graph_core.operator_builds"] == cv_calls * (FOLDS + 1)
    assert m["model.forward_calls"] == m["model.forward_calls_per_epoch"] * epochs + cv_calls * FOLDS
    if toy.batch_budget is None:
        assert m["model.forward_calls_per_epoch"] == 2
        assert m["sampler.sample_calls"] == 0
    else:
        # ceil(n / budget) batches per epoch; each that holds a training
        # node costs one forward and one backward, plus one eval forward
        assert m["sampler.sample_calls"] == 10 * epochs
        assert m["model.forward_calls_per_epoch"] * epochs == m["training.backward_calls"] + epochs
        assert 0 < m["sampler.useful_batch_ratio"] <= 1
    assert m["popgraph.pairs"] == 40 * 39 // 2
    assert 0 < m["popgraph.edges"] <= m["popgraph.pairs"]


def test_tracer_records_missing_names_as_absent(monkeypatch):
    training = importlib.import_module("angcn.training")
    for module_name, names in child.TRACED.items():
        module = importlib.import_module(f"angcn.{module_name}")
        for attr in names:
            if hasattr(module, attr):   # restored by monkeypatch after the test
                monkeypatch.setattr(module, attr, getattr(module, attr))
    monkeypatch.delattr(training, "hadamard")
    tracer = child.Tracer()
    tracer.install()
    assert tracer.absent == ["training.hadamard"]
    training.one_hot([0, 1])                       # not traced
    training.EarlyStopper(1)
    g = importlib.import_module("angcn.graph_core").Graph(n=2, edges=((0, 1, 1.0),))
    training.normalize_adjacency(training.add_self_loops(g))
    assert [s[0] for s in tracer.spans] == ["training.add_self_loops",
                                            "training.normalize_adjacency"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "full-n300", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
