import argparse
import hashlib
import json
import os
import re
import runpy
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from angcn import cli, data, popgraph, training
from angcn.cli import cli_run
from angcn.data import (
    SyntheticSpec, generate_synthetic, graph_digest, load_adjacency, load_bundle, save_adjacency,
)
from angcn.sampler import json_chunks, presample
from angcn.training import TrainConfig

from graphs import adjacency_file, blas_threads, edge_list, peak_bytes

SMALL = ["--n-subjects", "48", "--n-roi", "6", "--seed", "5"]
FAST_TRAIN = [
    "--folds", "3", "--epochs", "25", "--patience", "25",
    "--layers", "2", "--hidden", "12", "--seed", "2",
]
QUICK_TRAIN = FAST_TRAIN + ["--folds", "2", "--epochs", "2"]


def no_layers(flags):
    """`flags` less `--layers` and its value, which sweep-depth refuses: it sets
    the depth itself."""
    i = flags.index("--layers")
    return flags[:i] + flags[i + 2:]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("bundle")
    assert cli_run(["synth", "--out", str(d)] + SMALL) == 0
    return d


@pytest.fixture(scope="module")
def train_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("run")
    rc = cli_run(["train", "--data", str(data_dir), "--out", str(out)] + FAST_TRAIN)
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def adjacency_run(tmp_path_factory, data_dir):
    """The bundle's build-graph file and a quick run trained on it."""
    adj = tmp_path_factory.mktemp("graph") / "adjacency.csv"
    assert cli_run(["build-graph", "--data", str(data_dir), "--out", str(adj)]) == 0
    run = tmp_path_factory.mktemp("adjacency-run")
    assert cli_run(["train", "--data", str(data_dir), "--adjacency", str(adj), "--out", str(run)]
                   + QUICK_TRAIN) == 0
    return adj, run


class TestSynth:
    def test_writes_bundle_files(self, data_dir):
        for name in ("features.csv", "phenotypes.csv", "phenotypes.schema.json", "labels.csv"):
            assert (data_dir / name).exists()
        bundle = load_bundle(data_dir)
        assert bundle.features.shape == (48, 15)

    def test_headers_match_declared_formats(self, data_dir):
        assert (data_dir / "features.csv").read_text().splitlines()[0].startswith(
            "subject_id,f0,"
        )
        assert (data_dir / "labels.csv").read_text().splitlines()[0] == "subject_id,label"
        schema = json.loads((data_dir / "phenotypes.schema.json").read_text())
        assert {entry["name"] for entry in schema} == {"site", "age"}

    @pytest.mark.parametrize("separation", ["nan", "inf"])
    def test_non_finite_class_separation_writes_nothing(self, tmp_path, capsys, separation):
        out = tmp_path / "bundle"
        rc = cli_run(["synth", "--out", str(out), "--class-separation", separation] + SMALL)
        assert rc == 1
        assert "class_separation must be a finite number >= 0" in capsys.readouterr().err
        assert not out.exists()


def reference_adjacency(features, measures, sigma=None):
    """(A, sigma) of the population graph as its definition reads, at one
    BLAS thread: the correlation distances rho = 1 - z z^T of the centred,
    row-normalised features, sigma the np.median of the pairs i < j unless
    given, each weight exp(-rho^2 / (2 sigma^2)) times the summed agreement
    of every measure, and the strict upper triangle mirrored to the lower."""
    z = features - features.mean(axis=1, keepdims=True)
    z = z / np.linalg.norm(z, axis=1, keepdims=True)
    with training.blas_pin():
        rho = 1.0 - z @ z.T
    if sigma is None:
        sigma = float(np.median(rho[np.triu_indices(len(z), k=1)]))
    upper = np.triu(np.exp(-(rho ** 2) / (2 * sigma ** 2))
                    * sum(m.agreement() for m in measures), k=1)
    return upper + upper.T, sigma


class TestBuildGraph:
    def test_adjacency_file_properties(self, data_dir, tmp_path):
        out = tmp_path / "adjacency.csv"
        assert cli_run(["build-graph", "--data", str(data_dir), "--out", str(out)]) == 0
        a = load_adjacency(out, n=48)
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0.0)
        assert a.min() >= 0.0
        for row in out.read_text().splitlines()[1:]:
            i, j, w = row.split(",")
            assert int(i) < int(j) and float(w) > 0

    def test_file_is_the_built_matrix_bit_for_bit(self, tmp_path):
        # the paper-scale bundle: the file loads to build_adjacency's matrix at the
        # command's one BLAS thread, and save_adjacency of that matrix writes the
        # file's bytes again
        data, out, again = tmp_path / "bundle", tmp_path / "adjacency.csv", tmp_path / "again.csv"
        assert cli_run(["synth", "--out", str(data), "--n-subjects", "300", "--seed", "0"]) == 0
        assert cli_run(["build-graph", "--data", str(data), "--out", str(out)]) == 0
        bundle = load_bundle(data)
        with training.blas_pin():
            a = popgraph.build_adjacency(bundle.features, bundle.phenotypes)[0]
        assert load_adjacency(out, n=300).tobytes() == a.tobytes()
        save_adjacency(a, again)
        assert again.read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("sigma", [None, 0.05])
    def test_adjacency_bytes_are_pinned(self, data_dir, tmp_path, capsys, sigma):
        # the file lists i,j,repr(w) for each nonzero upper entry of the
        # reference, in row order
        bundle, out = load_bundle(data_dir), tmp_path / "graph.csv"
        want, want_sigma = reference_adjacency(bundle.features, bundle.phenotypes, sigma)
        flags = [] if sigma is None else ["--sigma", str(sigma)]
        capsys.readouterr()
        assert cli_run(["build-graph", "--data", str(data_dir), "--out", str(out)] + flags) == 0
        assert capsys.readouterr().out.endswith(f" (458 edges, sigma={want_sigma:.6g})\n")
        assert out.read_bytes() == adjacency_file(tmp_path, edge_list(want)).read_bytes()
        assert graph_digest(load_adjacency(out, n=48)) == graph_digest(want)

    def test_median_sigma_is_pinned(self, data_dir, train_dir):
        bundle = load_bundle(data_dir)
        want, sigma = reference_adjacency(bundle.features, bundle.phenotypes)
        with training.blas_pin():
            assert repr(popgraph.build_adjacency(bundle.features, bundle.phenotypes)[1]) == (
                repr(sigma))
        payload = json.loads((train_dir / "checkpoint_fold0.json").read_text())
        assert repr(payload["config"]["sigma_resolved"]) == repr(sigma)
        assert payload["graph_digest"] == graph_digest(want)

    def test_graph_is_built_in_the_distance_buffer(self):
        # the N x N distances become the adjacency matrix, and sigma's median
        # reads one N(N-1)/2 buffer of the pairs i < j: no second N x N array
        n = 2000
        bundle = generate_synthetic(SyntheticSpec(n_subjects=n))
        peak, (a, sigma) = peak_bytes(popgraph.build_adjacency, bundle.features,
                                      bundle.phenotypes, None)
        assert peak <= 1.6 * n * n * 8
        assert a.shape == (n, n) and sigma > 0

    @pytest.mark.parametrize("command, flags, distances", [
        ("build-graph", [], [(48, 15)]),
        ("sample-stats", ["--runs", "5"], [(48, 15)]),
        ("sample-stats", ["--runs", "5", "--adjacency", "{adj}"], []),
        ("train", QUICK_TRAIN, [(48, 15)]),
        ("train", QUICK_TRAIN + ["--adjacency", "{adj}"], []),
        ("train", QUICK_TRAIN + ["--rfe-dim", "6"], [(48, 6)]),
        ("eval", ["--checkpoint", "{checkpoint}"], [(48, 15)]),
        ("eval", ["--checkpoint", "{adjacency_checkpoint}", "--adjacency", "{adj}"], []),
        ("sweep-depth", ["--depths", "2"] + no_layers(QUICK_TRAIN), [(48, 15)]),
        ("sweep-batch", ["--budgets", "24", "--rfe-dim", "6", "--sampler-runs", "20"]
         + QUICK_TRAIN, [(48, 6)]),
    ], ids=["build-graph", "sample-stats", "sample-stats-adjacency", "train", "train-adjacency",
            "train-rfe", "eval", "eval-adjacency", "sweep-depth", "sweep-batch-rfe"])
    def test_distances_computed_at_most_once(self, data_dir, train_dir, adjacency_run, tmp_path,
                                             monkeypatch, command, flags, distances):
        # every command reaches its graph through one path: the bundle is read
        # once, and the distances are computed once, never for a file's graph
        adj, run = adjacency_run
        paths = {"adj": adj, "checkpoint": train_dir / "checkpoint_fold0.json",
                 "adjacency_checkpoint": run / "checkpoint_fold0.json"}
        loads, calls = [], []
        load_bundle, correlation_distances = data.load_bundle, popgraph._correlation_distances
        monkeypatch.setattr(data, "load_bundle",
                            lambda path: loads.append(path) or load_bundle(path))
        monkeypatch.setattr(popgraph, "_correlation_distances",
                            lambda features: calls.append(features.shape)
                            or correlation_distances(features))
        argv = [command, "--data", str(data_dir), "--out", str(tmp_path / "out")]
        assert cli_run(argv + [flag.format(**paths) for flag in flags]) == 0
        assert loads == [data_dir]
        assert calls == distances

    @pytest.mark.parametrize("sigma", ["-1", "0", "nan", "inf"])
    def test_bad_sigma_is_a_usage_error(self, data_dir, tmp_path, capsys, sigma):
        # with --adjacency too: the value is refused before the pair of flags is
        adj = tmp_path / "adjacency.csv"
        assert cli_run(["build-graph", "--data", str(data_dir), "--out", str(adj)]) == 0
        for argv in (["build-graph", "--data", str(data_dir), "--out", str(adj)],
                     ["train", "--data", str(data_dir), "--adjacency", str(adj),
                      "--out", str(tmp_path / "run")] + FAST_TRAIN):
            capsys.readouterr()
            assert cli_run(argv + [f"--sigma={sigma}"]) == 2
            assert "argument --sigma" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags", [("train", QUICK_TRAIN), ("sample-stats", [])],
                             ids=["train", "sample-stats"])
    def test_sigma_with_adjacency_is_refused(self, data_dir, adjacency_run, tmp_path, capsys,
                                             monkeypatch, command, flags):
        # a graph read from a file has no sigma, so a given one would build nothing
        adj, _ = adjacency_run
        out = tmp_path / "out"
        monkeypatch.setattr(data, "load_bundle", lambda path: pytest.fail("bundle read"))
        capsys.readouterr()
        assert cli_run([command, "--data", str(data_dir), "--adjacency", str(adj),
                        "--out", str(out), "--sigma", "0.5"] + flags) == 1
        assert capsys.readouterr().err == (
            "error: --sigma and --adjacency exclude each other: --sigma builds the graph "
            "from --data, --adjacency reads it from a file\n")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sigma", ["1e-300", "1e-160"])
    @pytest.mark.parametrize("command", ["build-graph", "train"])
    def test_sigma_at_which_the_kernel_overflows_is_refused(self, data_dir, tmp_path, capsys,
                                                            command, sigma):
        # at 1e-300 sigma^2 underflows to 0, and at 1e-160 rho^2 / (2 sigma^2)
        # overflows: each once wrote a 0-edge graph after numpy's warnings
        out = tmp_path / "out"
        flags = QUICK_TRAIN if command == "train" else []
        capsys.readouterr()
        assert cli_run([command, "--data", str(data_dir), "--out", str(out), "--sigma", sigma]
                       + flags) == 1
        assert capsys.readouterr().err == (
            f"error: sigma must be > 0 with 4 / (2 sigma^2) finite, got {float(sigma)}\n")
        assert not out.exists()

    def test_rfe_dim_is_not_a_build_graph_option(self, data_dir, tmp_path, capsys):
        # a graph built from RFE columns fitted on every label would leak them
        out = tmp_path / "adjacency.csv"
        assert cli_run(["build-graph", "--data", str(data_dir), "--out", str(out),
                        "--rfe-dim", "5"]) == 2
        assert "--rfe-dim" in capsys.readouterr().err
        assert not out.exists()

    def test_train_accepts_prebuilt_adjacency(self, data_dir, tmp_path):
        adj = tmp_path / "adjacency.csv"
        assert cli_run(["build-graph", "--data", str(data_dir), "--out", str(adj)]) == 0
        out = tmp_path / "run"
        rc = cli_run(
            ["train", "--data", str(data_dir), "--adjacency", str(adj), "--out", str(out)]
            + FAST_TRAIN
        )
        assert rc == 0
        assert (out / "metrics.json").exists()

    def test_out_of_range_edge_names_the_file_and_line(self, data_dir, tmp_path, capsys):
        # a file built for more subjects than the bundle has
        adj = tmp_path / "adjacency.csv"
        adj.write_text("i,j,weight\n0,1,0.5\n0,63,0.5\n")
        rc = cli_run(["train", "--data", str(data_dir), "--adjacency", str(adj),
                      "--out", str(tmp_path / "run")] + FAST_TRAIN)
        assert rc == 1
        assert (f"{adj}: line 3: edge (0, 63) is not 0 <= i < j < 48"
                in capsys.readouterr().err)


class TestSampleStats:
    def test_stats_json_schema(self, data_dir, tmp_path):
        out = tmp_path / "stats.json"
        rc = cli_run(
            ["sample-stats", "--data", str(data_dir), "--out", str(out),
             "--runs", "40", "--budget", "16", "--seed", "3"]
        )
        assert rc == 0
        stats = json.loads(out.read_text())
        assert stats["runs"] == 40
        assert len(stats["node_counts"]) == 48
        assert all(0 <= c <= 40 for c in stats["node_counts"])
        assert all(len(row) == 3 for row in stats["edge_counts"])

    def test_holds_no_n_by_n_array_but_the_graph(self, data_dir, tmp_path, monkeypatch):
        # n = 1000 at 40% density, --runs 200 --budget 500: the whole S^T S, a
        # bool mask, .tolist() and one json.dumps of the payload peaked at
        # 13.1 N^2*8 bytes; a block of rows' counts at a time, written as
        # formed, leaves S (0.2 N^2*8)
        n, rng = 1000, np.random.default_rng(1)
        i, j = np.triu_indices(n, k=1)
        keep = rng.uniform(size=len(i)) < 0.4
        a = np.zeros((n, n))
        a[i[keep], j[keep]] = a[j[keep], i[keep]] = rng.uniform(0.01, 2.0, int(keep.sum()))
        monkeypatch.setattr(cli, "_graph", lambda args: (None, None, None, a, None))  # untraced
        out = tmp_path / "stats.json"
        peak, rc = peak_bytes(cli_run, ["sample-stats", "--data", str(data_dir), "--out",
                                        str(out), "--runs", "200", "--budget", "500"])
        assert rc == 0
        assert peak <= n * n * 8
        stats = presample(n, runs=200, budget=500, seed=0)
        assert out.read_text() == "".join(json_chunks(stats, a)) + "\n"

    @pytest.mark.parametrize("runs", ["0", "-3"])
    def test_fewer_than_one_run_fails(self, data_dir, tmp_path, capsys, runs):
        out = tmp_path / "stats.json"
        assert cli_run(["sample-stats", "--data", str(data_dir), "--out", str(out),
                        "--runs", runs]) == 1
        assert f"runs must be >= 1, got {runs}" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_expected_artifacts(self, train_dir):
        names = {p.name for p in train_dir.iterdir()}
        assert {"metrics.json", "history.csv", "roc.csv", "pr.csv"} <= names
        assert {f"checkpoint_fold{f}.json" for f in range(3)} <= names

    def test_metrics_json_shape(self, train_dir):
        report = json.loads((train_dir / "metrics.json").read_text())
        keys = {"accuracy", "auc", "f1", "recall", "precision", "kappa", "mcc"}
        assert keys <= set(report["aggregate"])
        assert len(report["folds"]) == 3
        for fold in report["folds"]:
            assert keys <= set(fold)
            assert "degenerate" in fold

    def test_history_csv_schema(self, train_dir):
        lines = (train_dir / "history.csv").read_text().splitlines()
        assert lines[0] == "fold,epoch,train_loss,val_loss"
        folds = {int(line.split(",")[0]) for line in lines[1:]}
        assert folds == {0, 1, 2}

    def test_curve_files_carry_kind_and_area(self, train_dir):
        for name, kind in (("roc.csv", "roc"), ("pr.csv", "pr")):
            lines = (train_dir / name).read_text().splitlines()
            assert lines[0].startswith(f"# kind={kind} area=")
            assert lines[1] == "x,y"
            area = float(lines[0].split("area=")[1])
            assert 0.0 <= area <= 1.0

    def test_byte_identical_reruns(self, data_dir, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            rc = cli_run(["train", "--data", str(data_dir), "--out", str(out)] + FAST_TRAIN)
            assert rc == 0
        assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()
        assert (a / "history.csv").read_bytes() == (b / "history.csv").read_bytes()
        assert (a / "roc.csv").read_bytes() == (b / "roc.csv").read_bytes()
        assert (
            a / "checkpoint_fold0.json"
        ).read_bytes() == (b / "checkpoint_fold0.json").read_bytes()

    @pytest.mark.parametrize("columns", [0, 1, 2])
    def test_graph_from_fewer_than_three_columns_says_why(self, data_dir, tmp_path, capsys,
                                                          columns):
        # no columns failed inside numpy, one blamed a constant subject, and two
        # trained on distances that can only be 0 or 2
        narrow = tmp_path / "bundle"
        shutil.copytree(data_dir, narrow)
        lines = (narrow / "features.csv").read_text().splitlines()
        (narrow / "features.csv").write_text(
            "".join(",".join(line.split(",")[:1 + columns]) + "\n" for line in lines))
        assert cli_run(["train", "--data", str(narrow), "--out", str(tmp_path / "run")]
                       + FAST_TRAIN) == 1
        assert (f"error: need at least 3 feature columns, got {columns} "
                "(correlation distances need >= 3 columns)") in capsys.readouterr().err
        # a graph read from a file does not come from the features
        adj = tmp_path / "adjacency.csv"
        assert cli_run(["build-graph", "--data", str(data_dir), "--out", str(adj)]) == 0
        assert cli_run(["train", "--data", str(narrow), "--adjacency", str(adj),
                        "--out", str(tmp_path / "adj-run")] + FAST_TRAIN) == 0


class TestEval:
    def test_checkpoint_round_trip_preserves_metrics(self, data_dir, train_dir, tmp_path):
        report_a = tmp_path / "a.json"
        report_b = tmp_path / "b.json"
        ckpt = train_dir / "checkpoint_fold0.json"
        for report in (report_a, report_b):
            rc = cli_run(
                ["eval", "--checkpoint", str(ckpt), "--data", str(data_dir),
                 "--out", str(report)]
            )
            assert rc == 0
        assert report_a.read_bytes() == report_b.read_bytes()
        body = json.loads(report_a.read_text())
        assert 0.0 <= body["accuracy"] <= 1.0

    def test_sampled_checkpoint_probabilities_unsaturated(self, data_dir, tmp_path, monkeypatch):
        # a ten-layer model trained at budget n/2: scoring the full graph
        # with gamma (~2 per edge) would push the softmax to 0/1
        run = tmp_path / "run"
        rc = cli_run(
            ["train", "--data", str(data_dir), "--out", str(run), "--folds", "3",
             "--epochs", "10", "--patience", "10", "--layers", "10", "--hidden", "12",
             "--seed", "2", "--batch-budget", "24", "--sampler-runs", "40"]
        )
        assert rc == 0
        seen = []
        real_predict = cli.predict

        def spy(logits):
            seen.append(real_predict(logits))
            return seen[-1]

        monkeypatch.setattr(cli, "predict", spy)
        rc = cli_run(
            ["eval", "--checkpoint", str(run / "checkpoint_fold0.json"), "--data", str(data_dir)]
        )
        assert rc == 0
        (probs,) = seen
        assert probs.shape == (48, 2)
        assert probs.min() > 1e-6

    def test_tampered_digest_rejected(self, data_dir, train_dir, tmp_path, capsys):
        payload = json.loads((train_dir / "checkpoint_fold0.json").read_text())
        payload["graph_digest"] = "0" * 64
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        rc = cli_run(["eval", "--checkpoint", str(bad), "--data", str(data_dir)])
        assert rc == 1
        assert "graph digest" in capsys.readouterr().err

    def test_eval_reproduces_each_fold_of_metrics_json(self, data_dir, train_dir, tmp_path):
        runs = [train_dir]
        for name, flags in (("sampled", ["--batch-budget", "20", "--sampler-runs", "30"]),
                            ("rfe", ["--rfe-dim", "6"])):
            runs.append(tmp_path / name)
            assert cli_run(["train", "--data", str(data_dir), "--out", str(runs[-1])]
                           + FAST_TRAIN + flags) == 0
        for run in runs:
            folds = json.loads((run / "metrics.json").read_text())["folds"]
            for k, fold in enumerate(folds):
                report = tmp_path / f"eval_{run.name}_{k}.json"
                rc = cli_run(["eval", "--checkpoint", str(run / f"checkpoint_fold{k}.json"),
                              "--data", str(data_dir), "--out", str(report)])
                assert rc == 0
                body = json.loads(report.read_text())
                assert {key: body[key] for key in fold} == fold
                # all 48 subjects are scored separately, under their own label
                assert set(body["all_subjects"]) == set(fold) - {"fold"}

    def test_eval_reproduces_a_plain_gcn_fold_that_train_took_through_a_power(
        self, data_dir, tmp_path, monkeypatch
    ):
        # train takes layers 2..4 of the plain GCN as one product with a_hat^3,
        # eval takes the checkpoint through the layer loop: fold 0's metrics
        # must read the same
        monkeypatch.setattr(training, "fold_workers", lambda folds: 1)
        powers, real = [], training.forward

        def recorded(params, op, x_raw, power=None):
            powers.append(power is not None)
            return real(params, op, x_raw, power)

        monkeypatch.setattr(training, "forward", recorded)
        run, report = tmp_path / "run", tmp_path / "eval.json"
        assert cli_run(["train", "--data", str(data_dir), "--out", str(run)] + FAST_TRAIN
                       + ["--alpha", "0", "--beta", "0", "--layers", "4"]) == 0
        assert powers and all(powers)
        assert cli_run(["eval", "--checkpoint", str(run / "checkpoint_fold0.json"),
                        "--data", str(data_dir), "--out", str(report)]) == 0
        fold = json.loads((run / "metrics.json").read_text())["folds"][0]
        body = json.loads(report.read_text())
        assert {key: body[key] for key in fold} == fold

    @pytest.mark.parametrize("key, value", [
        ("test_idx", [-1, 0]),
        ("test_idx", [5000]),
        ("feature_columns", [999]),
        ("sigma_resolved", None),   # deleted from the config
        ("alpha", "0.1"),           # in the config, its one home
        ("layers", 3),              # not the depth of the stored weights
        ("hidden_dim", 5),          # not their width
        ("graph_digest", 5),        # not a hex digest
    ])
    def test_bad_checkpoint_value_is_named(self, data_dir, train_dir, tmp_path, capsys,
                                           key, value):
        payload = json.loads((train_dir / "checkpoint_fold0.json").read_text())
        target = payload["config"] if key in payload["config"] else payload
        if value is None:
            del target[key]
        else:
            target[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        rc = cli_run(["eval", "--checkpoint", str(bad), "--data", str(data_dir)])
        err = capsys.readouterr().err
        assert rc == 1
        assert str(bad) in err and key in err

    @pytest.mark.parametrize("key, value, size", [("test_idx", 5000, "48 subjects"),
                                                  ("feature_columns", 999, "15 feature columns")])
    def test_bad_index_is_refused_before_any_graph_work(self, data_dir, train_dir, tmp_path,
                                                        capsys, monkeypatch, key, value, size):
        # the index is checked against the bundle before a graph is read or
        # built: not the digest of another graph, not a distance pass
        other = tmp_path / "other.csv"
        assert cli_run(["build-graph", "--data", str(data_dir), "--out", str(other),
                        "--sigma", "0.05"]) == 0
        payload = json.loads((train_dir / "checkpoint_fold0.json").read_text())
        payload[key] = [0, value]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))

        def no_distances(features):
            raise AssertionError("correlation distances computed before the index check")

        monkeypatch.setattr(popgraph, "_correlation_distances", no_distances)
        for flags in (["--adjacency", str(other)], []):
            capsys.readouterr()
            assert cli_run(["eval", "--checkpoint", str(bad), "--data", str(data_dir)]
                           + flags) == 1
            assert capsys.readouterr().err == (
                f"error: {bad}: {key} holds {value}, but {data_dir} has {size}\n")

    def test_config_alpha_is_the_alpha_eval_runs(self, data_dir, train_dir, tmp_path):
        # alpha is stored once, in the config: an edit there changes the model eval scores
        payload = json.loads((train_dir / "checkpoint_fold0.json").read_text())
        assert "alpha" not in payload and "beta" not in payload
        payload["config"]["alpha"] = 0.9
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(payload))
        reports = []
        for ckpt in (train_dir / "checkpoint_fold0.json", edited):
            reports.append(tmp_path / f"report_{ckpt.stem}.json")
            assert cli_run(["eval", "--checkpoint", str(ckpt), "--data", str(data_dir),
                            "--out", str(reports[-1])]) == 0
        assert reports[0].read_bytes() != reports[1].read_bytes()

    def test_rfe_checkpoint_evaluates(self, data_dir, tmp_path):
        run = tmp_path / "run"
        rc = cli_run(["train", "--data", str(data_dir), "--out", str(run), "--rfe-dim", "5"]
                     + FAST_TRAIN)
        assert rc == 0
        payload = json.loads((run / "checkpoint_fold0.json").read_text())
        assert len(payload["feature_columns"]) == 5
        rc = cli_run(["eval", "--checkpoint", str(run / "checkpoint_fold0.json"),
                      "--data", str(data_dir)])
        assert rc == 0

    def test_graph_mismatch_names_the_digest(self, data_dir, train_dir, tmp_path, capsys):
        # a checkpoint of the median-sigma graph evaluates with that graph's
        # file, and not with a file built at another sigma
        ckpt = ["eval", "--checkpoint", str(train_dir / "checkpoint_fold0.json"),
                "--data", str(data_dir)]
        for sigma, want in ((None, 0), ("0.05", 1)):
            adj = tmp_path / f"adjacency_{sigma}.csv"
            flags = [] if sigma is None else ["--sigma", sigma]
            assert cli_run(["build-graph", "--data", str(data_dir), "--out", str(adj)]
                           + flags) == 0
            capsys.readouterr()
            assert cli_run(ckpt + ["--adjacency", str(adj)]) == want
            if want:
                assert "graph digest" in capsys.readouterr().err

    def test_adjacency_checkpoint_without_its_file_is_refused(self, data_dir, adjacency_run,
                                                              capsys, monkeypatch):
        # a null sigma would rebuild the median-sigma graph, whatever the file held
        ckpt = adjacency_run[1] / "checkpoint_fold0.json"
        monkeypatch.setattr(data, "load_bundle", lambda path: pytest.fail("bundle read"))
        capsys.readouterr()
        assert cli_run(["eval", "--checkpoint", str(ckpt), "--data", str(data_dir)]) == 1
        assert capsys.readouterr().err == (
            f"error: {ckpt} was trained on an adjacency file (its sigma_resolved is null): "
            "give that file with --adjacency\n")

    def test_eval_with_the_adjacency_file_reproduces_fold_zero(self, data_dir, tmp_path,
                                                              capsys):
        adj, other = tmp_path / "adjacency.csv", tmp_path / "other.csv"
        assert cli_run(["build-graph", "--data", str(data_dir), "--out", str(adj),
                        "--sigma", "0.05"]) == 0
        assert cli_run(["build-graph", "--data", str(data_dir), "--out", str(other)]) == 0
        run = tmp_path / "run"
        assert cli_run(["train", "--data", str(data_dir), "--adjacency", str(adj),
                        "--out", str(run)] + FAST_TRAIN) == 0
        ckpt = ["eval", "--checkpoint", str(run / "checkpoint_fold0.json"),
                "--data", str(data_dir)]
        capsys.readouterr()
        assert cli_run(ckpt) == 1
        assert "trained on an adjacency file" in capsys.readouterr().err
        assert cli_run(ckpt + ["--adjacency", str(other)]) == 1
        err = capsys.readouterr().err
        assert "graph digest" in err and str(other) in err
        report = tmp_path / "eval.json"
        assert cli_run(ckpt + ["--adjacency", str(adj), "--out", str(report)]) == 0
        fold = json.loads((run / "metrics.json").read_text())["folds"][0]
        body = json.loads(report.read_text())
        assert {key: body[key] for key in fold} == fold

    def test_adjacency_run_records_no_unused_sigma(self, data_dir, tmp_path, monkeypatch):
        adj = tmp_path / "adjacency.csv"
        assert cli_run(["build-graph", "--data", str(data_dir), "--out", str(adj)]) == 0

        def no_distances(features):
            raise AssertionError("correlation distances computed for a graph read from a file")

        run = tmp_path / "run"
        with monkeypatch.context() as patch:
            patch.setattr(popgraph, "_correlation_distances", no_distances)
            rc = cli_run(["train", "--data", str(data_dir), "--adjacency", str(adj),
                          "--out", str(run)] + FAST_TRAIN)
        assert rc == 0
        payload = json.loads((run / "checkpoint_fold0.json").read_text())
        assert payload["config"]["sigma_resolved"] is None
        fold = json.loads((run / "metrics.json").read_text())["folds"][0]
        report = tmp_path / "eval.json"
        rc = cli_run(["eval", "--checkpoint", str(run / "checkpoint_fold0.json"),
                      "--data", str(data_dir), "--adjacency", str(adj), "--out", str(report)])
        assert rc == 0
        body = json.loads(report.read_text())
        assert {key: body[key] for key in fold} == fold


@pytest.mark.parametrize("command, flags", [
    ("train", QUICK_TRAIN),
    ("sweep-depth", no_layers(QUICK_TRAIN) + ["--depths", "1"]),
    ("sweep-batch", QUICK_TRAIN + ["--budgets", "16", "--sampler-runs", "5"]),
])
def test_commands_that_train_print_the_graph_they_train_on(data_dir, tmp_path, capsys,
                                                           command, flags):
    # at sigma 1e-3 every kernel weight underflows: the model fits the
    # features alone, through A_hat = I, and the first line says so
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli_run([command, "--data", str(data_dir), "--out", str(out), "--sigma", "1e-3"]
                   + flags) == 0
    assert capsys.readouterr().out.splitlines()[0] == "graph: 0 edges, sigma=0.001"


def test_train_names_the_adjacency_file_it_trains_on(data_dir, adjacency_run, tmp_path, capsys):
    adj, _ = adjacency_run
    capsys.readouterr()
    assert cli_run(["train", "--data", str(data_dir), "--adjacency", str(adj),
                    "--out", str(tmp_path / "run")] + QUICK_TRAIN) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"graph: 458 edges, read from {adj}"


class TestSweeps:
    def test_sweep_depth_csv(self, data_dir, tmp_path):
        out = tmp_path / "depth.csv"
        rc = cli_run(
            ["sweep-depth", "--data", str(data_dir), "--out", str(out),
             "--depths", "1,2"] + no_layers(FAST_TRAIN)
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "depth,angcn_accuracy,gcn_accuracy"
        assert len(lines) == 3
        for line in lines[1:]:
            depth, a, g = line.split(",")
            assert 0.0 <= float(a) <= 1.0
            assert 0.0 <= float(g) <= 1.0

    def test_sweep_batch_caps_budgets_and_notes_it(self, data_dir, tmp_path):
        out = tmp_path / "batch.csv"
        rc = cli_run(
            ["sweep-batch", "--data", str(data_dir), "--out", str(out),
             "--budgets", "16,1000"] + FAST_TRAIN + ["--sampler-runs", "40"]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# budgets capped at n_subjects=48")
        assert lines[1] == "budget,accuracy"
        budgets = [int(line.split(",")[0]) for line in lines[2:]]
        assert budgets == [16, 48]

    @pytest.mark.parametrize("command, values", [
        ("sweep-depth", ["--depths", "1,2"] + no_layers(FAST_TRAIN)),
        ("sweep-batch", ["--budgets", "16,24"] + FAST_TRAIN),
    ])
    def test_builds_a_hat_once_per_command(self, data_dir, tmp_path, monkeypatch, command,
                                           values):
        # every cross-validation of a sweep shares the one A_hat the command formed
        built, shared = [], []
        real_normalize, real_train_folds = cli.normalize_adjacency, training._train_folds
        monkeypatch.setattr(cli, "normalize_adjacency",
                            lambda a: built.append(len(a)) or real_normalize(a))
        monkeypatch.setattr(training, "_train_folds",
                            lambda arrays, tasks: shared.append(arrays[0]) or real_train_folds(
                                arrays, tasks))
        rc = cli_run([command, "--data", str(data_dir), "--out", str(tmp_path / "out.csv")]
                     + values + ["--epochs", "2", "--sampler-runs", "20"])
        assert rc == 0
        assert built == [48]
        assert len(shared) == (4 if command == "sweep-depth" else 2)
        assert all(a_hat is shared[0] for a_hat in shared)

    @pytest.mark.parametrize("command, flag", [("sweep-depth", "--depths"),
                                               ("sweep-batch", "--budgets")])
    def test_bad_list_item_is_a_usage_error(self, data_dir, tmp_path, capsys, command, flag):
        rc = cli_run([command, "--data", str(data_dir), "--out", str(tmp_path / "out.csv"),
                      flag, "2,x"])
        assert rc == 2
        assert f"argument {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [("sweep-depth", "--depths"),
                                               ("sweep-batch", "--budgets")])
    @pytest.mark.parametrize("text", ["", ","])
    def test_empty_list_is_a_usage_error(self, data_dir, tmp_path, capsys, command, flag, text):
        out = tmp_path / "out.csv"
        rc = cli_run([command, "--data", str(data_dir), "--out", str(out), flag, text])
        assert rc == 2
        assert f"argument {flag}: not a non-empty comma list" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [("sweep-depth", "--layers", "7"),
                                                      ("sweep-batch", "--batch-budget", "30")])
    def test_a_sweep_takes_no_flag_for_the_field_it_sweeps(self, tmp_path, capsys, command,
                                                          flag, value):
        # the sweep sets that field from its list, so the flag would be ignored
        out = tmp_path / "out.csv"
        rc = cli_run([command, "--data", str(tmp_path / "missing"), "--out", str(out), flag,
                      value])
        assert rc == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, field, flag", [("sweep-depth", "layers", "--depths"),
                                                     ("sweep-batch", "batch_budget",
                                                      "--budgets")])
    def test_a_config_key_naming_the_swept_field_is_refused(self, tmp_path, capsys, command,
                                                           field, flag):
        # before any data is read, naming the key and the flag that sweeps it
        config = tmp_path / "config.json"
        config.write_text(json.dumps({field: 30}))
        rc = cli_run([command, "--data", str(tmp_path / "missing"),
                      "--out", str(tmp_path / "out.csv"), "--config", str(config)])
        assert rc == 1
        assert capsys.readouterr().err == (f"error: config file {config}: key {field!r} is "
                                           f"what {flag} sweeps\n")

    @pytest.mark.parametrize("command, flag, value, field", [
        ("sweep-depth", "--depths", "2,-1", "layers must be >= 0"),
        ("sweep-batch", "--budgets", "0", "batch_budget must be >= 1"),
    ])
    def test_bad_list_value_is_named_before_data_loads(self, tmp_path, capsys, command, flag,
                                                      value, field):
        rc = cli_run([command, "--data", str(tmp_path / "missing"),
                      "--out", str(tmp_path / "out.csv"), flag, value])
        assert rc == 1
        assert f"error: {field}, got" in capsys.readouterr().err


class TestOutDirectory:
    @pytest.mark.parametrize("command, flags", [
        ("build-graph", []),
        ("sample-stats", ["--runs", "5"]),
        ("eval", None),
        ("sweep-depth", ["--depths", "2"] + no_layers(FAST_TRAIN)),
        ("sweep-batch", ["--budgets", "20"] + FAST_TRAIN),
    ], ids=lambda value: value if isinstance(value, str) else "")
    def test_out_into_a_missing_directory_creates_it(self, data_dir, train_dir, tmp_path,
                                                     command, flags):
        # as train and synth already do; the temporary file once named a missing directory
        out = tmp_path / "new" / "deeper" / "out.file"
        if flags is None:
            flags = ["--checkpoint", str(train_dir / "checkpoint_fold0.json")]
        assert cli_run([command, "--data", str(data_dir), "--out", str(out)] + flags) == 0
        assert out.stat().st_size > 0
        assert [p.name for p in out.parent.iterdir()] == ["out.file"]


    @pytest.mark.parametrize("command, flags, out, why", [
        ("train", FAST_TRAIN, "file", "{out} is a file"),
        ("train", FAST_TRAIN, "file/run", "{out}: {file} is a file"),
        ("sweep-depth", ["--depths", "2"] + no_layers(FAST_TRAIN), "file/depth.csv",
         "{out}: {file} is a file"),
        ("sweep-batch", ["--budgets", "20"] + FAST_TRAIN, "file/batch.csv",
         "{out}: {file} is a file"),
        ("sweep-batch", ["--budgets", "20"] + FAST_TRAIN, "folder", "{out} is a directory"),
    ], ids=["train-file", "train-under-file", "sweep-depth-under-file",
            "sweep-batch-under-file", "sweep-batch-directory"])
    def test_unwritable_out_is_refused_before_any_data_is_read(
        self, data_dir, tmp_path, monkeypatch, capsys, command, flags, out, why
    ):
        # these once trained every fold and only then failed to write
        def never(*args, **kwargs):
            raise AssertionError("called")

        monkeypatch.setattr(cli, "cross_validate", never)
        monkeypatch.setattr(cli.dataio, "load_bundle", never)
        (tmp_path / "file").write_text("")
        (tmp_path / "folder").mkdir()
        out = tmp_path / out
        assert cli_run([command, "--data", str(data_dir), "--out", str(out)] + flags) == 1
        want = "error: --out " + why.format(out=out, file=tmp_path / "file") + "\n"
        assert capsys.readouterr().err == want


class TestFoldWorkerCount:
    """Every CLI path that trains writes the same bytes whether its folds
    train in this process or in two forked workers."""

    @staticmethod
    def digests(path):
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}

    @pytest.mark.parametrize("command, extra", [
        ("train", FAST_TRAIN),
        ("train", FAST_TRAIN + ["--batch-budget", "24", "--sampler-runs", "40"]),
        ("train", FAST_TRAIN + ["--rfe-dim", "5"]),
        ("sweep-depth", no_layers(FAST_TRAIN) + ["--depths", "2,3"]),
        ("sweep-batch", FAST_TRAIN + ["--budgets", "16,24", "--sampler-runs", "40"]),
    ])
    def test_one_and_two_workers_write_identical_files(self, data_dir, tmp_path, monkeypatch,
                                                       command, extra):
        seen = {}
        for workers in (1, 2):
            monkeypatch.setattr(training, "fold_workers", lambda folds, w=workers: w)
            out = tmp_path / f"workers{workers}" / ("run" if command == "train" else "out.csv")
            out.parent.mkdir()
            rc = cli_run([command, "--data", str(data_dir), "--out", str(out)] + extra)
            assert rc == 0
            seen[workers] = self.digests(out)
        assert seen[1] == seen[2]
        assert len(seen[1]) == (3 + 4 if command == "train" else 1)   # 3 checkpoints + 4


class TestGradcheck:
    def test_exit_zero_under_tolerance(self, capsys):
        assert cli_run(["gradcheck", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "max relative gradient error" in out

    def test_stdout_is_the_error_alone(self, capsys):
        # no wall time: two runs of the same code print the same bytes
        capsys.readouterr()
        assert cli_run(["gradcheck", "--seed", "7"]) == 0
        assert re.fullmatch(r"max relative gradient error: \d\.\d{3}e-\d{2}\n",
                            capsys.readouterr().out)

    @pytest.mark.parametrize("eps", ["nan", "inf", "0", "-0.5", "x"])
    def test_eps_must_be_finite_and_positive(self, capsys, eps):
        assert cli_run(["gradcheck", "--eps", eps]) == 2
        assert "argument --eps: not a finite number > 0" in capsys.readouterr().err


class TestIntegerOptions:
    """Integer options outside TrainConfig are checked by argparse."""

    @pytest.mark.parametrize("command, flag, low", [
        ("synth", "--seed", 0),
        ("sample-stats", "--seed", 0),
        ("gradcheck", "--seed", 0),
        ("train", "--rfe-dim", 3),
    ])
    @pytest.mark.parametrize("offset", [-1, None])
    def test_bad_value_is_a_usage_error(self, data_dir, tmp_path, capsys, command, flag, low,
                                        offset):
        value = "x" if offset is None else str(low + offset)
        out = tmp_path / "out"
        argv = {"synth": ["--out", str(out)],
                "gradcheck": []}.get(command, ["--data", str(data_dir), "--out", str(out)])
        assert cli_run([command, *argv, flag, value]) == 2
        assert f"argument {flag}: not an integer >= {low}: {value!r}" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("value", ["1", "2"])
    def test_rfe_dim_below_three_says_why(self, data_dir, tmp_path, capsys, value):
        # one column has no correlation between subjects, and two give only +-1
        out = tmp_path / "out"
        assert cli_run(["train", "--data", str(data_dir), "--out", str(out),
                        "--rfe-dim", value]) == 2
        err = capsys.readouterr().err
        assert f"argument --rfe-dim: not an integer >= 3: {value!r}" in err
        assert "correlation distances need >= 3 columns" in err
        assert not out.exists()


# TrainConfig field -> (its flag, a config-file value, a different flag value)
TRAIN_FLAGS = {
    "learning_rate": ("--lr", 0.5, 0.25),
    "max_epochs": ("--epochs", 7, 9),
    "patience": ("--patience", 3, 4),
    "folds": ("--folds", 3, 5),
    "alpha": ("--alpha", 0.2, 0.4),
    "beta": ("--beta", 0.1, 0.6),
    "layers": ("--layers", 2, 3),
    "hidden_dim": ("--hidden", 8, 16),
    "seed": ("--seed", 1, 2),
    "batch_budget": ("--batch-budget", 20, 30),
    "sampler_runs": ("--sampler-runs", 5, 6),
}


class TestConfigPrecedence:
    @pytest.mark.parametrize("field", [f.name for f in fields(TrainConfig)])
    def test_flag_beats_config_file(self, field, tmp_path):
        flag, file_value, flag_value = TRAIN_FLAGS[field]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({field: file_value}))
        argv = ["train", "--data", "bundle", "--out", "run", "--config", str(config)]
        parser = cli._build_parser()
        assert getattr(cli.resolve_config(parser.parse_args(argv)), field) == file_value
        flagged = cli.resolve_config(parser.parse_args(argv + [flag, str(flag_value)]))
        assert getattr(flagged, field) == flag_value

    @pytest.mark.parametrize("flags, file_values, field", [
        (["--lr", "nan"], None, "learning_rate"),
        (["--lr", "inf"], None, "learning_rate"),
        (["--alpha", "2"], None, "alpha"),
        ([], {"learning_rate": "0.1"}, "learning_rate"),
        ([], {"layers": 2.5}, "layers"),
    ])
    def test_bad_value_fails_before_loading_data(self, data_dir, tmp_path, monkeypatch, capsys,
                                                 flags, file_values, field):
        def no_load(directory):
            raise AssertionError("data loaded")

        monkeypatch.setattr(cli.dataio, "load_bundle", no_load)
        argv = ["train", "--data", str(data_dir), "--out", str(tmp_path / "run")] + flags
        if file_values is not None:
            config = tmp_path / "config.json"
            config.write_text(json.dumps(file_values))
            argv += ["--config", str(config)]
        assert cli_run(argv) == 1
        assert f"error: {field} must be" in capsys.readouterr().err

    def test_usage_error_is_exit_two(self):
        assert cli_run(["no-such-command"]) == 2
        assert cli_run([]) == 2

    def test_missing_data_dir_is_exit_one(self, tmp_path, capsys):
        rc = cli_run(["build-graph", "--data", str(tmp_path / "nope"), "--out",
                      str(tmp_path / "adjacency.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_environment_does_not_set_the_seed(self, monkeypatch):
        # no environment variable sets a training option
        monkeypatch.setenv("ANGCN_SEED", "9")
        args = cli._build_parser().parse_args(["train", "--data", "d", "--out", "o"])
        assert cli.resolve_config(args).seed == TrainConfig().seed

    @pytest.mark.parametrize("text", ["5", "null", '"abc"', "[]", '[["seed", 1]]'])
    def test_config_file_must_be_a_json_object(self, data_dir, tmp_path, capsys, text):
        config = tmp_path / "config.json"
        config.write_text(text)
        rc = cli_run(["train", "--data", str(data_dir), "--out", str(tmp_path / "x"),
                      "--config", str(config)])
        assert rc == 1
        assert f"error: config file {config}: not a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @staticmethod
    def train_args(config):
        return cli._build_parser().parse_args(["train", "--data", "d", "--out", "o",
                                               "--config", str(config)])

    def test_unreadable_config_file_is_named(self, tmp_path):
        config = tmp_path / "missing.json"
        with pytest.raises(ValueError, match=rf"^config file {re.escape(str(config))}: "
                                             r"\[Errno 2\] No such file"):
            cli.resolve_config(self.train_args(config))

    def test_config_file_that_is_not_json_is_named(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{learning_rate: 0.1}")
        with pytest.raises(ValueError, match=rf"^config file {re.escape(str(config))}: "
                                             "Expecting property name"):
            cli.resolve_config(self.train_args(config))

    def test_undecodable_config_file_is_named(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"seed": 1}\n\xff')
        with pytest.raises(ValueError, match=rf"^config file {re.escape(str(config))}: "
                                             "'utf-8' codec can't decode byte 0xff"):
            cli.resolve_config(self.train_args(config))

    def test_loss_reduction_is_neither_a_flag_nor_a_config_key(self, tmp_path, capsys):
        # the loss is a sum over the labeled nodes; nothing selects another reduction
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"loss_reduction": "sum"}))
        with pytest.raises(ValueError,
                           match=r"^config file has unknown keys: \['loss_reduction'\]$"):
            cli.resolve_config(self.train_args(config))
        assert cli_run(["train", "--data", "d", "--out", str(tmp_path / "o"),
                        "--loss-reduction", "sum"]) == 2
        assert "unrecognized arguments: --loss-reduction" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, data_dir, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"learning_rat": 0.1}))
        rc = cli_run(["train", "--data", str(data_dir), "--out", str(tmp_path / "x"),
                      "--config", str(config)])
        assert rc == 1
        assert "learning_rat" in capsys.readouterr().err


NUMPY_MA_PROBE = """
import sys
import numpy
if "numpy.ma" in sys.modules:
    sys.exit("bare")
from angcn import cli, training
training.fold_workers = lambda folds: 1   # the folds train here, so their imports show
data, out = sys.argv[1:]
sweep = ["--folds", "3", "--epochs", "3", "--patience", "3", "--hidden", "8"]
fast = sweep + ["--layers", "2"]   # sweep-depth sets the depth itself
for argv in (["train", "--data", data, "--out", out + "/full", *fast],
             ["train", "--data", data, "--out", out + "/sampled", *fast,
              "--batch-budget", "24", "--sampler-runs", "10"],
             ["eval", "--checkpoint", out + "/full/checkpoint_fold0.json", "--data", data,
              "--out", out + "/eval.json"],
             ["sweep-depth", "--data", data, "--out", out + "/depth.csv", "--depths", "2",
              *sweep]):
    assert cli.cli_run(argv) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[:2] == ["numpy", "ma"]))
"""


def test_no_command_imports_numpy_ma(data_dir, tmp_path):
    # numpy.ma costs ~5 ms and ~1 MB at import; in numpy 2.4 plain np.unique,
    # np.setdiff1d, np.intersect1d and a float np.median import it
    src = str(Path(cli.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", NUMPY_MA_PROBE, str(data_dir), str(tmp_path)],
                            capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src})
    if result.stderr.strip() == "bare":
        pytest.skip("importing numpy alone loads numpy.ma")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


class TestFullPipelineDemo:
    def test_demo_runs_every_stage_on_the_graph_it_writes(self, tmp_path, monkeypatch, capsys):
        script = Path(__file__).resolve().parents[1] / "scripts" / "full_pipeline_demo.py"
        monkeypatch.setattr(sys, "argv", [str(script), str(tmp_path)])
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_path(str(script), run_name="__main__")
        assert exit_info.value.code == 0
        written = ["adjacency.csv", "stats.json", "eval_report.json", "train/metrics.json",
                   "train/history.csv", "train/roc.csv", "train/pr.csv",
                   *(f"bundle/{name}" for name in ("features.csv", "phenotypes.csv",
                                                   "phenotypes.schema.json", "labels.csv")),
                   *(f"train/checkpoint_fold{k}.json" for k in range(10))]
        for name in written:
            assert (tmp_path / name).is_file(), name
        # sample-stats reads back the graph file that build-graph wrote
        assert (f"$ angcn sample-stats --data {tmp_path / 'bundle'} "
                f"--adjacency {tmp_path / 'adjacency.csv'} ") in capsys.readouterr().out


def test_readme_names_every_long_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (commands,) = [a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    options = {opt for p in commands.choices.values() for a in p._actions
               for opt in a.option_strings if opt.startswith("--") and opt != "--help"}
    unnamed = [o for o in options if not re.search(rf"{re.escape(o)}(?![\w-])", readme)]
    assert sorted(unnamed) == []


@pytest.fixture(scope="module")
def paper_bundle(tmp_path_factory):
    """The n = 300 seed-0 bundle, whose graph OpenBLAS builds with other last
    bits at two threads than at one."""
    d = tmp_path_factory.mktemp("paper-bundle")
    assert cli_run(["synth", "--out", str(d), "--n-subjects", "300", "--seed", "0"]) == 0
    return d


class TestBlasThreadCount:
    """Every command holds OpenBLAS at one thread, so its outputs are the same
    bytes whatever OPENBLAS_NUM_THREADS says."""

    TRAIN = ["--folds", "2", "--epochs", "3", "--patience", "3", "--layers", "2",
             "--hidden", "16"]

    @staticmethod
    def run_at(threads, cwd, argv):
        """(stdout, {relative path: bytes} of every file under cwd) of one
        `python -m angcn` run in cwd at OPENBLAS_NUM_THREADS=threads."""
        cwd.mkdir(parents=True)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": str(threads)}
        result = subprocess.run([sys.executable, "-m", "angcn", *argv], cwd=cwd, env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        return result.stdout, {p.relative_to(cwd).as_posix(): p.read_bytes()
                               for p in sorted(cwd.rglob("*")) if p.is_file()}

    def assert_same_at_one_and_two_threads(self, tmp_path, argv):
        (out1, files1), (out2, files2) = (self.run_at(t, tmp_path / f"threads{t}", argv)
                                          for t in (1, 2))
        assert out1 == out2
        assert sorted(files1) == sorted(files2)
        assert [name for name in files1 if files1[name] != files2[name]] == []
        return files1

    def test_train_writes_the_same_bytes_at_one_and_two_threads(self, paper_bundle, tmp_path):
        files = self.assert_same_at_one_and_two_threads(
            tmp_path, ["train", "--data", str(paper_bundle), "--out", "run", *self.TRAIN])
        assert "run/checkpoint_fold0.json" in files

    def test_eval_writes_the_same_bytes_at_one_and_two_threads(self, paper_bundle, tmp_path):
        run = tmp_path / "run"
        assert cli_run(["train", "--data", str(paper_bundle), "--out", str(run), *self.TRAIN]) == 0
        files = self.assert_same_at_one_and_two_threads(
            tmp_path, ["eval", "--checkpoint", str(run / "checkpoint_fold0.json"),
                       "--data", str(paper_bundle), "--out", "eval.json"])
        assert json.loads(files["eval.json"])["fold"] == 0

    @pytest.mark.skipif(training._blas_thread_api() is None,
                        reason="no OpenBLAS thread-count symbols to read")
    def test_a_command_runs_at_one_thread_and_gives_the_count_back(self, monkeypatch):
        get_threads = training._blas_thread_api()[0]
        seen = []

        def check(*args, **kwargs):
            seen.append(get_threads())
            if len(seen) == 2:
                raise ValueError("planted")
            return 0.0

        monkeypatch.setattr(cli, "finite_difference_check", check)
        with blas_threads(2):
            threads = get_threads()
            if threads < 2:
                pytest.skip("OpenBLAS runs one thread here, so a lost restore would not show")
            assert cli_run(["gradcheck"]) == 0
            assert get_threads() == threads
            assert cli_run(["gradcheck"]) == 1   # on error too
            assert get_threads() == threads
        assert seen == [1, 1]
