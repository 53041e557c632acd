import hashlib
import json
from dataclasses import fields

import numpy as np
import pytest

from angcn import cli, popgraph, training
from angcn.cli import cli_run
from angcn.data import graph_digest, load_adjacency, load_bundle
from angcn.training import TrainConfig

SMALL = ["--n-subjects", "48", "--n-roi", "6", "--seed", "5"]
FAST_TRAIN = [
    "--folds", "3", "--epochs", "25", "--patience", "25",
    "--layers", "2", "--hidden", "12", "--seed", "2",
]


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


class TestBuildGraph:
    def test_adjacency_file_properties(self, data_dir, tmp_path):
        out = tmp_path / "adjacency.csv"
        assert cli_run(["build-graph", "--data", str(data_dir), "--out", str(out)]) == 0
        g = load_adjacency(out, n=48)
        a = g.adjacency()
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0.0)
        assert a.min() >= 0.0
        for i, j, w in g.edges:
            assert i < j and w > 0

    @pytest.mark.parametrize("flags, file_sha, digest", [
        ([], "2b54f19dccbfbef1d03215697e9d714337060e7bf7975ee2743c200914813e36",
         "22ca01fbd8825a8c7847ca520be1cd924211d70235da71818b545ee2d224f417"),
        (["--sigma", "0.05"], "167b4bb87b2fe5a64eccbe14e67cd0ffe8aaea332338a5a9cc8b4f3729473553",
         "f45b97d6288b046af1a1f044a8db99233ac02c7e4806c480a1765c63f64dfd57"),
    ])
    def test_adjacency_bytes_are_pinned(self, data_dir, tmp_path, capsys, flags, file_sha,
                                        digest):
        out = tmp_path / "adjacency.csv"
        capsys.readouterr()
        assert cli_run(["build-graph", "--data", str(data_dir), "--out", str(out)] + flags) == 0
        assert capsys.readouterr().out.endswith(" (458 edges, sigma=%s)\n"
                                                % ("0.794666" if not flags else "0.05"))
        assert hashlib.sha256(out.read_bytes()).hexdigest() == file_sha
        assert graph_digest(load_adjacency(out, n=48)) == digest

    def test_median_sigma_is_pinned(self, data_dir, train_dir):
        bundle = load_bundle(data_dir)
        spec = popgraph.PopulationGraphSpec(features=bundle.features, measures=bundle.phenotypes)
        assert repr(spec.sigma) == "0.7946659174222371"
        payload = json.loads((train_dir / "checkpoint_fold0.json").read_text())
        assert repr(payload["config"]["sigma_resolved"]) == "0.7946659174222371"
        assert payload["graph_digest"] == (
            "22ca01fbd8825a8c7847ca520be1cd924211d70235da71818b545ee2d224f417")

    def test_distances_computed_at_most_once(self, data_dir, tmp_path, monkeypatch):
        adj = tmp_path / "adjacency.csv"
        assert cli_run(["build-graph", "--data", str(data_dir), "--out", str(adj)]) == 0
        calls = []
        distances = popgraph._correlation_distances

        def counted(features):
            calls.append(features.shape)
            return distances(features)

        monkeypatch.setattr(popgraph, "_correlation_distances", counted)
        quick = FAST_TRAIN + ["--folds", "2", "--epochs", "2"]
        assert cli_run(["train", "--data", str(data_dir), "--out", str(tmp_path / "a")]
                       + quick) == 0
        assert calls == [(48, 15)]
        assert cli_run(["train", "--data", str(data_dir), "--adjacency", str(adj),
                        "--out", str(tmp_path / "b")] + quick) == 0
        assert calls == [(48, 15)]

    @pytest.mark.parametrize("sigma", ["-1", "0", "nan", "inf"])
    def test_bad_sigma_is_a_usage_error(self, data_dir, tmp_path, capsys, sigma):
        # with --adjacency the sigma builds nothing, yet the checkpoint records it
        adj = tmp_path / "adjacency.csv"
        assert cli_run(["build-graph", "--data", str(data_dir), "--out", str(adj)]) == 0
        for argv in (["build-graph", "--data", str(data_dir), "--out", str(adj)],
                     ["train", "--data", str(data_dir), "--adjacency", str(adj),
                      "--out", str(tmp_path / "run")] + FAST_TRAIN):
            capsys.readouterr()
            assert cli_run(argv + [f"--sigma={sigma}"]) == 2
            assert "argument --sigma" in capsys.readouterr().err

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

    def test_graph_mismatch_names_the_digest(self, data_dir, tmp_path, capsys):
        for sigma, want in ((None, 0), ("0.05", 1)):
            adj = tmp_path / f"adjacency_{sigma}.csv"
            flags = [] if sigma is None else ["--sigma", sigma]
            assert cli_run(["build-graph", "--data", str(data_dir), "--out", str(adj)]
                           + flags) == 0
            run = tmp_path / f"run_{sigma}"
            rc = cli_run(["train", "--data", str(data_dir), "--adjacency", str(adj),
                          "--out", str(run)] + FAST_TRAIN)
            assert rc == 0
            capsys.readouterr()
            rc = cli_run(["eval", "--checkpoint", str(run / "checkpoint_fold0.json"),
                          "--data", str(data_dir)])
            assert rc == want
            if want:
                assert "graph digest" in capsys.readouterr().err

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
        assert "graph digest" in capsys.readouterr().err
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
                      "--data", str(data_dir), "--out", str(report)])
        assert rc == 0
        body = json.loads(report.read_text())
        assert {key: body[key] for key in fold} == fold


class TestSweeps:
    def test_sweep_depth_csv(self, data_dir, tmp_path):
        out = tmp_path / "depth.csv"
        rc = cli_run(
            ["sweep-depth", "--data", str(data_dir), "--out", str(out),
             "--depths", "1,2"] + FAST_TRAIN
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


class TestFoldWorkerCount:
    """Every CLI path that trains writes the same bytes whether its folds
    train in this process or in two forked workers."""

    @staticmethod
    def digests(path):
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}

    @pytest.mark.parametrize("command, extra", [
        ("train", []),
        ("train", ["--batch-budget", "24", "--sampler-runs", "40"]),
        ("train", ["--rfe-dim", "5"]),
        ("sweep-depth", ["--depths", "2,3"]),
        ("sweep-batch", ["--budgets", "16,24", "--sampler-runs", "40"]),
    ])
    def test_one_and_two_workers_write_identical_files(self, data_dir, tmp_path, monkeypatch,
                                                       command, extra):
        seen = {}
        for workers in (1, 2):
            monkeypatch.setattr(training, "fold_workers", lambda folds, w=workers: w)
            out = tmp_path / f"workers{workers}" / ("run" if command == "train" else "out.csv")
            out.parent.mkdir()
            rc = cli_run([command, "--data", str(data_dir), "--out", str(out)]
                         + FAST_TRAIN + extra)
            assert rc == 0
            seen[workers] = self.digests(out)
        assert seen[1] == seen[2]
        assert len(seen[1]) == (3 + 4 if command == "train" else 1)   # 3 checkpoints + 4


class TestGradcheck:
    def test_exit_zero_under_tolerance(self, capsys):
        assert cli_run(["gradcheck", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "max relative gradient error" in out

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
    "loss_reduction": ("--loss-reduction", "mean", "sum"),
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

    def test_unknown_config_key_rejected(self, data_dir, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"learning_rat": 0.1}))
        rc = cli_run(["train", "--data", str(data_dir), "--out", str(tmp_path / "x"),
                      "--config", str(config)])
        assert rc == 1
        assert "learning_rat" in capsys.readouterr().err
