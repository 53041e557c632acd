"""Command-line driver.

Subcommands cover the whole pipeline: synthetic data generation, population
graph construction, sampler statistics, cross-validated training, checkpoint
evaluation, the depth and batch-size sweeps, and the gradient-check harness.

Configuration precedence for training options: command-line flag, then
--config file, then defaults. All outputs are deterministic for a fixed seed
and are written atomically.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import data as dataio
from .errors import SchemaMismatch
from .graph_core import Graph, normalize_adjacency
from .metrics import confusion, pr_curve, roc_curve, scalar_metrics
from .model import forward, init_params, predict
from .popgraph import PopulationGraphSpec, build_adjacency, rfe_ridge
from .sampler import AggregationStats, aggregation_matrix, presample
from .training import TrainConfig, cross_validate, finite_difference_check

GRADCHECK_TOLERANCE = 1e-4
DEFAULT_DEPTHS = (2, 4, 8, 12, 16, 20, 24, 30)
DEFAULT_BUDGETS = (50, 100, 200, 500, 1000)
# Sweeps compare model variants at matched training budgets; the deep stacks
# need far more epochs than the shallow ones to converge, so early stopping
# is disabled there by default.
SWEEP_EPOCHS = 300


def main() -> None:
    sys.exit(cli_run(sys.argv[1:]))


def cli_run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _int_list(text: str) -> list[int]:
    """argparse type of a non-empty comma list of integers such as "2,4,8"."""
    try:
        values = [int(item) for item in text.split(",") if item]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"not a non-empty comma list of integers: {text!r}")
    return values


def _number(kind: type, low: int, why: str = ""):
    """argparse type of an integer >= low (kind int: a seed or a column count)
    or a finite number > low (kind float: a gradient-check step, or a kernel
    width, checked here because a graph read from --adjacency never uses it,
    yet its checkpoints record it); `why` follows the refusal."""
    rule = f"an integer >= {low}" if kind is int else f"a finite number > {low}"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not (value >= low if kind is int else low < value < math.inf):
            raise argparse.ArgumentTypeError(f"not {rule}: {text!r}{why}")
        return value

    return parse


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="JSON file with TrainConfig fields")
    p.add_argument("--lr", dest="learning_rate", metavar="LR", type=float, default=None,
                   help="learning rate")
    p.add_argument("--epochs", dest="max_epochs", metavar="EPOCHS", type=int, default=None,
                   help="max training epochs")
    p.add_argument("--patience", type=int, default=None, help="early-stopping patience")
    p.add_argument("--folds", type=int, default=None, help="cross-validation folds")
    p.add_argument("--alpha", type=float, default=None, help="skip-connection weight")
    p.add_argument("--beta", type=float, default=None, help="identity-mapping weight")
    p.add_argument("--layers", type=int, default=None, help="number of hidden layers")
    p.add_argument("--hidden", dest="hidden_dim", metavar="HIDDEN", type=int, default=None,
                   help="hidden width")
    p.add_argument("--seed", type=int, default=None, help="master seed")
    p.add_argument("--batch-budget", type=int, default=None,
                   help="nodes per sampled minibatch (omit for full-batch)")
    p.add_argument("--sampler-runs", type=int, default=None,
                   help="pre-training sampler runs used to build the aggregation matrix")
    p.add_argument("--loss-reduction", choices=["sum", "mean"], default=None)
    p.add_argument("--sigma", type=_number(float, 0), default=None,
                   help="kernel width for graph construction (default: median heuristic)")
    p.add_argument("--rfe-dim", type=_number(int, 3, " (correlation distances need >= 3 columns)"),
                   default=None, help="reduce features to this many columns with ridge-RFE first")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="angcn")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset bundle")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--n-subjects", type=int, default=300)
    p.add_argument("--n-roi", type=int, default=16)
    p.add_argument("--class-separation", type=float, default=2.0)
    p.add_argument("--phenotype-informativeness", type=float, default=0.1)
    p.add_argument("--seed", type=_number(int, 0), default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("build-graph", help="build the population adjacency file")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--sigma", type=_number(float, 0), default=None)
    p.set_defaults(func=_cmd_build_graph)

    p = sub.add_parser("sample-stats", help="run the sampler and export count statistics")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--adjacency", type=Path, default=None)
    p.add_argument("--runs", type=int, default=200)
    p.add_argument("--budget", type=int, default=None, help="default: half the nodes")
    p.add_argument("--seed", type=_number(int, 0), default=0)
    p.add_argument("--sigma", type=_number(float, 0), default=None)
    p.set_defaults(func=_cmd_sample_stats)

    p = sub.add_parser("train", help="cross-validated training with full reporting")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--adjacency", type=Path, default=None)
    _add_train_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint against a dataset")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--adjacency", type=Path, default=None,
                   help="the adjacency file the checkpoint was trained on")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep-depth", help="accuracy vs depth for both model variants")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--depths", type=_int_list, default=list(DEFAULT_DEPTHS))
    _add_train_flags(p)
    p.set_defaults(func=_cmd_sweep_depth)

    p = sub.add_parser("sweep-batch", help="accuracy vs sampled batch budget")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--budgets", type=_int_list, default=None,
                   help="comma list; default 50,100,200,500,1000 capped at n")
    _add_train_flags(p)
    p.set_defaults(func=_cmd_sweep_batch)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--seed", type=_number(int, 0), default=7)
    p.add_argument("--eps", type=_number(float, 0), default=1e-5)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def resolve_config(args, defaults: TrainConfig | None = None) -> TrainConfig:
    """flag > config file > defaults."""
    values = asdict(defaults if defaults is not None else TrainConfig())
    if getattr(args, "config", None):
        try:
            file_values = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"config file {args.config}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ValueError(f"config file {args.config}: not a JSON object")
        known = {f.name for f in fields(TrainConfig)}
        unknown = set(file_values) - known
        if unknown:
            raise ValueError(f"config file has unknown keys: {sorted(unknown)}")
        values.update(file_values)
    for f in fields(TrainConfig):  # every train flag's dest is its field's name
        v = getattr(args, f.name, None)
        if v is not None:
            values[f.name] = v
    return TrainConfig(**values)


def _load_features(args) -> tuple[dataio.DatasetBundle, np.ndarray, np.ndarray | None]:
    """Load the bundle and apply optional ridge-RFE column selection; returns
    the bundle, the selected features and the kept columns (None for all)."""
    bundle = dataio.load_bundle(args.data)
    rfe_dim = getattr(args, "rfe_dim", None)
    if rfe_dim is None:
        return bundle, bundle.features, None
    pm1 = 2.0 * bundle.labels.astype(float) - 1.0
    keep = rfe_ridge(bundle.features, pm1, target_dim=rfe_dim)
    return bundle, bundle.features[:, keep], keep


def _graph_for(bundle, features, sigma, adjacency=None) -> tuple[Graph, float | None]:
    """The population graph and its sigma: for an adjacency file the sigma as
    given (None without it), else the graph built from the features at sigma
    or, for None, at the median heuristic, which is then returned."""
    if adjacency is not None:
        return dataio.load_adjacency(adjacency, n=features.shape[0]), sigma
    spec = PopulationGraphSpec(features=features, measures=bundle.phenotypes, sigma=sigma)
    return build_adjacency(spec), spec.sigma


def _stats_for(config: TrainConfig, g: Graph) -> AggregationStats | None:
    """Sampler statistics at the batch budget, or None in full batch, whose
    aggregation is never restricted to a subgraph (unit gamma)."""
    if config.full_batch(g.n):
        return None
    return presample(g.n, config.sampler_runs, config.batch_budget, config.seed)


def _fold_metrics(y_true: np.ndarray, probs: np.ndarray) -> dict:
    scores = probs[:, 1]
    y_pred = probs.argmax(axis=1)
    m = scalar_metrics(confusion(y_true, y_pred))
    out = {k: m[k] for k in ("accuracy", "recall", "precision", "f1", "mcc", "kappa")}
    out["auc"] = roc_curve(scores, y_true).area
    out["degenerate"] = list(m["degenerate"])
    return out


def _aggregate(per_fold: list[dict]) -> dict:
    keys = ("accuracy", "auc", "f1", "recall", "precision", "kappa", "mcc")
    return {k: float(np.mean([fm[k] for fm in per_fold])) for k in keys}


def _write_curve(path: Path, curve) -> None:
    lines = [f"# kind={curve.kind} area={curve.area!r}", "x,y"]
    for x, y in curve.points:
        lines.append(f"{x!r},{y!r}")
    dataio._atomic_write(path, "\n".join(lines) + "\n")


def _cv_accuracy(config, g, stats, features, labels) -> float:
    results = cross_validate(config, g, stats, features, labels)
    return float(np.mean([np.mean(r.probs.argmax(axis=1) == labels[r.test_idx])
                          for r in results]))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_synth(args) -> int:
    spec = dataio.SyntheticSpec(
        n_subjects=args.n_subjects,
        n_roi=args.n_roi,
        class_separation=args.class_separation,
        phenotype_informativeness=args.phenotype_informativeness,
        seed=args.seed,
    )
    bundle = dataio.generate_synthetic(spec)
    dataio.save_bundle(bundle, args.out)
    print(f"wrote {args.out}/features.csv ({bundle.features.shape[0]} subjects, "
          f"{bundle.features.shape[1]} features)")
    return 0


def _cmd_build_graph(args) -> int:
    bundle, features, _ = _load_features(args)
    g, sigma = _graph_for(bundle, features, args.sigma)
    dataio.save_adjacency(g, args.out)
    print(f"wrote {args.out} ({len(g.edges)} edges, sigma={sigma:.6g})")
    return 0


def _cmd_sample_stats(args) -> int:
    bundle, features, _ = _load_features(args)
    g, _ = _graph_for(bundle, features, args.sigma, args.adjacency)
    budget = args.budget if args.budget is not None else -(-g.n // 2)
    stats = presample(g.n, runs=args.runs, budget=budget, seed=args.seed)
    dataio._atomic_write(Path(args.out), stats.to_json(g) + "\n")
    print(f"wrote {args.out} (runs={stats.runs}, budget={budget})")
    return 0


def _cmd_train(args) -> int:
    config = resolve_config(args)
    bundle, features, columns = _load_features(args)
    g, sigma = _graph_for(bundle, features, args.sigma, args.adjacency)
    results = cross_validate(config, g, _stats_for(config, g), features, bundle.labels)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    per_fold = []
    pooled_true, pooled_scores = [], []
    history_lines = ["fold,epoch,train_loss,val_loss"]
    digest = dataio.graph_digest(g)
    for r in results:
        y_true = bundle.labels[r.test_idx]
        fm = _fold_metrics(y_true, r.probs)
        fm["fold"] = r.fold
        per_fold.append(fm)
        pooled_true.extend(int(v) for v in y_true)
        pooled_scores.extend(float(s) for s in r.probs[:, 1])
        for epoch, tr, vl in r.history:
            history_lines.append(f"{r.fold},{epoch},{tr!r},{vl!r}")
        dataio.save_checkpoint(out / f"checkpoint_fold{r.fold}.json", dataio.Checkpoint(
            r.params, config, r.fold, sigma, digest, r.test_idx, columns))

    report = {"aggregate": _aggregate(per_fold), "folds": per_fold}
    dataio._atomic_write(out / "metrics.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
    dataio._atomic_write(out / "history.csv", "\n".join(history_lines) + "\n")
    pooled_true = np.array(pooled_true)
    pooled_scores = np.array(pooled_scores)
    _write_curve(out / "roc.csv", roc_curve(pooled_scores, pooled_true))
    _write_curve(out / "pr.csv", pr_curve(pooled_scores, pooled_true))
    print(f"wrote {out}/metrics.json "
          f"(mean accuracy {report['aggregate']['accuracy']:.4f}, "
          f"mean auc {report['aggregate']['auc']:.4f})")
    return 0


def _cmd_eval(args) -> int:
    ckpt = dataio.load_checkpoint(args.checkpoint)
    bundle = dataio.load_bundle(args.data)
    features = bundle.features
    for key, index, size, what in (("test_idx", ckpt.test_idx, len(features), "subjects"),
                                   ("feature_columns", ckpt.feature_columns,
                                    features.shape[1], "feature columns")):
        if index is not None and index.max() >= size:  # the loader refuses an empty index
            raise SchemaMismatch(f"{args.checkpoint}: {key} holds {index.max()}, "
                                 f"but {args.data} has {size} {what}")
    if ckpt.feature_columns is not None:
        features = features[:, ckpt.feature_columns]
    g, _ = _graph_for(bundle, features, ckpt.sigma, args.adjacency)
    digest = dataio.graph_digest(g)
    if digest != ckpt.graph_digest:
        source = args.adjacency or f"the graph rebuilt from {args.data}"
        raise ValueError(
            f"graph digest {digest[:12]} of {source} does not "
            f"match the checkpoint's training graph digest {ckpt.graph_digest[:12]}"
        )
    # gamma only debiases subgraph-restricted training: score with unit aggregation
    a_hat = normalize_adjacency(g)
    probs = predict(forward(ckpt.params, a_hat, features).logits)
    test = ckpt.test_idx
    report = {**_fold_metrics(bundle.labels[test], probs[test]), "fold": ckpt.fold,
              "all_subjects": _fold_metrics(bundle.labels, probs)}
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out is not None:
        dataio._atomic_write(Path(args.out), text)
    print(text, end="")
    return 0


def _sweep_setup(args, field: str, values: list[int] | None):
    """The sweep's config, bundle, features and graph; each swept value of the
    TrainConfig `field` is checked before any data is read."""
    sweep_defaults = TrainConfig(max_epochs=SWEEP_EPOCHS, patience=SWEEP_EPOCHS)
    config = resolve_config(args, defaults=sweep_defaults)
    for value in values or ():
        replace(config, **{field: value})
    bundle, features, _ = _load_features(args)
    g, _ = _graph_for(bundle, features, args.sigma)
    return config, bundle, features, g


def _cmd_sweep_depth(args) -> int:
    config, bundle, features, g = _sweep_setup(args, "layers", args.depths)
    stats_an = _stats_for(config, g)
    lines = ["depth,angcn_accuracy,gcn_accuracy"]
    for depth in args.depths:
        an_cfg = replace(config, layers=depth)
        gcn_cfg = replace(config, layers=depth, alpha=0.0, beta=0.0)
        acc_an = _cv_accuracy(an_cfg, g, stats_an, features, bundle.labels)
        acc_gcn = _cv_accuracy(gcn_cfg, g, None, features, bundle.labels)
        lines.append(f"{depth},{acc_an!r},{acc_gcn!r}")
        print(f"depth {depth}: angcn {acc_an:.4f}, gcn {acc_gcn:.4f}")
    dataio._atomic_write(Path(args.out), "\n".join(lines) + "\n")
    return 0


def _cmd_sweep_batch(args) -> int:
    config, bundle, features, g = _sweep_setup(args, "batch_budget", args.budgets)
    budgets = [*DEFAULT_BUDGETS, g.n] if args.budgets is None else args.budgets
    # budgets above the graph size collapse to the full node set
    budgets = sorted({min(b, g.n) for b in budgets})
    lines = [
        f"# budgets capped at n_subjects={g.n}; larger requested values collapse to n",
        "budget,accuracy",
    ]
    for budget in budgets:
        cfg = replace(config, batch_budget=budget)
        acc = _cv_accuracy(cfg, g, _stats_for(cfg, g), features, bundle.labels)
        lines.append(f"{budget},{acc!r}")
        print(f"budget {budget}: accuracy {acc:.4f}")
    dataio._atomic_write(Path(args.out), "\n".join(lines) + "\n")
    return 0


def gradcheck_fixture(seed: int):
    """The canonical small model used by the gradient-check command:
    8 nodes, 5 input features, hidden width 4, 2 classes, 3 layers."""
    rng = np.random.default_rng(seed)
    n, f_in, f_hidden, n_classes, n_layers = 8, 5, 4, 2, 3
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < 0.45:
                edges.append((i, j, float(rng.uniform(0.5, 1.5))))
    g = Graph(n=n, edges=tuple(edges))
    a_hat = normalize_adjacency(g)
    gamma = aggregation_matrix(presample(n, runs=50, budget=4, seed=seed))
    x_raw = rng.normal(size=(n, f_in))
    labels = rng.integers(0, n_classes, size=n)
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), labels] = 1.0
    labeled = np.arange(0, n, 2)
    params = init_params(f_in, f_hidden, n_classes, n_layers, alpha=0.1, beta=0.3, rng=rng)
    return params, a_hat * gamma, x_raw, onehot, labeled


def _cmd_gradcheck(args) -> int:
    params, op, x_raw, onehot, labeled = gradcheck_fixture(args.seed)
    start = time.perf_counter()
    err = finite_difference_check(params, op, x_raw, onehot, labeled, eps=args.eps)
    elapsed = time.perf_counter() - start
    print(f"max relative gradient error: {err:.3e} ({elapsed:.2f}s)")
    return 0 if err < GRADCHECK_TOLERANCE else 1
