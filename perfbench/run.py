"""angcn benchmark: CLI workloads timed end to end, plus a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The checkout's src/angcn is the program measured.
The seed generates the workload's synthetic bundle with `angcn synth`; the
measured command then receives only those files. Each measured command is a
fresh interpreter running perfbench/child.py, which calls the public entry
point `angcn.cli.cli_run` with the argv a user would type, using numpy's
default BLAS threads. Commands repeat while the next would still end within
`--seconds` (at least one runs); each metric is the median over them.

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
(from one traced command, next to one untraced command of the same inputs).
Every command's outputs are checked: they must exist and parse, test
probabilities must be finite, and the accuracy must equal, bit for bit, the
first accuracy this checkout measured for the same source, workload and
seed. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src" / "angcn"
WORK = ROOT / ".bench_work"
CHILD = BENCH / "child.py"

# A run must end within 180 s; no command may start past this point, and a
# command still running at it is killed and counted as failed.
RUN_DEADLINE_S = 165.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                    # angcn subcommand
    n_subjects: int
    folds: int
    epochs: int                     # --epochs and --patience alike: fixed work
    layers: int = 10
    batch_budget: int | None = None
    depths: str | None = None       # sweep-depth only

    def argv(self, data: Path, out: Path) -> list[str]:
        argv = [self.command, "--data", str(data), "--out", str(out),
                "--folds", str(self.folds), "--epochs", str(self.epochs),
                "--patience", str(self.epochs), "--hidden", "64"]
        if self.depths is not None:
            argv += ["--depths", self.depths]
        else:
            argv += ["--layers", str(self.layers)]
        if self.batch_budget is not None:
            argv += ["--batch-budget", str(self.batch_budget), "--sampler-runs", "200"]
        return argv

    def out_name(self) -> str:
        return "depth.csv" if self.command == "sweep-depth" else "run"

    def fold_epochs(self) -> int:
        """Fold-epochs every command trains: sweep-depth cross-validates two
        variants (normalized and plain) at each depth."""
        runs = 2 * len(self.depths.split(",")) if self.depths is not None else 1
        return runs * self.folds * self.epochs


# Why each workload exists is in perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("full-n300", "train", n_subjects=300, folds=10, epochs=30),
        Workload("sampled-n1000", "train", n_subjects=1000, folds=10, epochs=8,
                 batch_budget=100),
        Workload("depth-n300", "sweep-depth", n_subjects=300, folds=2, epochs=150,
                 depths="2,20"),
    )
}

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "epochs_per_s": "1/s",
    "peak_rss_mb": "MB", "accuracy": "fraction",
}


class CheckFailed(Exception):
    """A command's outputs are missing, malformed or not reproducible."""


# ---------------------------------------------------------------------------
# one command
# ---------------------------------------------------------------------------

def _env() -> dict:
    """The caller's environment, minus the seed override, with src importable."""
    env = {k: v for k, v in os.environ.items() if k != "ANGCN_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def invoke(workload: Workload, data: Path, out: Path, trace: int, timeout: float) -> dict:
    """Run one command in a fresh interpreter; return its checked report."""
    report_path = out.parent / f"{out.name}.report.json"
    cmd = [sys.executable, str(CHILD), "--report", str(report_path), "--trace", str(trace),
           "--", *workload.argv(data, out)]
    launched = time.monotonic()
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise CheckFailed(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
    report = json.loads(report_path.read_text())
    if report["cv_first_call"] is None:
        raise CheckFailed("cross_validate was never called")
    report["setup_s"] = report["cv_first_call"] - launched
    report["wall_s"] = report["end"] - launched
    report["accuracy"] = check_outputs(workload, out, report)
    return report


def _floats(cells: list[str]) -> list[float]:
    try:
        values = [float(c) for c in cells]
    except ValueError as exc:
        raise CheckFailed(str(exc)) from exc
    if not all(math.isfinite(v) for v in values):
        raise CheckFailed(f"non-finite value in {cells}")
    return values


def _csv_rows(path: Path, header: str, skip_comment: bool = False) -> list[list[str]]:
    if not path.is_file():
        raise CheckFailed(f"missing output {path.name}")
    lines = path.read_text().splitlines()
    if skip_comment:
        if not lines or not lines[0].startswith("# kind="):
            raise CheckFailed(f"{path.name}: missing '# kind=' line")
        lines = lines[1:]
    if not lines or lines[0] != header:
        raise CheckFailed(f"{path.name}: header is not {header!r}")
    return [line.split(",") for line in lines[1:]]


def _json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc


def check_outputs(workload: Workload, out: Path, report: dict) -> float:
    """Check the command's outputs and return its accuracy."""
    if not report["probs_finite"]:
        raise CheckFailed("non-finite test probabilities")
    if report["epochs"] != workload.fold_epochs():
        raise CheckFailed(f"trained {report['epochs']} fold-epochs, "
                          f"expected {workload.fold_epochs()}")
    if workload.command == "sweep-depth":
        rows = _csv_rows(out, "depth,angcn_accuracy,gcn_accuracy")
        table = {}
        for row in rows:
            if len(row) != 3:
                raise CheckFailed(f"depth.csv: bad row {row}")
            table[row[0]] = _floats(row[1:])
        depths = workload.depths.split(",")
        if sorted(table) != sorted(depths):
            raise CheckFailed(f"depth.csv has depths {sorted(table)}, expected {depths}")
        if not all(0.0 <= v <= 1.0 for accs in table.values() for v in accs):
            raise CheckFailed("depth.csv: accuracy outside [0, 1]")
        return table[depths[-1]][0]

    metrics = _json(out / "metrics.json")
    try:
        accuracy = float(metrics["aggregate"]["accuracy"])
        n_folds = len(metrics["folds"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailed(f"metrics.json: {exc!r}") from exc
    if n_folds != workload.folds or not 0.0 <= accuracy <= 1.0:
        raise CheckFailed(f"metrics.json: {n_folds} folds, accuracy {accuracy}")
    history = _csv_rows(out / "history.csv", "fold,epoch,train_loss,val_loss")
    per_fold = defaultdict(int)
    for row in history:
        per_fold[_floats(row)[0]] += 1
    if per_fold != {float(k): workload.epochs for k in range(workload.folds)}:
        raise CheckFailed(f"history.csv epochs per fold {dict(per_fold)}, "
                          f"expected {workload.epochs} for each of {workload.folds} folds")
    for curve in ("roc.csv", "pr.csv"):
        for row in _csv_rows(out / curve, "x,y", skip_comment=True):
            _floats(row)
    for fold in range(workload.folds):
        ckpt = _json(out / f"checkpoint_fold{fold}.json")
        if len(ckpt.get("layers", ())) != workload.layers:
            raise CheckFailed(f"checkpoint_fold{fold}.json: wrong layer count")
    return accuracy


def out_bytes(out: Path) -> int:
    if out.is_file():
        return out.stat().st_size
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

LAYER_UNITS = {
    "model.forward_s": "s", "model.forward_calls": "count",
    "model.forward_calls_per_epoch": "count", "model.forward_rows": "count",
    "training.backward_s": "s", "training.backward_calls": "count",
    "training.adam_step_s": "s", "training.epochs": "count",
    "training.train_self_s": "s",
    "graph_core.operator_builds": "count", "graph_core.operator_build_s": "s",
    "popgraph.auto_sigma_s": "s", "popgraph.build_adjacency_s": "s",
    "popgraph.pairs": "count", "popgraph.edges": "count",
    "sampler.presample_s": "s", "sampler.aggregation_matrix_s": "s",
    "sampler.ones_gamma_s": "s",
    "sampler.sample_s": "s", "sampler.sample_calls": "count",
    "sampler.useful_batch_ratio": "ratio",
    "data.load_bundle_s": "s", "data.save_checkpoint_s": "s", "data.out_bytes": "bytes",
    "metrics.s": "s", "cli.self_s": "s", "trace.overhead_s": "s",
}


def layer_metrics(traced: dict, untraced_wall_s: float, bytes_written: int) -> dict:
    """Derive per-layer figures from the traced command's spans.

    A span's self time is its duration minus its children's durations; a
    name that a refactor removed contributes nothing.
    """
    spans = traced["spans"]
    total = defaultdict(float)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    top_level_s = 0.0
    for k, (name, start, end, parent, _) in enumerate(spans):
        total[name] += end - start
        calls[name] += 1
        self_s[name] += end - start - child_s[k]
        if parent < 0:
            top_level_s += end - start

    epochs = traced["epochs"]
    forward = [s for s in spans if s[0] == "training.forward"]
    in_train = sum(1 for s in forward if s[3] >= 0 and spans[s[3]][0] == "training.train")
    graphs = [s[4] for s in spans if s[0] == "cli.build_adjacency" and s[4]]
    n, edges = graphs[0] if graphs else (0, 0)
    sampled = calls["training.sample_node_subgraph"]
    metrics = {
        "model.forward_s": total["training.forward"],
        "model.forward_calls": calls["training.forward"],
        "model.forward_calls_per_epoch": in_train / epochs if epochs else 0.0,
        "model.forward_rows": sum(s[4] or 0 for s in forward),
        "training.backward_s": total["training.backward"],
        "training.backward_calls": calls["training.backward"],
        "training.adam_step_s": total["training.adam_step"],
        "training.epochs": epochs,
        "training.train_self_s": self_s["training.train"],
        "graph_core.operator_builds": calls["training.normalize_adjacency"],
        "graph_core.operator_build_s": (total["training.add_self_loops"]
                                        + total["training.normalize_adjacency"]),
        "popgraph.auto_sigma_s": total["cli.auto_sigma"],
        "popgraph.build_adjacency_s": total["cli.build_adjacency"],
        "popgraph.pairs": n * (n - 1) // 2,
        "popgraph.edges": edges,
        "sampler.presample_s": total["cli.presample"],
        "sampler.aggregation_matrix_s": total["cli.aggregation_matrix"],
        "sampler.ones_gamma_s": total["cli.ones_gamma"],
        "sampler.sample_s": total["training.sample_node_subgraph"],
        "sampler.sample_calls": sampled,
        # batches that reached backward over batches sampled; 0 without sampling
        "sampler.useful_batch_ratio": calls["training.backward"] / sampled if sampled else 0.0,
        "data.load_bundle_s": total["data.load_bundle"],
        "data.save_checkpoint_s": total["data.save_checkpoint"],
        "data.out_bytes": bytes_written,
        "metrics.s": sum(total[f"cli.{f}"]
                         for f in ("confusion", "scalar_metrics", "roc_curve", "pr_curve")),
        "cli.self_s": traced["wall_s"] - top_level_s,
        "trace.overhead_s": traced["wall_s"] - untraced_wall_s,
    }
    return {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in metrics.items()}


# ---------------------------------------------------------------------------
# machine facts and reproducibility state
# ---------------------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        h.update(path.relative_to(SOURCE).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def machine_facts(seed: int, digest: str, blas_threads) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "blas": blas_name,
        "blas_threads": blas_threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": digest,
        "seed": seed,
    }


def first_accuracy(path: Path, key: str, accuracy: float) -> float:
    """The accuracy first recorded under `key` in `path` (recording it if new)."""
    state = json.loads(path.read_text()) if path.is_file() else {}
    if key not in state:
        state[key] = accuracy
        path.write_text(json.dumps(state, indent=1, sort_keys=True))
    return state[key]


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------

def run_workload(workload: Workload, seed: int, seconds: float, trace: int,
                 work: Path, log=print) -> dict:
    """Generate the bundle, run the commands, check them, and return the result."""
    started = time.monotonic()
    digest = source_digest()
    data = work / "data"
    synth = subprocess.run(
        [sys.executable, "-m", "angcn", "synth", "--out", str(data),
         "--n-subjects", str(workload.n_subjects), "--seed", str(seed)],
        env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=60)
    if synth.returncode != 0:
        raise RuntimeError(f"synth failed: {synth.stderr.strip()}")

    reports, failures = [], []
    numbers = itertools.count()

    def attempt(trace: int) -> dict | None:
        k = next(numbers)
        timeout = RUN_DEADLINE_S - (time.monotonic() - started)
        if timeout <= 0:
            failures.append("run deadline reached")
            return None
        out = work / f"out{k}" / workload.out_name()
        out.parent.mkdir(parents=True)
        try:
            report = invoke(workload, data, out, trace, timeout)
            key = f"{digest}:{seed}:{json.dumps(asdict(workload), sort_keys=True)}"
            first = first_accuracy(work.parent / "accuracy.json", key, report["accuracy"])
            if report["accuracy"] != first:
                raise CheckFailed(f"accuracy {report['accuracy']!r} != first run's {first!r}")
            report["out_bytes"] = out_bytes(out)
            return report
        except (CheckFailed, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
            failures.append(repr(exc))
            log(f"FAILED command {k} (trace {trace}): {exc}")
            return None

    if trace:
        reports = [r for r in (attempt(0), attempt(1)) if r is not None]
    else:
        # Commands repeat while the next would still end within `seconds`.
        while not failures:
            report = attempt(0)
            if report is None:
                break
            reports.append(report)
            mean_s = statistics.mean(r["wall_s"] for r in reports)
            if time.monotonic() - started + mean_s > seconds:
                break

    attempted = len(reports) + len(failures)
    facts = machine_facts(seed, digest, next((r["blas_threads"] for r in reports), None))
    log(f"machine {json.dumps(facts, sort_keys=True)}")
    log(f"workload {workload.name} seed {seed} trace {trace}: "
        f"{attempted} commands, argv {' '.join(workload.argv(Path('DATA'), Path('OUT')))}")
    log(f"fail_ratio {len(failures)}/{attempted} = {len(failures) / attempted:.3f}")

    metrics = {}
    if trace and len(reports) == 2:
        untraced, traced = reports
        metrics = layer_metrics(traced, untraced["wall_s"], traced["out_bytes"])
        absent = traced["absent"]
        log(f"absent traced names: {', '.join(absent) if absent else 'none'}")
    elif not trace and reports:
        for name in END_TO_END_UNITS:
            if name == "epochs_per_s":
                values = [r["epochs"] / r["cv_seconds"] for r in reports]
            elif name == "peak_rss_mb":
                values = [r["peak_rss_kb"] / 1024.0 for r in reports]
            else:
                values = [r[name] for r in reports]
            metrics[name] = {"value": statistics.median(values), "unit": END_TO_END_UNITS[name]}
            log(f"{name} {metrics[name]['value']:.6g} {END_TO_END_UNITS[name]} "
                f"(median of {len(values)}: {', '.join(f'{v:.6g}' for v in values)})")
    if trace:
        for name, m in metrics.items():
            log(f"{name} {m['value']:.6g} {m['unit']}")
    return {"correct": not failures and bool(metrics), "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "cli.py").is_file():
        print(f"error: {SOURCE} not found; run from the root of an angcn checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
