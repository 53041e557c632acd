"""End-to-end walkthrough of every pipeline stage on a small bundle:
generate data, build the population graph, export sampler statistics over
the graph file just written, run cross-validated training, and re-evaluate
a saved checkpoint.

Usage: python scripts/full_pipeline_demo.py [workdir]
"""

import sys
from pathlib import Path

from angcn.cli import cli_run


def main() -> int:
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("runs/demo")
    workdir.mkdir(parents=True, exist_ok=True)
    data = workdir / "bundle"
    run = workdir / "train"
    adjacency = workdir / "adjacency.csv"
    steps = [
        ["synth", "--out", str(data), "--n-subjects", "120", "--n-roi", "10",
         "--seed", "1"],
        ["build-graph", "--data", str(data), "--out", str(adjacency)],
        ["sample-stats", "--data", str(data), "--adjacency", str(adjacency),
         "--out", str(workdir / "stats.json"), "--runs", "200", "--seed", "1"],
        ["train", "--data", str(data), "--out", str(run),
         "--folds", "10", "--layers", "10", "--alpha", "0.1", "--beta", "0.3",
         "--lr", "1e-3", "--seed", "1"],
        ["eval", "--checkpoint", str(run / "checkpoint_fold0.json"),
         "--data", str(data), "--out", str(workdir / "eval_report.json")],
        ["gradcheck", "--seed", "7"],
    ]
    for argv in steps:
        print(f"\n$ angcn {' '.join(argv)}")
        rc = cli_run(argv)
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
