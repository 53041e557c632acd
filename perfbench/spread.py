"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--json FILE]

Each seed is one untraced `perfbench/run.py` run in a fresh process, with
the `run_seconds` of BENCHMARK.json. For every metric this prints the median,
the quartiles as `statistics.quantiles(values, n=4)` gives them, and the
distance between the quartiles as a share of the median: the spread that
BENCHMARK.json's bounds are checked against. `--json` also writes the
per-seed values.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    run_s = []
    for seed in args.seeds:
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=200)
        run_s.append(time.monotonic() - started)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: FAILED (exit {proc.returncode})\n{proc.stdout}{proc.stderr}",
                  file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: {run_s[-1]:.1f} s, {result['attempted']} commands", flush=True)

    summary = {name: summarise(v) for name, v in values.items()}
    for name, s in summary.items():
        bound = bounds.get(name)
        limit = f" (bound {bound})" if bound is not None else ""
        print(f"{name:32s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"spread {s['spread']:.3f}{limit}")
    print(f"run time: median {statistics.median(run_s):.1f} s, max {max(run_s):.1f} s")
    if args.json is not None:
        args.json.write_text(json.dumps(
            {"workload": args.workload, "seeds": args.seeds,
             "run_s": run_s, "values": values, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
