"""Run every workload under several seeds and report each metric's spread.

    python3 benchmark/steadiness.py --seeds 1-10 [--out benchmark/baseline.json]

For each end-to-end metric and workload this prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(third minus first quartile, as a share of the median) next to the bound
in BENCHMARK.json.  Workloads run one after another, each run in its own
process, exactly as ``BENCHMARK.json``'s command does.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False,
                          cwd=HERE.parent)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed (exit {proc.returncode}):\n"
                         f"{proc.stderr}")
    return {"seed": seed, "wall_s": wall, **json.loads(lines[-1])}


def summarize(runs: list[dict]) -> dict:
    out = {}
    for metric in SPEC["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[metric["name"]] = {"unit": metric["unit"], "median": median, "q1": q1,
                               "q3": q3, "spread": (q3 - q1) / median,
                               "bound": metric["bound"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seeds = seed_range(args.seeds)
    report = {"host": platform.platform(), "python": platform.python_version(),
              "run_seconds": SPEC["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [run_once(workload, seed) for seed in seeds]
        summary = summarize(runs)
        report["workloads"][workload] = {
            "wall_s_max": max(r["wall_s"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": summary,
            "runs": [{"seed": r["seed"], **{k: v["value"] for k, v in r["metrics"].items()}}
                     for r in runs],
        }
        print(f"{workload}: {len(runs)} runs, longest {max(r['wall_s'] for r in runs):.1f} s")
        for name, m in summary.items():
            mark = "ok" if m["spread"] < m["bound"] / 3 else (
                "within bound" if m["spread"] <= m["bound"] else "OVER BOUND")
            print(f"  {name:16} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} "
                  f"q3 {m['q3']:<12.6g} spread {m['spread']:.4f} "
                  f"(bound {m['bound']}) {mark}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
