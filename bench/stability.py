"""Run each workload repeatedly and print each end-to-end metric's spread
next to its bound from BENCHMARK.json.

    python3 bench/stability.py [--runs 10] [--workload NAME ...]

The spread is (Q3 - Q1) / median over the runs, with the quartiles from
``statistics.quantiles(values, n=4)``; run k uses seed k.  A metric
is "steady" when its spread is below a third of its bound.  The share of
failed operations must be identical in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    # exit code 1 is a finished run whose outputs were wrong
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description="benchmark stability check")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args(argv)
    bounds = {m["name"]: (m["bound"], m["unit"]) for m in spec["end_to_end"]}
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in range(1, args.runs + 1):
            res = run_once(spec, workload, seed)
            results.append(res)
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{n}={res['metrics'][n]['value']:.5g}" for n in bounds), flush=True)
        shares = {(r["failed"], r["attempted"]) for r in results}
        same_share = len({f / a for f, a in shares}) == 1
        ok &= same_share and all(r["correct"] for r in results)
        print(f"== {workload}: failed/attempted {sorted(shares)} "
              f"{'identical share' if same_share else 'SHARE DIFFERS'}")
        for name, (bound, unit) in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            s = spread(values)
            verdict = "steady" if s < bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
            ok &= s <= bound
            print(f"   {name:16s} median {statistics.median(values):12.5g} {unit:3s} "
                  f"spread {s:7.2%}  bound {bound:.0%}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
