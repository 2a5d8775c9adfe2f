"""Steadiness self-check: do two sets of runs agree within the bounds?

Usage, from the root of a checkout:

    python3 perfbench/steady.py

It makes two sets of runs. Each set runs every workload of BENCHMARK.json
RUNS times, each run with its own seed (set s uses seeds 1000*s + 1 ...).
For every end-to-end metric and workload it reports the spread of a set,
the distance between the first and third quartiles as a share of the
median, and whether the second set's median is worse than the first's by
more than the metric's bound in BENCHMARK.json. A spread must stay within
the bound and should stay below a third of it. Runs go one at a time, so
nothing else competes.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10  # runs per workload and set
SETS = 2


def _run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["raw"] = json.loads(lines[-2])["raw"]
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is, as a share of the first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]

    results: dict = {}
    raw: dict = {}  # unscaled times, for comparison
    for s in range(SETS):
        for workload in names:
            for i in range(RUNS):
                seed = 1000 * s + i + 1
                out = _run(workload, seed, bench["run_seconds"])
                if not out["correct"] or out["failed"]:
                    print(f"# {workload} seed {seed}: correct={out['correct']} failed={out['failed']}")
                for name, metric in out["metrics"].items():
                    results.setdefault((workload, name), [[] for _ in range(SETS)])[s].append(metric["value"])
                for name, value in out["raw"].items():
                    raw.setdefault((workload, name), []).append(value)
                values = " ".join(f"{k}={v['value']:.4g}" for k, v in out["metrics"].items())
                print(f"# set {s + 1} {workload} seed {seed}: {values}", file=sys.stderr, flush=True)

    ok = True
    print(f"{'workload':12} {'metric':12} {'median':>12} {'spread':>7} {'raw':>6} {'bound':>6} {'worse':>7}  verdict")
    for workload in names:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = results[(workload, name)]
            spreads = [spread(v) for v in sets]
            medians = [statistics.median(v) for v in sets]
            worse = worse_by(medians[0], medians[1], metric["better"])
            fails = max(spreads) > bound or worse > bound
            verdict = "FAIL" if fails else ("ok" if max(spreads) < bound / 3 else "wide")
            ok &= not fails
            raw_spread = f"{spread(raw[(workload, name)]):6.3f}" if (workload, name) in raw else f"{'-':>6}"
            print(f"{workload:12} {name:12} {medians[0]:12.5g} {max(spreads):7.3f} {raw_spread} {bound:6.2f} "
                  f"{worse:7.3f}  {verdict}")
    print(json.dumps({"steady": ok, "runs": RUNS, "sets": SETS, "workloads": names}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
