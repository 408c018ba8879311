"""Steadiness mode: repeat the end-to-end run over several seeds and summarise.

    python3 bench/steady.py --workloads wide-query,dense-ingest,dag-contract \
        --seeds 1-10 --seconds 30 --out bench/baseline.json

Each (workload, seed) pair is one ``run.py`` subprocess, run one after the
other. For every metric the summary gives the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the inter-quartile
distance as a share of the median. With ``--bounds BENCHMARK.json`` each
end-to-end spread is judged against its regression bound (steady below a
third of it), and a bound is suggested as three times the widest spread
seen, between 0.05 and 0.25. With ``--compare`` an earlier summary's
medians are compared against this one's.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from math import ceil
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    return result


def summarise(runs: list[dict]) -> dict[str, dict[str, float]]:
    stats = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        mid = median(values)
        q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
        stats[name] = {"median": mid, "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / mid if mid else 0.0,
                       "unit": runs[0]["metrics"][name]["unit"]}
    return stats


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--bounds", type=Path, help="BENCHMARK.json to judge spreads by")
    parser.add_argument("--compare", type=Path, help="an earlier --out summary")
    parser.add_argument("--out", type=Path, help="write the runs and summary as JSON")
    args = parser.parse_args(argv)

    bounds, higher = {}, set()
    if args.bounds:
        spec = json.loads(args.bounds.read_text(encoding="utf-8"))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        higher = {m["name"] for m in spec["end_to_end"] if m["better"] == "higher"}
    earlier = json.loads(args.compare.read_text(encoding="utf-8")) if args.compare else {}

    report = {"seconds": args.seconds, "workloads": {}}
    widest: dict[str, float] = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, args.seconds)
            print(f"  {workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
            ok &= result["correct"]
            runs.append(result)
        stats = summarise(runs)
        report["workloads"][workload] = {"runs": runs, "stats": stats}
        before = earlier.get("workloads", {}).get(workload, {}).get("stats", {})
        print(f"{workload}: {len(runs)} runs")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}  verdict")
        for name, s in stats.items():
            widest[name] = max(widest.get(name, 0.0), s["spread"])
            verdict = ""
            if name in bounds:
                verdict = ("steady" if s["spread"] < bounds[name] / 3 else
                           "within" if s["spread"] <= bounds[name] else "OVER")
                ok &= verdict != "OVER"
            if name in before and name in bounds:
                change = s["median"] / before[name]["median"] - 1
                worse = -change if name in higher else change
                verdict += f"  vs earlier {change:+.3f}" + (" WORSE" if worse > bounds[name] else "")
                ok &= worse <= bounds[name]
            print(f"  {name:34} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:7.3f}  {verdict}")
    print("suggested bounds (3 x widest spread, 0.05 to 0.25):")
    for name, spread in widest.items():
        print(f"  {name:34} {min(0.25, max(0.05, ceil(300 * spread) / 100)):.2f}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
