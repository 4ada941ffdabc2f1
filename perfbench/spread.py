#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py [--workloads fft-bound,served-mix]
        [--seeds 1-10] [--seconds S] [--sets 1|2]

Runs perfbench/run.py once per (workload, seed), one run at a time, and
prints for every end-to-end metric in BENCHMARK.json its median and the
distance between its first and third quartiles (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound. With --sets 2
the seed list runs twice and the second median is compared with the
first. Exits non-zero when a spread (setup_s excepted) exceeds its bound,
a second median is worse than the first by more than the bound, or a run
fails. Raw values are kept in .bench_build/spread.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        return None
    return json.loads(lines[-1])


def save(raw):
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    (ROOT / ".bench_build" / "spread.json").write_text(json.dumps(raw))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = ap.parse_args()

    ok = True
    raw = {}
    for workload in args.workloads.split(","):
        medians = []
        for s in range(args.sets):
            values = {m["name"]: [] for m in bench["end_to_end"]}
            for seed in seeds_of(args.seeds):
                res = run(workload, seed, args.seconds)
                if res is None or not res["correct"]:
                    print(f"{workload} seed {seed}: run failed")
                    ok = False
                    continue
                for name, v in values.items():
                    v.append(res["metrics"][name]["value"])
                raw[f"{workload}/set{s + 1}"] = values
                save(raw)
            medians.append({})
            print(f"{workload} set {s + 1} ({args.seconds} s runs):")
            for m in bench["end_to_end"]:
                v = values[m["name"]]
                if len(v) < 2:
                    continue
                med, iqr = spread(v)
                medians[-1][m["name"]] = med
                flag = ""
                if m["name"] != "setup_s" and iqr > m["bound"]:
                    flag, ok = "  OVER BOUND", False
                elif iqr > m["bound"] / 3:
                    flag = "  above bound/3"
                print(f"  {m['name']:18s} median {med:12.6g}  iqr/median "
                      f"{iqr:7.4f}  bound {m['bound']}{flag}")
        if len(medians) == 2:
            for m in bench["end_to_end"]:
                a = medians[0].get(m["name"])
                b = medians[1].get(m["name"])
                if not a or b is None:
                    continue
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                flag = ""
                if worse > m["bound"]:
                    flag, ok = "  WORSE THAN BOUND", False
                print(f"  {m['name']:18s} set2 vs set1 worse by "
                      f"{worse:+.4f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
