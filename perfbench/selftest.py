#!/usr/bin/env python3
"""Self-test of the benchmark at its smoke size.

    python3 perfbench/selftest.py

Runs every workload (those of BENCHMARK.json, plus fft-bound) through
perfbench/run.py in both modes with tiny grids and checks the output
contract: the last line is one JSON object with exactly
correct/attempted/failed/metrics, every check passed, and the metrics are
exactly the end-to-end (--trace 0) or per-layer (--trace 1) list with
their units and finite values. It also checks that a copy holding only
BENCHMARK.json and perfbench/ fails without printing a result. Takes
about half a minute after the build; writes only under .bench_build/.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(root, workload, trace, seed=7, seconds=2):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=300)


def check_result(workload, trace, proc):
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n" + \
        proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, where
    assert res["correct"] is True and res["failed"] == 0, where
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1, where
    want = BENCH["per_layer" if trace else "end_to_end"]
    got = res["metrics"]
    assert set(got) == {m["name"] for m in want}, \
        f"{where}: metric names differ: {sorted(got)}"
    for m in want:
        v = got[m["name"]]
        assert v["unit"] == m["unit"], f"{where}: unit of {m['name']}"
        assert math.isfinite(v["value"]), f"{where}: {m['name']} not finite"
        if not trace:
            assert v["value"] != 0, f"{where}: {m['name']} is 0"
    return got


def main():
    # fft-bound is not in BENCHMARK.json (README.md says why) but stays
    # runnable, so it is tested too.
    names = [w["name"] for w in BENCH["workloads"]]
    for w in names + [n for n in ("fft-bound",) if n not in names]:
        for trace in (0, 1):
            check_result(w, trace, run(ROOT, w, trace))
            print(f"ok  {w} --trace {trace}")

    # A second seed changes the inputs, not what the wire carries.
    a = check_result("exchange-bound", 0, run(ROOT, "exchange-bound", 0, 7))
    b = check_result("exchange-bound", 0, run(ROOT, "exchange-bound", 0, 8))
    assert a["wire_mb"]["value"] == b["wire_mb"]["value"]
    assert abs(a["rel_err"]["value"] / b["rel_err"]["value"] - 1) < 0.1
    print("ok  second seed: same wire bytes, same error scale")

    # Without the library sources next to it the benchmark must fail.
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "fft-bound", 0)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    assert proc.returncode != 0 and not last.startswith("{"), \
        "a bare copy must fail without a result"
    shutil.rmtree(bare)
    print("ok  bare copy fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
