#!/usr/bin/env python3
"""Build lossyfft's benchmark from source and run one workload.

    python3 perfbench/run.py --workload fft-bound|exchange-bound|served-mix \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root. The first run configures and builds a
Release tree in .bench_build/ (later runs only rebuild what changed). The
benchmark's output passes through unchanged: its last line is one JSON
object with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). The exit code is non-zero when the build fails or any output
check fails. README.md in this directory describes the metrics.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ".bench_build"  # Relative to ROOT: daemon socket paths stay short.
WORKLOADS = ("fft-bound", "exchange-bound", "served-mix")
RUN_TIMEOUT_S = 170


def build() -> bool:
    """Configure (Release) and build the perfbench target; log to BUILD."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no lossyfft sources under {ROOT}", file=sys.stderr)
        return False
    build_dir = ROOT / BUILD
    build_dir.mkdir(exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", jobs],
    ]
    log_path = build_dir / "perfbench-build.log"
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, cwd=ROOT, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                print(f"perfbench: build failed (log: {log_path})",
                      file=sys.stderr)
                return False
    return True


def source_revision() -> str:
    """The git commit, or a digest of src/ when there is no repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny grids, for the benchmark's own tests")
    args = ap.parse_args()

    load = os.getloadavg()[0]
    if not build():
        return 1
    print(f"provenance: {{\"source\": \"{source_revision()}\", "
          f"\"loadavg_1m_before_build\": {load:.2f}}}", flush=True)

    cmd = [str(ROOT / BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--size", "smoke" if args.smoke else "full",
           "--work-dir", BUILD]
    if args.trace:
        (ROOT / BUILD / "traces").mkdir(exist_ok=True)
        cmd += ["--trace-file",
                f"{BUILD}/traces/{args.workload}-seed{args.seed}.json"]
    # No tune cache: a stale one from an earlier run must not steer plans.
    env = {k: v for k, v in os.environ.items() if k != "LOSSYFFT_TUNE_CACHE"}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    has_result = bool(lines) and lines[-1].startswith("{")
    if proc.returncode < 0 or not has_result:
        # A crash must leave nothing that could pass for a result line.
        if has_result:
            lines.pop()
        print("\n".join(lines))
        print(f"perfbench: benchmark exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
