#!/usr/bin/env python3
"""Build and run the two-clock benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload hot-small --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --check --workload all  # determinism self-test

Run from the repository root. The first call configures and builds the
benchmark and the repository libraries it links (CMake, Release) under
.bench_build/perfbench, or under $CARGO_TARGET_DIR/perfbench when that is
set; later calls only rebuild what changed. Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["hot-small", "bulk-handoff", "steer-tasks"]
# A run measures for --seconds and then reports; anything past this is a hang.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"repository sources not found under {ROOT}; run from a full checkout")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build failed: {error}")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(step)} exited {done.returncode}")
    return build_dir / "perfbench"


def git_revision():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30)
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src", "perfbench"],
                               cwd=ROOT, text=True, capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    if rev.returncode != 0:
        return "none"
    return rev.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")


def source_digest():
    """SHA-256 over the sources the benchmark builds: src/ and perfbench/."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_binary(binary, args):
    try:
        done = subprocess.run([str(binary)] + args, cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench {' '.join(args)} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode, done.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--check", action="store_true",
                        help="run the determinism self-test instead of measuring")
    args = parser.parse_args()

    binary = build()
    if args.check:
        code, _ = run_binary(binary, ["--check", "--workload", args.workload,
                                      "--seed", str(args.seed)])
        sys.exit(code)

    common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--git-rev", git_revision(),
              "--source-digest", source_digest()]
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        code, out = run_binary(binary, ["--workload", workload] + common)
        if code != 0:
            fail(f"{workload} exited {code}")
        results[workload] = json.loads(out.strip().splitlines()[-1])
    if len(workloads) > 1:
        # One summary line over every workload, metrics keyed workload/metric.
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": metric for w, r in results.items()
                        for name, metric in r["metrics"].items()},
        }))


if __name__ == "__main__":
    main()
