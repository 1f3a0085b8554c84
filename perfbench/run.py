#!/usr/bin/env python3
"""Builds and runs the rfidsched benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first run configures and builds an
optimized copy of the library plus the benchmark driver under
$CARGO_TARGET_DIR (default .bench_build); later runs only rebuild what
changed.  Build output goes to stderr.  The driver's stdout is passed
through; its last line is the result object.  Before passing it on, the
result's metric names and units are checked against BENCHMARK.json.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("city_scale", "paper_sweep", "churn_stream", "service_mix")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """Git commit when available, else a hash of the benchmarked sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.isfile(cache):
        cfg = subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                              "-DCMAKE_BUILD_TYPE=Release"],
                             stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    out = subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                         stdout=sys.stderr, stderr=sys.stderr)
    if out.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "rfidsched_perfbench")


def check_names(result, spec, trace):
    want = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in want}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        fail(f"result metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, "
             f"unit mismatches {sorted(k for k in want if k in got and got[k] != want[k])}",
             3)
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            fail(f"metric {name} has no numeric value", 3)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/; "
             "run from a full checkout of the repository")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as f:
        spec = json.load(f)

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    scratch = os.path.join(build_dir, "scratch")
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scratch", scratch, "--source-id", source_id()],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", 3)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"benchmark exited with code {proc.returncode}", proc.returncode or 3)
    result = json.loads(lines[-1])
    check_names(result, spec, args.trace)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
