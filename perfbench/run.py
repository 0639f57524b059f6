#!/usr/bin/env python3
"""Build the RAPIDS benchmark from source and run one workload.

    python3 perfbench/run.py --workload archive|retrieve|explore \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest [--seed N]

Run it from the root of a checkout. The library (src/) and the benchmark
program (perfbench/src/) are built with CMake into $CARGO_TARGET_DIR, default
.bench_build under the checkout root; later runs reuse the build. The last
line of stdout is the JSON result {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics of BENCHMARK.json for --trace 0, its
per-layer metrics for --trace 1. The traced run also leaves a Chrome
trace-event file under <build>/traces/, and every run leaves its full
output under <build>/results/. See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def quiet(cmd):
    """Run a build step; show its output only when it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        die("build step failed: " + " ".join(cmd))


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("library sources not found: run from a checkout that has src/")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = os.path.join(build_dir, "CMakeCache.txt")
        if not os.path.isfile(cache):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            quiet(["cmake", "-S", HERE, "-B", build_dir, *generator,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        quiet(["cmake", "--build", build_dir, "-j", str(cpus())])
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_CXX_FLAGS") and "sanitize" in line:
                die("refusing to record from a sanitizer build", 3)
    return os.path.join(build_dir, "perfbench")


def commit_id():
    """Git commit when the checkout is a repository, plus a digest of the
    sources the benchmark builds (an exported checkout has no .git)."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "none"
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return f"{rev}+src:{digest.hexdigest()[:12]}"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def valid(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        return f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=["archive", "retrieve", "explore"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--threads", type=int, default=0,
                    help="pool threads (default min(4, nproc))")
    ap.add_argument("--selftest", action="store_true",
                    help="check that every workload is deterministic in its seed")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    exe = build(build_dir)
    tag = "selftest" if args.selftest else f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(build_dir, "work", f"{tag}-{os.getpid()}")
    cmd = [exe, "--seed", str(args.seed), "--work-dir", work, "--commit", commit_id()]
    if args.threads:
        cmd += ["--threads", str(args.threads)]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", args.workload, "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.trace:
            os.makedirs(os.path.join(build_dir, "traces"), exist_ok=True)
            cmd += ["--trace-out", os.path.join(build_dir, "traces", tag + ".json")]

    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{tag} did not finish within {RUN_TIMEOUT_S} s", 4)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()

    if args.selftest:
        print(proc.stdout, end="")
        sys.exit(proc.returncode)

    try:
        result = json.loads(lines[-1])
        problem = valid(result, args.trace)
    except (IndexError, ValueError, AttributeError) as e:
        problem = f"no JSON result ({e})"
    if problem:
        sys.stderr.write(proc.stdout)
        die(f"{tag}: {problem} (exit {proc.returncode})", proc.returncode or 3)

    os.makedirs(os.path.join(build_dir, "results"), exist_ok=True)
    with open(os.path.join(build_dir, "results", tag + ".txt"), "w") as f:
        f.write(proc.stdout)
        f.write(f"elapsed_s: {time.monotonic() - started:.3f}\n")
    print(proc.stdout, end="")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
