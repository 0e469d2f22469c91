#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md in this folder).

Run from the repository root:

    python3 e2ebench/run.py --workload stream --seed 1 --seconds 15 --trace 0
    python3 e2ebench/run.py --selftest

A run configures and builds e2ebench/ (the repository's libraries plus the
benchmark program) under .bench_build/, runs one workload and relays its
output; the
last line of stdout is the JSON result.  Build output goes to stderr.  The
self-test runs every workload at tiny size and checks that each metric named
in BENCHMARK.json is emitted with its unit, and that a perturbed reference
makes the correctness check fail.
"""
import argparse
import functools
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
BINARY = BUILD / "e2ebench"
RUN_TIMEOUT_S = 170


def configured():
    """True when the build tree exists and was configured from this folder
    (a checkout that moved keeps a cache pointing at its old path)."""
    cache = BUILD / "CMakeCache.txt"
    if not cache.exists():
        return False
    home = f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}"
    if home in cache.read_text(errors="replace").splitlines():
        return True
    shutil.rmtree(BUILD)
    return False


def build():
    """Configures once, then builds incrementally; exits non-zero on failure."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not configured():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            if len(steps) == 2 and cmd is steps[0]:
                shutil.rmtree(BUILD)  # reconfigure next time
            sys.exit(f"e2ebench: build step failed: {' '.join(cmd)}")


@functools.lru_cache(maxsize=None)
def revision():
    """The git revision, or a digest of the sources in a non-git checkout."""
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                                  cwd=ROOT, capture_output=True, text=True)
            if done.returncode == 0 and done.stdout.strip():
                return done.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:12]


def run(workload, seed, seconds, trace, extra=(), relay=True):
    """Runs one workload; returns the parsed result (None on failure)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--revision", revision(), "--trace-dir", str(BUILD / "traces"),
           *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"e2ebench: {workload} timed out", file=sys.stderr)
        return None
    lines = out.rstrip("\n").split("\n")
    if relay:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0:
        print(f"e2ebench: {workload} exited with {proc.returncode}",
              file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(f"e2ebench: {workload} printed no result", file=sys.stderr)
        return None
    if relay:
        print(lines[-1], flush=True)
    return result


def selftest():
    """Tiny runs of every workload: metric names and units, and that a
    perturbed reference drives the failure count above zero."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            result = run(w, 7, 1, trace, ["--tiny"], relay=False)
            label = f"{w} trace={int(trace)}"
            if result is None:
                problems.append(f"{label}: no result")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{label}: metrics/units differ from "
                                f"BENCHMARK.json: {sorted(set(got.items()) ^ set(expected[trace].items()))}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: outputs failed the reference check")
            print(f"selftest {label}: {len(got)} metrics, "
                  f"attempted={result['attempted']} failed={result['failed']}")
        result = run(w, 7, 1, False, ["--tiny", "--perturb"], relay=False)
        if result is None or result["correct"] or result["failed"] == 0:
            problems.append(f"{w} --perturb: the check did not bite")
        else:
            print(f"selftest {w} perturbed: failed={result['failed']} of "
                  f"{result['attempted']}")
    for p in problems:
        print(f"selftest FAILED: {p}", file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["stream", "weekly-sweep", "restart"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    build()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0 if result is not None else 1


if __name__ == "__main__":
    sys.exit(main())
