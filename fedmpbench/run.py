#!/usr/bin/env python3
"""Entry point of the FedMP benchmark (the command BENCHMARK.json names).

    python3 fedmpbench/run.py --workload paper_cnn --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first call configures and builds
fedmpbench/ (which compiles the repo's src/ from source) into .bench_build/;
later calls only let the build tool confirm it is up to date. Each call then
runs one workload in a fresh process, with MALLOC_ARENA_MAX=1 and every
FEDMP_* variable removed from the environment, and passes its output through:
one line per metric and, last, the JSON result. A copy of the result and the
span log of a traced run go to .bench_build/results/.

`--workload all` runs every workload in turn, each in its own process, and
exits non-zero if any run fails a check.

    python3 fedmpbench/run.py --test

builds and runs the benchmark's own tests (needs GoogleTest).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "fedmpbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 175


def log(message):
    print(message, file=sys.stderr, flush=True)


def revision():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "fedmpbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("fedmpbench: no src/ tree next to fedmpbench/; run from the "
            "root of a FedMP checkout")
        sys.exit(2)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("fedmpbench: cmake configure failed")
            sys.exit(2)
    built = subprocess.run(["cmake", "--build", BUILD_DIR, "--target", target,
                            "-j", jobs], stdout=sys.stderr)
    if built.returncode != 0:
        log("fedmpbench: build failed")
        sys.exit(2)
    return os.path.join(BUILD_DIR, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    env = {k: v for k, v in os.environ.items() if not k.startswith("FEDMP_")}
    env["MALLOC_ARENA_MAX"] = "1"
    if args.test:
        sys.exit(subprocess.run([build("fedmpbench_tests")], env=env,
                                cwd=BUILD_DIR).returncode)
    if not args.workload:
        parser.error("--workload is required")

    binary = build("fedmpbench")
    results = os.path.join(BUILD_DIR, "results")
    os.makedirs(results, exist_ok=True)
    workloads = [args.workload]
    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    sha = revision()
    status = 0
    for workload in workloads:
        stem = os.path.join(results, "%s-seed%d-trace%d" %
                            (workload, args.seed, args.trace))
        command = [binary, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace",
                   str(args.trace), "--out", stem + ".json", "--git-sha", sha]
        if args.trace:
            command += ["--spans", stem + ".spans.jsonl"]
        try:
            run = subprocess.run(command, env=env, cwd=ROOT,
                                 timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("fedmpbench: %s run exceeded %d s" % (workload,
                                                      RUN_TIMEOUT_S))
            run = subprocess.CompletedProcess(command, 3)
        status = status or run.returncode
    sys.exit(status)


if __name__ == "__main__":
    main()
