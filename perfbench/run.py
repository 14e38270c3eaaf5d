#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload aol_fresh --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first run configures and builds perfbench/ (the repository's libraries
plus the benchmark program, Release) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later runs only check that the build is up to date.
The last line of a run's standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("aol_fresh", "aol_churn", "adversary")
# A run must end within 180 s; the binary gets what is left after the build
# check, with a margin.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under %s/src; run from a full checkout" % ROOT)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "asup_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return os.path.join(out, "asup_perfbench")


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def source_sha():
    """SHA-256 over the library and benchmark sources: identifies the code
    measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def run(binary, args):
    """Runs the binary; returns (exit code, stdout lines)."""
    try:
        proc = subprocess.run([binary] + args, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s: %s" % (RUN_TIMEOUT_S, " ".join(args)))
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return None
    return result


def lines_with(prefix, lines):
    return [line for line in lines if line.startswith(prefix)]


def selftest(binary):
    """Runs a reduced-size version of every workload twice and requires the
    counts, the saved-state size and every digest to match exactly."""
    ok = True
    for workload in WORKLOADS:
        outputs = []
        for _ in range(2):
            args = ["--workload", workload, "--seed", "11", "--seconds", "0",
                    "--trace", "1", "--small", "--rounds", "3"]
            code, lines = run(binary, args)
            result = parse_result(lines)
            if code != 0 or result is None:
                print("FAIL %s: run did not complete" % workload)
                ok = False
                break
            if not result["correct"] or result["failed"] != 0:
                print("FAIL %s: answer checks failed" % workload)
                ok = False
            outputs.append(lines_with("# digest", lines) +
                           lines_with("# counts", lines))
        if len(outputs) == 2:
            same = outputs[0] == outputs[1]
            ok = ok and same
            print("%s %s: %d digest/count lines %s" % (
                "ok  " if same else "FAIL", workload, len(outputs[0]),
                "identical" if same else "differ"))
            if not same:
                for a, b in zip(outputs[0], outputs[1]):
                    if a != b:
                        print("  run 1: " + a)
                        print("  run 2: " + b)
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that counts and digests repeat exactly")
    opts = parser.parse_args()
    if not opts.selftest and opts.workload is None:
        parser.error("--workload is required")

    binary = build()
    if opts.selftest:
        return selftest(binary)

    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", repr(opts.seconds), "--trace", str(opts.trace),
            "--git-sha", git_sha(), "--source-sha", source_sha()]
    if opts.trace:
        args += ["--spans-out", os.path.join(
            build_dir(), "spans-%s.tsv" % opts.workload)]
    code, lines = run(binary, args)
    if code != 0 or parse_result(lines) is None:
        sys.stderr.write("\n".join(lines[-20:]) + "\n")
        fail("run failed (exit code %d)" % code)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
