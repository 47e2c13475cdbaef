#!/usr/bin/env python3
"""Builds and runs the open-loop serving benchmark (see README.md).

    python3 perfbench/run.py --workload plan_zipf --seed 1 --seconds 12 \
        --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
the benchmark (and the library it measures) from source into
.bench_build/; later calls only re-check that build. Build output goes
to stderr, so the last line of stdout is always the benchmark's JSON
result. Exits non-zero without a result when the checkout cannot be
built or the benchmark reports a failure.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def build(target):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: no repository sources next to perfbench/; "
              "run from the root of a full checkout", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def run(cmd):
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: timed out after %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main(argv):
    if argv[:1] == ["--self-test"]:
        if not build("perfbench_test"):
            return 2
        return run([os.path.join(BUILD, "perfbench_test")])
    if not build("perfbench"):
        return 2
    return run([os.path.join(BUILD, "perfbench"),
                "--workdir", os.path.join(BUILD, "runs")] + argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
