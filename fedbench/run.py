#!/usr/bin/env python3
"""Build and run the federated-training wall-clock benchmark.

Run from the repository root:

    python3 fedbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The repository's photon libraries and the fedbench binary are built from
source into $CARGO_TARGET_DIR (default: .bench_build) with the repository's
own CMake settings; fedbench/build.cmake hooks the benchmark target into
that build.  Build output goes to stderr, so the binary's last stdout line,
one JSON object {correct, attempted, failed, metrics}, is also the last
line this script prints.  Any further arguments (--quick, --inject CHECK)
are passed to the binary unchanged.
"""

import os
import subprocess
import sys

# A run measures for --seconds; set-up, checks and replays come on top.
RUN_TIMEOUT_S = 170


def build(root: str, build_dir: str) -> bool:
    hook = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "build.cmake")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", root, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release",
                     "-DCMAKE_PROJECT_INCLUDE=" + hook]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(
        ["cmake", "--build", build_dir, "--target", "fedbench", "-j", jobs],
        stdout=sys.stderr).returncode == 0


def main() -> int:
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        print("fedbench: run from the repository root: CMakeLists.txt and "
              "src/ are missing here", file=sys.stderr)
        return 2
    build_dir = os.path.join(root,
                             os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(root, build_dir):
        print("fedbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, "fedbench")
    try:
        return subprocess.run([binary] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("fedbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
