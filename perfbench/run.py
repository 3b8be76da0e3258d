#!/usr/bin/env python3
"""Build and run the mtperf pipeline benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim_suite --seed 1 --seconds 15 --trace 0

The first run configures and builds perfbench/ (which compiles the
checkout's src/) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later runs only rebuild what changed. Build output goes to
standard error, so the last line of standard output is the benchmark's
JSON result. Exits non-zero, without a result, when the checkout has no
mtperf sources to build.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent


def build(build_dir: pathlib.Path) -> pathlib.Path:
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", "4"],
        check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sim_suite", "train_counters",
                                 "serve_loopback"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = pathlib.Path.cwd()
    if not (root / "src" / "CMakeLists.txt").is_file() or \
            not (root / "specs").is_dir():
        print(f"perfbench: {root} holds no mtperf sources (src/, specs/) "
              "to build and run", file=sys.stderr)
        return 2

    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") \
        / "perfbench"
    try:
        binary = build(build_dir)
    except subprocess.CalledProcessError as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 3

    return subprocess.run(
        [str(binary), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--root", str(root),
         "--work-dir", str(build_dir / "work")]).returncode


if __name__ == "__main__":
    sys.exit(main())
