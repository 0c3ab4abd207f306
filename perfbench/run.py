#!/usr/bin/env python3
"""Builds the SN-SLP benchmark from source and runs it.

Usage, from the repository root:

    python3 perfbench/run.py --workload kernels|compile|serve \\
        --seed N --seconds S --trace 0|1

The release build goes to $CARGO_TARGET_DIR (default: perfbench/target)
and produces both the `perfbench` harness and the `snslpd` daemon it
starts. Build output goes to standard error; the harness's standard
output (its last line is the JSON result) is passed through unchanged.
The exit status is the build's when it fails, else the harness's.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(here, "Cargo.toml"),
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(here, "target")
    harness = os.path.join(os.path.abspath(target), "release", "perfbench")
    return subprocess.run([harness] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
