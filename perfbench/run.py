#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <wfs_paper|wfs_capture|profd_mix> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The release build goes to
$CARGO_TARGET_DIR (default: .bench_build) and its output to standard
error, so the last line of standard output is the benchmark's JSON result.
A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print(f"run.py: benchmark build failed ({build.returncode})", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "tq-perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
