#!/usr/bin/env python3
"""Build the benchmark and run one pass of one workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds the `benchmark/` package (a
Cargo workspace of its own with path dependencies on `crates/`) into
`$CARGO_TARGET_DIR`, `.bench_build` when unset, then runs `bench-plain`
for `--trace 0` or `bench-traced` for `--trace 1` with the same
arguments. The last line of standard output is the result object; the
exit code is the benchmark's (1 when a correctness gate failed, 2 on a
usage error).
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The first build of a checkout compiles the whole program with fat LTO.
BUILD_TIMEOUT_S = 850
# A pass measures for --seconds plus its set-up and checks.
RUN_TIMEOUT_S = 175


def main(args):
    traced = any(a == "--trace" and b == "1" for a, b in zip(args, args[1:]))
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    try:
        # Cargo's output goes to stderr: stdout carries only the result.
        done = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"benchmark build failed: {e}", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print("benchmark build failed", file=sys.stderr)
        return 1
    binary = Path(env["CARGO_TARGET_DIR"]) / "release" / ("bench-traced" if traced else "bench-plain")
    try:
        return subprocess.run([str(binary), *args], env=env, timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
