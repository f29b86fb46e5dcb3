#!/usr/bin/env python3
"""Entry point of the repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py regen-expected

Run from the repository root. Builds the `matc` binary and the
`perfbench` package (release, into $CARGO_TARGET_DIR, default
`.bench_build`), then runs the measurement; the last line of standard
output is the result object. `regen-expected` rewrites
perfbench/expected/*.out from the independent AST interpreter.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "--bin", "matc"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    exe = os.path.join(target, "release", "perfbench")
    argv = sys.argv[1:]
    if argv[:1] == ["regen-expected"]:
        argv = ["regen-expected", os.path.join(HERE, "expected")]
    else:
        argv += ["--matc", os.path.join(target, "release", "matc"),
                 "--work", os.path.join(target, "perfbench-work")]
    return subprocess.run([exe] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
