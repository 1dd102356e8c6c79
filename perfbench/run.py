#!/usr/bin/env python3
"""Build the benchmark from source and run one measurement.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build at the repository root).
Build output goes to standard error, so the last line of standard output
is the benchmark's JSON result. The exit code is the benchmark's: non-zero
when the build fails, a result disagrees with the reference, or a
simulated invariant breaks.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_id():
    """The git commit of the checkout, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=False,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def option(argv, flag):
    """Value following `flag` in argv, or None."""
    for i, a in enumerate(argv[:-1]):
        if a == flag:
            return argv[i + 1]
    return None


def main(argv):
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    cmd = [os.path.join(target, "release", "mgpu-perfbench")] + argv
    if option(argv, "--trace") == "1":
        name = "spans-{}-seed{}.json".format(option(argv, "--workload"), option(argv, "--seed"))
        cmd += ["--spans-out", os.path.join(target, name)]
    env["PERFBENCH_COMMIT"] = source_id()
    sys.stdout.flush()
    return subprocess.run(cmd, env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
