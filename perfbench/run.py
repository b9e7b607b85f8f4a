#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root; every argument is passed to the benchmark:

    python3 perfbench/run.py --workload corridor-nav --seed 1 --seconds 10 --trace 0

The Go build cache, the binary, cached inputs and durable map files all
live under .bench_build/ in the current directory, so a run reads and
writes nothing outside the checkout. The last line of standard output is
the benchmark's JSON result; build output goes to standard error.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOENV="off",
        # os.UserConfigDir: keeps the toolchain's telemetry inside the checkout.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
    )
    binary = os.path.join(build, "perfbench-bin")
    built = subprocess.run(
        ["go", "build", "-o", binary, "./perfbench"],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
