#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload suite --seed 42 --seconds 20 --trace 0

Builds the benchmark (a Go module in this directory) and the hwgc-serve
daemon from source into .bench_build/, with every Go cache and temporary
file kept under .bench_build/ as well, then runs the benchmark with the
given arguments. The benchmark prints its JSON result as the last line of
standard output; build output goes to standard error. The exit code is the
benchmark's, or 2 when the build fails.
"""

import os
import shutil
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 800  # a cold build of the simulator in a fresh checkout
RUN_TIMEOUT_S = 170


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build = os.path.join(root, ".bench_build")
    go = shutil.which("go")
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 2

    env = dict(os.environ)
    tmp = os.path.join(build, "tmp")
    for d in ("bin", "tmp", "config", "perfbench"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
    )

    bench_bin = os.path.join(build, "bin", "perfbench")
    serve_bin = os.path.join(build, "bin", "hwgc-serve")
    builds = [
        ([go, "build", "-o", bench_bin, "."], bench_dir),
        ([go, "build", "-o", serve_bin, "./cmd/hwgc-serve"], root),
    ]
    for cmd, cwd in builds:
        try:
            r = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("perfbench: build timed out: " + " ".join(cmd), file=sys.stderr)
            return 2
        if r.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2

    args = [bench_bin, "--spec", os.path.join(root, "BENCHMARK.json"),
            "--out", os.path.join(build, "perfbench"), "--serve-bin", serve_bin,
            "--launched-ns", str(time.time_ns())]
    proc = subprocess.Popen(args + sys.argv[1:], cwd=root, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # SIGTERM first: the benchmark's serve workload then drains and
        # reaps its daemon before exiting.
        proc.terminate()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        proc.terminate()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
