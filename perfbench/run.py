#!/usr/bin/env python3
"""Build the perfbench driver from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload crowd-n256 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py -compare parent.log change.log

Every argument is passed to the driver (see perfbench/README.md). The
driver is built with the Go toolchain on PATH into the build directory
(CARGO_TARGET_DIR when set, else .bench_build), with the Go build cache
and temporary files kept there too, so nothing is written outside the
checkout. A build failure exits with status 2 and prints no result.
"""

import os
import shutil
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        # The go command keeps its telemetry counters under the user
        # config directory; keep them in the checkout too.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
        GOENV="off",
        CGO_ENABLED="0",
    )
    for d in (env["GOCACHE"], env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)
    go = shutil.which("go")
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 2
    binary = os.path.join(build, "perfbench")
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    if "-out" not in args and "--out" not in args:
        args = ["-out", build] + args
    sys.stdout.flush()
    return subprocess.run([binary] + args, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
