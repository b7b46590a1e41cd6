#!/usr/bin/env python3
"""Build the perfbench Go program from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload burst-20k --seed 1 --seconds 15 --trace 0

Every argument passes through to the Go program (see perfbench/main.go).
The binary, the Go build cache and the benchmark's scratch files all live
under $CARGO_TARGET_DIR (default .bench_build) in the checkout, so nothing
is written outside it. Exits non-zero without a result if the build fails,
for instance when the simulator's sources are missing.
"""

import os
import shutil
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build, exist_ok=True)
    go = shutil.which("go")
    if go is None:
        print("perfbench: the go toolchain is not on PATH", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        # The go command keeps its config and telemetry counters under
        # the user config directory; keep those in the build dir too.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1

    args = [binary, "--workdir", os.path.join(build, "work")] + sys.argv[1:]
    return subprocess.run(args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
