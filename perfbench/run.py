#!/usr/bin/env python3
"""Build the perfbench binary from source, then run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload table1-grip --seed 1 --seconds 10 --trace 0

Every argument is passed to the binary (see perfbench/README.md). The Go
build cache, the binary and everything a run writes stay under
.bench_build/perfbench in the repository root, so the first run builds
the standard library there and later runs reuse it.
"""

import os
import subprocess
import sys


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    out = os.path.join(root, ".bench_build", "perfbench")
    for d in ("gocache", "gopath", "config", "tmp"):
        os.makedirs(os.path.join(out, d), exist_ok=True)
    binary = os.path.join(out, "bin", "perfbench")

    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        # The go command keeps its settings and telemetry under the user
        # config directory; point it inside the build directory.
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "TMPDIR": os.path.join(out, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
