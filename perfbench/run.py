#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 20 --trace 0

Every build artefact, cache and scratch file stays under .bench_build/ in
the repository root. See perfbench/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        TMPDIR=os.path.join(BUILD, "tmp"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
        GOTELEMETRY="off",
        HOME=os.path.join(BUILD, "home"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "home", ".config"),
        XDG_CACHE_HOME=os.path.join(BUILD, "home", ".cache"),
    )
    return env


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at %s: the benchmark needs the repository's source" % ROOT,
              file=sys.stderr)
        return 2
    out = os.path.join(BUILD, "perfbench")
    for d in ("home", "tmp"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=go_env())
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    run = subprocess.run([binary] + sys.argv[1:] + ["--out", out], cwd=ROOT, env=go_env())
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
