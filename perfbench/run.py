#!/usr/bin/env python3
"""Build the perfbench binary from this checkout's sources and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload deep --seed 1 --seconds 20 --trace 0

Everything the build writes (Go build cache, temp files, the binary) goes
under .bench_build/ at the repository root, so a run touches nothing
outside the checkout. A failed build exits non-zero without printing a
result line.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    for sub in ("gocache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(BUILD, sub), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "mod"),
        TMPDIR=os.path.join(BUILD, "tmp"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOFLAGS="-mod=mod",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(BUILD, "perfbench")
    try:
        # Build output goes to stderr: stdout carries only the result.
        code = subprocess.run(["go", "build", "-o", binary, "."], cwd=BENCH,
                              env=env, stdout=sys.stderr.fileno()).returncode
    except OSError as err:
        print("perfbench: cannot run go: %s" % err, file=sys.stderr)
        sys.exit(127)
    if code != 0:
        print("perfbench: build failed (exit %d)" % code, file=sys.stderr)
        sys.exit(code if code > 0 else 1)
    os.chdir(ROOT)
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
