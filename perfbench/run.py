#!/usr/bin/env python3
"""Build the server and the benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny]

The build goes to $CARGO_TARGET_DIR (default `.bench_build`); its output
goes to stderr, so the last line of stdout is the benchmark's result.
A failed build exits non-zero without printing a result.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--quiet", "--manifest-path", "Cargo.toml", "--bin", "densest"],
        ["cargo", "build", "--release", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def commit():
    """The git commit, or a hash of the sources when this is no git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs
        )
        for p in paths:
            if p.endswith((".rs", ".toml", ".lock", ".py")):
                h.update(p.encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(target)
    build(target)
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), "run", "--server", os.path.join(release, "densest")]
    cmd += sys.argv[1:]
    env = dict(os.environ, PERFBENCH_COMMIT=commit())
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
