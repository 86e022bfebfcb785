#!/usr/bin/env python3
"""Build and run the engine's end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload oltp-wire --seed 1 --seconds 25 --trace 0

The benchmark is the Go module in this directory (its go.mod points the
engine module at the repository root). This script builds it into
$CARGO_TARGET_DIR (default .bench_build) with the Go build cache, module
cache and temporary files kept under that directory, then runs it from
the repository root with the same arguments. The last line the benchmark
prints is the JSON result; result files, spans and the durable
workload's data directory go under <build dir>/perfbench.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCES = ("cypher", "cypherclient", "internal")


def tree_hash():
    """Hash of the engine and benchmark sources, recorded as the commit
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in SOURCES + (os.path.basename(HERE),):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".go", ".mod")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


def git_head():
    """HEAD of the repository rooted exactly at ROOT, or None."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        return None
    if len(out) != 2 or os.path.realpath(out[0]) != os.path.realpath(ROOT):
        return None
    return out[1]


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not all(
        os.path.isdir(os.path.join(ROOT, d)) for d in SOURCES
    ):
        print("perfbench: the engine sources (go.mod, cypher/, internal/) are not beside "
              + HERE, file=sys.stderr)
        return 2
    build = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    tmp = os.path.join(build, "tmp")
    home = os.path.join(build, "home")
    for d in (tmp, home):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
    })
    binary = os.path.join(build, "perfbench-bin")
    built = subprocess.run(["go", "build", "-buildvcs=false", "-o", binary, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    env["PERFBENCH_COMMIT"] = git_head() or tree_hash()
    args = sys.argv[1:] + ["--out", os.path.join(build, "perfbench")]
    return subprocess.run([binary] + args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
