#!/usr/bin/env python3
"""Build the hls library and the benchmark harness from this tree, then run one workload.

    python3 perfbench/run.py --workload fig9|sweep|serve --seed N --seconds S --trace 0|1

The build goes to .bench_build/perfbench (Release). Every invocation hashes
src/ and the harness sources and rebuilds when they changed; the harness
refuses to report numbers when it was built from other sources than the ones
hashed here. The last line of standard output is the result as one JSON
object; build output goes to standard error.

Extra flags are passed to the harness: --units N runs exactly N work units
instead of filling --seconds, and --variant NAME switches on a slowdown for
the sensitivity self-test (selftest.py).
"""
import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")
# What the harness binary is built from: the library sources and the
# harness's own sources and build files.
HASHED = [os.path.join(ROOT, "src"), os.path.join(HERE, "harness"),
          os.path.join(HERE, "CMakeLists.txt"), os.path.join(HERE, "build_info.hpp.in")]


def fail(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(2)


def source_hash():
    h = hashlib.sha256()
    for top in HASHED:
        paths = [top]
        if os.path.isdir(top):
            paths = []
            for dirpath, dirnames, filenames in os.walk(top):
                dirnames.sort()
                paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
        for path in paths:
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
            h.update(b"\0")
    return h.hexdigest()


def cached_hash():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("PERFBENCH_SOURCE_HASH:"):
                    return line.strip().split("=", 1)[1]
    except OSError:
        pass
    return None


def build(digest):
    jobs = str(min(4, os.cpu_count() or 1))
    if cached_hash() != digest:
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
                        "-DPERFBENCH_SOURCE_HASH=" + digest],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["fig9", "sweep", "serve"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--units", type=int, default=None)
    ap.add_argument("--variant", default=None)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "session.hpp")):
        fail("no hls sources under %s/src; run from a full checkout" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake is not installed")

    os.makedirs(BUILD, exist_ok=True)
    # One build at a time per checkout; the lock is released when we exit.
    with open(os.path.join(ROOT, ".bench_build", "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        digest = source_hash()
        try:
            build(digest)
        except subprocess.CalledProcessError as e:
            fail("build failed: %s" % e)

        cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--expect-source-hash", digest]
        if args.trace == "1":
            cmd += ["--spans", os.path.join(BUILD, "spans-%s-%d.jsonl" % (args.workload, args.seed))]
        if args.units is not None:
            cmd += ["--units", str(args.units)]
        if args.variant:
            cmd += ["--variant", args.variant]
        sys.stdout.flush()
        return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
