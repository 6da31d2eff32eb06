#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_suite --seed 1 \
        --seconds 10 --trace 0

The binary and the simulator it links are compiled (Release) into
$CARGO_TARGET_DIR, or .bench_build when that is unset. The last line of
stdout is the result: {"correct", "attempted", "failed", "metrics"}. The
line before it records the run's metadata (seed, host CPUs, compiler,
build type, check mode, commit and a digest of the measured sources), and
the same record is written to <build>/out/result-<workload>-<seed>-
trace<0|1>.json. --trace 1 also writes the span trace beside it.

Exit status is non-zero, with no result printed, when the build, the run
or the result's format fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_suite", "ring_fleet", "spawn_fleet")
DEFAULT_SEED = 1
HELD_OUT_SEED = 20260917  # never used while tuning; gain claims must hold here
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure and build the binary; returns its path."""
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cfg = [cmake, "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cfg += ["-G", "Ninja"]
            if subprocess.call(cfg, stdout=log, stderr=log) != 0:
                shutil.rmtree(build_dir, ignore_errors=True)
                fail("configure failed (see the simulator sources under "
                     "src/ and bench/)")
        rc = subprocess.call([cmake, "--build", build_dir, "--target",
                              "perfbench", "-j", "4"],
                             stdout=log, stderr=log)
    if rc != 0:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def source_digest():
    """SHA-256 over every file the measured binary is built from."""
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    """HEAD's commit id when the tree is a git checkout, else None."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as f:
                return f.read().strip()
        return head
    except OSError:
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--refs", os.path.join(HERE, "refs"),
           "--golden", os.path.join(ROOT, "bench", "golden",
                                    "table3_micro.txt"),
           "--out", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    if proc.returncode != 0:
        fail("run exited with status %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        fail("run printed no result")
    try:
        meta = json.loads(lines[-2])["meta"]
        result = json.loads(lines[-1])
    except (ValueError, KeyError):
        fail("malformed result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has unexpected keys")

    meta["commit"] = git_commit()
    meta["source_sha256"] = source_digest()
    meta["default_seed"] = DEFAULT_SEED
    meta["held_out_seed"] = HELD_OUT_SEED
    record = os.path.join(out_dir, "result-%s-%d-trace%d.json"
                          % (args.workload, args.seed, args.trace))
    with open(record, "w") as f:
        json.dump({"meta": meta, "result": result}, f, indent=1)
        f.write("\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
