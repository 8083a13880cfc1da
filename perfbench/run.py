#!/usr/bin/env python3
"""Build the fresca server and the benchmark, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds `serve` from the repository's
own workspace and the benchmark package in `perfbench/` (release, offline,
into `$CARGO_TARGET_DIR`, default `.bench_build`), then runs the benchmark
binary with the same arguments. Build output goes to standard error; the
last line of standard output is the benchmark's JSON result. Results with
provenance and the traced run's spans are written under `.bench_out/`.

Workloads: hot-get, hot-get-2loop, freshness-loop (see BENCHMARK.json);
`--workload all` runs each in turn and fails if any fails.
"""

import json

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Inputs that decide what is measured: hashed into the source digest,
# which identifies the code when the checkout is not a git repository.
SOURCE_DIRS = ("crates", "vendor", "src", "perfbench")
SOURCE_FILES = ("Cargo.toml",)
SKIP_DIRS = {"target", "__pycache__", ".bench_build", ".bench_out"}


def source_digest():
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, d)):
            dirnames[:] = sorted(n for n in dirnames if n not in SKIP_DIRS)
            paths += [os.path.join(dirpath, f) for f in sorted(filenames) if f != "Cargo.lock"]
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def output_of(cmd):
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def build(env):
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    steps = [
        cargo + ["-p", "fresca-serve", "--bin", "serve"],
        cargo + ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
        if r.returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("run.py: no Cargo.toml at %s: run from a full checkout" % ROOT)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(env)
    exe = os.path.join(target, "release", "fresca-perfbench")
    extra = [
        "--serve", os.path.join(target, "release", "serve"),
        "--out-dir", os.path.join(ROOT, ".bench_out"),
        "--rustc", output_of(["rustc", "--version"]),
        "--commit", output_of(["git", "rev-parse", "HEAD"]),
        "--source", source_digest(),
    ]
    args = sys.argv[1:]
    at = args.index("--workload") + 1 if "--workload" in args else None
    if at is not None and args[at:at + 1] == ["all"]:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        runs = [args[:at] + [name] + args[at + 1:] for name in names]
    else:
        runs = [args]
    sys.exit(max(run([exe] + a + extra) for a in runs))


def run(cmd):
    """Run the benchmark binary; its exit code."""
    sys.stdout.flush()
    # On a timeout the benchmark is killed; the server it spawned dies
    # with it (it runs with a parent-death signal).
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=170).returncode
    except subprocess.TimeoutExpired:
        print("run.py: the benchmark did not finish in 170 s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    main()
