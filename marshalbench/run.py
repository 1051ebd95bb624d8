#!/usr/bin/env python3
"""End-to-end `marshal` benchmark.

    python3 marshalbench/run.py --workload edit-loop --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds `marshal` (and, with `--trace 1`,
the in-process replay in `marshalbench/replay`) from source, sets the
workload up, measures it for `--seconds`, checks every operation's outputs
and prints one JSON object as the last line of standard output:
end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
See `marshalbench/README.md`.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import WORKLOADS, Run, SetupError  # noqa: E402

# Set-up is timed this many times per run; `setup_s` is the median.
SETUPS = 3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("Cargo.toml", "Cargo.lock", "src/bin/marshal.rs", "crates/core"):
        if not os.path.exists(os.path.join(root, needed)):
            sys.exit(f"marshalbench: {needed} not found; run from the repository root")
    binary, replay = build(root, args.trace == 1)

    scratch = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        run = Run(args.workload, args.seed, binary, scratch)
        for _ in range(1 if args.trace else SETUPS):
            run.setup()
        if args.trace:
            from traced import traced_run
            metrics, details = traced_run(run, replay, args.seconds)
        else:
            run.measure(args.seconds)
            metrics, details = run.metrics()
        attempted, failed, problems = run.attempted, run.failed, run.problems
    except SetupError as e:
        print(f"marshalbench: set-up failed: {e}", file=sys.stderr)
        sys.exit(1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    print(json.dumps({"environment": environment(root, args), "details": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def build(root, with_replay):
    """Builds `marshal` (and the replay) from source; returns both paths."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(root, env["CARGO_TARGET_DIR"])
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    subprocess.run(cargo + ["--bin", "marshal"], cwd=root, env=env, check=True,
                   stdout=sys.stderr)
    if with_replay:
        subprocess.run(cargo + ["--manifest-path", "marshalbench/replay/Cargo.toml"],
                       cwd=root, env=env, check=True, stdout=sys.stderr)
    release = os.path.join(target, "release")
    return os.path.join(release, "marshal"), os.path.join(release, "marshal-replay")


def environment(root, args):
    """What every result is recorded with: host, seed and source version."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if shutil.which("git"):
        git = ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"]
        out = subprocess.run(git, capture_output=True, text=True).stdout.split()
        # A checkout nested in some other repository has no commit of its own.
        if len(out) == 2 and os.path.samefile(out[0], root):
            commit = out[1]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "source_digest": source_digest(root),
        "python": platform.python_version(),
    }


def source_digest(root):
    """Digest of the program's sources, for checkouts that are not git
    repositories."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
        if os.path.isfile(os.path.join(root, top)):
            with open(os.path.join(root, top), "rb") as f:
                h.update(top.encode() + b"\0" + f.read())
    return h.hexdigest()[:16]


if __name__ == "__main__":
    main()
