#!/usr/bin/env python3
"""Build and run the workspace benchmark on one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), runs it, and passes its output through: the
last stdout line is the result object, the line before it the full
record with the host stamp. Exits non-zero without a result if the build
or the run fails, or if the printed metric set differs from the one
BENCHMARK.json declares for the mode.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_rev():
    """The git revision, or, outside a git checkout, a hash of the sources."""
    rev = command_output(["git", "rev-parse", "HEAD"])
    if rev:
        return "git:" + rev
    h = hashlib.sha256()
    for path in sorted(ROOT.glob("crates/**/*.rs")) + sorted(ROOT.glob("crates/**/Cargo.toml")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=["0", "1"], required=True)
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    if not (ROOT / "crates").is_dir():
        fail("the workspace sources (crates/) are not in this checkout")

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=850,
    )
    if build.returncode != 0:
        fail("build failed")

    host = {
        "cores": os.cpu_count(),
        "rustc": command_output(["rustc", "-V"]),
        "rev": source_rev(),
        "seed": args.seed,
    }
    # Start from settled disk state: the journal workload is sensitive to
    # writeback left behind by whatever ran before.
    os.sync()
    scratch = target / "perfbench-scratch" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    env["PERFBENCH_HOST"] = json.dumps(host)
    try:
        run = subprocess.run(
            [str(target / "release" / "perfbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--scratch", str(scratch)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or len(lines) < 2:
        fail(f"benchmark exited with {run.returncode}")

    result = json.loads(lines[-1])
    declared = spec["per_layer" if args.trace == "1" else "end_to_end"]
    if [m["name"] for m in declared] != list(result["metrics"]):
        fail("printed metrics differ from BENCHMARK.json")
    for m in declared:
        if result["metrics"][m["name"]]["unit"] != m["unit"]:
            fail(f"unit of {m['name']} differs from BENCHMARK.json")
    print(lines[-2])
    print(lines[-1])


if __name__ == "__main__":
    main()
