#!/usr/bin/env python3
"""Builds and runs the PCQE end-to-end benchmark.

Usage (from the repository root):

    python3 pcqe_bench/run.py --workload cold_mix|warm_sessions|improve_accept \
        --seed N --seconds S --trace 0|1

Builds `pcqe_bench/` (the PCQE libraries from `src/` plus the benchmark
binary) in Release into `$CARGO_TARGET_DIR/pcqe_bench`, or
`.bench_build/pcqe_bench` when that variable is unset, then runs one
workload. Build output goes to stderr. The binary's text report is passed
through to stdout, and the last stdout line is the result JSON: every
`end_to_end` metric of BENCHMARK.json with `--trace 0`, every `per_layer`
metric with `--trace 1`. A per-layer metric the workload does not exercise
reads 0; `layers.json` says which workloads exercise each one. For
improve_accept, the `plan_cost` recorded for the seed in `plan_cost.json` is
passed to the binary, which fails the run when it differs.

Scratch files (the durable workload's storage directory) live under the
build directory and are removed afterwards; a traced run leaves its spans in
`<build>/traces/`.

Exits non-zero, without a result line, when the sources are missing, the
build fails or the binary's metrics do not match BENCHMARK.json, and with the
binary's exit code otherwise (non-zero when any output or durability check
failed).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# The binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[pcqe_bench] {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    cache = build_dir / "CMakeCache.txt"
    if not cache.exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "pcqe_bench"


def git_sha():
    # Only this checkout's own repository: never walk up into an enclosing one.
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def source_sha():
    """SHA-256 over the relative paths and bytes of every file the build reads."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if path.suffix == ".pyc":
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def result_line(workload, trace, binary_line):
    """The contract's result line from the binary's last line, or None."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((BENCH_DIR / "layers.json").read_text())
    got = json.loads(binary_line)
    names = [m["name"] for m in declared["end_to_end"]]
    if set(got["end_to_end"]) != set(names):
        log(f"end-to-end metrics {sorted(got['end_to_end'])} are not {sorted(names)}")
        return None
    metrics = {name: got["end_to_end"][name] for name in names}
    if trace:
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        undeclared = set(got["per_layer"]) - set(units)
        missing = {m["metric"] for m in layers
                   if workload in m["on"] and m["metric"] not in got["per_layer"]}
        if undeclared or missing:
            log(f"per-layer metrics undeclared: {sorted(undeclared)}, "
                f"missing: {sorted(missing)}")
            return None
        metrics = {name: got["per_layer"].get(name, {"value": 0, "unit": unit})
                   for name, unit in units.items()}
    return json.dumps({"correct": got["correct"], "attempted": got["attempted"],
                       "failed": got["failed"], "metrics": metrics})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold_mix", "warm_sessions", "improve_accept"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"PCQE sources not found under {ROOT / 'src'}; nothing to benchmark")
        return 2

    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    try:
        binary = build(build_root / "pcqe_bench")
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 2

    work_dir = build_root / "work" / str(os.getpid())
    trace_dir = build_root / "traces"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir), "--trace-dir", str(trace_dir),
           "--git-sha", git_sha(), "--source-sha", source_sha()]
    if args.workload == "improve_accept":
        recorded = json.loads((BENCH_DIR / "plan_cost.json").read_text())["by_seed"]
        if str(args.seed) in recorded:
            cmd += ["--expected-plan-cost", repr(recorded[str(args.seed)])]
        else:
            log(f"no plan_cost recorded for seed {args.seed}; not compared")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        log(f"benchmark exceeded {RUN_TIMEOUT_S}s and was stopped")
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if not lines:
        log(f"benchmark printed nothing (exit code {proc.returncode})")
        return proc.returncode or 4
    print("\n".join(lines[:-1]), flush=True)
    try:
        line = result_line(args.workload, args.trace == 1, lines[-1])
    except (ValueError, KeyError, TypeError) as err:
        log(f"cannot read the benchmark's result: {err}")
        line = None
    if line is None:
        return proc.returncode or 4
    print(line, flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
