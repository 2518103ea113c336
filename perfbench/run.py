#!/usr/bin/env python3
"""Builds the benchmark from source and runs its workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

runs one workload in its own process; its last stdout line is the result
object (`correct`, `attempted`, `failed`, `metrics`). Without `--workload`
every workload of BENCHMARK.json runs, each in its own process, followed by
a summary table. Run from the repository root. Output files (snapshots,
chrome traces, self times) go to perfbench/out/.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One run, including its set-ups and checkpoint cycles, ends well inside this.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        ok = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if not ok:
        fail("build failed")
    # Cargo resolves a relative CARGO_TARGET_DIR against the working directory.
    target = Path(os.environ.get("CARGO_TARGET_DIR") or HERE / "target")
    exe = (target if target.is_absolute() else Path.cwd() / target) / "release" / "perfbench"
    if not exe.is_file():
        fail(f"built binary not found at {exe}")
    return exe


def command_output(cmd):
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def run_one(exe, spec, workload, seed, seconds, trace, provenance):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(HERE / "out"),
           "--git-rev", provenance["git_rev"], "--rustc", provenance["rustc"]]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail(f"{workload} exited with code {proc.returncode}")
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        fail(f"{workload} printed no result line")
    expected = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] \
            or sorted(result["metrics"]) != sorted(expected):
        sys.stdout.write(out)
        fail(f"{workload} result does not match the metrics BENCHMARK.json lists")
    return lines, result


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    exe = build()
    provenance = {
        "git_rev": command_output(["git", "rev-parse", "HEAD"]),
        "rustc": command_output(["rustc", "--version"]),
    }
    if args.workload:
        lines, _ = run_one(exe, spec, args.workload, args.seed, args.seconds,
                           args.trace, provenance)
        print("\n".join(lines), flush=True)
        return

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    results = {}
    for w in names:
        lines, result = run_one(exe, spec, w, args.seed, args.seconds, args.trace,
                                provenance)
        print("\n".join(lines[:-1]), flush=True)
        results[w] = result
    print(f"\nsummary (seed {args.seed}, {args.seconds} s per workload, "
          f"{'traced' if args.trace else 'untraced'})")
    metric_names = list(next(iter(results.values()))["metrics"])
    width = max(len(n) for n in metric_names)
    print(f"{'metric':<{width}}  {'unit':<6}" + "".join(f"{w:>18}" for w in names))
    for n in metric_names:
        row = "".join(f"{results[w]['metrics'][n]['value']:>18.4f}" for w in names)
        print(f"{n:<{width}}  {units[n]:<6}{row}")
    for w in names:
        r = results[w]
        print(f"{w}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")


if __name__ == "__main__":
    main()
