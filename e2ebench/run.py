#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

One run (the last stdout line is the result JSON):

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Steadiness check: N runs on seeds first..first+N-1, then each metric's
median, quartiles and quartile spread as a share of the median:

    python3 e2ebench/run.py --repeat N --workload <name> [--first-seed K]
        [--seconds S] [--trace 0|1]

Gate check: every workload run with a tampered pin or oracle triple
must fail (exit 1, result with "correct": false):

    python3 e2ebench/run.py --check-gates

Run from the repository root. The benchmark is built from source with
cargo into $CARGO_TARGET_DIR (default .bench_build).
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["linpack-stability", "rack-131k", "fig8-exchange", "serve-zipf"]


def build():
    """Build the benchmark binary; return its path, or None on failure."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"error: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "e2ebench")


def run_once(binary, args, quiet=False):
    """Run the binary once; return (exit code, parsed result or None)."""
    done = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL if quiet else None, text=True)
    out = done.stdout.strip().splitlines()
    if not quiet:
        for line in out[:-1]:
            print(line)
    try:
        result = json.loads(out[-1]) if out else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


def flag(argv, name, default=None):
    if name in argv:
        i = argv.index(name)
        if i + 1 < len(argv):
            return argv[i + 1]
    return default


def repeat(binary, argv):
    n = int(flag(argv, "--repeat"))
    workload = flag(argv, "--workload")
    first = int(flag(argv, "--first-seed", "0"))
    seconds = flag(argv, "--seconds", "10")
    trace = flag(argv, "--trace", "0")
    bounds = {}
    spec = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec):
        with open(spec) as f:
            bounds = {m["name"]: m["bound"] for m in json.load(f).get("end_to_end", [])}
    values = {}
    failed = 0
    for seed in range(first, first + n):
        code, result = run_once(binary, ["--workload", workload, "--seed", str(seed),
                                         "--seconds", seconds, "--trace", trace], quiet=True)
        if code != 0 or not result or not result.get("correct"):
            failed += 1
            print(f"seed {seed}: exit {code}, correct {result and result.get('correct')}")
            continue
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    print(f"\n{workload}: {n} runs, {failed} failed")
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        mark = "" if bound is None else f"{bound:6.2f}" + (" OVER" if spread > bound else "")
        print(f"{name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {mark}")
    return 1 if failed else 0


def check_gates(binary):
    bad = 0
    for w in WORKLOADS:
        code, result = run_once(binary, ["--workload", w, "--seed", "0", "--seconds", "1",
                                         "--trace", "0", "--tamper"], quiet=True)
        caught = code == 1 and result is not None and result.get("correct") is False
        bad += not caught
        print(f"{w}: tampered pin or oracle triple {'caught' if caught else 'NOT caught'} "
              f"(exit {code}, failed {result and result.get('failed')})")
    return 1 if bad else 0


def main():
    argv = sys.argv[1:]
    binary = build()
    if binary is None:
        return 1
    if "--repeat" in argv:
        return repeat(binary, argv)
    if "--check-gates" in argv:
        return check_gates(binary)
    return subprocess.run([binary] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
