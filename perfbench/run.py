#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

    python3 perfbench/run.py --workload kernels-exec --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --write-reference

Run from the repository root. Builds `sxed` with the repository's own
workspace and the `perfbench` binary with its own, both into
$CARGO_TARGET_DIR (default `.bench_build`), runs the workload, writes the
full record (every metric with unit and sample count, plus the host, the
commit and the seed) to perfbench/out/, prints it as a table, and prints
as the last line the JSON summary: `correct`, `attempted`, `failed` and
the declared metrics of BENCHMARK.json (`end_to_end` for --trace 0,
`per_layer` for --trace 1).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["kernels-exec", "fuzz-compile", "serve-mixed"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build(target_dir):
    """Build sxed (repository workspace) and perfbench (its own)."""
    for need in ["Cargo.toml", "Cargo.lock", "crates"]:
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"no {need} beside perfbench/: run from a full checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "sxe-serve", "--bin", "sxed"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path",
         os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in steps:
        # Cargo's own output goes to stderr so stdout stays the record.
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=840)
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    return (os.path.join(target_dir, "release", "perfbench"),
            os.path.join(target_dir, "release", "sxed"))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def tree_digest():
    """SHA-256 over the sources the benchmark builds, so a record names
    the code it measured even outside a git checkout."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, f) for f in ["Cargo.toml", "Cargo.lock"]]
    for top in ["crates", "perfbench"]:
        for d, subdirs, names in os.walk(os.path.join(ROOT, top)):
            subdirs[:] = sorted(s for s in subdirs if s != "out")
            files += [os.path.join(d, n) for n in sorted(names)]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def main():
    seeds = load_json(os.path.join(HERE, "seeds.json"))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=seeds["default"])
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="regenerate perfbench/reference/kernels.tsv and exit")
    args = p.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    t0 = time.time()
    perfbench, sxed = build(target_dir)
    build_s = time.time() - t0
    if args.write_reference:
        path = os.path.join("perfbench", "reference", "kernels.tsv")
        sys.exit(subprocess.run([perfbench, "--write-reference", path], cwd=ROOT).returncode)
    if args.workload is None:
        fail("--workload is required")
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]

    out_dir = os.path.join("perfbench", "out")
    cmd = [perfbench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace), "--sxed", sxed,
           "--out", out_dir]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("the run did not finish within 170 s")
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"perfbench exited with {r.returncode}")
    result = json.loads(lines[-1])

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seeds": {"default": seeds["default"], "held_out": seeds["held_out"]},
        "trace": args.trace,
        "seconds": seconds,
        "host": {"nproc": os.cpu_count(), "cpu_model": cpu_model()},
        "commit": commit(),
        "tree_sha256": tree_digest(),
        "build_s": round(build_s, 3),
        "started_unix": int(t0),
        **result,
    }
    kind = "trace" if args.trace else "e2e"
    record_path = os.path.join(ROOT, out_dir, f"{args.workload}-{kind}-seed{args.seed}.json")
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    metrics = result["metrics"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} seconds={seconds} "
          f"host={os.cpu_count()}x {cpu_model()} commit={record['commit'][:12]}")
    for name in sorted(metrics):
        m = metrics[name]
        print(f"  {name:34} {m['value']:>16.6g} {m['unit']:8} n={m['n']:<7} {m['note']}")
    for note in result["notes"]:
        print(f"  FAILED: {note}")
    print(f"  record: {os.path.relpath(record_path, ROOT)}"
          + (f"  trace: {result['trace_file']}" if result["trace_file"] else ""))

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    summary = {}
    for d in declared:
        m = metrics.get(d["name"])
        if m is None or m["unit"] != d["unit"]:
            fail(f"metric {d['name']} missing or not in {d['unit']}")
        summary[d["name"]] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": summary}))


if __name__ == "__main__":
    main()
