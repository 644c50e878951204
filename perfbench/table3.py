#!/usr/bin/env python3
"""Render the paper's Table 3 compile-time split from a traced run.

    python3 perfbench/run.py --workload fuzz-compile --trace 1
    python3 perfbench/table3.py perfbench/out/fuzz-compile-trace-seed1.json

Table 3 splits JIT compile time into the sign-extension optimizations,
UD/DU chain creation and "others". Here "others" is broken down further
into conversion, inlining, each step-2 pass, compaction, verification,
the module copy and the compiler's harness (snapshots, containment,
bookkeeping: `Compiler::compile` wall time minus the sum of its stages).
All figures are medians over the traced run's compile rounds of the
per-round sums over the workload's compile set.
"""

import json
import sys

ROWS = [
    ("sign-ext opts", ["core.insert_ns", "core.order_ns", "core.eliminate_ns"]),
    ("UD/DU chains", ["analysis.udu_ns"]),
]
OTHERS = [
    ("conversion", "core.convert_ns"),
    ("inlining", "opt.inline_ns"),
    ("copyprop", "opt.copyprop_ns"),
    ("constfold", "opt.constfold_ns"),
    ("simplify", "opt.simplify_ns"),
    ("cse", "opt.cse_ns"),
    ("licm", "opt.licm_ns"),
    ("dce", "opt.dce_ns"),
    ("compaction", "opt.compact_ns"),
    ("verify", "ir.verify_ns"),
    ("module copy", "jit.clone_ns"),
    ("harness", "jit.harness_ns"),
]


def render(record):
    m = {k: v["value"] for k, v in record["metrics"].items()}
    total = m["jit.compile_ns"]
    pct = lambda ns: 100.0 * ns / total if total else 0.0
    lines = [
        f"Table 3 view: {record['workload']} seed {record['seed']}, "
        f"{int(m.get('trace.compile_rounds', 0))} compile rounds, host {record['host']['cpu_model']}",
        f"{'':28}{'ms/round':>12}{'% compile':>11}",
    ]
    for name, keys in ROWS:
        ns = sum(m[k] for k in keys)
        lines.append(f"{name:28}{ns / 1e6:12.3f}{pct(ns):10.1f}%")
    others = sum(m[k] for _, k in OTHERS)
    lines.append(f"{'others':28}{others / 1e6:12.3f}{pct(others):10.1f}%")
    for name, key in OTHERS:
        lines.append(f"{'  ' + name:28}{m[key] / 1e6:12.3f}{pct(m[key]):10.1f}%")
    lines.append(f"{'total (Compiler::compile)':28}{total / 1e6:12.3f}{100.0:10.1f}%")
    lines.append(f"{'not a stage: flow ranges':28}{m['analysis.flowranges_ns'] / 1e6:12.3f}"
                 f"{pct(m['analysis.flowranges_ns']):10.1f}%")
    return "\n".join(lines)


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        record = json.load(f)
    if not record.get("trace"):
        sys.exit("table3: need the record of a traced run (--trace 1)")
    print(render(record))


if __name__ == "__main__":
    main()
