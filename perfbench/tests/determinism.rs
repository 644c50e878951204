//! Counted metrics repeat exactly: two runs of the same seed give the
//! same dynamic extension share, machine-code bytes, dynamic
//! instructions, `core.*` counts and `ir.insts.*` sizes.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (a debug build works but runs the kernels slowly).

use std::time::Instant;

use perfbench::compile::{self, Tally};
use perfbench::exec::{self, Engines};
use perfbench::inputs::{self, Workload};
use perfbench::trace::Tracer;

/// The counted metrics of one minimal run (one round of each layer).
fn counted(workload: Workload, seed: u64) -> Vec<(String, f64)> {
    let reference = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/reference/kernels.tsv"
    ))
    .expect("reference file");
    let inputs = inputs::build(workload, seed, &reference).expect("inputs");
    let (mut tracer, mut tally) = (Tracer::new(true), Tally::default());
    let now = Instant::now();
    let mut m = compile::layer(&inputs, now, &mut tracer, &mut tally);
    m.extend(exec::layer(&inputs.exec, now, &mut tracer, &mut tally));
    let mut phase = exec::Phase::new(Engines::build(&inputs.exec));
    phase.step(now, &mut tally);
    m.extend(phase.finish());
    assert_eq!(tally.failed, 0, "{workload}: {:?}", tally.notes);
    m.0.into_iter()
        .filter(|(k, v)| {
            let counted = k == "dyn_ext32_remaining_pct"
                || k == "native_code_bytes"
                || k == "vm.dyn_insts"
                || k.starts_with("ir.insts.")
                || (k.starts_with("core.") && !k.ends_with("_ns"));
            counted && v.unit != "ns"
        })
        .map(|(k, v)| (k, v.value))
        .collect()
}

#[test]
fn counted_metrics_repeat_exactly() {
    for workload in Workload::ALL {
        let first = counted(workload, 5);
        assert_eq!(
            first.len(),
            14,
            "{workload}: counted metrics missing: {first:?}"
        );
        assert!(
            first.iter().any(|(k, v)| k == "vm.dyn_insts" && *v > 0.0),
            "{workload}: nothing executed"
        );
        assert_eq!(
            first,
            counted(workload, 5),
            "{workload}: counted metrics differ between runs"
        );
    }
}

#[test]
fn seeds_change_generated_inputs_only() {
    let reference = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/reference/kernels.tsv"
    ))
    .expect("reference file");
    let a = inputs::build(Workload::FuzzCompile, 1, &reference).expect("inputs");
    let b = inputs::build(Workload::FuzzCompile, 2, &reference).expect("inputs");
    assert_ne!(
        a.compile[0].1, b.compile[0].1,
        "the seed must draw the corpus"
    );
    let k1 = inputs::build(Workload::KernelsExec, 1, &reference).expect("inputs");
    let k2 = inputs::build(Workload::KernelsExec, 2, &reference).expect("inputs");
    assert_eq!(
        k1.compile, k2.compile,
        "kernels are fixed programs at fixed sizes"
    );
}
