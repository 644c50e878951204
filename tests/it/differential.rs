//! Differential property tests: every algorithm variant, on both
//! targets, must preserve the observable behaviour of randomly generated
//! programs — return value, heap contents, and trap kind. The VM's
//! machine model makes any unsound elimination visible (wrong values
//! through `i2d`/64-bit compares, or a `WildAddress` fault on array
//! accesses), so this is a direct soundness check of the paper's
//! algorithm and of our general optimizer.

use sxe_core::Variant;
use sxe_ir::Target;
use xelim_integration_tests::{compile_run, gen};

const FUEL: u64 = 2_000_000;
const CASES: usize = 64;

fn check_all_variants(p: &gen::Program, target: Target) {
    let m = gen::lower(p);
    let (reference, _) = compile_run(&m, Variant::Baseline, target, "main", &[], FUEL);
    for v in Variant::ALL {
        let (key, _) = compile_run(&m, v, target, "main", &[], FUEL);
        assert_eq!(reference, key, "{v} diverged on {target}\nprogram: {p:?}");
    }
}

#[test]
fn zext_elimination_preserves_semantics() {
    use sxe_jit::Compiler;
    use sxe_vm::Vm;
    for (i, p) in gen::program_corpus(0xd1ff_0001, CASES) {
        let m = gen::lower(&p);
        let (reference, _) =
            compile_run(&m, Variant::Baseline, Target::Ia64, "main", &[], FUEL);
        let mut compiler = Compiler::for_variant(Variant::All);
        compiler.sxe.eliminate_zext = true;
        let compiled = compiler.try_compile(&m).expect("compiles");
        let mut vm =
            Vm::builder(&compiled.module).target(Target::Ia64).fuel(FUEL).build();
        let key = match vm.run("main", &[]) {
            Ok(out) => xelim_integration_tests::RunKey {
                ret: out.ret,
                heap: Some(out.heap_checksum),
                trap: None,
            },
            Err(e) => {
                xelim_integration_tests::RunKey { ret: None, heap: None, trap: e.trap_kind() }
            }
        };
        assert_eq!(reference, key, "zext elimination diverged on case {i}: {p:?}");
    }
}

#[test]
fn variants_preserve_semantics_ia64() {
    for (_, p) in gen::program_corpus(0xd1ff_0002, CASES) {
        check_all_variants(&p, Target::Ia64);
    }
}

#[test]
fn variants_preserve_semantics_ppc64() {
    for (_, p) in gen::program_corpus(0xd1ff_0003, CASES) {
        check_all_variants(&p, Target::Ppc64);
    }
}

#[test]
fn optimized_never_executes_more_extends() {
    for (_, p) in gen::program_corpus(0xd1ff_0004, CASES) {
        let m = gen::lower(&p);
        let (bkey, baseline) =
            compile_run(&m, Variant::Baseline, Target::Ia64, "main", &[], FUEL);
        // Only compare when the run completes (traps cut execution short
        // at arbitrary points).
        if bkey.trap.is_some() {
            continue;
        }
        let (_, all) = compile_run(&m, Variant::All, Target::Ia64, "main", &[], FUEL);
        assert!(all <= baseline, "dynamic extends grew: baseline={baseline} all={all}");
    }
}

/// `f0(args)` of a fixture module on the tree engine, compiled by every
/// variant: each must agree with Baseline, whose outcome is returned.
fn fixture_agrees_with_baseline(
    source: &str,
    args: &[i64],
) -> Result<(Option<i64>, u64), Option<sxe_ir::TrapKind>> {
    use sxe_jit::Compiler;
    use sxe_vm::{Engine, Vm};
    let m = sxe_ir::parse_module(source).unwrap();
    let run = |v: Variant| {
        let compiled = Compiler::for_variant(v).try_compile(&m).expect("compiles");
        let mut vm = Vm::builder(&compiled.module).engine(Engine::Tree).fuel(FUEL).build();
        vm.run("f0", args).map(|o| (o.ret, o.heap_checksum)).map_err(|e| e.trap_kind())
    };
    let reference = run(Variant::Baseline);
    for v in Variant::ALL {
        assert_eq!(run(v), reference, "{v} diverged from Baseline on f0{args:?}");
    }
    reference
}

/// A generated module whose `f0` divides the result of a call to an
/// `i64`-returning function (`r1 = div.i32 r7, r4`, `r7` wide) and then
/// compares the quotient as a 64-bit value. The call result is not
/// sign-extended, so neither is the quotient, and the extension after the
/// division must stay: without it the array variants trap ("index out of
/// bounds") where the Baseline compile returns.
#[test]
fn wide_call_result_keeps_the_division_extension() {
    let reference =
        fixture_agrees_with_baseline(include_str!("fixtures/wide-call-div.sxir"), &[30, 2]);
    assert!(reference.is_ok(), "the Baseline compile returns: {reference:?}");
}

/// A generated module whose `f0` passes an `i64` register to `@f3`'s two
/// `i32` parameters (`call @f3(r5, r5)`), and `@f3` divides by its
/// first parameter's running quotient. Narrow arguments cross a call
/// sign-extended, so the low 32 bits of `r5` divide to zero and the
/// second division traps. Before conversion extended such arguments,
/// the Baseline compile divided the full 64-bit value and returned,
/// while the insertion variants extended it inside the inlined body and
/// trapped.
#[test]
fn wide_call_argument_is_extended_at_the_call() {
    let reference =
        fixture_agrees_with_baseline(include_str!("fixtures/wide-call-arg-div.sxir"), &[30]);
    assert_eq!(reference, Err(Some(sxe_ir::TrapKind::DivisionByZero)));
}
