//! The §4.5 memory-model behaviors Figures 2–4 rest on, asserted
//! directly: per-array `mxArray` descriptor charges in the mcc model,
//! stack-frame versus heap placement in the planned (mat2c) model, the
//! grow-only stack segment, and the GCTD-versus-none heap gap.

use matc_frontend::parser::parse_program;
use matc_gctd::GctdOptions;
use matc_runtime::mem::{BLOCK_OVERHEAD, PAGE};
use matc_vm::compile::{compile, lower_for_mcc};
use matc_vm::{MccVm, PlannedVm};

/// A fully statically-sized program: three 20×20 REAL arrays.
const STATIC_PROG: &str = "a = rand(20, 20);\nb = a + 1;\nc = b * b;\ndisp(sum(sum(c)));\n";

fn compiled(src: &str, opts: GctdOptions) -> matc_vm::compile::Compiled {
    let ast = parse_program([src]).unwrap();
    compile(&ast, opts).unwrap()
}

/// The program the mcc model runs, as `matc run --mcc` builds it: the
/// planned IR leaves out the copies between coalesced variables, so
/// under mcc a loop would never terminate.
fn unplanned(src: &str) -> matc_ir::IrProgram {
    lower_for_mcc(&parse_program([src]).unwrap()).unwrap()
}

#[test]
fn mcc_charges_descriptor_plus_payload_per_array() {
    let ir = unplanned(STATIC_PROG);
    let mut vm = MccVm::new(&ir);
    vm.run().unwrap();
    // At peak, the three 20x20 REAL arrays are live simultaneously on
    // the heap: 3 x (88-byte mxArray descriptor + 3200-byte payload),
    // each plus allocator overhead.
    let one = matc_vm::MX_HEADER + 20 * 20 * 8 + 2 * BLOCK_OVERHEAD;
    let floor = 3 * one;
    let peak = vm.mem.peak_dynamic_data();
    assert!(
        peak >= floor,
        "mcc peak {peak}B below the 3-array floor {floor}B"
    );
    // And the mcc model keeps the stack at its initial page: arrays
    // never live in the frame.
    assert!((vm.mem.avg_stack() - PAGE as f64).abs() < 1.0);
}

#[test]
fn planned_vm_stack_allocates_static_programs() {
    let c = compiled(STATIC_PROG, GctdOptions::default());
    let mut vm = PlannedVm::new(&c);
    vm.run().unwrap();
    assert_eq!(vm.plan_violations, 0);
    // Every variable is statically estimable, so the plan spends zero
    // heap; the whole working set is the fixed stack frame.
    assert_eq!(
        vm.mem.avg_heap(),
        0.0,
        "static program touched the heap:\n{:?}",
        c.plans.total_stats()
    );
    // The frame holds at least one 3200-byte array (after coalescing
    // possibly exactly one), so the stack segment grew past one page.
    assert!(vm.mem.peak_dynamic_data() >= PAGE);
}

#[test]
fn planned_vm_beats_mcc_on_average_dynamic_data() {
    // The Figure 2 direction on a static benchmark: the planned VM's
    // time-weighted dynamic data sits below the mcc model's.
    let c = compiled(STATIC_PROG, GctdOptions::default());
    let mut planned = PlannedVm::new(&c);
    planned.run().unwrap();
    let ir = unplanned(STATIC_PROG);
    let mut mcc = MccVm::new(&ir);
    mcc.run().unwrap();
    assert!(
        planned.mem.avg_dynamic_data() < mcc.mem.avg_dynamic_data(),
        "planned {} >= mcc {}",
        planned.mem.avg_dynamic_data(),
        mcc.mem.avg_dynamic_data()
    );
}

#[test]
fn gctd_plan_uses_no_more_storage_than_no_gctd() {
    // A fiff-like rotation keeps three arrays live in sequence; with
    // coalescing they fold into fewer slots, without it each SSA
    // version gets its own storage.
    let src = "u0 = rand(30, 30);\nu1 = u0 + 1;\nfor t = 1:5\n  u2 = u1 .* 2 - u0;\n  u0 = u1;\n  u1 = u2;\nend\ndisp(sum(sum(u1)));\n";
    let with = compiled(src, GctdOptions::default());
    let without = compiled(
        src,
        GctdOptions {
            coalesce: false,
            ..GctdOptions::default()
        },
    );
    let mut a = PlannedVm::new(&with);
    let out_a = a.run().unwrap();
    let mut b = PlannedVm::new(&without);
    let out_b = b.run().unwrap();
    assert_eq!(out_a, out_b, "plans changed observable behavior");
    // The mcc model runs the loop to the same output.
    let ir = unplanned(src);
    assert_eq!(MccVm::new(&ir).run().unwrap(), out_a);
    assert!(
        a.mem.peak_dynamic_data() <= b.mem.peak_dynamic_data(),
        "GCTD peak {} exceeds no-GCTD peak {}",
        a.mem.peak_dynamic_data(),
        b.mem.peak_dynamic_data()
    );
    assert!(
        a.mem.avg_dynamic_data() < b.mem.avg_dynamic_data(),
        "GCTD avg {} not below no-GCTD avg {}",
        a.mem.avg_dynamic_data(),
        b.mem.avg_dynamic_data()
    );
}

#[test]
fn stack_segment_never_shrinks() {
    // Solaris semantics (§4.5.1): the stack segment is a high watermark.
    // After a deep call returns, the planned VM's segment stays grown.
    // 9 live frames x 3200-byte arrays comfortably exceed one 8 KB page.
    let src = "function main()\nx = go(8);\ndisp(x);\ny = 1 + 1;\ndisp(y);\n\nfunction r = go(k)\nif k <= 0\n  r = 0;\nelse\n  a = rand(20, 20);\n  r = go(k - 1) + sum(sum(a));\nend\n";
    let c = compiled(src, GctdOptions::default());
    let mut vm = PlannedVm::new(&c);
    vm.run().unwrap();
    let samples = vm.mem.samples();
    let peak_stack = samples.iter().map(|s| s.stack).max().unwrap();
    let last_stack = samples.last().unwrap().stack;
    assert_eq!(
        last_stack, peak_stack,
        "stack segment shrank from {peak_stack} to {last_stack}"
    );
    assert!(peak_stack > PAGE, "recursion never grew the segment");
}
