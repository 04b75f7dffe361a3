//! Paper-scale end-to-end validation (minutes of runtime — run with
//! `cargo test --release --test paper_scale -- --ignored`).
//!
//! The regular suite exercises everything at the test preset; this one
//! repeats the differential checks at the evaluation sizes of §4
//! (fiff on 451×451 grids, etc.), which is also what the report binary
//! measures.
//!
//! It also pins the planned VM's Equation 2 averages at those sizes in
//! `tests/golden/paper_eq2.txt`: per program, the time-weighted stack
//! and heap averages as exact `f64` bits and a clean plan. To accept an
//! intentional change:
//!
//! ```text
//! BLESS=1 cargo test --release --test paper_scale -- --ignored
//! ```

use matc::benchsuite::{all, Preset};
use matc::frontend::parse_program;
use matc::gctd::GctdOptions;
use matc::vm::compile::compile;
use matc::vm::{Interp, PlannedVm};
use std::fmt::Write as _;
use std::path::Path;

#[test]
#[ignore = "paper-scale sizes; run explicitly with --ignored in release"]
fn paper_scale_differential() {
    for bench in all() {
        let sources = bench.sources(Preset::Paper);
        let refs: Vec<&str> = sources.iter().map(|s| s.as_str()).collect();
        let ast = parse_program(refs).unwrap();
        let mut interp = Interp::new(&ast);
        let want = interp
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        let compiled = compile(&ast, GctdOptions::default()).unwrap();
        let mut vm = PlannedVm::new(&compiled);
        let got = vm.run().unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        assert_eq!(got, want, "{}", bench.name);
        assert_eq!(vm.plan_violations, 0, "{}", bench.name);
    }
}

/// The Equation 2 half of Table 2/Figure 2 at the Paper preset: one line
/// per program with `avg_stack` and `avg_heap` (bytes) as `f64` bits,
/// their decimal rendering, and the plan-violation count.
#[test]
#[ignore = "paper-scale sizes; run explicitly with --ignored in release"]
fn paper_eq2_matches_golden() {
    let mut text = String::new();
    for bench in all() {
        let sources = bench.sources(Preset::Paper);
        let ast = parse_program(sources.iter().map(String::as_str)).unwrap();
        let compiled = compile(&ast, GctdOptions::default()).unwrap();
        let mut vm = PlannedVm::new(&compiled);
        vm.run().unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        assert_eq!(vm.plan_violations, 0, "{}", bench.name);
        let (stack, heap) = (vm.mem.avg_stack(), vm.mem.avg_heap());
        let _ = writeln!(
            text,
            "{} avg_stack={:016x} ({stack:.6}) avg_heap={:016x} ({heap:.6}) plan_violations={}",
            bench.name,
            stack.to_bits(),
            heap.to_bits(),
            vm.plan_violations
        );
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/paper_eq2.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &text).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert_eq!(golden, text, "Paper-preset Equation 2 moved");
}
