//! The traced layer replay must stay the production pipeline, or the
//! per-layer numbers would describe a different compiler: for every
//! compile-batch unit it must emit C byte-identical to
//! `matc::batch::compile_unit`, and its pass schedule must leave the
//! same IR as `optimize_program`.

use matc::batch::compile_unit;
use matc::frontend::parse_program;
use matc::gctd::GctdOptions;
use matc::ir::build_ssa;
use matc::passes::optimize_program;
use matc_benchmark::corpus::{compile_units, edit_unit, EDITED_LEAF};
use matc_benchmark::replay::{replay_optimize, replay_unit, Scope};
use matc_benchmark::trace::Tracer;
use std::time::Instant;

#[test]
fn replay_emits_the_production_c_for_every_unit() {
    for unit in compile_units() {
        let want = compile_unit(&unit, GctdOptions::default(), None)
            .artifact
            .unwrap_or_else(|| panic!("{} compiles", unit.name))
            .c_code
            .clone();
        let mut tr = Tracer::new(Instant::now());
        let got = replay_unit(&unit, &mut tr, Scope::Batch).expect("replay succeeds");
        assert!(
            got.c_code == want,
            "{}: replayed C differs from compile_unit",
            unit.name
        );
        assert_eq!(got.counts.audit_errors, 0, "{}", unit.name);
        assert_eq!(got.counts.c_bytes, want.len() as u64, "{}", unit.name);
    }
}

#[test]
fn replayed_pass_schedule_matches_optimize_program() {
    for unit in compile_units() {
        let ast = parse_program(unit.sources.iter().map(String::as_str)).expect("parses");
        let mut production = build_ssa(&ast).expect("lowers");
        let mut replayed = production.clone();
        let stats = optimize_program(&mut production);
        let mut tr = Tracer::new(Instant::now());
        let u = tr.unit(&unit.name);
        let rewrites = replay_optimize(&mut replayed, &mut tr, u);
        assert_eq!(
            format!("{production:?}"),
            format!("{replayed:?}"),
            "{}: replayed passes leave different IR",
            unit.name
        );
        assert_eq!(rewrites, stats.total() as u64, "{}", unit.name);
    }
}

#[test]
fn incremental_replay_recompiles_only_the_edited_leaf() {
    let mut tr = Tracer::new(Instant::now());
    replay_unit(
        &edit_unit(7),
        &mut tr,
        Scope::Incremental {
            recompile: EDITED_LEAF,
        },
    )
    .expect("replay succeeds");
    let count = |name: &str| tr.spans().iter().filter(|s| s.name == name).count();
    assert_eq!(count("cache.frag_key"), 9, "a key for every function");
    assert_eq!(count("gctd.plan"), 1, "only the edited leaf is planned");
    assert_eq!(count("analysis.audit"), 1);
}
