//! Inputs and reference outputs: the compile corpus, the golden C
//! snapshots the compiler is pinned to, and the interpreter-blessed
//! outputs of the Paper-preset programs.

use matc::batch::{bench_units, Unit};
use matc::benchsuite::{paper_scale_multi_sources, paper_scale_source, Preset, PAPER_SCALE_STAGES};
use matc::frontend::parse_program;
use matc::vm::Interp;
use std::path::{Path, PathBuf};

/// Name of the single-function stress unit.
pub const PAPER_SCALE: &str = "paper_scale";
/// Name of the 9-function incremental unit.
pub const PAPER_SCALE_MULTI: &str = "paper_scale_multi";
/// The leaf a `paper_scale_multi` tweak edits (the only function a
/// warm store must re-plan).
pub const EDITED_LEAF: &str = "ps_leaf_0";

/// The repository checkout the benchmark was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

/// Where result files, span files and native builds go.
pub fn out_dir() -> PathBuf {
    repo_root().join("target").join("benchmark")
}

/// The compile-batch corpus: the 11 Test-preset programs, then the
/// `paper_scale` stress unit and the 9-function `paper_scale_multi`.
pub fn compile_units() -> Vec<Unit> {
    let mut units = bench_units(Preset::Test);
    units.push(Unit::new(
        PAPER_SCALE,
        vec![paper_scale_source(PAPER_SCALE_STAGES)],
    ));
    units.push(edit_unit(0));
    units
}

/// `paper_scale_multi` with leaf 0 edited by `tweak` (0 is pristine).
pub fn edit_unit(tweak: u32) -> Unit {
    Unit::new(
        PAPER_SCALE_MULTI,
        paper_scale_multi_sources(PAPER_SCALE_STAGES, tweak),
    )
}

/// The golden C snapshot of a Test-preset program (`tests/golden`),
/// or `None` for units that have none.
pub fn golden_c(name: &str) -> Option<String> {
    std::fs::read_to_string(repo_root().join("tests/golden").join(format!("{name}.c"))).ok()
}

/// Path of a program's interpreter-blessed Paper-preset output.
pub fn expected_path(bench: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{bench}.paper.out"))
}

/// Reads a program's expected Paper-preset output.
///
/// # Errors
///
/// Says how to create the file when it is missing.
pub fn expected_output(bench: &str) -> Result<String, String> {
    let path = expected_path(bench);
    std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "{}: {e} (regenerate with `benchmark --bless-expected`)",
            path.display()
        )
    })
}

/// Regenerates every expected output with the reference interpreter,
/// which is independent of the compiler under test, and returns the
/// files written.
///
/// # Errors
///
/// Returns the first parse, run or write failure.
pub fn bless_expected() -> Result<Vec<PathBuf>, String> {
    let mut written = Vec::new();
    for bench in matc::benchsuite::all() {
        let sources = bench.sources(Preset::Paper);
        let ast = parse_program(sources.iter().map(String::as_str))
            .map_err(|e| format!("{}: {}", bench.name, e.render(&sources[0])))?;
        let out = Interp::new(&ast)
            .run()
            .map_err(|e| format!("{}: interpreter failed: {e}", bench.name))?;
        let path = expected_path(bench.name);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
        written.push(path);
    }
    Ok(written)
}
