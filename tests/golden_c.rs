//! Golden C snapshots for the 11 benchsuite programs.
//!
//! Each benchmark's emitted C (default options, test preset) is pinned
//! byte-for-byte under `tests/golden/`. Any change to the frontend,
//! the optimizer, GCTD or the backend that alters generated code shows
//! up here as a reviewable diff. To accept an intentional change:
//!
//! ```text
//! BLESS=1 cargo test --test golden_c
//! ```
//!
//! and commit the regenerated files.

use matc::batch::{bench_units, compile_unit};
use matc::benchsuite::Preset;
use matc::gctd::GctdOptions;
use std::path::Path;

#[test]
fn benchsuite_c_matches_golden_snapshots() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let bless = std::env::var_os("BLESS").is_some();
    if bless {
        std::fs::create_dir_all(&dir).unwrap();
    }
    let mut mismatches = Vec::new();
    let mut library_calls = 0;
    for unit in bench_units(Preset::Test) {
        let out = compile_unit(&unit, GctdOptions::default(), None);
        let c = out
            .artifact
            .unwrap_or_else(|| panic!("`{}` failed: {:?}", unit.name, out.metrics.error))
            .c_code
            .clone();
        library_calls += c.matches("mrt_op(").count() + c.matches("mrt_opv(").count();
        let path = dir.join(format!("{}.c", unit.name));
        if bless {
            std::fs::write(&path, &c).unwrap();
            continue;
        }
        match std::fs::read_to_string(&path) {
            Ok(golden) if golden == c => {}
            Ok(golden) => {
                let diff_line = golden
                    .lines()
                    .zip(c.lines())
                    .position(|(g, n)| g != n)
                    .map_or(golden.lines().count().min(c.lines().count()) + 1, |i| i + 1);
                mismatches.push(format!(
                    "{}: differs from {} starting at line {} ({} -> {} bytes)",
                    unit.name,
                    path.display(),
                    diff_line,
                    golden.len(),
                    c.len()
                ));
            }
            Err(e) => mismatches.push(format!(
                "{}: cannot read {}: {e}",
                unit.name,
                path.display()
            )),
        }
    }
    // Typed scalars are plain C: the 11 programs made 647 runtime op
    // calls when every scalar operation went through `mrt_op`.
    assert!(
        library_calls < 647,
        "{library_calls} mrt_op/mrt_opv calls in the goldens"
    );
    assert!(
        mismatches.is_empty(),
        "golden C mismatch (rerun with BLESS=1 to accept):\n{}",
        mismatches.join("\n")
    );
}
