//! The `matc cache-bench` gate: proves the incremental-compilation
//! story end to end on the multi-function `paper_scale` unit
//! (DESIGN.md §12).
//!
//! The scenario is the one the artifact store exists for: a cold
//! compile populates the fragment store, one function of the unit is
//! edited, and the warm recompile must re-plan exactly that function —
//! every untouched function's fragment comes back from the store, and
//! the stitched artifact is byte-identical to an uncached compile of
//! the edited unit. The gate fails if any fragment is spuriously
//! invalidated (partial-hit counter below `functions − 1`), if a stale
//! fragment is reused (bytes differ from the uncached reference), or if
//! the store quarantined anything on a healthy disk.

use crate::batch::{artifact_bytes, run_batch, BatchConfig, Unit};
use crate::benchsuite::{paper_scale_multi_sources, PAPER_SCALE_MULTI_LEAVES};
use crate::gctd::{ArtifactCache, CacheOutcome, GctdOptions};
use std::path::PathBuf;
use std::time::Instant;

/// Stage count used by the gate (matches the benchmark corpus's
/// `paper_scale`).
pub const CACHE_BENCH_STAGES: usize = 80;

/// Options for [`run_gate`].
#[derive(Debug, Clone)]
pub struct CacheBenchOptions {
    /// Stage count for the generated unit.
    pub stages: usize,
    /// Store directory; `None` uses a fresh temp directory, removed on
    /// success.
    pub cache_dir: Option<PathBuf>,
}

impl Default for CacheBenchOptions {
    fn default() -> Self {
        CacheBenchOptions {
            stages: CACHE_BENCH_STAGES,
            cache_dir: None,
        }
    }
}

/// Runs the incremental-compilation gate. `Ok` carries the printable
/// report; `Err` carries the first violated invariant.
pub fn run_gate(opts: &CacheBenchOptions) -> Result<String, String> {
    let dir = opts.cache_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("matc-cache-bench-{}", std::process::id()))
    });
    let ephemeral = opts.cache_dir.is_none();
    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    }
    let cache =
        ArtifactCache::at_dir(&dir).map_err(|e| format!("cannot open store {dir:?}: {e}"))?;
    let cfg = BatchConfig {
        jobs: 1,
        options: GctdOptions::default(),
        ..BatchConfig::default()
    };
    let funcs = (PAPER_SCALE_MULTI_LEAVES + 1) as u64;

    // Cold: populate the store.
    let base = Unit::new(
        "paper_scale_multi",
        paper_scale_multi_sources(opts.stages, 0),
    );
    let t = Instant::now();
    let cold = run_batch(std::slice::from_ref(&base), &cfg, Some(&cache));
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;
    if cold.failed() != 0 {
        return Err("cold compile failed".into());
    }
    if cold.report.cache_misses != 1 {
        return Err(format!(
            "cold compile should miss once, saw {} misses",
            cold.report.cache_misses
        ));
    }

    // Edit one function; warm recompile over the populated store.
    let edited = Unit::new(
        "paper_scale_multi",
        paper_scale_multi_sources(opts.stages, 1),
    );
    let t = Instant::now();
    let warm = run_batch(std::slice::from_ref(&edited), &cfg, Some(&cache));
    let warm_ms = t.elapsed().as_secs_f64() * 1e3;
    if warm.failed() != 0 {
        return Err("warm recompile failed".into());
    }
    if warm.outcomes[0].metrics.cache != CacheOutcome::Partial {
        return Err(format!(
            "warm recompile should be a partial hit, saw {:?}",
            warm.outcomes[0].metrics.cache
        ));
    }
    if warm.report.cache_partial_hits != funcs - 1 {
        return Err(format!(
            "spurious fragment invalidation: {} of {} untouched fragments reused",
            warm.report.cache_partial_hits,
            funcs - 1
        ));
    }
    if warm.report.cache_frag_misses != 1 {
        return Err(format!(
            "exactly the edited function should recompile, saw {} fragment misses",
            warm.report.cache_frag_misses
        ));
    }
    if warm.report.cache_quarantined != 0 {
        return Err(format!(
            "{} files quarantined on a healthy store",
            warm.report.cache_quarantined
        ));
    }

    // The stitched artifact must match an uncached compile bit for bit.
    let t = Instant::now();
    let fresh = run_batch(std::slice::from_ref(&edited), &cfg, None);
    let fresh_ms = t.elapsed().as_secs_f64() * 1e3;
    if artifact_bytes(&warm) != artifact_bytes(&fresh) {
        return Err("stitched partial-hit artifact differs from an uncached compile".into());
    }

    // The warm recompile republished the edited unit: a rerun is a
    // whole-unit hit.
    let rerun = run_batch(std::slice::from_ref(&edited), &cfg, Some(&cache));
    if rerun.report.cache_hits != 1 {
        return Err("recompiled unit was not republished to the store".into());
    }
    if artifact_bytes(&rerun) != artifact_bytes(&fresh) {
        return Err("republished artifact differs from the uncached reference".into());
    }

    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(format!(
        "cache-bench: PASS ({} stages, {} functions)\n\
         cold compile        {cold_ms:8.1} ms  (store populated)\n\
         warm after 1 edit   {warm_ms:8.1} ms  ({} fragments reused, 1 re-planned)\n\
         uncached reference  {fresh_ms:8.1} ms  (byte-identical to stitched artifact)\n",
        opts.stages,
        funcs,
        funcs - 1,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_passes_on_a_healthy_store() {
        let report = run_gate(&CacheBenchOptions {
            stages: 16,
            cache_dir: None,
        })
        .unwrap();
        assert!(report.starts_with("cache-bench: PASS"), "{report}");
        assert!(
            report.contains("8 fragments reused, 1 re-planned"),
            "{report}"
        );
    }
}
