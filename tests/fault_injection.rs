//! The seeded fault-injection matrix of DESIGN.md §7.
//!
//! Fifty seed-derived [`matc::gctd::FaultPlan`]s (covering quiet,
//! single-site and multi-site configurations — see
//! `FaultPlan::from_seed`) are driven through the parallel batch
//! pipeline with a disk cache. For every seed, every ladder rung must
//! land in exactly one of three lawful states:
//!
//! * **pristine** — no degradation, no budget event: the artifact is
//!   byte-identical to the fault-free reference;
//! * **degraded** — the unit still compiled, its emitted plan passed
//!   the audit (zero audit errors), and the degradation is recorded in
//!   the metrics and visible in the stats JSON;
//! * **failed** — a structured error message, no artifact.
//!
//! Never a hang (the test itself would time out), and never a wrong
//! artifact cached: after each faulty run, a *clean* pass over the same
//! cache directory must reproduce the fault-free reference bytes for
//! every unit.
//!
//! A second fifty-seed matrix (`FaultPlan::store_from_seed`) targets
//! the artifact store itself — fragment bit-rot on the way to disk,
//! torn manifest publishes, writer death between the fragment writes
//! and the manifest rename — and pins the self-healing story: corrupt
//! files are quarantined (never silently reused), recompiles heal the
//! store in place, and a healed store serves every unit as a clean,
//! byte-correct hit. A separate harness SIGKILLs real `matc batch`
//! processes mid-commit and proves a fresh process always sees either
//! the complete old unit or a clean miss — never a hybrid.

use matc::batch::{artifact_bytes, run_batch, BatchConfig, Unit};
use matc::gctd::{ArtifactCache, FaultPlan};
use std::path::PathBuf;

/// Small two-function units: cheap enough for a 50×2-run matrix in
/// debug builds, but with a helper function so the per-function plan
/// and audit probes have more than one key to fire on.
fn matrix_units() -> Vec<Unit> {
    (0..6)
        .map(|i| {
            let driver = format!(
                "function f()\na = rand(3, 3);\nb = g(a);\ns = 0;\nfor i = 1:{}\ns = s + i;\nend\nb(4, 4) = s;\nfprintf('%.6f\\n', sum(sum(b)));\n",
                5 + i
            );
            let helper = "function y = g(x)\ny = x' * x;\ny = y + 1;\n".to_string();
            Unit::new(format!("fi{i}"), vec![driver, helper])
        })
        .collect()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("matc-fault-matrix-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn fifty_seed_matrix_degrades_or_fails_but_never_lies() {
    let units = matrix_units();
    let reference = artifact_bytes(&run_batch(&units, &BatchConfig::default(), None));
    assert!(reference.iter().all(|b| b.is_some()), "units are healthy");

    for seed in 0..50u64 {
        let plan = FaultPlan::from_seed(seed);
        let dir = scratch_dir(&seed.to_string());
        let cache = ArtifactCache::at_dir(&dir).unwrap().with_faults(plan);
        let cfg = BatchConfig {
            jobs: 3,
            faults: Some(plan),
            ..BatchConfig::default()
        };
        let res = run_batch(&units, &cfg, Some(&cache));
        assert_eq!(
            res.outcomes.len(),
            units.len(),
            "seed {seed}: queue drained"
        );

        for (i, o) in res.outcomes.iter().enumerate() {
            let m = &o.metrics;
            if let Some(err) = &m.error {
                // Failed: structured message, no artifact.
                assert!(o.artifact.is_none(), "seed {seed}/{}: {err}", o.name);
                assert!(!err.is_empty());
                continue;
            }
            let a = o
                .artifact
                .as_ref()
                .unwrap_or_else(|| panic!("seed {seed}/{}: ok unit lacks artifact", o.name));
            // Degraded or pristine, the emitted plan is always audited.
            assert_eq!(
                a.audit_errors(),
                0,
                "seed {seed}/{}: emitted plan failed its audit\n{}",
                o.name,
                a.audit_json
            );
            if m.degradations.is_empty() && m.budget_exceeded.is_empty() {
                assert_eq!(
                    Some(a.to_bytes()),
                    reference[i],
                    "seed {seed}/{}: unfaulted unit drifted from the reference",
                    o.name
                );
            } else {
                // Degradations must be visible in the stats document.
                let j = matc::stats::unit_json(m).render();
                assert!(
                    j.contains("\"status\":\"degraded\"") || !m.budget_exceeded.is_empty(),
                    "seed {seed}/{}: degradation invisible in JSON: {j}",
                    o.name
                );
            }
        }
        let report_json = matc::stats::batch_document(&res.report);
        assert!(
            report_json.starts_with("{\"schema\":9,\"kind\":\"batch\","),
            "seed {seed}: stats schema drifted"
        );

        // A clean pass over the same cache directory must serve only
        // byte-correct artifacts: anything degraded, torn or failed in
        // the faulty run must have stayed out of the cache.
        let clean_cache = ArtifactCache::at_dir(&dir).unwrap();
        let clean = run_batch(&units, &BatchConfig::default(), Some(&clean_cache));
        assert_eq!(
            artifact_bytes(&clean),
            reference,
            "seed {seed}: the cache served a wrong artifact after the faulty run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn store_chaos_matrix_quarantines_heals_and_never_poisons() {
    // Fifty seed-derived store-fault plans (fragment corruption, torn
    // manifests, writer death mid-commit, plus torn manifest and
    // fragment reads on some seeds). Store faults never touch the pipeline, so *every* faulty
    // run must still produce reference bytes for every unit — the store
    // degrades to recompiles, never to wrong artifacts. Afterwards a
    // clean pass must quarantine whatever rotted (with one structured
    // warning per file), heal the store by republishing, and leave a
    // second clean pass serving every unit as a byte-correct hit.
    let units = matrix_units();
    let reference = artifact_bytes(&run_batch(&units, &BatchConfig::default(), None));
    let mut saw_quarantine = false;

    for seed in 0..50u64 {
        let plan = FaultPlan::store_from_seed(seed);
        let dir = scratch_dir(&format!("store-{seed}"));
        let cfg = BatchConfig {
            jobs: 3,
            faults: Some(plan),
            ..BatchConfig::default()
        };
        // Two faulty rounds over one store: round 2 reads back whatever
        // rot round 1 committed to disk.
        let faulty_cache = ArtifactCache::at_dir(&dir).unwrap().with_faults(plan);
        for round in 1..=2 {
            let res = run_batch(&units, &cfg, Some(&faulty_cache));
            assert_eq!(
                artifact_bytes(&res),
                reference,
                "seed {seed} round {round}: store faults changed compile output"
            );
            for o in &res.outcomes {
                assert!(
                    o.metrics.error.is_none() && o.metrics.degradations.is_empty(),
                    "seed {seed} round {round}/{}: store faults must stay out of the pipeline",
                    o.name
                );
            }
        }
        drop(faulty_cache);

        // Clean pass: corrupt files are quarantined and recompiled
        // around, one structured warning per quarantined file, and the
        // served bytes are the reference.
        let clean_cache = ArtifactCache::at_dir(&dir).unwrap();
        let clean = run_batch(&units, &BatchConfig::default(), Some(&clean_cache));
        assert_eq!(
            artifact_bytes(&clean),
            reference,
            "seed {seed}: the store served a wrong artifact after the faulty rounds"
        );
        let warnings = clean_cache.drain_warnings();
        assert_eq!(
            clean.report.cache_quarantined as usize,
            warnings.len(),
            "seed {seed}: quarantine counter and warnings disagree: {warnings:?}"
        );
        if clean.report.cache_quarantined > 0 {
            saw_quarantine = true;
            let corrupt = std::fs::read_dir(dir.join("corrupt"))
                .map(|d| d.count())
                .unwrap_or(0);
            assert!(
                corrupt >= clean.report.cache_quarantined as usize,
                "seed {seed}: quarantined files missing from corrupt/"
            );
        }

        // Self-heal: the clean pass republished everything it had to
        // recompile, so a second clean instance sees a fully healthy
        // store — all hits, nothing further quarantined.
        let healed_cache = ArtifactCache::at_dir(&dir).unwrap();
        let healed = run_batch(&units, &BatchConfig::default(), Some(&healed_cache));
        assert_eq!(
            healed.report.cache_hits as usize,
            units.len(),
            "seed {seed}: store not healed in place"
        );
        assert_eq!(
            healed.report.cache_quarantined, 0,
            "seed {seed}: healed store still quarantining"
        );
        assert_eq!(artifact_bytes(&healed), reference);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        saw_quarantine,
        "no seed quarantined anything — the store matrix is not exercising corruption"
    );
}

/// Copies the published store files (`units/`, `frags/`) so each kill
/// seed starts from the same pre-populated golden store.
fn copy_store(src: &std::path::Path, dst: &std::path::Path) {
    for sub in ["units", "frags"] {
        let to = dst.join(sub);
        std::fs::create_dir_all(&to).unwrap();
        let Ok(entries) = std::fs::read_dir(src.join(sub)) else {
            continue;
        };
        for e in entries {
            let e = e.unwrap();
            std::fs::copy(e.path(), to.join(e.file_name())).unwrap();
        }
    }
}

#[test]
fn kill_mid_put_leaves_complete_old_unit_or_clean_miss() {
    // Fifty real `matc batch` OS processes, each SIGKILLed at a
    // different point of its run over a store pre-populated with the
    // *old* version of every unit. The crash-safety ordering (fragments
    // fsynced, then one atomic manifest rename) means a fresh process
    // must afterwards see, for every key, either a complete entry or a
    // clean miss: the old units all survive as byte-correct hits, the
    // new units recompile to reference bytes, and nothing — ever — is
    // quarantined, because a kill can strand debris but can never tear
    // a published file.
    let old_units = matrix_units();
    let new_units: Vec<Unit> = old_units
        .iter()
        .map(|u| {
            let mut u2 = u.clone();
            u2.sources[0] = u2.sources[0].replace("s = 0;", "s = 2;");
            u2
        })
        .collect();
    let old_reference = artifact_bytes(&run_batch(&old_units, &BatchConfig::default(), None));
    let new_reference = artifact_bytes(&run_batch(&new_units, &BatchConfig::default(), None));
    assert_ne!(old_reference, new_reference, "the edit must change bytes");

    // Golden store: the old version of every unit, published cleanly.
    let golden = scratch_dir("kill-golden");
    {
        let cache = ArtifactCache::at_dir(&golden).unwrap();
        let res = run_batch(&old_units, &BatchConfig::default(), Some(&cache));
        assert_eq!(res.failed(), 0);
    }

    // The new sources on disk, as the child processes will see them.
    let src_dir = scratch_dir("kill-src");
    std::fs::create_dir_all(&src_dir).unwrap();
    let mut specs = Vec::new();
    for (i, u) in new_units.iter().enumerate() {
        let driver = src_dir.join(format!("fi{i}.m"));
        let helper = src_dir.join(format!("h{i}.m"));
        std::fs::write(&driver, &u.sources[0]).unwrap();
        std::fs::write(&helper, &u.sources[1]).unwrap();
        specs.push(format!("{},{}", driver.display(), helper.display()));
    }

    let spawn = |cache_dir: &std::path::Path| {
        std::process::Command::new(env!("CARGO_BIN_EXE_matc"))
            .arg("batch")
            .args(["--jobs", "1", "--cache-dir"])
            .arg(cache_dir)
            .args(&specs)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .unwrap()
    };

    // Seed 0 runs to completion and calibrates the kill window; later
    // seeds die at delays spread across that window, so kills land
    // before the first publish, between publishes, and mid-write.
    let start = std::time::Instant::now();
    let full_run_us = {
        let dir = scratch_dir("kill-0");
        copy_store(&golden, &dir);
        let status = spawn(&dir).wait().unwrap();
        assert!(status.success(), "uninterrupted child failed");
        let _ = std::fs::remove_dir_all(&dir);
        start.elapsed().as_micros().max(10_000) as u64
    };

    for seed in 1..50u64 {
        let dir = scratch_dir(&format!("kill-{seed}"));
        copy_store(&golden, &dir);
        let mut child = spawn(&dir);
        std::thread::sleep(std::time::Duration::from_micros(seed * full_run_us / 49));
        let _ = child.kill();
        let _ = child.wait();

        // Fresh process over the killed store: every old unit survives
        // as a byte-correct hit…
        let cache = ArtifactCache::at_dir(&dir).unwrap();
        let old = run_batch(&old_units, &BatchConfig::default(), Some(&cache));
        assert_eq!(
            old.report.cache_hits as usize,
            old_units.len(),
            "seed {seed}: a kill mid-commit damaged a previously published unit"
        );
        assert_eq!(
            artifact_bytes(&old),
            old_reference,
            "seed {seed}: old unit bytes drifted"
        );
        // …every new unit is a complete entry or a clean miss (the
        // recompile converges to reference bytes either way), and
        // nothing is quarantined: kills strand debris, they never tear
        // a published file.
        let new = run_batch(&new_units, &BatchConfig::default(), Some(&cache));
        assert_eq!(
            artifact_bytes(&new),
            new_reference,
            "seed {seed}: new unit bytes drifted after the kill"
        );
        assert_eq!(
            old.report.cache_quarantined + new.report.cache_quarantined,
            0,
            "seed {seed}: a SIGKILL produced a torn published file"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&golden);
    let _ = std::fs::remove_dir_all(&src_dir);
}

#[test]
fn fuel_starvation_degrades_or_fails_but_never_miscompiles() {
    let units = matrix_units();
    let reference = artifact_bytes(&run_batch(&units, &BatchConfig::default(), None));

    for fuel in [1u64, 10, 100, 1_000, 100_000] {
        let cfg = BatchConfig {
            jobs: 2,
            fuel: Some(fuel),
            ..BatchConfig::default()
        };
        let res = run_batch(&units, &cfg, None);
        for (i, o) in res.outcomes.iter().enumerate() {
            let m = &o.metrics;
            if !m.ok() {
                assert!(
                    o.artifact.is_none(),
                    "fuel {fuel}/{}: failed with artifact",
                    o.name
                );
                continue;
            }
            let a = o.artifact.as_ref().expect("ok unit has artifact");
            assert_eq!(
                a.audit_errors(),
                0,
                "fuel {fuel}/{}: unaudited plan",
                o.name
            );
            if m.budget_exceeded.is_empty() {
                assert!(
                    m.degradations.is_empty(),
                    "fuel {fuel}/{}: degraded without a budget event",
                    o.name
                );
                assert_eq!(
                    Some(a.to_bytes()),
                    reference[i],
                    "fuel {fuel}/{}: untripped unit drifted from the reference",
                    o.name
                );
            }
        }
    }
}

#[test]
fn audit_fuel_starvation_degrades_identically_serial_and_parallel() {
    // Fuel levels that outlast the planner but die inside the audit
    // rung (the charges are deterministic, so the band is stable):
    // the ladder must record an "audit_budget" degradation, re-plan
    // conservatively, and land every unit in *exactly* the same state
    // whether the batch ran serial or parallel — structured events and
    // artifact bytes, not just exit codes. A budget-tripped audit must
    // also never leave a degraded artifact in the cache.
    let units = matrix_units();
    let reference = artifact_bytes(&run_batch(&units, &BatchConfig::default(), None));

    let mut saw_audit_trip = false;
    for fuel in [320u64, 350, 380] {
        let dir = scratch_dir(&format!("audit-fuel-{fuel}"));
        let cache = ArtifactCache::at_dir(&dir).unwrap();
        let serial = run_batch(
            &units,
            &BatchConfig {
                jobs: 1,
                fuel: Some(fuel),
                ..BatchConfig::default()
            },
            Some(&cache),
        );
        let parallel = run_batch(
            &units,
            &BatchConfig {
                jobs: 3,
                fuel: Some(fuel),
                ..BatchConfig::default()
            },
            None,
        );

        for (s, p) in serial.outcomes.iter().zip(&parallel.outcomes) {
            assert_eq!(s.name, p.name);
            // Same structured landing state either way: error message,
            // degradation stages, budget events, artifact bytes.
            assert_eq!(
                s.metrics.error, p.metrics.error,
                "fuel {fuel}/{}: serial and parallel disagree on failure",
                s.name
            );
            let stages = |m: &matc::gctd::UnitMetrics| -> Vec<String> {
                m.degradations.iter().map(|d| d.stage.to_string()).collect()
            };
            assert_eq!(
                stages(&s.metrics),
                stages(&p.metrics),
                "fuel {fuel}/{}: degradation ladders diverged",
                s.name
            );
            assert_eq!(
                s.metrics.budget_exceeded.len(),
                p.metrics.budget_exceeded.len(),
                "fuel {fuel}/{}: budget events diverged",
                s.name
            );
            assert_eq!(
                s.artifact.as_ref().map(|a| a.to_bytes()),
                p.artifact.as_ref().map(|a| a.to_bytes()),
                "fuel {fuel}/{}: artifacts diverged",
                s.name
            );
            if stages(&s.metrics).iter().any(|st| st == "audit_budget") {
                saw_audit_trip = true;
                // The audit rung tripped: a budget event must be on
                // record and whatever plan shipped still audits clean.
                assert!(!s.metrics.budget_exceeded.is_empty());
                if let Some(a) = &s.artifact {
                    assert_eq!(
                        a.audit_errors(),
                        0,
                        "fuel {fuel}/{}: degraded plan shipped unaudited",
                        s.name
                    );
                }
            }
        }

        // Nothing the tripped run produced may poison the cache: a
        // clean pass over the same directory serves reference bytes.
        let clean_cache = ArtifactCache::at_dir(&dir).unwrap();
        let clean = run_batch(&units, &BatchConfig::default(), Some(&clean_cache));
        assert_eq!(
            artifact_bytes(&clean),
            reference,
            "fuel {fuel}: budget-tripped audit left a wrong artifact in the cache"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        saw_audit_trip,
        "no fuel level tripped inside the audit rung — the band moved; retune the sweep"
    );
}

#[test]
fn generous_wall_clock_budget_leaves_the_pipeline_pristine() {
    // A timeout far above any phase's real cost must never fire: the
    // budgeted pipeline with headroom is byte-identical to the
    // unbudgeted one.
    let units = matrix_units();
    let reference = artifact_bytes(&run_batch(&units, &BatchConfig::default(), None));
    let cfg = BatchConfig {
        jobs: 2,
        phase_timeout_ms: Some(120_000),
        ..BatchConfig::default()
    };
    let res = run_batch(&units, &cfg, None);
    for o in &res.outcomes {
        assert!(o.metrics.ok());
        assert!(o.metrics.degradations.is_empty());
        assert!(o.metrics.budget_exceeded.is_empty());
    }
    assert_eq!(artifact_bytes(&res), reference);
}
