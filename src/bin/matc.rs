//! The `matc` command-line driver: compile and run MATLAB programs with
//! GCTD storage optimization.
//!
//! ```text
//! matc run program.m [helpers.m ...]       execute under the planned VM
//! matc emit-c program.m [...]              print the C translation
//! matc plan program.m [...]                print the storage plan
//! matc stats program.m [...]               print Table-2 style statistics
//! matc audit program.m [...]               lint + re-audit the storage plan
//! matc audit-bench                         audit every benchsuite program
//! matc shadow [--bench] [files ...]        diff observed storage vs the plan
//! matc batch [units ...]                   parallel batch compilation
//! matc serve [--addr A]                    resilient compile-service daemon
//! matc request [--addr A] file.m [...]     client for a running daemon
//! matc simulate [--seeds N]                deterministic reactor simulation
//! matc perf-bench                          tracked performance gate
//! matc cache-bench                         incremental-compilation gate
//! ```
//!
//! Flags: `--no-gctd` disables coalescing (Figure 6 baseline),
//! `--seed N` sets the RNG seed, `--mcc` runs under the mcc model,
//! `--interp` runs under the reference interpreter, `--json` makes
//! `audit` emit machine-readable findings.
//!
//! `batch` units are `driver.m[,helper.m...]` groups (or `--bench` for
//! the benchsuite); see `usage()` below for its flags.

use matc::analysis::{audit_program_jobs, lint_program, Diagnostics};
use matc::batch::{bench_units, run_batch, selfcheck, BatchConfig, Unit};
use matc::cache_bench::CacheBenchOptions;
use matc::frontend::parse_program;
use matc::gctd::plan_program;
use matc::gctd::{ArtifactCache, FaultPlan, GctdOptions, UnitMetrics};
use matc::ir::Budget;
use matc::json::Json;
use matc::perf::PerfOptions;
use matc::serve::{RequestOptions, ServeConfig};
use matc::vm::compile::{compile, lower_for_mcc};
use matc::vm::compile_front;
use matc::vm::{Interp, MccVm, PlannedVm};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: matc <run|emit-c|plan|stats|audit> [--no-gctd] [--seed N] [--mcc|--interp] [--json] [--jobs N] file.m [more.m ...]\n       matc audit [--jobs N] file.m [...]\n                            lint + independently re-check the storage plan:\n                            liveness/sizing checks (A1xx-A4xx), production-\n                            vs-auditor engine agreement (A5xx), and dead\n                            resize-annotation lints (L004); --jobs fans\n                            per-function audits over N worker threads\n                            with byte-identical findings for every N\n       matc audit-bench     audit every benchsuite program's plan and print\n                            its findings; exit 1 on any error finding or\n                            lowering failure\n       matc shadow [--bench] [--seed N] [--no-gctd] [--json] [--stats FILE]\n                  [file.m[,helper.m...] ...]\n                            plan-validating shadow run: execute each unit\n                            under both the reference interpreter and the\n                            probed planned VM, replay the probe log against\n                            the storage plan, and report plan-vs-reality\n                            diffs (S100 output divergence, S101 `o` resize,\n                            S102 stack overflow — errors; S103 `+-` never\n                            resized — warning; S104 read outside liveness,\n                            S105 Equation-2 mismatch — errors); --stats\n                            writes the schema-v9 shadow{{}} stats document\n       shadow exit codes: 0 clean (warnings allowed), 1 diff or failure,\n                          2 usage\n       matc runtime <dir>   write the mrt C support runtime (mrt.h, mrt.c)\n       matc batch [--jobs N] [--cache-dir DIR] [--stats FILE] [--emit-dir DIR]\n                  [--no-gctd] [--repeat N] [--bench] [--selfcheck]\n                  [--keep-going|--fail-fast] [--phase-timeout-ms N] [--fuel N]\n                  [--faults SPEC] [driver.m[,helper.m...] ...]\n                            compile many programs in parallel with caching;\n                            --selfcheck proves parallel/sequential/cached runs\n                            byte-identical and reports the speedup;\n                            --faults takes a seeded fault-injection spec\n                            (also read from MATC_FAULTS), e.g.\n                            seed=7,read=10,write=30,panic=0,audit=100,transient=2\n       batch exit codes: 0 all units clean, 1 unit(s) failed, 2 usage,\n                         3 all compiled but some degraded to the\n                         conservative plan\n       matc serve [--addr HOST:PORT] [--jobs N] [--queue-cap N] [--high-water N]\n                  [--drain-ms N] [--idle-timeout-ms N] [--cache-dir DIR]\n                  [--breaker-threshold N] [--breaker-cooldown-ms N]\n                  [--phase-timeout-ms N] [--fuel N] [--faults SPEC] [--no-gctd]\n                  [--max-write-buf BYTES]\n                            newline-delimited-JSON compile daemon (DESIGN.md §9,\n                            §13): a single poll(2) reactor thread drives\n                            every pipelined connection, with bounded admission\n                            (shed at --queue-cap, degrade to the conservative\n                            plan at --high-water), per-request deadlines,\n                            per-unit circuit breakers, write-buffer\n                            backpressure (--max-write-buf) and graceful\n                            SIGTERM/SIGINT draining; --faults also accepts the\n                            network-chaos keys accept=,disconnect=,stall=,\n                            torn= and the store-degradation key storefull=\n       serve exit codes: 0 drained cleanly, 1 bind/drain failure, 2 usage\n       matc simulate [--seeds N] [--seed-file FILE] [--replay SEED] [--faults SPEC]\n                            deterministic simulation of the serve reactor\n                            (DESIGN.md \u{a7}14): the real reactor state machines\n                            run against an in-memory seeded network on a\n                            virtual clock; each seed derives a workload and\n                            fault schedule, runs twice, and must produce\n                            byte-identical traces while holding the five\n                            invariants (no wedge, in-order pipelining,\n                            write-buffer cap, clean drain, no cache\n                            poisoning); failures print the seed, a greedily\n                            shrunk failing configuration and the replayable\n                            trace; --replay reruns one seed and prints it\n       simulate exit codes: 0 all seeds clean, 1 violation or replay\n                            mismatch, 2 usage\n       matc request [--addr HOST:PORT] [--op compile|audit|healthz|stats|shutdown]\n                  [--name NAME] [--deadline-ms N] [--retries N] [--emit]\n                  [--pipeline N] [driver.m[,helper.m...]]\n                            one request against a running daemon, with capped\n                            jittered exponential backoff and deadline\n                            propagation; prints the response JSON;\n                            --pipeline N sends N copies down one persistent\n                            connection before reading, printing the responses\n                            in request order (no retries)\n       request exit codes: 0 server replied ok:true, 1 rejected/error, 2 usage\n       matc perf-bench [--samples N] [--warmup N] [--baseline FILE] [--bless]\n                            compile the benchsuite + paper_scale, record\n                            median phase times / fixpoint iterations /\n                            interference edges per second in BENCH_gctd.json,\n                            and fail on >25% regression vs the committed\n                            baseline (tolerance via MATC_PERF_TOLERANCE;\n                            --bless rewrites the baseline)\n       matc cache-bench [--stages N] [--cache-dir DIR]\n                            incremental-compilation gate: cold-compile the\n                            multi-function paper_scale unit, edit one\n                            function, and prove the warm recompile re-plans\n                            only that function, reuses every other cached\n                            fragment, and stitches a byte-identical artifact"
    );
    ExitCode::from(2)
}

/// The `matc batch` subcommand: its own flag grammar (unit specs are
/// comma-separated file groups, not a flat file list).
fn batch_cli(args: &[String]) -> ExitCode {
    let mut jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut cache_dir: Option<String> = None;
    let mut stats_path: Option<String> = None;
    let mut emit_dir: Option<String> = None;
    let mut bench = false;
    let mut no_gctd = false;
    let mut do_selfcheck = false;
    let mut fail_fast = false;
    let mut phase_timeout_ms: Option<u64> = None;
    let mut fuel: Option<u64> = None;
    let mut faults_spec: Option<String> = None;
    let mut repeat = 1usize;
    let mut specs: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => jobs = n,
                _ => return usage(),
            },
            "--repeat" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => repeat = n,
                _ => return usage(),
            },
            "--cache-dir" => match it.next() {
                Some(d) => cache_dir = Some(d.clone()),
                None => return usage(),
            },
            "--stats" => match it.next() {
                Some(p) => stats_path = Some(p.clone()),
                None => return usage(),
            },
            "--emit-dir" => match it.next() {
                Some(d) => emit_dir = Some(d.clone()),
                None => return usage(),
            },
            "--phase-timeout-ms" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => phase_timeout_ms = Some(n),
                _ => return usage(),
            },
            "--fuel" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => fuel = Some(n),
                _ => return usage(),
            },
            "--faults" => match it.next() {
                Some(s) => faults_spec = Some(s.clone()),
                None => return usage(),
            },
            "--bench" => bench = true,
            "--no-gctd" => no_gctd = true,
            "--selfcheck" => do_selfcheck = true,
            "--fail-fast" => fail_fast = true,
            "--keep-going" => fail_fast = false,
            s if s.starts_with("--") => return usage(),
            s => specs.push(s.to_string()),
        }
    }

    // The CLI flag wins over the MATC_FAULTS environment variable.
    let faults = match faults_spec {
        Some(spec) => match FaultPlan::parse(&spec) {
            Ok(p) => Some(p),
            Err(e) => {
                eprintln!("matc: bad --faults spec: {e}");
                return usage();
            }
        },
        None => match FaultPlan::from_env() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("matc: bad {} value: {e}", matc::gctd::FAULTS_ENV);
                return usage();
            }
        },
    };
    if let Some(p) = &faults {
        eprintln!("matc: fault injection active: {p}");
    }

    let mut units: Vec<Unit> = Vec::new();
    if bench {
        units.extend(bench_units(matc::benchsuite::Preset::Test));
    }
    for spec in &specs {
        let files: Vec<&str> = spec.split(',').collect();
        let mut sources = Vec::new();
        for f in &files {
            match std::fs::read_to_string(f) {
                Ok(s) => sources.push(s),
                Err(e) => {
                    eprintln!("matc: cannot read {f}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let name = std::path::Path::new(files[0]).file_stem().map_or_else(
            || files[0].to_string(),
            |s| s.to_string_lossy().into_owned(),
        );
        units.push(Unit::new(name, sources));
    }
    if units.is_empty() {
        eprintln!("matc: batch needs unit specs or --bench");
        return usage();
    }
    // Unit names come from the driver file stem and key the --emit-dir
    // output files; a/prog.m and b/prog.m would silently overwrite each
    // other's emitted C, so reject the collision instead.
    let mut seen = std::collections::HashSet::new();
    for u in &units {
        if !seen.insert(u.name.as_str()) {
            eprintln!(
                "matc: duplicate unit name {:?}: unit names come from the driver file stem; rename one driver or drop the duplicate",
                u.name
            );
            return ExitCode::FAILURE;
        }
    }

    let options = GctdOptions {
        coalesce: !no_gctd,
        ..GctdOptions::default()
    };

    if do_selfcheck {
        return match selfcheck(&units, jobs, options) {
            Ok(report) => {
                print!("{report}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("matc: batch selfcheck FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let cache = match &cache_dir {
        Some(d) => match ArtifactCache::at_dir(d) {
            Ok(c) => Some(match faults {
                Some(p) => c.with_faults(p),
                None => c,
            }),
            Err(e) => {
                eprintln!("matc: cannot open cache dir {d}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let config = BatchConfig {
        jobs,
        options,
        fail_fast,
        phase_timeout_ms,
        fuel,
        faults,
        deadline: None,
    };
    let mut last = None;
    let mut cache_warned = false;
    for round in 0..repeat {
        let res = run_batch(&units, &config, cache.as_ref());
        if repeat > 1 {
            println!("— round {} —", round + 1);
        }
        print!("{}", res.report.render_table());
        // The disk layer degrades at most once per process; warn once.
        if !cache_warned {
            if let Some(w) = cache.as_ref().and_then(|c| c.degradation_warning()) {
                eprintln!("matc: warning: {w}");
                cache_warned = true;
            }
        }
        // Quarantine events: each corrupt store file is reported once.
        if let Some(c) = cache.as_ref() {
            for w in c.drain_warnings() {
                eprintln!("matc: warning: {w}");
            }
        }
        last = Some(res);
    }
    let last = last.expect("repeat >= 1");

    if let Some(dir) = &emit_dir {
        let dir = std::path::Path::new(dir);
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("matc: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        for o in &last.outcomes {
            let Some(a) = &o.artifact else { continue };
            let path = dir.join(format!("{}.c", o.name));
            if let Err(e) = std::fs::write(&path, &a.c_code) {
                eprintln!("matc: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(p) = &stats_path {
        if let Err(e) = std::fs::write(p, matc::stats::batch_document(&last.report)) {
            eprintln!("matc: cannot write {p}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if last.failed() > 0 {
        ExitCode::FAILURE
    } else if last.report.degraded() > 0 {
        // Everything compiled, but some units fell back to the
        // conservative plan — distinguishable from full success.
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}

/// The `matc perf-bench` subcommand: measure the tracked perf suite and
/// bless or gate against the committed baseline (DESIGN.md §8).
fn perf_bench_cli(args: &[String]) -> ExitCode {
    let mut opts = PerfOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--samples" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => opts.samples = n,
                _ => return usage(),
            },
            "--warmup" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => opts.warmup = n,
                None => return usage(),
            },
            "--baseline" => match it.next() {
                Some(p) => opts.baseline = p.into(),
                None => return usage(),
            },
            "--bless" => opts.bless = true,
            _ => return usage(),
        }
    }
    match matc::perf::run_gate(&opts) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("matc: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `matc cache-bench` subcommand: the incremental-compilation gate
/// over the shared artifact store (DESIGN.md §12).
fn cache_bench_cli(args: &[String]) -> ExitCode {
    let mut opts = CacheBenchOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--stages" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => opts.stages = n,
                _ => return usage(),
            },
            "--cache-dir" => match it.next() {
                Some(d) => opts.cache_dir = Some(d.into()),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    match matc::cache_bench::run_gate(&opts) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("matc: cache-bench FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `matc serve` subcommand: parse flags, run the daemon to
/// completion (a signal or a `shutdown` request ends it).
fn serve_cli(args: &[String]) -> ExitCode {
    let mut cfg = ServeConfig {
        jobs: std::thread::available_parallelism().map_or(2, |n| n.get()),
        ..ServeConfig::default()
    };
    let mut faults_spec: Option<String> = None;
    let mut no_gctd = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(v) => cfg.addr = v.clone(),
                None => return usage(),
            },
            "--jobs" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => cfg.jobs = n,
                _ => return usage(),
            },
            "--queue-cap" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => cfg.queue_cap = n,
                _ => return usage(),
            },
            "--high-water" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => cfg.high_water = n,
                _ => return usage(),
            },
            "--drain-ms" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => cfg.drain_ms = n,
                None => return usage(),
            },
            "--idle-timeout-ms" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => cfg.idle_timeout_ms = n,
                _ => return usage(),
            },
            "--cache-dir" => match it.next() {
                Some(v) => cfg.cache_dir = Some(v.clone()),
                None => return usage(),
            },
            "--breaker-threshold" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => cfg.breaker.threshold = n,
                _ => return usage(),
            },
            "--breaker-cooldown-ms" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => cfg.breaker.cooldown = std::time::Duration::from_millis(n),
                None => return usage(),
            },
            "--phase-timeout-ms" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => cfg.phase_timeout_ms = Some(n),
                _ => return usage(),
            },
            "--fuel" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => cfg.fuel = Some(n),
                _ => return usage(),
            },
            "--max-write-buf" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => cfg.max_write_buf = n,
                _ => return usage(),
            },
            "--faults" => match it.next() {
                Some(v) => faults_spec = Some(v.clone()),
                None => return usage(),
            },
            "--no-gctd" => no_gctd = true,
            _ => return usage(),
        }
    }
    cfg.options = GctdOptions {
        coalesce: !no_gctd,
        ..GctdOptions::default()
    };
    cfg.faults = match faults_spec {
        Some(spec) => match FaultPlan::parse(&spec) {
            Ok(p) => Some(p),
            Err(e) => {
                eprintln!("matc: bad --faults spec: {e}");
                return usage();
            }
        },
        None => match FaultPlan::from_env() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("matc: bad {} value: {e}", matc::gctd::FAULTS_ENV);
                return usage();
            }
        },
    };
    if let Some(p) = &cfg.faults {
        eprintln!("matc: fault injection active: {p}");
    }
    match matc::serve::serve(cfg) {
        Ok(summary) => {
            eprintln!(
                "matc: served {} request(s) ({} completed, {} shed, {} load-degraded, {} quarantined, {} rejected while draining)",
                summary.admitted,
                summary.completed,
                summary.shed,
                summary.load_degraded,
                summary.breaker_rejected,
                summary.shutdown_rejected
            );
            if summary.drained_cleanly {
                ExitCode::SUCCESS
            } else {
                eprintln!("matc: drain deadline exceeded; queued request(s) were rejected");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("matc: cannot serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `matc simulate` subcommand: deterministic simulation of the
/// serve reactor (DESIGN.md §14). Runs a seeded matrix, executing
/// every seed twice and requiring byte-identical traces; on an
/// invariant violation, prints the seed, the greedily shrunk
/// configuration that still fails, and the replayable trace.
fn simulate_cli(args: &[String]) -> ExitCode {
    let mut seeds: Vec<u64> = Vec::new();
    let mut count: Option<u64> = None;
    let mut replay: Option<u64> = None;
    let mut faults_spec: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seeds" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => count = Some(n),
                _ => return usage(),
            },
            "--seed-file" => match it.next() {
                Some(path) => match std::fs::read_to_string(path) {
                    Ok(body) => {
                        for line in body.lines() {
                            let line = line.trim();
                            if line.is_empty() || line.starts_with('#') {
                                continue;
                            }
                            match line.parse() {
                                Ok(s) => seeds.push(s),
                                Err(_) => {
                                    eprintln!("matc: bad seed in {path}: {line:?}");
                                    return usage();
                                }
                            }
                        }
                    }
                    Err(e) => {
                        eprintln!("matc: cannot read {path}: {e}");
                        return usage();
                    }
                },
                None => return usage(),
            },
            "--replay" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => replay = Some(s),
                None => return usage(),
            },
            "--faults" => match it.next() {
                Some(v) => faults_spec = Some(v.clone()),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let mut tweaks = matc::sim::SimTweaks::default();
    if let Some(spec) = faults_spec {
        match FaultPlan::parse(&spec) {
            Ok(p) => tweaks.plan = Some(p),
            Err(e) => {
                eprintln!("matc: bad --faults spec: {e}");
                return usage();
            }
        }
    }

    if let Some(seed) = replay {
        let rep = matc::sim::run_seed_with(seed, &tweaks);
        println!("{}", rep.trace);
        return match rep.violation {
            Some(v) => {
                eprintln!("matc: seed {seed}: {v}");
                ExitCode::FAILURE
            }
            None => {
                eprintln!(
                    "matc: seed {seed}: clean ({} response(s), {} tick(s))",
                    rep.responses, rep.ticks
                );
                ExitCode::SUCCESS
            }
        };
    }

    if let Some(n) = count {
        seeds.extend(0..n);
    }
    if seeds.is_empty() {
        eprintln!("matc: simulate needs --seeds N, --seed-file FILE or --replay SEED");
        return usage();
    }
    seeds.sort_unstable();
    seeds.dedup();

    let started = std::time::Instant::now();
    let mut violations = 0usize;
    let mut mismatches = 0usize;
    let mut responses = 0u64;
    for &seed in &seeds {
        let a = matc::sim::run_seed_with(seed, &tweaks);
        let b = matc::sim::run_seed_with(seed, &tweaks);
        responses += a.responses;
        if a.trace != b.trace {
            mismatches += 1;
            eprintln!("matc: seed {seed}: NONDETERMINISTIC — two runs diverged");
            for (i, (la, lb)) in a.trace.lines().zip(b.trace.lines()).enumerate() {
                if la != lb {
                    eprintln!("  first divergence at trace line {i}:\n  - {la}\n  + {lb}");
                    break;
                }
            }
            continue;
        }
        if let Some(v) = &a.violation {
            violations += 1;
            eprintln!("matc: seed {seed}: {v}");
            let (shrunk, min_rep) = matc::sim::shrink(seed, &tweaks);
            eprintln!("  shrunk to: {}", matc::sim::describe_tweaks(seed, &shrunk));
            eprintln!(
                "  minimal failure: {}",
                min_rep.violation.as_deref().unwrap_or("(no longer fails)")
            );
            eprintln!("  replay: matc simulate --replay {seed}");
            for line in a.trace.lines() {
                eprintln!("  | {line}");
            }
        }
    }
    eprintln!(
        "matc: simulated {} seed(s) x2 in {:.2}s ({responses} client response(s); {} violation(s), {} replay mismatch(es))",
        seeds.len(),
        started.elapsed().as_secs_f64(),
        violations,
        mismatches
    );
    if violations + mismatches > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The `matc request` subcommand: one operation against a running
/// daemon, with retries/backoff/deadline propagation from
/// [`matc::serve::request_with_retries`].
fn request_cli(args: &[String]) -> ExitCode {
    let mut opts = RequestOptions {
        addr: "127.0.0.1:7433".to_string(),
        ..RequestOptions::default()
    };
    let mut op = "compile".to_string();
    let mut name: Option<String> = None;
    let mut emit = false;
    let mut spec: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => match it.next() {
                Some(v) => opts.addr = v.clone(),
                None => return usage(),
            },
            "--op" => match it.next() {
                Some(v) => op = v.clone(),
                None => return usage(),
            },
            "--name" => match it.next() {
                Some(v) => name = Some(v.clone()),
                None => return usage(),
            },
            "--deadline-ms" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => opts.deadline_ms = Some(n),
                _ => return usage(),
            },
            "--retries" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => opts.retries = n,
                None => return usage(),
            },
            "--pipeline" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => opts.pipeline = n,
                _ => return usage(),
            },
            "--emit" => emit = true,
            s if s.starts_with("--") => return usage(),
            s => match spec {
                None => spec = Some(s.to_string()),
                Some(_) => return usage(),
            },
        }
    }

    let mut members: Vec<(String, Json)> = vec![("op".to_string(), Json::str(op.as_str()))];
    if matches!(op.as_str(), "compile" | "audit") {
        let Some(spec) = spec else {
            eprintln!("matc: request --op {op} needs a driver.m[,helper.m...] unit spec");
            return usage();
        };
        let files: Vec<&str> = spec.split(',').collect();
        let mut sources = Vec::new();
        for f in &files {
            match std::fs::read_to_string(f) {
                Ok(s) => sources.push(Json::str(s)),
                Err(e) => {
                    eprintln!("matc: cannot read {f}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let unit_name = name.unwrap_or_else(|| {
            std::path::Path::new(files[0]).file_stem().map_or_else(
                || files[0].to_string(),
                |s| s.to_string_lossy().into_owned(),
            )
        });
        members.push(("name".to_string(), Json::str(unit_name)));
        members.push(("sources".to_string(), Json::Arr(sources)));
        if emit {
            members.push(("emit".to_string(), Json::Bool(true)));
        }
    }
    if opts.pipeline > 1 {
        // Pipelined mode: N copies of the request down one persistent
        // connection before reading anything; responses print in
        // request order. No retry loop — the point is the raw wire
        // discipline.
        let frame = Json::Obj(members).render();
        let frames = vec![frame; opts.pipeline];
        let timeout = std::time::Duration::from_millis(opts.deadline_ms.unwrap_or(120_000));
        return match matc::serve::send_pipelined(&opts.addr, &frames, timeout) {
            Ok(lines) => {
                let mut all_ok = true;
                for line in &lines {
                    println!("{line}");
                    all_ok &= Json::parse(line)
                        .is_ok_and(|r| r.get("ok").and_then(Json::as_bool) == Some(true));
                }
                if all_ok {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("matc: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match matc::serve::request_with_retries(&opts, &Json::Obj(members)) {
        Ok(resp) => {
            println!("{}", resp.render());
            if resp.get("ok").and_then(Json::as_bool) == Some(true) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("matc: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Lints the AST and audits the storage plan built for it, returning
/// the merged findings. `compile` audits every plan too, but panics on
/// a rejected one; this path plans without the degradation ladder and
/// reports what the auditor found instead. The boolean is false when
/// lowering failed and no plan could be audited.
/// Per-function audits fan out over `jobs` worker threads; the
/// merged findings are byte-identical for every jobs value.
fn audit_sources(
    ast: &matc::frontend::ast::Program,
    options: GctdOptions,
    jobs: usize,
) -> (Diagnostics, bool) {
    let mut diags = lint_program(ast);
    let mut rec = UnitMetrics::new("audit");
    let (budget, faults) = (Budget::unlimited(), FaultPlan::quiet(0));
    match compile_front(ast, options, &budget, &faults, &mut rec, None) {
        Ok(mut front) => {
            let plans = plan_program(&front.ir, &mut front.types, front.plan_options);
            let (findings, _stats) = audit_program_jobs(&front.ir, &front.types, &plans, jobs);
            diags.merge(findings);
            (diags, true)
        }
        Err(e) => {
            eprintln!("matc: {e}");
            (diags, false)
        }
    }
}

/// `audit` exit policy: warnings inform, errors fail.
fn report_findings(diags: &Diagnostics, json: bool) -> ExitCode {
    if json {
        println!("{}", matc::stats::audit_json(diags));
    } else if diags.is_empty() {
        println!("no findings");
    } else {
        print!("{}", diags.render());
    }
    if diags.has_errors() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn audit_bench() -> ExitCode {
    use matc::benchsuite::{all, Preset};
    let mut failed = false;
    for bench in all() {
        let sources = bench.sources(Preset::Test);
        let refs: Vec<&str> = sources.iter().map(|s| s.as_str()).collect();
        let ast = match parse_program(refs) {
            Ok(a) => a,
            Err(e) => {
                eprintln!(
                    "matc: {}: parse error: {}",
                    bench.name,
                    e.render(&sources[0])
                );
                failed = true;
                continue;
            }
        };
        let (diags, built) = audit_sources(&ast, GctdOptions::default(), 1);
        let findings = if diags.is_empty() {
            "clean".to_string()
        } else {
            format!(
                "{} error(s), {} warning(s)",
                diags.error_count(),
                diags.warning_count()
            )
        };
        println!("{:10} {}", bench.name, findings);
        if !diags.is_empty() {
            print!("{}", diags.render());
        }
        failed |= !built || diags.has_errors();
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The `matc shadow` subcommand: unit specs are comma-separated file
/// groups like `batch`'s, `--bench` adds the benchsuite.
fn shadow_cli(args: &[String]) -> ExitCode {
    use matc::shadow::shadow_unit;
    let mut bench = false;
    let mut no_gctd = false;
    let mut json = false;
    let mut seed: Option<u64> = None;
    let mut stats_path: Option<String> = None;
    let mut specs: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bench" => bench = true,
            "--no-gctd" => no_gctd = true,
            "--json" => json = true,
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = Some(s),
                None => return usage(),
            },
            "--stats" => match it.next() {
                Some(p) => stats_path = Some(p.clone()),
                None => return usage(),
            },
            s if s.starts_with("--") => return usage(),
            s => specs.push(s.to_string()),
        }
    }

    let mut units: Vec<Unit> = Vec::new();
    if bench {
        units.extend(bench_units(matc::benchsuite::Preset::Test));
    }
    for spec in &specs {
        let files: Vec<&str> = spec.split(',').collect();
        let mut sources = Vec::new();
        for f in &files {
            match std::fs::read_to_string(f) {
                Ok(s) => sources.push(s),
                Err(e) => {
                    eprintln!("matc: cannot read {f}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let name = std::path::Path::new(files[0])
            .file_stem()
            .map_or_else(|| files[0].to_string(), |s| s.to_string_lossy().into());
        units.push(Unit::new(name, sources));
    }
    if units.is_empty() {
        return usage();
    }

    let options = GctdOptions {
        coalesce: !no_gctd,
        ..GctdOptions::default()
    };
    let mut stats = matc::gctd::ShadowStats::default();
    let mut failed = false;
    for unit in &units {
        let u = shadow_unit(&unit.name, &unit.sources, options, seed);
        u.accumulate(&mut stats);
        failed |= !u.ok();
        print!("{}", u.render());
    }
    println!(
        "{} unit(s): {} S101, {} S102, {} S103, {} S104, {} S105; {} violation(s)",
        stats.units,
        stats.s101,
        stats.s102,
        stats.s103,
        stats.s104,
        stats.s105,
        stats.plan_violations
    );

    let doc = matc::stats::shadow_document(&stats);
    if json {
        println!("{doc}");
    }
    if let Some(p) = stats_path {
        if let Err(e) = std::fs::write(&p, &doc) {
            eprintln!("matc: cannot write {p}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        return usage();
    };
    let mut files: Vec<String> = Vec::new();
    let mut no_gctd = false;
    let mut seed: Option<u64> = None;
    let mut backend = "planned";
    let mut json = false;
    let mut jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--no-gctd" => no_gctd = true,
            "--mcc" => backend = "mcc",
            "--interp" => backend = "interp",
            "--json" => json = true,
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = Some(s),
                None => return usage(),
            },
            "--jobs" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => jobs = n,
                _ => return usage(),
            },
            f => files.push(f.to_string()),
        }
    }
    if cmd == "batch" {
        return batch_cli(&args[1..]);
    }
    if cmd == "serve" {
        return serve_cli(&args[1..]);
    }
    if cmd == "request" {
        return request_cli(&args[1..]);
    }
    if cmd == "simulate" {
        return simulate_cli(&args[1..]);
    }
    if cmd == "audit-bench" {
        return audit_bench();
    }
    if cmd == "shadow" {
        return shadow_cli(&args[1..]);
    }
    if cmd == "perf-bench" {
        return perf_bench_cli(&args[1..]);
    }
    if cmd == "cache-bench" {
        return cache_bench_cli(&args[1..]);
    }
    if files.is_empty() {
        return usage();
    }

    if cmd == "runtime" {
        let Some(dir) = files.first() else {
            return usage();
        };
        let dir = std::path::Path::new(dir);
        if let Err(e) = std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(dir.join("mrt.h"), matc::codegen::MRT_H))
            .and_then(|_| std::fs::write(dir.join("mrt.c"), matc::codegen::MRT_C))
        {
            eprintln!("matc: cannot write runtime: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {}/mrt.h and {}/mrt.c", dir.display(), dir.display());
        return ExitCode::SUCCESS;
    }

    let mut sources = Vec::new();
    for f in &files {
        match std::fs::read_to_string(f) {
            Ok(s) => sources.push(s),
            Err(e) => {
                eprintln!("matc: cannot read {f}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let refs: Vec<&str> = sources.iter().map(|s| s.as_str()).collect();
    let ast = match parse_program(refs) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("matc: parse error: {}", e.render(&sources[0]));
            return ExitCode::FAILURE;
        }
    };

    let options = GctdOptions {
        coalesce: !no_gctd,
        ..GctdOptions::default()
    };

    match cmd.as_str() {
        "run" => {
            let output = match backend {
                "interp" => {
                    let mut vm = Interp::new(&ast);
                    if let Some(s) = seed {
                        vm = vm.with_seed(s);
                    }
                    vm.run()
                }
                "mcc" => {
                    let ir = match lower_for_mcc(&ast) {
                        Ok(ir) => ir,
                        Err(e) => {
                            eprintln!("matc: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    let mut vm = MccVm::new(&ir);
                    if let Some(s) = seed {
                        vm = vm.with_seed(s);
                    }
                    vm.run()
                }
                _ => {
                    let compiled = match compile(&ast, options) {
                        Ok(c) => c,
                        Err(e) => {
                            eprintln!("matc: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    let mut vm = PlannedVm::new(&compiled);
                    if let Some(s) = seed {
                        vm = vm.with_seed(s);
                    }
                    vm.run()
                }
            };
            match output {
                Ok(out) => {
                    print!("{out}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("matc: runtime error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "emit-c" => match compile(&ast, options) {
            Ok(c) => {
                print!("{}", matc::codegen::emit_program(&c));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("matc: {e}");
                ExitCode::FAILURE
            }
        },
        "plan" => match compile(&ast, options) {
            Ok(c) => {
                print!("{}", matc::batch::render_plan(&c));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("matc: {e}");
                ExitCode::FAILURE
            }
        },
        "audit" => {
            let (diags, built) = audit_sources(&ast, options, jobs);
            let code = report_findings(&diags, json);
            if built {
                code
            } else {
                ExitCode::FAILURE
            }
        }
        "stats" => match compile(&ast, options) {
            Ok(c) => {
                let s = c.plans.total_stats();
                println!("variables entering GCTD : {}", s.original_vars);
                println!("static subsumed (s)     : {}", s.static_subsumed);
                println!("dynamic subsumed (d)    : {}", s.dynamic_subsumed);
                println!("stack bytes saved       : {}", s.stack_bytes_saved);
                println!("stack frame total       : {}", s.stack_bytes_total);
                println!("colors                  : {}", s.colors);
                println!("slots                   : {}", s.slots);
                println!("phi coalescings         : {}", s.coalesced_phis);
                println!("operator conflicts      : {}", s.op_conflicts);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("matc: {e}");
                ExitCode::FAILURE
            }
        },
        _ => usage(),
    }
}
