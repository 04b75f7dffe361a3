//! `compile-batch`: the cold compile a `matc batch` user waits on.
//!
//! `run_batch` with two jobs and no cache, over the 13 corpus units.
//! Set-up compiles the corpus with `run_batch` itself. The timed window
//! runs `run_batch`'s worker loop — two threads, each taking the next
//! unit from a shared queue and calling `compile_unit_with` — in a
//! closed loop over seeded permutations of the corpus, with a clock
//! around every call, so each unit's latency is measured from outside
//! the library. One operation is one unit compile. Every compiler layer
//! works; serve, cache and the VM stay idle.
//!
//! The traced run alternates a span-recording layer replay of the
//! corpus (`crate::replay`) with an untraced sequential compile of it.

use super::{seeded_order, Args};
use crate::corpus;
use crate::host;
use crate::replay::{replay_unit, Counts, Scope};
use crate::result::{end_to_end, host_note, Latency, RunResult, Slice, Tally};
use crate::stats;
use crate::trace::{self_time_by_name, Tracer};
use crate::yardstick::Ruler;
use matc::batch::{compile_unit_with, run_batch, BatchConfig, Unit, UnitOutcome};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Worker threads, as `matc batch --jobs 2`.
const JOBS: usize = 2;

/// Slices the timed window is cut into.
const SLICES: usize = 10;

/// Set-ups repeated per run (`setup_s` is their median).
const SETUPS: usize = 7;

/// Yardstick samples taken before and again after each slice. One
/// sample's time varies by about 15%.
const YARD_RUNS: usize = 4;

/// Spans kept for the span file.
const SPAN_CAP: usize = 200_000;

/// The corpus plus the bytes every unit must compile to: the golden
/// snapshot for the 11 programs, the first compile for the two
/// `paper_scale` units (whose bytes must then never change).
struct Corpus {
    units: Vec<Unit>,
    reference: Vec<String>,
}

fn check_outcome(o: &UnitOutcome, want: &str) -> Result<(), String> {
    let m = &o.metrics;
    if let Some(e) = &m.error {
        return Err(format!("{}: {e}", o.name));
    }
    if m.degraded() || !m.budget_exceeded.is_empty() {
        return Err(format!("{}: degraded", o.name));
    }
    let a = o
        .artifact
        .as_ref()
        .ok_or_else(|| format!("{}: no artifact", o.name))?;
    if a.audit_errors() > 0 {
        return Err(format!("{}: {} audit error(s)", o.name, a.audit_errors()));
    }
    if a.c_code != want {
        return Err(format!("{}: emitted C differs from the reference", o.name));
    }
    Ok(())
}

/// Builds the corpus and runs one verified batch pass, which also fixes
/// the reference bytes of the units without a golden snapshot.
fn set_up(config: &BatchConfig) -> Result<Corpus, String> {
    let units = corpus::compile_units();
    let first = run_batch(&units, config, None);
    let mut reference = Vec::with_capacity(units.len());
    for (u, o) in units.iter().zip(&first.outcomes) {
        let want = match corpus::golden_c(&u.name) {
            Some(g) => g,
            None => o
                .artifact
                .as_ref()
                .map(|a| a.c_code.clone())
                .ok_or_else(|| format!("{}: {:?}", u.name, o.metrics.error))?,
        };
        check_outcome(o, &want)?;
        reference.push(want);
    }
    Ok(Corpus { units, reference })
}

/// The units still to hand out, refilled with a seeded permutation of
/// the corpus whenever it runs dry.
struct Queue {
    rng: u64,
    pending: Vec<usize>,
}

impl Queue {
    fn next(&mut self, n: usize) -> usize {
        if self.pending.is_empty() {
            self.pending = seeded_order(n, &mut self.rng);
        }
        self.pending.pop().expect("the corpus is not empty")
    }
}

/// One worker's closed loop until `end`: the latency and check of every
/// unit it compiled.
fn worker(
    corpus: &Corpus,
    config: &BatchConfig,
    queue: &Mutex<Queue>,
    end: Instant,
) -> (Vec<Latency>, Tally) {
    let mut latencies = Vec::new();
    let mut tally = Tally::default();
    while Instant::now() < end {
        let i = queue
            .lock()
            .expect("no worker panics while it holds the queue")
            .next(corpus.units.len());
        let t = Instant::now();
        let outcome = compile_unit_with(&corpus.units[i], config, None);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        latencies.push((i as u32, ms as f32));
        tally.record(check_outcome(&outcome, &corpus.reference[i]));
    }
    (latencies, tally)
}

/// Runs the workload.
///
/// # Errors
///
/// Fails when set-up fails or nothing could be measured.
pub fn run(args: &Args) -> Result<RunResult, String> {
    let config = BatchConfig {
        jobs: JOBS,
        ..BatchConfig::default()
    };
    let mut setups = Vec::with_capacity(SETUPS);
    let mut factors = Vec::new();
    let mut corpus = None;
    let mut ruler = Ruler::new(JOBS);
    for _ in 0..SETUPS {
        ruler.clear();
        ruler.sample(1);
        let t = Instant::now();
        corpus = Some(set_up(&config)?);
        let secs = t.elapsed().as_secs_f64();
        ruler.sample(1);
        factors.push(ruler.factor());
        setups.push(secs / ruler.factor());
    }
    let corpus = corpus.expect("SETUPS > 0");
    if args.trace {
        return traced(args, &corpus);
    }

    let mut tally = Tally::default();
    let mut slices = Vec::with_capacity(SLICES);
    let slice_len = Duration::from_secs_f64(args.seconds / SLICES as f64);
    let queue = Mutex::new(Queue {
        rng: args.seed,
        pending: Vec::new(),
    });
    for _ in 0..SLICES {
        // The yardstick runs while no worker does, around the slice.
        ruler.clear();
        ruler.sample(YARD_RUNS);
        let t = Instant::now();
        let end = t + slice_len;
        let done: Vec<(Vec<Latency>, Tally)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..JOBS)
                .map(|_| s.spawn(|| worker(&corpus, &config, &queue, end)))
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().map_err(|_| "a worker panicked".to_string()))
                .collect::<Result<_, _>>()
        })?;
        let secs = t.elapsed().as_secs_f64();
        ruler.sample(YARD_RUNS);
        let mut slice = Slice {
            secs,
            ..Slice::default()
        };
        for (latencies, t) in done {
            slice.latencies.extend(latencies);
            tally.absorb(t);
        }
        slice.ops = slice.latencies.len() as u64;
        factors.push(ruler.factor());
        slices.push(slice.scaled(ruler.factor()));
    }
    let mut result = RunResult {
        tally,
        metrics: end_to_end(&setups, &slices, corpus.units.len(), host::peak_rss_mb()?)?,
        notes: Vec::new(),
    };
    result.notes.push(format!(
        "{} unit compiles on {JOBS} threads",
        result.tally.attempted,
    ));
    result.notes.push(host_note(&factors));
    Ok(result)
}

/// One replay pass over the corpus: per-name self time and counts.
struct Pass {
    /// Host factor around the pass (`crate::yardstick`).
    factor: f64,
    wall_ns: u64,
    split_ns: u64,
    by_name: BTreeMap<&'static str, u64>,
    root_self_ns: u64,
    counts: Counts,
}

fn replay_pass(corpus: &Corpus, tr: &mut Tracer, tally: &mut Tally) -> Pass {
    let first = tr.spans().len();
    let t0 = tr.now_ns();
    let mut split_ns = 0;
    let mut counts = Counts::default();
    for (u, want) in corpus.units.iter().zip(&corpus.reference) {
        let outcome = replay_unit(u, tr, Scope::Batch).and_then(|r| {
            split_ns += r.split_ns;
            let c = r.counts;
            counts.ast_nodes += c.ast_nodes;
            counts.instrs += c.instrs;
            counts.rewrites += c.rewrites;
            counts.dataflow_iters += c.dataflow_iters;
            counts.interference_edges += c.interference_edges;
            counts.slots += c.slots;
            counts.c_bytes += c.c_bytes;
            if c.audit_errors > 0 {
                Err(format!("{}: replay found audit errors", u.name))
            } else if r.c_code != *want {
                Err(format!("{}: replayed C differs from the reference", u.name))
            } else {
                Ok(())
            }
        });
        tally.record(outcome);
    }
    let wall_ns = tr.now_ns() - t0;
    let spans = &tr.spans()[first..];
    let mut by_name = self_time_by_name(spans);
    let root_self_ns = by_name.remove("batch.unit").unwrap_or(0);
    Pass {
        factor: 1.0,
        wall_ns,
        split_ns,
        by_name,
        root_self_ns,
        counts,
    }
}

fn traced(args: &Args, corpus: &Corpus) -> Result<RunResult, String> {
    let mut tally = Tally::default();
    let mut keep = Tracer::new(Instant::now());
    let mut passes: Vec<Pass> = Vec::new();
    let mut overhead = Vec::new();
    let mut unit_ms: Vec<Vec<f64>> = vec![Vec::new(); corpus.units.len()];
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        // Spans accumulate in `keep` until the cap, then in a scratch
        // tracer that is dropped after each pass.
        let mut scratch = Tracer::new(Instant::now());
        let tr = if keep.spans().len() < SPAN_CAP {
            &mut keep
        } else {
            &mut scratch
        };
        let mut ruler = Ruler::new(1);
        ruler.sample(1);
        let mut pass = replay_pass(corpus, tr, &mut tally);

        // The untraced pass is `run_batch` with one job — the same
        // sequential `compile_unit_with` calls — clocked per unit.
        let config = BatchConfig::default();
        let mut untraced = Vec::with_capacity(corpus.units.len());
        for (u, want) in corpus.units.iter().zip(&corpus.reference) {
            let t = Instant::now();
            let outcome = compile_unit_with(u, &config, None);
            untraced.push(t.elapsed().as_secs_f64());
            tally.record(check_outcome(&outcome, want));
        }
        ruler.sample(1);
        pass.factor = ruler.factor();
        for (ms, secs) in unit_ms.iter_mut().zip(&untraced) {
            ms.push(secs * 1e3 / pass.factor);
        }
        let untraced_ns = untraced.iter().sum::<f64>() * 1e9;
        overhead.push((pass.wall_ns - pass.split_ns) as f64 / untraced_ns);
        if let Some(prev) = passes.first() {
            if prev.counts != pass.counts {
                tally.reject("layer counts differ between replay passes".into());
            }
        }
        passes.push(pass);
    }
    keep.write_jsonl(
        &corpus::out_dir().join("trace-compile-batch.jsonl"),
        SPAN_CAP,
    )
    .map_err(|e| format!("cannot write the span file: {e}"))?;

    let mut result = RunResult {
        tally,
        ..RunResult::default()
    };
    super::zero_all_layers(&mut result);
    let med = |f: &dyn Fn(&Pass) -> f64| stats::median(&passes.iter().map(f).collect::<Vec<_>>());
    for name in super::REPLAY_SPANS {
        let value =
            med(&|p: &Pass| p.by_name.get(name).copied().unwrap_or(0) as f64 / 1e6 / p.factor);
        result.set(format!("{name}_ms"), value);
    }
    super::set_counts(&mut result, &passes[0].counts);
    for (u, ms) in corpus.units.iter().zip(&unit_ms) {
        result.set(format!("batch.unit_ms.{}", u.name), stats::median(ms));
    }
    result.set("trace.overhead_ratio", stats::median(&overhead));
    let coverage = med(&|p: &Pass| {
        let layers: u64 = p.by_name.values().sum();
        layers as f64 / p.wall_ns as f64
    });
    result.set("trace.self_coverage", coverage);
    let glue = med(&|p: &Pass| p.root_self_ns as f64 / p.wall_ns as f64);
    let factors: Vec<f64> = passes.iter().map(|p| p.factor).collect();
    result.notes.push(host_note(&factors));
    result.notes.push(format!(
        "{} replay passes; layer self time covers {:.1}% of replay wall, unattributed batch glue {:.1}%",
        passes.len(),
        coverage * 100.0,
        glue * 100.0
    ));
    Ok(result)
}
