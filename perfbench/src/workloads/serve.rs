//! `serve-warm` and `serve-edit`: the compile daemon under load from
//! one process, over real loopback sockets, in a closed loop.
//!
//! * `serve-warm` — one client connection keeps 8 pipelined `compile`
//!   requests (`emit: true`) for the 11 Test-preset programs, in seeded
//!   order, always in flight. Every request hits the memory tier warmed
//!   in set-up, so the compiler is bypassed and the reactor, JSON
//!   framing, cache keys and the pool hand-off do all the work. Eight is
//!   below the default `high_water` of 32, so admission never degrades.
//! * `serve-edit` — two connections, each with one request in flight;
//!   every request is `paper_scale_multi` with a fresh seeded edit of
//!   leaf 0, so the server answers a unit miss from 8 stored fragments
//!   plus one recompiled function, and writes the store every time.
//!
//! The server is `ServeConfig::default()` — a reactor thread and two
//! pool workers — and every client connection has a thread of its own;
//! the operating system places them all.
//!
//! Each slice of the timed window runs against a server of its own,
//! started and warmed in that slice's set-up. A `serve-warm` server
//! is timed for [`WARM_SERVER`]. A `serve-edit` server answers
//! [`EDITS_PER_SERVER`] edits: its memory tier keeps every artifact it
//! is given, so the store it grows to is the same in every run, and
//! that growth is part of `peak_rss_mb`. After each slice a probe
//! request that a worker must compile shows whether the reactor's
//! doorbell still rings (see BENCHMARK.md); `serve.stalled_slices`
//! counts the slices where it did not.

use super::{next_random, zero_all_layers, Args, REPLAY_SPANS};
use crate::corpus::{self, EDITED_LEAF, PAPER_SCALE_MULTI};
use crate::host;
use crate::replay::{replay_unit, Scope};
use crate::result::{end_to_end, host_note, Latency, RunResult, Slice, Tally};
use crate::stats;
use crate::trace::{self_time_by_name, Tracer};
use crate::yardstick::Ruler;
use matc::batch::{bench_units, compile_unit, Unit};
use matc::benchsuite::Preset;
use matc::gctd::{
    options_fingerprint, Artifact, ArtifactCache, CacheKey, CacheOutcome, Fragment, GctdOptions,
};
use matc::json::{scan_frame, Json};
use matc::serve::{send_once, start, ServeConfig};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Timed life of one `serve-warm` server. The reactor's lost wake-up
/// (BENCHMARK.md) stalls a server for good, about once in three
/// server-seconds at this load; short lives keep the stalled share of
/// a run's requests, and so the metrics, alike from run to run.
const WARM_SERVER: Duration = Duration::from_millis(250);
/// Share of each `serve-warm` slice run as untimed warm-up before it.
const WARM_FRACTION: f64 = 0.1;
/// Pipelined requests in flight on the `serve-warm` connection.
const WARM_INFLIGHT: usize = 8;
/// `serve-edit` connections, one request in flight on each.
const EDIT_CONNS: usize = 2;
/// Edits one `serve-edit` server answers before it is replaced: its
/// store then holds about 70 MB of artifacts.
const EDITS_PER_SERVER: u64 = 400;
/// Serve-edit responses re-checked against an uncached compile.
const EDIT_SAMPLE: usize = 50;
/// Layer replays of edited units in the traced serve-edit run.
const EDIT_REPLAYS: usize = 12;
/// Socket and request timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Spans kept for the span file.
const SPAN_CAP: usize = 200_000;

/// Which cache tier answered, from the response's `cached` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Hit,
    Partial,
    Other,
}

fn tier_of(line: &str) -> Tier {
    let key = "\"cached\":\"";
    match line.find(key).map(|i| &line[i + key.len()..]) {
        Some(rest) if rest.starts_with("hit\"") => Tier::Hit,
        Some(rest) if rest.starts_with("partial\"") => Tier::Partial,
        _ => Tier::Other,
    }
}

/// One response as the client saw it.
#[derive(Debug, Clone, Copy)]
struct Sample {
    input: u32,
    tier: Tier,
    sent_ns: u64,
    recv_ns: u64,
}

/// The server's `stats` census fields the benchmark reads.
#[derive(Debug, Clone, Copy, Default)]
struct Census {
    wakeups: u64,
    responses: u64,
    pipelined_peak: u64,
    shed: u64,
    load_degraded: u64,
    partial_hits: u64,
    frag_misses: u64,
}

fn census(addr: &str) -> Result<Census, String> {
    let line = send_once(addr, "{\"op\":\"stats\"}", IO_TIMEOUT)?;
    let doc = Json::parse(&line).map_err(|e| format!("stats: {e}"))?;
    let server = doc.get("server").ok_or("stats: no `server`")?;
    let reactor = server.get("reactor").ok_or("stats: no `server.reactor`")?;
    let cache = doc.get("cache").ok_or("stats: no `cache`")?;
    let n = |j: &Json, k: &str| {
        j.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("stats: no `{k}`"))
    };
    Ok(Census {
        wakeups: n(reactor, "wakeups")?,
        responses: n(reactor, "responses_out")?,
        pipelined_peak: n(reactor, "pipelined_peak")?,
        shed: n(server, "shed")?,
        load_degraded: n(server, "load_degraded")?,
        partial_hits: n(cache, "partial_hits")?,
        frag_misses: n(cache, "frag_misses")?,
    })
}

fn compile_frame(name: &str, sources: &[String]) -> String {
    let mut f = Json::Obj(vec![
        ("op".into(), Json::str("compile")),
        ("name".into(), Json::str(name)),
        ("emit".into(), Json::Bool(true)),
        (
            "sources".into(),
            Json::Arr(sources.iter().map(Json::str).collect()),
        ),
    ])
    .render();
    f.push('\n');
    f
}

/// Checks the members every good response carries. `full` is the
/// parsed response; `tier` the tier the workload expects.
fn check_members(doc: &Json, tier: &str) -> Result<(), String> {
    let unit = doc.get("unit").and_then(Json::as_str).unwrap_or("?");
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{unit}: rejected: {}", doc.render()));
    }
    let status = doc.get("status").and_then(Json::as_str).unwrap_or("?");
    if status != "ok" {
        return Err(format!("{unit}: status {status}"));
    }
    if doc.get("degraded_by_load").and_then(Json::as_bool) != Some(false) {
        return Err(format!("{unit}: degraded by load"));
    }
    if doc.get("audit_errors").and_then(Json::as_u64) != Some(0) {
        return Err(format!("{unit}: audit errors"));
    }
    let cached = doc.get("cached").and_then(Json::as_str).unwrap_or("?");
    if cached != tier {
        return Err(format!("{unit}: served `{cached}`, expected `{tier}`"));
    }
    Ok(())
}

/// Parses a response up to its (large) `c` member — enough to check
/// every status field without decoding the emitted C.
fn parse_head(line: &str) -> Result<Json, String> {
    let head = match line.find(",\"c\":\"") {
        Some(i) => format!("{}}}", &line[..i]),
        None => line.to_string(),
    };
    Json::parse(&head).map_err(|e| format!("bad response ({e}): {line:.200}"))
}

/// What one connection's client saw.
struct ClientRun {
    samples: Vec<Sample>,
    tally: Tally,
    /// Requests sent.
    sent: u64,
}

/// One connection's closed loop: keeps `inflight` requests outstanding
/// until `end` or until it has sent `budget`, then drains. `next` writes
/// the next frame into the buffer and returns `(input index, tag)`;
/// `check` validates a response by its request's tag.
fn drive(
    addr: &str,
    inflight: usize,
    (epoch, end): (Instant, Instant),
    budget: u64,
    next: &mut dyn FnMut(&mut Vec<u8>) -> (u32, u64),
    check: &mut dyn FnMut(u64, &str) -> Result<(), String>,
) -> Result<ClientRun, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::with_capacity(256 * 1024, stream);
    let now_ns = || u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);

    let mut frame = Vec::new();
    let mut pending: VecDeque<(u32, u64, u64)> = VecDeque::with_capacity(inflight);
    let mut send = |pending: &mut VecDeque<(u32, u64, u64)>| -> Result<(), String> {
        frame.clear();
        let (input, tag) = next(&mut frame);
        let sent = now_ns();
        writer
            .write_all(&frame)
            .map_err(|e| format!("write: {e}"))?;
        pending.push_back((input, tag, sent));
        Ok(())
    };
    let mut sent = 0u64;
    while sent < budget && pending.len() < inflight {
        send(&mut pending)?;
        sent += 1;
    }
    let mut samples = Vec::new();
    let mut tally = Tally::default();
    let mut line = String::new();
    while let Some((input, tag, sent_ns)) = pending.pop_front() {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        let recv_ns = now_ns();
        let text = line.trim_end();
        tally.record(check(tag, text));
        samples.push(Sample {
            input,
            tier: tier_of(text),
            sent_ns,
            recv_ns,
        });
        if sent < budget && Instant::now() < end {
            send(&mut pending)?;
            sent += 1;
        }
    }
    Ok(ClientRun {
        samples,
        tally,
        sent,
    })
}

/// Sends a compile request no cache can answer and reports whether
/// the reactor's wake-up counter moved: a worker must complete it, so
/// a healthy doorbell rings at least once.
fn doorbell_stalled(addr: &str, nonce: u64) -> Result<bool, String> {
    let before = census(addr)?;
    let src = format!("function f()\nfprintf('%d\\n', {nonce});\n");
    let frame = compile_frame("probe", &[src]);
    let line = send_once(addr, frame.trim_end(), IO_TIMEOUT)?;
    check_members(&parse_head(&line)?, "miss")?;
    Ok(census(addr)?.wakeups == before.wakeups)
}

/// How long one server of a serve workload lives.
#[derive(Debug, Clone, Copy)]
struct Lifetime {
    /// Longest timed window of one server.
    window: Duration,
    /// Untimed warm-up before the window.
    warm: Duration,
    /// Requests each connection sends at most.
    budget: u64,
    /// Yardstick samples taken before and again after each server. One
    /// sample's time varies by about 15%, so a server that lives longer
    /// affords more of them.
    yard_runs: usize,
}

/// What the slices of one serve workload measured.
#[derive(Default)]
struct SliceRun {
    setups: Vec<f64>,
    slices: Vec<Slice>,
    samples: Vec<Vec<Sample>>,
    windows: Vec<(u64, u64)>,
    tally: Tally,
    deltas: Vec<(Census, Census)>,
    stalled: u64,
    peak_rss_mb: f64,
    /// Host factor of each slice (`crate::yardstick`).
    factors: Vec<f64>,
}

/// A serve workload: how to warm a fresh server, and its clients.
trait ServeLoad: Sync {
    /// Client connections, each driven by a thread of its own.
    const CONNS: usize;
    /// Warms a fresh server's store.
    fn warm(&self, addr: &str) -> Result<(), String>;
    /// Runs connection `conn` to server number `server` until the end
    /// of `window` (epoch, end), sending at most `budget` requests.
    fn client(
        &self,
        addr: &str,
        window: (Instant, Instant),
        server: usize,
        conn: usize,
        budget: u64,
    ) -> Result<ClientRun, String>;
}

/// Runs servers one after another until their slices have measured
/// `args.seconds` between them.
fn run_slices<L: ServeLoad>(args: &Args, load: &L, life: Lifetime) -> Result<SliceRun, String> {
    let mut out = SliceRun::default();
    let epoch = Instant::now();
    let total = Duration::from_secs_f64(args.seconds);
    let mut measured = Duration::ZERO;
    // A remainder shorter than this is not worth another server.
    let least = life.window.min(total) / 100;
    while total.saturating_sub(measured) > least {
        let server = out.slices.len();
        // The yardstick runs while no server does, around the slice.
        let mut ruler = Ruler::new(ServeConfig::default().jobs);
        ruler.sample(life.yard_runs);
        let t = Instant::now();
        let handle =
            start(ServeConfig::default()).map_err(|e| format!("cannot start the server: {e}"))?;
        let addr = handle.addr().to_string();
        let warmed = load.warm(&addr);
        let setup_secs = t.elapsed().as_secs_f64();
        if let Err(e) = warmed {
            handle.shutdown();
            return Err(format!("warming the store: {e}"));
        }

        let outcome = (|| -> Result<Slice, String> {
            let c0 = census(&addr)?;
            let from = Instant::now() + life.warm;
            let end = from + life.window.min(total - measured);
            let runs: Vec<Result<ClientRun, String>> = std::thread::scope(|scope| {
                let clients: Vec<_> = (0..L::CONNS)
                    .map(|conn| {
                        let addr = addr.as_str();
                        scope.spawn(move || {
                            load.client(addr, (epoch, end), server, conn, life.budget)
                        })
                    })
                    .collect();
                clients
                    .into_iter()
                    .map(|c| {
                        c.join()
                            .unwrap_or_else(|_| Err("client thread panicked".to_string()))
                    })
                    .collect()
            });
            let c1 = census(&addr)?;
            let stalled = doorbell_stalled(&addr, args.seed.wrapping_mul(1000) + server as u64)?;
            out.stalled += u64::from(stalled);
            out.deltas.push((c0, c1));
            let (lo, hi) = (ns_since(epoch, from), ns_since(epoch, end));
            let mut samples = Vec::new();
            let mut spent = true;
            for run in runs {
                let run = run?;
                spent &= run.sent >= life.budget;
                out.tally.absorb(run.tally);
                samples.extend(run.samples);
            }
            let latencies: Vec<Latency> = samples
                .iter()
                .filter(|x| x.sent_ns >= lo && x.recv_ns <= hi)
                .map(|x| (x.input, ((x.recv_ns - x.sent_ns) as f64 / 1e6) as f32))
                .collect();
            // A server that answered its whole budget was measured until
            // its last response, others until the end of the window.
            let stop = if spent {
                samples
                    .iter()
                    .map(|x| x.recv_ns)
                    .max()
                    .unwrap_or(hi)
                    .min(hi)
            } else {
                hi
            };
            if args.trace {
                out.samples.push(samples);
                out.windows.push((lo, hi));
            }
            Ok(Slice {
                ops: latencies.len() as u64,
                secs: stop.saturating_sub(lo) as f64 / 1e9,
                latencies,
            })
        })();
        handle.shutdown();
        host::release_free_memory();
        let slice = outcome?;
        ruler.sample(life.yard_runs);
        measured += Duration::from_secs_f64(slice.secs).max(least);
        let factor = ruler.factor();
        out.factors.push(factor);
        out.setups.push(setup_secs / factor);
        out.slices.push(slice.scaled(factor));
    }
    out.peak_rss_mb = host::peak_rss_mb()?;
    Ok(out)
}

fn ns_since(epoch: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// The per-layer serve, JSON and cache numbers common to both serve
/// workloads, from the slices and the workload's own frames.
fn serve_layers(run: &SliceRun, result: &mut RunResult, tr: &mut Tracer, unit_names: &[String]) {
    let (mut wk, mut resp, mut frag_hits, mut frag_misses) = (0u64, 0u64, 0u64, 0u64);
    let (mut peak, mut shed, mut degraded) = (0u64, 0u64, 0u64);
    for (c0, c1) in &run.deltas {
        wk += c1.wakeups.saturating_sub(c0.wakeups);
        resp += c1.responses.saturating_sub(c0.responses);
        frag_hits += c1.partial_hits.saturating_sub(c0.partial_hits);
        frag_misses += c1.frag_misses.saturating_sub(c0.frag_misses);
        peak = peak.max(c1.pipelined_peak);
        shed += c1.shed;
        degraded += c1.load_degraded;
    }
    result.set("serve.wakeups_per_response", wk as f64 / resp.max(1) as f64);
    result.set("serve.stalled_slices", run.stalled as f64);
    result.set("serve.pipelined_peak", peak as f64);
    result.set("serve.shed", shed as f64);
    result.set("serve.load_degraded", degraded as f64);
    if frag_hits + frag_misses > 0 {
        result.set(
            "cache.frag_hit_ratio",
            frag_hits as f64 / (frag_hits + frag_misses) as f64,
        );
    }
    for (name, tier) in [
        ("serve.tier.hit_ms", Tier::Hit),
        ("serve.tier.partial_ms", Tier::Partial),
    ] {
        let lat: Vec<f64> = run
            .samples
            .iter()
            .zip(&run.windows)
            .zip(&run.factors)
            .flat_map(|((v, &(lo, hi)), f)| {
                v.iter()
                    .filter(move |x| x.tier == tier && x.sent_ns >= lo && x.recv_ns <= hi)
                    .map(move |x| (x.recv_ns - x.sent_ns) as f64 / 1e6 / f)
            })
            .collect();
        if !lat.is_empty() {
            result.set(name, stats::median(&lat));
        }
    }

    let units: Vec<u32> = unit_names.iter().map(|n| tr.unit(n)).collect();
    for (samples, &(lo, hi)) in run.samples.iter().zip(&run.windows) {
        let slice = tr.record("serve.slice", units[0], 0, lo, hi);
        for x in samples {
            tr.record(
                "serve.request",
                units[x.input as usize],
                slice,
                x.sent_ns,
                x.recv_ns,
            );
        }
    }
}

/// Median per-call time of `f`, in microseconds.
fn micro_us(mut f: impl FnMut()) -> f64 {
    const BATCHES: usize = 15;
    const REPS: usize = 40;
    let per: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..REPS {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / REPS as f64
        })
        .collect();
    stats::median(&per)
}

/// Micro-timings of the JSON and cache functions on the workload's own
/// request frames and responses (averaged over the inputs).
fn micro_layers(result: &mut RunResult, inputs: &[(String, Vec<String>, String)], put_unit: bool) {
    let mut ruler = Ruler::new(1);
    ruler.sample(2);
    let fingerprint = options_fingerprint(&GctdOptions::default());
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let (mut scan, mut parse, mut render, mut key, mut get, mut put) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    for (frame, sources, response) in inputs {
        let request = frame.trim_end().as_bytes();
        let mut wire = response.clone().into_bytes();
        wire.push(b'\n');
        scan.push(micro_us(|| {
            std::hint::black_box(scan_frame(std::hint::black_box(&wire), 0));
        }));
        parse.push(micro_us(|| {
            std::hint::black_box(Json::parse_bytes(std::hint::black_box(request)).ok());
        }));
        let doc = Json::parse(response).unwrap_or(Json::Null);
        render.push(micro_us(|| {
            std::hint::black_box(doc.render());
        }));
        key.push(micro_us(|| {
            std::hint::black_box(CacheKey::compute(
                sources.iter().map(String::as_str),
                &fingerprint,
            ));
        }));
        let artifact = Arc::new(Artifact {
            c_code: doc
                .get("c")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            plan_text: doc
                .get("plan")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            audit_json: String::new(),
            meta: BTreeMap::new(),
        });
        let cache = ArtifactCache::in_memory();
        let k = CacheKey::compute(sources.iter().map(String::as_str), &fingerprint);
        cache.put(&k, Arc::clone(&artifact));
        get.push(micro_us(|| {
            std::hint::black_box(cache.get(&k));
        }));
        if put_unit {
            // A miss with 9 functions publishes the unit and its
            // fragments; the memory tier keeps every one it is given.
            let frags: Vec<(CacheKey, Arc<Fragment>)> = (0..9)
                .map(|i| {
                    let fk = CacheKey::compute_parts("bench-frag", [i.to_string().as_str()]);
                    (
                        fk,
                        Arc::new(Fragment {
                            body: String::new(),
                            plan_text: String::new(),
                            findings: String::new(),
                            meta: BTreeMap::new(),
                        }),
                    )
                })
                .collect();
            let mut serial = 0u64;
            put.push(micro_us(|| {
                serial += 1;
                let uk = CacheKey::compute_parts("bench-unit", [serial.to_string().as_str()]);
                cache.put_unit(&uk, Arc::clone(&artifact), &frags);
            }));
        }
    }
    ruler.sample(2);
    let f = ruler.factor();
    result.set("json.scan_frame_us", mean(scan) / f);
    result.set("json.parse_request_us", mean(parse) / f);
    result.set("json.render_response_us", mean(render) / f);
    result.set("cache.key_us", mean(key) / f);
    result.set("cache.get_hit_us", mean(get) / f);
    if put_unit {
        result.set("cache.put_unit_us", mean(put) / f);
    }
}

// ---------------------------------------------------------------------
// serve-warm
// ---------------------------------------------------------------------

struct Warm {
    units: Vec<Unit>,
    frames: Vec<String>,
    golden: Vec<String>,
    seed: u64,
    /// The validated response line of each unit, once seen.
    canon: Mutex<Vec<Option<String>>>,
}

impl Warm {
    fn check_full(&self, i: usize, line: &str, tier: &str) -> Result<(), String> {
        let doc = Json::parse(line).map_err(|e| format!("bad response ({e}): {line:.200}"))?;
        check_members(&doc, tier)?;
        if doc.get("c").and_then(Json::as_str) != Some(self.golden[i].as_str()) {
            return Err(format!(
                "{}: served C differs from the golden snapshot",
                self.units[i].name
            ));
        }
        Ok(())
    }
}

impl ServeLoad for Warm {
    const CONNS: usize = 1;

    fn warm(&self, addr: &str) -> Result<(), String> {
        for (i, f) in self.frames.iter().enumerate() {
            let line = send_once(addr, f.trim_end(), IO_TIMEOUT)?;
            self.check_full(i, &line, "miss")?;
        }
        Ok(())
    }

    fn client(
        &self,
        addr: &str,
        window: (Instant, Instant),
        server: usize,
        conn: usize,
        budget: u64,
    ) -> Result<ClientRun, String> {
        let mut rng = self.seed ^ ((server as u64) << 32) ^ ((conn as u64) << 48);
        let n = self.frames.len();
        let mut next = |buf: &mut Vec<u8>| {
            let i = (next_random(&mut rng) % n as u64) as usize;
            buf.extend_from_slice(self.frames[i].as_bytes());
            (i as u32, i as u64)
        };
        let mut check = |tag: u64, line: &str| -> Result<(), String> {
            let i = tag as usize;
            let mut canon = self.canon.lock().map_err(|_| "canon lock poisoned")?;
            match &canon[i] {
                Some(c) if c == line => Ok(()),
                Some(_) => self.check_full(i, line, "hit").and(Err(format!(
                    "{}: response bytes changed between requests",
                    self.units[i].name
                ))),
                None => {
                    self.check_full(i, line, "hit")?;
                    canon[i] = Some(line.to_string());
                    Ok(())
                }
            }
        };
        drive(addr, WARM_INFLIGHT, window, budget, &mut next, &mut check)
    }
}

/// Runs `serve-warm`.
///
/// # Errors
///
/// Fails on set-up errors, lost connections, or a missing golden file.
pub fn run_warm(args: &Args) -> Result<RunResult, String> {
    let units = bench_units(Preset::Test);
    let golden = units
        .iter()
        .map(|u| corpus::golden_c(&u.name).ok_or_else(|| format!("no golden C for {}", u.name)))
        .collect::<Result<Vec<_>, _>>()?;
    let load = Warm {
        frames: units
            .iter()
            .map(|u| compile_frame(&u.name, &u.sources))
            .collect(),
        canon: Mutex::new(vec![None; units.len()]),
        golden,
        seed: args.seed,
        units,
    };
    let life = Lifetime {
        window: WARM_SERVER,
        warm: WARM_SERVER.mul_f64(WARM_FRACTION),
        budget: u64::MAX,
        yard_runs: 1,
    };
    let run = run_slices(args, &load, life)?;
    let names: Vec<String> = load.units.iter().map(|u| u.name.clone()).collect();
    finish(args, "serve-warm", &run, &names, |result, _tr| {
        let canon = load.canon.lock().map_err(|_| "canon lock poisoned")?;
        let inputs: Vec<(String, Vec<String>, String)> = load
            .units
            .iter()
            .zip(&load.frames)
            .zip(canon.iter())
            .filter_map(|((u, f), c)| {
                c.as_ref()
                    .map(|c| (f.clone(), u.sources.clone(), c.clone()))
            })
            .collect();
        micro_layers(result, &inputs, false);
        Ok(())
    })
}

/// Shared ending of both serve workloads: end-to-end metrics, or the
/// per-layer ones plus `traced_extra` and the span file.
fn finish(
    args: &Args,
    workload: &str,
    run: &SliceRun,
    input_names: &[String],
    traced_extra: impl FnOnce(&mut RunResult, &mut Tracer) -> Result<(), String>,
) -> Result<RunResult, String> {
    let mut result = RunResult {
        tally: run.tally.clone(),
        ..RunResult::default()
    };
    result.notes.push(format!(
        "{} of {} slices ended with the reactor doorbell stalled (completions wait for the 20 ms poll tick)",
        run.stalled,
        run.slices.len()
    ));
    result.notes.push(host_note(&run.factors));
    if !args.trace {
        result.metrics = end_to_end(&run.setups, &run.slices, input_names.len(), run.peak_rss_mb)?;
        return Ok(result);
    }
    zero_all_layers(&mut result);
    let mut tr = Tracer::new(Instant::now());
    serve_layers(run, &mut result, &mut tr, input_names);
    traced_extra(&mut result, &mut tr)?;
    tr.write_jsonl(
        &corpus::out_dir().join(format!("trace-{workload}.jsonl")),
        SPAN_CAP,
    )
    .map_err(|e| format!("cannot write the span file: {e}"))?;
    Ok(result)
}

// ---------------------------------------------------------------------
// serve-edit
// ---------------------------------------------------------------------

/// A seeded uniform sample of one connection's responses (reservoir
/// sampling).
struct Reservoir {
    rng: u64,
    seen: u64,
    kept: Vec<(u32, String)>,
}

impl Reservoir {
    fn offer(&mut self, tweak: u32, line: &str) {
        const KEEP: usize = EDIT_SAMPLE / EDIT_CONNS;
        self.seen += 1;
        if self.kept.len() < KEEP {
            self.kept.push((tweak, line.to_string()));
        } else {
            let j = (next_random(&mut self.rng) % self.seen) as usize;
            if j < KEEP {
                self.kept[j] = (tweak, line.to_string());
            }
        }
    }
}

struct Edit {
    base_frame: String,
    /// First tweak of the run; request `k` of connection `c` to server
    /// `s` edits with a distinct value above it.
    tweak_base: u32,
    /// One sample per connection, so that each is fixed by the seed
    /// whatever the interleaving of the two.
    samples: Vec<Mutex<Reservoir>>,
}

impl Edit {
    fn tweak(&self, server: usize, conn: usize, k: u64) -> u32 {
        // A connection sends EDITS_PER_SERVER / EDIT_CONNS per server,
        // far below 2^16.
        self.tweak_base + ((server as u64) << 20 | (conn as u64) << 16 | k.min(0xffff)) as u32
    }
}

impl ServeLoad for Edit {
    const CONNS: usize = EDIT_CONNS;

    fn warm(&self, addr: &str) -> Result<(), String> {
        let line = send_once(addr, self.base_frame.trim_end(), IO_TIMEOUT)?;
        check_members(&parse_head(&line)?, "miss")
    }

    fn client(
        &self,
        addr: &str,
        window: (Instant, Instant),
        server: usize,
        conn: usize,
        budget: u64,
    ) -> Result<ClientRun, String> {
        let mut k = 0u64;
        let mut next = |buf: &mut Vec<u8>| {
            let t = self.tweak(server, conn, k);
            k += 1;
            let unit = corpus::edit_unit(t);
            buf.extend_from_slice(compile_frame(PAPER_SCALE_MULTI, &unit.sources).as_bytes());
            (0, u64::from(t))
        };
        let mut check = |tag: u64, line: &str| -> Result<(), String> {
            check_members(&parse_head(line)?, "partial")?;
            self.samples[conn]
                .lock()
                .map_err(|_| "sample lock poisoned")?
                .offer(tag as u32, line);
            Ok(())
        };
        drive(addr, 1, window, budget, &mut next, &mut check)
    }
}

/// Runs `serve-edit`.
///
/// # Errors
///
/// Fails on set-up errors or lost connections.
pub fn run_edit(args: &Args) -> Result<RunResult, String> {
    let base = corpus::edit_unit(0);
    let mut rng = args.seed;
    let load = Edit {
        base_frame: compile_frame(PAPER_SCALE_MULTI, &base.sources),
        tweak_base: 1 + (next_random(&mut rng) % (1 << 24)) as u32,
        samples: (0..EDIT_CONNS)
            .map(|c| {
                Mutex::new(Reservoir {
                    rng: rng ^ ((c as u64) << 56),
                    seen: 0,
                    kept: Vec::new(),
                })
            })
            .collect(),
    };
    let life = Lifetime {
        window: Duration::from_secs_f64(args.seconds),
        warm: Duration::ZERO,
        budget: EDITS_PER_SERVER / EDIT_CONNS as u64,
        yard_runs: 4,
    };
    let mut run = run_slices(args, &load, life)?;
    let mut sample = Vec::with_capacity(EDIT_SAMPLE);
    for s in &load.samples {
        sample.append(&mut s.lock().map_err(|_| "sample lock poisoned")?.kept);
    }
    for (tweak, line) in &sample {
        let unit = corpus::edit_unit(*tweak);
        let want = compile_unit(&unit, GctdOptions::default(), None);
        let got = Json::parse(line).ok();
        let got_c = got.as_ref().and_then(|d| d.get("c")).and_then(Json::as_str);
        let want_c = want.artifact.as_ref().map(|a| a.c_code.as_str());
        if got_c.is_none() || got_c != want_c {
            run.tally.reject(format!(
                "tweak {tweak}: served C differs from an uncached compile"
            ));
        }
    }
    let names = vec![PAPER_SCALE_MULTI.to_string()];
    let checked = sample.len();
    let mut result = finish(args, "serve-edit", &run, &names, |result, tr| {
        let (frame_t, response) = sample
            .first()
            .cloned()
            .ok_or("no serve-edit response was sampled")?;
        let unit = corpus::edit_unit(frame_t);
        let frame = compile_frame(PAPER_SCALE_MULTI, &unit.sources);
        micro_layers(result, &[(frame, unit.sources.clone(), response)], true);
        edit_replays(result, tr, &load)
    })?;
    result.notes.push(format!(
        "{} servers of up to {EDITS_PER_SERVER} edits; {checked} sampled responses re-checked against uncached compiles",
        run.slices.len()
    ));
    Ok(result)
}

/// Replays edited units through the layers a warm store runs (the
/// front half of every function, fragment keys, the back half of the
/// edited leaf) and times production's own warm recompile beside them.
fn edit_replays(result: &mut RunResult, tr: &mut Tracer, load: &Edit) -> Result<(), String> {
    let cache = ArtifactCache::in_memory();
    compile_unit(&corpus::edit_unit(0), GctdOptions::default(), Some(&cache));
    let mut per_name: Vec<(f64, BTreeMap<&'static str, u64>)> = Vec::new();
    let mut overhead = Vec::new();
    let mut counts = None;
    for r in 0..EDIT_REPLAYS {
        // An edit this store has not seen, so a partial hit.
        let t = load.tweak(0, 0, 2 * r as u64);
        let t0 = Instant::now();
        let out = compile_unit(&corpus::edit_unit(t), GctdOptions::default(), Some(&cache));
        let untraced = t0.elapsed().as_nanos() as f64;
        if out.metrics.cache != CacheOutcome::Partial {
            return Err(format!("warm recompile of tweak {t} was not a partial hit"));
        }
        let mut ruler = Ruler::new(1);
        ruler.sample(1);
        let first = tr.spans().len();
        let t1 = tr.now_ns();
        let rep = replay_unit(
            &corpus::edit_unit(t + 1),
            tr,
            Scope::Incremental {
                recompile: EDITED_LEAF,
            },
        )?;
        let wall = (tr.now_ns() - t1) as f64;
        ruler.sample(1);
        overhead.push((wall - rep.split_ns as f64) / untraced);
        let mut by_name = self_time_by_name(&tr.spans()[first..]);
        by_name.remove("batch.unit");
        per_name.push((ruler.factor(), by_name));
        counts.get_or_insert(rep.counts);
    }
    for name in REPLAY_SPANS {
        let v: Vec<f64> = per_name
            .iter()
            .map(|(f, m)| m.get(name).copied().unwrap_or(0) as f64 / 1e6 / f)
            .collect();
        result.set(format!("{name}_ms"), stats::median(&v));
    }
    if let Some(c) = counts {
        super::set_counts(result, &c);
    }
    result.set("trace.overhead_ratio", stats::median(&overhead));
    Ok(())
}
