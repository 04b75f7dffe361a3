//! The resilient compile-service daemon behind `matc serve`, and the
//! retrying client behind `matc request`.
//!
//! Since the event-driven rewrite the daemon is a single-threaded
//! **reactor**: one thread drives every connection through a
//! level-triggered `poll(2)` readiness loop (`src/sys.rs`), with
//! per-connection state machines over growable read/write buffers.
//! Framing is zero-copy:
//! [`crate::json::scan_frame`] finds newline terminators over the
//! connection buffer (resuming where the last scan stopped) and
//! [`Json::parse_bytes`] parses each frame in place — no per-request
//! `String` or `BufReader` line copy. Connections are persistent and
//! **pipelined**: a client may put many frames in flight; responses
//! are written back strictly in request order through a per-connection
//! slot queue. Compile work goes to a worker pool through one FIFO
//! queue and comes back through a completion queue + wake pipe — no
//! per-request or per-connection threads anywhere.
//!
//! Requests run through the same fault-tolerant machinery as
//! `matc batch` ([`crate::batch::compile_unit_with`]): full-pipeline
//! panic isolation, the degradation ladder, and the content-addressed
//! artifact cache — a long-running process amortizes the cache across
//! every client.
//!
//! The robustness surface:
//!
//! * **admission control** — a bounded job queue; past the high-water
//!   mark new compile requests are *degraded* to the conservative
//!   mcc-style plan (cheaper, still audited), and past the cap they are
//!   *shed* with a structured 429-style rejection;
//! * **backpressure** — a slow-reading client cannot wedge the reactor
//!   or balloon server memory: past `max_write_buf` unsent bytes the
//!   connection is dropped with a structured warning;
//! * **deadlines** — a request's `deadline_ms` becomes a hard
//!   [`matc_ir::Budget`] deadline threaded through every phase; an
//!   out-of-time request fails fast instead of riding the ladder;
//! * **circuit breakers** — [`matc_gctd::BreakerMap`] keyed by source
//!   hash quarantines units that repeatedly panic or get their plan
//!   audit-rejected, with a half-open probe after a cooldown;
//! * **panic isolation** — per request via the pipeline's
//!   [`matc_gctd::isolate()`], and per connection in the reactor's event
//!   dispatch; a panicking unit (or conversation) is a structured
//!   error, never a dead daemon;
//! * **graceful shutdown** — SIGTERM/SIGINT (or a `shutdown` request)
//!   stops accepting, drains queued work, flushes buffered responses,
//!   and past the drain deadline cleanly rejects whatever is still
//!   queued;
//! * **chaos probes** — the seeded [`FaultPlan`] network sites
//!   (accept drop, mid-frame disconnect, slow-loris stall, torn
//!   response) fire as *reactor-level* injections at the same
//!   deterministic keys as the old thread-per-connection server
//!   (`conn{serial}`, `conn{serial}/req{n}`), so the chaos matrix in
//!   `tests/serve_chaos.rs` can prove none of them wedge the daemon or
//!   corrupt the cache. A stall never sleeps the reactor — it defers
//!   that one connection's frame processing by a timestamp.

use crate::batch::{compile_unit_with, BatchConfig, Unit, UnitOutcome};
use crate::json::{self, Json};
use crate::stats;
use crate::sys::{
    Accepted, Clock, ConnIo, ConnObs, Event, NetSource, Poller, RealNet, WakePipe, EV_READ,
    EV_WRITE,
};
use matc_gctd::{
    lock_recover, ArtifactCache, BreakerConfig, BreakerDecision, BreakerMap, CacheKey, FaultPlan,
    FaultSite, GctdOptions, UnitMetrics,
};
use matc_gctd::{BatchReport, CacheOutcome};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Upper bound on one request frame; a peer streaming an unbounded
/// line must not balloon server memory.
const MAX_FRAME_BYTES: usize = 8 * 1024 * 1024;

/// Reactor tick / worker condvar re-check period, and the accept
/// backlog poll bound. The wake pipe makes completions immediate; this
/// only bounds stop-flag and stall-expiry latency.
const POLL: Duration = Duration::from_millis(20);

/// How many recent per-unit metric records the stats document retains.
const RECENT_CAP: usize = 256;

/// Bytes read from a socket per `read(2)` call.
const READ_CHUNK: usize = 16 * 1024;

/// Reads serviced per readable event before yielding to other
/// connections (level-triggered `poll(2)` re-reports leftovers).
const READ_ROUNDS: usize = 8;

/// Consumed-prefix length past which a connection buffer is compacted.
const COMPACT_AT: usize = 64 * 1024;

/// Poller token of the listening socket.
const TOK_LISTENER: u64 = 0;
/// Poller token of the wake pipe's read end.
const TOK_WAKE: u64 = 1;
/// First connection token; connection N lives at `TOK_BASE + N`.
const TOK_BASE: u64 = 2;

/// `matc serve` configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port; the chosen
    /// address is printed on startup and available via
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Compile-worker thread count.
    pub jobs: usize,
    /// Queue length at which new compile requests are shed (429-style).
    pub queue_cap: usize,
    /// Queue length at which new compile requests are degraded to the
    /// conservative no-coalescing plan before shedding kicks in.
    pub high_water: usize,
    /// Graceful-shutdown drain budget: queued work still unfinished
    /// after this many milliseconds is cleanly rejected.
    pub drain_ms: u64,
    /// Per-connection idle read timeout (slow-loris bound), ms. The
    /// clock runs only while nothing is in flight on the connection —
    /// a long compile never trips it.
    pub idle_timeout_ms: u64,
    /// Circuit-breaker tuning (threshold + cooldown).
    pub breaker: BreakerConfig,
    /// GCTD options for normally-admitted requests.
    pub options: GctdOptions,
    /// Disk cache directory (memory-only when `None`).
    pub cache_dir: Option<String>,
    /// Initial fault plan (pipeline + network chaos probes).
    pub faults: Option<FaultPlan>,
    /// Per-phase wall-clock timeout for request compiles, ms.
    pub phase_timeout_ms: Option<u64>,
    /// Fuel allowance for request compiles.
    pub fuel: Option<u64>,
    /// Per-connection write-buffer cap, bytes. A slow-reading client
    /// whose unsent responses exceed this is disconnected with a
    /// structured warning instead of growing server memory.
    pub max_write_buf: usize,
    /// Test hook: shrink accepted sockets' kernel send buffer
    /// (`SO_SNDBUF`) so backpressure tests jam with kilobytes.
    pub sndbuf: Option<usize>,
    /// Time source for every server-side deadline, cooldown and timer:
    /// the system clock in production, a virtual clock under
    /// `matc simulate` and deterministic timing tests.
    pub clock: Clock,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: 2,
            queue_cap: 64,
            high_water: 32,
            drain_ms: 2_000,
            idle_timeout_ms: 10_000,
            breaker: BreakerConfig::default(),
            options: GctdOptions::default(),
            cache_dir: None,
            faults: None,
            phase_timeout_ms: None,
            fuel: None,
            max_write_buf: 32 * 1024 * 1024,
            sndbuf: None,
            clock: Clock::system(),
        }
    }
}

/// What the daemon reports when it exits (also the CLI's closing log).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests admitted to the queue over the server's lifetime.
    pub admitted: u64,
    /// Requests fully compiled (ok, degraded or error — a response was
    /// produced by the pipeline).
    pub completed: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests degraded to the conservative plan by the high-water
    /// mark.
    pub load_degraded: u64,
    /// Requests rejected by an open circuit breaker.
    pub breaker_rejected: u64,
    /// Requests cleanly rejected during shutdown (queued past the
    /// drain deadline, or arriving while draining).
    pub shutdown_rejected: u64,
    /// Whether the drain finished inside the deadline (nothing had to
    /// be force-rejected from the queue).
    pub drained_cleanly: bool,
}

/// What happens to a response on the wire — decided at dispatch time
/// from the fault plan, applied when the response reaches the write
/// buffer.
#[derive(Debug, Clone, Copy)]
enum RespFate {
    /// Written normally.
    Normal,
    /// Injected mid-frame disconnect: the request was consumed (the
    /// compile runs, the cache fills) but no response byte is written
    /// and the connection closes.
    Disconnect,
    /// Injected torn response: a strict prefix is written, then close.
    Torn,
}

/// Where a queued job's response goes: connection slab index, the
/// generation guarding against slot reuse, and the in-order sequence
/// number of its response slot.
#[derive(Debug, Clone, Copy)]
struct ConnRef {
    idx: usize,
    gen: u64,
    seq: u64,
}

/// One queued compile/audit job.
pub(crate) struct Job {
    unit: Unit,
    config: BatchConfig,
    breaker_key: String,
    /// `true` for the `audit` op (embeds findings in the response).
    audit: bool,
    emit: bool,
    name: String,
    load_degraded: bool,
    dest: ConnRef,
    fate: RespFate,
}

impl Job {
    /// The request's unit name (simulation traces label scheduled
    /// compiles with it).
    pub(crate) fn unit_name(&self) -> &str {
        &self.name
    }
}

/// A finished job's rendered response, routed back to the reactor.
struct Completion {
    idx: usize,
    gen: u64,
    seq: u64,
    line: String,
    fate: RespFate,
}

/// The compile pool's queue: one FIFO shared by every worker, a
/// condvar on the same mutex for sleep, and atomic counters for
/// admission and drain.
#[derive(Default)]
pub(crate) struct Pool {
    queue: Mutex<VecDeque<Job>>,
    depth: AtomicUsize,
    active: AtomicUsize,
    cv: Condvar,
}

impl Pool {
    fn depth(&self) -> usize {
        self.depth.load(Ordering::SeqCst)
    }

    /// Queues `job` behind every job already waiting. The notify is
    /// issued under the queue lock, so a worker between its empty check
    /// and its wait cannot miss the wakeup.
    fn push(&self, job: Job) {
        let mut queue = lock_recover(&self.queue);
        queue.push_back(job);
        self.depth.fetch_add(1, Ordering::SeqCst);
        self.cv.notify_one();
    }

    /// Takes the oldest queued job. `active` is raised *before* `depth`
    /// drops so `depth + active` never transiently hides an in-hand job
    /// from the drain coordinator.
    pub(crate) fn pop(&self) -> Option<Job> {
        let job = lock_recover(&self.queue).pop_front()?;
        self.active.fetch_add(1, Ordering::SeqCst);
        self.depth.fetch_sub(1, Ordering::SeqCst);
        Some(job)
    }

    /// Empties the queue (drain-deadline force-reject path).
    fn drain_all(&self) -> Vec<Job> {
        let jobs: Vec<Job> = lock_recover(&self.queue).drain(..).collect();
        self.depth.fetch_sub(jobs.len(), Ordering::SeqCst);
        jobs
    }
}

/// State shared by the reactor and the worker pool (and read by the
/// simulation harness, which is why the load-bearing fields are
/// crate-visible).
pub(crate) struct Shared {
    pub(crate) cfg: ServeConfig,
    pub(crate) pool: Pool,
    /// Graceful shutdown requested: stop accepting, drain the queue.
    pub(crate) stop: AtomicBool,
    /// Drain deadline passed: workers exit even with work queued.
    pub(crate) abort: AtomicBool,
    pub(crate) cache: Option<ArtifactCache>,
    pub(crate) breakers: BreakerMap,
    faults: Mutex<FaultPlan>,
    recent: Mutex<VecDeque<UnitMetrics>>,
    started: Instant,
    conn_serial: AtomicU64,
    admitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    load_degraded: AtomicU64,
    breaker_rejected: AtomicU64,
    shutdown_rejected: AtomicU64,
    net_faults_fired: AtomicU64,
    /// Finished jobs waiting for the reactor to route their responses.
    completions: Mutex<Vec<Completion>>,
    /// The reactor's doorbell (rung by workers, acked by the reactor).
    /// Crate-visible: the simulated net source reports the wake token
    /// readable exactly while a ring is pending.
    pub(crate) wake: WakePipe,
    /// Poller backend name, for the stats census.
    backend: &'static str,
    conns_accepted: AtomicU64,
    conns_open: AtomicU64,
    frames_in: AtomicU64,
    responses_out: AtomicU64,
    pipelined_peak: AtomicU64,
    write_overflow_disconnects: AtomicU64,
    wakeups: AtomicU64,
    /// Transient `listener.accept()` failures absorbed by the one-tick
    /// accept backoff (`EMFILE`-style fd exhaustion and friends).
    pub(crate) accept_errors: AtomicU64,
}

impl Shared {
    /// The current instant on the server's (possibly virtual) clock.
    pub(crate) fn now(&self) -> Instant {
        self.cfg.clock.now()
    }

    /// Time since the server started, on its clock.
    fn uptime(&self) -> Duration {
        self.now().saturating_duration_since(self.started)
    }

    fn faults_now(&self) -> FaultPlan {
        *lock_recover(&self.faults)
    }

    fn note_metrics(&self, m: UnitMetrics) {
        let mut r = lock_recover(&self.recent);
        if r.len() == RECENT_CAP {
            r.pop_front();
        }
        r.push_back(m);
    }

    /// Routes a finished job back to the reactor and rings the doorbell
    /// (a no-op while an earlier ring awaits the reactor's ack).
    fn complete(&self, c: Completion) {
        lock_recover(&self.completions).push(c);
        self.wake.ring();
    }

    pub(crate) fn summary(&self, drained_cleanly: bool) -> ServeSummary {
        ServeSummary {
            admitted: self.admitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            load_degraded: self.load_degraded.load(Ordering::Relaxed),
            breaker_rejected: self.breaker_rejected.load(Ordering::Relaxed),
            shutdown_rejected: self.shutdown_rejected.load(Ordering::Relaxed),
            drained_cleanly,
        }
    }

    /// The `server` member of the serve stats document.
    fn server_json(&self) -> Json {
        let (closed, open, half_open) = self.breakers.counts();
        let store = self.cache.as_ref().map(|c| c.stats()).unwrap_or_default();
        let n = |c: &AtomicU64| Json::num(c.load(Ordering::Relaxed));
        Json::obj([
            ("draining", Json::Bool(self.stop.load(Ordering::Relaxed))),
            ("queue_depth", Json::num(self.pool.depth() as u64)),
            (
                "active",
                Json::num(self.pool.active.load(Ordering::SeqCst) as u64),
            ),
            ("admitted", n(&self.admitted)),
            ("completed", n(&self.completed)),
            ("shed", n(&self.shed)),
            ("load_degraded", n(&self.load_degraded)),
            ("breaker_rejected", n(&self.breaker_rejected)),
            ("shutdown_rejected", n(&self.shutdown_rejected)),
            ("net_faults_fired", n(&self.net_faults_fired)),
            (
                "reactor",
                Json::obj([
                    ("backend", Json::str(self.backend)),
                    ("conns_accepted", n(&self.conns_accepted)),
                    ("conns_open", n(&self.conns_open)),
                    ("frames_in", n(&self.frames_in)),
                    ("responses_out", n(&self.responses_out)),
                    ("pipelined_peak", n(&self.pipelined_peak)),
                    (
                        "write_overflow_disconnects",
                        n(&self.write_overflow_disconnects),
                    ),
                    ("wakeups", n(&self.wakeups)),
                    ("accept_errors", n(&self.accept_errors)),
                ]),
            ),
            (
                "breakers",
                Json::obj([
                    ("closed", Json::num(closed as u64)),
                    ("open", Json::num(open as u64)),
                    ("half_open", Json::num(half_open as u64)),
                ]),
            ),
            (
                "cache",
                Json::obj([
                    ("hits", Json::num(store.hits)),
                    ("misses", Json::num(store.misses)),
                    ("partial_hits", Json::num(store.partial_hits)),
                    ("quarantined", Json::num(store.quarantined)),
                    ("swept", Json::num(store.swept)),
                ]),
            ),
            ("uptime_ms", Json::num(self.uptime().as_millis() as u64)),
        ])
    }
}

/// A running daemon: its bound address plus the handle to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    main: std::thread::JoinHandle<ServeSummary>,
}

impl ServerHandle {
    /// The address the daemon actually bound (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests graceful shutdown and waits for the drain to finish.
    pub fn shutdown(self) -> ServeSummary {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.pool.cv.notify_all();
        self.join()
    }

    /// Waits for the daemon to exit on its own (a `shutdown` request or
    /// a signal).
    pub fn join(self) -> ServeSummary {
        self.main.join().unwrap_or(ServeSummary {
            admitted: 0,
            completed: 0,
            shed: 0,
            load_degraded: 0,
            breaker_rejected: 0,
            shutdown_rejected: 0,
            drained_cleanly: false,
        })
    }
}

/// Builds the [`Shared`] state block for a given backend — the one
/// construction path for the production server and the simulation.
///
/// # Errors
///
/// Returns wake-pipe or cache-directory setup failures.
pub(crate) fn make_shared(cfg: ServeConfig, backend: &'static str) -> io::Result<Arc<Shared>> {
    let wake = WakePipe::new()?;
    let cache = match &cfg.cache_dir {
        Some(d) => {
            let c = ArtifactCache::at_dir(d)?;
            Some(match cfg.faults {
                Some(p) => c.with_faults(p),
                None => c,
            })
        }
        None => Some(match cfg.faults {
            Some(p) => ArtifactCache::in_memory().with_faults(p),
            None => ArtifactCache::in_memory(),
        }),
    };
    let started = cfg.clock.now();
    Ok(Arc::new(Shared {
        breakers: BreakerMap::new(cfg.breaker),
        faults: Mutex::new(cfg.faults.unwrap_or(FaultPlan::quiet(0))),
        pool: Pool::default(),
        cfg,
        stop: AtomicBool::new(false),
        abort: AtomicBool::new(false),
        cache,
        recent: Mutex::new(VecDeque::new()),
        started,
        conn_serial: AtomicU64::new(0),
        admitted: AtomicU64::new(0),
        completed: AtomicU64::new(0),
        shed: AtomicU64::new(0),
        load_degraded: AtomicU64::new(0),
        breaker_rejected: AtomicU64::new(0),
        shutdown_rejected: AtomicU64::new(0),
        net_faults_fired: AtomicU64::new(0),
        completions: Mutex::new(Vec::new()),
        wake,
        backend,
        conns_accepted: AtomicU64::new(0),
        conns_open: AtomicU64::new(0),
        frames_in: AtomicU64::new(0),
        responses_out: AtomicU64::new(0),
        pipelined_peak: AtomicU64::new(0),
        write_overflow_disconnects: AtomicU64::new(0),
        wakeups: AtomicU64::new(0),
        accept_errors: AtomicU64::new(0),
    }))
}

/// Binds and starts the daemon in background threads, returning once
/// the listener is live. The CLI wraps this with [`serve`]; tests use
/// the handle directly.
///
/// # Errors
///
/// Returns the bind/configuration error (including wake-pipe setup
/// failures).
pub fn start(cfg: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let poller = Poller::default();
    let backend = poller.backend();
    let sndbuf = cfg.sndbuf;
    let shared = make_shared(cfg, backend)?;
    let net = RealNet::new(poller, listener, sndbuf);

    let main = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || run_server(shared, net))
    };
    Ok(ServerHandle { addr, shared, main })
}

/// Runs the daemon to completion on the calling thread: binds, prints
/// the address, serves until a signal or `shutdown` request, drains,
/// and returns the summary. This is `matc serve`.
///
/// # Errors
///
/// Returns the bind/configuration error.
pub fn serve(cfg: ServeConfig) -> io::Result<ServeSummary> {
    install_signal_handlers();
    let handle = start(cfg)?;
    println!("matc: serving on {}", handle.addr());
    let _ = io::stdout().flush();
    Ok(handle.join())
}

/// Spawns the worker pool, runs the reactor, then joins everything.
fn run_server<N: NetSource>(shared: Arc<Shared>, net: N) -> ServeSummary {
    let workers: Vec<_> = (0..shared.cfg.jobs.max(1))
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared))
        })
        .collect();

    let mut reactor = Reactor::new(Arc::clone(&shared), net);
    let drained_cleanly = reactor.run();
    drop(reactor);

    shared.abort.store(true, Ordering::SeqCst);
    shared.pool.cv.notify_all();
    for w in workers {
        let _ = w.join();
    }
    shared.summary(drained_cleanly)
}

/// One compile worker: pops jobs in arrival order, runs the isolated
/// pipeline, feeds the breaker, renders the response, and hands it to
/// the reactor through the completion queue.
fn worker_loop(shared: &Shared) {
    let pool = &shared.pool;
    loop {
        if let Some(job) = pool.pop() {
            run_job(shared, job);
            continue;
        }
        let queue = lock_recover(&pool.queue);
        if !queue.is_empty() {
            continue;
        }
        if shared.abort.load(Ordering::SeqCst) || shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let _ = pool
            .cv
            .wait_timeout(queue, POLL)
            .unwrap_or_else(|p| p.into_inner());
    }
}

/// Executes one popped job to completion: the isolated compile, breaker
/// accounting, response rendering, and the completion hand-off. Shared
/// between [`worker_loop`] and the simulation (which runs jobs inline
/// at deterministic virtual instants instead of on the pool threads).
pub(crate) fn run_job(shared: &Shared, job: Job) {
    let outcome = compile_unit_with(&job.unit, &job.config, shared.cache.as_ref());
    // Breaker accounting: panics/fatal errors and audit-rejected
    // plans count as failures; clean and merely-degraded-by-budget
    // outcomes count as successes.
    let m = &outcome.metrics;
    let audit_rejected = m.degradations.iter().any(|d| d.stage == "audit");
    if m.error.is_some() || audit_rejected {
        shared
            .breakers
            .record_failure(&job.breaker_key, shared.now());
    } else {
        shared.breakers.record_success(&job.breaker_key);
    }
    shared.completed.fetch_add(1, Ordering::Relaxed);
    shared.note_metrics(outcome.metrics.clone());
    let line = render_outcome(&job, &outcome);
    shared.complete(Completion {
        idx: job.dest.idx,
        gen: job.dest.gen,
        seq: job.dest.seq,
        line,
        fate: job.fate,
    });
    shared.pool.active.fetch_sub(1, Ordering::SeqCst);
}

/// Response assembly for a finished compile/audit job (identical wire
/// shape to the pre-reactor server). The emitted C and plan, tens of
/// kilobytes each, are escaped straight from the artifact into the
/// line rather than copied into the `Json` tree first.
fn render_outcome(job: &Job, outcome: &UnitOutcome) -> String {
    let Some(a) = outcome.artifact.as_ref().filter(|_| job.emit) else {
        return Json::Obj(outcome_members(job, outcome)).render();
    };
    // Room for the escapes too (mostly one per line of C), so the line
    // is allocated once.
    let big = a.c_code.len() + a.plan_text.len();
    let mut line = String::with_capacity(256 + big + big / 8);
    Json::Obj(outcome_members(job, outcome)).render_to(&mut line);
    // Reopen the object and append the members `Json::Obj` would have
    // rendered last.
    let closing = line.pop();
    debug_assert_eq!(closing, Some('}'));
    for (key, value) in [("c", &a.c_code), ("plan", &a.plan_text)] {
        line.push(',');
        json::escape_into(key, &mut line);
        line.push(':');
        json::escape_into(value, &mut line);
    }
    line.push('}');
    line
}

/// Every response member except the emitted `c` and `plan`, in wire
/// order.
fn outcome_members(job: &Job, outcome: &UnitOutcome) -> Vec<(String, Json)> {
    let m = &outcome.metrics;
    let mut members: Vec<(String, Json)> = vec![
        ("ok".to_string(), Json::Bool(true)),
        ("unit".to_string(), Json::str(&job.name)),
        ("status".to_string(), Json::str(m.status())),
        (
            "cached".to_string(),
            Json::str(match m.cache {
                CacheOutcome::Hit => "hit",
                CacheOutcome::Miss => "miss",
                CacheOutcome::Partial => "partial",
                CacheOutcome::Bypass => "bypass",
            }),
        ),
        (
            "degraded_by_load".to_string(),
            Json::Bool(job.load_degraded),
        ),
    ];
    if let Some(e) = &m.error {
        members.push(("error".to_string(), Json::str(e)));
    }
    if let Some(a) = &outcome.artifact {
        members.push(("audit_errors".to_string(), Json::num(a.audit_errors())));
        members.push(("c_bytes".to_string(), Json::num(a.c_code.len() as u64)));
        if job.audit {
            // The audit findings are themselves a JSON document; embed
            // them as a value, not a string.
            let findings = Json::parse(&a.audit_json).unwrap_or_else(|_| Json::str(&a.audit_json));
            members.push(("findings".to_string(), findings));
        }
    }
    members
}

// ---------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------

/// A response slot in a connection's in-order pipeline: `resp` is
/// `None` while the job is still in flight.
struct Slot {
    seq: u64,
    resp: Option<Resp>,
}

/// A completed response, with its wire fate already decided.
enum Resp {
    Line(String),
    Silent,
    Torn(String),
}

fn wrap_fate(line: String, fate: RespFate) -> Resp {
    match fate {
        RespFate::Normal => Resp::Line(line),
        RespFate::Disconnect => Resp::Silent,
        RespFate::Torn => Resp::Torn(line),
    }
}

/// Per-connection state machine, generic over the stream type so the
/// identical code runs against real sockets and simulated pipes.
struct Conn<S> {
    stream: S,
    gen: u64,
    serial: u64,
    /// Read buffer; `rstart..` is unconsumed, `scanned..` unexamined.
    rbuf: Vec<u8>,
    rstart: usize,
    scanned: usize,
    /// Write buffer; `wstart..` is unsent.
    wbuf: Vec<u8>,
    wstart: usize,
    /// In-order response slots (the pipelining invariant lives here).
    pending: VecDeque<Slot>,
    next_seq: u64,
    req_serial: u64,
    /// Refreshed on frame consumption and response writes — not raw
    /// reads, so a byte-trickling slow loris still times out.
    last_activity: Instant,
    /// Injected stall: frame processing is deferred until this passes.
    stall_until: Option<Instant>,
    /// The first frame after a stall skips its (already-fired) stall
    /// check instead of re-firing forever.
    stall_grace: bool,
    /// Peer closed its write side; serve what's in flight, then close.
    eof: bool,
    /// Flush buffered responses, then close (torn/oversize/injected).
    close_after_flush: bool,
    /// Current poller interest includes writability.
    want_write: bool,
}

impl<S> Conn<S> {
    fn new(stream: S, gen: u64, serial: u64, now: Instant) -> Conn<S> {
        Conn {
            stream,
            gen,
            serial,
            rbuf: Vec::new(),
            rstart: 0,
            scanned: 0,
            wbuf: Vec::new(),
            wstart: 0,
            pending: VecDeque::new(),
            next_seq: 0,
            req_serial: 0,
            last_activity: now,
            stall_until: None,
            stall_grace: false,
            eof: false,
            close_after_flush: false,
            want_write: false,
        }
    }

    fn unsent(&self) -> usize {
        self.wbuf.len() - self.wstart
    }
}

/// What a dispatched frame produced.
enum Dispatch {
    /// Response known immediately (fast ops, rejections).
    Immediate(String),
    /// A job was queued; the slot fills via the completion queue.
    Queued,
}

/// The reactor: net source + connection slab, all on one thread.
pub(crate) struct Reactor<N: NetSource> {
    shared: Arc<Shared>,
    net: N,
    conns: Vec<Option<Conn<N::Conn>>>,
    free: Vec<usize>,
    next_gen: u64,
    /// Accept-error backoff: the listener is parked until this passes.
    accept_pause_until: Option<Instant>,
}

impl<N: NetSource> Reactor<N> {
    /// Builds a reactor over `net` (not yet initialized — `run` does
    /// that).
    pub(crate) fn new(shared: Arc<Shared>, net: N) -> Reactor<N> {
        Reactor {
            shared,
            net,
            conns: Vec::new(),
            free: Vec::new(),
            next_gen: 0,
            accept_pause_until: None,
        }
    }

    /// Consumes the reactor, handing back its net source. The
    /// simulation harness uses this to recover the recorded trace and
    /// invariant verdicts after `run` returns.
    pub(crate) fn into_net(self) -> N {
        self.net
    }

    /// The readiness loop. Returns `drained_cleanly`.
    pub(crate) fn run(&mut self) -> bool {
        if self
            .net
            .init(TOK_LISTENER, TOK_WAKE, self.shared.wake.read_fd())
            .is_err()
        {
            return false;
        }

        let mut events: Vec<Event> = Vec::new();
        let mut drained_cleanly = true;
        let mut drain_deadline: Option<Instant> = None;
        let mut force_rejected = false;
        loop {
            if signal_pending() {
                self.shared.stop.store(true, Ordering::SeqCst);
            }
            let stopping = self.shared.stop.load(Ordering::SeqCst);
            if stopping && drain_deadline.is_none() {
                drain_deadline =
                    Some(self.shared.now() + Duration::from_millis(self.shared.cfg.drain_ms));
                self.net.stop_listening();
                self.accept_pause_until = None;
                self.shared.pool.cv.notify_all();
            }

            // Tick bound: the poll period, shortened to the nearest
            // injected-stall expiry so stalled frames resume promptly.
            let now = self.shared.now();
            if let Some(t) = self.accept_pause_until {
                if now >= t {
                    // Backoff over: resume accepting; level-triggered
                    // readiness re-reports any waiting backlog, but try
                    // once now so nobody waits a full tick.
                    self.accept_pause_until = None;
                    self.net.set_listener_enabled(true);
                    self.on_accept();
                }
            }
            let mut timeout = POLL;
            for c in self.conns.iter().flatten() {
                if let Some(t) = c.stall_until {
                    timeout = timeout.min(t.saturating_duration_since(now));
                }
            }
            if let Some(t) = self.accept_pause_until {
                timeout = timeout.min(t.saturating_duration_since(now));
            }
            self.net.wait(&mut events, timeout);

            for &ev in &events {
                match ev.token {
                    TOK_LISTENER => self.on_accept(),
                    TOK_WAKE => {
                        self.shared.wakeups.fetch_add(1, Ordering::Relaxed);
                        self.shared.wake.ack();
                    }
                    t => {
                        let idx = (t - TOK_BASE) as usize;
                        self.on_conn_event(idx, ev);
                    }
                }
            }

            // Route finished jobs (checked every tick: the doorbell is
            // a sleep-breaker, not the source of truth).
            let done: Vec<Completion> =
                std::mem::take(&mut *lock_recover(&self.shared.completions));
            for c in done {
                self.on_completion(c);
            }

            // Resume connections whose injected stall expired.
            let now = self.shared.now();
            for idx in 0..self.conns.len() {
                let expired = matches!(
                    self.conns[idx].as_ref(),
                    Some(c) if c.stall_until.is_some_and(|t| t <= now)
                );
                if expired {
                    if let Some(c) = self.conns[idx].as_mut() {
                        c.stall_until = None;
                    }
                    self.process_frames(idx);
                }
            }

            self.sweep(stopping);

            if self.net.wants_tick_obs() {
                let obs: Vec<ConnObs> = self
                    .conns
                    .iter()
                    .enumerate()
                    .filter_map(|(idx, slot)| {
                        slot.as_ref().map(|c| ConnObs {
                            token: TOK_BASE + idx as u64,
                            serial: c.serial,
                            unsent: c.unsent(),
                            pending: c.pending.len(),
                        })
                    })
                    .collect();
                self.net.observe_tick(&obs);
            }

            if stopping {
                let dl = drain_deadline.unwrap_or(now);
                if !force_rejected && self.shared.now() > dl {
                    // Past the budget: cleanly reject whatever is still
                    // queued (in-flight compiles are left to finish —
                    // they are bounded by their own budgets/deadlines).
                    let leftovers = self.shared.pool.drain_all();
                    if !leftovers.is_empty() {
                        drained_cleanly = false;
                    }
                    for job in leftovers {
                        self.shared
                            .shutdown_rejected
                            .fetch_add(1, Ordering::Relaxed);
                        let line =
                            reject("shutting_down", "shutting down: drain deadline exceeded")
                                .render();
                        self.on_completion(Completion {
                            idx: job.dest.idx,
                            gen: job.dest.gen,
                            seq: job.dest.seq,
                            line,
                            fate: job.fate,
                        });
                    }
                    self.shared.abort.store(true, Ordering::SeqCst);
                    self.shared.pool.cv.notify_all();
                    force_rejected = true;
                }
                let quiesced = self.shared.pool.depth() == 0
                    && self.shared.pool.active.load(Ordering::SeqCst) == 0
                    && lock_recover(&self.shared.completions).is_empty()
                    && self
                        .conns
                        .iter()
                        .flatten()
                        .all(|c| c.pending.is_empty() && c.unsent() == 0);
                if quiesced {
                    break;
                }
                // Hard cutoff: a peer refusing to drain its responses
                // must not hold the daemon open forever.
                if self.shared.now() > dl + Duration::from_secs(2) {
                    break;
                }
            }
        }

        for idx in 0..self.conns.len() {
            self.kill(idx);
        }
        drained_cleanly
    }

    /// Accepts the whole backlog (nonblocking), applying the NetAccept
    /// chaos probe per connection. A transient accept *error*
    /// (`EMFILE`/`ENFILE` fd exhaustion, a handshake the kernel
    /// surfaces as an error) parks the listener for one tick instead
    /// of tearing down the reactor.
    fn on_accept(&mut self) {
        if self.accept_pause_until.is_some() {
            return;
        }
        loop {
            match self.net.accept() {
                Accepted::Conn(stream) => {
                    let serial = self.shared.conn_serial.fetch_add(1, Ordering::Relaxed);
                    self.shared.conns_accepted.fetch_add(1, Ordering::Relaxed);
                    let conn_key = format!("conn{serial}");
                    if self
                        .shared
                        .faults_now()
                        .fires(FaultSite::NetAccept, &conn_key)
                    {
                        // Injected accept failure: dropped before a
                        // single byte is read.
                        self.shared.net_faults_fired.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    let idx = self.free.pop().unwrap_or_else(|| {
                        self.conns.push(None);
                        self.conns.len() - 1
                    });
                    let token = TOK_BASE + idx as u64;
                    if self.net.register_conn(&stream, token, EV_READ).is_err() {
                        self.free.push(idx);
                        continue;
                    }
                    self.next_gen += 1;
                    self.shared.conns_open.fetch_add(1, Ordering::Relaxed);
                    self.conns[idx] =
                        Some(Conn::new(stream, self.next_gen, serial, self.shared.now()));
                }
                Accepted::Empty => return,
                Accepted::Error => {
                    self.shared.accept_errors.fetch_add(1, Ordering::Relaxed);
                    self.accept_pause_until = Some(self.shared.now() + POLL);
                    // Park the listener so level-triggered readiness
                    // doesn't spin the loop on a condition (fd
                    // exhaustion) that accepting cannot fix.
                    self.net.set_listener_enabled(false);
                    return;
                }
            }
        }
    }

    /// One connection's readiness event, with per-connection panic
    /// isolation: a poisoned conversation is closed, not fatal.
    fn on_conn_event(&mut self, idx: usize, ev: Event) {
        if self.conns.get(idx).is_none_or(|c| c.is_none()) {
            return;
        }
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if ev.readable {
                self.on_readable(idx);
            }
            if ev.writable {
                self.flush_conn(idx);
            }
        }));
        if outcome.is_err() {
            eprintln!("matc: warning: connection handler panicked; closing that connection");
            self.kill(idx);
        }
    }

    /// Drains the socket into the read buffer (bounded per tick for
    /// fairness), then processes any completed frames.
    fn on_readable(&mut self, idx: usize) {
        let mut kill = false;
        {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                return;
            };
            for _ in 0..READ_ROUNDS {
                let len = conn.rbuf.len();
                if len - conn.rstart > MAX_FRAME_BYTES {
                    break; // oversize frame: let process_frames reject it
                }
                conn.rbuf.resize(len + READ_CHUNK, 0);
                match conn.stream.read(&mut conn.rbuf[len..]) {
                    Ok(0) => {
                        conn.rbuf.truncate(len);
                        conn.eof = true;
                        break;
                    }
                    Ok(n) => conn.rbuf.truncate(len + n),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        conn.rbuf.truncate(len);
                        break;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                        conn.rbuf.truncate(len);
                    }
                    Err(_) => {
                        conn.rbuf.truncate(len);
                        kill = true;
                        break;
                    }
                }
            }
        }
        if kill {
            self.kill(idx);
            return;
        }
        self.process_frames(idx);
    }

    /// Scans and dispatches every complete frame in the read buffer,
    /// honouring injected stalls, then flushes.
    fn process_frames(&mut self, idx: usize) {
        let shared = Arc::clone(&self.shared);
        loop {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                return;
            };
            if conn.close_after_flush {
                break;
            }
            if let Some(t) = conn.stall_until {
                if shared.now() < t {
                    break;
                }
                conn.stall_until = None;
            }
            // Compact the consumed prefix so long-lived pipelined
            // connections don't grow their buffers without bound.
            if conn.rstart == conn.rbuf.len() && conn.rstart > 0 {
                conn.rbuf.clear();
                conn.rstart = 0;
                conn.scanned = 0;
            } else if conn.rstart > COMPACT_AT {
                conn.rbuf.drain(..conn.rstart);
                conn.scanned -= conn.rstart;
                conn.rstart = 0;
            }
            let Some(nl) = json::scan_frame(&conn.rbuf, conn.scanned.max(conn.rstart)) else {
                conn.scanned = conn.rbuf.len();
                if conn.rbuf.len() - conn.rstart > MAX_FRAME_BYTES {
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    conn.pending.push_back(Slot {
                        seq,
                        resp: Some(Resp::Line(
                            reject("bad_request", "request frame exceeds 8 MiB").render(),
                        )),
                    });
                    conn.close_after_flush = true;
                    conn.rbuf.clear();
                    conn.rstart = 0;
                    conn.scanned = 0;
                }
                break;
            };
            // Blank lines are frame separators, not requests.
            if conn.rbuf[conn.rstart..nl]
                .iter()
                .all(u8::is_ascii_whitespace)
            {
                conn.rstart = nl + 1;
                conn.scanned = nl + 1;
                conn.last_activity = shared.now();
                continue;
            }
            let faults = shared.faults_now();
            let req_key = format!("conn{}/req{}", conn.serial, conn.req_serial + 1);
            if !conn.stall_grace && faults.fires(FaultSite::NetStall, &req_key) {
                // Injected slow-loris pause on this request's read
                // path: defer this connection's frame processing —
                // never the reactor — until the stall passes.
                shared.net_faults_fired.fetch_add(1, Ordering::Relaxed);
                conn.stall_until =
                    Some(shared.now() + Duration::from_millis(shared.cfg.idle_timeout_ms.min(40)));
                conn.stall_grace = true;
                break;
            }
            conn.stall_grace = false;
            conn.req_serial += 1;
            conn.last_activity = shared.now();
            shared.frames_in.fetch_add(1, Ordering::Relaxed);
            let fate = if faults.fires(FaultSite::NetDisconnect, &req_key) {
                shared.net_faults_fired.fetch_add(1, Ordering::Relaxed);
                RespFate::Disconnect
            } else if faults.fires(FaultSite::NetTorn, &req_key) {
                shared.net_faults_fired.fetch_add(1, Ordering::Relaxed);
                RespFate::Torn
            } else {
                RespFate::Normal
            };
            let seq = conn.next_seq;
            conn.next_seq += 1;
            let dest = ConnRef {
                idx,
                gen: conn.gen,
                seq,
            };
            let frame_start = conn.rstart;
            conn.rstart = nl + 1;
            conn.scanned = nl + 1;
            let disp = dispatch(&shared, &conn.rbuf[frame_start..nl], dest, fate);
            match disp {
                Dispatch::Immediate(line) => conn.pending.push_back(Slot {
                    seq,
                    resp: Some(wrap_fate(line, fate)),
                }),
                Dispatch::Queued => conn.pending.push_back(Slot { seq, resp: None }),
            }
            shared
                .pipelined_peak
                .fetch_max(conn.pending.len() as u64, Ordering::Relaxed);
        }
        self.flush_conn(idx);
    }

    /// Fills a queued response slot and flushes whatever is now ready.
    fn on_completion(&mut self, c: Completion) {
        let idx = c.idx;
        {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                return; // connection died; response discarded
            };
            if conn.gen != c.gen {
                return; // slot reused by a newer connection
            }
            let Some(slot) = conn.pending.iter_mut().find(|s| s.seq == c.seq) else {
                return; // slot dropped by an earlier torn/disconnect
            };
            slot.resp = Some(wrap_fate(c.line, c.fate));
        }
        self.flush_conn(idx);
    }

    /// Moves completed in-order responses into the write buffer,
    /// writes as much as the socket accepts, enforces the write-buffer
    /// cap, and manages write-interest registration.
    fn flush_conn(&mut self, idx: usize) {
        let mut kill = false;
        let mut overflow = 0u64;
        {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                return;
            };
            // Responses leave strictly in request order: stop at the
            // first still-in-flight slot.
            while let Some(front) = conn.pending.front() {
                if front.resp.is_none() {
                    break;
                }
                let slot = conn.pending.pop_front().expect("front exists");
                match slot.resp.expect("checked above") {
                    Resp::Line(s) => {
                        conn.wbuf.extend_from_slice(s.as_bytes());
                        conn.wbuf.push(b'\n');
                        self.shared.responses_out.fetch_add(1, Ordering::Relaxed);
                    }
                    Resp::Silent => {
                        // Injected mid-frame disconnect: requests up to
                        // here answered, this one consumed silently,
                        // everything after it dropped.
                        conn.close_after_flush = true;
                        conn.pending.clear();
                        break;
                    }
                    Resp::Torn(s) => {
                        // Injected torn response: a strict prefix, then
                        // the connection dies.
                        let mut full = s.into_bytes();
                        full.push(b'\n');
                        let cut = (full.len() / 2).max(1);
                        conn.wbuf.extend_from_slice(&full[..cut]);
                        conn.close_after_flush = true;
                        conn.pending.clear();
                        break;
                    }
                }
            }
            let mut progressed = false;
            loop {
                if conn.wstart >= conn.wbuf.len() {
                    break;
                }
                match conn.stream.write(&conn.wbuf[conn.wstart..]) {
                    Ok(0) => {
                        kill = true;
                        break;
                    }
                    Ok(n) => {
                        conn.wstart += n;
                        conn.last_activity = self.shared.now();
                        progressed = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        kill = true;
                        break;
                    }
                }
            }
            if !kill {
                if conn.wstart == conn.wbuf.len() {
                    conn.wbuf.clear();
                    conn.wstart = 0;
                } else if conn.wstart > COMPACT_AT {
                    conn.wbuf.drain(..conn.wstart);
                    conn.wstart = 0;
                }
                let unsent = conn.unsent();
                if unsent > self.shared.cfg.max_write_buf.max(1) && !progressed {
                    // Backpressure: over the cap AND the socket took
                    // nothing this flush — a stalled reader forfeits
                    // the connection rather than growing server
                    // memory. A reader that is still draining is
                    // never cut, even mid-oversized-response.
                    overflow = conn.serial + 1; // +1 so conn0 is truthy
                    kill = true;
                } else {
                    let want_write = unsent > 0;
                    if want_write != conn.want_write {
                        conn.want_write = want_write;
                        let token = TOK_BASE + idx as u64;
                        let interest = if want_write {
                            EV_READ | EV_WRITE
                        } else {
                            EV_READ
                        };
                        self.net.modify_conn(&conn.stream, token, interest);
                    }
                    if unsent == 0
                        && (conn.close_after_flush
                            || (conn.eof && conn.pending.is_empty() && conn.stall_until.is_none()))
                    {
                        // A stalled frame still owes a response even
                        // after EOF — a half-closing pipelined client
                        // must not lose it to an injected stall.
                        kill = true;
                    }
                }
            }
        }
        if overflow > 0 {
            self.shared
                .write_overflow_disconnects
                .fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "matc: warning: conn{} exceeded the {}-byte write-buffer cap (stalled reader); disconnecting",
                overflow - 1,
                self.shared.cfg.max_write_buf
            );
        }
        if kill {
            self.kill(idx);
        }
    }

    /// Closes idle, finished, and (during drain) quiescent connections.
    fn sweep(&mut self, stopping: bool) {
        let idle = Duration::from_millis(self.shared.cfg.idle_timeout_ms.max(1));
        let now = self.shared.now();
        let mut doomed: Vec<usize> = Vec::new();
        for (idx, slot) in self.conns.iter().enumerate() {
            let Some(c) = slot else { continue };
            // A deferred (stalled) frame is work the connection still
            // owes a response for, even though nothing is pending yet
            // — a half-closing pipelined client must not lose it.
            let drained = c.pending.is_empty() && c.unsent() == 0 && c.stall_until.is_none();
            if drained
                && (stopping
                    || c.eof
                    || c.close_after_flush
                    || now.saturating_duration_since(c.last_activity) > idle)
            {
                doomed.push(idx);
            }
        }
        for idx in doomed {
            self.kill(idx);
        }
    }

    /// Removes a connection: deregisters, closes, frees the slab slot.
    fn kill(&mut self, idx: usize) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::take) else {
            return;
        };
        self.net
            .deregister_conn(&conn.stream, TOK_BASE + idx as u64);
        self.free.push(idx);
        self.shared.conns_open.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A structured rejection (`ok:false` + machine-readable code).
fn reject(code: &str, msg: &str) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("code", Json::str(code)),
        ("error", Json::str(msg)),
    ])
}

/// Dispatches one request frame: fast ops answer immediately, compile
/// and audit ride admission control onto the worker pool.
fn dispatch(shared: &Shared, frame: &[u8], dest: ConnRef, fate: RespFate) -> Dispatch {
    let req = match Json::parse_bytes(frame) {
        Ok(v) => v,
        Err(e) => {
            return Dispatch::Immediate(
                reject("bad_request", &format!("malformed frame: {e}")).render(),
            )
        }
    };
    let op = req.get("op").and_then(Json::as_str).unwrap_or("");
    match op {
        "healthz" => {
            let draining = shared.stop.load(Ordering::SeqCst);
            Dispatch::Immediate(
                Json::obj([
                    ("ok", Json::Bool(true)),
                    (
                        "status",
                        Json::str(if draining { "draining" } else { "ok" }),
                    ),
                    ("queue_depth", Json::num(shared.pool.depth() as u64)),
                    ("uptime_ms", Json::num(shared.uptime().as_millis() as u64)),
                ])
                .render(),
            )
        }
        "stats" => {
            // Clone the records out so workers finishing jobs
            // (`note_metrics`) never wait on a stats render.
            let units = lock_recover(&shared.recent).iter().cloned().collect();
            let store = shared.cache.as_ref().map(|c| c.stats()).unwrap_or_default();
            let report = BatchReport {
                jobs: shared.cfg.jobs,
                wall_micros: u64::try_from(shared.uptime().as_micros()).unwrap_or(u64::MAX),
                cache_hits: store.hits,
                cache_misses: store.misses,
                cache_partial_hits: store.partial_hits,
                cache_frag_misses: store.frag_misses,
                cache_quarantined: store.quarantined,
                units,
            };
            Dispatch::Immediate(stats::serve_document(&report, shared.server_json()))
        }
        "shutdown" => {
            shared.stop.store(true, Ordering::SeqCst);
            shared.pool.cv.notify_all();
            Dispatch::Immediate(
                Json::obj([("ok", Json::Bool(true)), ("draining", Json::Bool(true))]).render(),
            )
        }
        "set_faults" => {
            // Test hook: swap the fault plan at runtime so the chaos
            // matrix can open a breaker under panics, clear the fault,
            // and watch the half-open probe recover.
            let spec = req.get("spec").and_then(Json::as_str).unwrap_or("");
            let plan = if spec.is_empty() {
                Ok(FaultPlan::quiet(0))
            } else {
                FaultPlan::parse(spec)
            };
            Dispatch::Immediate(match plan {
                Ok(p) => {
                    *lock_recover(&shared.faults) = p;
                    Json::obj([
                        ("ok", Json::Bool(true)),
                        ("faults", Json::str(p.to_string())),
                    ])
                    .render()
                }
                Err(e) => reject("bad_request", &e).render(),
            })
        }
        "compile" | "audit" => compile_dispatch(shared, &req, op, dest, fate),
        other => {
            Dispatch::Immediate(reject("bad_request", &format!("unknown op `{other}`")).render())
        }
    }
}

/// Admission control + queueing for `compile` and `audit` requests.
fn compile_dispatch(
    shared: &Shared,
    req: &Json,
    op: &str,
    dest: ConnRef,
    fate: RespFate,
) -> Dispatch {
    if shared.stop.load(Ordering::SeqCst) {
        shared.shutdown_rejected.fetch_add(1, Ordering::Relaxed);
        return Dispatch::Immediate(reject("shutting_down", "server is draining").render());
    }
    let name = req
        .get("name")
        .and_then(Json::as_str)
        .unwrap_or("request")
        .to_string();
    let Some(sources) = req.get("sources").and_then(Json::as_arr) else {
        return Dispatch::Immediate(reject("bad_request", "missing `sources` array").render());
    };
    let sources: Vec<String> = sources
        .iter()
        .filter_map(|s| s.as_str().map(str::to_string))
        .collect();
    if sources.is_empty() {
        return Dispatch::Immediate(
            reject("bad_request", "`sources` must hold at least one string").render(),
        );
    }
    let deadline = req
        .get("deadline_ms")
        .and_then(Json::as_u64)
        .map(|ms| shared.now() + Duration::from_millis(ms));

    // Circuit breaker, keyed by the sources' content hash (options
    // excluded: a unit that panics the planner panics it under any
    // option set worth protecting the pool from).
    let breaker_key = CacheKey::compute(sources.iter().map(|s| s.as_str()), "breaker-v1").hex();
    if shared.breakers.check(&breaker_key, shared.now()) == BreakerDecision::Reject {
        shared.breaker_rejected.fetch_add(1, Ordering::Relaxed);
        let mut o = reject(
            "quarantined",
            "unit is circuit-broken; retry after cooldown",
        );
        if let Json::Obj(m) = &mut o {
            m.push(("breaker".to_string(), Json::str("open")));
        }
        return Dispatch::Immediate(o.render());
    }

    // Admission: shed past the cap, degrade past the high-water mark.
    let depth = shared.pool.depth();
    if depth >= shared.cfg.queue_cap {
        shared.shed.fetch_add(1, Ordering::Relaxed);
        let mut o = reject("overloaded", "queue full; retry with backoff");
        if let Json::Obj(m) = &mut o {
            m.push(("status".to_string(), Json::num(429)));
            m.push(("queue_depth".to_string(), Json::num(depth as u64)));
        }
        return Dispatch::Immediate(o.render());
    }
    let load_degraded = depth >= shared.cfg.high_water;
    let options = if load_degraded {
        shared.load_degraded.fetch_add(1, Ordering::Relaxed);
        GctdOptions {
            coalesce: false,
            ..shared.cfg.options
        }
    } else {
        shared.cfg.options
    };

    let config = BatchConfig {
        jobs: 1,
        options,
        fail_fast: false,
        phase_timeout_ms: shared.cfg.phase_timeout_ms,
        fuel: shared.cfg.fuel,
        faults: Some(shared.faults_now()),
        deadline,
    };
    shared.pool.push(Job {
        unit: Unit::new(name.clone(), sources),
        config,
        breaker_key,
        audit: op == "audit",
        emit: req.get("emit").and_then(Json::as_bool) == Some(true),
        name,
        load_degraded,
        dest,
        fate,
    });
    shared.admitted.fetch_add(1, Ordering::Relaxed);
    Dispatch::Queued
}

// ---------------------------------------------------------------------
// Signals
// ---------------------------------------------------------------------

static SIGNAL_FLAG: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_signal(_sig: i32) {
    SIGNAL_FLAG.store(true, Ordering::SeqCst);
}

/// Installs SIGINT/SIGTERM handlers that request graceful shutdown.
/// Direct libc `signal(2)` FFI — the workspace takes no dependencies,
/// and an atomic store is async-signal-safe.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}

fn signal_pending() -> bool {
    SIGNAL_FLAG.load(Ordering::SeqCst)
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// `matc request` configuration.
#[derive(Debug, Clone)]
pub struct RequestOptions {
    /// Server address.
    pub addr: String,
    /// Additional attempts after the first failure.
    pub retries: u32,
    /// End-to-end client deadline; also propagated to the server as the
    /// request's remaining `deadline_ms`.
    pub deadline_ms: Option<u64>,
    /// First backoff step (doubles per attempt, capped, jittered).
    pub backoff_base_ms: u64,
    /// Backoff ceiling.
    pub backoff_cap_ms: u64,
    /// Pipeline fan-out: send this many copies of the request on one
    /// connection before reading any response (1 = plain request).
    pub pipeline: usize,
    /// Time source for the retry/backoff/deadline bookkeeping. A
    /// virtual clock makes the backoff schedule instant and
    /// deterministic (transport-level socket timeouts stay real — they
    /// guard against a hung peer, not a slow one).
    pub clock: Clock,
}

impl Default for RequestOptions {
    fn default() -> RequestOptions {
        RequestOptions {
            addr: String::new(),
            retries: 3,
            deadline_ms: None,
            backoff_base_ms: 25,
            backoff_cap_ms: 1_000,
            pipeline: 1,
            clock: Clock::system(),
        }
    }
}

/// One connect → write frame → read frame exchange.
///
/// # Errors
///
/// Returns a transport-level description (connect/write/read failure,
/// or a torn/empty response).
pub fn send_once(addr: &str, frame: &str, timeout: Duration) -> Result<String, String> {
    let mut out = send_pipelined(addr, std::slice::from_ref(&frame.to_string()), timeout)?;
    out.pop().ok_or_else(|| "read: no response".to_string())
}

/// Connects once, writes every frame back-to-back (one syscall), then
/// reads the responses and returns them in request order — the
/// transport under [`send_once`] and `matc request --pipeline`.
///
/// # Errors
///
/// Returns a transport-level description (connect/write/read failure,
/// a torn response, or a timeout before every response arrived).
pub fn send_pipelined(
    addr: &str,
    frames: &[String],
    timeout: Duration,
) -> Result<Vec<String>, String> {
    let sock_addr = addr
        .to_socket_addrs()
        .map_err(|e| format!("resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("resolve {addr}: no address"))?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, timeout)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(POLL))
        .map_err(|e| e.to_string())?;
    let _ = stream.set_nodelay(true);
    let mut wire = String::new();
    for f in frames {
        wire.push_str(f);
        wire.push('\n');
    }
    stream
        .write_all(wire.as_bytes())
        .map_err(|e| format!("write: {e}"))?;

    let mut buf: Vec<u8> = Vec::new();
    let mut consumed = 0usize;
    let mut scanned = 0usize;
    let mut out = Vec::with_capacity(frames.len());
    let mut chunk = [0u8; 16 * 1024];
    let start = Instant::now();
    while out.len() < frames.len() {
        while let Some(nl) = json::scan_frame(&buf, scanned.max(consumed)) {
            out.push(String::from_utf8_lossy(&buf[consumed..nl]).into_owned());
            consumed = nl + 1;
            scanned = consumed;
            if out.len() == frames.len() {
                return Ok(out);
            }
        }
        scanned = buf.len();
        if start.elapsed() > timeout {
            return Err(format!(
                "read: timed out after {} of {} response(s)",
                out.len(),
                frames.len()
            ));
        }
        match std::io::Read::read(&mut stream, &mut chunk) {
            Ok(0) => {
                return Err(if buf.len() == consumed {
                    format!(
                        "read: connection closed after {} of {} response(s)",
                        out.len(),
                        frames.len()
                    )
                } else {
                    // A torn response: bytes arrived but no frame
                    // terminator — never treat a prefix as an answer.
                    "read: torn response (connection closed mid-frame)".to_string()
                });
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) => return Err(format!("read: {e}")),
        }
    }
    Ok(out)
}

/// Jitter for the client's backoff: deterministic in nothing — seeded
/// from the OS via [`std::collections::hash_map::RandomState`], so
/// concurrent clients desynchronize.
fn client_jitter(attempt: u32, cap: u64) -> u64 {
    use std::hash::{BuildHasher, Hasher};
    let mut h = std::collections::hash_map::RandomState::new().build_hasher();
    h.write_u32(attempt);
    if cap == 0 {
        0
    } else {
        h.finish() % cap
    }
}

/// Sends `payload` with retries, capped exponential backoff with
/// jitter, and deadline propagation (the server sees the *remaining*
/// client budget, shrinking per attempt).
///
/// Retried: transport failures, torn responses, unparseable frames,
/// and `overloaded` (shed) rejections. Not retried: every other
/// structured rejection — the server said no, repeating won't help.
///
/// # Errors
///
/// Returns the final failure when attempts or the deadline run out.
pub fn request_with_retries(opts: &RequestOptions, payload: &Json) -> Result<Json, String> {
    let overall_deadline = opts
        .deadline_ms
        .map(|ms| opts.clock.now() + Duration::from_millis(ms));
    let mut last_err = String::new();
    for attempt in 0..=opts.retries {
        let remaining = match overall_deadline {
            Some(d) => {
                let left = d.saturating_duration_since(opts.clock.now());
                if left.is_zero() {
                    return Err(if last_err.is_empty() {
                        "deadline exceeded before any attempt".to_string()
                    } else {
                        format!("deadline exceeded; last error: {last_err}")
                    });
                }
                left
            }
            None => Duration::from_secs(120),
        };
        // Deadline propagation: the server gets what's left, not the
        // original budget.
        let mut frame = payload.clone();
        if overall_deadline.is_some() {
            if let Json::Obj(members) = &mut frame {
                members.retain(|(k, _)| k != "deadline_ms");
                members.push((
                    "deadline_ms".to_string(),
                    Json::num(remaining.as_millis() as u64),
                ));
            }
        }
        match send_once(&opts.addr, &frame.render(), remaining) {
            Ok(line) => match Json::parse(&line) {
                Ok(resp) => {
                    let code = resp.get("code").and_then(Json::as_str);
                    if code == Some("overloaded") && attempt < opts.retries {
                        last_err = "overloaded".to_string();
                    } else {
                        return Ok(resp);
                    }
                }
                Err(e) => last_err = format!("unparseable response: {e}"),
            },
            Err(e) => last_err = e,
        }
        if attempt < opts.retries {
            let exp = opts
                .backoff_base_ms
                .saturating_mul(1u64 << attempt.min(16))
                .min(opts.backoff_cap_ms);
            let jitter = client_jitter(attempt, exp.max(1));
            let mut delay = Duration::from_millis(exp + jitter);
            if let Some(d) = overall_deadline {
                delay = delay.min(d.saturating_duration_since(opts.clock.now()));
            }
            opts.clock.sleep(delay);
        }
    }
    Err(format!(
        "request failed after {} attempt(s): {last_err}",
        opts.retries + 1
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::bench_units;
    use matc_benchsuite::Preset;

    /// The renderer `render_outcome` replaced: every member, the C and
    /// plan included, copied into one `Json::Obj`.
    fn render_outcome_by_tree(job: &Job, outcome: &UnitOutcome) -> String {
        let mut members = outcome_members(job, outcome);
        if let (true, Some(a)) = (job.emit, &outcome.artifact) {
            members.push(("c".to_string(), Json::str(&a.c_code)));
            members.push(("plan".to_string(), Json::str(&a.plan_text)));
        }
        Json::Obj(members).render()
    }

    fn job(unit: &Unit, audit: bool, emit: bool) -> Job {
        Job {
            unit: unit.clone(),
            config: BatchConfig::default(),
            breaker_key: String::new(),
            audit,
            emit,
            name: unit.name.clone(),
            load_degraded: false,
            dest: ConnRef {
                idx: 0,
                gen: 0,
                seq: 0,
            },
            fate: RespFate::Normal,
        }
    }

    #[test]
    fn pool_serves_jobs_in_admission_order() {
        let pool = Pool::default();
        for i in 0..5 {
            pool.push(job(&Unit::new(format!("u{i}"), Vec::new()), false, false));
        }
        assert_eq!(pool.depth(), 5);
        let order: Vec<String> = std::iter::from_fn(|| pool.pop()).map(|j| j.name).collect();
        assert_eq!(order, ["u0", "u1", "u2", "u3", "u4"]);
        assert_eq!(pool.depth(), 0);
        assert_eq!(pool.active.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn stats_op_keeps_the_server_key_order() {
        let handle = start(ServeConfig::default()).unwrap();
        let line = send_once(
            &handle.addr().to_string(),
            r#"{"op":"stats"}"#,
            Duration::from_secs(20),
        )
        .unwrap();
        handle.shutdown();
        let doc = Json::parse(&line).unwrap();
        fn keys(v: Option<&Json>) -> Vec<&str> {
            match v {
                Some(Json::Obj(m)) => m.iter().map(|(k, _)| k.as_str()).collect(),
                other => panic!("not an object: {other:?}"),
            }
        }
        let server = doc.get("server");
        assert_eq!(
            keys(Some(&doc)),
            [
                "schema",
                "kind",
                "server",
                "jobs",
                "wall_micros",
                "cache",
                "phase_totals_micros",
                "units"
            ]
        );
        assert_eq!(
            keys(server),
            [
                "draining",
                "queue_depth",
                "active",
                "admitted",
                "completed",
                "shed",
                "load_degraded",
                "breaker_rejected",
                "shutdown_rejected",
                "net_faults_fired",
                "reactor",
                "breakers",
                "cache",
                "uptime_ms"
            ]
        );
        assert_eq!(
            keys(server.and_then(|s| s.get("reactor"))),
            [
                "backend",
                "conns_accepted",
                "conns_open",
                "frames_in",
                "responses_out",
                "pipelined_peak",
                "write_overflow_disconnects",
                "wakeups",
                "accept_errors"
            ]
        );
        assert_eq!(
            keys(server.and_then(|s| s.get("breakers"))),
            ["closed", "open", "half_open"]
        );
        assert_eq!(
            keys(server.and_then(|s| s.get("cache"))),
            ["hits", "misses", "partial_hits", "quarantined", "swept"]
        );
    }

    #[test]
    fn responses_are_byte_identical_to_the_json_tree_rendering() {
        let cache = ArtifactCache::in_memory();
        let mut units = bench_units(Preset::Test);
        assert_eq!(units.len(), 11);
        // A unit that fails to parse answers without an artifact.
        units.push(Unit::new(
            "broken".to_string(),
            vec!["function (".to_string()],
        ));
        for unit in &units {
            // A miss that fills the cache, then a hit from it.
            for _ in 0..2 {
                let outcome = compile_unit_with(unit, &BatchConfig::default(), Some(&cache));
                assert_eq!(
                    outcome.artifact.is_some(),
                    unit.name != "broken",
                    "{}",
                    unit.name
                );
                for audit in [false, true] {
                    for emit in [false, true] {
                        let job = job(unit, audit, emit);
                        assert_eq!(
                            render_outcome(&job, &outcome),
                            render_outcome_by_tree(&job, &outcome),
                            "{} audit={audit} emit={emit}",
                            unit.name
                        );
                    }
                }
            }
        }
    }
}
