//! Deterministic simulation testing for the serve reactor — the engine
//! behind `matc simulate` (DESIGN.md §14).
//!
//! The *real* reactor code runs here: the same [`crate::serve`] state
//! machines, the same zero-copy framing, the same breaker, admission
//! and drain logic that production traffic exercises. What changes is
//! the world around it. The `NetSource` seam (`src/sys.rs`) is
//! implemented by `SimNet`, an in-memory network of duplex byte
//! pipes with seeded partial reads/writes, bounded capacity and fixed
//! per-link latency; the [`Clock`] seam runs on a virtual timeline
//! that advances only when the simulation decides nothing else can
//! happen first. Compile jobs do not fan onto the thread pool —
//! `SimNet` pops them from the reactor's own queue and executes them
//! inline at deterministically scheduled virtual instants. The result
//! is a single-threaded, sleep-free run in which every byte movement,
//! timer expiry and job completion is a pure function of the seed.
//!
//! Each seed derives a workload (clients, pipelined request mix,
//! worker/queue geometry, optional mid-run `shutdown`) and a fault
//! schedule ([`FaultPlan::net_from_seed`] — the exact keys the
//! real-network chaos matrix uses, so a schedule found here replays
//! against real sockets too). While the reactor runs, the harness
//! checks five invariants continuously:
//!
//! 1. **no wedge** — virtual time and tick counts are capped; a
//!    reactor that stops making progress is a failure, not a hang;
//! 2. **in-order pipelining** — response *k* on a connection answers
//!    request *k*, across compiles, immediate ops and rejections;
//! 3. **write-buffer cap** — no connection holds more than
//!    `max_write_buf` unsent bytes for a sustained virtual interval;
//! 4. **clean drain** — once stop is requested, the queue drains
//!    inside the drain budget with every buffered response flushed;
//! 5. **no cache poisoning** — every clean full-plan response carries
//!    the byte-identical reference artifact, and the artifact cache
//!    never serves anything else under the reference key.
//!
//! On violation the run's [`SimReport`] carries the seed and a
//! replayable event trace; running the same seed again produces a
//! byte-identical trace (`matc simulate --replay`). [`shrink`] then
//! greedily reduces the failing configuration — zeroing fault rates,
//! dropping clients and requests — to the smallest tweak set that
//! still fails.

use crate::batch::{compile_unit, Unit};
use crate::json::{self, Json};
use crate::serve::{make_shared, run_job, Job, Reactor, ServeConfig, ServeSummary, Shared};
use crate::sys::{Accepted, Clock, ConnIo, ConnObs, Event, NetSource, EV_WRITE};
use matc_gctd::{options_fingerprint, splitmix64, CacheKey, FaultPlan, GctdOptions};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::io;
#[cfg(unix)]
use std::os::fd::RawFd;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

#[cfg(not(unix))]
type RawFd = i32;

/// Distinct units in the simulated workload corpus.
const CORPUS: usize = 4;

/// Wedge bound on reactor ticks: a healthy run takes a few hundred.
const TICK_CAP: u64 = 200_000;

/// Wedge bound on virtual time (µs): a healthy run takes well under a
/// virtual minute.
const VIRT_CAP_US: u64 = 120_000_000;

/// Reconnect attempts a simulated client makes before giving up.
const CLIENT_ATTEMPTS: u32 = 6;

/// One corpus unit's source text (the chaos-matrix loop-accumulate
/// shape: small enough to compile in microseconds, big enough to have
/// a real storage plan).
fn unit_source(i: usize) -> String {
    format!(
        "function f()\ns = 0;\nfor i = 1:{}\ns = s + i;\nend\nfprintf('%d\\n', s);\n",
        7 + i
    )
}

/// The reference artifact for corpus unit `i`: a plain sequential
/// compile under default options, memoized once per process. Clean
/// full-plan responses and the post-run cache audit compare against
/// this byte-for-byte.
fn reference_c(i: usize) -> &'static str {
    static REF: OnceLock<Vec<String>> = OnceLock::new();
    &REF.get_or_init(|| {
        (0..CORPUS)
            .map(|u| {
                let unit = Unit::new(format!("ref{u}"), vec![unit_source(u)]);
                compile_unit(&unit, GctdOptions::default(), None)
                    .artifact
                    .expect("reference corpus unit compiles")
                    .c_code
                    .clone()
            })
            .collect()
    })[i]
}

/// A small deterministic RNG over the shared [`splitmix64`] mixer —
/// the same generator the fault plans use, so one seed namespace
/// drives faults, schedules and byte chunking.
#[derive(Clone, Copy)]
struct SimRng(u64);

impl SimRng {
    fn new(seed: u64, salt: u64) -> SimRng {
        SimRng(splitmix64(seed ^ salt))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

// ---------------------------------------------------------------------
// The simulated network
// ---------------------------------------------------------------------

/// One direction of a duplex link: bytes in flight (latency not yet
/// elapsed) plus bytes available to read, under a shared capacity
/// bound that models kernel socket buffers.
struct Pipe {
    avail: VecDeque<u8>,
    inflight: VecDeque<(u64, Vec<u8>)>,
    /// Total bytes across `inflight` chunks.
    buffered: usize,
    /// Writer hung up; EOF once the queues drain.
    closed: bool,
    /// The reader consumed the EOF (stops level-triggered readable
    /// events from spinning the reactor forever).
    eof_consumed: bool,
    cap: usize,
}

impl Pipe {
    fn new(cap: usize) -> Pipe {
        Pipe {
            avail: VecDeque::new(),
            inflight: VecDeque::new(),
            buffered: 0,
            closed: false,
            eof_consumed: false,
            cap,
        }
    }

    fn room(&self) -> usize {
        self.cap.saturating_sub(self.avail.len() + self.buffered)
    }

    fn send(&mut self, bytes: &[u8], arrive_at: u64) {
        self.buffered += bytes.len();
        self.inflight.push_back((arrive_at, bytes.to_vec()));
    }

    /// Moves every chunk whose latency has elapsed into `avail`. The
    /// per-link latency is fixed, so arrival order is FIFO.
    fn deliver(&mut self, now: u64) {
        while let Some((at, _)) = self.inflight.front() {
            if *at > now {
                break;
            }
            let (_, chunk) = self.inflight.pop_front().expect("front exists");
            self.buffered -= chunk.len();
            self.avail.extend(chunk);
        }
    }

    fn next_arrival(&self) -> Option<u64> {
        self.inflight.front().map(|(at, _)| *at)
    }

    /// EOF observable now: closed with nothing left to deliver.
    fn at_eof(&self) -> bool {
        self.closed && self.avail.is_empty() && self.inflight.is_empty()
    }
}

/// A simulated connection: client→server and server→client pipes with
/// one fixed latency. `server_gone` is the client's view of the server
/// closing its end.
struct Link {
    c2s: Pipe,
    s2c: Pipe,
    latency_us: u64,
    server_gone: bool,
}

impl Link {
    fn new(latency_us: u64, cap: usize) -> Link {
        Link {
            c2s: Pipe::new(cap),
            s2c: Pipe::new(cap),
            latency_us,
            server_gone: false,
        }
    }
}

/// The server end of a [`Link`] — what the reactor reads and writes.
/// Reads and writes move seeded partial chunks, modeling short
/// `read(2)`/`write(2)` returns.
pub(crate) struct SimConn {
    link: Rc<RefCell<Link>>,
    clock: Clock,
    rng: SimRng,
}

impl ConnIo for SimConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut l = self.link.borrow_mut();
        l.c2s.deliver(self.clock.micros());
        if l.c2s.avail.is_empty() {
            if l.c2s.closed && l.c2s.inflight.is_empty() {
                l.c2s.eof_consumed = true;
                return Ok(0);
            }
            return Err(io::Error::from(io::ErrorKind::WouldBlock));
        }
        let chunk = 1 + self.rng.below(4096) as usize;
        let n = buf.len().min(l.c2s.avail.len()).min(chunk);
        for b in buf.iter_mut().take(n) {
            *b = l.c2s.avail.pop_front().expect("length checked");
        }
        Ok(n)
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut l = self.link.borrow_mut();
        let room = l.s2c.room();
        if room == 0 {
            return Err(io::Error::from(io::ErrorKind::WouldBlock));
        }
        let chunk = 1 + self.rng.below(4096) as usize;
        let n = buf.len().min(room).min(chunk);
        let at = self.clock.micros() + l.latency_us;
        l.s2c.send(&buf[..n], at);
        Ok(n)
    }
}

impl Drop for SimConn {
    fn drop(&mut self) {
        // The reactor closing a connection: the client sees EOF after
        // whatever is already in flight arrives.
        let mut l = self.link.borrow_mut();
        l.s2c.closed = true;
        l.server_gone = true;
    }
}

// ---------------------------------------------------------------------
// Simulated clients
// ---------------------------------------------------------------------

/// What one scripted request is, for response validation.
enum ReqKind {
    /// A `compile` of corpus unit `uidx` (with `emit` so the artifact
    /// bytes can be audited).
    Compile { uidx: usize },
    /// An immediate-dispatch `healthz` wedged mid-pipeline to stress
    /// the in-order slot queue.
    Healthz,
    /// The mid-run graceful `shutdown` request.
    Shutdown,
}

/// Where a scripted client is in its life.
enum ClientState {
    /// Connect once virtual time reaches the instant.
    Waiting(u64),
    /// Driving its link.
    Connected,
    /// All responses received, or gave up.
    Done,
}

/// One scripted client: a pipelined burst of requests, reconnect-and-
/// resend on injected connection loss, strict response accounting.
struct Client {
    id: usize,
    frames: Vec<String>,
    names: Vec<String>,
    kinds: Vec<ReqKind>,
    /// Responses received across all connection attempts. Response
    /// `answered` on the current connection answers frame `answered` —
    /// reconnects resend exactly the unanswered tail.
    answered: usize,
    conn: Option<Rc<RefCell<Link>>>,
    outbox: Vec<u8>,
    outstart: usize,
    inbox: Vec<u8>,
    consumed: usize,
    scanned: usize,
    state: ClientState,
    attempts: u32,
    gave_up: bool,
    rng: SimRng,
}

impl Default for Client {
    fn default() -> Client {
        Client {
            id: 0,
            frames: Vec::new(),
            names: Vec::new(),
            kinds: Vec::new(),
            answered: 0,
            conn: None,
            outbox: Vec::new(),
            outstart: 0,
            inbox: Vec::new(),
            consumed: 0,
            scanned: 0,
            state: ClientState::Done,
            attempts: 0,
            gave_up: false,
            rng: SimRng(0),
        }
    }
}

// ---------------------------------------------------------------------
// Workload derivation
// ---------------------------------------------------------------------

/// Overrides applied on top of a seed's derived workload — the
/// shrinker's vocabulary, and the accept-error injection hook.
#[derive(Debug, Clone, Default)]
pub struct SimTweaks {
    /// Replace the seed-derived fault plan.
    pub plan: Option<FaultPlan>,
    /// Replace the seed-derived client count.
    pub clients: Option<usize>,
    /// Replace the seed-derived requests-per-client count.
    pub requests: Option<usize>,
    /// Replace the seed-derived mid-run-shutdown choice.
    pub shutdown_mid: Option<bool>,
    /// Fail this many `accept()` calls with a transient error
    /// (`EMFILE`-style) before the backlog is served — exercises the
    /// reactor's accept backoff.
    pub accept_errors: u32,
}

/// A seed's fully resolved run configuration.
struct Workload {
    plan: FaultPlan,
    clients: usize,
    reqs: usize,
    shutdown_mid: bool,
    jobs: usize,
    queue_cap: usize,
    high_water: usize,
}

fn workload(seed: u64, t: &SimTweaks) -> Workload {
    let h = splitmix64(seed ^ 0x6a09_e667_f3bc_c908);
    let queue_cap = 3 + ((h >> 8) & 3) as usize;
    Workload {
        plan: t.plan.unwrap_or_else(|| FaultPlan::net_from_seed(seed)),
        clients: t.clients.unwrap_or(1 + (h & 3) as usize).max(1),
        reqs: t.requests.unwrap_or(1 + ((h >> 2) & 7) as usize).max(1),
        shutdown_mid: t.shutdown_mid.unwrap_or((h >> 5) & 3 == 0),
        jobs: 1 + ((h >> 7) & 1) as usize,
        queue_cap,
        high_water: queue_cap.div_ceil(2),
    }
}

// ---------------------------------------------------------------------
// SimNet: the deterministic NetSource
// ---------------------------------------------------------------------

/// Registered server-side connection: the link plus current poller
/// interest.
struct Reg {
    link: Rc<RefCell<Link>>,
    interest: u32,
}

/// The deterministic in-memory `NetSource`. Because the reactor's
/// `run` loop owns the calling thread, everything else in the
/// simulation — virtual time, byte delivery, the scripted clients,
/// inline job execution, invariant checks, trace recording — happens
/// inside [`NetSource::wait`], between reactor ticks.
pub(crate) struct SimNet {
    clock: Clock,
    shared: Arc<Shared>,
    rng: SimRng,
    listener_token: u64,
    wake_token: u64,
    listening: bool,
    enabled: bool,
    backlog: VecDeque<Rc<RefCell<Link>>>,
    regs: BTreeMap<u64, Reg>,
    clients: Vec<Client>,
    /// Admitted jobs awaiting their scheduled virtual start:
    /// `(run_at_us, admission_seq, job)`.
    inflight: Vec<(u64, u64, Job)>,
    job_seq: u64,
    accept_error_budget: u32,
    normal_clients: usize,
    shutdown_mid: bool,
    shutdown_armed: bool,
    trigger_at: u64,
    stop_requested: bool,
    link_seq: u64,
    ticks: u64,
    responses: u64,
    wedged: bool,
    /// Token → first virtual instant its unsent bytes exceeded the
    /// write-buffer cap (invariant 3).
    over_cap: BTreeMap<u64, u64>,
    trace: Vec<String>,
    violation: Option<String>,
}

impl SimNet {
    fn new(
        seed: u64,
        clock: Clock,
        shared: Arc<Shared>,
        w: &Workload,
        accept_errors: u32,
    ) -> SimNet {
        let mut comp = SimRng::new(seed, 0x0000_00c0_ffee_0001);
        let mut clients = Vec::new();
        for ci in 0..w.clients {
            let start = comp.below(2_000);
            let mut frames = Vec::new();
            let mut names = Vec::new();
            let mut kinds = Vec::new();
            for ri in 0..w.reqs {
                if w.reqs >= 3 && ri == w.reqs / 2 {
                    frames.push(Json::obj([("op", Json::str("healthz"))]).render());
                    names.push(String::new());
                    kinds.push(ReqKind::Healthz);
                } else {
                    let uidx = comp.below(CORPUS as u64) as usize;
                    let name = format!("cu{uidx}-c{ci}r{ri}");
                    frames.push(
                        Json::obj([
                            ("op", Json::str("compile")),
                            ("name", Json::str(&name)),
                            ("sources", Json::Arr(vec![Json::str(unit_source(uidx))])),
                            ("deadline_ms", Json::num(30_000)),
                            ("emit", Json::Bool(true)),
                        ])
                        .render(),
                    );
                    names.push(name);
                    kinds.push(ReqKind::Compile { uidx });
                }
            }
            clients.push(Client {
                id: ci,
                frames,
                names,
                kinds,
                state: ClientState::Waiting(start),
                rng: SimRng::new(seed, 0xb0b0 + ci as u64),
                ..Client::default()
            });
        }
        let expected = (w.clients * w.reqs) as u64;
        if w.shutdown_mid {
            clients.push(Client {
                id: w.clients,
                frames: vec![Json::obj([("op", Json::str("shutdown"))]).render()],
                names: vec![String::new()],
                kinds: vec![ReqKind::Shutdown],
                state: ClientState::Waiting(u64::MAX),
                rng: SimRng::new(seed, 0xdead),
                ..Client::default()
            });
        }
        let header = format!(
            "seed={seed} plan=[{}] clients={} reqs={} jobs={} queue_cap={} high_water={} \
             shutdown_mid={} accept_errors={accept_errors}",
            w.plan, w.clients, w.reqs, w.jobs, w.queue_cap, w.high_water, w.shutdown_mid
        );
        SimNet {
            clock,
            shared,
            rng: SimRng::new(seed, 0x0000_51d4_4e45_5400),
            listener_token: 0,
            wake_token: 1,
            listening: true,
            enabled: true,
            backlog: VecDeque::new(),
            regs: BTreeMap::new(),
            clients,
            inflight: Vec::new(),
            job_seq: 0,
            accept_error_budget: accept_errors,
            normal_clients: w.clients,
            shutdown_mid: w.shutdown_mid,
            shutdown_armed: false,
            trigger_at: (expected / 2).max(1),
            stop_requested: false,
            link_seq: 0,
            ticks: 0,
            responses: 0,
            wedged: false,
            over_cap: BTreeMap::new(),
            trace: vec![header],
            violation: None,
        }
    }

    fn now_us(&self) -> u64 {
        self.clock.micros()
    }

    fn trace_at(&mut self, us: u64, line: String) {
        self.trace.push(format!("@{us} {line}"));
    }

    /// Records the first invariant violation (later ones are noise
    /// from the same root cause) and requests a stop so the run ends.
    fn fail(&mut self, msg: String) {
        if self.violation.is_none() {
            let us = self.now_us();
            self.trace_at(us, format!("violation {msg}"));
            self.violation = Some(msg);
            if !self.stop_requested {
                self.stop_requested = true;
                self.shared.stop.store(true, Ordering::SeqCst);
            }
        }
    }

    // -- job scheduling ------------------------------------------------

    /// Runs every due scheduled job (in deterministic `(run_at, seq)`
    /// order), then admits queued jobs up to the configured worker
    /// parallelism, each at a seeded future instant.
    fn pump_jobs(&mut self) {
        let now = self.now_us();
        loop {
            let mut best: Option<usize> = None;
            for (i, (at, seq, _)) in self.inflight.iter().enumerate() {
                if *at <= now
                    && best.is_none_or(|b| (*at, *seq) < (self.inflight[b].0, self.inflight[b].1))
                {
                    best = Some(i);
                }
            }
            let Some(i) = best else { break };
            let (_, _, job) = self.inflight.remove(i);
            self.trace_at(now, format!("job! {}", job.unit_name()));
            run_job(&self.shared, job);
        }
        while self.inflight.len() < self.shared.cfg.jobs.max(1) {
            let Some(job) = self.shared.pool.pop() else {
                break;
            };
            let at = now + 100 + self.rng.below(1_900);
            self.job_seq += 1;
            self.trace_at(now, format!("job+ {} at={at}", job.unit_name()));
            self.inflight.push((at, self.job_seq, job));
        }
    }

    // -- clients -------------------------------------------------------

    fn open_conn(&mut self, c: &mut Client, now: u64) {
        if !self.listening {
            c.gave_up = c.answered < c.frames.len();
            c.state = ClientState::Done;
            self.trace_at(now, format!("refused c{}", c.id));
            return;
        }
        let latency_us = 50 + self.rng.below(450);
        let cap = 2048usize << self.rng.below(3);
        let link = Rc::new(RefCell::new(Link::new(latency_us, cap)));
        self.backlog.push_back(Rc::clone(&link));
        c.outbox.clear();
        c.outstart = 0;
        for (k, f) in c.frames.iter().enumerate().skip(c.answered) {
            c.outbox.extend_from_slice(f.as_bytes());
            c.outbox.push(b'\n');
            self.trace
                .push(format!("@{now} send c{} {}#{k}", c.id, c.names[k]));
        }
        c.inbox.clear();
        c.consumed = 0;
        c.scanned = 0;
        c.conn = Some(link);
        c.state = ClientState::Connected;
        self.trace_at(now, format!("connect c{}", c.id));
    }

    fn client_io(&mut self, c: &mut Client, now: u64) {
        let Some(link) = c.conn.clone() else { return };
        {
            let mut l = link.borrow_mut();
            if !l.server_gone {
                while c.outstart < c.outbox.len() {
                    let room = l.c2s.room();
                    if room == 0 {
                        break;
                    }
                    let chunk = 1 + c.rng.below(1_500) as usize;
                    let n = (c.outbox.len() - c.outstart).min(room).min(chunk);
                    let at = now + l.latency_us;
                    let bytes: Vec<u8> = c.outbox[c.outstart..c.outstart + n].to_vec();
                    l.c2s.send(&bytes, at);
                    c.outstart += n;
                }
            }
            if c.outstart == c.outbox.len() && !l.c2s.closed {
                // All requests sent: half-close the write side, the
                // pipelined-burst discipline of the real client.
                l.c2s.closed = true;
            }
            l.s2c.deliver(now);
            while let Some(b) = l.s2c.avail.pop_front() {
                c.inbox.push(b);
            }
        }
        loop {
            let from = c.scanned.max(c.consumed);
            let Some(nl) = json::scan_frame(&c.inbox, from) else {
                c.scanned = c.inbox.len();
                break;
            };
            let line = String::from_utf8_lossy(&c.inbox[c.consumed..nl]).into_owned();
            c.consumed = nl + 1;
            c.scanned = c.consumed;
            self.handle_response(c, &line, now);
        }
        if c.answered >= c.frames.len() {
            if !matches!(c.state, ClientState::Done) {
                c.state = ClientState::Done;
                self.trace_at(now, format!("done c{}", c.id));
            }
            return;
        }
        let eof = link.borrow().s2c.at_eof();
        if eof {
            let torn = c.inbox.len() > c.consumed;
            c.conn = None;
            c.attempts += 1;
            c.inbox.clear();
            c.consumed = 0;
            c.scanned = 0;
            let tag = if torn { " torn" } else { "" };
            if !self.listening || c.attempts > CLIENT_ATTEMPTS {
                c.gave_up = true;
                c.state = ClientState::Done;
                self.trace_at(
                    now,
                    format!("giveup c{} answered={}{tag}", c.id, c.answered),
                );
            } else {
                c.state = ClientState::Waiting(now + 200 * c.attempts as u64);
                self.trace_at(
                    now,
                    format!("redial c{} answered={}{tag}", c.id, c.answered),
                );
            }
        }
    }

    /// Validates one complete response line against the request it
    /// must answer (invariants 2 and 5).
    fn handle_response(&mut self, c: &mut Client, line: &str, now: u64) {
        let k = c.answered;
        c.answered += 1;
        self.responses += 1;
        if k >= c.frames.len() {
            self.fail(format!(
                "invariant in-order: client {} received {} responses for {} requests",
                c.id,
                k + 1,
                c.frames.len()
            ));
            return;
        }
        let resp = match Json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                self.fail(format!(
                    "corrupt response: client {} frame #{k} fails to parse ({e})",
                    c.id
                ));
                return;
            }
        };
        let ok = resp.get("ok").and_then(Json::as_bool).unwrap_or(false);
        let unit = resp.get("unit").and_then(Json::as_str);
        let status = resp.get("status").and_then(Json::as_str).unwrap_or("");
        let code = resp.get("code").and_then(Json::as_str).unwrap_or("");
        match c.kinds[k] {
            ReqKind::Compile { uidx } => {
                if ok && unit != Some(c.names[k].as_str()) {
                    self.fail(format!(
                        "invariant in-order: client {} response #{k} answers unit {:?}, \
                         expected {}",
                        c.id, unit, c.names[k]
                    ));
                    return;
                }
                let degraded_by_load = resp
                    .get("degraded_by_load")
                    .and_then(Json::as_bool)
                    .unwrap_or(false);
                if ok && status == "ok" && !degraded_by_load {
                    if let Some(ccode) = resp.get("c").and_then(Json::as_str) {
                        if ccode != reference_c(uidx) {
                            self.fail(format!(
                                "invariant no-poisoning: client {} got a wrong artifact for {}",
                                c.id, c.names[k]
                            ));
                            return;
                        }
                    }
                }
            }
            ReqKind::Healthz | ReqKind::Shutdown => {
                if unit.is_some() {
                    self.fail(format!(
                        "invariant in-order: a compile response landed on client {}'s \
                         immediate-op slot #{k}",
                        c.id
                    ));
                    return;
                }
            }
        }
        let tag = if ok {
            let cached = resp.get("cached").and_then(Json::as_str).unwrap_or("-");
            format!("{status}/{cached}")
        } else {
            code.to_string()
        };
        self.trace_at(now, format!("resp c{}#{k} {tag}", c.id));
    }

    fn pump_clients(&mut self) {
        let now = self.now_us();
        for ci in 0..self.clients.len() {
            let mut c = std::mem::take(&mut self.clients[ci]);
            if let ClientState::Waiting(at) = c.state {
                if now >= at {
                    self.open_conn(&mut c, now);
                }
            }
            if let ClientState::Connected = c.state {
                self.client_io(&mut c, now);
            }
            self.clients[ci] = c;
        }
        // Fire the scripted mid-run shutdown once half the expected
        // responses are in (or the normal clients can't produce more).
        if self.shutdown_mid && !self.shutdown_armed {
            let normals_done = self.clients[..self.normal_clients]
                .iter()
                .all(|c| matches!(c.state, ClientState::Done));
            if self.responses >= self.trigger_at || normals_done {
                self.shutdown_armed = true;
                let last = self.clients.len() - 1;
                if matches!(self.clients[last].state, ClientState::Waiting(_)) {
                    self.clients[last].state = ClientState::Waiting(now);
                    self.trace_at(now, "shutdown-armed".to_string());
                }
            }
        }
        if !self.stop_requested
            && self
                .clients
                .iter()
                .all(|c| matches!(c.state, ClientState::Done))
        {
            self.stop_requested = true;
            self.shared.stop.store(true, Ordering::SeqCst);
            self.trace_at(now, "stop".to_string());
        }
    }

    fn pump(&mut self) {
        self.pump_jobs();
        self.pump_clients();
    }

    // -- readiness -----------------------------------------------------

    fn collect(&mut self, out: &mut Vec<Event>) {
        if self.shared.wake.pending() {
            out.push(Event {
                token: self.wake_token,
                readable: true,
                writable: false,
            });
        }
        if self.listening && self.enabled && !self.backlog.is_empty() {
            out.push(Event {
                token: self.listener_token,
                readable: true,
                writable: false,
            });
        }
        let now = self.now_us();
        for (&token, reg) in &self.regs {
            let mut l = reg.link.borrow_mut();
            l.c2s.deliver(now);
            l.s2c.deliver(now);
            let readable = !l.c2s.avail.is_empty()
                || (l.c2s.closed && l.c2s.inflight.is_empty() && !l.c2s.eof_consumed);
            let writable = reg.interest & EV_WRITE != 0 && l.s2c.room() > 0;
            if readable || writable {
                out.push(Event {
                    token,
                    readable,
                    writable,
                });
            }
        }
    }

    /// The earliest future instant at which anything can change:
    /// a pipe delivery, a scheduled job, or a client wake-up.
    fn next_wakeup(&self) -> Option<u64> {
        let mut t: Option<u64> = None;
        let mut upd = |x: u64| {
            t = Some(t.map_or(x, |c| c.min(x)));
        };
        for (at, _, _) in &self.inflight {
            upd(*at);
        }
        for c in &self.clients {
            if let ClientState::Waiting(at) = c.state {
                if at != u64::MAX {
                    upd(at);
                }
            }
            if let Some(link) = &c.conn {
                let l = link.borrow();
                if let Some(a) = l.c2s.next_arrival() {
                    upd(a);
                }
                if let Some(a) = l.s2c.next_arrival() {
                    upd(a);
                }
            }
        }
        for reg in self.regs.values() {
            let l = reg.link.borrow();
            if let Some(a) = l.c2s.next_arrival() {
                upd(a);
            }
            if let Some(a) = l.s2c.next_arrival() {
                upd(a);
            }
        }
        t
    }

    /// Wedge backstop: forces the reactor out through its drain path
    /// by marching virtual time forward aggressively.
    fn check_wedge(&mut self) {
        if !self.wedged && (self.ticks > TICK_CAP || self.now_us() > VIRT_CAP_US) {
            self.wedged = true;
            self.fail(format!(
                "invariant no-wedge: no progress after {} ticks / {} virtual µs",
                self.ticks,
                self.now_us()
            ));
            self.shared.abort.store(true, Ordering::SeqCst);
        }
    }
}

impl NetSource for SimNet {
    type Conn = SimConn;

    fn init(&mut self, listener_token: u64, wake_token: u64, _wake_fd: RawFd) -> io::Result<()> {
        // The wake pipe's real read end stays with Shared: completions
        // still ring one real byte, and the reactor still acks it — the
        // simulation only decides *when* the token polls readable.
        self.listener_token = listener_token;
        self.wake_token = wake_token;
        Ok(())
    }

    fn stop_listening(&mut self) {
        if !self.listening {
            return;
        }
        self.listening = false;
        // Closing the listener resets whatever is still queued behind
        // it, exactly like a real SYN backlog at close.
        while let Some(link) = self.backlog.pop_front() {
            let mut l = link.borrow_mut();
            l.s2c.closed = true;
            l.server_gone = true;
        }
    }

    fn set_listener_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn accept(&mut self) -> Accepted<SimConn> {
        if !self.listening || self.backlog.is_empty() {
            return Accepted::Empty;
        }
        if self.accept_error_budget > 0 {
            self.accept_error_budget -= 1;
            let us = self.now_us();
            self.trace_at(us, "accept-err".to_string());
            return Accepted::Error;
        }
        let link = self.backlog.pop_front().expect("non-empty checked");
        self.link_seq += 1;
        let rng = SimRng::new(self.rng.0, 0xacce_0000 + self.link_seq);
        let us = self.now_us();
        self.trace_at(us, format!("accept l{}", self.link_seq));
        Accepted::Conn(SimConn {
            link,
            clock: self.clock.clone(),
            rng,
        })
    }

    fn register_conn(&mut self, conn: &SimConn, token: u64, interest: u32) -> io::Result<()> {
        self.regs.insert(
            token,
            Reg {
                link: Rc::clone(&conn.link),
                interest,
            },
        );
        Ok(())
    }

    fn modify_conn(&mut self, _conn: &SimConn, token: u64, interest: u32) {
        if let Some(reg) = self.regs.get_mut(&token) {
            reg.interest = interest;
        }
    }

    fn deregister_conn(&mut self, _conn: &SimConn, token: u64) {
        self.regs.remove(&token);
        self.over_cap.remove(&token);
    }

    fn wait(&mut self, out: &mut Vec<Event>, timeout: Duration) {
        out.clear();
        self.ticks += 1;
        self.check_wedge();
        if self.wedged {
            // March time past every reactor deadline so the drain
            // machinery (force-reject, hard cutoff) terminates the run.
            self.clock.advance(Duration::from_secs(10));
            return;
        }
        let deadline = self
            .now_us()
            .saturating_add(timeout.as_micros().min(u128::from(u64::MAX)) as u64);
        loop {
            self.pump();
            self.collect(out);
            if !out.is_empty() {
                return;
            }
            let now = self.now_us();
            if now >= deadline {
                return;
            }
            let next = self
                .next_wakeup()
                .unwrap_or(deadline)
                .clamp(now + 1, deadline);
            self.clock.advance(Duration::from_micros(next - now));
        }
    }

    fn wants_tick_obs(&self) -> bool {
        true
    }

    fn observe_tick(&mut self, conns: &[ConnObs]) {
        let now = self.now_us();
        let cap = self.shared.cfg.max_write_buf;
        let mut failures = Vec::new();
        for o in conns {
            if o.unsent > cap {
                let since = *self.over_cap.entry(o.token).or_insert(now);
                if now.saturating_sub(since) > 1_000_000 {
                    failures.push(format!(
                        "invariant write-cap: conn{} held {} unsent bytes (> cap {cap}) \
                         for over 1 virtual second with {} responses pending",
                        o.serial, o.unsent, o.pending
                    ));
                }
            } else {
                self.over_cap.remove(&o.token);
            }
        }
        let live: Vec<u64> = conns.iter().map(|o| o.token).collect();
        self.over_cap.retain(|t, _| live.contains(t));
        for f in failures {
            self.fail(f);
        }
    }
}

// ---------------------------------------------------------------------
// Public driver
// ---------------------------------------------------------------------

/// The outcome of one simulated run: the replayable trace, the first
/// invariant violation (if any), and the run's shape.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// The seed that produced this run.
    pub seed: u64,
    /// First invariant violation, `None` for a clean run.
    pub violation: Option<String>,
    /// The replayable event trace: a header line followed by
    /// `@<virtual µs> <event>` lines. Byte-identical across runs of
    /// the same seed and tweaks.
    pub trace: String,
    /// The fault plan in force.
    pub plan: FaultPlan,
    /// Scripted client count (excluding the shutdown client).
    pub clients: usize,
    /// Pipelined requests per client.
    pub requests_per_client: usize,
    /// Whether a mid-run graceful `shutdown` was scripted.
    pub shutdown_mid: bool,
    /// Responses the clients received (including rejections).
    pub responses: u64,
    /// Reactor ticks the run took.
    pub ticks: u64,
    /// Whether the drain finished inside its budget.
    pub drained_cleanly: bool,
    /// Transient `accept()` failures the reactor absorbed (the
    /// `accept_errors` stats-census counter).
    pub accept_errors: u64,
    /// The server's own lifetime summary.
    pub summary: ServeSummary,
}

/// Runs one seed under its derived workload and fault schedule.
pub fn run_seed(seed: u64) -> SimReport {
    run_seed_with(seed, &SimTweaks::default())
}

/// Runs one seed with explicit overrides ([`SimTweaks`]) applied on
/// top of the derived workload.
pub fn run_seed_with(seed: u64, tweaks: &SimTweaks) -> SimReport {
    let w = workload(seed, tweaks);
    let clock = Clock::simulated();
    let cfg = ServeConfig {
        addr: String::new(),
        jobs: w.jobs,
        queue_cap: w.queue_cap,
        high_water: w.high_water,
        drain_ms: 2_000,
        idle_timeout_ms: 1_000,
        options: GctdOptions::default(),
        cache_dir: None,
        faults: Some(w.plan),
        max_write_buf: 1024 * 1024,
        clock: clock.clone(),
        ..ServeConfig::default()
    };
    let shared = make_shared(cfg, "sim").expect("simulation setup (wake pipe)");
    let net = SimNet::new(seed, clock, Arc::clone(&shared), &w, tweaks.accept_errors);
    let mut reactor = Reactor::new(Arc::clone(&shared), net);
    let drained_cleanly = reactor.run();
    let net = reactor.into_net();

    let mut trace = net.trace;
    let mut violation = net.violation;
    if violation.is_none() && !drained_cleanly {
        violation = Some(
            "invariant clean-drain: queued work was force-rejected past the drain budget"
                .to_string(),
        );
    }
    // Full delivery applies only when no fault can legitimately lose a
    // response: stalls delay, shed/breaker/drain rejections still
    // answer, but accept drops, disconnects and torn writes do not.
    let lossless = w.plan.net_accept_pct == 0
        && w.plan.net_disconnect_pct == 0
        && w.plan.net_torn_pct == 0
        && tweaks.accept_errors == 0
        && !w.shutdown_mid;
    if violation.is_none() && lossless {
        for c in &net.clients[..net.normal_clients] {
            if c.gave_up || c.answered < c.frames.len() {
                violation = Some(format!(
                    "invariant full-delivery: client {} got {} of {} responses with no \
                     lossy fault enabled",
                    c.id,
                    c.answered,
                    c.frames.len()
                ));
                break;
            }
        }
    }
    if violation.is_none() {
        if let Some(cache) = &shared.cache {
            let fp = options_fingerprint(&GctdOptions::default());
            for i in 0..CORPUS {
                let src = unit_source(i);
                let key = CacheKey::compute([src.as_str()], &fp);
                if let Some(a) = cache.get(&key) {
                    if a.c_code != reference_c(i) {
                        violation = Some(format!(
                            "invariant no-poisoning: the cache serves a wrong artifact \
                             under corpus unit {i}'s reference key"
                        ));
                        break;
                    }
                }
            }
        }
    }
    if let Some(v) = &violation {
        let last_is_it = trace.last().is_some_and(|l| l.ends_with(v.as_str()));
        if !last_is_it {
            trace.push(format!("violation {v}"));
        }
    }
    SimReport {
        seed,
        violation,
        trace: trace.join("\n"),
        plan: w.plan,
        clients: w.clients,
        requests_per_client: w.reqs,
        shutdown_mid: w.shutdown_mid,
        responses: net.responses,
        ticks: net.ticks,
        drained_cleanly,
        accept_errors: shared.accept_errors.load(Ordering::Relaxed),
        summary: shared.summary(drained_cleanly),
    }
}

/// Candidate one-step reductions of a failing configuration.
fn reductions(seed: u64, cur: &SimTweaks) -> Vec<SimTweaks> {
    let w = workload(seed, cur);
    let mut out = Vec::new();
    for field in 0..5usize {
        let mut p = w.plan;
        let slot = match field {
            0 => &mut p.net_accept_pct,
            1 => &mut p.net_disconnect_pct,
            2 => &mut p.net_stall_pct,
            3 => &mut p.net_torn_pct,
            _ => &mut p.phase_panic_pct,
        };
        if *slot == 0 {
            continue;
        }
        *slot = 0;
        out.push(SimTweaks {
            plan: Some(p),
            ..cur.clone()
        });
    }
    if w.clients > 1 {
        out.push(SimTweaks {
            clients: Some(w.clients - 1),
            ..cur.clone()
        });
    }
    if w.reqs > 1 {
        out.push(SimTweaks {
            requests: Some(w.reqs - 1),
            ..cur.clone()
        });
    }
    if w.shutdown_mid {
        out.push(SimTweaks {
            shutdown_mid: Some(false),
            ..cur.clone()
        });
    }
    if cur.accept_errors > 0 {
        out.push(SimTweaks {
            accept_errors: 0,
            ..cur.clone()
        });
    }
    out
}

/// Greedy fault-schedule shrinker: starting from a failing run,
/// repeatedly applies the first single-step reduction (zero one fault
/// rate, drop a client, drop a request, disable the mid-run shutdown)
/// that still violates an invariant, until no reduction does. Returns
/// the minimal tweaks and that minimal run's report.
pub fn shrink(seed: u64, base: &SimTweaks) -> (SimTweaks, SimReport) {
    let mut cur = base.clone();
    let mut rep = run_seed_with(seed, &cur);
    if rep.violation.is_none() {
        return (cur, rep);
    }
    loop {
        let mut improved = false;
        for cand in reductions(seed, &cur) {
            let r = run_seed_with(seed, &cand);
            if r.violation.is_some() {
                cur = cand;
                rep = r;
                improved = true;
                break;
            }
        }
        if !improved {
            return (cur, rep);
        }
    }
}

/// Renders the shrunk configuration for the failure report.
pub fn describe_tweaks(seed: u64, t: &SimTweaks) -> String {
    let w = workload(seed, t);
    format!(
        "plan=[{}] clients={} reqs={} shutdown_mid={} accept_errors={}",
        w.plan, w.clients, w.reqs, w.shutdown_mid, t.accept_errors
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_seed_is_clean_and_replays_identically() {
        // Seed 8 is a quiet control in the pinned chaos mixture (every
        // 8th seed keeps all network rates at zero).
        let a = run_seed(8);
        assert_eq!(a.violation, None, "quiet seed must be clean:\n{}", a.trace);
        assert!(a.responses > 0, "clients must have been served");
        let b = run_seed(8);
        assert_eq!(a.trace, b.trace, "replay must be byte-identical");
    }

    #[test]
    fn faulty_seed_replays_identically() {
        // Seed 3 derives nonzero network fault rates.
        let plan = FaultPlan::net_from_seed(3);
        assert!(
            plan.net_accept_pct + plan.net_disconnect_pct + plan.net_stall_pct + plan.net_torn_pct
                > 0,
            "seed 3 should carry network faults: {plan}"
        );
        let a = run_seed(3);
        let b = run_seed(3);
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn accept_errors_are_absorbed_and_counted() {
        let tweaks = SimTweaks {
            plan: Some(FaultPlan::quiet(5)),
            clients: Some(2),
            requests: Some(2),
            shutdown_mid: Some(false),
            accept_errors: 3,
        };
        let rep = run_seed_with(5, &tweaks);
        assert_eq!(rep.violation, None, "trace:\n{}", rep.trace);
        assert!(
            rep.trace.matches("accept-err").count() == 3,
            "all three injected accept errors must fire:\n{}",
            rep.trace
        );
        assert_eq!(
            rep.accept_errors, 3,
            "the reactor's accept_errors census counter must record each one"
        );
        // Every client still got every response: transient accept
        // failure backs off, it does not drop connections.
        assert_eq!(rep.responses, 4);
    }

    #[test]
    fn shrink_on_a_clean_seed_returns_immediately() {
        let (t, rep) = shrink(8, &SimTweaks::default());
        assert!(rep.violation.is_none());
        assert!(t.plan.is_none() && t.clients.is_none());
    }
}
