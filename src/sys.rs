//! Minimal readiness-notification layer for the serve reactor.
//!
//! The workspace takes no external crates, so this is a hand-rolled
//! wrapper over `poll(2)`, declared directly (the same idiom as the
//! `signal(2)` FFI in `src/serve.rs`). `Poller` keeps one persistent
//! `pollfd` array that registration edits in place, so a wait costs
//! one syscall and no allocation. Readiness is level-triggered: the
//! reactor above re-arms nothing and simply reads/writes until
//! `WouldBlock`.
//!
//! On non-Unix targets the same poller degenerates to a spin loop that
//! reports every registered fd ready each tick; the nonblocking sockets
//! above turn that into correct (if unfashionable) polling behaviour.
//!
//! `WakePipe` is the reactor's cross-thread doorbell: compile
//! workers finishing a job ring it (one byte), the reactor's poller
//! sees the read end become readable and acks it (drain, then reopen
//! the gate). Its atomic "already rung" gate keeps the nonblocking pipe
//! from ever filling.
//!
//! Two seams on top of the raw poller make the reactor simulable
//! (DESIGN.md §14): [`Clock`] abstracts monotonic time (system in
//! production, virtual under `matc simulate`), and `NetSource` +
//! `ConnIo` abstract the listener/poller/socket surface the reactor
//! touches. `RealNet` is the production implementation over
//! `Poller` and a nonblocking `TcpListener`; `src/sim.rs` provides
//! the deterministic in-memory one.

use std::io;
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::fd::{AsRawFd, RawFd};
#[cfg(not(unix))]
type RawFd = i32;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Interest in readability (bit for [`Poller::register`]).
pub(crate) const EV_READ: u32 = 0b01;
/// Interest in writability (bit for [`Poller::register`]).
pub(crate) const EV_WRITE: u32 = 0b10;

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Readable now (or peer hung up / error — reads won't block).
    pub readable: bool,
    /// Writable now.
    pub writable: bool,
}

/// One `struct pollfd`, the entry layout `poll(2)` reads and writes.
#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

#[cfg(unix)]
mod ffi {
    #![allow(non_camel_case_types)]
    pub type c_int = i32;
    pub type c_ulong = u64;

    extern "C" {
        pub fn poll(fds: *mut super::PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
        #[cfg(target_os = "linux")]
        pub fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
        #[cfg(not(target_os = "linux"))]
        pub fn pipe(fds: *mut c_int) -> c_int;
        #[cfg(not(target_os = "linux"))]
        pub fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
        pub fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
        #[cfg(target_os = "linux")]
        pub fn setsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_int,
            optlen: u32,
        ) -> c_int;
    }

    #[cfg(target_os = "linux")]
    pub const O_NONBLOCK: c_int = 0o4000;
    #[cfg(target_os = "linux")]
    pub const O_CLOEXEC: c_int = 0o2000000;
    // fcntl(2) commands and flags, BSD and macOS values.
    #[cfg(not(target_os = "linux"))]
    pub const F_SETFD: c_int = 2;
    #[cfg(not(target_os = "linux"))]
    pub const F_SETFL: c_int = 4;
    #[cfg(not(target_os = "linux"))]
    pub const FD_CLOEXEC: c_int = 1;
    #[cfg(not(target_os = "linux"))]
    pub const O_NONBLOCK: c_int = 4;
}

/// The readiness poller: a persistent `pollfd` array with one token
/// per entry, kept in registration order. `register`, `modify` and
/// `deregister` edit the array in place, so [`Poller::wait`] hands it
/// to `poll(2)` as is and allocates nothing. Level-triggered — the
/// reactor re-arms nothing and simply reads/writes until `WouldBlock`.
#[derive(Default)]
pub(crate) struct Poller {
    fds: Vec<PollFd>,
    /// `tokens[i]` is the token `fds[i]` was registered under.
    tokens: Vec<u64>,
}

impl Poller {
    /// The backend's wire name (surfaced in the stats census).
    pub fn backend(&self) -> &'static str {
        if cfg!(unix) {
            "poll"
        } else {
            "spin"
        }
    }

    /// Starts watching `fd` under `token` for `interest`
    /// (`EV_READ`/`EV_WRITE` bits), replacing any earlier registration
    /// of `fd`.
    pub fn register(&mut self, fd: RawFd, token: u64, interest: u32) {
        self.deregister(fd);
        self.fds.push(PollFd {
            fd,
            events: poll_events(interest),
            revents: 0,
        });
        self.tokens.push(token);
    }

    /// Changes the interest set for an already-registered `fd`.
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: u32) {
        if let Some(i) = self.slot(fd) {
            self.fds[i].events = poll_events(interest);
            self.tokens[i] = token;
        }
    }

    /// Stops watching `fd`. Call *before* closing the fd.
    pub fn deregister(&mut self, fd: RawFd) {
        if let Some(i) = self.slot(fd) {
            self.fds.remove(i);
            self.tokens.remove(i);
        }
    }

    fn slot(&self, fd: RawFd) -> Option<usize> {
        self.fds.iter().position(|p| p.fd == fd)
    }

    /// Blocks up to `timeout_ms` for readiness, appending events to
    /// `out` (cleared first). A signal interruption reports zero
    /// events rather than an error — the reactor's loop re-checks its
    /// stop flags on every tick anyway.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        out.clear();
        if let Err(e) = self.fill_revents(timeout_ms) {
            return match e.kind() {
                io::ErrorKind::Interrupted => Ok(()),
                _ => Err(e),
            };
        }
        for (p, &token) in self.fds.iter().zip(&self.tokens) {
            let r = p.revents;
            if r != 0 {
                out.push(Event {
                    token,
                    readable: r & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0,
                    writable: r & (POLLOUT | POLLERR | POLLHUP | POLLNVAL) != 0,
                });
            }
        }
        Ok(())
    }

    /// Sets every entry's `revents` with one `poll(2)` call.
    #[cfg(unix)]
    fn fill_revents(&mut self, timeout_ms: i32) -> io::Result<()> {
        let (ptr, len) = (self.fds.as_mut_ptr(), self.fds.len() as ffi::c_ulong);
        // SAFETY: the array is valid for `len` entries for the call.
        if unsafe { ffi::poll(ptr, len, timeout_ms) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Non-Unix spin: naps up to 5 ms, then reports every entry ready
    /// for exactly its interest.
    #[cfg(not(unix))]
    fn fill_revents(&mut self, timeout_ms: i32) -> io::Result<()> {
        std::thread::sleep(Duration::from_millis(timeout_ms.clamp(0, 5) as u64));
        for p in &mut self.fds {
            p.revents = p.events;
        }
        Ok(())
    }
}

/// The `pollfd.events` mask for `EV_READ`/`EV_WRITE` interest bits.
fn poll_events(interest: u32) -> i16 {
    let mut ev = 0;
    if interest & EV_READ != 0 {
        ev |= POLLIN;
    }
    if interest & EV_WRITE != 0 {
        ev |= POLLOUT;
    }
    ev
}

/// The reactor's cross-thread doorbell: a nonblocking pipe whose read
/// end lives in the poller, plus the gate that keeps at most one byte
/// in it. Workers [`WakePipe::ring`]; the reactor [`WakePipe::ack`]s
/// after the read end polls readable, then reads the completion queue.
pub(crate) struct WakePipe {
    read_fd: RawFd,
    write_fd: RawFd,
    /// Set by the ring that writes the byte, cleared by the next ack:
    /// rings in between write nothing, so the pipe never fills.
    pending: AtomicBool,
}

impl WakePipe {
    /// Opens the pipe pair, nonblocking and close-on-exec.
    pub fn new() -> io::Result<WakePipe> {
        #[cfg(unix)]
        {
            let mut fds = [0i32; 2];
            // SAFETY: fds is a valid 2-slot buffer.
            #[cfg(target_os = "linux")]
            let rc = unsafe { ffi::pipe2(fds.as_mut_ptr(), ffi::O_NONBLOCK | ffi::O_CLOEXEC) };
            // SAFETY: as above; fcntl only touches the two new fds.
            #[cfg(not(target_os = "linux"))]
            let rc = unsafe {
                let mut rc = ffi::pipe(fds.as_mut_ptr());
                for fd in fds {
                    if rc == 0 {
                        rc = ffi::fcntl(fd, ffi::F_SETFL, ffi::O_NONBLOCK)
                            | ffi::fcntl(fd, ffi::F_SETFD, ffi::FD_CLOEXEC);
                    }
                }
                rc
            };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(WakePipe {
                read_fd: fds[0],
                write_fd: fds[1],
                pending: AtomicBool::new(false),
            })
        }
        #[cfg(not(unix))]
        {
            // The spin backend never blocks, so the doorbell is moot.
            Ok(WakePipe {
                read_fd: -1,
                write_fd: -1,
                pending: AtomicBool::new(false),
            })
        }
    }

    /// The fd to register with the poller under `EV_READ`.
    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Rings the doorbell: writes one byte, unless a ring since the
    /// last [`WakePipe::ack`] already did.
    pub fn ring(&self) {
        if self.pending.swap(true, Ordering::SeqCst) {
            return;
        }
        #[cfg(unix)]
        {
            // SAFETY: one-byte write from a valid buffer.
            unsafe { ffi::write(self.write_fd, [1u8].as_ptr(), 1) };
        }
    }

    /// Answers the doorbell: drains the pipe until it would block,
    /// *then* reopens the gate.
    ///
    /// The order is the protocol. A ring that lands between the two
    /// steps finds the gate closed and writes nothing, and its
    /// completion is routed on this tick, because the reactor reads the
    /// completion queue after acking. Cleared first, the gate would let
    /// that ring write a byte the drain then swallows: the gate stays
    /// closed over an empty pipe, and every later completion waits out
    /// the poll tick.
    pub fn ack(&self) {
        self.ack_with(|| {});
    }

    /// [`WakePipe::ack`], running `between` after the drain and before
    /// the gate reopens (the seam the interleaving test rings through).
    fn ack_with(&self, between: impl FnOnce()) {
        #[cfg(unix)]
        {
            let mut buf = [0u8; 64];
            // SAFETY: reads into a valid 64-byte buffer; the fd is
            // nonblocking, so an empty pipe ends the loop with EAGAIN.
            while unsafe { ffi::read(self.read_fd, buf.as_mut_ptr(), buf.len()) } > 0 {}
        }
        between();
        self.pending.store(false, Ordering::SeqCst);
    }

    /// Whether a ring is waiting for its ack. The simulated poller
    /// reports the read end readable exactly when it is.
    pub fn pending(&self) -> bool {
        self.pending.load(Ordering::SeqCst)
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        #[cfg(unix)]
        {
            // SAFETY: both fds owned here, closed exactly once.
            unsafe {
                ffi::close(self.read_fd);
                ffi::close(self.write_fd);
            }
        }
    }
}

/// Shrinks a socket's kernel send buffer (`SO_SNDBUF`). The
/// backpressure regression test uses this to make a stalled reader
/// jam the connection with kilobytes instead of megabytes; a no-op
/// off Linux (the test is Linux-gated).
pub(crate) fn set_sndbuf(fd: RawFd, bytes: usize) -> io::Result<()> {
    #[cfg(target_os = "linux")]
    {
        const SOL_SOCKET: ffi::c_int = 1;
        const SO_SNDBUF: ffi::c_int = 7;
        let val = bytes as ffi::c_int;
        // SAFETY: optval points at a live c_int of the stated size.
        let rc = unsafe {
            ffi::setsockopt(
                fd,
                SOL_SOCKET,
                SO_SNDBUF,
                &val,
                std::mem::size_of::<ffi::c_int>() as u32,
            )
        };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (fd, bytes);
        Ok(())
    }
}

/// A monotonic time source for the serve reactor and its client:
/// the system clock in production, a virtual clock under the
/// deterministic simulation (`matc simulate`) and timing tests.
///
/// The virtual variant anchors at an arbitrary base [`Instant`]
/// captured at construction and adds an atomically advanced offset,
/// so every piece of `Instant` arithmetic in the reactor — request
/// deadlines, breaker cooldowns, stall and idle timers, drain
/// windows, client retry backoff — works unchanged. Advancing time is
/// one atomic add; nothing ever sleeps.
#[derive(Clone, Debug, Default)]
pub struct Clock {
    virt: Option<Arc<VirtualClock>>,
}

#[derive(Debug)]
struct VirtualClock {
    base: Instant,
    offset_micros: AtomicU64,
}

impl Clock {
    /// The production clock: `now()` is `Instant::now()`, `sleep()`
    /// really sleeps.
    pub fn system() -> Clock {
        Clock { virt: None }
    }

    /// A virtual clock starting at offset zero. Clones share the
    /// offset, so the simulation harness and the reactor observe the
    /// same timeline.
    pub fn simulated() -> Clock {
        Clock {
            virt: Some(Arc::new(VirtualClock {
                base: Instant::now(),
                offset_micros: AtomicU64::new(0),
            })),
        }
    }

    /// The current instant on this clock's timeline.
    pub fn now(&self) -> Instant {
        match &self.virt {
            Some(v) => v.base + Duration::from_micros(v.offset_micros.load(Ordering::Relaxed)),
            None => Instant::now(),
        }
    }

    /// Microseconds since the virtual epoch (0 on the system clock —
    /// only the simulation trace uses this).
    pub fn micros(&self) -> u64 {
        match &self.virt {
            Some(v) => v.offset_micros.load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Advances a virtual clock by `d`; a no-op on the system clock
    /// (real time advances itself).
    pub fn advance(&self, d: Duration) {
        if let Some(v) = &self.virt {
            v.offset_micros
                .fetch_add(d.as_micros() as u64, Ordering::Relaxed);
        }
    }

    /// Sleeps for `d` on the system clock; advances the timeline by
    /// `d` instantly on a virtual one (this is what makes client
    /// retry backoff free under simulation).
    pub fn sleep(&self, d: Duration) {
        match &self.virt {
            Some(_) => self.advance(d),
            None => std::thread::sleep(d),
        }
    }
}

/// The byte-stream side of a served connection — the two calls the
/// reactor issues against a socket. `WouldBlock` means "not now",
/// `Ok(0)` from read means EOF, any other error kills the connection.
pub(crate) trait ConnIo {
    /// Nonblocking read into `buf`.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    /// Nonblocking write from `buf`, returning bytes accepted.
    fn write(&mut self, buf: &[u8]) -> io::Result<usize>;
}

impl ConnIo for TcpStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        io::Read::read(self, buf)
    }
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        io::Write::write(self, buf)
    }
}

/// Outcome of one [`NetSource::accept`] attempt.
pub(crate) enum Accepted<C> {
    /// A new connection, already nonblocking with transport options
    /// applied.
    Conn(C),
    /// Backlog empty — stop accepting this tick.
    Empty,
    /// Transient accept failure (`EMFILE`/`ENFILE`, aborted handshake
    /// the kernel surfaces as an error, …). The reactor backs off one
    /// tick instead of tearing down.
    Error,
}

/// Per-connection snapshot handed to [`NetSource::observe_tick`]: the
/// simulation's invariant checker reads these; production ignores
/// them.
pub(crate) struct ConnObs {
    /// Poller token the connection is registered under.
    pub token: u64,
    /// Monotonic connection serial (fault-plan key `conn{serial}`).
    pub serial: u64,
    /// Bytes queued but not yet accepted by the transport.
    pub unsent: usize,
    /// In-flight pipelined requests (slots not yet retired).
    pub pending: usize,
}

/// Everything the reactor needs from "the network": readiness
/// notification, the listener, and per-connection registration. The
/// production implementation is `RealNet`; the simulation provides
/// an in-memory deterministic one, and the reactor itself is generic
/// over this trait so both run the identical state machines.
pub(crate) trait NetSource {
    /// The connection stream type.
    type Conn: ConnIo;

    /// Registers the listener under `listener_token` and the wake
    /// pipe's read end under `wake_token`.
    fn init(&mut self, listener_token: u64, wake_token: u64, wake_fd: RawFd) -> io::Result<()>;

    /// Permanently closes the listener (drain mode).
    fn stop_listening(&mut self);

    /// Temporarily parks / resumes the listener without closing it
    /// (accept-error backoff). Level-triggered readiness re-reports
    /// the pending backlog once re-enabled.
    fn set_listener_enabled(&mut self, enabled: bool);

    /// Accepts one pending connection.
    fn accept(&mut self) -> Accepted<Self::Conn>;

    /// Starts watching `conn` under `token` for `interest`.
    fn register_conn(&mut self, conn: &Self::Conn, token: u64, interest: u32) -> io::Result<()>;

    /// Changes the interest set for a registered connection.
    fn modify_conn(&mut self, conn: &Self::Conn, token: u64, interest: u32);

    /// Stops watching a connection (call before dropping it).
    fn deregister_conn(&mut self, conn: &Self::Conn, token: u64);

    /// Blocks up to `timeout` for readiness, filling `out` (cleared
    /// first). Backend errors are absorbed (the reactor just ticks).
    fn wait(&mut self, out: &mut Vec<Event>, timeout: Duration);

    /// True when the backend wants per-tick connection snapshots.
    fn wants_tick_obs(&self) -> bool {
        false
    }

    /// Receives the per-tick snapshots when [`Self::wants_tick_obs`]
    /// returns true.
    fn observe_tick(&mut self, _conns: &[ConnObs]) {}
}

/// Raw fd of a stream (token-keyed fallback off Unix, where the spin
/// backend ignores fds anyway).
#[cfg(unix)]
fn fd_of_stream(s: &TcpStream) -> RawFd {
    s.as_raw_fd()
}
#[cfg(not(unix))]
fn fd_of_stream(_s: &TcpStream) -> RawFd {
    0
}

/// The production `NetSource`: a `Poller` plus a nonblocking
/// `TcpListener`, with new sockets switched to nonblocking +
/// `TCP_NODELAY` and optionally a shrunken `SO_SNDBUF` before the
/// reactor sees them.
pub(crate) struct RealNet {
    poller: Poller,
    listener: Option<TcpListener>,
    listener_token: u64,
    listener_parked: bool,
    sndbuf: Option<usize>,
}

impl RealNet {
    /// Wraps an already-bound nonblocking listener.
    pub fn new(poller: Poller, listener: TcpListener, sndbuf: Option<usize>) -> RealNet {
        RealNet {
            poller,
            listener: Some(listener),
            listener_token: 0,
            listener_parked: false,
            sndbuf,
        }
    }

    #[cfg(unix)]
    fn listener_fd(&self) -> Option<RawFd> {
        self.listener.as_ref().map(|l| l.as_raw_fd())
    }
    #[cfg(not(unix))]
    fn listener_fd(&self) -> Option<RawFd> {
        self.listener.as_ref().map(|_| 0)
    }
}

impl NetSource for RealNet {
    type Conn = TcpStream;

    fn init(&mut self, listener_token: u64, wake_token: u64, wake_fd: RawFd) -> io::Result<()> {
        self.listener_token = listener_token;
        if let Some(fd) = self.listener_fd() {
            self.poller.register(fd, listener_token, EV_READ);
        }
        if wake_fd >= 0 {
            self.poller.register(wake_fd, wake_token, EV_READ);
        }
        Ok(())
    }

    fn stop_listening(&mut self) {
        if let Some(fd) = self.listener_fd() {
            if !self.listener_parked {
                self.poller.deregister(fd);
            }
        }
        self.listener = None;
    }

    fn set_listener_enabled(&mut self, enabled: bool) {
        let Some(fd) = self.listener_fd() else { return };
        if enabled && self.listener_parked {
            self.poller.register(fd, self.listener_token, EV_READ);
            self.listener_parked = false;
        } else if !enabled && !self.listener_parked {
            self.poller.deregister(fd);
            self.listener_parked = true;
        }
    }

    fn accept(&mut self) -> Accepted<TcpStream> {
        let Some(listener) = &self.listener else {
            return Accepted::Empty;
        };
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    return Accepted::Error;
                }
                let _ = stream.set_nodelay(true);
                if let Some(bytes) = self.sndbuf {
                    let _ = set_sndbuf(fd_of_stream(&stream), bytes);
                }
                Accepted::Conn(stream)
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Accepted::Empty,
            Err(_) => Accepted::Error,
        }
    }

    fn register_conn(&mut self, conn: &TcpStream, token: u64, interest: u32) -> io::Result<()> {
        self.poller.register(fd_of_stream(conn), token, interest);
        Ok(())
    }

    fn modify_conn(&mut self, conn: &TcpStream, token: u64, interest: u32) {
        self.poller.modify(fd_of_stream(conn), token, interest);
    }

    fn deregister_conn(&mut self, conn: &TcpStream, _token: u64) {
        self.poller.deregister(fd_of_stream(conn));
    }

    fn wait(&mut self, out: &mut Vec<Event>, timeout: Duration) {
        let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        if self.poller.wait(out, ms).is_err() {
            // A broken poller would spin the loop; pace it instead.
            std::thread::sleep(timeout.min(Duration::from_millis(20)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    #[cfg(unix)]
    use std::os::fd::AsRawFd;

    #[test]
    #[cfg(unix)]
    fn default_backend_round_trips() {
        let mut poller = Poller::default();
        assert_eq!(poller.backend(), "poll");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poller.register(listener.as_raw_fd(), 1, EV_READ);

        let mut events = Vec::new();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "nothing connected yet");

        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        poller.wait(&mut events, 1_000).unwrap();
        assert!(
            events.iter().any(|e| e.token == 1 && e.readable),
            "listener must poll readable on pending accept"
        );
        let (mut server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        poller.register(server.as_raw_fd(), 2, EV_READ | EV_WRITE);

        client.write_all(b"ping").unwrap();
        poller.wait(&mut events, 1_000).unwrap();
        let ev = events.iter().find(|e| e.token == 2).expect("conn event");
        assert!(ev.readable && ev.writable);
        let mut buf = [0u8; 8];
        assert_eq!(std::io::Read::read(&mut server, &mut buf).unwrap(), 4);

        // Narrow interest to read-only: no spurious writable events.
        poller.modify(server.as_raw_fd(), 2, EV_READ);
        poller.wait(&mut events, 0).unwrap();
        assert!(events.iter().all(|e| e.token != 2 || !e.writable));

        poller.deregister(server.as_raw_fd());
        client.write_all(b"x").unwrap();
        poller.wait(&mut events, 50).unwrap();
        assert!(events.iter().all(|e| e.token != 2), "deregistered fd");
    }

    /// poll(2), once the fallback behind epoll, is now the only backend;
    /// this covers its in-place edits of the pollfd array.
    #[test]
    #[cfg(unix)]
    fn poll_fallback_round_trips() {
        let mut poller = Poller::default();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poller.register(listener.as_raw_fd(), 1, EV_READ);
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        poller.register(server.as_raw_fd(), 2, EV_READ);

        // Dropping the entry in front keeps the later fd on its token.
        poller.deregister(listener.as_raw_fd());
        let mut events = Vec::new();
        client.write_all(b"x").unwrap();
        poller.wait(&mut events, 1_000).unwrap();
        assert!(events.iter().any(|e| e.token == 2 && e.readable));
        assert!(events.iter().all(|e| e.token == 2));
        let mut buf = [0u8; 8];
        assert_eq!(std::io::Read::read(&mut server, &mut buf).unwrap(), 1);

        // Registering an fd again replaces its earlier entry.
        poller.register(server.as_raw_fd(), 3, EV_READ | EV_WRITE);
        poller.wait(&mut events, 1_000).unwrap();
        assert_eq!(events.len(), 1, "one entry per fd");
        assert!(events[0].token == 3 && events[0].writable);

        poller.deregister(server.as_raw_fd());
        client.write_all(b"y").unwrap();
        poller.wait(&mut events, 50).unwrap();
        assert!(events.is_empty(), "deregistered fd");
    }

    #[test]
    #[cfg(unix)]
    fn wake_pipe_rings_through_the_poller() {
        let mut poller = Poller::default();
        let pipe = WakePipe::new().unwrap();
        poller.register(pipe.read_fd(), 9, EV_READ);
        let mut events = Vec::new();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty());
        pipe.ring();
        poller.wait(&mut events, 1_000).unwrap();
        assert!(events.iter().any(|e| e.token == 9 && e.readable));
        pipe.ack();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "acked doorbell is quiet");
    }

    #[test]
    #[cfg(unix)]
    fn a_ring_during_ack_is_never_swallowed() {
        let mut poller = Poller::default();
        let pipe = WakePipe::new().unwrap();
        poller.register(pipe.read_fd(), 9, EV_READ);
        let mut events = Vec::new();
        // The pipe is nonblocking: acking an empty one returns at once.
        pipe.ack();
        assert!(!pipe.pending());

        // The losing interleaving: a worker rings while the reactor is
        // between ack's two steps, and another completes afterwards.
        pipe.ring();
        pipe.ack_with(|| pipe.ring());
        pipe.ring();
        poller.wait(&mut events, 0).unwrap();
        assert!(
            events.iter().any(|e| e.token == 9 && e.readable),
            "the last ring must leave a byte for the reactor to wake on"
        );
        assert!(pipe.pending());
        pipe.ack();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "one ack drains every byte");
    }
}
