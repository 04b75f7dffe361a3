//! Minimal readiness-notification layer for the serve reactor.
//!
//! The workspace takes no external crates, so this is a hand-rolled
//! wrapper over the two relevant kernel interfaces, declared directly
//! (the same idiom as the `signal(2)` FFI in `src/serve.rs`):
//!
//! * **epoll** on Linux — `epoll_create1`/`epoll_ctl`/`epoll_wait`,
//!   level-triggered, the production backend;
//! * **poll(2)** everywhere else on Unix — a portable fallback that
//!   rebuilds its `pollfd` array per wait; O(n) per tick but with
//!   identical level-triggered semantics, so the reactor above is
//!   backend-oblivious. `MATC_SERVE_BACKEND=poll` (or
//!   `ServeConfig::force_poll`) selects it on Linux too, which is how
//!   the test suite exercises both paths on one machine.
//!
//! On non-Unix targets a degenerate spin backend reports every
//! registered fd ready each tick; the nonblocking sockets above turn
//! that into correct (if unfashionable) polling behaviour.
//!
//! [`WakePipe`] is the reactor's cross-thread doorbell: compile
//! workers finishing a job ring it (one byte), the reactor's poller
//! sees the read end become readable and acks it (drain, then reopen
//! the gate). Its atomic "already rung" gate keeps the nonblocking pipe
//! from ever filling.
//!
//! Two seams on top of the raw pollers make the reactor simulable
//! (DESIGN.md §14): [`Clock`] abstracts monotonic time (system in
//! production, virtual under `matc simulate`), and [`NetSource`] +
//! [`ConnIo`] abstract the listener/poller/socket surface the reactor
//! touches. [`RealNet`] is the production implementation over
//! [`Poller`] and a nonblocking `TcpListener`; `src/sim.rs` provides
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

#[cfg(unix)]
mod ffi {
    #![allow(non_camel_case_types)]
    pub type c_int = i32;
    pub type c_short = i16;
    pub type c_ulong = u64;

    // epoll_event carries a 64-bit user token right after the event
    // mask; the x86_64 kernel ABI packs it (no padding), other
    // architectures align it naturally.
    #[cfg(target_os = "linux")]
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct epoll_event {
        pub events: u32,
        pub data: u64,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct pollfd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    extern "C" {
        #[cfg(target_os = "linux")]
        pub fn epoll_create1(flags: c_int) -> c_int;
        #[cfg(target_os = "linux")]
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;
        #[cfg(target_os = "linux")]
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut epoll_event,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn poll(fds: *mut pollfd, nfds: c_ulong, timeout: c_int) -> c_int;
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

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;
    pub const POLLERR: c_short = 0x008;
    pub const POLLHUP: c_short = 0x010;
    pub const POLLNVAL: c_short = 0x020;

    #[cfg(target_os = "linux")]
    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
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
    #[cfg(target_os = "linux")]
    pub const EPOLL_CTL_ADD: c_int = 1;
    #[cfg(target_os = "linux")]
    pub const EPOLL_CTL_DEL: c_int = 2;
    #[cfg(target_os = "linux")]
    pub const EPOLL_CTL_MOD: c_int = 3;
    #[cfg(target_os = "linux")]
    pub const EPOLLIN: u32 = 0x001;
    #[cfg(target_os = "linux")]
    pub const EPOLLOUT: u32 = 0x004;
    #[cfg(target_os = "linux")]
    pub const EPOLLERR: u32 = 0x008;
    #[cfg(target_os = "linux")]
    pub const EPOLLHUP: u32 = 0x010;
    #[cfg(target_os = "linux")]
    pub const EPOLLRDHUP: u32 = 0x2000;
}

/// The readiness poller: epoll where available, poll(2) as the
/// portable fallback, spin on non-Unix. Level-triggered in every
/// backend — the reactor re-arms nothing and simply reads/writes
/// until `WouldBlock`.
pub(crate) enum Poller {
    /// Linux epoll instance (owned fd).
    #[cfg(target_os = "linux")]
    Epoll(EpollPoller),
    /// Portable poll(2) fallback (registration list rebuilt per wait).
    #[cfg(unix)]
    Poll(PollPoller),
    /// Non-Unix degenerate backend: everything is always ready.
    #[cfg(not(unix))]
    Spin(Vec<(RawFd, u64, u32)>),
}

impl Poller {
    /// Opens the best backend for this platform; `force_poll` selects
    /// the poll(2) fallback on Linux (tests drive both paths).
    pub fn new(force_poll: bool) -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            if !force_poll {
                return EpollPoller::new().map(Poller::Epoll);
            }
            Ok(Poller::Poll(PollPoller::default()))
        }
        #[cfg(all(unix, not(target_os = "linux")))]
        {
            let _ = force_poll;
            Ok(Poller::Poll(PollPoller::default()))
        }
        #[cfg(not(unix))]
        {
            let _ = force_poll;
            Ok(Poller::Spin(Vec::new()))
        }
    }

    /// The backend's wire name (surfaced in the stats census).
    pub fn backend(&self) -> &'static str {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(_) => "epoll",
            #[cfg(unix)]
            Poller::Poll(_) => "poll",
            #[cfg(not(unix))]
            Poller::Spin(_) => "spin",
        }
    }

    /// Starts watching `fd` under `token` for `interest`
    /// (`EV_READ`/`EV_WRITE` bits).
    pub fn register(&mut self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.ctl(ffi::EPOLL_CTL_ADD, fd, token, interest),
            #[cfg(unix)]
            Poller::Poll(p) => {
                p.regs.retain(|r| r.0 != fd);
                p.regs.push((fd, token, interest));
                Ok(())
            }
            #[cfg(not(unix))]
            Poller::Spin(regs) => {
                regs.retain(|r| r.0 != fd);
                regs.push((fd, token, interest));
                Ok(())
            }
        }
    }

    /// Changes the interest set for an already-registered `fd`.
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.ctl(ffi::EPOLL_CTL_MOD, fd, token, interest),
            #[cfg(unix)]
            Poller::Poll(p) => {
                for r in &mut p.regs {
                    if r.0 == fd {
                        *r = (fd, token, interest);
                    }
                }
                Ok(())
            }
            #[cfg(not(unix))]
            Poller::Spin(regs) => {
                for r in regs.iter_mut() {
                    if r.0 == fd {
                        *r = (fd, token, interest);
                    }
                }
                Ok(())
            }
        }
    }

    /// Stops watching `fd`. Call *before* closing the fd.
    pub fn deregister(&mut self, fd: RawFd) {
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => {
                let _ = p.ctl(ffi::EPOLL_CTL_DEL, fd, 0, 0);
            }
            #[cfg(unix)]
            Poller::Poll(p) => p.regs.retain(|r| r.0 != fd),
            #[cfg(not(unix))]
            Poller::Spin(regs) => regs.retain(|r| r.0 != fd),
        }
    }

    /// Blocks up to `timeout_ms` for readiness, appending events to
    /// `out` (cleared first). A signal interruption reports zero
    /// events rather than an error — the reactor's loop re-checks its
    /// stop flags on every tick anyway.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        out.clear();
        match self {
            #[cfg(target_os = "linux")]
            Poller::Epoll(p) => p.wait(out, timeout_ms),
            #[cfg(unix)]
            Poller::Poll(p) => p.wait(out, timeout_ms),
            #[cfg(not(unix))]
            Poller::Spin(regs) => {
                std::thread::sleep(std::time::Duration::from_millis(
                    timeout_ms.clamp(0, 5) as u64
                ));
                for (_, token, interest) in regs.iter() {
                    out.push(Event {
                        token: *token,
                        readable: interest & EV_READ != 0,
                        writable: interest & EV_WRITE != 0,
                    });
                }
                Ok(())
            }
        }
    }
}

/// Owned epoll instance.
#[cfg(target_os = "linux")]
pub(crate) struct EpollPoller {
    epfd: RawFd,
}

#[cfg(target_os = "linux")]
impl EpollPoller {
    fn new() -> io::Result<EpollPoller> {
        // SAFETY: plain syscall, no pointers.
        let epfd = unsafe { ffi::epoll_create1(ffi::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EpollPoller { epfd })
    }

    fn ctl(&mut self, op: ffi::c_int, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        let mut mask = ffi::EPOLLRDHUP;
        if interest & EV_READ != 0 {
            mask |= ffi::EPOLLIN;
        }
        if interest & EV_WRITE != 0 {
            mask |= ffi::EPOLLOUT;
        }
        let mut ev = ffi::epoll_event {
            events: mask,
            data: token,
        };
        // SAFETY: `ev` outlives the call; DEL ignores the event ptr.
        let rc = unsafe { ffi::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        let mut evs = [ffi::epoll_event { events: 0, data: 0 }; 64];
        // SAFETY: the buffer is valid for 64 entries for the call.
        let n = unsafe { ffi::epoll_wait(self.epfd, evs.as_mut_ptr(), 64, timeout_ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(e);
        }
        for ev in evs.iter().take(n as usize) {
            // Copy out of the (possibly packed) struct before use.
            let mask = ev.events;
            let token = ev.data;
            out.push(Event {
                token,
                readable: mask & (ffi::EPOLLIN | ffi::EPOLLERR | ffi::EPOLLHUP | ffi::EPOLLRDHUP)
                    != 0,
                writable: mask & (ffi::EPOLLOUT | ffi::EPOLLERR | ffi::EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Drop for EpollPoller {
    fn drop(&mut self) {
        // SAFETY: fd owned by this struct, closed exactly once.
        unsafe { ffi::close(self.epfd) };
    }
}

/// Portable poll(2) backend: a flat registration list, one `pollfd`
/// array rebuilt per wait.
#[cfg(unix)]
#[derive(Default)]
pub(crate) struct PollPoller {
    regs: Vec<(RawFd, u64, u32)>,
}

#[cfg(unix)]
impl PollPoller {
    fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        let mut fds: Vec<ffi::pollfd> = self
            .regs
            .iter()
            .map(|(fd, _, interest)| {
                let mut ev: ffi::c_short = 0;
                if interest & EV_READ != 0 {
                    ev |= ffi::POLLIN;
                }
                if interest & EV_WRITE != 0 {
                    ev |= ffi::POLLOUT;
                }
                ffi::pollfd {
                    fd: *fd,
                    events: ev,
                    revents: 0,
                }
            })
            .collect();
        // SAFETY: the array is valid for `len` entries for the call.
        let n = unsafe { ffi::poll(fds.as_mut_ptr(), fds.len() as ffi::c_ulong, timeout_ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(e);
        }
        for (pfd, (_, token, _)) in fds.iter().zip(self.regs.iter()) {
            let r = pfd.revents;
            if r == 0 {
                continue;
            }
            out.push(Event {
                token: *token,
                readable: r & (ffi::POLLIN | ffi::POLLERR | ffi::POLLHUP | ffi::POLLNVAL) != 0,
                writable: r & (ffi::POLLOUT | ffi::POLLERR | ffi::POLLHUP | ffi::POLLNVAL) != 0,
            });
        }
        Ok(())
    }
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

    /// True for the virtual variant.
    pub fn is_virtual(&self) -> bool {
        self.virt.is_some()
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
/// production implementation is [`RealNet`]; the simulation provides
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

/// The production [`NetSource`]: a [`Poller`] plus a nonblocking
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
            self.poller.register(fd, listener_token, EV_READ)?;
        }
        if wake_fd >= 0 {
            self.poller.register(wake_fd, wake_token, EV_READ)?;
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
            let _ = self.poller.register(fd, self.listener_token, EV_READ);
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
        self.poller.register(fd_of_stream(conn), token, interest)
    }

    fn modify_conn(&mut self, conn: &TcpStream, token: u64, interest: u32) {
        let _ = self.poller.modify(fd_of_stream(conn), token, interest);
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

    #[cfg(unix)]
    fn backend_round_trip(force_poll: bool) {
        let mut poller = Poller::new(force_poll).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        poller.register(listener.as_raw_fd(), 1, EV_READ).unwrap();

        let mut events = Vec::new();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "nothing connected yet");

        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        poller.wait(&mut events, 1_000).unwrap();
        assert!(
            events.iter().any(|e| e.token == 1 && e.readable),
            "{}: listener must poll readable on pending accept",
            poller.backend()
        );
        let (mut server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        poller
            .register(server.as_raw_fd(), 2, EV_READ | EV_WRITE)
            .unwrap();

        client.write_all(b"ping").unwrap();
        poller.wait(&mut events, 1_000).unwrap();
        let ev = events.iter().find(|e| e.token == 2).expect("conn event");
        assert!(ev.readable && ev.writable);
        let mut buf = [0u8; 8];
        assert_eq!(std::io::Read::read(&mut server, &mut buf).unwrap(), 4);

        // Narrow interest to read-only: no spurious writable events.
        poller.modify(server.as_raw_fd(), 2, EV_READ).unwrap();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.iter().all(|e| e.token != 2 || !e.writable));

        poller.deregister(server.as_raw_fd());
        client.write_all(b"x").unwrap();
        poller.wait(&mut events, 50).unwrap();
        assert!(events.iter().all(|e| e.token != 2), "deregistered fd");
    }

    #[test]
    #[cfg(unix)]
    fn default_backend_round_trips() {
        backend_round_trip(false);
    }

    #[test]
    #[cfg(unix)]
    fn poll_fallback_round_trips() {
        backend_round_trip(true);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn force_poll_selects_the_fallback() {
        assert_eq!(Poller::new(false).unwrap().backend(), "epoll");
        assert_eq!(Poller::new(true).unwrap().backend(), "poll");
    }

    #[test]
    #[cfg(unix)]
    fn wake_pipe_rings_through_both_backends() {
        for force_poll in [false, true] {
            let mut poller = Poller::new(force_poll).unwrap();
            let pipe = WakePipe::new().unwrap();
            poller.register(pipe.read_fd(), 9, EV_READ).unwrap();
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
    }

    #[test]
    #[cfg(unix)]
    fn a_ring_during_ack_is_never_swallowed() {
        let mut poller = Poller::new(false).unwrap();
        let pipe = WakePipe::new().unwrap();
        poller.register(pipe.read_fd(), 9, EV_READ).unwrap();
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
