//! Readiness polling for the serving reactor, with zero crate
//! dependencies (the same no-crate syscall precedent as the slab
//! `mmap` wrapper in `ml4all-dataflow`). Unix only.
//!
//! One [`Poller`] instance backs the whole server. The backend is
//! chosen at compile time, by target alone:
//!
//! - **Linux** — raw `epoll` (level-triggered), the production path;
//! - **every other Unix** — a `poll(2)` loop rebuilt from the
//!   registration table per wait.
//!
//! Both modules expose the same `Poller` (`new`, `waker`, `register`,
//! `update`, `deregister`, `wait`) and must pass the same contract tests;
//! on Linux the `poll(2)` module is compiled for those tests as well, so
//! the fallback is exercised on the host CI runs on.
//!
//! Cross-thread wake-ups use the classic self-pipe trick:
//! [`Waker::wake`] is safe from any thread, including the engine's
//! worker threads pushing job events at the reactor.

use std::time::Duration;

/// What a registered source is currently interested in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the source is readable.
    pub read: bool,
    /// Wake when the source is writable.
    pub write: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Self = Self {
        read: true,
        write: false,
    };
    /// Read-and-write interest.
    pub const BOTH: Self = Self {
        read: true,
        write: true,
    };
    /// Write-only interest (a paused reader still draining its
    /// responses).
    pub const WRITE: Self = Self {
        read: false,
        write: true,
    };
    /// No interest (parked; kept registered for cheap re-arming).
    pub const NONE: Self = Self {
        read: false,
        write: false,
    };
}

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the source was registered under.
    pub token: u64,
    /// Reading will make progress (data, EOF, or an error to observe).
    pub readable: bool,
    /// Writing will make progress.
    pub writable: bool,
    /// The peer hung up or the source errored; the owner should read to
    /// observe the failure and close.
    pub hangup: bool,
}

/// A cheap, cloneable cross-thread handle that interrupts
/// [`Poller::wait`].
#[derive(Clone)]
pub struct Waker(pipe::Notifier);

impl Waker {
    /// Interrupt the poller's current (or next) wait. Safe from any
    /// thread; coalesces — a thousand wakes cost one wake-up.
    pub fn wake(&self) {
        self.0.notify();
    }
}

#[cfg(target_os = "linux")]
pub use epoll::Poller;
#[cfg(not(target_os = "linux"))]
pub use poll::Poller;

/// `Poller::wait`'s timeout as the milliseconds `epoll_wait` and `poll`
/// take: `-1` blocks, and a sub-millisecond wait rounds up, not to a
/// busy spin.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    timeout.map_or(-1, |t| {
        i32::try_from(t.as_millis().max(1)).unwrap_or(i32::MAX)
    })
}

// ---------------------------------------------------------------------
// Self-pipe plumbing shared by both backends
// ---------------------------------------------------------------------

mod pipe {
    use std::io;
    use std::sync::Arc;

    extern "C" {
        fn pipe(fds: *mut i32) -> i32;
        fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    const F_GETFL: i32 = 3;
    const F_SETFL: i32 = 4;
    #[cfg(target_os = "linux")]
    const O_NONBLOCK: i32 = 0o4000;
    #[cfg(not(target_os = "linux"))]
    const O_NONBLOCK: i32 = 0x4;

    /// A nonblocking self-pipe: `notify` writes one byte, `drain` empties
    /// the read side. Both ends close on drop.
    pub struct SelfPipe {
        read_fd: i32,
        write_fd: Arc<WriteEnd>,
    }

    struct WriteEnd(i32);

    impl Drop for WriteEnd {
        fn drop(&mut self) {
            unsafe { close(self.0) };
        }
    }

    impl SelfPipe {
        pub fn new() -> io::Result<Self> {
            let mut fds = [0i32; 2];
            if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
                return Err(io::Error::last_os_error());
            }
            for fd in fds {
                let flags = unsafe { fcntl(fd, F_GETFL, 0) };
                if flags < 0 || unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) } < 0 {
                    let err = io::Error::last_os_error();
                    unsafe {
                        close(fds[0]);
                        close(fds[1]);
                    }
                    return Err(err);
                }
            }
            Ok(Self {
                read_fd: fds[0],
                write_fd: Arc::new(WriteEnd(fds[1])),
            })
        }

        pub fn read_fd(&self) -> i32 {
            self.read_fd
        }

        pub fn notifier(&self) -> Notifier {
            Notifier(Arc::clone(&self.write_fd))
        }

        /// Empty the pipe (the wake-ups coalesce into one loop turn).
        pub fn drain(&self) {
            let mut buf = [0u8; 64];
            loop {
                let n = unsafe { read(self.read_fd, buf.as_mut_ptr(), buf.len()) };
                if n <= 0 {
                    // EAGAIN (empty) or error either way: drained enough.
                    return;
                }
            }
        }
    }

    impl Drop for SelfPipe {
        fn drop(&mut self) {
            unsafe { close(self.read_fd) };
        }
    }

    /// The write end, cloneable across threads.
    #[derive(Clone)]
    pub struct Notifier(Arc<WriteEnd>);

    impl Notifier {
        pub fn notify(&self) {
            let byte = 1u8;
            // A full pipe (EAGAIN) already guarantees a pending wake-up.
            let _ = unsafe { write(self.0 .0, &byte, 1) };
        }
    }
}

// ---------------------------------------------------------------------
// Linux: epoll
// ---------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod epoll {
    use super::pipe::SelfPipe;
    use super::{timeout_ms, Event, Interest, Waker};
    use std::io;
    use std::os::unix::io::AsRawFd;
    use std::time::Duration;

    // The kernel ABI packs epoll_event on x86-64 only.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// The waker's reserved token; never surfaced to the caller.
    const WAKER_TOKEN: u64 = u64::MAX;

    /// The reactor's readiness source, over `epoll`.
    pub struct Poller {
        epfd: i32,
        pipe: SelfPipe,
        buf: Vec<EpollEvent>,
    }

    fn mask(interest: Interest) -> u32 {
        let mut events = EPOLLRDHUP;
        if interest.read {
            events |= EPOLLIN;
        }
        if interest.write {
            events |= EPOLLOUT;
        }
        events
    }

    fn ctl(epfd: i32, op: i32, fd: i32, events: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent {
            events,
            data: token,
        };
        if unsafe { epoll_ctl(epfd, op, fd, &mut event) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    impl Poller {
        /// The backend name, surfaced in server stats.
        pub const BACKEND: &'static str = "epoll";

        /// Open a poller (and its internal wake-up channel).
        pub fn new() -> io::Result<Self> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            let pipe = match SelfPipe::new() {
                Ok(pipe) => pipe,
                Err(e) => {
                    unsafe { close(epfd) };
                    return Err(e);
                }
            };
            let poller = Self {
                epfd,
                buf: Vec::with_capacity(256),
                pipe,
            };
            ctl(
                poller.epfd,
                EPOLL_CTL_ADD,
                poller.pipe.read_fd(),
                EPOLLIN,
                WAKER_TOKEN,
            )?;
            Ok(poller)
        }

        /// A handle other threads use to interrupt [`Poller::wait`].
        pub fn waker(&self) -> Waker {
            Waker(self.pipe.notifier())
        }

        /// Start watching `source` under `token`.
        pub fn register(
            &mut self,
            source: &impl AsRawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            let fd = source.as_raw_fd();
            ctl(self.epfd, EPOLL_CTL_ADD, fd, mask(interest), token)
        }

        /// Change what an already-registered source is interested in.
        pub fn update(
            &mut self,
            source: &impl AsRawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            let fd = source.as_raw_fd();
            ctl(self.epfd, EPOLL_CTL_MOD, fd, mask(interest), token)
        }

        /// Stop watching `source` (call before closing it).
        pub fn deregister(&mut self, source: &impl AsRawFd) -> io::Result<()> {
            ctl(self.epfd, EPOLL_CTL_DEL, source.as_raw_fd(), 0, 0)
        }

        /// Block until at least one source is ready, a waker fires, or
        /// `timeout` passes; readiness lands in `out` (cleared first).
        /// Returns the number of readiness events (0 on timeout or wake).
        pub fn wait(
            &mut self,
            out: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            out.clear();
            self.buf.resize(256, EpollEvent { events: 0, data: 0 });
            let n = loop {
                let n = unsafe {
                    epoll_wait(
                        self.epfd,
                        self.buf.as_mut_ptr(),
                        self.buf.len() as i32,
                        timeout_ms(timeout),
                    )
                };
                if n >= 0 {
                    break n as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for raw in &self.buf[..n] {
                let (events, data) = (raw.events, raw.data);
                if data == WAKER_TOKEN {
                    self.pipe.drain();
                    continue;
                }
                out.push(Event {
                    token: data,
                    readable: events & (EPOLLIN | EPOLLHUP | EPOLLRDHUP | EPOLLERR) != 0,
                    writable: events & (EPOLLOUT | EPOLLERR) != 0,
                    hangup: events & (EPOLLHUP | EPOLLERR) != 0,
                });
            }
            Ok(out.len())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe { close(self.epfd) };
        }
    }
}

// ---------------------------------------------------------------------
// Every other Unix (and Linux under test): poll(2) loop
// ---------------------------------------------------------------------

#[cfg(any(test, not(target_os = "linux")))]
mod poll {
    use super::pipe::SelfPipe;
    use super::{timeout_ms, Event, Interest, Waker};
    use std::collections::HashMap;
    use std::io;
    use std::os::unix::io::AsRawFd;
    use std::time::Duration;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    /// C's `nfds_t`: `unsigned long` on Linux, `unsigned int` on macOS
    /// and the BSDs.
    #[cfg(target_os = "linux")]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::ffi::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: i32) -> i32;
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    /// The reactor's readiness source, over `poll(2)`.
    pub struct Poller {
        pipe: SelfPipe,
        registered: HashMap<i32, (u64, Interest)>,
        buf: Vec<PollFd>,
    }

    impl Poller {
        /// The backend name, surfaced in server stats.
        pub const BACKEND: &'static str = "poll";

        /// Open a poller (and its internal wake-up channel).
        pub fn new() -> io::Result<Self> {
            Ok(Self {
                pipe: SelfPipe::new()?,
                registered: HashMap::new(),
                buf: Vec::new(),
            })
        }

        /// A handle other threads use to interrupt [`Poller::wait`].
        pub fn waker(&self) -> Waker {
            Waker(self.pipe.notifier())
        }

        /// Start watching `source` under `token`.
        pub fn register(
            &mut self,
            source: &impl AsRawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.registered
                .insert(source.as_raw_fd(), (token, interest));
            Ok(())
        }

        /// Change what an already-registered source is interested in.
        pub fn update(
            &mut self,
            source: &impl AsRawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.register(source, token, interest)
        }

        /// Stop watching `source` (call before closing it).
        pub fn deregister(&mut self, source: &impl AsRawFd) -> io::Result<()> {
            self.registered.remove(&source.as_raw_fd());
            Ok(())
        }

        /// Block until at least one source is ready, a waker fires, or
        /// `timeout` passes; readiness lands in `out` (cleared first).
        /// Returns the number of readiness events (0 on timeout or wake).
        pub fn wait(
            &mut self,
            out: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            out.clear();
            self.buf.clear();
            self.buf.push(PollFd {
                fd: self.pipe.read_fd(),
                events: POLLIN,
                revents: 0,
            });
            for (fd, (_, interest)) in &self.registered {
                let mut events = 0;
                if interest.read {
                    events |= POLLIN;
                }
                if interest.write {
                    events |= POLLOUT;
                }
                self.buf.push(PollFd {
                    fd: *fd,
                    events,
                    revents: 0,
                });
            }
            let rc = loop {
                // SAFETY: `buf` is a live, exclusively borrowed array of
                // exactly the `buf.len()` `pollfd`s the count announces
                // (the table is bounded by open descriptors, far inside
                // `Nfds`), and `PollFd` is `repr(C)` with C's layout.
                let rc = unsafe {
                    poll(
                        self.buf.as_mut_ptr(),
                        self.buf.len() as Nfds,
                        timeout_ms(timeout),
                    )
                };
                if rc >= 0 {
                    break rc;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            if rc == 0 {
                return Ok(0);
            }
            if self.buf[0].revents != 0 {
                self.pipe.drain();
            }
            for raw in &self.buf[1..] {
                if raw.revents == 0 {
                    continue;
                }
                let (token, _) = self.registered[&raw.fd];
                out.push(Event {
                    token,
                    readable: raw.revents & (POLLIN | POLLHUP | POLLERR) != 0,
                    writable: raw.revents & (POLLOUT | POLLERR) != 0,
                    hangup: raw.revents & (POLLHUP | POLLERR) != 0,
                });
            }
            Ok(out.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{Event, Interest};
    use std::io::{self, Read, Write};
    use std::net::{Shutdown, TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    /// The `Poller` contract the reactor relies on, run against both
    /// backend modules: each case's body is compiled once per backend
    /// with `Poller` naming that module's type.
    macro_rules! on_each_backend {
        ($(fn $case:ident() $body:block)*) => {$(
            #[test]
            fn $case() {
                #[cfg(target_os = "linux")]
                {
                    use super::epoll::Poller;
                    eprintln!("backend: {}", Poller::BACKEND);
                    $body
                }
                {
                    use super::poll::Poller;
                    eprintln!("backend: {}", Poller::BACKEND);
                    $body
                }
            }
        )*};
    }

    /// Turn `wait` (a backend's `Poller::wait`) until an event matches
    /// `wanted`; `false` if none does within two seconds.
    fn saw(
        mut wait: impl FnMut(&mut Vec<Event>, Option<Duration>) -> io::Result<usize>,
        wanted: impl Fn(&Event) -> bool,
    ) -> bool {
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut events = Vec::new();
        loop {
            wait(&mut events, Some(Duration::from_millis(50))).unwrap();
            if events.iter().any(&wanted) {
                return true;
            }
            if Instant::now() > deadline {
                return false;
            }
        }
    }

    /// A connected loopback pair: (client, nonblocking server side).
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        (client, server_side)
    }

    const SHORT: Option<Duration> = Some(Duration::from_millis(20));

    on_each_backend! {
        fn poller_sees_listener_and_stream_readiness() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.set_nonblocking(true).unwrap();
            let mut poller = Poller::new().unwrap();
            poller.register(&listener, 1, Interest::READ).unwrap();

            // No client yet: a short wait returns no events.
            let mut events = Vec::new();
            poller.wait(&mut events, SHORT).unwrap();
            assert!(events.is_empty());

            // A connecting client makes the listener readable.
            let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            assert!(
                saw(|ev, t| poller.wait(ev, t), |e| e.token == 1 && e.readable),
                "listener never became readable"
            );
            let (server_side, _) = listener.accept().unwrap();
            server_side.set_nonblocking(true).unwrap();
            poller.register(&server_side, 2, Interest::READ).unwrap();

            // Data from the client makes the accepted stream readable.
            client.write_all(b"ping").unwrap();
            assert!(
                saw(|ev, t| poller.wait(ev, t), |e| e.token == 2 && e.readable),
                "stream never readable"
            );
            let mut buf = [0u8; 8];
            assert_eq!((&server_side).read(&mut buf).unwrap(), 4);

            // Write interest on an idle socket fires immediately (buffer
            // has room).
            poller.update(&server_side, 2, Interest::BOTH).unwrap();
            assert!(
                saw(|ev, t| poller.wait(ev, t), |e| e.token == 2 && e.writable),
                "stream never writable"
            );
        }

        fn parked_sources_stay_silent_until_rearmed() {
            let (mut client, server_side) = pair();
            let mut poller = Poller::new().unwrap();
            poller.register(&server_side, 7, Interest::READ).unwrap();
            client.write_all(b"ping").unwrap();
            assert!(saw(|ev, t| poller.wait(ev, t), |e| e.token == 7 && e.readable));

            // Parked with the bytes still unread: ready, but not reported.
            poller.update(&server_side, 7, Interest::NONE).unwrap();
            let mut events = Vec::new();
            poller.wait(&mut events, SHORT).unwrap();
            assert!(events.is_empty(), "{events:?}");

            // Re-armed: level-triggered readiness resurfaces at once.
            poller.update(&server_side, 7, Interest::READ).unwrap();
            assert!(saw(|ev, t| poller.wait(ev, t), |e| e.token == 7 && e.readable));
        }

        fn deregistered_sources_yield_no_further_event() {
            let (mut client, server_side) = pair();
            let mut poller = Poller::new().unwrap();
            poller.register(&server_side, 2, Interest::BOTH).unwrap();
            assert!(saw(|ev, t| poller.wait(ev, t), |e| e.token == 2 && e.writable));
            poller.deregister(&server_side).unwrap();

            // Neither pending data, nor the peer's EOF, nor closing the
            // descriptor itself resurfaces the token.
            client.write_all(b"late").unwrap();
            drop(client);
            let mut events = Vec::new();
            poller.wait(&mut events, SHORT).unwrap();
            assert!(events.is_empty(), "{events:?}");
            drop(server_side);
            poller.wait(&mut events, SHORT).unwrap();
            assert!(events.is_empty(), "{events:?}");
        }

        fn peer_close_reports_hangup_with_readable() {
            let (client, server_side) = pair();
            let mut poller = Poller::new().unwrap();
            poller.register(&server_side, 3, Interest::READ).unwrap();

            // A peer that merely closes is an EOF to read, not yet a
            // hangup: this side may still write.
            drop(client);
            assert!(saw(|ev, t| poller.wait(ev, t), |e| e.token == 3 && e.readable));
            assert_eq!((&server_side).read(&mut [0u8; 8]).unwrap(), 0);

            // Both directions shut: a hangup, and always readable with it
            // so the owner reads, observes the end, and closes.
            server_side.shutdown(Shutdown::Write).unwrap();
            assert!(saw(|ev, t| poller.wait(ev, t), |e| e.token == 3 && e.hangup && e.readable));
        }

        fn waker_interrupts_a_blocked_wait_from_another_thread() {
            let mut poller = Poller::new().unwrap();
            let waker = poller.waker();
            let handle = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                waker.wake();
            });
            let started = Instant::now();
            let mut events = Vec::new();
            // Block "forever": only the waker can end this before the
            // outer timeout would fail the test.
            poller.wait(&mut events, Some(Duration::from_secs(10))).unwrap();
            assert!(started.elapsed() < Duration::from_secs(5), "wake-up never arrived");
            handle.join().unwrap();
        }

        fn wakes_coalesce_and_do_not_leave_stale_readiness() {
            let mut poller = Poller::new().unwrap();
            let waker = poller.waker();
            for _ in 0..1000 {
                waker.wake();
            }
            let mut events = Vec::new();
            poller.wait(&mut events, Some(Duration::from_millis(100))).unwrap();
            // All 1000 wakes drained in one turn: the next wait times out
            // instead of spinning on a stale pipe byte.
            let started = Instant::now();
            poller.wait(&mut events, Some(Duration::from_millis(30))).unwrap();
            assert!(started.elapsed() >= Duration::from_millis(25));
        }
    }
}
