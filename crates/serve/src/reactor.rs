//! Readiness polling for the serving reactor: raw level-triggered
//! `epoll` with zero crate dependencies (the same no-crate syscall
//! precedent as the slab `mmap` wrapper in `ml4all-dataflow`). Linux
//! only, like the whole crate.
//!
//! One [`Poller`] instance backs the whole server. Cross-thread wake-ups
//! use the classic self-pipe trick: [`Waker::wake`] is safe from any
//! thread, including the engine's worker threads pushing job events at
//! the reactor.

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::sync::Arc;
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
/// [`Poller::wait`]: the write end of the wake pipe.
#[derive(Clone)]
pub struct Waker(Arc<File>);

impl Waker {
    /// Interrupt the poller's current (or next) wait. Safe from any
    /// thread; coalesces — a thousand wakes cost one wake-up.
    pub fn wake(&self) {
        // A full pipe (EAGAIN) already guarantees a pending wake-up.
        let _ = (&*self.0).write(&[1]);
    }
}

// The kernel ABI packs epoll_event on x86-64 only.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn pipe2(fds: *mut i32, flags: i32) -> i32;
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
}

const O_NONBLOCK: i32 = 0o4000;
/// Also `EPOLL_CLOEXEC`, which the kernel defines as `O_CLOEXEC`.
const O_CLOEXEC: i32 = 0o2000000;
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

/// The reactor's readiness source, over `epoll`. Every descriptor it
/// opens is close-on-exec, so none leaks into a child process.
pub struct Poller {
    epfd: OwnedFd,
    /// The read end of the nonblocking wake pipe; [`Waker`]s hold the
    /// write end.
    wake_read: File,
    wake_write: Arc<File>,
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

impl Poller {
    /// The backend name, surfaced in server stats.
    pub const BACKEND: &'static str = "epoll";

    /// Open a poller (and its internal wake-up channel).
    pub fn new() -> io::Result<Self> {
        let mut fds = [0i32; 2];
        // SAFETY: `fds` is a live, writable array of the two ints
        // `pipe2` fills in.
        if unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) } != 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `pipe2` succeeded, so both descriptors are open and
        // owned by nothing else.
        let (wake_read, wake_write) =
            unsafe { (File::from_raw_fd(fds[0]), File::from_raw_fd(fds[1])) };
        // SAFETY: a plain syscall on integer arguments.
        let epfd = unsafe { epoll_create1(O_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        let poller = Self {
            // SAFETY: `epoll_create1` succeeded, so `epfd` is open and
            // owned by nothing else.
            epfd: unsafe { OwnedFd::from_raw_fd(epfd) },
            wake_read,
            wake_write: Arc::new(wake_write),
            buf: vec![EpollEvent { events: 0, data: 0 }; 256],
        };
        poller.ctl(
            EPOLL_CTL_ADD,
            poller.wake_read.as_raw_fd(),
            EPOLLIN,
            WAKER_TOKEN,
        )?;
        Ok(poller)
    }

    fn ctl(&self, op: i32, fd: i32, events: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `event` is a live `epoll_event` with the kernel's
        // layout, which the kernel only reads during the call.
        if unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut event) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// A handle other threads use to interrupt [`Poller::wait`].
    pub fn waker(&self) -> Waker {
        Waker(Arc::clone(&self.wake_write))
    }

    /// Start watching `source` under `token`.
    pub fn register(
        &mut self,
        source: &impl AsRawFd,
        token: u64,
        interest: Interest,
    ) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, source.as_raw_fd(), mask(interest), token)
    }

    /// Change what an already-registered source is interested in.
    pub fn update(
        &mut self,
        source: &impl AsRawFd,
        token: u64,
        interest: Interest,
    ) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, source.as_raw_fd(), mask(interest), token)
    }

    /// Stop watching `source` (call before closing it).
    pub fn deregister(&mut self, source: &impl AsRawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, source.as_raw_fd(), 0, 0)
    }

    /// Block until at least one source is ready, a waker fires, or
    /// `timeout` passes; readiness lands in `out` (cleared first).
    /// Returns the number of readiness events (0 on timeout or wake).
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        out.clear();
        // `-1` blocks, and a sub-millisecond wait rounds up, not to a
        // busy spin.
        let timeout_ms = timeout.map_or(-1, |t| {
            i32::try_from(t.as_millis().max(1)).unwrap_or(i32::MAX)
        });
        let n = loop {
            // SAFETY: `buf` is a live, exclusively borrowed array of
            // exactly the `buf.len()` events the count announces, and
            // `EpollEvent` has the kernel's layout.
            let n = unsafe {
                epoll_wait(
                    self.epfd.as_raw_fd(),
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    timeout_ms,
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
                // Empty the pipe, so the wake-ups coalesce into one loop
                // turn: EAGAIN (empty) or an error, drained enough
                // either way.
                let mut bytes = [0u8; 64];
                while matches!((&self.wake_read).read(&mut bytes), Ok(n) if n > 0) {}
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

#[cfg(test)]
mod tests {
    use super::{Event, Interest, Poller};
    use std::io::{self, Read, Write};
    use std::net::{Shutdown, TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::{Duration, Instant};

    /// Turn `poller.wait` until an event matches `wanted`; `false` if
    /// none does within two seconds.
    fn saw(poller: &mut Poller, wanted: impl Fn(&Event) -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut events = Vec::new();
        loop {
            poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .unwrap();
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

    #[test]
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
            saw(&mut poller, |e| e.token == 1 && e.readable),
            "listener never became readable"
        );
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        poller.register(&server_side, 2, Interest::READ).unwrap();

        // Data from the client makes the accepted stream readable.
        client.write_all(b"ping").unwrap();
        assert!(
            saw(&mut poller, |e| e.token == 2 && e.readable),
            "stream never readable"
        );
        let mut buf = [0u8; 8];
        assert_eq!((&server_side).read(&mut buf).unwrap(), 4);

        // Write interest on an idle socket fires immediately (buffer
        // has room).
        poller.update(&server_side, 2, Interest::BOTH).unwrap();
        assert!(
            saw(&mut poller, |e| e.token == 2 && e.writable),
            "stream never writable"
        );
    }

    #[test]
    fn parked_sources_stay_silent_until_rearmed() {
        let (mut client, server_side) = pair();
        let mut poller = Poller::new().unwrap();
        poller.register(&server_side, 7, Interest::READ).unwrap();
        client.write_all(b"ping").unwrap();
        assert!(saw(&mut poller, |e| e.token == 7 && e.readable));

        // Parked with the bytes still unread: ready, but not reported.
        poller.update(&server_side, 7, Interest::NONE).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, SHORT).unwrap();
        assert!(events.is_empty(), "{events:?}");

        // Re-armed: level-triggered readiness resurfaces at once.
        poller.update(&server_side, 7, Interest::READ).unwrap();
        assert!(saw(&mut poller, |e| e.token == 7 && e.readable));
    }

    #[test]
    fn deregistered_sources_yield_no_further_event() {
        let (mut client, server_side) = pair();
        let mut poller = Poller::new().unwrap();
        poller.register(&server_side, 2, Interest::BOTH).unwrap();
        assert!(saw(&mut poller, |e| e.token == 2 && e.writable));
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

    #[test]
    fn peer_close_reports_hangup_with_readable() {
        let (client, server_side) = pair();
        let mut poller = Poller::new().unwrap();
        poller.register(&server_side, 3, Interest::READ).unwrap();

        // A peer that merely closes is an EOF to read, not yet a
        // hangup: this side may still write.
        drop(client);
        assert!(saw(&mut poller, |e| e.token == 3 && e.readable));
        assert_eq!((&server_side).read(&mut [0u8; 8]).unwrap(), 0);

        // Both directions shut: a hangup, and always readable with it
        // so the owner reads, observes the end, and closes.
        server_side.shutdown(Shutdown::Write).unwrap();
        assert!(saw(&mut poller, |e| e.token == 3 && e.hangup && e.readable));
    }

    #[test]
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
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "wake-up never arrived"
        );
        handle.join().unwrap();
    }

    #[test]
    fn wakes_coalesce_and_do_not_leave_stale_readiness() {
        let mut poller = Poller::new().unwrap();
        let waker = poller.waker();
        for _ in 0..1000 {
            waker.wake();
        }
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(100)))
            .unwrap();
        // All 1000 wakes drained in one turn: the next wait times out
        // instead of spinning on a stale pipe byte.
        let started = Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_millis(30)))
            .unwrap();
        assert!(started.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn poller_descriptors_are_close_on_exec() {
        extern "C" {
            fn fcntl(fd: i32, cmd: i32, ...) -> i32;
        }
        const F_GETFD: i32 = 1;
        const FD_CLOEXEC: i32 = 1;
        let poller = Poller::new().unwrap();
        let fds = [
            poller.epfd.as_raw_fd(),
            poller.wake_read.as_raw_fd(),
            poller.wake_write.as_raw_fd(),
        ];
        for fd in fds {
            // SAFETY: `F_GETFD` only reads the flags of a descriptor
            // `poller` keeps open.
            let flags = unsafe { fcntl(fd, F_GETFD) };
            assert!(flags >= 0, "{}", io::Error::last_os_error());
            assert_ne!(
                flags & FD_CLOEXEC,
                0,
                "fd {fd} would leak into child processes"
            );
        }
    }
}
