//! Event-source shim: readiness multiplexing for the nonblocking server.
//!
//! The workspace builds hermetically with no external crates, so there is
//! no `mio` to lean on. On Unix this module declares the two-line FFI to
//! `poll(2)` itself — the C library is already linked by `std`, the ABI is
//! stable, and the surface is one struct and one call (the same
//! vendored-stub ethos as `vendor/`). Elsewhere it degrades to a
//! level-triggered "everything might be ready" stub with a short sleep:
//! the readiness loop's *correctness* never depends on poll — every socket
//! is nonblocking and `WouldBlock` is handled — poll only removes the busy
//! spin.

use std::time::Duration;

/// One pollable source: interest in, and readiness of, a raw socket.
#[derive(Debug, Clone, Copy)]
pub struct Interest {
    /// Raw file descriptor (ignored by the fallback backend).
    pub fd: i64,
    /// Wants to read.
    pub read: bool,
    /// Wants to write.
    pub write: bool,
    /// Readable (or hung up) after the wait.
    pub readable: bool,
    /// Writable after the wait.
    pub writable: bool,
    /// Error/hangup condition after the wait.
    pub error: bool,
}

impl Interest {
    /// Interest in `fd` with no readiness yet.
    pub fn new(fd: i64, read: bool, write: bool) -> Interest {
        Interest {
            fd,
            read,
            write,
            readable: false,
            writable: false,
            error: false,
        }
    }
}

#[cfg(unix)]
mod sys {
    use super::Interest;
    use std::time::Duration;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;
    const POLLNVAL: i16 = 0x020;

    #[cfg(target_os = "linux")]
    type Nfds = u64;
    #[cfg(not(target_os = "linux"))]
    type Nfds = u32;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: i32) -> i32;
    }

    /// Block until a source is ready or `timeout` elapses; fill in the
    /// readiness flags. Returns the number of ready sources (0 on timeout
    /// or EINTR — the caller just loops again).
    #[allow(unsafe_code)]
    pub fn wait(sources: &mut [Interest], timeout: Duration) -> usize {
        let mut fds: Vec<PollFd> = sources
            .iter()
            .map(|s| PollFd {
                fd: s.fd as i32,
                events: if s.read { POLLIN } else { 0 } | if s.write { POLLOUT } else { 0 },
                revents: 0,
            })
            .collect();
        let millis = timeout.as_millis().min(i32::MAX as u128) as i32;
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // `#[repr(C)]` pollfd-layout structs for the duration of the call,
        // and `nfds` is its exact length.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, millis) };
        if rc <= 0 {
            return 0;
        }
        let mut ready = 0usize;
        for (s, fd) in sources.iter_mut().zip(&fds) {
            s.readable = fd.revents & (POLLIN | POLLHUP) != 0;
            s.writable = fd.revents & POLLOUT != 0;
            s.error = fd.revents & (POLLERR | POLLNVAL) != 0;
            if s.readable || s.writable || s.error {
                ready += 1;
            }
        }
        ready
    }
}

#[cfg(not(unix))]
mod sys {
    use super::Interest;
    use std::time::Duration;

    /// Fallback backend: report every source as possibly ready after a
    /// short sleep. The nonblocking sockets turn spurious readiness into
    /// `WouldBlock`, so this is merely a slower loop, not a wrong one.
    pub fn wait(sources: &mut [Interest], _timeout: Duration) -> usize {
        std::thread::sleep(Duration::from_millis(1));
        for s in sources.iter_mut() {
            s.readable = s.read;
            s.writable = s.write;
            s.error = false;
        }
        sources.len()
    }
}

/// Wait for readiness on `sources` (in place), up to `timeout`.
pub fn wait(sources: &mut [Interest], timeout: Duration) -> usize {
    if sources.is_empty() {
        std::thread::sleep(timeout.min(Duration::from_millis(10)));
        return 0;
    }
    sys::wait(sources, timeout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[cfg(unix)]
    fn raw_fd(s: &TcpStream) -> i64 {
        use std::os::unix::io::AsRawFd;
        s.as_raw_fd() as i64
    }
    #[cfg(not(unix))]
    fn raw_fd(_s: &TcpStream) -> i64 {
        0
    }

    #[test]
    fn reports_readable_after_write() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();

        let mut sources = [Interest::new(raw_fd(&server_side), true, false)];
        // Nothing written yet: a short wait times out without readiness
        // (the fallback backend may report spurious readiness, which is
        // fine — only the positive case below is asserted).
        client.write_all(b"ping").unwrap();
        client.flush().unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let n = wait(&mut sources, Duration::from_millis(50));
            if n > 0 && sources[0].readable {
                break;
            }
            assert!(Instant::now() < deadline, "never saw readability");
        }
    }

    #[test]
    fn timeout_returns_without_ready_sources() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let stream = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let started = Instant::now();
        let mut sources = [Interest::new(raw_fd(&server_side), true, false)];
        let _ = wait(&mut sources, Duration::from_millis(20));
        // Either it timed out (~20ms) or the backend reported spuriously;
        // in both cases the call must return promptly.
        assert!(started.elapsed() < Duration::from_secs(2));
        drop(stream);
    }
}
