//! The server's one readiness seam: POSIX `poll(2)`.
//!
//! std has no readiness API, and the build is offline, so the call is
//! declared here against the C library std already links on unix. This
//! is the crate's only `unsafe` block.

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_short};
use std::time::{Duration, Instant};

/// The fd has bytes to read, or its peer closed (the read then returns 0).
pub(crate) const POLLIN: c_short = 0x001;
/// The fd can take a write without blocking.
pub(crate) const POLLOUT: c_short = 0x004;

/// One entry of a poll set: `struct pollfd` from `<poll.h>`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Asks about `events` (a mask of `POLLIN`/`POLLOUT`) on `fd`.
    pub(crate) fn new(fd: RawFd, events: c_short) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// What the last [`poll`] reported for this fd.
    pub(crate) fn revents(&self) -> c_short {
        self.revents
    }
}

#[cfg(target_os = "linux")]
type Nfds = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::os::raw::c_uint;

extern "C" {
    #[link_name = "poll"]
    fn c_poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// Blocks until an fd in `fds` is ready or `timeout` passes (`None`
/// waits for readiness alone); returns how many entries have non-zero
/// `revents`. A timeout is rounded up to whole milliseconds, so a wait
/// for a deadline never returns just short of it. A signal does not cut
/// the wait short: `EINTR` retries with what is left of the timeout.
pub(crate) fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let deadline = timeout.map(|t| Instant::now().checked_add(t));
    loop {
        let ms = match deadline {
            None | Some(None) => -1,
            Some(Some(at)) => {
                let left = at.saturating_duration_since(Instant::now());
                c_int::try_from(left.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
            }
        };
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `#[repr(C)]` `struct pollfd`s, and its length is passed beside
        // its pointer, so the kernel reads and writes only those entries,
        // and only for the duration of the call. An fd that is not open
        // is reported as `POLLNVAL`, not undefined behaviour.
        let ready = unsafe { c_poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) };
        if ready >= 0 {
            return Ok(ready as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    /// The peer hung up (reported whatever `events` asks).
    const POLLHUP: c_short = 0x010;
    /// The fd is not open (reported whatever `events` asks).
    const POLLNVAL: c_short = 0x020;

    #[test]
    fn an_empty_set_times_out_with_nothing_ready() {
        let start = Instant::now();
        assert_eq!(poll(&mut [], Some(Duration::from_millis(1))).unwrap(), 0);
        assert!(start.elapsed() >= Duration::from_millis(1));
    }

    #[test]
    fn a_peer_write_reports_readable() {
        let (mut a, b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).unwrap(), 0);
        assert_eq!(fds[0].revents(), 0);
        a.write_all(b"x").unwrap();
        assert_eq!(poll(&mut fds, Some(Duration::from_secs(5))).unwrap(), 1);
        assert_eq!(fds[0].revents() & POLLIN, POLLIN);
    }

    #[test]
    fn a_peer_close_reports_readable_or_hangup_then_eof() {
        let (a, mut b) = UnixStream::pair().unwrap();
        drop(a);
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        assert_eq!(poll(&mut fds, Some(Duration::from_secs(5))).unwrap(), 1);
        assert_ne!(fds[0].revents() & (POLLIN | POLLHUP), 0);
        assert_eq!(b.read(&mut [0u8; 8]).unwrap(), 0);
    }

    #[test]
    fn an_invalid_fd_reports_nval() {
        // Not an open descriptor in any process that has not raised its
        // fd limit this far.
        let mut fds = [PollFd::new(c_int::MAX - 1, POLLIN | POLLOUT)];
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).unwrap(), 1);
        assert_eq!(fds[0].revents(), POLLNVAL);
    }

    #[test]
    fn writable_is_reported_only_when_asked() {
        let (a, _b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).unwrap(), 0);
        fds[0] = PollFd::new(a.as_raw_fd(), POLLOUT);
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).unwrap(), 1);
        assert_eq!(fds[0].revents(), POLLOUT);
    }
}
