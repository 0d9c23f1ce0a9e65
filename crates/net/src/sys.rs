//! The one FFI corner of the crate: a minimal safe wrapper over Linux
//! `epoll`.
//!
//! The build container has no crates.io access, so the usual `libc`/`mio`
//! route is closed; instead the four syscall wrappers the reactor needs
//! (`epoll_create1`, `epoll_ctl`, `epoll_wait`, `close`) are declared
//! directly against the C library the Rust standard library already
//! links. This module is the only `unsafe` in the crate, and every call
//! is wrapped in a method that upholds the invariants (`Epoll` owns its
//! fd; event buffers are sized by the caller's `Vec` capacity).

#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;
use std::os::raw::c_int;

/// Readable readiness.
pub const EPOLLIN: u32 = 0x001;
/// One-shot arming: the fd reports at most one event until re-armed with
/// [`Epoll::rearm`], and wakes exactly one of the workers waiting on the
/// shared epoll fd.
pub const EPOLLONESHOT: u32 = 1 << 30;
/// Peer hang-up.
pub const EPOLLHUP: u32 = 0x010;
/// Error condition.
pub const EPOLLERR: u32 = 0x008;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_MOD: c_int = 3;

/// `struct epoll_event`. Packed on x86-64 (glibc's `__EPOLL_PACKED`),
/// natural alignment elsewhere — mirror the kernel ABI exactly.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Ready-event mask (`EPOLLIN` | …).
    pub events: u32,
    /// The caller's token (we store the connection id).
    pub data: u64,
}

/// `struct linger` as the kernel expects it for `SO_LINGER`.
#[repr(C)]
struct CLinger {
    l_onoff: c_int,
    l_linger: c_int,
}

const SOL_SOCKET: c_int = 1;
const SO_LINGER: c_int = 13;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn setsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const CLinger,
        optlen: u32,
    ) -> c_int;
}

/// Arms `SO_LINGER { on, 0s }` on a socket so the eventual close sends an
/// RST instead of the orderly FIN — the chaos proxy's "peer reset" fault.
pub fn set_linger_zero(fd: RawFd) -> io::Result<()> {
    let linger = CLinger {
        l_onoff: 1,
        l_linger: 0,
    };
    let rc = unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            SO_LINGER,
            &linger,
            std::mem::size_of::<CLinger>() as u32,
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// An owned epoll instance.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates a new epoll instance (`EPOLL_CLOEXEC`).
    pub fn new() -> io::Result<Epoll> {
        // O_CLOEXEC == 0o2000000 on every Linux ABI.
        let fd = unsafe { epoll_create1(0o2000000) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent {
            events,
            data: token,
        };
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut event) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` one-shot for readable readiness under `token`.
    pub fn add(&self, fd: RawFd, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, EPOLLIN | EPOLLONESHOT, token)
    }

    /// Re-arms an fd consumed by a one-shot event.
    pub fn rearm(&self, fd: RawFd, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, EPOLLIN | EPOLLONESHOT, token)
    }

    /// Waits up to `timeout_ms` for events, filling `events` with at most
    /// `max` of them (capped by its capacity); returns how many fired.
    /// `EINTR` retries internally.
    pub fn wait(
        &self,
        events: &mut Vec<EpollEvent>,
        max: usize,
        timeout_ms: i32,
    ) -> io::Result<usize> {
        events.clear();
        events.reserve(1);
        let capacity = max.clamp(1, events.capacity()) as c_int;
        loop {
            // SAFETY: `capacity` is at most `events.capacity()`, so the
            // kernel writes only inside the Vec's buffer.
            let rc = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), capacity, timeout_ms) };
            if rc >= 0 {
                // epoll_wait wrote `rc` events into the buffer.
                unsafe { events.set_len(rc as usize) };
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe {
            close(self.fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn epoll_reports_readability_once_per_arm() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();

        let epoll = Epoll::new().unwrap();
        epoll.add(server_side.as_raw_fd(), 42).unwrap();

        let mut events = Vec::with_capacity(8);
        // Nothing readable yet.
        assert_eq!(epoll.wait(&mut events, 8, 0).unwrap(), 0);

        client.write_all(b"ping").unwrap();
        assert_eq!(epoll.wait(&mut events, 8, 1000).unwrap(), 1);
        let fired = events[0];
        assert_eq!({ fired.data }, 42);
        assert_ne!({ fired.events } & EPOLLIN, 0);

        // One-shot: without a rearm the fd stays silent even though the
        // bytes were never read.
        assert_eq!(epoll.wait(&mut events, 8, 50).unwrap(), 0);
        epoll.rearm(server_side.as_raw_fd(), 42).unwrap();
        assert_eq!(epoll.wait(&mut events, 8, 1000).unwrap(), 1);
    }
}
