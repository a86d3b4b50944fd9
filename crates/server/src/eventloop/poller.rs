//! Minimal readiness poller: `epoll` through raw syscalls.
//!
//! The workspace is hermetic (no libc crate, no mio), but the C
//! library is already linked into every std binary — declaring the
//! four epoll entry points `extern "C"` is enough to use them. Epoll is
//! the only backend: on any other Unix [`Poller::new`] reports
//! [`io::ErrorKind::Unsupported`], and no `Poller` value can exist.
//!
//! The interface is deliberately tiny — register / modify / deregister
//! an fd with a `u64` token and level-triggered read/write interest,
//! then [`Poller::wait`] for [`PollEvent`]s. Level-triggered semantics
//! keep the event loop simple: unread bytes or an unflushed queue
//! simply report ready again on the next wait.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// One readiness report.
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    /// Error or hangup — the connection should be read (to observe
    /// EOF/error) and torn down.
    pub hangup: bool,
}

mod sys {
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    #[cfg(target_os = "linux")]
    pub const EPOLL_CLOEXEC: i32 = 0o2000000;

    /// Mirrors `struct epoll_event`; packed on x86, where the kernel
    /// ABI leaves the u64 unaligned.
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(target_os = "linux")]
    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: std::os::fd::RawFd, event: *mut EpollEvent)
            -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn close(fd: i32) -> i32;
    }
}

/// The readiness poller behind one event-loop thread: one epoll
/// instance.
pub struct Poller {
    epfd: RawFd,
    buf: Vec<sys::EpollEvent>,
    /// Off Linux a `Poller` cannot be built, so its methods cannot be
    /// reached there.
    #[cfg(not(target_os = "linux"))]
    never: std::convert::Infallible,
}

impl Poller {
    /// Open an epoll instance; `Unsupported` on a Unix without epoll.
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            // SAFETY: a syscall taking one flag word; no memory is passed.
            let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                epfd,
                buf: vec![sys::EpollEvent { events: 0, data: 0 }; 256],
            })
        }
        #[cfg(not(target_os = "linux"))]
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "the event loop needs epoll (Linux)",
        ))
    }

    /// The backend's name (surfaced in the serve banner).
    pub fn backend_name(&self) -> &'static str {
        "epoll"
    }

    pub fn register(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, read, write)
    }

    pub fn modify(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, read, write)
    }

    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, false, false)
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        let mut events = sys::EPOLLERR | sys::EPOLLHUP;
        if read {
            events |= sys::EPOLLIN;
        }
        if write {
            events |= sys::EPOLLOUT;
        }
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live `epoll_event` for the whole call and the
        // kernel only reads it; a bad `epfd` or `fd` is an error return.
        #[cfg(target_os = "linux")]
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        #[cfg(not(target_os = "linux"))]
        let rc: i32 = match self.never {};
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Wait up to `timeout` and append readiness reports to `out`
    /// (which is cleared first). A timeout simply returns no events.
    pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Duration) -> io::Result<()> {
        out.clear();
        let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        let n = loop {
            // SAFETY: `buf` holds `buf.len()` initialized entries and the
            // kernel writes at most `maxevents` = `buf.len()` of them.
            #[cfg(target_os = "linux")]
            let rc = unsafe {
                sys::epoll_wait(self.epfd, self.buf.as_mut_ptr(), self.buf.len() as i32, ms)
            };
            #[cfg(not(target_os = "linux"))]
            let rc: i32 = match self.never {};
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for ev in &self.buf[..n] {
            // Copy out of the (possibly packed) struct before use.
            let events = ev.events;
            let data = ev.data;
            out.push(PollEvent {
                token: data,
                readable: events & sys::EPOLLIN != 0,
                writable: events & sys::EPOLLOUT != 0,
                hangup: events & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
            });
        }
        if n == self.buf.len() {
            // Saturated wait: grow so a big accept burst cannot starve
            // the tail of the registration set.
            self.buf
                .resize(self.buf.len() * 2, sys::EpollEvent { events: 0, data: 0 });
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` came from `epoll_create1`, belongs to this value
        // alone and is closed once, here.
        unsafe { sys::close(self.epfd) };
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn readiness_roundtrip() {
        let mut poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        poller
            .register(listener.as_raw_fd(), 1, true, false)
            .unwrap();

        let mut events = Vec::new();
        poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert!(events.is_empty(), "idle listener reported ready");

        let mut client = TcpStream::connect(addr).unwrap();
        poller.wait(&mut events, Duration::from_secs(5)).unwrap();
        assert!(
            events.iter().any(|e| e.token == 1 && e.readable),
            "pending accept not reported"
        );

        let (mut served, _) = listener.accept().unwrap();
        served.set_nonblocking(true).unwrap();
        poller.register(served.as_raw_fd(), 2, true, false).unwrap();
        client.write_all(b"hello").unwrap();
        poller.wait(&mut events, Duration::from_secs(5)).unwrap();
        assert!(
            events.iter().any(|e| e.token == 2 && e.readable),
            "readable data not reported"
        );
        let mut buf = [0u8; 8];
        assert_eq!(served.read(&mut buf).unwrap(), 5);

        // Write interest on an empty socket buffer fires at once.
        poller.modify(served.as_raw_fd(), 2, true, true).unwrap();
        poller.wait(&mut events, Duration::from_secs(5)).unwrap();
        assert!(events.iter().any(|e| e.token == 2 && e.writable));

        poller.deregister(served.as_raw_fd()).unwrap();
        poller.deregister(listener.as_raw_fd()).unwrap();
        drop(client);
        poller.wait(&mut events, Duration::from_millis(10)).unwrap();
        assert!(events.is_empty(), "deregistered fds still reporting");
    }
}
