//! Minimal readiness poller: `epoll` on Linux through raw syscalls,
//! with a portable `poll(2)` fallback.
//!
//! The workspace is hermetic (no libc crate, no mio), but the C
//! library is already linked into every std binary — declaring the
//! four epoll entry points `extern "C"` is enough to use them. The
//! fallback backend drives the same interface over `poll(2)`, which
//! every Unix provides; it is also selectable at runtime
//! (`XSQ_POLLER=poll`), which is how CI runs the server suites on both
//! backends of the same Linux machine.
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

#[cfg(target_os = "linux")]
mod sys_epoll {
    use std::os::fd::RawFd;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
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

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: RawFd, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn close(fd: i32) -> i32;
    }
}

#[cfg(unix)]
mod sys_poll {
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    extern "C" {
        pub fn poll(
            fds: *mut PollFd,
            nfds: std::os::raw::c_ulong,
            timeout: std::os::raw::c_int,
        ) -> i32;
    }
}

#[cfg(target_os = "linux")]
struct Epoll {
    epfd: RawFd,
    buf: Vec<sys_epoll::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl Epoll {
    fn new() -> io::Result<Epoll> {
        let epfd = unsafe { sys_epoll::epoll_create1(sys_epoll::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll {
            epfd,
            buf: vec![sys_epoll::EpollEvent { events: 0, data: 0 }; 256],
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        let mut events = sys_epoll::EPOLLERR | sys_epoll::EPOLLHUP;
        if read {
            events |= sys_epoll::EPOLLIN;
        }
        if write {
            events |= sys_epoll::EPOLLOUT;
        }
        let mut ev = sys_epoll::EpollEvent {
            events,
            data: token,
        };
        let rc = unsafe { sys_epoll::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Duration) -> io::Result<()> {
        let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        let n = loop {
            let rc = unsafe {
                sys_epoll::epoll_wait(self.epfd, self.buf.as_mut_ptr(), self.buf.len() as i32, ms)
            };
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
                readable: events & sys_epoll::EPOLLIN != 0,
                writable: events & sys_epoll::EPOLLOUT != 0,
                hangup: events & (sys_epoll::EPOLLERR | sys_epoll::EPOLLHUP) != 0,
            });
        }
        if n == self.buf.len() {
            // Saturated wait: grow so a big accept burst cannot starve
            // the tail of the registration set.
            self.buf.resize(
                self.buf.len() * 2,
                sys_epoll::EpollEvent { events: 0, data: 0 },
            );
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { sys_epoll::close(self.epfd) };
    }
}

/// `poll(2)` backend: the registration set lives in user space as a
/// parallel `pollfd`/token array rebuilt incrementally.
#[derive(Default)]
struct PollBackend {
    fds: Vec<sys_poll::PollFd>,
    tokens: Vec<u64>,
}

impl PollBackend {
    fn find(&self, fd: RawFd) -> Option<usize> {
        self.fds.iter().position(|p| p.fd == fd)
    }

    fn events_for(read: bool, write: bool) -> i16 {
        let mut events = 0i16;
        if read {
            events |= sys_poll::POLLIN;
        }
        if write {
            events |= sys_poll::POLLOUT;
        }
        events
    }

    fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Duration) -> io::Result<()> {
        let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        let n = loop {
            let rc = unsafe {
                sys_poll::poll(
                    self.fds.as_mut_ptr(),
                    self.fds.len() as std::os::raw::c_ulong,
                    ms,
                )
            };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        if n == 0 {
            return Ok(());
        }
        for (p, &token) in self.fds.iter().zip(&self.tokens) {
            if p.revents == 0 {
                continue;
            }
            out.push(PollEvent {
                token,
                readable: p.revents & sys_poll::POLLIN != 0,
                writable: p.revents & sys_poll::POLLOUT != 0,
                hangup: p.revents & (sys_poll::POLLERR | sys_poll::POLLHUP | sys_poll::POLLNVAL)
                    != 0,
            });
        }
        Ok(())
    }
}

enum Backend {
    #[cfg(target_os = "linux")]
    Epoll(Epoll),
    Poll(PollBackend),
}

/// The readiness poller behind one event-loop thread.
pub struct Poller {
    backend: Backend,
}

impl Poller {
    /// Build the best available backend: epoll on Linux (unless
    /// `XSQ_POLLER=poll` forces the fallback), `poll(2)` elsewhere.
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            let forced = std::env::var("XSQ_POLLER").ok();
            if forced.as_deref() != Some("poll") {
                match Epoll::new() {
                    Ok(e) => {
                        return Ok(Poller {
                            backend: Backend::Epoll(e),
                        })
                    }
                    Err(_) if forced.is_none() => {} // fall through to poll(2)
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(Poller {
            backend: Backend::Poll(PollBackend::default()),
        })
    }

    /// The active backend's name (surfaced in the serve banner).
    pub fn backend_name(&self) -> &'static str {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(_) => "epoll",
            Backend::Poll(_) => "poll",
        }
    }

    pub fn register(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => e.ctl(sys_epoll::EPOLL_CTL_ADD, fd, token, read, write),
            Backend::Poll(p) => {
                if p.find(fd).is_some() {
                    return Err(io::Error::new(
                        io::ErrorKind::AlreadyExists,
                        "fd already registered",
                    ));
                }
                p.fds.push(sys_poll::PollFd {
                    fd,
                    events: PollBackend::events_for(read, write),
                    revents: 0,
                });
                p.tokens.push(token);
                Ok(())
            }
        }
    }

    pub fn modify(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => e.ctl(sys_epoll::EPOLL_CTL_MOD, fd, token, read, write),
            Backend::Poll(p) => match p.find(fd) {
                Some(i) => {
                    p.fds[i].events = PollBackend::events_for(read, write);
                    p.tokens[i] = token;
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            },
        }
    }

    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => e.ctl(sys_epoll::EPOLL_CTL_DEL, fd, 0, false, false),
            Backend::Poll(p) => match p.find(fd) {
                Some(i) => {
                    p.fds.swap_remove(i);
                    p.tokens.swap_remove(i);
                    Ok(())
                }
                None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
            },
        }
    }

    /// Wait up to `timeout` and append readiness reports to `out`
    /// (which is cleared first). A timeout simply returns no events.
    pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Duration) -> io::Result<()> {
        out.clear();
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(e) => e.wait(out, timeout),
            Backend::Poll(p) => p.wait(out, timeout),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    fn backends() -> Vec<Poller> {
        let mut out = Vec::new();
        #[cfg(target_os = "linux")]
        {
            let p = Poller::new().unwrap();
            if p.backend_name() == "epoll" {
                out.push(p);
            }
        }
        out.push(Poller {
            backend: Backend::Poll(PollBackend::default()),
        });
        out
    }

    #[test]
    fn readiness_roundtrip_on_every_backend() {
        for mut poller in backends() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            poller
                .register(listener.as_raw_fd(), 1, true, false)
                .unwrap();

            let mut events = Vec::new();
            poller.wait(&mut events, Duration::from_millis(10)).unwrap();
            assert!(
                events.is_empty(),
                "{}: idle listener reported ready",
                poller.backend_name()
            );

            let mut client = TcpStream::connect(addr).unwrap();
            poller.wait(&mut events, Duration::from_secs(5)).unwrap();
            assert!(
                events.iter().any(|e| e.token == 1 && e.readable),
                "{}: pending accept not reported",
                poller.backend_name()
            );

            let (mut served, _) = listener.accept().unwrap();
            served.set_nonblocking(true).unwrap();
            poller.register(served.as_raw_fd(), 2, true, false).unwrap();
            client.write_all(b"hello").unwrap();
            poller.wait(&mut events, Duration::from_secs(5)).unwrap();
            assert!(
                events.iter().any(|e| e.token == 2 && e.readable),
                "{}: readable data not reported",
                poller.backend_name()
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
            assert!(
                events.is_empty(),
                "{}: deregistered fds still reporting",
                poller.backend_name()
            );
        }
    }
}
