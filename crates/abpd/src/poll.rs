//! Minimal Linux epoll + socket plumbing for the server's reactors,
//! declared directly against the C ABI — zero new crate dependencies,
//! the same hand-rolled discipline as `abp::anchors`. This is the one
//! module in the crate allowed to use `unsafe`: it owns the raw fds,
//! wraps them into std types (`TcpListener` via `FromRawFd`) or RAII
//! guards at the earliest opportunity, and exposes only a safe API.
//!
//! Four things live here:
//!
//! * [`Poller`] — an `epoll` instance: level-triggered readiness for
//!   raw fds carrying a caller-chosen `u64` token.
//! * [`WakeFd`] — an `eventfd` another thread can poke to wake a
//!   reactor out of `epoll_wait` (shutdown, kill).
//! * [`listen_reuseport`] — a TCP listener bound with `SO_REUSEPORT`,
//!   so every reactor owns its own accept queue on the same address
//!   and the kernel load-balances incoming connections across them.
//!   std can't do this: `TcpListener::bind` binds before any socket
//!   option can be set, and `SO_REUSEPORT` must precede `bind`.
//! * [`trim_heap`] — glibc's `malloc_trim(0)` (and, once, a fixed
//!   trim threshold): hand the heap's free pages back to the OS once an
//!   engine compile or a retired engine generation has freed megabytes
//!   of them.
//!
//! On non-Linux targets everything compiles to stubs whose
//! constructors return `std::io::ErrorKind::Unsupported`, and that is
//! the error `Server::start` reports there: the server has no second
//! backend. [`trim_heap`] does nothing where the C library is not
//! glibc.
#![allow(unsafe_code)]

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Readable — includes hangup/error conditions, which a read will
    /// observe as EOF or an error.
    pub readable: bool,
    /// Writable.
    pub writable: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    use super::Event;
    use std::io;
    use std::net::{SocketAddr, TcpListener};
    use std::os::fd::{AsRawFd, FromRawFd, RawFd};

    use std::ffi::{c_int, c_uint, c_void};

    // The kernel ABI packs epoll_event on x86_64 only; every other
    // architecture uses natural (8-byte) alignment for `data`.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn setsockopt(
            fd: c_int,
            level: c_int,
            optname: c_int,
            optval: *const c_void,
            optlen: u32,
        ) -> c_int;
        fn bind(fd: c_int, addr: *const c_void, len: u32) -> c_int;
        fn listen(fd: c_int, backlog: c_int) -> c_int;
        fn close(fd: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLL_CLOEXEC: c_int = 0x80000;

    const AF_INET: u16 = 2;
    const AF_INET6: u16 = 10;
    const SOCK_STREAM: c_int = 1;
    const SOCK_NONBLOCK: c_int = 0x800;
    const SOCK_CLOEXEC: c_int = 0x80000;
    const SOL_SOCKET: c_int = 1;
    const SO_REUSEADDR: c_int = 2;
    const SO_REUSEPORT: c_int = 15;
    const EFD_NONBLOCK: c_int = 0x800;
    const EFD_CLOEXEC: c_int = 0x80000;

    fn cvt(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// An epoll instance (level-triggered).
    pub struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        /// Create an epoll instance.
        pub fn new() -> io::Result<Poller> {
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Poller { epfd })
        }

        fn interest(readable: bool, writable: bool) -> u32 {
            let mut ev = EPOLLRDHUP;
            if readable {
                ev |= EPOLLIN;
            }
            if writable {
                ev |= EPOLLOUT;
            }
            ev
        }

        fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) })?;
            Ok(())
        }

        /// Register `fd` under `token` with the given interest.
        pub fn add(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, Self::interest(readable, writable), token)
        }

        /// Change the interest set of a registered fd.
        pub fn modify(
            &self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, Self::interest(readable, writable), token)
        }

        /// Deregister an fd. (Closing an fd deregisters it implicitly;
        /// this exists for fds that stay open, e.g. a listener parked
        /// at shutdown.)
        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Wait up to `timeout_ms` (-1 blocks) and fill `out` with the
        /// ready set. EINTR retries instead of surfacing.
        pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            const MAX_EVENTS: usize = 256;
            let mut buf = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
            out.clear();
            let n = loop {
                let r = unsafe {
                    epoll_wait(self.epfd, buf.as_mut_ptr(), MAX_EVENTS as c_int, timeout_ms)
                };
                if r >= 0 {
                    break r as usize;
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            };
            for ev in &buf[..n] {
                let bits = ev.events;
                out.push(Event {
                    token: ev.data,
                    readable: bits & (EPOLLIN | EPOLLHUP | EPOLLERR | EPOLLRDHUP) != 0,
                    writable: bits & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe { close(self.epfd) };
        }
    }

    /// An `eventfd` wake handle: any thread holding a reference can
    /// [`wake`](WakeFd::wake) the reactor blocked in
    /// [`Poller::wait`]; the reactor [`drain`](WakeFd::drain)s it on
    /// wakeup so the level-triggered poller goes quiet again.
    pub struct WakeFd {
        fd: RawFd,
    }

    impl WakeFd {
        /// Create a nonblocking eventfd.
        pub fn new() -> io::Result<WakeFd> {
            let fd = cvt(unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) })?;
            Ok(WakeFd { fd })
        }

        /// The raw fd, for registration with a [`Poller`].
        pub fn raw(&self) -> RawFd {
            self.fd
        }

        /// Poke the owner awake. Never blocks: eventfd writes only
        /// block at a counter value no realistic wake count reaches.
        pub fn wake(&self) {
            let one: u64 = 1;
            unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
        }

        /// Consume pending wakes so the poller stops reporting ready.
        pub fn drain(&self) {
            let mut buf = 0u64;
            unsafe { read(self.fd, (&mut buf as *mut u64).cast(), 8) };
        }
    }

    impl Drop for WakeFd {
        fn drop(&mut self) {
            unsafe { close(self.fd) };
        }
    }

    // WakeFd is a plain fd; writes from multiple threads are fine.
    unsafe impl Send for WakeFd {}
    unsafe impl Sync for WakeFd {}

    /// `sockaddr_in` / `sockaddr_in6` bytes plus their length, built
    /// by hand: family in native order, port in network order.
    fn sockaddr_bytes(addr: &SocketAddr) -> ([u8; 28], u32) {
        let mut buf = [0u8; 28];
        match addr {
            SocketAddr::V4(v4) => {
                buf[0..2].copy_from_slice(&AF_INET.to_ne_bytes());
                buf[2..4].copy_from_slice(&v4.port().to_be_bytes());
                buf[4..8].copy_from_slice(&v4.ip().octets());
                (buf, 16)
            }
            SocketAddr::V6(v6) => {
                buf[0..2].copy_from_slice(&AF_INET6.to_ne_bytes());
                buf[2..4].copy_from_slice(&v6.port().to_be_bytes());
                buf[4..8].copy_from_slice(&v6.flowinfo().to_ne_bytes());
                buf[8..24].copy_from_slice(&v6.ip().octets());
                buf[24..28].copy_from_slice(&v6.scope_id().to_ne_bytes());
                (buf, 28)
            }
        }
    }

    /// Bind a nonblocking TCP listener with `SO_REUSEPORT` (and
    /// `SO_REUSEADDR`) set before `bind`, then hand the fd to std.
    pub fn listen_reuseport(addr: SocketAddr) -> io::Result<TcpListener> {
        let domain = match addr {
            SocketAddr::V4(_) => c_int::from(AF_INET),
            SocketAddr::V6(_) => c_int::from(AF_INET6),
        };
        let fd = cvt(unsafe { socket(domain, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) })?;
        // From here on, any failure must close the fd before returning.
        let result = (|| {
            let one: c_int = 1;
            let optlen = std::mem::size_of::<c_int>() as u32;
            cvt(unsafe {
                setsockopt(
                    fd,
                    SOL_SOCKET,
                    SO_REUSEADDR,
                    (&one as *const c_int).cast(),
                    optlen,
                )
            })?;
            cvt(unsafe {
                setsockopt(
                    fd,
                    SOL_SOCKET,
                    SO_REUSEPORT,
                    (&one as *const c_int).cast(),
                    optlen,
                )
            })?;
            let (sa, len) = sockaddr_bytes(&addr);
            cvt(unsafe { bind(fd, sa.as_ptr().cast(), len) })?;
            cvt(unsafe { listen(fd, 1024) })?;
            Ok(())
        })();
        match result {
            Ok(()) => Ok(unsafe { TcpListener::from_raw_fd(fd) }),
            Err(e) => {
                unsafe { close(fd) };
                Err(e)
            }
        }
    }

    /// The raw fd of a std socket type, for registration.
    pub fn raw_fd<T: AsRawFd>(t: &T) -> RawFd {
        t.as_raw_fd()
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::Event;
    use std::io;
    use std::net::{SocketAddr, TcpListener};

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "abpd serves through epoll, which is Linux-only",
        ))
    }

    /// Raw fd stand-in so the reactor module typechecks off-Linux.
    pub type RawFd = i32;

    /// Stub poller; constructors fail with `Unsupported`.
    pub struct Poller {}

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            unsupported()
        }

        pub fn add(&self, _fd: RawFd, _token: u64, _r: bool, _w: bool) -> io::Result<()> {
            unsupported()
        }

        pub fn modify(&self, _fd: RawFd, _token: u64, _r: bool, _w: bool) -> io::Result<()> {
            unsupported()
        }

        pub fn delete(&self, _fd: RawFd) -> io::Result<()> {
            unsupported()
        }

        pub fn wait(&self, _out: &mut Vec<Event>, _timeout_ms: i32) -> io::Result<()> {
            unsupported()
        }
    }

    /// Stub wake handle; constructor fails with `Unsupported`.
    pub struct WakeFd {}

    impl WakeFd {
        pub fn new() -> io::Result<WakeFd> {
            unsupported()
        }

        pub fn raw(&self) -> RawFd {
            -1
        }

        pub fn wake(&self) {}

        pub fn drain(&self) {}
    }

    /// Always fails, so `Server::start` does.
    pub fn listen_reuseport(_addr: SocketAddr) -> io::Result<TcpListener> {
        unsupported()
    }

    /// Stub raw-fd accessor.
    pub fn raw_fd<T>(_t: &T) -> RawFd {
        -1
    }
}

pub use sys::{listen_reuseport, raw_fd, Poller, WakeFd};

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> std::ffi::c_int;
    fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
}

/// `mallopt` parameter: the free space at the top of an arena above
/// which `free` hands it back to the OS.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const M_TRIM_THRESHOLD: std::ffi::c_int = -1;

/// Return the free memory of every malloc arena to the OS. glibc keeps
/// freed heap pages resident until something trims them, so without
/// this the transient heap of an engine compile (the parsed lists, the
/// index maps) and the pages of a retired engine generation stay in
/// the process's RSS. About a millisecond on a shard's heap: call it
/// after work that frees megabytes, never per request.
///
/// `malloc_trim` releases free pages inside an arena, but not the free
/// top of a thread's arena: that goes back only when `free` finds it
/// past the trim threshold, which glibc raises as large blocks come
/// and go, up to 64 MiB. So the first call also pins the threshold at
/// glibc's initial 128 KiB, which keeps large blocks in `mmap` and
/// lets every arena's top go back as it frees (call it once at process
/// start for that to cover everything the process allocates). A no-op
/// where the C library is not glibc.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        static PINNED: std::sync::Once = std::sync::Once::new();
        // SAFETY: `mallopt` and `malloc_trim` take plain integers,
        // touch only the allocator's own state under its own locks, and
        // may be called from any thread at any time.
        PINNED.call_once(|| unsafe {
            mallopt(M_TRIM_THRESHOLD, 128 * 1024);
        });
        // SAFETY: as above.
        unsafe {
            malloc_trim(0);
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn wake_fd_wakes_and_drains() {
        let poller = Poller::new().unwrap();
        let wake = WakeFd::new().unwrap();
        poller.add(wake.raw(), 7, true, false).unwrap();
        let mut events = Vec::new();
        // Nothing pending: a zero-timeout wait comes back empty.
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty());
        wake.wake();
        poller.wait(&mut events, 1000).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        wake.drain();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "drained eventfd must go quiet");
    }

    #[test]
    fn poller_reports_socket_readability() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.add(raw_fd(&server_side), 42, true, false).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty());

        client.write_all(b"x").unwrap();
        poller.wait(&mut events, 1000).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable);

        let mut buf = [0u8; 8];
        assert_eq!(server_side.read(&mut buf).unwrap(), 1);
        // Level-triggered: consumed input goes quiet again.
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty());

        // Interest can be rewritten to writable-only.
        poller
            .modify(raw_fd(&server_side), 42, false, true)
            .unwrap();
        poller.wait(&mut events, 1000).unwrap();
        assert!(events.iter().any(|e| e.token == 42 && e.writable));
        poller.delete(raw_fd(&server_side)).unwrap();
    }

    #[test]
    fn reuseport_listeners_share_an_address() {
        let first = listen_reuseport("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = first.local_addr().unwrap();
        assert_ne!(addr.port(), 0);
        // A second listener on the same resolved port must succeed —
        // that's the whole point of SO_REUSEPORT.
        let second = listen_reuseport(addr).unwrap();
        assert_eq!(second.local_addr().unwrap().port(), addr.port());

        // Connections land on one of the two accept queues.
        let c = TcpStream::connect(addr).unwrap();
        first.set_nonblocking(true).unwrap();
        second.set_nonblocking(true).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let mut accepted = false;
        while std::time::Instant::now() < deadline {
            if first.accept().is_ok() || second.accept().is_ok() {
                accepted = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(accepted, "no listener accepted the connection");
        drop(c);
    }
}
