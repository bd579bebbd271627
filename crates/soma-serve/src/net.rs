//! Transport plumbing: one [`Listen`] address type over both socket
//! families, plus internal listener/stream enums so the server and
//! client code is transport-agnostic.
//!
//! Addresses render and parse as `unix:<path>` or `tcp:<host>:<port>`
//! (a bare `<host>:<port>` is accepted as TCP for convenience); that
//! string is the `--listen` flag's whole grammar.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

/// A serve endpoint: where the daemon listens / the client connects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listen {
    /// TCP, as a `host:port` string (port `0` = kernel-assigned; the
    /// bound [`ServerHandle`](crate::ServerHandle) reports the real
    /// port).
    Tcp(String),
    /// A unix-domain socket path.
    Unix(PathBuf),
}

impl fmt::Display for Listen {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Listen::Tcp(addr) => write!(f, "tcp:{addr}"),
            Listen::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

impl FromStr for Listen {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("empty unix socket path".into());
            }
            return Ok(Listen::Unix(PathBuf::from(path)));
        }
        let addr = s.strip_prefix("tcp:").unwrap_or(s);
        if let Some((host, port)) = addr.rsplit_once(':') {
            if !host.is_empty() && port.parse::<u16>().is_ok() {
                return Ok(Listen::Tcp(addr.to_string()));
            }
        }
        Err(format!("invalid listen address `{s}`: expected `unix:<path>` or `tcp:<host>:<port>`"))
    }
}

/// A bound listening socket of either family.
pub(crate) enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    /// Binds `listen`, returning the listener plus the *resolved*
    /// address (TCP port `0` replaced by the kernel's pick). A stale
    /// unix socket file from a previous run is removed first.
    pub fn bind(listen: &Listen) -> io::Result<(Self, Listen)> {
        match listen {
            Listen::Tcp(addr) => {
                let l = TcpListener::bind(addr.as_str())?;
                let resolved = Listen::Tcp(l.local_addr()?.to_string());
                Ok((Listener::Tcp(l), resolved))
            }
            #[cfg(unix)]
            Listen::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                let l = UnixListener::bind(path)?;
                Ok((Listener::Unix(l), Listen::Unix(path.clone())))
            }
            #[cfg(not(unix))]
            Listen::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are not available on this platform",
            )),
        }
    }

    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nonblocking),
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(nonblocking),
        }
    }

    /// Waits until a connection is pending or `timeout` has passed,
    /// whichever comes first, so a nonblocking accept loop takes each
    /// connection as it arrives. Targets without `poll(2)` sleep the
    /// whole `timeout`.
    pub fn wait(&self, timeout: Duration) {
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            let fd = match self {
                Listener::Tcp(l) => l.as_raw_fd(),
                Listener::Unix(l) => l.as_raw_fd(),
            };
            crate::shutdown::wait_readable(fd, timeout);
        }
        #[cfg(not(unix))]
        std::thread::sleep(timeout);
    }

    /// Accepts one connection, returned in blocking mode (accepted
    /// sockets must not inherit the listener's nonblocking flag), with
    /// Nagle's algorithm off on TCP.
    pub fn accept(&self) -> io::Result<Stream> {
        let stream = match self {
            Listener::Tcp(l) => Stream::Tcp(nodelay(l.accept()?.0)),
            #[cfg(unix)]
            Listener::Unix(l) => Stream::Unix(l.accept()?.0),
        };
        stream.set_nonblocking(false)?;
        Ok(stream)
    }
}

/// One connected socket of either family.
pub(crate) enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

/// Turns Nagle's algorithm off: frames are whole lines written at once,
/// and a small frame held back for the peer's delayed ACK costs a
/// request tens of milliseconds. Best effort: a socket that refuses the
/// option (some platforms do once the peer has reset it) still carries
/// frames, so the refusal must not fail the accept loop or a connect.
fn nodelay(stream: TcpStream) -> TcpStream {
    let _ = stream.set_nodelay(true);
    stream
}

impl Stream {
    /// Connects to `listen`, with Nagle's algorithm off on TCP.
    pub fn connect(listen: &Listen) -> io::Result<Self> {
        match listen {
            Listen::Tcp(addr) => Ok(Stream::Tcp(nodelay(TcpStream::connect(addr.as_str())?))),
            #[cfg(unix)]
            Listen::Unix(path) => Ok(Stream::Unix(UnixStream::connect(path)?)),
            #[cfg(not(unix))]
            Listen::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are not available on this platform",
            )),
        }
    }

    pub fn try_clone(&self) -> io::Result<Self> {
        match self {
            Stream::Tcp(s) => Ok(Stream::Tcp(s.try_clone()?)),
            #[cfg(unix)]
            Stream::Unix(s) => Ok(Stream::Unix(s.try_clone()?)),
        }
    }

    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(dur),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(dur),
        }
    }

    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(nonblocking),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_nonblocking(nonblocking),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listen_addresses_parse_and_round_trip() {
        let unix: Listen = "unix:/tmp/soma.sock".parse().unwrap();
        assert_eq!(unix, Listen::Unix(PathBuf::from("/tmp/soma.sock")));
        assert_eq!(unix.to_string().parse::<Listen>().unwrap(), unix);

        let tcp: Listen = "tcp:127.0.0.1:7777".parse().unwrap();
        assert_eq!(tcp, Listen::Tcp("127.0.0.1:7777".into()));
        assert_eq!(tcp.to_string().parse::<Listen>().unwrap(), tcp);

        // Bare host:port is TCP shorthand.
        assert_eq!("127.0.0.1:0".parse::<Listen>().unwrap(), Listen::Tcp("127.0.0.1:0".into()));
    }

    /// A socket that refuses `TCP_NODELAY` (here a unix socket behind
    /// the `TcpStream` type) comes back from `nodelay` and still carries
    /// bytes, so `Listener::accept` cannot fail on the option.
    #[cfg(unix)]
    #[test]
    fn a_refused_nodelay_keeps_the_connection() {
        use std::os::fd::OwnedFd;

        let (ours, mut peer) = UnixStream::pair().unwrap();
        let ours = TcpStream::from(OwnedFd::from(ours));
        assert!(ours.set_nodelay(true).is_err(), "the option must be refused for this test");
        let mut ours = nodelay(ours);
        ours.write_all(b"frame\n").unwrap();
        let mut got = [0u8; 6];
        peer.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"frame\n");
    }

    #[test]
    fn junk_listen_addresses_are_rejected() {
        for junk in ["", "unix:", "localhost", "http://x"] {
            let err = junk.parse::<Listen>();
            assert!(err.is_err(), "{junk:?} must not parse");
        }
    }
}
