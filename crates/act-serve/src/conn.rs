//! Connections and the session life cycle both daemons (act-serve and
//! act-gate) and the client share: the socket type, the `HELLO`
//! handshake, the blocking frame reader a session runs on, and the drain
//! switch that wakes blocked acceptors and session readers at shutdown.
//!
//! Every connection is a session, so every accepted connection gets its
//! own thread, and nothing polls: an acceptor blocks in `accept`, a
//! session reader blocks waiting for its next frame. [`Drain::start`]
//! wakes both — a self-connect unblocks each acceptor, and `shutdown(2)`
//! of the read half unblocks each tracked session reader while leaving
//! the write half open for the replies still owed.

use crate::client::{connect_tcp, ClientConfig, ClientError, Endpoint};
use crate::proto::{read_frame, write_frame, Frame, ProtoError, Reply, Request};
use act_obs::{events, Level};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A connected socket, TCP or Unix-domain.
#[derive(Debug)]
pub enum Conn {
    /// TCP (remote or loopback) peer.
    Tcp(TcpStream),
    /// Unix-domain-socket peer (local, no network stack).
    Unix(UnixStream),
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

impl Conn {
    /// Connect to `endpoint` and apply `cfg`'s socket timeouts.
    ///
    /// # Errors
    ///
    /// Connect or socket-option failure.
    pub fn connect(endpoint: &Endpoint, cfg: &ClientConfig) -> io::Result<Conn> {
        let conn = match endpoint {
            Endpoint::Tcp(addr) => Conn::Tcp(connect_tcp(addr, cfg.connect_timeout)?),
            Endpoint::Unix(path) => Conn::Unix(UnixStream::connect(path)?),
        };
        conn.set_read_timeout(cfg.io_timeout)?;
        conn.set_write_timeout(cfg.io_timeout)?;
        Ok(conn)
    }

    /// Bound (or, with `None`, unbound) every blocking read.
    ///
    /// # Errors
    ///
    /// Socket-option failure.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(t),
            Conn::Unix(s) => s.set_read_timeout(t),
        }
    }

    /// Bound (or, with `None`, unbound) every blocking write.
    ///
    /// # Errors
    ///
    /// Socket-option failure.
    pub fn set_write_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(t),
            Conn::Unix(s) => s.set_write_timeout(t),
        }
    }

    /// A second handle on the same socket (a session's writer, so replies
    /// go out while the reader blocks on the next frame).
    ///
    /// # Errors
    ///
    /// `dup(2)` failure.
    pub fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => Ok(Conn::Tcp(s.try_clone()?)),
            Conn::Unix(s) => Ok(Conn::Unix(s.try_clone()?)),
        }
    }

    /// Shut down one or both halves of the socket for every handle on it.
    /// A socket that is already gone is not an error worth reporting.
    pub fn shutdown(&self, how: Shutdown) {
        let _ = match self {
            Conn::Tcp(s) => s.shutdown(how),
            Conn::Unix(s) => s.shutdown(how),
        };
    }
}

/// The client half of the handshake: send `HELLO` asking for `window`
/// requests in flight and return the window the `HELLO_ACK` grants (at
/// least 1; the server may trim the ask).
///
/// # Errors
///
/// Transport failures, and a server that answers with anything but
/// `HELLO_ACK` ([`ClientError::Proto`]).
pub fn hello(conn: &mut Conn, window: u32) -> Result<u32, ClientError> {
    write_frame(&mut *conn, &Request::Hello { window }.to_frame())?;
    match Reply::from_frame(&read_frame(&mut *conn)?)? {
        Reply::HelloAck { window } => Ok(window.max(1)),
        other => Err(ClientError::Proto(ProtoError::Malformed(format!(
            "HELLO answered with {other:?}, not HELLO_ACK"
        )))),
    }
}

/// The server half of the handshake: the connection's first frame must
/// arrive within `io_timeout` and must be `HELLO`. Returns its request id
/// and the window it asks for; otherwise the request id to answer (0 when
/// no frame was read) and the `ERROR` text to answer it with before the
/// connection closes.
///
/// # Errors
///
/// See above: timeout, bad frame, or a first frame other than `HELLO`.
pub fn read_hello(conn: &mut Conn, io_timeout: Duration) -> Result<(u32, u32), (u32, String)> {
    conn.set_read_timeout(Some(io_timeout)).map_err(|e| (0, format!("bad request: {e}")))?;
    let frame = read_frame(&mut *conn).map_err(|e| (0, format!("bad request: {e}")))?;
    match Request::from_frame(&frame) {
        Ok(Request::Hello { window }) => Ok((frame.request_id, window)),
        Ok(_) => Err((frame.request_id, "a connection must open with HELLO".to_string())),
        Err(e) => Err((frame.request_id, format!("bad request: {e}"))),
    }
}

/// Read a session's next frame: block, without a timeout, for its first
/// byte, then give the rest `io_timeout` — an idle session costs nothing,
/// but a frame that has started must complete. `Ok(None)` means the peer
/// closed the connection (or the drain cut its read half) between frames.
///
/// # Errors
///
/// A frame that is malformed or does not complete in time; the stream
/// position is then unknown and the session must end.
pub fn next_frame(conn: &mut Conn, io_timeout: Duration) -> Result<Option<Frame>, ProtoError> {
    conn.set_read_timeout(None)?;
    let mut first = [0u8; 1];
    loop {
        match conn.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Ok(None),
        }
    }
    conn.set_read_timeout(Some(io_timeout))?;
    read_frame((&first[..]).chain(&mut *conn)).map(Some)
}

/// Spawn an acceptor thread named `name`: block in `accept` and hand every
/// connection to `serve` on a thread of its own (named `target`, which
/// also tags its events), so a silent client can only ever stall itself.
/// The loop ends when the drain has started — its self-connect is what
/// wakes the blocked `accept`.
///
/// # Errors
///
/// Failure to spawn the acceptor thread.
pub fn spawn_acceptor(
    name: &str,
    target: &'static str,
    mut accept: impl FnMut() -> io::Result<Conn> + Send + 'static,
    drain: Arc<Drain>,
    serve: impl Fn(Conn) + Send + Sync + 'static,
) -> io::Result<JoinHandle<()>> {
    let serve = Arc::new(serve);
    std::thread::Builder::new().name(name.to_string()).spawn(move || loop {
        let accepted = accept();
        if drain.is_draining() {
            return;
        }
        match accepted {
            Ok(conn) => {
                let serve = serve.clone();
                let spawned =
                    std::thread::Builder::new().name(target.to_string()).spawn(move || serve(conn));
                if spawned.is_err() {
                    events().emit(Level::Warn, target, "failed to spawn session thread");
                }
            }
            // Transient accept errors (e.g. aborted handshakes) must not
            // kill the acceptor; a short pause keeps a persistent one
            // (out of file descriptors) from spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    })
}

/// A daemon's drain switch, shared by its acceptors, its session threads
/// and its handle: the flag, the listeners to wake, and the live
/// connections whose readers must stop waiting for frames.
#[derive(Debug)]
pub struct Drain {
    draining: AtomicBool,
    listeners: Vec<Endpoint>,
    live: Mutex<HashMap<u64, Conn>>,
    next_id: AtomicU64,
}

impl Drain {
    /// A switch that, once started, wakes the acceptors of the TCP
    /// listener bound at `tcp` and the Unix listener at `unix`.
    pub fn new(tcp: Option<SocketAddr>, unix: Option<PathBuf>) -> Arc<Drain> {
        let tcp = tcp.map(|mut addr| {
            // A wildcard bind is reachable on loopback.
            if addr.ip().is_unspecified() {
                addr.set_ip(match addr {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            Endpoint::Tcp(addr.to_string())
        });
        Arc::new(Drain {
            draining: AtomicBool::new(false),
            listeners: tcp.into_iter().chain(unix.map(Endpoint::Unix)).collect(),
            live: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
        })
    }

    /// Whether the drain has started.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Start the drain: set the flag, connect once to every listener so
    /// its acceptor wakes and sees the flag, and cut the read half of
    /// every tracked connection so its reader sees end-of-stream. Replies
    /// still owed can be written; nothing more is read. Idempotent.
    pub fn start(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        let wake = ClientConfig {
            connect_timeout: Some(Duration::from_secs(1)),
            io_timeout: None,
            retry: None,
        };
        for listener in &self.listeners {
            let _ = Conn::connect(listener, &wake);
        }
        for conn in self.live.lock().expect("drain lock").values() {
            conn.shutdown(Shutdown::Read);
        }
    }

    /// Track `conn` until the returned guard drops. A connection tracked
    /// after the drain started is not cut; its thread must check
    /// [`Drain::is_draining`] after tracking and end on its own.
    ///
    /// # Errors
    ///
    /// Failure to duplicate the socket handle.
    pub fn track(self: &Arc<Drain>, conn: &Conn) -> io::Result<Tracked> {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        self.live.lock().expect("drain lock").insert(id, conn.try_clone()?);
        Ok(Tracked { drain: self.clone(), id })
    }
}

/// A connection registered with a [`Drain`]; untracked on drop.
#[derive(Debug)]
pub struct Tracked {
    drain: Arc<Drain>,
    id: u64,
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.drain.live.lock().expect("drain lock").remove(&self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    /// Whether the drain starts before or after the acceptor blocks in
    /// `accept` and the reader blocks for a frame, both must return.
    #[test]
    fn drain_wakes_a_blocked_acceptor_and_a_blocked_reader() {
        let listener = TcpListener::bind("0.0.0.0:0").unwrap();
        let drain = Drain::new(Some(listener.local_addr().unwrap()), None);
        let acceptor = std::thread::spawn(move || listener.accept().is_ok());

        let server = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(server.local_addr().unwrap()).unwrap();
        let mut conn = Conn::Tcp(server.accept().unwrap().0);
        let _tracked = drain.track(&conn).unwrap();
        let reader = std::thread::spawn(move || next_frame(&mut conn, Duration::from_secs(5)));

        let t0 = Instant::now();
        drain.start();
        assert!(acceptor.join().unwrap(), "the self-connect must be accepted");
        assert!(matches!(reader.join().unwrap(), Ok(None)), "a cut reader sees end-of-stream");
        assert!(t0.elapsed() < Duration::from_secs(1));
        assert!(drain.is_draining());
    }
}
