//! One warm, multiplexed session per backend, shared by every forwarding
//! worker at once: a session carries many pipelined requests, so one is
//! plenty. A dead session is replaced on the next [`SessionPool::link`];
//! the health prober keeps it warm with [`SessionPool::refill`].

use act_client::session::Session;
use act_serve::{ClientConfig, ClientError, Conn, Endpoint};
use std::io;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// In-flight window asked of each backend session (the backend may grant
/// less). Big enough that every forwarding worker can wait on one session
/// concurrently.
const BACKEND_SESSION_DEPTH: u32 = 32;

/// The warm session to each backend of a fixed set.
pub struct SessionPool {
    backends: Vec<String>,
    slots: Vec<Mutex<Option<Arc<Session>>>>,
    cfg: ClientConfig,
}

impl SessionPool {
    /// A pool over `backends`, with no session open yet.
    pub fn new(backends: Vec<String>, connect_timeout: Duration, io_timeout: Duration) -> Self {
        let slots = backends.iter().map(|_| Mutex::new(None)).collect();
        let cfg = ClientConfig {
            connect_timeout: Some(connect_timeout),
            io_timeout: Some(io_timeout),
            retry: None,
        };
        SessionPool { backends, slots, cfg }
    }

    /// The backend addresses, in index order.
    pub fn addrs(&self) -> &[String] {
        &self.backends
    }

    /// The live session to backend `i`, opening one if there is none.
    ///
    /// # Errors
    ///
    /// Failure to open a needed session (these count against the
    /// backend's health).
    pub fn link(&self, i: usize) -> Result<Arc<Session>, ClientError> {
        let mut slot = self.slots[i].lock().expect("pool lock");
        if let Some(session) = slot.as_ref().filter(|s| !s.is_dead()) {
            return Ok(session.clone());
        }
        let endpoint = Endpoint::Tcp(self.backends[i].clone());
        let session = Session::open(&endpoint, &self.cfg, BACKEND_SESSION_DEPTH)?;
        *slot = Some(session.clone());
        Ok(session)
    }

    /// Drop `stale` from backend `i`'s slot (its exchange just failed) so
    /// the next [`SessionPool::link`] opens a replacement.
    pub fn discard(&self, i: usize, stale: &Arc<Session>) {
        let mut slot = self.slots[i].lock().expect("pool lock");
        if slot.as_ref().is_some_and(|s| Arc::ptr_eq(s, stale)) {
            *slot = None;
        }
    }

    /// Open a fresh raw connection to backend `i` with the pool's
    /// timeouts — the dedicated per-stream connection a chunked upload
    /// rides on.
    ///
    /// # Errors
    ///
    /// Connect failure or socket-option failure.
    pub fn connect(&self, i: usize) -> io::Result<Conn> {
        Conn::connect(&Endpoint::Tcp(self.backends[i].clone()), &self.cfg)
    }

    /// Make sure backend `i` has a live session (probe path). Returns
    /// whether one is open now; a failure is left for the health layer to
    /// judge.
    pub fn refill(&self, i: usize) -> bool {
        self.link(i).is_ok()
    }

    /// Drop the session to backend `i` (it was marked down).
    pub fn clear(&self, i: usize) {
        *self.slots[i].lock().expect("pool lock") = None;
    }

    /// Whether backend `i` has a live session right now.
    pub fn is_warm(&self, i: usize) -> bool {
        self.slots[i].lock().expect("pool lock").as_ref().is_some_and(|s| !s.is_dead())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use act_serve::server::{ServeConfig, Server};

    fn backend() -> Server {
        let cfg = ServeConfig {
            tcp_addr: Some("127.0.0.1:0".to_string()),
            workers: 1,
            queue_depth: 4,
            ..ServeConfig::default()
        };
        Server::start(cfg).expect("backend boots")
    }

    fn pool_for(addr: &str) -> SessionPool {
        SessionPool::new(vec![addr.to_string()], Duration::from_millis(500), Duration::from_secs(5))
    }

    #[test]
    fn refill_fills_to_capacity_and_clear_empties() {
        let server = backend();
        let addr = server.tcp_addr().unwrap().to_string();
        let pool = pool_for(&addr);
        assert!(pool.refill(0));
        assert!(pool.is_warm(0));
        let warm = pool.link(0).expect("warm session");
        assert!(Arc::ptr_eq(&warm, &pool.link(0).unwrap()), "one session, shared");
        pool.clear(0);
        assert!(!pool.is_warm(0));
        assert!(!Arc::ptr_eq(&warm, &pool.link(0).unwrap()), "a cleared slot reopens");
        server.shutdown();
        server.join();
    }

    #[test]
    fn refill_against_a_dead_backend_opens_nothing() {
        let pool = pool_for("127.0.0.1:1");
        assert!(!pool.refill(0));
        assert!(pool.link(0).is_err());
        assert!(pool.connect(0).is_err());
    }
}
