//! `act-client` — the one public client façade for the ACT service.
//!
//! Everything that talks to an `act serve` daemon or an `act gate`
//! gateway goes through [`Client`]: the CLI, the benchmark harness, and
//! the gateway's own backend connections. A client is configured once
//! through [`Client::builder`] and then used concurrently from any number
//! of threads:
//!
//! ```no_run
//! use act_client::Client;
//! use std::time::Duration;
//!
//! let client = Client::builder()
//!     .addr("127.0.0.1:7411")
//!     .timeouts(Duration::from_secs(5), Duration::from_secs(120))
//!     .retry(Duration::from_millis(100), 42)
//!     .pipeline_depth(8)
//!     .build()?;
//! let report = client.train(&act_client::ModelSpec {
//!     workload: "seq".into(),
//!     seed: 7,
//!     traces: 4,
//!     seq_len: 3,
//!     hidden: 8,
//!     max_epochs: 50,
//! })?;
//! println!("{report}");
//! # Ok::<(), act_client::ActError>(())
//! ```
//!
//! Every call rides one cached multiplexed [`session::Session`], opened
//! lazily on the first call and reopened when it dies; `pipeline_depth`
//! only sizes its in-flight window (depth 1 means one request on the wire
//! at a time). The streaming methods ([`Client::trace_put_streaming`],
//! [`Client::diagnose_streaming`]) send chunked uploads over the same
//! session.
//!
//! All methods return [`ActError`], the workspace-wide error type, so
//! callers never juggle transport-level error enums.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod session;

pub use act_core::{ActError, ConfigError};
pub use act_obs::MetricsSnapshot;
pub use act_serve::{ClientConfig, Endpoint, ModelSpec, Reply, Request};

use session::Session;
use std::io::Read;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use act_serve::ClientError;

/// A `STATUS` answer: the human-readable counters block plus the typed
/// metrics snapshot.
#[derive(Debug, Clone)]
pub struct ServerStatus {
    /// The rendered counters block.
    pub text: String,
    /// Full metrics snapshot (`None` only where a status was synthesized
    /// without one, e.g. for a backend that answered a probe oddly).
    pub metrics: Option<MetricsSnapshot>,
}

/// Configures and creates a [`Client`]. Obtained from [`Client::builder`].
#[derive(Debug, Clone)]
pub struct ClientBuilder {
    endpoint: Option<Endpoint>,
    cfg: ClientConfig,
    depth: u32,
}

impl ClientBuilder {
    /// Target a TCP daemon or gateway, e.g. `127.0.0.1:7411`.
    ///
    /// Replaces any endpoint set earlier (last call wins, same as
    /// repeating a CLI flag).
    pub fn addr(mut self, addr: impl Into<String>) -> ClientBuilder {
        self.endpoint = Some(Endpoint::Tcp(addr.into()));
        self
    }

    /// Target a Unix-domain-socket daemon.
    pub fn unix(mut self, path: impl Into<PathBuf>) -> ClientBuilder {
        self.endpoint = Some(Endpoint::Unix(path.into()));
        self
    }

    /// Set the TCP connect timeout and the per-read/write socket timeout.
    pub fn timeouts(mut self, connect: Duration, io: Duration) -> ClientBuilder {
        self.cfg.connect_timeout = Some(connect);
        self.cfg.io_timeout = Some(io);
        self
    }

    /// Retry once on transport failure or `BUSY`, sleeping a jittered
    /// `backoff` in between (deterministic for a given `seed`). Streamed
    /// uploads are never retried: half a stream must not be replayed.
    pub fn retry(mut self, backoff: Duration, seed: u64) -> ClientBuilder {
        self.cfg = self.cfg.with_retry(backoff, seed);
        self
    }

    /// The in-flight window to ask for when the session opens (`0` and
    /// `1` both mean one request at a time). The server may grant a
    /// smaller window than asked.
    pub fn pipeline_depth(mut self, depth: u32) -> ClientBuilder {
        self.depth = depth;
        self
    }

    /// Use a pre-built transport config instead of the individual
    /// [`timeouts`](ClientBuilder::timeouts)/[`retry`](ClientBuilder::retry)
    /// setters.
    pub fn config(mut self, cfg: ClientConfig) -> ClientBuilder {
        self.cfg = cfg;
        self
    }

    /// Build the client. No connection is made yet; the session opens
    /// lazily on the first call.
    ///
    /// # Errors
    ///
    /// [`ActError::Config`] when no endpoint was set.
    pub fn build(self) -> Result<Client, ActError> {
        let endpoint = self.endpoint.ok_or_else(|| {
            ActError::Config(ConfigError::new("endpoint", "not set; use .addr() or .unix()"))
        })?;
        Ok(Client { endpoint, cfg: self.cfg, depth: self.depth, session: Mutex::new(None) })
    }
}

/// A typed, thread-safe client for one ACT daemon or gateway.
///
/// See the [crate docs](crate) for transport selection; the short version
/// is that every method blocks until its reply arrives and returns the
/// reply's natural payload, with every failure — transport, protocol, or
/// server-reported — as an [`ActError`].
#[derive(Debug)]
pub struct Client {
    endpoint: Endpoint,
    cfg: ClientConfig,
    depth: u32,
    /// The lazily opened session every call rides.
    session: Mutex<Option<Arc<Session>>>,
}

impl Client {
    /// Start configuring a client.
    pub fn builder() -> ClientBuilder {
        ClientBuilder { endpoint: None, cfg: ClientConfig::default(), depth: 1 }
    }

    /// The endpoint this client talks to.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The configured pipeline depth (not the server-granted window).
    pub fn pipeline_depth(&self) -> u32 {
        self.depth
    }

    /// Train (or fetch from cache) the model for `spec`; returns the
    /// `TRAINED` summary line.
    ///
    /// # Errors
    ///
    /// Transport failures, `BUSY` after retry, and server-side `ERROR`s
    /// (e.g. unknown workload).
    pub fn train(&self, spec: &ModelSpec) -> Result<String, ActError> {
        match self.roundtrip(&Request::Train(spec.clone()))? {
            Reply::Trained(s) => Ok(s),
            other => Err(unexpected("TRAINED", &other)),
        }
    }

    /// Diagnose a failing trace (`act-trace::io` v1 text bytes) against
    /// the model for `spec`; returns the rendered ranked-suspect report.
    ///
    /// # Errors
    ///
    /// Transport failures, `BUSY` after retry, and server-side `ERROR`s.
    pub fn diagnose(&self, spec: &ModelSpec, trace: &[u8]) -> Result<String, ActError> {
        match self.roundtrip(&Request::Diagnose(spec.clone(), trace.to_vec()))? {
            Reply::Diagnosis(s) => Ok(s),
            other => Err(unexpected("DIAGNOSIS", &other)),
        }
    }

    /// Like [`diagnose`](Client::diagnose), but streams the trace from
    /// `reader` in chunks over the session instead of materializing one
    /// big frame — use for traces that are large or arriving piecewise.
    ///
    /// # Errors
    ///
    /// Transport and source-read failures, plus server-side `ERROR`s.
    pub fn diagnose_streaming(
        &self,
        spec: &ModelSpec,
        reader: impl Read,
    ) -> Result<String, ActError> {
        match self.stream_roundtrip(&Request::DiagnoseStart(spec.clone()), reader)? {
            Reply::Diagnosis(s) => Ok(s),
            other => Err(unexpected("DIAGNOSIS", &other)),
        }
    }

    /// Store a correct-run trace in the daemon's corpus under
    /// `(workload, key)`; returns the `STORED` summary line.
    ///
    /// # Errors
    ///
    /// Transport failures and server-side `ERROR`s (e.g. no corpus).
    pub fn trace_put(&self, key: &str, workload: &str, trace: &[u8]) -> Result<String, ActError> {
        let req = Request::TracePut {
            key: key.to_string(),
            workload: workload.to_string(),
            trace: trace.to_vec(),
        };
        match self.roundtrip(&req)? {
            Reply::Stored(s) => Ok(s),
            other => Err(unexpected("STORED", &other)),
        }
    }

    /// Like [`trace_put`](Client::trace_put), but streams the trace from
    /// `reader` in CRC-checked chunks, so the upload is not bounded by
    /// the one-frame payload cap.
    ///
    /// # Errors
    ///
    /// Transport and source-read failures, plus server-side `ERROR`s.
    pub fn trace_put_streaming(
        &self,
        key: &str,
        workload: &str,
        reader: impl Read,
    ) -> Result<String, ActError> {
        let start = Request::TracePutStart { key: key.to_string(), workload: workload.to_string() };
        match self.stream_roundtrip(&start, reader)? {
            Reply::Stored(s) => Ok(s),
            other => Err(unexpected("STORED", &other)),
        }
    }

    /// Read a stored trace back from the corpus.
    ///
    /// # Errors
    ///
    /// Transport failures and server-side `ERROR`s (e.g. unknown key).
    pub fn trace_get(&self, key: &str) -> Result<Vec<u8>, ActError> {
        match self.roundtrip(&Request::TraceGet { key: key.to_string() })? {
            Reply::TraceData(bytes) => Ok(bytes),
            other => Err(unexpected("TRACE_DATA", &other)),
        }
    }

    /// Fetch the daemon's counters block and metrics snapshot.
    ///
    /// # Errors
    ///
    /// Transport failures and server-side `ERROR`s.
    pub fn status(&self) -> Result<ServerStatus, ActError> {
        match self.roundtrip(&Request::Status)? {
            Reply::StatusMetrics(text, snap) => Ok(ServerStatus { text, metrics: Some(snap) }),
            other => Err(unexpected("STATUS", &other)),
        }
    }

    /// Ask the daemon to drain and exit; returns once `BYE` arrives.
    ///
    /// # Errors
    ///
    /// Transport failures and server-side `ERROR`s.
    pub fn shutdown(&self) -> Result<(), ActError> {
        match self.roundtrip(&Request::Shutdown)? {
            Reply::Bye => Ok(()),
            other => Err(unexpected("BYE", &other)),
        }
    }

    /// The raw session, opening it if necessary. For callers — the
    /// gateway, benchmarks, tests — that want to hold many
    /// [`session::Pending`]s at once instead of the blocking typed
    /// methods; how many can be in flight is the granted
    /// [`Session::window`].
    ///
    /// # Errors
    ///
    /// Connect/handshake failures.
    pub fn pipeline(&self) -> Result<Arc<Session>, ActError> {
        self.live_session().map_err(|e| self.convert(e))
    }

    /// Send a unary request over the session and wait for its reply. A
    /// transport failure or `BUSY` is retried once, after the policy's
    /// jittered sleep, when a retry policy is configured.
    fn roundtrip(&self, req: &Request) -> Result<Reply, ActError> {
        let attempt = || {
            let session = self.live_session()?;
            let outcome = session.call(req).and_then(session::Pending::wait);
            if outcome.is_err() {
                self.drop_session(&session);
            }
            outcome
        };
        let mut outcome = attempt();
        if let Some(policy) = &self.cfg.retry {
            if matches!(outcome, Err(ClientError::Io(_)) | Ok(Reply::Busy)) {
                std::thread::sleep(policy.sleep_for(0));
                outcome = attempt();
            }
        }
        outcome.map_err(|e| self.convert(e)).and_then(check_reply)
    }

    /// Dispatch a chunked upload over the session.
    fn stream_roundtrip(&self, start: &Request, reader: impl Read) -> Result<Reply, ActError> {
        let session = self.live_session().map_err(|e| self.convert(e))?;
        // No resend on failure: half a stream must not be replayed.
        let reply = session.stream(start, reader).and_then(session::Pending::wait);
        match reply {
            Ok(reply) => check_reply(reply),
            Err(e) => {
                self.drop_session(&session);
                Err(self.convert(e))
            }
        }
    }

    /// The cached session, or a freshly opened one when there is none or
    /// it has died (daemon restarted or drained, idle timeout).
    fn live_session(&self) -> Result<Arc<Session>, ClientError> {
        let mut slot = self.session.lock().expect("client session lock");
        if let Some(s) = slot.as_ref().filter(|s| !s.is_dead()) {
            return Ok(s.clone());
        }
        let fresh = Session::open(&self.endpoint, &self.cfg, self.depth.max(1))?;
        *slot = Some(fresh.clone());
        Ok(fresh)
    }

    /// Forget `stale` so the next call opens a new session — but only if
    /// the cache still holds that exact session (another thread may have
    /// replaced it already).
    fn drop_session(&self, stale: &Arc<Session>) {
        let mut slot = self.session.lock().expect("client session lock");
        if slot.as_ref().is_some_and(|s| Arc::ptr_eq(s, stale)) {
            *slot = None;
        }
    }

    /// Fold a transport error into [`ActError`], naming the endpoint.
    fn convert(&self, e: ClientError) -> ActError {
        let target = match &self.endpoint {
            Endpoint::Tcp(addr) => addr.clone(),
            Endpoint::Unix(path) => path.display().to_string(),
        };
        match e {
            ClientError::Io(io) => ActError::io(format!("request to {target}"), io),
            ClientError::Proto(p) => {
                ActError::from(format!("protocol error talking to {target}: {p}"))
            }
        }
    }
}

/// Turn server-reported failure replies into errors; pass the rest on.
fn check_reply(reply: Reply) -> Result<Reply, ActError> {
    match reply {
        Reply::Error(msg) => Err(ActError::from(format!("server error: {msg}"))),
        Reply::Busy => Err(ActError::from("server busy (queue full); retry later".to_string())),
        other => Ok(other),
    }
}

/// The server answered with a reply kind the request can't produce.
fn unexpected(wanted: &str, got: &Reply) -> ActError {
    ActError::from(format!("expected {wanted} reply, got {got:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_requires_an_endpoint() {
        let err = Client::builder().build().unwrap_err();
        assert!(matches!(err, ActError::Config(_)), "got {err:?}");
    }

    #[test]
    fn builder_last_endpoint_wins_and_depth_sticks() {
        let client = Client::builder()
            .unix("/tmp/ignored.sock")
            .addr("127.0.0.1:1")
            .pipeline_depth(8)
            .build()
            .unwrap();
        assert!(matches!(client.endpoint(), Endpoint::Tcp(a) if a == "127.0.0.1:1"));
        assert_eq!(client.pipeline_depth(), 8);
    }

    #[test]
    fn retry_attempts_a_dead_endpoint_twice() {
        let client = Client::builder()
            .addr("127.0.0.1:1")
            .timeouts(Duration::from_millis(200), Duration::from_millis(200))
            .retry(Duration::from_millis(40), 1)
            .build()
            .unwrap();
        let start = std::time::Instant::now();
        let err = client.status().expect_err("both attempts must fail");
        assert!(matches!(err, ActError::Io { .. }), "got {err:?}");
        // The backoff sleep (>= 20ms) proves the second attempt happened.
        assert!(start.elapsed() >= Duration::from_millis(20), "no backoff observed");
    }

    #[test]
    fn connection_failures_name_the_endpoint() {
        // Port 1 refuses immediately; no retry configured, so this is fast.
        let client = Client::builder()
            .addr("127.0.0.1:1")
            .timeouts(Duration::from_millis(200), Duration::from_millis(200))
            .build()
            .unwrap();
        let err = client.status().unwrap_err();
        assert!(err.to_string().contains("127.0.0.1:1"), "got {err}");
    }
}
