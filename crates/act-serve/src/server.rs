//! The daemon: listeners, acceptor threads, session readers, the bounded
//! job queue, and the counters block behind `STATUS`.
//!
//! Life of a connection: an acceptor thread blocks in `accept` and hands
//! every connection to its own session thread. The session thread waits
//! up to `io_timeout` for the opening `HELLO` (anything else is answered
//! `ERROR` and the connection closes), acks it with the granted window,
//! and then blocks reading frames. `STATUS` and `SHUTDOWN` are answered
//! inline — always serviceable, even with a full queue — and everything
//! else claims a window slot and is `try_push`ed onto the bounded queue as
//! a [`Job`](crate::pool::Job). A full queue yields an immediate `BUSY`
//! reply — the request was *refused*, never accepted-then-dropped. Workers
//! drain the queue (see [`crate::pool`]); `SHUTDOWN` (or
//! [`Server::shutdown`], which the CLI wires to SIGINT) closes the queue,
//! starts the [`Drain`] — which wakes the acceptors and ends every
//! session's reads — and lets the workers finish every accepted job before
//! [`Server::join`] returns.

use crate::cache::{CacheOutcome, ModelCache};
use crate::conn::{next_frame, read_hello, spawn_acceptor, Conn, Drain};
use crate::pool::{spawn_workers, BatchPolicy, Job, Responder, Work};
use crate::proto::{encode_frame, write_frame, ModelSpec, Reply, Request};
use act_fleet::BoundedQueue;
use act_obs::{events, latency_bounds_us, Counter, Gauge, Histogram, Level, Registry};
use act_store::Crc32;
use act_trace::io::{parse_record_line, TraceBuilder, TraceSink, MAX_CODE_LEN};
use act_trace::Trace;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Ceiling on one streamed `DIAGNOSE` upload. Unlike streamed `TRACE_PUT`
/// (disk-backed, memory bounded by the chunk size) a streamed diagnose
/// materializes the parsed trace in memory, so it needs a cap; this one is
/// 4x the old single-frame limit.
const MAX_STREAM_DIAGNOSE_BYTES: u64 = 256 << 20;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP listen address (`"127.0.0.1:0"` picks an ephemeral port). At
    /// least one of `tcp_addr`/`unix_path` must be set.
    pub tcp_addr: Option<String>,
    /// Unix-domain-socket path (a stale socket file is replaced).
    pub unix_path: Option<PathBuf>,
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Bounded job-queue depth; a full queue answers `BUSY`.
    pub queue_depth: usize,
    /// Directory for persisted models (`None` = in-memory cache only).
    pub model_dir: Option<PathBuf>,
    /// Corpus store directory (`None` = no `TRACE_PUT`/`TRACE_GET`; the
    /// directory is created and initialized on first use).
    pub corpus_dir: Option<PathBuf>,
    /// Models kept resident in the LRU cache.
    pub cache_capacity: usize,
    /// Per-request deadline, measured from acceptance; a job popped after
    /// its deadline is answered with an error instead of being processed.
    pub deadline: Duration,
    /// How long a connection may take to send its `HELLO`, and how long
    /// a started frame may take to arrive whole; also the write timeout.
    /// An idle session between frames is not timed out.
    pub io_timeout: Duration,
    /// Ceiling on the per-session in-flight window granted at `HELLO`. A
    /// session asking for more (or for the default, 0) gets
    /// `min(asked, session_window)`.
    pub session_window: u32,
    /// Most diagnose requests coalesced into one micro-batch. `1`
    /// disables coalescing (every request dispatched alone); `0` is
    /// rejected at startup.
    pub batch_size: usize,
    /// How long a worker holding a diagnose request waits for companions
    /// targeting the same model before dispatching the batch. Zero — the
    /// default — means "take whatever is already queued, never wait":
    /// under sustained load batches form from queue backlog on their own,
    /// and measured throughput is strictly higher without the stall (the
    /// gathered members sit idle while the leader waits). A non-zero wait
    /// only pays off for bursty arrivals where trading latency for fuller
    /// batches is explicitly wanted.
    pub batch_wait: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            tcp_addr: Some("127.0.0.1:0".to_string()),
            unix_path: None,
            workers: act_fleet::default_workers(),
            queue_depth: 64,
            model_dir: None,
            corpus_dir: None,
            cache_capacity: 32,
            deadline: Duration::from_secs(120),
            io_timeout: Duration::from_secs(30),
            session_window: 32,
            batch_size: 16,
            batch_wait: Duration::ZERO,
        }
    }
}

/// Counters behind `STATUS` — the daemon's observability surface, backed
/// by a per-server [`act_obs::Registry`] so the whole set serializes as
/// one [`MetricsSnapshot`](act_obs::MetricsSnapshot) in `STATUS`
/// replies. Per-server (not the process-global registry) because the
/// tests boot several daemons in one process and their counters must not
/// mix. Request/reply counters are per [`FrameKind`](crate::FrameKind);
/// service time is a fixed-bucket latency histogram.
pub struct ServerStats {
    registry: Registry,
    accepted: Counter,
    served: Counter,
    errored: Counter,
    rejected_busy: Counter,
    crashed: Counter,
    deadline_expired: Counter,
    proto_errors: Counter,
    cache_memory_hits: Counter,
    cache_disk_loads: Counter,
    cache_store_loads: Counter,
    cache_trained: Counter,
    coalesced_batches: Counter,
    coalesce_hits: Counter,
    coalesce_misses: Counter,
    req_train: Counter,
    req_diagnose: Counter,
    req_status: Counter,
    req_shutdown: Counter,
    req_trace_put: Counter,
    req_trace_get: Counter,
    req_hello: Counter,
    req_trace_put_start: Counter,
    req_diagnose_start: Counter,
    req_stream_chunk: Counter,
    req_stream_end: Counter,
    stream_chunk_bytes: Counter,
    streams_opened: Counter,
    streams_aborted: Counter,
    reply_trained: Counter,
    reply_diagnosis: Counter,
    reply_status: Counter,
    reply_bye: Counter,
    reply_busy: Counter,
    reply_error: Counter,
    reply_stored: Counter,
    reply_trace_data: Counter,
    reply_hello_ack: Counter,
    uptime_ms: Gauge,
    queue_depth: Gauge,
    models_resident: Gauge,
    sessions_open: Gauge,
    requests_in_flight: Gauge,
    service_us: Histogram,
    enqueue_depth: Histogram,
    batch_size: Histogram,
}

impl Default for ServerStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerStats {
    /// Fresh stats over a fresh registry (all zeros).
    pub fn new() -> ServerStats {
        let registry = Registry::new();
        ServerStats {
            accepted: registry.counter("requests_accepted"),
            served: registry.counter("requests_served"),
            errored: registry.counter("requests_errored"),
            rejected_busy: registry.counter("requests_rejected_busy"),
            crashed: registry.counter("requests_crashed"),
            deadline_expired: registry.counter("requests_deadline_expired"),
            proto_errors: registry.counter("protocol_errors"),
            cache_memory_hits: registry.counter("cache_memory_hits"),
            cache_disk_loads: registry.counter("cache_disk_loads"),
            cache_store_loads: registry.counter("cache_store_loads"),
            cache_trained: registry.counter("cache_trained"),
            coalesced_batches: registry.counter("coalesced_batches"),
            coalesce_hits: registry.counter("coalesce_hits"),
            coalesce_misses: registry.counter("coalesce_misses"),
            req_train: registry.counter("req_train"),
            req_diagnose: registry.counter("req_diagnose"),
            req_status: registry.counter("req_status"),
            req_shutdown: registry.counter("req_shutdown"),
            req_trace_put: registry.counter("req_trace_put"),
            req_trace_get: registry.counter("req_trace_get"),
            req_hello: registry.counter("req_hello"),
            req_trace_put_start: registry.counter("req_trace_put_start"),
            req_diagnose_start: registry.counter("req_diagnose_start"),
            req_stream_chunk: registry.counter("req_stream_chunk"),
            req_stream_end: registry.counter("req_stream_end"),
            stream_chunk_bytes: registry.counter("stream_chunk_bytes"),
            streams_opened: registry.counter("streams_opened"),
            streams_aborted: registry.counter("streams_aborted"),
            reply_trained: registry.counter("reply_trained"),
            reply_diagnosis: registry.counter("reply_diagnosis"),
            reply_status: registry.counter("reply_status"),
            reply_bye: registry.counter("reply_bye"),
            reply_busy: registry.counter("reply_busy"),
            reply_error: registry.counter("reply_error"),
            reply_stored: registry.counter("reply_stored"),
            reply_trace_data: registry.counter("reply_trace_data"),
            reply_hello_ack: registry.counter("reply_hello_ack"),
            uptime_ms: registry.gauge("uptime_ms"),
            queue_depth: registry.gauge("queue_depth"),
            models_resident: registry.gauge("models_resident"),
            sessions_open: registry.gauge("sessions_open"),
            requests_in_flight: registry.gauge("requests_in_flight"),
            service_us: registry.histogram("service_us", &latency_bounds_us()),
            enqueue_depth: registry
                .histogram("enqueue_depth", &[0, 1, 2, 4, 8, 16, 32, 64, 128, 256]),
            batch_size: registry.histogram("batch_size", &[1, 2, 4, 8, 16, 32]),
            registry,
        }
    }

    /// The registry every counter lives in, so sibling subsystems (the
    /// corpus store's metrics) can join the same `STATUS` snapshot.
    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }

    pub(crate) fn bump_accepted(&self) {
        self.accepted.inc();
    }

    pub(crate) fn bump_served(&self) {
        self.served.inc();
    }

    pub(crate) fn bump_errored(&self) {
        self.errored.inc();
    }

    pub(crate) fn bump_rejected(&self) {
        self.rejected_busy.inc();
    }

    pub(crate) fn bump_crashed(&self) {
        self.crashed.inc();
    }

    pub(crate) fn bump_deadline_expired(&self) {
        self.deadline_expired.inc();
    }

    pub(crate) fn bump_proto_errors(&self) {
        self.proto_errors.inc();
    }

    /// Count one decoded request by frame kind.
    pub(crate) fn note_request(&self, request: &Request) {
        match request {
            Request::Train(_) => self.req_train.inc(),
            Request::Diagnose(..) => self.req_diagnose.inc(),
            Request::Status => self.req_status.inc(),
            Request::Shutdown => self.req_shutdown.inc(),
            Request::TracePut { .. } => self.req_trace_put.inc(),
            Request::TraceGet { .. } => self.req_trace_get.inc(),
            Request::Hello { .. } => self.req_hello.inc(),
            Request::TracePutStart { .. } => self.req_trace_put_start.inc(),
            Request::DiagnoseStart(_) => self.req_diagnose_start.inc(),
            Request::StreamChunk(bytes) => {
                self.req_stream_chunk.inc();
                self.stream_chunk_bytes.add(bytes.len() as u64);
            }
            Request::StreamEnd { .. } => self.req_stream_end.inc(),
        }
    }

    /// Count one written reply by frame kind.
    pub(crate) fn note_reply(&self, reply: &Reply) {
        match reply {
            Reply::Trained(_) => self.reply_trained.inc(),
            Reply::Diagnosis(_) => self.reply_diagnosis.inc(),
            Reply::StatusMetrics(..) => self.reply_status.inc(),
            Reply::Bye => self.reply_bye.inc(),
            Reply::Busy => self.reply_busy.inc(),
            Reply::Error(_) => self.reply_error.inc(),
            Reply::Stored(_) => self.reply_stored.inc(),
            Reply::TraceData(_) => self.reply_trace_data.inc(),
            Reply::HelloAck { .. } => self.reply_hello_ack.inc(),
        }
    }

    /// Observe the queue depth seen by one enqueued request (the
    /// per-request queue-depth histogram behind `STATUS`).
    pub(crate) fn note_enqueue_depth(&self, depth: usize) {
        self.enqueue_depth.observe(depth as u64);
    }

    pub(crate) fn note_session_opened(&self) {
        self.sessions_open.add(1);
    }

    pub(crate) fn note_session_closed(&self) {
        self.sessions_open.add(-1);
    }

    pub(crate) fn note_request_started(&self) {
        self.requests_in_flight.add(1);
    }

    pub(crate) fn note_request_finished(&self) {
        self.requests_in_flight.add(-1);
    }

    pub(crate) fn note_stream_opened(&self) {
        self.streams_opened.inc();
    }

    pub(crate) fn note_stream_aborted(&self) {
        self.streams_aborted.inc();
    }

    /// Record one dispatched micro-batch of `size` diagnose requests. A
    /// request that found companions is a coalesce *hit*; a request
    /// dispatched alone (nothing compatible arrived within the gather
    /// window) is a *miss* — so `coalesce_hits + coalesce_misses` equals
    /// the number of batch-eligible requests, and the hit rate reads off
    /// directly.
    pub(crate) fn note_batch(&self, size: usize) {
        self.coalesced_batches.inc();
        self.batch_size.observe(size as u64);
        if size > 1 {
            self.coalesce_hits.add(size as u64);
        } else {
            self.coalesce_misses.inc();
        }
    }

    pub(crate) fn note_cache(&self, outcome: CacheOutcome) {
        match outcome {
            CacheOutcome::Memory => self.cache_memory_hits.inc(),
            CacheOutcome::Disk => self.cache_disk_loads.inc(),
            CacheOutcome::Store => self.cache_store_loads.inc(),
            CacheOutcome::Trained => self.cache_trained.inc(),
        }
    }

    pub(crate) fn record_service(&self, elapsed: Duration) {
        self.service_us.observe(elapsed.as_micros() as u64);
    }

    /// Requests answered `BUSY`.
    pub fn rejected_busy(&self) -> u64 {
        self.rejected_busy.get()
    }

    /// Requests whose handler panicked (isolated; daemon kept serving).
    pub fn crashed(&self) -> u64 {
        self.crashed.get()
    }

    /// Model-cache hits (memory, model-dir disk, or corpus store — no
    /// retraining in any of them).
    pub fn cache_hits(&self) -> u64 {
        self.cache_memory_hits.get() + self.cache_disk_loads.get() + self.cache_store_loads.get()
    }

    /// Every metric as one snapshot — what a `STATUS` reply carries.
    /// The point-in-time gauges (uptime, queue depth, resident models)
    /// are stamped first so the snapshot is self-contained.
    pub fn metrics_snapshot(
        &self,
        uptime: Duration,
        queue_len: usize,
        models_resident: usize,
    ) -> act_obs::MetricsSnapshot {
        self.uptime_ms.set(uptime.as_millis() as i64);
        self.queue_depth.set(queue_len as i64);
        self.models_resident.set(models_resident as i64);
        self.registry.snapshot()
    }

    /// Render the plain-text `STATUS` block: `key value` per line. The
    /// keys are a stable surface — scripts grep them — so the legacy
    /// aggregates (`cache_hits` = memory + disk, `cache_misses` =
    /// trained-from-scratch) are preserved verbatim.
    pub fn render(&self, uptime: Duration, queue_len: usize, models_resident: usize) -> String {
        use std::fmt::Write as _;
        let service = self.service_us.snapshot();
        let (p50, p99) = (service.quantile(0.50), service.quantile(0.99));
        let mut out = String::from("act-serve status\n");
        let mut line = |k: &str, v: u64| writeln!(out, "{k} {v}").expect("string write");
        line("uptime_ms", uptime.as_millis() as u64);
        line("requests_accepted", self.accepted.get());
        line("requests_served", self.served.get());
        line("requests_errored", self.errored.get());
        line("requests_rejected_busy", self.rejected_busy.get());
        line("requests_crashed", self.crashed.get());
        line("requests_deadline_expired", self.deadline_expired.get());
        line("protocol_errors", self.proto_errors.get());
        line("cache_hits", self.cache_hits());
        line("cache_misses", self.cache_trained.get());
        line("coalesced_batches", self.coalesced_batches.get());
        line("coalesce_hits", self.coalesce_hits.get());
        line("coalesce_misses", self.coalesce_misses.get());
        line("models_resident", models_resident as u64);
        line("queue_depth", queue_len as u64);
        writeln!(out, "service_ms_p50 {:.3}", p50 as f64 / 1e3).expect("string write");
        writeln!(out, "service_ms_p99 {:.3}", p99 as f64 / 1e3).expect("string write");
        out
    }
}

/// A running daemon. Dropping the handle does *not* stop it; call
/// [`Server::shutdown`] (or send a `SHUTDOWN` frame) and then
/// [`Server::join`].
pub struct Server {
    ctx: Arc<SessionCtx>,
    threads: Vec<JoinHandle<()>>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

impl Server {
    /// Bind the listeners and spawn acceptors + workers.
    ///
    /// # Errors
    ///
    /// Fails when no listener is configured, a bind fails, or `workers` /
    /// `queue_depth` / `cache_capacity` is zero.
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        let invalid = |what: &str| io::Error::new(io::ErrorKind::InvalidInput, what.to_string());
        if cfg.workers == 0 {
            return Err(invalid("workers must be >= 1"));
        }
        if cfg.queue_depth == 0 {
            return Err(invalid("queue depth must be >= 1"));
        }
        if cfg.cache_capacity == 0 {
            return Err(invalid("cache capacity must be >= 1"));
        }
        if cfg.session_window == 0 {
            return Err(invalid("session window must be >= 1"));
        }
        if cfg.batch_size == 0 {
            return Err(invalid("batch size must be >= 1 (1 disables coalescing)"));
        }
        if cfg.tcp_addr.is_none() && cfg.unix_path.is_none() {
            return Err(invalid("at least one of tcp_addr/unix_path is required"));
        }

        let stats = Arc::new(ServerStats::default());
        let mut cache = ModelCache::new(cfg.cache_capacity, cfg.model_dir.clone());
        if let Some(dir) = &cfg.corpus_dir {
            let corpus = act_store::Corpus::open_or_init(dir)
                .map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("corpus at {}: {e}", dir.display()),
                    )
                })?
                .with_registry(stats.registry());
            cache = cache.with_corpus(Arc::new(Mutex::new(corpus)));
        }

        let tcp = cfg.tcp_addr.as_ref().map(TcpListener::bind).transpose()?;
        let tcp_addr = tcp.as_ref().map(TcpListener::local_addr).transpose()?;
        let unix = match &cfg.unix_path {
            Some(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                Some(UnixListener::bind(path)?)
            }
            None => None,
        };
        let ctx = Arc::new(SessionCtx {
            queue: Arc::new(BoundedQueue::new(cfg.queue_depth)),
            cache: Arc::new(cache),
            stats,
            drain: Drain::new(tcp_addr, cfg.unix_path.clone()),
            io_timeout: cfg.io_timeout,
            session_window: cfg.session_window,
            started: Instant::now(),
        });

        let mut threads = Vec::new();
        let serve = |ctx: Arc<SessionCtx>| move |conn: Conn| run_session(conn, &ctx);
        if let Some(listener) = tcp {
            threads.push(spawn_acceptor(
                "act-serve-accept-tcp",
                "serve.session",
                move || listener.accept().map(|(s, _)| Conn::Tcp(s)),
                ctx.drain.clone(),
                serve(ctx.clone()),
            )?);
        }
        if let Some(listener) = unix {
            threads.push(spawn_acceptor(
                "act-serve-accept-unix",
                "serve.session",
                move || listener.accept().map(|(s, _)| Conn::Unix(s)),
                ctx.drain.clone(),
                serve(ctx.clone()),
            )?);
        }
        threads.extend(spawn_workers(
            cfg.workers,
            ctx.queue.clone(),
            ctx.cache.clone(),
            ctx.stats.clone(),
            cfg.deadline,
            BatchPolicy { size: cfg.batch_size, wait: cfg.batch_wait },
        ));

        events().emit(
            Level::Info,
            "serve.start",
            format!(
                "daemon up: {} workers, queue depth {}, listening on {}",
                cfg.workers,
                cfg.queue_depth,
                match (&tcp_addr, &cfg.unix_path) {
                    (Some(a), Some(p)) => format!("{a} and {}", p.display()),
                    (Some(a), None) => a.to_string(),
                    (None, Some(p)) => p.display().to_string(),
                    (None, None) => unreachable!("validated above"),
                }
            ),
        );
        Ok(Server { ctx, threads, tcp_addr, unix_path: cfg.unix_path })
    }

    /// The bound TCP address (with the real port when `:0` was requested).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Live counters (shared with the session readers and workers).
    pub fn stats(&self) -> Arc<ServerStats> {
        self.ctx.stats.clone()
    }

    /// The current `STATUS` block.
    pub fn status_text(&self) -> String {
        let ctx = &self.ctx;
        ctx.stats.render(ctx.started.elapsed(), ctx.queue.len(), ctx.cache.resident())
    }

    /// Begin graceful drain: stop accepting and reading, let workers
    /// finish accepted jobs. Idempotent; also triggered by a `SHUTDOWN`
    /// frame.
    pub fn shutdown(&self) {
        self.ctx.begin_drain();
    }

    /// Whether a drain has started.
    pub fn is_shutting_down(&self) -> bool {
        self.ctx.drain.is_draining()
    }

    /// Wait for the drain to finish (acceptors stopped, every accepted job
    /// answered). Removes the Unix socket file on the way out.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Build the `STATUS` reply: the text block plus the metrics snapshot.
fn status_reply(ctx: &SessionCtx) -> Reply {
    let (uptime, queue_len, resident) =
        (ctx.started.elapsed(), ctx.queue.len(), ctx.cache.resident());
    let text = ctx.stats.render(uptime, queue_len, resident);
    Reply::StatusMetrics(text, ctx.stats.metrics_snapshot(uptime, queue_len, resident))
}

// ---------------------------------------------------------------------
// Sessions.
// ---------------------------------------------------------------------

/// The half of a session shared between its reader thread and the workers
/// answering its requests: the write side of the socket plus the in-flight
/// account. Replies go out under the writer lock, one whole frame at a
/// time, so frames from concurrent workers never interleave mid-frame.
pub(crate) struct SessionShared {
    writer: Mutex<Conn>,
    window: u32,
    in_flight: AtomicU32,
}

impl SessionShared {
    /// Write one reply frame tagged with the request id it answers.
    pub(crate) fn send(&self, request_id: u32, reply: &Reply, stats: &ServerStats) {
        stats.note_reply(reply);
        let frame = reply.to_frame().with_request(request_id);
        let mut w = self.writer.lock().expect("session writer lock");
        // A vanished session client is noticed by the reader; move on.
        let _ = write_frame(&mut *w, &frame);
    }

    /// Claim one in-flight slot; `false` means the window is exhausted and
    /// the request must be answered `BUSY`. Only the session reader calls
    /// this, so a plain load-then-add cannot race another claimer.
    fn begin_request(&self, stats: &ServerStats) -> bool {
        if self.in_flight.load(Ordering::SeqCst) >= self.window {
            return false;
        }
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        stats.note_request_started();
        true
    }

    /// Release the slot claimed by [`SessionShared::begin_request`].
    pub(crate) fn finish_request(&self, stats: &ServerStats) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        stats.note_request_finished();
    }

    /// Send the final reply for a claimed request. The slot is released
    /// *before* the write: the reply is the client's signal that the slot
    /// is free, so a pipelined client that fires its next request the
    /// moment a reply lands must never race a late decrement into `BUSY`.
    pub(crate) fn send_final(&self, request_id: u32, reply: &Reply, stats: &ServerStats) {
        self.finish_request(stats);
        self.send(request_id, reply, stats);
    }

    /// Send the final replies for several claimed requests of one
    /// micro-batch in a single buffered write. Every slot is released
    /// first (same ordering contract as [`SessionShared::send_final`]),
    /// then all frames are concatenated and written under one writer-lock
    /// acquisition — one syscall per batch per session instead of one per
    /// reply, which is where a coalesced batch's reply-side win comes
    /// from on a pipelined session.
    pub(crate) fn send_final_batch(&self, replies: &[(u32, Reply)], stats: &ServerStats) {
        for _ in replies {
            self.finish_request(stats);
        }
        let mut buf = Vec::new();
        for (request_id, reply) in replies {
            stats.note_reply(reply);
            encode_frame(&mut buf, &reply.to_frame().with_request(*request_id));
        }
        let mut w = self.writer.lock().expect("session writer lock");
        // A vanished session client is noticed by the reader; move on.
        let _ = w.write_all(&buf).and_then(|()| w.flush());
    }
}

/// Everything a session thread needs from the daemon.
struct SessionCtx {
    queue: Arc<BoundedQueue<Job>>,
    cache: Arc<ModelCache>,
    stats: Arc<ServerStats>,
    drain: Arc<Drain>,
    io_timeout: Duration,
    session_window: u32,
    started: Instant,
}

impl SessionCtx {
    /// Close the queue, then start the drain — both before any `BYE` goes
    /// out, so a client that sees `BYE` sees a daemon already draining,
    /// and no request read after this point is queued (the closed queue
    /// answers it `BUSY`).
    fn begin_drain(&self) {
        self.queue.close();
        self.drain.start();
    }

    /// Queue `work` for a worker, answering `BUSY` through `responder` when
    /// the queue is full or closed.
    fn enqueue(&self, responder: Responder, work: Work) {
        let depth = self.queue.len();
        match self.queue.try_push(Job { responder, work, accepted: Instant::now() }) {
            Ok(()) => {
                self.stats.bump_accepted();
                self.stats.note_enqueue_depth(depth);
            }
            Err(job) => {
                self.stats.bump_rejected();
                events().emit(Level::Debug, "serve.busy", "queue full: request rejected");
                job.responder.respond(&Reply::Busy, &self.stats);
            }
        }
    }
}

/// The at-most-one inbound stream a session may have open.
enum SessionStream {
    /// A chunked `TRACE_PUT`; the corpus holds the parser/CRC state.
    TracePut { request_id: u32 },
    /// A chunked `DIAGNOSE`; the trace is parsed here, then queued whole.
    Diagnose { request_id: u32, spec: ModelSpec, parse: Box<DiagnoseStream> },
}

impl SessionStream {
    fn request_id(&self) -> u32 {
        match self {
            SessionStream::TracePut { request_id } => *request_id,
            SessionStream::Diagnose { request_id, .. } => *request_id,
        }
    }
}

/// Drive one connection: track it with the drain, wait for its `HELLO`,
/// then demultiplex frames until the client closes, the drain cuts the
/// read side, or the stream desyncs. Replies are written by whichever
/// thread finishes a request — out of order is the point — while this
/// thread keeps reading.
fn run_session(mut conn: Conn, ctx: &SessionCtx) {
    let stats = &ctx.stats;
    let Ok(_tracked) = ctx.drain.track(&conn) else { return };
    if ctx.drain.is_draining() {
        return;
    }
    let _ = conn.set_write_timeout(Some(ctx.io_timeout));
    let (hello_id, asked) = match read_hello(&mut conn, ctx.io_timeout) {
        Ok(hello) => hello,
        Err((request_id, why)) => {
            stats.bump_proto_errors();
            let reply = Reply::Error(why);
            stats.note_reply(&reply);
            // The connection closes either way; a vanished client is fine.
            let _ = write_frame(&mut conn, &reply.to_frame().with_request(request_id));
            return;
        }
    };
    stats.note_request(&Request::Hello { window: asked });
    let window = if asked == 0 { ctx.session_window } else { asked.min(ctx.session_window) }.max(1);
    let writer = match conn.try_clone() {
        Ok(w) => w,
        Err(e) => {
            let reply = Reply::Error(format!("session setup failed: {e}"));
            let _ = write_frame(&mut conn, &reply.to_frame().with_request(hello_id));
            return;
        }
    };
    let shared = Arc::new(SessionShared {
        writer: Mutex::new(writer),
        window,
        in_flight: AtomicU32::new(0),
    });
    // Counted open before the ack, so a client that sees the ack sees it.
    stats.note_session_opened();
    shared.send(hello_id, &Reply::HelloAck { window }, stats);
    let mut stream: Option<SessionStream> = None;

    'session: loop {
        let frame = match next_frame(&mut conn, ctx.io_timeout) {
            Ok(Some(f)) => f,
            Ok(None) => break 'session, // client closed, or the drain cut us
            Err(e) => {
                // The stream position is unknown now; the session cannot
                // continue. Best-effort error, then close.
                stats.bump_proto_errors();
                shared.send(0, &Reply::Error(format!("bad frame: {e}")), stats);
                break 'session;
            }
        };
        let request_id = frame.request_id;
        let request = match Request::from_frame(&frame) {
            Ok(r) => r,
            Err(e) => {
                // Framing is intact — only this request is malformed.
                stats.bump_proto_errors();
                shared.send(request_id, &Reply::Error(format!("bad request: {e}")), stats);
                continue 'session;
            }
        };
        stats.note_request(&request);
        match request {
            Request::Hello { .. } => {
                shared.send(request_id, &Reply::Error("session already open".into()), stats);
            }
            Request::Status => shared.send(request_id, &status_reply(ctx), stats),
            Request::Shutdown => {
                events().emit(Level::Info, "serve.shutdown", "shutdown requested; draining");
                ctx.begin_drain();
                shared.send(request_id, &Reply::Bye, stats);
                break 'session;
            }
            Request::TracePutStart { key, workload } => {
                if stream.is_some() {
                    // One inbound stream per session; the client retries.
                    shared.send(request_id, &Reply::Busy, stats);
                    continue 'session;
                }
                if !shared.begin_request(stats) {
                    shared.send(request_id, &Reply::Busy, stats);
                    continue 'session;
                }
                let Some(corpus) = ctx.cache.corpus() else {
                    shared.send_final(
                        request_id,
                        &Reply::Error(
                            "no corpus store configured; start the daemon with --corpus".into(),
                        ),
                        stats,
                    );
                    continue 'session;
                };
                let mut c = corpus.lock().expect("corpus lock");
                if c.streaming_key().is_some() {
                    // Another session owns the corpus stream right now.
                    drop(c);
                    shared.send_final(request_id, &Reply::Busy, stats);
                    continue 'session;
                }
                match c.stream_begin(&key, &workload) {
                    Ok(()) => {
                        drop(c);
                        stats.note_stream_opened();
                        stream = Some(SessionStream::TracePut { request_id });
                    }
                    Err(e) => {
                        drop(c);
                        shared.send_final(
                            request_id,
                            &Reply::Error(format!("trace put failed: {e}")),
                            stats,
                        );
                    }
                }
            }
            Request::DiagnoseStart(spec) => {
                if stream.is_some() {
                    shared.send(request_id, &Reply::Busy, stats);
                    continue 'session;
                }
                if !shared.begin_request(stats) {
                    shared.send(request_id, &Reply::Busy, stats);
                    continue 'session;
                }
                stats.note_stream_opened();
                stream = Some(SessionStream::Diagnose {
                    request_id,
                    spec,
                    parse: Box::new(DiagnoseStream::new()),
                });
            }
            Request::StreamChunk(bytes) => {
                let Some(open) = stream.as_mut() else {
                    stats.bump_proto_errors();
                    shared.send(
                        request_id,
                        &Reply::Error("stream frame outside an open stream".into()),
                        stats,
                    );
                    continue 'session;
                };
                let owner = open.request_id();
                let failed = match open {
                    SessionStream::TracePut { .. } => {
                        let corpus = ctx.cache.corpus().expect("stream opened with a corpus");
                        let mut c = corpus.lock().expect("corpus lock");
                        c.stream_chunk(&bytes).err().map(|e| format!("trace put failed: {e}"))
                    }
                    SessionStream::Diagnose { parse, .. } => parse.feed(&bytes).err(),
                };
                if let Some(why) = failed {
                    // The corpus/parser side already aborted; drop ours.
                    stream = None;
                    stats.note_stream_aborted();
                    shared.send_final(owner, &Reply::Error(why), stats);
                }
            }
            Request::StreamEnd { crc32, total_len } => {
                let Some(open) = stream.take() else {
                    stats.bump_proto_errors();
                    shared.send(
                        request_id,
                        &Reply::Error("stream frame outside an open stream".into()),
                        stats,
                    );
                    continue 'session;
                };
                match open {
                    SessionStream::TracePut { request_id } => {
                        let corpus = ctx.cache.corpus().expect("stream opened with a corpus");
                        let reply = {
                            let mut c = corpus.lock().expect("corpus lock");
                            match c.stream_finish(crc32, total_len) {
                                Ok(info) => Reply::Stored(stored_summary(&info.meta.key, &info)),
                                Err(e) => {
                                    stats.note_stream_aborted();
                                    Reply::Error(format!("trace put failed: {e}"))
                                }
                            }
                        };
                        shared.send_final(request_id, &reply, stats);
                    }
                    SessionStream::Diagnose { request_id, spec, parse } => {
                        match parse.finish(crc32, total_len) {
                            Ok(trace) => ctx.enqueue(
                                Responder { shared: shared.clone(), request_id },
                                Work::DiagnoseTrace(spec, Box::new(trace)),
                            ),
                            Err(why) => {
                                stats.note_stream_aborted();
                                shared.send_final(request_id, &Reply::Error(why), stats);
                            }
                        }
                    }
                }
            }
            req @ (Request::Train(_)
            | Request::Diagnose(..)
            | Request::TracePut { .. }
            | Request::TraceGet { .. }) => {
                if !shared.begin_request(stats) {
                    // Window exhausted: BUSY for this request only.
                    stats.bump_rejected();
                    shared.send(request_id, &Reply::Busy, stats);
                    continue 'session;
                }
                ctx.enqueue(Responder { shared: shared.clone(), request_id }, Work::Request(req));
            }
        }
    }

    // A stream still open here means the client died mid-upload: truncate
    // the half-written corpus entry so no partial segment survives.
    if let Some(open) = stream {
        stats.note_stream_aborted();
        if matches!(open, SessionStream::TracePut { .. }) {
            if let Some(corpus) = ctx.cache.corpus() {
                corpus.lock().expect("corpus lock").stream_abort();
            }
        }
        shared.finish_request(stats);
        events().emit(Level::Warn, "serve.stream", "session closed mid-stream; upload aborted");
    }
    stats.note_session_closed();
}

/// The `STORED` reply text — shared verbatim by the one-frame and the
/// streamed `TRACE_PUT` paths, so clients see one format.
pub(crate) fn stored_summary(key: &str, info: &act_store::EntryInfo) -> String {
    format!(
        "stored {} ({} records, {} -> {} bytes, {:.2}x)",
        key,
        info.records,
        info.raw_bytes,
        info.encoded_bytes,
        info.raw_bytes as f64 / info.encoded_bytes.max(1) as f64
    )
}

/// Incremental parser for a streamed `DIAGNOSE` upload: text-codec lines
/// arrive in arbitrary chunk splits, records accumulate in a
/// [`TraceBuilder`], and the CRC-32/length tallies are checked at the end
/// — the same state machine the corpus runs for streamed `TRACE_PUT`, but
/// materializing in memory since the trace is diagnosed, not stored.
struct DiagnoseStream {
    crc: Crc32,
    bytes_in: u64,
    lineno: usize,
    partial: Vec<u8>,
    header_seen: bool,
    builder: TraceBuilder,
}

/// Longest line a streamed upload may contain (matches the corpus cap).
const MAX_STREAM_LINE_BYTES: usize = 64 << 10;

impl DiagnoseStream {
    fn new() -> DiagnoseStream {
        DiagnoseStream {
            crc: Crc32::new(),
            bytes_in: 0,
            lineno: 0,
            partial: Vec::new(),
            header_seen: false,
            builder: TraceBuilder::new(),
        }
    }

    fn feed(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.crc.update(bytes);
        self.bytes_in += bytes.len() as u64;
        if self.bytes_in > MAX_STREAM_DIAGNOSE_BYTES {
            return Err(format!(
                "streamed diagnose exceeds the {MAX_STREAM_DIAGNOSE_BYTES}-byte cap"
            ));
        }
        let mut rest = bytes;
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            let (head, tail) = rest.split_at(nl);
            rest = &tail[1..];
            let line = if self.partial.is_empty() {
                head.to_vec()
            } else {
                self.partial.extend_from_slice(head);
                std::mem::take(&mut self.partial)
            };
            self.line(&line)?;
        }
        self.partial.extend_from_slice(rest);
        if self.partial.len() > MAX_STREAM_LINE_BYTES {
            return Err(format!(
                "streamed line exceeds {MAX_STREAM_LINE_BYTES} bytes without a newline"
            ));
        }
        Ok(())
    }

    fn line(&mut self, line: &[u8]) -> Result<(), String> {
        self.lineno += 1;
        let text = std::str::from_utf8(line)
            .map_err(|_| format!("stream line {} is not UTF-8", self.lineno))?;
        let text = text.strip_suffix('\r').unwrap_or(text);
        if !self.header_seen {
            let mut hp = text.split_whitespace();
            if hp.next() != Some("acttrace") || hp.next() != Some("v1") {
                return Err("stream header: bad header".into());
            }
            let code_len: u64 = hp
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| "stream header: bad code_len".to_string())?;
            if code_len > MAX_CODE_LEN {
                return Err(format!("stream header: code_len {code_len} exceeds the cap"));
            }
            let Ok(()) = self.builder.begin(code_len as usize);
            self.header_seen = true;
            return Ok(());
        }
        if text.is_empty() {
            return Ok(());
        }
        let rec =
            parse_record_line(text, self.lineno).map_err(|e| format!("bad trace payload: {e}"))?;
        let Ok(()) = self.builder.record(&rec);
        Ok(())
    }

    fn finish(mut self: Box<Self>, crc32: u32, total_len: u64) -> Result<Trace, String> {
        if self.bytes_in != total_len {
            return Err(format!(
                "stream length mismatch: received {} bytes, client sealed {total_len}",
                self.bytes_in
            ));
        }
        let got = self.crc.finish();
        if got != crc32 {
            return Err(format!(
                "stream crc mismatch: received {got:#010x}, client sealed {crc32:#010x}"
            ));
        }
        if !self.partial.is_empty() {
            let line = std::mem::take(&mut self.partial);
            self.line(&line)?;
        }
        if !self.header_seen {
            return Err("stream ended before the header line".into());
        }
        Ok(self.builder.into_trace())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_render_has_the_required_counters() {
        let stats = ServerStats::default();
        stats.bump_accepted();
        stats.bump_served();
        stats.bump_rejected();
        stats.bump_crashed();
        stats.note_cache(CacheOutcome::Memory);
        stats.note_cache(CacheOutcome::Trained);
        stats.record_service(Duration::from_millis(4));
        let text = stats.render(Duration::from_secs(1), 3, 2);
        for needle in [
            "requests_served 1",
            "requests_rejected_busy 1",
            "requests_crashed 1",
            "cache_hits 1",
            "cache_misses 1",
            "queue_depth 3",
            "models_resident 2",
            "service_ms_p50",
            "service_ms_p99",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn metrics_snapshot_carries_counters_gauges_and_latency() {
        let stats = ServerStats::default();
        stats.note_request(&Request::Status);
        stats.note_request(&Request::Train(crate::proto::ModelSpec::new("fft")));
        stats.note_reply(&Reply::Busy);
        stats.bump_served();
        stats.note_cache(CacheOutcome::Disk);
        stats.record_service(Duration::from_micros(180));
        let snap = stats.metrics_snapshot(Duration::from_secs(2), 5, 1);
        assert_eq!(snap.counter("req_status"), Some(1));
        assert_eq!(snap.counter("req_train"), Some(1));
        assert_eq!(snap.counter("reply_busy"), Some(1));
        assert_eq!(snap.counter("requests_served"), Some(1));
        assert_eq!(snap.counter("cache_disk_loads"), Some(1));
        assert_eq!(snap.gauge("uptime_ms"), Some(2000));
        assert_eq!(snap.gauge("queue_depth"), Some(5));
        assert_eq!(snap.gauge("models_resident"), Some(1));
        let service = snap.histogram("service_us").expect("latency histogram");
        assert_eq!(service.count(), 1);
        // Identical after a wire round-trip — what a STATUS reply carries.
        let bytes = snap.to_bytes();
        assert_eq!(act_obs::MetricsSnapshot::from_bytes(&bytes).unwrap(), snap);
    }

    #[test]
    fn start_rejects_degenerate_configs() {
        let bad = |f: fn(&mut ServeConfig)| {
            let mut cfg = ServeConfig::default();
            f(&mut cfg);
            Server::start(cfg).err().expect("config must be rejected")
        };
        assert!(bad(|c| c.workers = 0).to_string().contains("workers"));
        assert!(bad(|c| c.queue_depth = 0).to_string().contains("queue depth"));
        assert!(bad(|c| c.cache_capacity = 0).to_string().contains("cache"));
        assert!(bad(|c| {
            c.tcp_addr = None;
            c.unix_path = None;
        })
        .to_string()
        .contains("at least one"));
    }
}
