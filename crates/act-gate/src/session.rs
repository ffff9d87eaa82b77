//! Client-facing sessions: the gateway end of multiplexed pipelining,
//! plus the chunked-stream relay.
//!
//! Every client connection gets its own session thread here, mirroring
//! act-serve's: it waits for the `HELLO`, then demultiplexes frames, claims a
//! window slot per routable request, and enqueues each one as an ordinary
//! forwarding job — so requests from one session fail over *independently*
//! (each picks its own backend by shard key) and replies go back out of
//! order, tagged with the client's request ids.
//!
//! Chunked uploads cannot ride the shared backend sessions (a backend
//! allows one inbound stream per session), so each `TRACE_PUT_START` /
//! `DIAGNOSE_START` opens a dedicated backend connection, handshakes a
//! width-1 session on it, and relays chunk frames as they arrive. Failover
//! happens only before the opener is forwarded; once chunks have flowed,
//! a backend failure is an error — half a stream must never be replayed.
//! After `STREAM_END` a one-off thread waits for the backend's verdict so
//! a slow ingest cannot stall the session's other pipelined requests.

use crate::gateway::{route_key, GateJob, GateState};
use act_obs::{events, Level};
use act_serve::conn::{hello, next_frame, read_hello, Conn};
use act_serve::proto::{read_frame, write_frame, Frame};
use act_serve::{ClientError, Reply, Request};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Cap on the in-flight window granted to one client session.
pub(crate) const GATE_SESSION_WINDOW: u32 = 32;

/// The request id stream frames travel under on their dedicated backend
/// connection (a width-1 session, so any fixed nonzero id works).
const BACKEND_STREAM_ID: u32 = 1;

/// The half of a client session shared between its reader thread and the
/// forwarding workers answering its requests: the write side of the
/// socket plus the in-flight account. Frames go out whole under the
/// writer lock, so replies from concurrent workers never interleave.
pub(crate) struct GateSessionShared {
    writer: Mutex<Conn>,
    window: u32,
    in_flight: AtomicU32,
}

impl GateSessionShared {
    /// Write one reply, tagged with the request id it answers.
    pub(crate) fn send(&self, request_id: u32, reply: &Reply) {
        let frame = reply.to_frame().with_request(request_id);
        let mut w = self.writer.lock().expect("gate session writer lock");
        // A vanished client is noticed by the session reader; move on.
        let _ = write_frame(&mut *w, &frame);
    }

    /// Claim one in-flight slot; `false` means the window is exhausted
    /// and the request must be answered `BUSY`. Only the session reader
    /// calls this, so load-then-add cannot race another claimer.
    fn begin_request(&self) -> bool {
        if self.in_flight.load(Ordering::SeqCst) >= self.window {
            return false;
        }
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        true
    }

    /// Release a claimed slot without replying (client disconnected).
    fn finish_request(&self) {
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    /// Send the final reply for a claimed request. The slot is released
    /// *before* the write — the reply is the client's signal that the
    /// slot is free, so a pipelined client firing its next request the
    /// moment a reply lands must never race a late decrement into `BUSY`.
    pub(crate) fn send_final(&self, request_id: u32, reply: &Reply) {
        self.finish_request();
        self.send(request_id, reply);
    }
}

/// One in-progress chunked upload being relayed to a backend over its own
/// dedicated width-1 session.
struct StreamRelay {
    backend: Conn,
    backend_index: usize,
    client_request_id: u32,
}

/// Drive one client connection: track it with the drain, wait for its
/// `HELLO`, then demultiplex frames until the client closes, the drain
/// cuts the read side, or the stream desyncs.
pub(crate) fn run_gate_session(mut conn: Conn, state: &Arc<GateState>) {
    let Ok(_tracked) = state.drain.track(&conn) else { return };
    if state.drain.is_draining() {
        return;
    }
    let io_timeout = state.io_timeout;
    let _ = conn.set_write_timeout(Some(io_timeout));
    let (hello_id, asked) = match read_hello(&mut conn, io_timeout) {
        Ok(hello) => hello,
        Err((request_id, why)) => {
            state.stats.proto_errors.inc();
            let reply = Reply::Error(why).to_frame().with_request(request_id);
            // The connection closes either way; a vanished client is fine.
            let _ = write_frame(&mut conn, &reply);
            return;
        }
    };
    let writer = match conn.try_clone() {
        Ok(w) => w,
        Err(e) => {
            let reply = Reply::Error(format!("session setup failed: {e}"));
            let _ = write_frame(&mut conn, &reply.to_frame().with_request(hello_id));
            return;
        }
    };
    let granted =
        if asked == 0 { GATE_SESSION_WINDOW } else { asked.min(GATE_SESSION_WINDOW) }.max(1);
    let shared = Arc::new(GateSessionShared {
        writer: Mutex::new(writer),
        window: granted,
        in_flight: AtomicU32::new(0),
    });
    // Counted open before the ack, so a client that sees the ack sees it.
    state.stats.sessions_open.add(1);
    shared.send(hello_id, &Reply::HelloAck { window: granted });
    let mut relay: Option<StreamRelay> = None;

    'session: loop {
        let frame = match next_frame(&mut conn, io_timeout) {
            Ok(Some(f)) => f,
            Ok(None) => break 'session, // client closed, or the drain cut us
            Err(e) => {
                // The stream position is unknown; the session cannot
                // continue. Best-effort error, then close.
                state.stats.proto_errors.inc();
                shared.send(0, &Reply::Error(format!("bad frame: {e}")));
                break 'session;
            }
        };
        let request_id = frame.request_id;
        let request = match Request::from_frame(&frame) {
            Ok(r) => r,
            Err(e) => {
                // Framing is intact — only this request is malformed.
                state.stats.proto_errors.inc();
                shared.send(request_id, &Reply::Error(format!("bad request: {e}")));
                continue 'session;
            }
        };
        match request {
            Request::Hello { .. } => {
                shared.send(request_id, &Reply::Error("session already open".into()));
            }
            Request::Status => {
                let (text, snap) = state.aggregated_status();
                shared.send(request_id, &Reply::StatusMetrics(text, snap));
            }
            Request::Shutdown => {
                events().emit(Level::Info, "gate.shutdown", "shutdown requested; draining");
                state.begin_drain();
                shared.send(request_id, &Reply::Bye);
                break 'session;
            }
            Request::TracePutStart { .. } | Request::DiagnoseStart(_) => {
                if relay.is_some() {
                    // One inbound stream per session, same as act-serve.
                    shared.send(request_id, &Reply::Busy);
                    continue 'session;
                }
                if !shared.begin_request() {
                    shared.send(request_id, &Reply::Busy);
                    continue 'session;
                }
                let key = route_key(&request).expect("stream openers carry a shard key");
                match open_relay(state, &frame, &key) {
                    Ok(r) => relay = Some(r),
                    Err(msg) => {
                        state.stats.failed.inc();
                        shared.send_final(request_id, &Reply::Error(msg));
                    }
                }
            }
            Request::StreamChunk(_) | Request::StreamEnd { .. } => {
                let Some(active) = relay.as_mut() else {
                    state.stats.proto_errors.inc();
                    shared.send(
                        request_id,
                        &Reply::Error("stream frame outside an open stream".into()),
                    );
                    continue 'session;
                };
                let fwd = frame.with_request(BACKEND_STREAM_ID);
                if let Err(e) = write_frame(&mut active.backend, &fwd) {
                    // Chunks have flowed: no failover, no replay.
                    let dead = relay.take().expect("relay checked above");
                    state.note_backend_down(dead.backend_index, &e.to_string());
                    state.stats.failed.inc();
                    shared.send_final(
                        dead.client_request_id,
                        &Reply::Error(format!("backend lost mid-stream: {e}")),
                    );
                    continue 'session;
                }
                if matches!(request, Request::StreamChunk(_)) {
                    state.stats.stream_chunks_relayed.inc();
                    continue 'session;
                }
                // STREAM_END went through: the backend's one reply settles
                // the stream. A one-off thread waits for it so a slow
                // ingest cannot stall this session's other requests.
                let done = relay.take().expect("relay checked above");
                let spawned = std::thread::Builder::new().name("act-gate-stream".into()).spawn({
                    let shared = shared.clone();
                    let state = state.clone();
                    move || finish_relay(done, shared, state)
                });
                if spawned.is_err() {
                    events().emit(Level::Warn, "gate.stream", "failed to spawn stream finisher");
                }
            }
            req @ (Request::Train(_)
            | Request::Diagnose(..)
            | Request::TracePut { .. }
            | Request::TraceGet { .. }) => {
                if !shared.begin_request() {
                    shared.send(request_id, &Reply::Busy);
                    continue 'session;
                }
                let key = route_key(&req).expect("routable requests carry a shard key");
                let job = GateJob {
                    shared: shared.clone(),
                    request_id,
                    request: req,
                    key,
                    accepted: Instant::now(),
                };
                match state.queue.try_push(job) {
                    Ok(()) => state.stats.routed.inc(),
                    Err(job) => {
                        // Full — or closed by the drain: never queued.
                        state.stats.rejected_busy.inc();
                        job.shared.send_final(job.request_id, &Reply::Busy);
                    }
                }
            }
        }
    }
    if relay.is_some() {
        // Client vanished mid-stream. Dropping the backend connection
        // makes the backend abort its half-written stream; the window
        // slot just needs handing back.
        shared.finish_request();
    }
    state.stats.sessions_open.add(-1);
}

/// Pick a backend for a new stream (ring order, one failover hop — but
/// only here, before any chunk has flowed), handshake a dedicated width-1
/// session, and forward the opener frame.
fn open_relay(state: &GateState, frame: &Frame, key: &str) -> Result<StreamRelay, String> {
    let order = state.ring.route(key);
    let mut candidates: Vec<usize> =
        order.iter().copied().filter(|&b| state.health.is_up(b)).collect();
    if candidates.is_empty() {
        candidates = order;
    }
    candidates.truncate(2);

    let mut last_err = String::from("no backends configured");
    for &b in &candidates {
        let opened = state.pool.connect(b).map_err(ClientError::Io).and_then(|mut backend| {
            // The dedicated width-1 session the stream relay rides on.
            hello(&mut backend, 1)?;
            write_frame(&mut backend, &frame.clone().with_request(BACKEND_STREAM_ID))?;
            Ok(backend)
        });
        match opened {
            Ok(backend) => {
                state.note_backend_up(b);
                return Ok(StreamRelay {
                    backend,
                    backend_index: b,
                    client_request_id: frame.request_id,
                });
            }
            Err(e) => {
                state.note_backend_down(b, &e.to_string());
                last_err = e.to_string();
            }
        }
    }
    Err(format!("no backend could accept a stream for key {key}: {last_err}"))
}

/// Wait for the backend's verdict on a sealed stream and forward it to
/// the client under its original request id.
fn finish_relay(mut done: StreamRelay, shared: Arc<GateSessionShared>, state: Arc<GateState>) {
    match read_frame(&mut done.backend).and_then(|f| Reply::from_frame(&f)) {
        Ok(reply) => {
            state.note_backend_up(done.backend_index);
            state.stats.forwarded_by[done.backend_index].inc();
            state.stats.relayed.inc();
            state.stats.streams_relayed.inc();
            shared.send_final(done.client_request_id, &reply);
        }
        Err(e) => {
            state.note_backend_down(done.backend_index, &e.to_string());
            state.stats.failed.inc();
            shared.send_final(
                done.client_request_id,
                &Reply::Error(format!("backend lost mid-stream: {e}")),
            );
        }
    }
}
