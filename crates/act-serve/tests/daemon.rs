//! End-to-end daemon tests: boot an in-process server on an ephemeral
//! loopback port and drive it with real client connections.
//!
//! Covers the acceptance criteria for the service:
//! - a crashing request (`__panic`) gets an `ERROR` reply while the daemon
//!   keeps serving others;
//! - a repeated request is answered from the model cache (the `STATUS`
//!   cache-hit counter increases);
//! - a full queue yields `BUSY` immediately, never accepted-then-dropped;
//! - a connection must open with `HELLO`, and the drain ends idle and
//!   silent connections instead of waiting for them.

mod common;

use act_serve::proto::{read_frame, write_frame, ModelSpec, Reply, Request};
use act_serve::server::{ServeConfig, Server};
use act_trace::collector::TraceCollector;
use act_trace::io::trace_to_bytes;
use act_workloads::registry;
use common::{call, counter, status_text, RawSession};
use std::io::Read as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Boot a daemon on 127.0.0.1:0 and return it with its TCP address.
fn boot(workers: usize, queue_depth: usize) -> (Server, String) {
    let cfg = ServeConfig {
        tcp_addr: Some("127.0.0.1:0".to_string()),
        workers,
        queue_depth,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).expect("daemon boots");
    let addr = server.tcp_addr().expect("tcp bound").to_string();
    (server, addr)
}

/// A small spec that trains in well under a second.
fn tiny_spec(workload: &str) -> ModelSpec {
    let mut spec = ModelSpec::new(workload);
    spec.traces = 2;
    spec.seq_len = 2;
    spec.hidden = 4;
    spec.max_epochs = 30;
    spec
}

/// Serialize a failing `seq` trace the way a production client would ship
/// one (run the triggered configuration until it actually fails).
fn failing_trace_bytes() -> Vec<u8> {
    let w = registry::by_name("seq").expect("seq workload");
    let norm = w.norm_code_len().unwrap_or_else(|| w.build(&w.default_params()).program.code_len());
    for seed in 0..64 {
        let built = w.build(&w.default_params().triggered().with_seed(seed));
        let mut collector = TraceCollector::new(norm);
        let run_cfg =
            act_sim::config::MachineConfig { seed, jitter_ppm: 10_000, ..Default::default() };
        let mut machine = act_sim::machine::Machine::new(&built.program, run_cfg);
        let outcome = machine.run_observed(&mut collector);
        if built.is_failure(&outcome) {
            return trace_to_bytes(&collector.into_trace());
        }
    }
    panic!("no failing seq run in 64 seeds");
}

#[test]
fn concurrent_clients_crash_isolation_and_cache_hits() {
    let (server, addr) = boot(2, 16);
    let spec = tiny_spec("seq");
    let trace = failing_trace_bytes();

    // Warm the model once so the concurrent phase exercises cache hits.
    match call(&addr, &Request::Train(spec.clone())) {
        Reply::Trained(summary) => {
            assert!(summary.contains("trained seq"), "summary: {summary}")
        }
        other => panic!("unexpected train reply: {other:?}"),
    }

    // Four concurrent clients: three real diagnoses plus one crasher.
    let mut clients = Vec::new();
    for _ in 0..3 {
        let addr = addr.clone();
        let req = Request::Diagnose(spec.clone(), trace.clone());
        clients.push(std::thread::spawn(move || call(&addr, &req)));
    }
    let crasher = {
        let addr = addr.clone();
        let req = Request::Diagnose(ModelSpec::new("__panic"), trace.clone());
        std::thread::spawn(move || call(&addr, &req))
    };

    for client in clients {
        match client.join().expect("client thread") {
            Reply::Diagnosis(text) => {
                assert!(text.starts_with("diagnosis workload=seq"), "text: {text}");
                assert!(text.contains("model=cache-hit"), "expected a cache hit: {text}");
            }
            other => panic!("unexpected diagnose reply: {other:?}"),
        }
    }
    match crasher.join().expect("crasher thread") {
        Reply::Error(msg) => {
            assert!(msg.contains("request crashed"), "msg: {msg}");
            assert!(msg.contains("__panic"), "msg: {msg}");
        }
        other => panic!("crashing request must yield ERROR, got: {other:?}"),
    }

    // The daemon survived the crash and still serves.
    match call(&addr, &Request::Diagnose(spec.clone(), trace)) {
        Reply::Diagnosis(text) => assert!(text.contains("model=cache-hit"), "text: {text}"),
        other => panic!("unexpected post-crash reply: {other:?}"),
    }

    let status = status_text(&addr);
    assert!(counter(&status, "cache_hits") >= 4, "status:\n{status}");
    assert_eq!(counter(&status, "cache_misses"), 1, "status:\n{status}");
    assert_eq!(counter(&status, "requests_crashed"), 1, "status:\n{status}");
    assert!(counter(&status, "requests_served") >= 5, "status:\n{status}");

    match call(&addr, &Request::Shutdown) {
        Reply::Bye => {}
        other => panic!("unexpected shutdown reply: {other:?}"),
    }
    server.join();
}

#[test]
fn full_queue_answers_busy_instead_of_accepting() {
    // One worker, queue depth one: a 600ms sleeper on the worker plus one
    // queued job saturate the daemon.
    let (server, addr) = boot(1, 1);
    let sleeper = |ms: u64| {
        let mut spec = ModelSpec::new("__sleep");
        spec.seed = ms;
        Request::Train(spec)
    };

    let occupant = {
        let addr = addr.clone();
        let req = sleeper(600);
        std::thread::spawn(move || call(&addr, &req))
    };
    std::thread::sleep(Duration::from_millis(150)); // worker now busy
    let queued = {
        let addr = addr.clone();
        let req = sleeper(10);
        std::thread::spawn(move || call(&addr, &req))
    };
    std::thread::sleep(Duration::from_millis(150)); // queue now full

    // STATUS still answers while saturated (acceptor fast path) ...
    let status = status_text(&addr);
    assert_eq!(counter(&status, "queue_depth"), 1, "status:\n{status}");

    // ... but new work is refused outright.
    match call(&addr, &sleeper(1)) {
        Reply::Busy => {}
        other => panic!("expected BUSY from a full queue, got: {other:?}"),
    }

    assert!(matches!(occupant.join().expect("occupant"), Reply::Trained(_)));
    assert!(matches!(queued.join().expect("queued"), Reply::Trained(_)));

    let status = status_text(&addr);
    assert_eq!(counter(&status, "requests_rejected_busy"), 1, "status:\n{status}");
    assert_eq!(counter(&status, "requests_served"), 2, "status:\n{status}");

    assert!(matches!(call(&addr, &Request::Shutdown), Reply::Bye));
    server.join();
}

#[test]
fn status_carries_a_metrics_snapshot_that_agrees_with_the_text() {
    let (server, addr) = boot(1, 4);
    match call(&addr, &Request::Status) {
        Reply::StatusMetrics(text, snap) => {
            assert!(snap.counter("req_status").expect("req_status counter") >= 1);
            assert!(snap.histogram("service_us").is_some(), "latency histogram present");
            let served = counter(&text, "requests_served");
            assert_eq!(snap.counter("requests_served"), Some(served));
        }
        other => panic!("STATUS must get StatusMetrics, got {other:?}"),
    }
    assert!(matches!(call(&addr, &Request::Shutdown), Reply::Bye));
    server.join();
}

#[test]
fn a_first_frame_other_than_hello_gets_error_and_the_connection_closes() {
    let (server, addr) = boot(1, 4);
    let mut stream = TcpStream::connect(&addr).expect("connect");
    write_frame(&mut stream, &Request::Status.to_frame().with_request(9)).expect("send");
    let frame = read_frame(&mut stream).expect("error frame");
    assert_eq!(frame.request_id, 9, "the error answers the offending request");
    match Reply::from_frame(&frame).expect("decode") {
        Reply::Error(msg) => assert!(msg.contains("HELLO"), "msg: {msg}"),
        other => panic!("expected ERROR, got {other:?}"),
    }
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).expect("read to close"), 0, "connection closed");
    assert!(counter(&status_text(&addr), "protocol_errors") >= 1);
    assert!(matches!(call(&addr, &Request::Shutdown), Reply::Bye));
    server.join();
}

#[test]
fn shutdown_drains_before_bye_and_join_ignores_idle_connections() {
    let (server, addr) = boot(1, 4);
    let mut idle = RawSession::open(&addr, 4);
    // Accepted before the SHUTDOWN connection (accept is FIFO).
    let mut silent = TcpStream::connect(&addr).expect("connect");

    let t0 = Instant::now();
    assert!(matches!(call(&addr, &Request::Shutdown), Reply::Bye));
    assert!(server.is_shutting_down(), "BYE goes out after the drain has started");
    server.join();
    assert!(t0.elapsed() < Duration::from_secs(1), "drain took {:?}", t0.elapsed());

    // The drain ended both connections: the idle session reads
    // end-of-stream, the silent one an ERROR and then end-of-stream.
    let mut rest = Vec::new();
    idle.stream.read_to_end(&mut rest).expect("idle session closed");
    assert!(rest.is_empty(), "no frame after the drain: {rest:?}");
    silent.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    silent.read_to_end(&mut rest).expect("silent connection closed");
}

/// Serialize one *correct* `seq` run (the kind a production client ships
/// into the corpus with `TRACE_PUT`).
fn correct_trace_bytes(base_seed: u64) -> Vec<u8> {
    let w = registry::by_name("seq").expect("seq workload");
    let norm = w.norm_code_len().unwrap_or_else(|| w.build(&w.default_params()).program.code_len());
    for seed in base_seed..base_seed + 64 {
        let built = w.build(&w.default_params().with_seed(seed));
        let mut collector = TraceCollector::new(norm);
        let run_cfg =
            act_sim::config::MachineConfig { seed, jitter_ppm: 10_000, ..Default::default() };
        let mut machine = act_sim::machine::Machine::new(&built.program, run_cfg);
        let outcome = machine.run_observed(&mut collector);
        if built.is_correct(&outcome) {
            return trace_to_bytes(&collector.into_trace());
        }
    }
    panic!("no correct seq run in 64 seeds");
}

#[test]
fn corpus_round_trips_traces_trains_from_store_and_persists_models() {
    let dir = std::env::temp_dir().join(format!("act-serve-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let boot_with_corpus = || {
        let cfg = ServeConfig {
            tcp_addr: Some("127.0.0.1:0".to_string()),
            workers: 1,
            queue_depth: 8,
            corpus_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let server = Server::start(cfg).expect("daemon boots with corpus");
        let addr = server.tcp_addr().expect("tcp bound").to_string();
        (server, addr)
    };
    let (server, addr) = boot_with_corpus();

    // Ship two correct-run traces into the store.
    let t0 = correct_trace_bytes(0);
    let t1 = correct_trace_bytes(100);
    for (key, bytes) in [("seq-clean-0", &t0), ("seq-clean-1", &t1)] {
        let req = Request::TracePut {
            key: key.to_string(),
            workload: "seq".to_string(),
            trace: bytes.clone(),
        };
        match call(&addr, &req) {
            Reply::Stored(summary) => assert!(summary.contains(key), "summary: {summary}"),
            other => panic!("unexpected put reply: {other:?}"),
        }
    }

    // Round trip: TRACE_GET hands back byte-identical text.
    match call(&addr, &Request::TraceGet { key: "seq-clean-0".into() }) {
        Reply::TraceData(bytes) => assert_eq!(bytes, t0, "trace round trip must be lossless"),
        other => panic!("unexpected get reply: {other:?}"),
    }
    match call(&addr, &Request::TraceGet { key: "no-such-key".into() }) {
        Reply::Error(msg) => assert!(msg.contains("trace get failed"), "msg: {msg}"),
        other => panic!("missing key must yield ERROR, got: {other:?}"),
    }

    // A hostile payload is rejected with ERROR, not stored.
    let bad = Request::TracePut {
        key: "bad".into(),
        workload: "seq".into(),
        trace: b"not a trace".to_vec(),
    };
    match call(&addr, &bad) {
        Reply::Error(msg) => assert!(msg.contains("trace put failed"), "msg: {msg}"),
        other => panic!("hostile payload must yield ERROR, got: {other:?}"),
    }

    // TRAIN now prefers the two ingested traces over simulator runs.
    let spec = tiny_spec("seq");
    match call(&addr, &Request::Train(spec.clone())) {
        Reply::Trained(summary) => {
            assert!(summary.contains("from corpus"), "summary: {summary}")
        }
        other => panic!("unexpected train reply: {other:?}"),
    }

    let status = status_text(&addr);
    assert_eq!(counter(&status, "requests_served"), 4, "status:\n{status}");
    assert_eq!(counter(&status, "requests_errored"), 2, "status:\n{status}");
    assert!(matches!(call(&addr, &Request::Shutdown), Reply::Bye));
    server.join();

    // Restart on the same corpus: the model comes back from the store
    // (no retraining) and the traces survived.
    let (server, addr) = boot_with_corpus();
    match call(&addr, &Request::Train(spec)) {
        Reply::Trained(summary) => {
            assert!(summary.contains("loaded from corpus store"), "summary: {summary}");
            assert!(summary.contains("cache-hit:store"), "summary: {summary}");
        }
        other => panic!("unexpected train reply: {other:?}"),
    }
    match call(&addr, &Request::TraceGet { key: "seq-clean-1".into() }) {
        Reply::TraceData(bytes) => assert_eq!(bytes, t1, "trace survives a restart"),
        other => panic!("unexpected get reply: {other:?}"),
    }
    let status = status_text(&addr);
    assert!(counter(&status, "cache_hits") >= 1, "store hit counts as a hit:\n{status}");
    assert_eq!(counter(&status, "cache_misses"), 0, "status:\n{status}");
    assert!(matches!(call(&addr, &Request::Shutdown), Reply::Bye));
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_frames_without_a_corpus_answer_error() {
    let (server, addr) = boot(1, 4);
    let req = Request::TracePut {
        key: "k".into(),
        workload: "seq".into(),
        trace: correct_trace_bytes(0),
    };
    match call(&addr, &req) {
        Reply::Error(msg) => assert!(msg.contains("--corpus"), "msg: {msg}"),
        other => panic!("expected ERROR without a corpus, got: {other:?}"),
    }
    match call(&addr, &Request::TraceGet { key: "k".into() }) {
        Reply::Error(msg) => assert!(msg.contains("--corpus"), "msg: {msg}"),
        other => panic!("expected ERROR without a corpus, got: {other:?}"),
    }
    assert!(matches!(call(&addr, &Request::Shutdown), Reply::Bye));
    server.join();
}

#[test]
fn diagnose_on_a_cold_daemon_trains_then_ranks() {
    // A single DIAGNOSE against a cold daemon must train the model inline
    // and still come back with the ranked header.
    let (server, addr) = boot(1, 4);
    let req = Request::Diagnose(tiny_spec("seq"), failing_trace_bytes());
    match call(&addr, &req) {
        Reply::Diagnosis(text) => {
            assert!(text.starts_with("diagnosis workload=seq model=trained"), "text: {text}");
            assert!(text.contains("logged="), "text: {text}");
        }
        other => panic!("unexpected reply: {other:?}"),
    }
    assert!(matches!(call(&addr, &Request::Shutdown), Reply::Bye));
    server.join();
}
