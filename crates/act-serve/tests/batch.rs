//! Coalescing-scheduler tests: drive raw sessions against a
//! daemon with batching on and assert the three properties the scheduler
//! must hold —
//! - coalesced replies are byte-identical to what a non-batching daemon
//!   answers (batching is invisible on the wire);
//! - a lone request is dispatched after at most the gather window, never
//!   stranded waiting for companions that will not come;
//! - requests for different models never share a batch, and every
//!   request id is answered exactly once.

mod common;

use act_serve::proto::{ModelSpec, Reply, Request};
use act_serve::server::{ServeConfig, Server};
use act_trace::collector::TraceCollector;
use act_trace::io::trace_to_bytes;
use act_workloads::registry;
use common::{call, status_text, RawSession};
use std::time::{Duration, Instant};

/// Boot a daemon on 127.0.0.1:0 with the given coalescing policy.
fn boot(batch_size: usize, batch_wait: Duration) -> (Server, String) {
    let cfg = ServeConfig {
        tcp_addr: Some("127.0.0.1:0".to_string()),
        workers: 1,
        queue_depth: 32,
        batch_size,
        batch_wait,
        ..ServeConfig::default()
    };
    let server = Server::start(cfg).expect("daemon boots");
    let addr = server.tcp_addr().expect("tcp bound").to_string();
    (server, addr)
}

/// A small spec that trains in well under a second.
fn tiny_spec(seed: u64) -> ModelSpec {
    let mut spec = ModelSpec::new("seq");
    spec.traces = 2;
    spec.seq_len = 2;
    spec.hidden = 4;
    spec.max_epochs = 30;
    spec.seed = seed;
    spec
}

/// Serialize a failing `seq` trace the way a production client ships one.
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

/// Pull one `key value` counter out of the `STATUS` text block.
fn counter(addr: &str, key: &str) -> u64 {
    common::counter(&status_text(addr), key)
}

fn shutdown(server: Server, addr: &str) {
    assert!(matches!(call(addr, &Request::Shutdown), Reply::Bye));
    server.join();
}

#[test]
fn coalesced_replies_are_byte_identical_to_sequential_ones() {
    // A generous gather window and a single worker make coalescing
    // deterministic: the worker leads a batch from the first queued
    // diagnose while the session's remaining requests arrive.
    let (batched, batched_addr) = boot(16, Duration::from_millis(50));
    let (sequential, sequential_addr) = boot(1, Duration::ZERO);
    let spec = tiny_spec(0);
    let trace = failing_trace_bytes();

    // Warm both daemons so every diagnose is a cache hit (training is
    // deterministic, so the two models are identical).
    for addr in [&batched_addr, &sequential_addr] {
        match call(addr, &Request::Train(spec.clone())) {
            Reply::Trained(_) => {}
            other => panic!("unexpected train reply: {other:?}"),
        }
    }
    let expected = match call(&sequential_addr, &Request::Diagnose(spec.clone(), trace.clone())) {
        Reply::Diagnosis(text) => text,
        other => panic!("unexpected sequential reply: {other:?}"),
    };

    let mut session = RawSession::open(&batched_addr, 16);
    const BURST: u32 = 8;
    for id in 1..=BURST {
        session.send(id, &Request::Diagnose(spec.clone(), trace.clone()));
    }
    let replies = session.collect(BURST as usize);
    for id in 1..=BURST {
        match replies.get(&id) {
            Some(Reply::Diagnosis(text)) => assert_eq!(
                text, &expected,
                "coalesced reply {id} must be byte-identical to the sequential one"
            ),
            other => panic!("request {id}: unexpected reply {other:?}"),
        }
    }

    assert!(counter(&batched_addr, "coalesced_batches") >= 1);
    assert!(counter(&batched_addr, "coalesce_hits") >= 2, "the burst must actually coalesce");
    shutdown(batched, &batched_addr);
    shutdown(sequential, &sequential_addr);
}

#[test]
fn a_lone_request_is_dispatched_when_the_gather_window_closes() {
    // Quarter-second gather window: a lone request must still be answered
    // promptly after the window closes, not stranded until some timeout.
    let (server, addr) = boot(16, Duration::from_millis(250));
    let spec = tiny_spec(0);
    let trace = failing_trace_bytes();
    match call(&addr, &Request::Train(spec.clone())) {
        Reply::Trained(_) => {}
        other => panic!("unexpected train reply: {other:?}"),
    }

    let start = Instant::now();
    match call(&addr, &Request::Diagnose(spec.clone(), trace)) {
        Reply::Diagnosis(text) => assert!(text.contains("model=cache-hit"), "text: {text}"),
        other => panic!("unexpected reply: {other:?}"),
    }
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_secs(5), "lone request stranded for {elapsed:?}");
    assert_eq!(counter(&addr, "coalesce_misses"), 1);
    shutdown(server, &addr);
}

#[test]
fn different_models_never_share_a_batch_and_every_id_is_answered() {
    let (server, addr) = boot(16, Duration::from_millis(50));
    let (spec_a, spec_b) = (tiny_spec(0), tiny_spec(1));
    let trace = failing_trace_bytes();
    for spec in [&spec_a, &spec_b] {
        match call(&addr, &Request::Train(spec.clone())) {
            Reply::Trained(_) => {}
            other => panic!("unexpected train reply: {other:?}"),
        }
    }

    // Interleave two model keys (same workload, different training seed)
    // on one session; the scheduler must split them into per-key batches
    // and still answer all twelve ids.
    let mut session = RawSession::open(&addr, 16);
    const BURST: u32 = 12;
    for id in 1..=BURST {
        let spec = if id % 2 == 0 { &spec_b } else { &spec_a };
        session.send(id, &Request::Diagnose(spec.clone(), trace.clone()));
    }
    let replies = session.collect(BURST as usize);
    for id in 1..=BURST {
        match replies.get(&id) {
            Some(Reply::Diagnosis(text)) => {
                assert!(text.starts_with("diagnosis workload=seq"), "text: {text}")
            }
            other => panic!("request {id}: unexpected reply {other:?}"),
        }
    }
    // Two keys cannot fit one batch, so at least two were dispatched.
    assert!(counter(&addr, "coalesced_batches") >= 2);
    shutdown(server, &addr);
}

#[test]
fn zero_batch_size_is_rejected_at_boot() {
    let cfg = ServeConfig {
        tcp_addr: Some("127.0.0.1:0".to_string()),
        batch_size: 0,
        ..ServeConfig::default()
    };
    match Server::start(cfg) {
        Err(err) => assert!(err.to_string().contains("batch size"), "err: {err}"),
        Ok(_) => panic!("batch_size 0 must be rejected"),
    }
}
