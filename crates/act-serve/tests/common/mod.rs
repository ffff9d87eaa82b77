//! Raw-socket session helpers the daemon test suites share: they speak
//! the wire protocol directly (HELLO, framed requests, replies by id), so
//! the tests see exactly what the daemon sends.

#![allow(dead_code)] // each suite uses a different subset

use act_serve::proto::{read_frame, write_frame, Reply, Request};
use std::collections::HashMap;
use std::net::TcpStream;
use std::time::Duration;

/// A raw multiplexed session (HELLO already acknowledged).
pub struct RawSession {
    pub stream: TcpStream,
}

impl RawSession {
    /// Connect to `addr` and open a session asking for `window`.
    pub fn open(addr: &str, window: u32) -> RawSession {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
        write_frame(&mut stream, &Request::Hello { window }.to_frame()).expect("send HELLO");
        let frame = read_frame(&mut stream).expect("HELLO_ACK frame");
        match Reply::from_frame(&frame).expect("decode") {
            Reply::HelloAck { window: granted } => assert!(granted >= window, "window granted"),
            other => panic!("expected HELLO_ACK, got {other:?}"),
        }
        RawSession { stream }
    }

    /// Send one request under `request_id`.
    pub fn send(&mut self, request_id: u32, request: &Request) {
        write_frame(&mut self.stream, &request.to_frame().with_request(request_id))
            .expect("send request");
    }

    /// Read `n` replies, keyed by the request id each answers.
    pub fn collect(&mut self, n: usize) -> HashMap<u32, Reply> {
        let mut replies = HashMap::new();
        for _ in 0..n {
            let frame = read_frame(&mut self.stream).expect("reply frame");
            let id = frame.request_id;
            let reply = Reply::from_frame(&frame).expect("decode reply");
            assert!(replies.insert(id, reply).is_none(), "request {id} answered twice");
        }
        replies
    }

    /// Send one request and wait for its reply.
    pub fn call(&mut self, request: &Request) -> Reply {
        self.send(1, request);
        self.collect(1).remove(&1).expect("reply to request 1")
    }
}

/// One request over a fresh window-1 session.
pub fn call(addr: &str, request: &Request) -> Reply {
    RawSession::open(addr, 1).call(request)
}

/// The `STATUS` text block.
pub fn status_text(addr: &str) -> String {
    match call(addr, &Request::Status) {
        Reply::StatusMetrics(text, _) => text,
        other => panic!("unexpected status reply: {other:?}"),
    }
}

/// Pull one `key value` counter out of a `STATUS` text block.
pub fn counter(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key).map(|rest| rest.trim().parse().expect("counter value")))
        .unwrap_or_else(|| panic!("no `{key}` in status:\n{status}"))
}
