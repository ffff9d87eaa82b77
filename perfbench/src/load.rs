//! The load generator: one protocol-v4 session per phase over a socket
//! from `act_serve::client::connect_tcp` (the path act-client and act-gate
//! use). It sets no socket options of its own, so whatever the program
//! does to its sockets is what the benchmark measures.

use act_serve::proto::{encode_frame, read_frame, write_frame};
use act_serve::{Frame, Reply, Request};
use std::io::{self, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// In-flight window the generator asks for (the server default).
pub const WINDOW: u32 = 32;

/// Connect and open a v4 session; returns the socket and granted window.
pub fn open_session(addr: &str) -> io::Result<(TcpStream, u32)> {
    let mut stream = act_serve::client::connect_tcp(addr, Some(Duration::from_secs(5)))?;
    write_frame(&mut stream, &Request::Hello { window: WINDOW }.to_frame().with_request(0))?;
    let ack = read_frame(&mut stream).map_err(io::Error::other)?;
    match Reply::from_frame(&ack).map_err(io::Error::other)? {
        Reply::HelloAck { window } => Ok((stream, window.max(1))),
        other => Err(io::Error::other(format!("HELLO answered with {other:?}"))),
    }
}

/// The wire bytes of `frame` under request id `id`.
pub fn wire(frame: &Frame, id: u32) -> Vec<u8> {
    let mut buf = Vec::with_capacity(frame.payload.len() + 16);
    encode_frame(&mut buf, &frame.clone().with_request(id));
    buf
}

/// Result of a closed-loop phase.
pub struct Closed {
    /// `(index into the request list, reply frame)` per completion.
    pub replies: Vec<(usize, Frame)>,
    /// From the first send to the last reply.
    pub elapsed: Duration,
    /// Gaps between consecutive replies longer than 5 ms, in ms: with a
    /// window of requests in flight these are transport stalls.
    pub stalls: Vec<f64>,
}

/// Keep `depth` requests in flight on one session for `dur`, cycling
/// through `wires` (encoded frames, any request id) in `order`, then
/// drain. One thread: it fills the window and sends the next request as
/// each reply lands.
pub fn closed_loop(
    addr: &str,
    wires: &[Vec<u8>],
    order: &[usize],
    depth: u32,
    dur: Duration,
) -> io::Result<Closed> {
    let (mut stream, window) = open_session(addr)?;
    let depth = depth.min(window).max(1);
    let mut buf = Vec::new();
    let mut sent = 0usize;
    let mut send = |stream: &mut TcpStream, sent: &mut usize| -> io::Result<()> {
        buf.clear();
        buf.extend_from_slice(&wires[order[*sent % order.len()]]);
        set_request_id(&mut buf, *sent as u32 + 1);
        stream.write_all(&buf)?;
        *sent += 1;
        Ok(())
    };
    let start = Instant::now();
    for _ in 0..depth {
        send(&mut stream, &mut sent)?;
    }
    let mut replies = Vec::new();
    let mut stalls = Vec::new();
    let mut last = start;
    while replies.len() < sent {
        let frame = read_frame(&mut stream).map_err(io::Error::other)?;
        let gap_ms = last.elapsed().as_secs_f64() * 1e3;
        last = Instant::now();
        if gap_ms > 5.0 {
            stalls.push(gap_ms);
        }
        let index = order[(frame.request_id as usize).wrapping_sub(1) % order.len()];
        replies.push((index, frame));
        if start.elapsed() < dur {
            send(&mut stream, &mut sent)?;
        }
    }
    let elapsed = start.elapsed();
    let _ = stream.shutdown(Shutdown::Both);
    Ok(Closed { replies, elapsed, stalls })
}

/// Overwrite the request id of an encoded v4 frame (it follows the
/// fixed header).
pub fn set_request_id(wire: &mut [u8], id: u32) {
    let at = act_serve::proto::HEADER_LEN;
    wire[at..at + 4].copy_from_slice(&id.to_le_bytes());
}

/// Result of an open-loop phase, indexed like the request list.
pub struct Open {
    /// When each request was due.
    pub due: Vec<Instant>,
    /// When each request's write started.
    pub sent: Vec<Instant>,
    /// When each reply arrived, with the reply frame; `None` if the
    /// session died first.
    pub done: Vec<Option<(Instant, Frame)>>,
}

/// Send `wires[i]` (encoded with request id `i + 1`) at `start +
/// due_s[i]` regardless of replies, on one session; a second thread reads
/// replies and timestamps them. The sender waits only when the server's
/// window is full, and that wait shows up as lateness.
pub fn open_loop(addr: &str, wires: &[Vec<u8>], due_s: &[f64]) -> io::Result<Open> {
    let (stream, window) = open_session(addr)?;
    let mut reader = stream.try_clone()?;
    let mut writer = stream;
    let in_flight = AtomicU32::new(0);
    let n = wires.len();
    let mut due = Vec::with_capacity(n);
    let mut sent = Vec::with_capacity(n);
    let received = std::thread::scope(|s| -> io::Result<Vec<(u32, Instant, Frame)>> {
        let in_flight = &in_flight;
        let rx = s.spawn(move || {
            let mut got = Vec::with_capacity(n);
            while got.len() < n {
                match read_frame(&mut reader) {
                    Ok(frame) => {
                        let at = Instant::now();
                        in_flight.fetch_sub(1, Ordering::SeqCst);
                        got.push((frame.request_id, at, frame));
                    }
                    Err(_) => break,
                }
            }
            got
        });
        let start = Instant::now() + Duration::from_millis(20);
        let mut failure = None;
        for (i, bytes) in wires.iter().enumerate() {
            let t = start + Duration::from_secs_f64(due_s[i]);
            let now = Instant::now();
            if t > now {
                std::thread::sleep(t - now);
            }
            while in_flight.load(Ordering::SeqCst) >= window {
                std::thread::yield_now();
            }
            due.push(t);
            sent.push(Instant::now());
            in_flight.fetch_add(1, Ordering::SeqCst);
            if let Err(e) = writer.write_all(bytes) {
                failure = Some(e);
                break;
            }
        }
        // Give outstanding replies a bounded time, then cut the session
        // so the reader cannot wait forever on a dead server.
        let deadline = Instant::now() + Duration::from_secs(30);
        while in_flight.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ = writer.shutdown(Shutdown::Both);
        let got = rx.join().expect("reply reader thread");
        match failure {
            Some(e) => Err(e),
            None => Ok(got),
        }
    })?;
    let mut done: Vec<Option<(Instant, Frame)>> = (0..n).map(|_| None).collect();
    for (id, at, frame) in received {
        if let Some(slot) = done.get_mut((id as usize).wrapping_sub(1)) {
            *slot = Some((at, frame));
        }
    }
    Ok(Open { due, sent, done })
}
