//! A run of either workload: real daemons (`act gate` in front of two
//! `act serve`, or one `act serve` called directly), a seeded request
//! stream, a closed-loop capacity phase, an open-loop mix phase, the
//! Table V campaigns, and (traced) the same stream replayed in-process for
//! the per-layer breakdown.

use crate::daemon::Daemon;
use crate::gen::{self, Inputs, Kind};
use crate::load;
use crate::pipeline::{self, Campaigns};
use crate::reference;
use crate::report::Report;
use crate::service::Service;
use crate::spans::Tracer;
use crate::stats::{mean, median, quantile};
use crate::{Ctx, Workload};
use act_obs::{MetricValue, MetricsSnapshot};
use act_serve::{Frame, Reply, Request};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Daemon workers per `act serve` (and `act gate`): the reference host's
/// core count.
pub const WORKERS: usize = 2;
/// Closed-loop requests in flight.
pub const DEPTH: u32 = 8;
/// Set-ups per untraced run (the median is reported).
pub const SETUP_REPS: usize = 3;

/// The daemons under test: the backends and, if any, the gateway in
/// front of them.
pub struct Deployment {
    backends: Vec<Daemon>,
    gate: Option<Daemon>,
}

impl Deployment {
    /// Start the daemons, each backend over its own corpus under `dir`:
    /// two backends behind `act gate`, or one `act serve` on its own.
    pub fn start(act: &Path, dir: &Path, gateway: bool) -> Result<Deployment, String> {
        let n = if gateway { 2 } else { 1 };
        let backends = (0..n)
            .map(|i| Daemon::serve(act, WORKERS, &dir.join(format!("corpus{i}"))))
            .collect::<Result<Vec<_>, _>>()?;
        let gate = match gateway {
            true => Some(Daemon::gate(act, WORKERS, &backends.iter().collect::<Vec<_>>())?),
            false => None,
        };
        Ok(Deployment { backends, gate })
    }

    /// Where clients connect.
    pub fn entry(&self) -> &str {
        &self.gate.as_ref().unwrap_or(&self.backends[0]).addr
    }

    /// CPU time every daemon has used so far, in seconds.
    pub fn cpu_s(&self) -> f64 {
        self.gate.iter().chain(&self.backends).map(Daemon::cpu_s).sum()
    }

    /// Summed peak resident memory of every daemon, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let kb: u64 = self.gate.iter().chain(&self.backends).map(Daemon::peak_rss_kb).sum();
        kb as f64 / 1024.0
    }

    /// SHUTDOWN every daemon (gateway first); false if any had to be killed.
    pub fn shutdown(self) -> bool {
        let mut clean = true;
        for d in self.gate.into_iter().chain(self.backends) {
            clean &= d.shutdown();
        }
        clean
    }
}

/// A one-shot client with bounded timeouts and no retry.
fn client(addr: &str) -> act_client::Client {
    act_client::Client::builder()
        .addr(addr)
        .timeouts(Duration::from_secs(5), Duration::from_secs(120))
        .build()
        .expect("endpoint is set")
}

/// TRAIN every bug's model through `addr`, two requests at a time.
fn train_all(addr: &str, bugs: &[&'static str], report: &mut Report) {
    let results =
        act_fleet::parallel_map(bugs, 2, |_, bug| client(addr).train(&reference::spec(bug)));
    for (bug, r) in bugs.iter().zip(results) {
        if let Err(e) = &r {
            report.problem(format!("TRAIN {bug}: {e}"));
        }
        report.tally("train", r.is_ok());
    }
}

/// Everything the generator sends, encoded once.
struct Traffic {
    /// DIAGNOSE frame per failing trace.
    pub diagnose: Vec<Frame>,
    /// Expected DIAGNOSIS text per failing trace.
    pub expected: Vec<String>,
    /// Open-loop wire bytes, request id `i + 1` for op `i`.
    pub open_wires: Vec<Vec<u8>>,
    /// Key of each open-loop PUT (by op index).
    pub put_keys: BTreeMap<usize, String>,
}

fn preload_key(i: usize) -> String {
    format!("pre-{i}")
}

/// The TRACE_PUT wire bytes of every GET target.
fn preload_wires(inputs: &Inputs) -> Vec<Vec<u8>> {
    inputs
        .correct
        .iter()
        .enumerate()
        .map(|(j, p)| {
            let req = Request::TracePut {
                key: preload_key(j),
                workload: p.bug.to_string(),
                trace: p.bytes.clone(),
            };
            load::wire(&req.to_frame(), 0)
        })
        .collect()
}

fn op_frame(inputs: &Inputs, i: usize, diagnose: &[Frame]) -> (Frame, Option<String>) {
    let op = inputs.open[i];
    match op.kind {
        Kind::Diagnose => (diagnose[op.index].clone(), None),
        Kind::Put => {
            let p = &inputs.correct[op.index];
            let key = format!("put-{i}");
            let req = Request::TracePut {
                key: key.clone(),
                workload: p.bug.to_string(),
                trace: p.bytes.clone(),
            };
            (req.to_frame(), Some(key))
        }
        Kind::Get => (Request::TraceGet { key: preload_key(op.index) }.to_frame(), None),
    }
}

/// Encode every request of `inputs` and render the expected DIAGNOSIS
/// text of every failing trace from the reference `models`.
fn build_traffic(inputs: &Inputs, models: &BTreeMap<&str, act_serve::Model>) -> Traffic {
    let diagnose: Vec<Frame> = inputs
        .failing
        .iter()
        .map(|p| Request::Diagnose(reference::spec(p.bug), p.bytes.clone()).to_frame())
        .collect();
    let expected = act_fleet::parallel_map(&inputs.failing, 2, |_, p| {
        reference::expected_diagnosis(&models[p.bug], p.bug, &p.bytes)
    });
    let mut put_keys = BTreeMap::new();
    let open_wires = (0..inputs.open.len())
        .map(|i| {
            let (frame, key) = op_frame(inputs, i, &diagnose);
            if let Some(k) = key {
                put_keys.insert(i, k);
            }
            load::wire(&frame, i as u32 + 1)
        })
        .collect();
    Traffic { diagnose, expected, open_wires, put_keys }
}

/// Whether a reply to open-loop op `i` is correct.
fn check_op(inputs: &Inputs, traffic: &Traffic, i: usize, reply: &Reply) -> Result<(), String> {
    let op = inputs.open[i];
    match (op.kind, reply) {
        (Kind::Diagnose, Reply::Diagnosis(text)) if *text == traffic.expected[op.index] => Ok(()),
        (Kind::Put, Reply::Stored(s))
            if s.starts_with(&format!("stored {} (", traffic.put_keys[&i])) =>
        {
            Ok(())
        }
        (Kind::Get, Reply::TraceData(bytes)) if *bytes == inputs.correct[op.index].bytes => Ok(()),
        (kind, other) => Err(format!("{} op {i}: unexpected reply {}", kind.label(), brief(other))),
    }
}

/// A short description of a reply for problem reports.
fn brief(reply: &Reply) -> String {
    match reply {
        Reply::Diagnosis(t) => format!("DIAGNOSIS `{}`", t.lines().next().unwrap_or("")),
        Reply::Error(e) => format!("ERROR `{e}`"),
        Reply::Busy => "BUSY".to_string(),
        Reply::Stored(s) => format!("STORED `{s}`"),
        Reply::TraceData(b) => format!("TRACE_DATA ({} bytes)", b.len()),
        other => format!("{other:?}"),
    }
}

/// Per-kind open-loop latencies (ms from due time) of successful ops,
/// and how late the generator sent each request.
#[derive(Default)]
struct OpenStats {
    latency_ms: BTreeMap<Kind, Vec<f64>>,
    late_ms: Vec<f64>,
}

impl OpenStats {
    /// Check and time the replies of the open-loop ops.
    fn score(
        &mut self,
        inputs: &Inputs,
        traffic: &Traffic,
        open: &load::Open,
        report: &mut Report,
    ) {
        for (i, due) in open.due.iter().enumerate() {
            let kind = inputs.open[i].kind;
            let verdict = match &open.done[i] {
                None => Err(format!("{} op {i}: no reply", kind.label())),
                Some((at, frame)) => match Reply::from_frame(frame) {
                    Ok(reply) => check_op(inputs, traffic, i, &reply)
                        .map(|()| at.duration_since(*due).as_secs_f64() * 1e3),
                    Err(e) => Err(format!("{} op {i}: undecodable reply: {e}", kind.label())),
                },
            };
            report.tally(kind.label(), verdict.is_ok());
            match verdict {
                Ok(ms) => self.latency_ms.entry(kind).or_default().push(ms),
                Err(e) => report.problem(e),
            }
        }
        self.late_ms.extend(
            open.sent
                .iter()
                .zip(&open.due)
                .map(|(s, d)| s.saturating_duration_since(*d).as_secs_f64() * 1e3),
        );
    }
}

/// PUT the GET targets before the measured phases.
fn preload(addr: &str, inputs: &Inputs, report: &mut Report) {
    let c = client(addr);
    for (j, p) in inputs.correct.iter().enumerate() {
        let ok = c.trace_put(&preload_key(j), p.bug, &p.bytes).is_ok();
        if !ok {
            report.problem(format!("preload PUT {} failed", preload_key(j)));
        }
        report.tally("put(preload)", ok);
    }
}

fn closed_phase(
    addr: &str,
    inputs: &Inputs,
    traffic: &Traffic,
    dur: Duration,
    report: &mut Report,
) -> f64 {
    let wires: Vec<Vec<u8>> = traffic.diagnose.iter().map(|f| load::wire(f, 0)).collect();
    match load::closed_loop(addr, &wires, &inputs.closed_order, DEPTH, dur) {
        Ok(closed) => {
            report.line(format!(
                "closed loop: {} replies in {:.3}s, {} gaps over 5 ms summing {:.0} ms",
                closed.replies.len(),
                closed.elapsed.as_secs_f64(),
                closed.stalls.len(),
                closed.stalls.iter().sum::<f64>()
            ));
            let mut ok = 0usize;
            for (index, frame) in &closed.replies {
                let good = matches!(Reply::from_frame(frame),
                    Ok(Reply::Diagnosis(t)) if t == traffic.expected[*index]);
                if !good {
                    let got = Reply::from_frame(frame).map(|r| brief(&r)).unwrap_or_default();
                    report.problem(format!("closed-loop DIAGNOSE {index}: {got}"));
                }
                ok += good as usize;
                report.tally("diagnose(closed)", good);
            }
            ok as f64 / closed.elapsed.as_secs_f64()
        }
        Err(e) => {
            report.problem(format!("closed loop: {e}"));
            report.tally("diagnose(closed)", false);
            0.0
        }
    }
}

fn counter(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.counter(name).unwrap_or(0) as f64
}

fn hist<'a>(snap: &'a MetricsSnapshot, name: &str) -> Option<&'a act_obs::HistogramSnapshot> {
    match snap.get(name) {
        Some(MetricValue::Histogram(h)) => Some(h),
        _ => None,
    }
}

/// Per-layer metrics read from the daemons' own STATUS counters: the
/// gateway's sums of its backends' counters under `fleet.`, or the one
/// backend's own.
fn status_metrics(addr: &str, gateway: bool, report: &mut Report) -> Option<MetricsSnapshot> {
    let snap = match client(addr).status() {
        Ok(act_client::ServerStatus { metrics: Some(snap), .. }) => snap,
        Ok(_) => {
            report.problem("STATUS carried no metrics snapshot".into());
            return None;
        }
        Err(e) => {
            report.problem(format!("STATUS: {e}"));
            return None;
        }
    };
    let p = if gateway { "fleet." } else { "" };
    let c = |n: &str| counter(&snap, &format!("{p}{n}"));
    let lookups = c("cache_memory_hits")
        + c("cache_disk_loads")
        + c("cache_store_loads")
        + c("cache_trained");
    report.layer("cache.hit_ratio", c("cache_memory_hits") / lookups.max(1.0), "ratio");
    let service = hist(&snap, &format!("{p}service_us"));
    report.layer("serve.service_us_p50", service.map_or(0.0, |h| h.quantile(0.5) as f64), "us");
    let batch = hist(&snap, &format!("{p}batch_size"));
    report.layer("serve.batch_size_mean", batch.map_or(0.0, |h| h.mean()), "count");
    let co = c("coalesce_hits") / (c("coalesce_hits") + c("coalesce_misses")).max(1.0);
    report.layer("serve.coalesce_ratio", co, "ratio");
    let depth = hist(&snap, &format!("{p}enqueue_depth"));
    report.layer("serve.queue_depth_p50", depth.map_or(0.0, |h| h.quantile(0.5) as f64), "count");
    report.layer("serve.rejected_busy", c("requests_rejected_busy"), "count");
    report.layer("serve.crashed", c("requests_crashed"), "count");
    Some(snap)
}

/// Requests the daemons refused or failed by their own count; every one
/// is a failed operation even if a client retried it.
fn daemon_failures(snap: &MetricsSnapshot, gateway: bool, report: &mut Report) {
    let p = if gateway { "fleet." } else { "" };
    for name in ["requests_rejected_busy", "requests_crashed", "requests_errored"] {
        let n = snap.counter(&format!("{p}{name}")).unwrap_or(0);
        if n > 0 {
            report.problem(format!("backends counted {n} {name}"));
            report.fail_ops("backend", n);
        }
    }
    if !gateway {
        return;
    }
    for name in ["requests_failed", "requests_rejected_busy", "failovers"] {
        let n = snap.counter(name).unwrap_or(0);
        if n > 0 {
            report.problem(format!("gateway counted {n} {name}"));
            report.fail_ops("gateway", n);
        }
    }
}

/// Run `workload` and fill `report`.
///
/// After set-up the run measures in three phases, one after another: the
/// closed loop on one session, the open loop on another, and
/// [`pipeline::CAMPAIGNS`] Table V campaigns once the daemons are down.
pub fn run(ctx: &Ctx, workload: &Workload, report: &mut Report) -> Result<(), String> {
    let closed_s = ctx.seconds * crate::CLOSED_SHARE;
    let t0 = Instant::now();
    let inputs = gen::generate(&workload.shape, ctx.seed, ctx.seconds - closed_s);
    report.note_inputs(&inputs);
    let t1 = Instant::now();
    let models = reference::train_models(&inputs.bugs);
    let traffic = build_traffic(&inputs, &models);
    report.line(format!(
        "input generation {:.2}s, reference outputs {:.2}s",
        (t1 - t0).as_secs_f64(),
        t1.elapsed().as_secs_f64()
    ));

    // Set-up: spawn → every model trained. Earlier set-ups are torn down.
    let reps = if ctx.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut deployment = None;
    for rep in 0..reps {
        let dir = ctx.tmp.join(format!("setup{rep}"));
        let start = Instant::now();
        let d = Deployment::start(&ctx.act, &dir, workload.gateway)?;
        train_all(d.entry(), &inputs.bugs, report);
        setups.push(start.elapsed().as_secs_f64());
        if rep + 1 < reps {
            if !d.shutdown() {
                report.problem("daemon did not shut down on SHUTDOWN".into());
            }
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            deployment = Some(d);
        }
    }
    let d = deployment.expect("at least one set-up");
    let addr = d.entry().to_string();
    report.line(format!("set-ups (s): {setups:.3?}"));
    report.metric("setup_s", median(&setups), "s");
    preload(&addr, &inputs, report);

    let rps = closed_phase(&addr, &inputs, &traffic, Duration::from_secs_f64(closed_s), report);
    report.metric("diagnose_rps", rps, "req/s");

    // The open loop runs on one session, as a long-lived client's would:
    // the transport's state carries over between requests. The daemons'
    // CPU time over it, per request, is what the mix costs them. Client
    // spans (due → reply) share request ids with the in-process replay's
    // stage spans of the same request.
    let tracer = Tracer::new(ctx.trace);
    let cpu0 = d.cpu_s();
    let open = load::open_loop(&addr, &traffic.open_wires, &inputs.due_s)
        .map_err(|e| format!("open loop: {e}"))?;
    let cpu_us = (d.cpu_s() - cpu0) * 1e6 / open.due.len().max(1) as f64;
    report.metric("cpu_us_per_req", cpu_us, "us");
    let mut stats = OpenStats::default();
    stats.score(&inputs, &traffic, &open, report);
    for (i, done) in open.done.iter().enumerate() {
        if let Some((at, _)) = done {
            tracer.interval(i as u64, 0, "client.request", open.due[i], *at);
        }
    }
    for kind in Kind::ALL {
        let v = stats.latency_ms.get(&kind).cloned().unwrap_or_default();
        report.latency(kind.label(), &v);
    }
    report.lateness(&stats.late_ms);

    if let Some(snap) = status_metrics(&addr, workload.gateway, report) {
        daemon_failures(&snap, workload.gateway, report);
        if workload.gateway {
            gate_counters(&snap, report);
        } else {
            report.gate_layers_absent();
        }
    }
    if ctx.trace && workload.gateway {
        let hop = gate_hop_ms(ctx, &d, &inputs, &traffic, report)?;
        report.layer("gate.hop_ms_p50", hop, "ms");
    }
    let daemons_mb = d.peak_rss_mb();
    if !d.shutdown() {
        report.problem("daemon did not shut down on SHUTDOWN".into());
    }

    let mut campaigns = Campaigns::default();
    for _ in 0..pipeline::CAMPAIGNS {
        campaigns.run(ctx, report)?;
    }
    let ranks = campaigns.finish(report);
    let campaign_mb = campaigns.peak_mb();
    report.line(format!("peak RSS: daemons {daemons_mb:.1} MB, table5 {campaign_mb:.1} MB"));
    report.metric("peak_rss_mb", daemons_mb + campaign_mb, "MB");

    if ctx.trace {
        let diag = stats.latency_ms.get(&Kind::Diagnose).cloned().unwrap_or_default();
        replay(ctx, &tracer, &inputs, &traffic, &models, quantile(&diag, 0.5), report)?;
        pipeline::traced_campaign(ctx, &ranks, report)?;
    }
    Ok(())
}

fn gate_counters(snap: &MetricsSnapshot, report: &mut Report) {
    report.layer("gate.relayed", counter(snap, "replies_relayed"), "count");
    report.layer("gate.failovers", counter(snap, "failovers"), "count");
    report.layer("gate.busy_failovers", counter(snap, "busy_failovers"), "count");
    report.layer("gate.failed", counter(snap, "requests_failed"), "count");
}

/// The gateway hop: the DIAGNOSE requests of the open-loop stream, at
/// their due times, through the gateway and then straight to one fresh
/// `act serve` holding every model (a fresh one, because the running
/// backends would train the models they do not own from the traces put
/// into their corpora); the difference of the two p50 latencies, in ms.
fn gate_hop_ms(
    ctx: &Ctx,
    d: &Deployment,
    inputs: &Inputs,
    traffic: &Traffic,
    report: &mut Report,
) -> Result<f64, String> {
    let direct = Daemon::serve(&ctx.act, WORKERS, &ctx.tmp.join("hop"))?;
    train_all(&direct.addr, &inputs.bugs, report);
    let diag: Vec<usize> =
        (0..inputs.open.len()).filter(|&i| inputs.open[i].kind == Kind::Diagnose).collect();
    let wires: Vec<Vec<u8>> = diag
        .iter()
        .enumerate()
        .map(|(j, &i)| load::wire(&traffic.diagnose[inputs.open[i].index], j as u32 + 1))
        .collect();
    let due_s: Vec<f64> = diag.iter().map(|&i| inputs.due_s[i]).collect();
    let mut p50 = Vec::new();
    for addr in [d.entry(), direct.addr.as_str()] {
        let open = load::open_loop(addr, &wires, &due_s)
            .map_err(|e| format!("hop stream to {addr}: {e}"))?;
        let mut lat = Vec::new();
        for (j, &i) in diag.iter().enumerate() {
            let good = open.done[j].as_ref().is_some_and(|(_, f)| {
                matches!(Reply::from_frame(f),
                    Ok(Reply::Diagnosis(t)) if t == traffic.expected[inputs.open[i].index])
            });
            report.tally("diagnose(hop)", good);
            match (good, &open.done[j]) {
                (true, Some((at, _))) => {
                    lat.push(at.duration_since(open.due[j]).as_secs_f64() * 1e3)
                }
                _ => report.problem(format!("hop stream DIAGNOSE {j} to {addr}: bad reply")),
            }
        }
        p50.push(quantile(&lat, 0.5));
    }
    if !direct.shutdown() {
        report.problem("daemon did not shut down on SHUTDOWN".into());
    }
    Ok(p50[0] - p50[1])
}

/// Replay the open-loop stream through the in-process service, first
/// untraced and then traced, and derive the per-layer metrics.
fn replay(
    ctx: &Ctx,
    tracer: &Tracer,
    inputs: &Inputs,
    traffic: &Traffic,
    models: &BTreeMap<&str, act_serve::Model>,
    client_p50_ms: f64,
    report: &mut Report,
) -> Result<(), String> {
    let service = Service::new(&ctx.tmp.join("inproc"))?;
    for (i, bug) in inputs.bugs.iter().enumerate() {
        service.train(&reference::spec(bug), tracer, 1_000_000 + i as u64)?;
    }
    let train_s: f64 = tracer.durations_us("cache.train").iter().sum::<f64>() / 1e6;
    report.layer("cache.train_s", train_s, "s");
    for w in preload_wires(inputs) {
        service.handle(&w, &Tracer::new(false), 0);
    }

    // The traced pass of the requests sits between two untraced ones.
    let off = Tracer::new(false);
    let untraced_pass = || {
        let start = Instant::now();
        for w in &traffic.open_wires {
            std::hint::black_box(service.handle(w, &off, 0));
        }
        start.elapsed().as_secs_f64()
    };
    let mut untraced = untraced_pass();
    let start = Instant::now();
    let mut counts = Vec::with_capacity(traffic.open_wires.len());
    for (i, w) in traffic.open_wires.iter().enumerate() {
        let (bytes, c) = service.handle(w, tracer, i as u64);
        let reply =
            act_serve::proto::read_frame(&bytes[..]).ok().and_then(|f| Reply::from_frame(&f).ok());
        let verdict = reply.map_or(Err("undecodable".into()), |r| check_op(inputs, traffic, i, &r));
        if let Err(e) = &verdict {
            report.problem(format!("in-process replay: {e}"));
        }
        report.tally("replay", verdict.is_ok());
        counts.push(c);
    }
    let traced = start.elapsed().as_secs_f64();
    untraced = (untraced + untraced_pass()) / 2.0;
    report.layer("trace.overhead_pct", 100.0 * (traced - untraced) / untraced, "%");

    layer_metrics(inputs, models, tracer, &counts, client_p50_ms, report);
    report.breakdown(tracer);
    tracer.write_jsonl(&ctx.spans_path()).map_err(|e| format!("cannot write spans: {e}"))
}

fn layer_metrics(
    inputs: &Inputs,
    models: &BTreeMap<&str, act_serve::Model>,
    tracer: &Tracer,
    counts: &[crate::service::Counts],
    client_p50_ms: f64,
    report: &mut Report,
) {
    let spans = tracer.spans();
    let by_request = |name: &str, kind: Kind| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && (s.request as usize) < inputs.open.len())
            .filter(|s| inputs.open[s.request as usize].kind == kind)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    };
    let p50 = |v: &[f64]| quantile(v, 0.5);
    let parse = tracer.durations_us("trace.parse");
    report.layer_p50("trace.parse_us", &parse);
    let parsed_bytes: usize = (0..inputs.open.len())
        .filter(|&i| inputs.open[i].kind == Kind::Diagnose)
        .map(|i| inputs.failing[inputs.open[i].index].bytes.len())
        .sum();
    let parse_s: f64 = parse.iter().sum::<f64>() / 1e6;
    report.layer("trace.parse_mb_s", parsed_bytes as f64 / 1e6 / parse_s.max(1e-9), "MB/s");
    report.layer_p50("trace.render_us", &tracer.durations_us("trace.render"));
    report.layer_p50("classify.us", &tracer.durations_us("classify"));
    let diag_ops: Vec<usize> =
        (0..inputs.open.len()).filter(|&i| inputs.open[i].kind == Kind::Diagnose).collect();
    let windows: Vec<f64> = diag_ops
        .iter()
        .map(|&i| {
            let p = &inputs.failing[inputs.open[i].index];
            let t = act_trace::io::trace_from_bytes(&p.bytes).expect("generated trace parses");
            let seq_len = models[p.bug].store.seq_len();
            let deps = act_trace::raw::observed_deps(&t);
            act_trace::input_gen::positive_sequences(&deps, seq_len).len() as f64
        })
        .collect();
    report.layer("classify.windows", mean(&windows), "count");
    let flagged: Vec<f64> = diag_ops.iter().map(|&i| counts[i].flagged as f64).collect();
    report.layer("classify.flagged", mean(&flagged), "count");
    report.layer_p50("postprocess.us", &tracer.durations_us("postprocess"));
    let ranked: Vec<f64> = diag_ops.iter().map(|&i| counts[i].ranked as f64).collect();
    report.layer("postprocess.ranked", mean(&ranked), "count");
    report.layer_p50("proto.decode_us", &tracer.durations_us("proto.decode"));
    report.layer_p50("proto.encode_us", &tracer.durations_us("proto.encode"));
    report.layer_p50("cache.lookup_us", &tracer.durations_us("cache.lookup"));
    report.layer_p50("store.put_us", &tracer.durations_us("store.put"));
    report.layer_p50("store.get_us", &tracer.durations_us("store.get"));
    let puts: Vec<(u64, u64)> = counts.iter().filter_map(|c| c.put_bytes).collect();
    let raw: u64 = puts.iter().map(|p| p.0).sum();
    let enc: u64 = puts.iter().map(|p| p.1).sum();
    report.layer("store.bytes_per_put", enc as f64 / puts.len().max(1) as f64, "bytes");
    report.layer("store.compression_ratio", raw as f64 / enc.max(1) as f64, "ratio");
    let stage_p50_ms = p50(&by_request("request", Kind::Diagnose)) / 1e3;
    let residual = if client_p50_ms > 0.0 { client_p50_ms - stage_p50_ms } else { 0.0 };
    report.layer("transport.residual_ms_p50", residual, "ms");
}
