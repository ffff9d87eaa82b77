//! What a run found: metrics, per-kind operation counts, failed checks,
//! and the human-readable lines printed before the JSON result.

use crate::gen::Inputs;
use crate::spans::Tracer;
use crate::stats::quantile;
use std::collections::BTreeMap;

/// Per-layer metrics of the gateway, absent when clients call `act serve`
/// directly.
const GATE_LAYERS: [(&str, &str); 5] = [
    ("gate.hop_ms_p50", "ms"),
    ("gate.relayed", "count"),
    ("gate.failovers", "count"),
    ("gate.busy_failovers", "count"),
    ("gate.failed", "count"),
];

/// A run's findings.
pub struct Report {
    trace: bool,
    e2e: BTreeMap<String, (f64, String)>,
    layers: BTreeMap<String, (f64, String)>,
    /// kind → (succeeded, failed)
    ops: BTreeMap<String, (u64, u64)>,
    problems: Vec<String>,
    lines: Vec<String>,
}

impl Report {
    /// An empty report for a traced (`trace`) or untraced run.
    pub fn new(trace: bool) -> Report {
        Report {
            trace,
            e2e: BTreeMap::new(),
            layers: BTreeMap::new(),
            ops: BTreeMap::new(),
            problems: Vec::new(),
            lines: Vec::new(),
        }
    }

    /// Record an end-to-end metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.e2e.insert(name.to_string(), (value, unit.to_string()));
    }

    /// Record a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &str) {
        self.layers.insert(name.to_string(), (value, unit.to_string()));
    }

    /// Record the median of span durations (µs) as a per-layer metric.
    pub fn layer_p50(&mut self, name: &str, us: &[f64]) {
        self.line(format!("{name}: p50 {:.2} us (n={})", quantile(us, 0.5), us.len()));
        self.layer(name, quantile(us, 0.5), "us");
    }

    /// Record `<kind>_p50_ms` and `<kind>_p90_ms` from open-loop latencies.
    pub fn latency(&mut self, kind: &str, ms: &[f64]) {
        let (p50, p90) = (quantile(ms, 0.5), quantile(ms, 0.9));
        self.line(format!(
            "open-loop {kind}: p50 {p50:.3} ms, p90 {p90:.3} ms, max {:.3} ms (n={})",
            quantile(ms, 1.0),
            ms.len()
        ));
        self.metric(&format!("{kind}_p50_ms"), p50, "ms");
        self.metric(&format!("{kind}_p90_ms"), p90, "ms");
    }

    /// Record how late the open-loop generator sent (ms past due).
    pub fn lateness(&mut self, ms: &[f64]) {
        let p90 = quantile(ms, 0.9);
        self.line(format!(
            "generator lateness: p50 {:.3} ms, p90 {p90:.3} ms, max {:.3} ms (n={})",
            quantile(ms, 0.5),
            quantile(ms, 1.0),
            ms.len()
        ));
        self.layer("gen.late_ms_p90", p90, "ms");
    }

    /// Count one operation of `kind` as succeeded or failed.
    pub fn tally(&mut self, kind: &str, ok: bool) {
        let e = self.ops.entry(kind.to_string()).or_default();
        if ok {
            e.0 += 1;
        } else {
            e.1 += 1;
        }
    }

    /// Count `n` failed operations of `kind` that no reply showed.
    pub fn fail_ops(&mut self, kind: &str, n: u64) {
        self.ops.entry(kind.to_string()).or_default().1 += n;
    }

    /// Record a failed check.
    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 20 {
            eprintln!("check failed: {what}");
        }
        self.problems.push(what);
    }

    /// Add a human-readable line.
    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Describe the generated inputs.
    pub fn note_inputs(&mut self, inputs: &Inputs) {
        let sizes: Vec<f64> = inputs.failing.iter().map(|p| p.bytes.len() as f64 / 1e3).collect();
        self.line(format!(
            "inputs: {} bugs, {} failing traces ({:.1}–{:.1} KB, mean {:.1} KB), {} correct traces, \
             {} open-loop requests at {} req/s",
            inputs.bugs.len(),
            inputs.failing.len(),
            quantile(&sizes, 0.0),
            quantile(&sizes, 1.0),
            crate::stats::mean(&sizes),
            inputs.correct.len(),
            inputs.open.len(),
            inputs.rate
        ));
    }

    /// Add the per-span-name self-time table of `tracer`.
    pub fn breakdown(&mut self, tracer: &Tracer) {
        let times = tracer.self_times();
        let total_self: u64 = times.values().map(|t| t.2).sum();
        self.line(format!(
            "{:<22} {:>7} {:>12} {:>12} {:>7}",
            "span", "n", "total ms", "self ms", "self%"
        ));
        for (name, (n, total, own)) in &times {
            self.line(format!(
                "{name:<22} {n:>7} {:>12.3} {:>12.3} {:>6.1}%",
                *total as f64 / 1e6,
                *own as f64 / 1e6,
                100.0 * *own as f64 / total_self.max(1) as f64
            ));
        }
    }

    /// Runs with no gateway in front of the backend.
    pub fn gate_layers_absent(&mut self) {
        for (name, unit) in GATE_LAYERS {
            self.layer(name, 0.0, unit);
        }
    }

    /// Print the human-readable report and the JSON result line; returns
    /// whether every check passed. `expected` lists the metrics (name,
    /// unit) this mode must report.
    pub fn finish(mut self, expected: &[(&str, &str)]) -> bool {
        let missing: Vec<String> = {
            let printed = if self.trace { &self.layers } else { &self.e2e };
            expected
                .iter()
                .filter(|(n, u)| printed.get(*n).is_none_or(|(_, unit)| unit != u))
                .map(|(n, _)| n.to_string())
                .collect()
        };
        if !missing.is_empty() {
            self.problem(format!("metrics missing or with the wrong unit: {missing:?}"));
        }
        for line in &self.lines {
            println!("{line}");
        }
        println!("{:<20} {:>10} {:>10} {:>10}", "operation", "attempted", "succeeded", "failed");
        for (kind, (ok, bad)) in &self.ops {
            println!("{kind:<20} {:>10} {ok:>10} {bad:>10}", ok + bad);
        }
        for (title, map) in [("end-to-end", &self.e2e), ("per-layer", &self.layers)] {
            if map.is_empty() {
                continue;
            }
            println!("-- {title} --");
            for (name, (v, unit)) in map {
                println!("{name:<28} {v:>14.4} {unit}");
            }
        }
        let attempted: u64 = self.ops.values().map(|(ok, bad)| ok + bad).sum();
        let failed: u64 = self.ops.values().map(|(_, bad)| bad).sum();
        let correct = self.problems.is_empty() && failed == 0 && attempted > 0;
        let printed = if self.trace { &self.layers } else { &self.e2e };
        let metrics: Vec<String> = expected
            .iter()
            .filter_map(|(n, _)| printed.get(*n).map(|v| (n, v)))
            .map(|(n, (v, unit))| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            attempted.max(1),
            metrics.join(", ")
        );
        correct
    }
}
