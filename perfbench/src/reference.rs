//! Reference outputs, computed in-process from the same inputs: every
//! DIAGNOSE reply must equal these bytes.

use act_core::postprocess::Diagnosis;
use act_serve::cache::{train_model, Model};
use act_serve::ModelSpec;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The model every request of the benchmark names: the server defaults
/// (10 traces, N = 2, 10 hidden units, seed 0).
pub fn spec(bug: &str) -> ModelSpec {
    ModelSpec::new(bug)
}

/// Train each bug's model in-process, as `act serve` would on TRAIN.
pub fn train_models(bugs: &[&'static str]) -> BTreeMap<&'static str, Model> {
    let models = act_fleet::parallel_map(bugs, 2, |_, bug| {
        train_model(&spec(bug)).unwrap_or_else(|e| panic!("{bug}: reference training: {e}"))
    });
    bugs.iter().copied().zip(models).collect()
}

/// The DIAGNOSIS reply text for `diag`, as documented in
/// `crates/act-serve/PROTOCOL.md`, for a model already resident in the
/// daemon's memory (`model=cache-hit`).
pub fn render(workload: &str, diag: &Diagnosis) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "diagnosis workload={} model=cache-hit ranked={} logged={} distinct={} pruned={} filter_pct={:.1}",
        workload,
        diag.ranked.len(),
        diag.total_logged,
        diag.distinct,
        diag.pruned,
        diag.filter_pct()
    )
    .expect("string write");
    for (i, c) in diag.ranked.iter().take(10).enumerate() {
        let deps: Vec<String> = c
            .deps
            .iter()
            .map(|d| {
                format!("{}->{}{}", d.store_pc, d.load_pc, if d.inter_thread { "*" } else { "" })
            })
            .collect();
        writeln!(
            out,
            "#{} nn={:.3} matched={} occurrences={} tid={} deps={}",
            i + 1,
            c.output,
            c.matched,
            c.occurrences,
            c.tid,
            deps.join(",")
        )
        .expect("string write");
    }
    out
}

/// The expected DIAGNOSIS text of a failing trace.
pub fn expected_diagnosis(model: &Model, bug: &str, trace_bytes: &[u8]) -> String {
    let trace = act_trace::io::trace_from_bytes(trace_bytes).expect("generated trace parses");
    let diag = act_core::diagnosis::diagnose_trace(
        &model.store,
        &model.correct,
        &trace,
        model.norm_code_len,
    );
    render(bug, &diag)
}

/// The STORED summary a TRACE_PUT of `key` answers with.
pub fn stored_summary(key: &str, info: &act_store::EntryInfo) -> String {
    format!(
        "stored {} ({} records, {} -> {} bytes, {:.2}x)",
        key,
        info.records,
        info.raw_bytes,
        info.encoded_bytes,
        info.raw_bytes as f64 / info.encoded_bytes.max(1) as f64
    )
}
