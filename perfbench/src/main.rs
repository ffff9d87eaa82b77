//! `perfbench` — the end-to-end benchmark of this repository.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --act PATH
//! ```
//!
//! Workloads (see `perfbench/README.md` for why each exists):
//!
//! - `gate_small`: one `act gate` over two `act serve`, the four small
//!   bugs' traces, DIAGNOSE:TRACE_PUT:TRACE_GET = 3:1:1 at 400 req/s.
//! - `tablev_pipeline`: the `table5` campaign at `--jobs 2`, and a stream
//!   of all 11 Table V bugs' traces (same mix, 100 req/s) sent to one
//!   `act serve`.
//!
//! Both run the same phases (see [`serve::run`]), so every run reports
//! every end-to-end metric.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with spans and prints the per-layer metrics. The last line of
//! standard output is the JSON result. The exit code is 1 when an output
//! check failed and 2 on bad arguments or a run that could not finish.

mod daemon;
mod gen;
mod load;
mod pipeline;
mod reference;
mod report;
mod serve;
mod service;
mod spans;
mod stats;

use gen::{Shape, SMALL_BUGS};
use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics every run reports with `--trace 0`. The closed-loop
/// `diagnose_rps` and the open-loop latencies are printed but not among
/// them: at this commit they follow the transport's stalls and the host's
/// wake-up latency from run to run (see README.md).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("cpu_us_per_req", "us"),
    ("peak_rss_mb", "MB"),
    ("tablev_wall_s", "s"),
    ("tablev_rank1", "count"),
];

/// Per-layer metrics every run reports with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("trace.parse_us", "us"),
    ("trace.parse_mb_s", "MB/s"),
    ("trace.render_us", "us"),
    ("trace.overhead_pct", "%"),
    ("classify.us", "us"),
    ("classify.windows", "count"),
    ("classify.flagged", "count"),
    ("postprocess.us", "us"),
    ("postprocess.ranked", "count"),
    ("proto.decode_us", "us"),
    ("proto.encode_us", "us"),
    ("cache.lookup_us", "us"),
    ("cache.train_s", "s"),
    ("cache.hit_ratio", "ratio"),
    ("serve.service_us_p50", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.coalesce_ratio", "ratio"),
    ("serve.queue_depth_p50", "count"),
    ("serve.rejected_busy", "count"),
    ("serve.crashed", "count"),
    ("store.put_us", "us"),
    ("store.get_us", "us"),
    ("store.bytes_per_put", "bytes"),
    ("store.compression_ratio", "ratio"),
    ("transport.residual_ms_p50", "ms"),
    ("gen.late_ms_p90", "ms"),
    ("gate.hop_ms_p50", "ms"),
    ("gate.relayed", "count"),
    ("gate.failovers", "count"),
    ("gate.busy_failovers", "count"),
    ("gate.failed", "count"),
    ("sim.clean_runs_s", "s"),
    ("sim.cycles_per_s", "1/s"),
    ("offline.train_s", "s"),
    ("module.run_s", "s"),
    ("module.predictions", "count"),
    ("module.attempts", "count"),
    ("pipeline.diagnose_s", "s"),
    ("baselines.aviso_s", "s"),
    ("baselines.pbi_s", "s"),
];

/// What a workload serves and through which daemons.
pub struct Workload {
    /// The request traffic.
    pub shape: Shape,
    /// `act gate` in front of two `act serve`, or one `act serve` called
    /// directly.
    pub gateway: bool,
}

/// `gate_small`: the four small bugs, eight failing traces each, at
/// 400 req/s (well under the gateway's closed-loop capacity), through the
/// gateway.
pub const GATE_SMALL: Workload =
    Workload { shape: Shape { bugs: &SMALL_BUGS, failing_per_bug: 8, rate: 400.0 }, gateway: true };

/// `tablev_pipeline`: every Table V bug, three failing traces each, at
/// 100 req/s, to one `act serve`.
pub const TABLEV_PIPELINE: Workload = Workload {
    shape: Shape { bugs: &act_bench::campaign::TABLE5_BUGS, failing_per_bug: 3, rate: 100.0 },
    gateway: false,
};

/// Share of `--seconds` spent in the closed loop; the open loop gets the
/// rest.
pub const CLOSED_SHARE: f64 = 0.6;

/// The run's settings and scratch locations.
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Seconds of serving traffic (closed loop [`CLOSED_SHARE`], open loop
    /// the rest); the Table V campaigns come on top.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// The release `act` binary (`table5` is built next to it).
    pub act: PathBuf,
    /// Scratch directory for corpora, removed at the end.
    pub tmp: PathBuf,
    /// Where span files are written.
    pub out: PathBuf,
}

impl Ctx {
    /// Span file of the serving stream.
    pub fn spans_path(&self) -> PathBuf {
        self.out.join(format!("spans-{}-seed{}.jsonl", self.workload, self.seed))
    }
}

fn parse_args() -> Result<Ctx, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
    };
    let need = |flag: &str| get(flag).ok_or(format!("missing {flag}"));
    let workload = need("--workload")?;
    let seed = need("--seed")?.parse().map_err(|_| "bad --seed".to_string())?;
    let seconds: f64 = need("--seconds")?.parse().map_err(|_| "bad --seconds".to_string())?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match need("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace `{other}` (0 or 1)")),
    };
    let act = PathBuf::from(need("--act")?);
    // Scratch and span files stay inside the directory the benchmark runs
    // from (the repository root).
    let tmp = PathBuf::from(".bench_tmp").join(format!("{workload}-{}", std::process::id()));
    Ok(Ctx { workload, seed, seconds, trace, act, tmp, out: PathBuf::from(".bench_out") })
}

/// Removes the scratch directory when dropped.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.tmp) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.tmp.display());
        return ExitCode::from(2);
    }
    let _scratch = Scratch(ctx.tmp.clone());
    let mut report = Report::new(ctx.trace);
    let ran = match ctx.workload.as_str() {
        "gate_small" => serve::run(&ctx, &GATE_SMALL, &mut report),
        "tablev_pipeline" => serve::run(&ctx, &TABLEV_PIPELINE, &mut report),
        other => Err(format!("unknown workload `{other}`")),
    };
    if let Err(e) = ran {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    let expected: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    if report.finish(expected) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
