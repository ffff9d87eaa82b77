//! The Table V campaign of both workloads: the real `table5` binary run
//! as a child process, timed from spawn to exit with its peak resident
//! memory, and (traced) an in-process replica of its `diagnose` executor
//! with a span around each call into a layer.

use crate::daemon::vm_hwm_kb;
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::median;
use crate::Ctx;
use act_bench::campaign::TABLE5_BUGS;
use act_bench::{act_cfg_for, diagnose_workload, find_act_failure, machine_cfg, norm_of};
use act_core::weights::shared;
use act_sim::machine::Machine;
use act_trace::collector::TraceCollector;
use act_workloads::registry;
use act_workloads::spec::NORM_CODE_LEN;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// `--jobs` of the Table V campaign (the reference host's core count).
pub const JOBS: usize = 2;

/// Table V campaigns per run: `tablev_wall_s` is their median wall time
/// and every one must rank the bugs alike.
pub const CAMPAIGNS: usize = 3;

/// The `table5` campaigns of one run.
#[derive(Default)]
pub struct Campaigns {
    walls: Vec<f64>,
    ranks: Vec<BTreeMap<String, Option<i64>>>,
    peaks_mb: Vec<f64>,
}

impl Campaigns {
    /// Run `table5 --jobs JOBS --out FILE` once and read its report.
    pub fn run(&mut self, ctx: &Ctx, report: &mut Report) -> Result<(), String> {
        let out = ctx.tmp.join(format!("table5-{}.json", self.walls.len()));
        let out_arg = out.to_str().ok_or("scratch path is not UTF-8")?;
        let table5 = ctx.act.with_file_name("table5");
        let jobs = JOBS.to_string();
        let start = Instant::now();
        let (ok, peak_kb) = run_child(&table5, &["--jobs", &jobs, "--out", out_arg])?;
        self.walls.push(start.elapsed().as_secs_f64());
        self.peaks_mb.push(peak_kb as f64 / 1024.0);
        if !ok {
            report.problem("table5 exited with an error".into());
        }
        let json = std::fs::read_to_string(&out)
            .map_err(|e| format!("table5 report {}: {e}", out.display()))?;
        let jobs = parse_jobs(&json);
        if jobs.len() != TABLE5_BUGS.len() {
            report.problem(format!("table5 report lists {} jobs", jobs.len()));
        }
        let mut ranks = BTreeMap::new();
        for job in jobs {
            report.tally("campaign job", job.completed);
            if !job.completed {
                report.problem(format!("campaign job {} crashed", job.workload));
            }
            ranks.insert(job.workload, job.rank);
        }
        self.ranks.push(ranks);
        Ok(())
    }

    /// Peak resident memory of the largest campaign process, in MiB
    /// (which jobs overlap, and so the peak, varies from pass to pass).
    pub fn peak_mb(&self) -> f64 {
        self.peaks_mb.iter().copied().fold(0.0, f64::max)
    }

    /// Record `tablev_wall_s` and `tablev_rank1`; returns the ranks.
    pub fn finish(&self, report: &mut Report) -> BTreeMap<String, Option<i64>> {
        if self.ranks.iter().any(|r| *r != self.ranks[0]) {
            report.problem("Table V ranks differ between campaigns".into());
        }
        let ranks = self.ranks.first().cloned().unwrap_or_default();
        let rank1 = ranks.values().filter(|r| **r == Some(1)).count();
        report.line(format!("Table V campaigns (s): {:.3?}", self.walls));
        report.line(format!("Table V campaign peak RSS (MB): {:.1?}", self.peaks_mb));
        report.metric("tablev_wall_s", median(&self.walls), "s");
        report.metric("tablev_rank1", rank1 as f64, "count");
        ranks
    }
}

/// Run `program args` to completion with its output discarded; returns
/// whether it exited with status 0 and its peak resident set in KiB.
/// `VmHWM` is read every few milliseconds while it runs: `ru_maxrss` from
/// `wait4` would also count this process's own memory, which the child's
/// counter inherits at `fork` and keeps across `exec`.
fn run_child(program: &Path, args: &[&str]) -> Result<(bool, u64), String> {
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", program.display()))?;
    let status_path = format!("/proc/{}/status", child.id());
    let mut peak_kb = 0;
    loop {
        peak_kb = peak_kb.max(vm_hwm_kb(&status_path));
        match child.try_wait() {
            Ok(Some(status)) => return Ok((status.success(), peak_kb)),
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => return Err(format!("waiting for {}: {e}", program.display())),
        }
    }
}

/// One job of a `table5` JSON report.
struct Job {
    workload: String,
    completed: bool,
    rank: Option<i64>,
}

/// The jobs of a campaign report written by `--out` (flat objects under
/// `"jobs":[...]`; act-fleet writes them without whitespace).
fn parse_jobs(json: &str) -> Vec<Job> {
    let Some(from) = json.find("\"jobs\":[") else { return Vec::new() };
    let to = json[from..].find("],\"aggregate\"").map_or(json.len(), |i| from + i);
    let field = |job: &str, key: &str| -> Option<String> {
        let at = job.find(&format!("\"{key}\":"))? + key.len() + 3;
        let rest = &job[at..];
        Some(match rest.strip_prefix('"') {
            Some(s) => s[..s.find('"')?].to_string(),
            None => rest[..rest.find([',', '}']).unwrap_or(rest.len())].to_string(),
        })
    };
    json[from..to]
        .split("{\"id\":")
        .skip(1)
        .map(|job| Job {
            workload: field(job, "workload").unwrap_or_default(),
            completed: field(job, "outcome").as_deref() == Some("completed"),
            rank: field(job, "rank").and_then(|r| r.parse().ok()),
        })
        .collect()
}

/// Per-bug timings of the traced replica.
#[derive(Default)]
struct JobTimes {
    cycles: u64,
    predictions: u64,
    attempts: u64,
    rank: Option<i64>,
}

/// One Table V row as the `diagnose` campaign executor computes it, with
/// a span around each call into a layer.
fn traced_job(bug: &str, request: u64, tracer: &Tracer) -> JobTimes {
    let w = registry::by_name(bug).expect("Table V bug is registered");
    let w = w.as_ref();
    let cfg = act_cfg_for(w);
    let mut t = JobTimes::default();
    tracer.span(request, 0, "job", |root| {
        // train_workload: 10 correct runs out of seeds 0..20, then train.
        let traces = tracer.span(request, root, "sim.clean_runs", |_| {
            let mut traces = Vec::new();
            for seed in 0..20u64 {
                let built = w.build(&w.default_params().with_seed(seed));
                let mut collector = TraceCollector::new(NORM_CODE_LEN);
                let mut machine = Machine::new(&built.program, machine_cfg(seed));
                let outcome = machine.run_observed(&mut collector);
                t.cycles += machine.stats().total_cycles;
                if built.is_correct(&outcome) {
                    traces.push(collector.into_trace());
                }
            }
            traces.truncate(10);
            traces
        });
        let trained = tracer.span(request, root, "offline.train", |_| {
            act_core::offline::offline_train(norm_of(w), &traces, &cfg)
        });
        let mut row = None;
        for capacity in [cfg.debug_capacity, cfg.debug_capacity * 4] {
            let mut c = cfg.clone();
            c.debug_capacity = capacity;
            let store = shared(trained.store.clone());
            let failure =
                tracer.span(request, root, "module.run", |_| find_act_failure(w, &store, &c, 20));
            let Some(failure) = failure else { break };
            t.attempts += failure.attempts;
            t.predictions += failure.run.module_stats.iter().map(|s| s.predictions).sum::<u64>();
            let r = tracer.span(request, root, "pipeline.diagnose", |_| {
                diagnose_workload(w, &failure, trained.report.seq_len)
            });
            let ranked = r.rank.is_some();
            row = Some(r);
            if ranked {
                break;
            }
        }
        t.rank = row.and_then(|r| r.rank).map(|r| r as i64);
        tracer.span(request, root, "baselines.aviso", |_| act_bench::aviso_diagnose(w, 10));
        tracer.span(request, root, "baselines.pbi", |_| act_bench::pbi_diagnose(w));
    });
    t
}

/// Time the pipeline layers on a traced replica of the campaign's jobs,
/// checked to rank every bug as `table5` did.
pub fn traced_campaign(
    ctx: &Ctx,
    ranks: &BTreeMap<String, Option<i64>>,
    report: &mut Report,
) -> Result<(), String> {
    let tracer = Tracer::new(true);
    let ids: Vec<usize> = (0..TABLE5_BUGS.len()).collect();
    let start = Instant::now();
    let jobs = act_fleet::parallel_map(&ids, JOBS, |_, &i| {
        traced_job(TABLE5_BUGS[i], 2_000_000 + i as u64, &tracer)
    });
    let wall = start.elapsed().as_secs_f64();
    for (bug, job) in TABLE5_BUGS.iter().zip(&jobs) {
        let ok = ranks.get(*bug) == Some(&job.rank);
        if !ok {
            report.problem(format!(
                "traced replica of {bug} ranked {:?}, campaign {:?}",
                job.rank,
                ranks.get(*bug)
            ));
        }
        report.tally("replica job", ok);
    }
    let total_s = |name: &str| tracer.durations_us(name).iter().sum::<f64>() / 1e6;
    let sim_s = total_s("sim.clean_runs");
    report.layer("sim.clean_runs_s", sim_s, "s");
    let cycles: u64 = jobs.iter().map(|j| j.cycles).sum();
    report.layer("sim.cycles_per_s", cycles as f64 / sim_s.max(1e-9), "1/s");
    report.layer("offline.train_s", total_s("offline.train"), "s");
    report.layer("module.run_s", total_s("module.run"), "s");
    report.layer(
        "module.predictions",
        jobs.iter().map(|j| j.predictions).sum::<u64>() as f64,
        "count",
    );
    report.layer("module.attempts", jobs.iter().map(|j| j.attempts).sum::<u64>() as f64, "count");
    report.layer("pipeline.diagnose_s", total_s("pipeline.diagnose"), "s");
    report.layer("baselines.aviso_s", total_s("baselines.aviso"), "s");
    report.layer("baselines.pbi_s", total_s("baselines.pbi"), "s");
    report.line(format!("traced Table V replica: wall {wall:.3}s on {JOBS} workers"));
    report.breakdown(&tracer);
    let path = ctx.out.join(format!("spans-{}-seed{}-campaign.jsonl", ctx.workload, ctx.seed));
    tracer.write_jsonl(&path).map_err(|e| format!("cannot write spans: {e}"))
}
