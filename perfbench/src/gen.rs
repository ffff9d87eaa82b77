//! Workload inputs, generated from the workload seed before any set-up
//! starts: which bugs, which failing-trace and correct-trace seeds, and
//! the order and kind of every request.

use act_rng::rngs::StdRng;
use act_rng::seq::SliceRandom;
use act_rng::{Rng, SeedableRng};
use act_workloads::registry;

/// The four Table V bugs with the smallest failing traces (0.3–0.9 KB).
pub const SMALL_BUGS: [&str; 4] = ["seq", "gzip", "ptx", "paste"];

/// Correct-run traces generated per bug (TRACE_PUT payloads and, all of
/// them stored first, TRACE_GET targets).
const CORRECT_PER_BUG: usize = 2;

/// Request kinds of the serving traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// DIAGNOSE of a failing trace.
    Diagnose,
    /// TRACE_PUT of a correct-run trace.
    Put,
    /// TRACE_GET of a key put before the traffic started.
    Get,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 3] = [Kind::Diagnose, Kind::Put, Kind::Get];

    /// Lower-case label used in metric names.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Diagnose => "diagnose",
            Kind::Put => "put",
            Kind::Get => "get",
        }
    }
}

/// One generated trace: the bug it belongs to and its `acttrace v1` text
/// bytes.
#[derive(Debug, Clone)]
pub struct Payload {
    /// Table V bug (workload name).
    pub bug: &'static str,
    /// Serialized trace.
    pub bytes: Vec<u8>,
}

/// One request of the open-loop schedule.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Request kind.
    pub kind: Kind,
    /// Index into [`Inputs::failing`] (DIAGNOSE) or [`Inputs::correct`]
    /// (PUT, and GET of the copy stored before the traffic).
    pub index: usize,
}

/// Everything a serving run sends, fixed by the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Bugs whose models the workload needs.
    pub bugs: Vec<&'static str>,
    /// Failing traces (DIAGNOSE payloads).
    pub failing: Vec<Payload>,
    /// Correct-run traces: TRACE_PUT payloads, and all stored before the
    /// traffic as TRACE_GET targets.
    pub correct: Vec<Payload>,
    /// DIAGNOSE order of the closed-loop phase (cycled).
    pub closed_order: Vec<usize>,
    /// The open-loop schedule.
    pub open: Vec<Op>,
    /// When each open-loop request is due, in seconds from the start.
    pub due_s: Vec<f64>,
    /// Open-loop rate in requests per second.
    pub rate: f64,
}

/// Shape of a serving workload's traffic.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Bugs the traffic draws from.
    pub bugs: &'static [&'static str],
    /// Failing traces generated per bug.
    pub failing_per_bug: usize,
    /// Open-loop rate (requests per second).
    pub rate: f64,
}

/// Generate a workload's inputs from `seed`: `open_secs` seconds' worth
/// of open-loop requests at the shape's rate, DIAGNOSE:PUT:GET = 3:1:1.
pub fn generate(shape: &Shape, seed: u64, open_secs: f64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut failing_jobs = Vec::new();
    let mut correct_jobs = Vec::new();
    for &bug in shape.bugs {
        for _ in 0..shape.failing_per_bug {
            failing_jobs.push((bug, rng.gen_range(0..1_000_000u64)));
        }
        correct_jobs.push((bug, rng.gen_range(0..1_000_000u64)));
    }
    let failing = act_fleet::parallel_map(&failing_jobs, 2, |_, &(bug, seed)| Payload {
        bug,
        bytes: act_bench::campaign::failing_trace_bytes(bug, seed),
    });
    let per_bug = CORRECT_PER_BUG;
    let correct = act_fleet::parallel_map(&correct_jobs, 2, |_, &(bug, seed)| {
        let w = registry::by_name(bug).expect("Table V bug is registered");
        // Clean runs of a bug workload can still go wrong; try enough
        // seeds to keep `per_bug` correct ones.
        let traces = act_bench::collect_clean_traces(w.as_ref(), seed..seed + 4 * per_bug as u64);
        assert!(traces.len() >= per_bug, "{bug}: too few correct runs from seed {seed}");
        traces
            .iter()
            .take(per_bug)
            .map(|t| Payload { bug, bytes: act_trace::io::trace_to_bytes(t) })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect::<Vec<_>>();

    // Closed loop: round k sends every bug's k-th failing trace, bugs in
    // a fresh seeded order per round, so any seed gives the same mix of
    // neighbouring models (which the server's coalescing depends on).
    let n_bugs = shape.bugs.len();
    let mut closed_order = Vec::with_capacity(failing.len());
    for k in 0..shape.failing_per_bug {
        let mut bugs: Vec<usize> = (0..n_bugs).collect();
        bugs.shuffle(&mut rng);
        closed_order.extend(bugs.into_iter().map(|b| b * shape.failing_per_bug + k));
    }
    // Blocks of five requests (three DIAGNOSE, one PUT, one GET) in a
    // seeded order within each block, and every payload used equally
    // often: the seed picks the order, never the proportions, and every
    // stretch of the stream carries the same mix.
    let n_open = (shape.rate * open_secs).round().max(5.0) as usize;
    let mut kinds = Vec::with_capacity(n_open + 5);
    while kinds.len() < n_open {
        let mut block = [Kind::Diagnose, Kind::Diagnose, Kind::Diagnose, Kind::Put, Kind::Get];
        block.shuffle(&mut rng);
        kinds.extend(block);
    }
    kinds.truncate(n_open);
    let mut decks = [Deck::new(failing.len()), Deck::new(correct.len()), Deck::new(correct.len())];
    let open = kinds
        .into_iter()
        .map(|kind| Op { kind, index: decks[kind as usize].draw(&mut rng) })
        .collect();
    // One fixed rate: request i is due i / rate seconds in.
    let due_s = (0..n_open).map(|i| i as f64 / shape.rate).collect();
    Inputs {
        bugs: shape.bugs.to_vec(),
        failing,
        correct,
        closed_order,
        open,
        due_s,
        rate: shape.rate,
    }
}

/// Draws every index of `0..n` once, in a fresh seeded order per pass.
struct Deck {
    order: Vec<usize>,
    next: usize,
}

impl Deck {
    fn new(n: usize) -> Deck {
        Deck { order: (0..n).collect(), next: n }
    }

    fn draw(&mut self, rng: &mut StdRng) -> usize {
        if self.next == self.order.len() {
            self.order.shuffle(rng);
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}
