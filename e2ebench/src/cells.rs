//! The four workloads and the seeded inputs each one runs.
//!
//! The program under test only ever sees generated source text: the
//! benchmark draws it from `cfa_workloads` (the paper suite, the
//! extended suite, the worst-case family, the seeded random families)
//! and from the golden concurrent programs. The workload seed picks the
//! random programs and the order of every pass; the same seed gives the
//! same job list.

use cfa_core::Analysis;
use cfa_testsupport::{golden_racy_programs, golden_slug, golden_synchronized_programs};

/// Which pipeline a workload drives.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Parse → CPS → sequential fixpoint → canon → JSON, one job at a time.
    Dump,
    /// Parse → CPS → fixpoint → race client → JSON, one job at a time.
    Races,
    /// The `cfa serve` binary over its stdin protocol, a fixed window
    /// of requests outstanding.
    Serve,
    /// The dump pipeline on the heavy cells through the sharded
    /// parallel backend at the host's parallelism.
    Parallel,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Dump,
        Workload::Races,
        Workload::Serve,
        Workload::Parallel,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Dump => "dump",
            Workload::Races => "races",
            Workload::Serve => "serve",
            Workload::Parallel => "parallel",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            // Canon rendering and serialization are about half of each
            // heavy cell and the fixpoint the rest; races and the pool
            // are bypassed, so a race-client change predicts no move
            // here. The worst-case cells carry the paradox itself.
            Workload::Dump => {
                "canon rendering and serialization after a sequential fixpoint; \
                 no race client, no pool"
            }
            // The race client re-steps every configuration and dominates
            // heavy cells; canon is bypassed (dump is the control).
            Workload::Races => "the race client's re-step of every configuration; no canon",
            // The only workload on the analysis pool (every tenant runs
            // on fabric@1): queue wait and in-order replies shape the
            // tail; the sequential engine and canon are bypassed.
            Workload::Serve => "the pooled server: queue wait, fabric@1 tenants, in-order replies",
            // The only workload on the intra-analysis parallel engine
            // (fabric steal and inbox paths, the sharded store); the
            // same cells run sequentially in `dump`.
            Workload::Parallel => {
                "the sharded parallel engine at host parallelism on the heavy cells"
            }
        }
    }
}

/// One generated source program.
#[derive(Clone, Debug)]
pub struct Source {
    /// Slug naming the program (golden-file style).
    pub name: String,
    /// Mini-Scheme source text.
    pub text: String,
    /// Whether the concrete interpreter is an oracle for the program:
    /// it is thread-free, so its run is deterministic, and small enough
    /// to run concretely on the main thread's stack.
    pub oracle: bool,
    /// Whether the program is drawn from a seeded random family (its
    /// expected outputs are not recorded in the expected file).
    pub random: bool,
}

/// One one-shot job: a program under one analysis.
#[derive(Clone, Debug)]
pub struct Cell {
    /// `program--analysis`, e.g. `scm2c--k-1`.
    pub key: String,
    /// Index into [`Inputs::programs`].
    pub program: usize,
    /// The analysis to run.
    pub analysis: Analysis,
}

/// What a `serve` request asks for.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Query {
    /// `callgraph k=N`.
    Callgraph,
    /// `races k=N`.
    Races,
}

impl Query {
    /// The protocol keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            Query::Callgraph => "callgraph",
            Query::Races => "races",
        }
    }
}

/// One `serve` request.
#[derive(Clone, Debug)]
pub struct Request {
    /// `query--program--k-N`, e.g. `races--scm2c--k-1`.
    pub key: String,
    /// Index into [`Inputs::programs`].
    pub program: usize,
    /// What to compute.
    pub query: Query,
    /// Context depth.
    pub k: usize,
}

/// Everything one workload runs, before any pass ordering.
#[derive(Clone, Debug, Default)]
pub struct Inputs {
    /// The distinct source programs.
    pub programs: Vec<Source>,
    /// One-shot cells (`dump`, `races`, `parallel`).
    pub cells: Vec<Cell>,
    /// Server requests (`serve`).
    pub requests: Vec<Request>,
}

/// Seeded random programs per pass in `races` (concurrent family).
pub const RACES_RANDOM: usize = 32;
/// Seeded random programs per pass in `serve` (sequential family, and
/// again the concurrent family).
pub const SERVE_RANDOM: usize = 12;
/// Largest worst-case size in the `serve` stream.
pub const SERVE_WORST_MAX: usize = 10;
/// Generator size for seeded random sequential programs.
const RANDOM_SIZE: usize = 30;
/// Generator size for seeded random concurrent programs.
const RANDOM_CONCURRENT_SIZE: usize = 25;

/// The worst-case sizes run under k=1 in `dump`: k=1 environments
/// at least double per step here.
pub const WORST_K1: [usize; 3] = [10, 11, 12];
/// The worst-case sizes run under m=1 and poly k=1 in `dump`, where
/// both stay polynomial.
pub const WORST_FLAT: [usize; 3] = [32, 48, 64];

/// SplitMix64: a small, fixed, seedable generator for pass orders and
/// random-program seeds.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A Fisher–Yates shuffle of `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The golden-file slug of an analysis, e.g. `k-1`, `poly-k-1`.
pub fn analysis_slug(analysis: Analysis) -> String {
    golden_slug(&analysis.short_name())
}

fn cell_key(program: &str, analysis: Analysis) -> String {
    format!("{program}--{}", analysis_slug(analysis))
}

/// The worst-case program's slug for size `n`.
pub fn worst_name(n: usize) -> String {
    format!("worst-{n}")
}

#[derive(Default)]
struct Builder {
    inputs: Inputs,
}

impl Builder {
    fn program(&mut self, name: &str, text: String, oracle: bool, random: bool) -> usize {
        if let Some(i) = self.inputs.programs.iter().position(|p| p.name == name) {
            return i;
        }
        self.inputs.programs.push(Source {
            name: name.to_owned(),
            text,
            oracle,
            random,
        });
        self.inputs.programs.len() - 1
    }

    fn cell(&mut self, program: usize, analysis: Analysis) {
        let key = cell_key(&self.inputs.programs[program].name, analysis);
        self.inputs.cells.push(Cell {
            key,
            program,
            analysis,
        });
    }

    fn request(&mut self, program: usize, query: Query, k: usize) {
        let key = format!(
            "{}--{}--k-{k}",
            query.keyword(),
            self.inputs.programs[program].name
        );
        self.inputs.requests.push(Request {
            key,
            program,
            query,
            k,
        });
    }

    fn suite(&mut self, extended: bool) -> Vec<usize> {
        let mut progs = cfa_workloads::suite();
        if extended {
            progs.extend(cfa_workloads::extended_suite());
        }
        progs
            .into_iter()
            .map(|p| self.program(&golden_slug(p.name), p.source.to_owned(), true, false))
            .collect()
    }

    fn worst(&mut self, n: usize) -> usize {
        // Thread-free, but from n = 16 its concrete run recurses past
        // the main thread's stack (`cfa run` aborts the same way), and
        // `dump` uses n up to 64.
        self.program(
            &worst_name(n),
            cfa_workloads::worst_case_source(n),
            false,
            false,
        )
    }

    /// A suite, extended-suite or worst-case program by slug.
    fn named(&mut self, name: &str) -> usize {
        if let Some(n) = name.strip_prefix("worst-") {
            return self.worst(n.parse().expect("worst-case size"));
        }
        let p = cfa_workloads::suite()
            .into_iter()
            .chain(cfa_workloads::extended_suite())
            .find(|p| golden_slug(p.name) == name)
            .expect("a suite program");
        self.program(name, p.source.to_owned(), true, false)
    }

    fn golden_concurrent(&mut self) -> Vec<usize> {
        golden_racy_programs()
            .iter()
            .chain(golden_synchronized_programs())
            .map(|&(name, src)| self.program(&golden_slug(name), src.to_owned(), false, false))
            .collect()
    }

    fn random_concurrent(&mut self, rng: &mut Rng, count: usize) -> Vec<usize> {
        (0..count)
            .map(|_| {
                let s = rng.next_u64() % 1_000_000;
                self.program(
                    &format!("rconc-{s}"),
                    cfa_workloads::random_concurrent_program(s, RANDOM_CONCURRENT_SIZE),
                    false,
                    true,
                )
            })
            .collect()
    }

    fn random_sequential(&mut self, rng: &mut Rng, count: usize) -> Vec<usize> {
        (0..count)
            .map(|_| {
                let s = rng.next_u64() % 1_000_000;
                self.program(
                    &format!("rseq-{s}"),
                    cfa_workloads::random_program(s, RANDOM_SIZE),
                    true,
                    true,
                )
            })
            .collect()
    }
}

/// The heavy cells `parallel` runs (and `dump` runs sequentially).
pub fn heavy_cells() -> [(&'static str, Analysis); 4] {
    [
        ("scm2c", Analysis::KCfa { k: 1 }),
        ("scm2c", Analysis::KCfa { k: 2 }),
        ("interp", Analysis::KCfa { k: 2 }),
        ("worst-12", Analysis::KCfa { k: 1 }),
    ]
}

/// The inputs of `workload` under `seed`.
pub fn inputs(workload: Workload, seed: u64) -> Inputs {
    let mut b = Builder::default();
    let mut rng = Rng::new(seed ^ 0x005e_ed0f_e2eb);
    match workload {
        Workload::Dump => {
            for p in b.suite(true) {
                for a in Analysis::paper_panel() {
                    b.cell(p, a);
                }
            }
            for n in WORST_K1 {
                let p = b.worst(n);
                b.cell(p, Analysis::KCfa { k: 1 });
            }
            for n in WORST_FLAT {
                let p = b.worst(n);
                b.cell(p, Analysis::MCfa { m: 1 });
                b.cell(p, Analysis::PolyKCfa { k: 1 });
            }
            // The heavy cells not already in the panel.
            for (name, a) in heavy_cells() {
                if !b.inputs.cells.iter().any(|c| c.key == cell_key(name, a)) {
                    let p = b.named(name);
                    b.cell(p, a);
                }
            }
        }
        Workload::Races => {
            for p in b.suite(false) {
                b.cell(p, Analysis::KCfa { k: 1 });
                b.cell(p, Analysis::MCfa { m: 1 });
            }
            for p in b.golden_concurrent() {
                b.cell(p, Analysis::KCfa { k: 1 });
                b.cell(p, Analysis::MCfa { m: 1 });
            }
            for p in b.random_concurrent(&mut rng, RACES_RANDOM) {
                b.cell(p, Analysis::KCfa { k: 1 });
            }
        }
        Workload::Serve => {
            for p in b.suite(false) {
                b.request(p, Query::Callgraph, 1);
                b.request(p, Query::Races, 1);
            }
            for n in 1..=SERVE_WORST_MAX {
                let p = b.worst(n);
                b.request(p, Query::Callgraph, 1);
            }
            for p in b.random_sequential(&mut rng, SERVE_RANDOM) {
                b.request(p, Query::Callgraph, 1);
            }
            for p in b.random_concurrent(&mut rng, SERVE_RANDOM) {
                b.request(p, Query::Races, 1);
            }
        }
        Workload::Parallel => {
            for (name, a) in heavy_cells() {
                let p = b.named(name);
                b.cell(p, a);
            }
        }
    }
    b.inputs
}

/// The order of pass `pass` over `len` jobs of `workload` under `seed`.
///
/// `serve` answers in request order, so its order sets which requests
/// share the pool and wait behind which: every pass sends one fixed
/// order, and the seed picks only its random programs. The one-shot
/// workloads run one job at a time and take each pass's order from the
/// seed.
pub fn pass_order(workload: Workload, seed: u64, pass: u64, len: usize) -> Vec<usize> {
    let (seed, pass) = if workload == Workload::Serve {
        (0, 0)
    } else {
        (seed, pass)
    };
    let mut order: Vec<usize> = (0..len).collect();
    Rng::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(pass)).shuffle(&mut order);
    order
}
