//! The job pipelines, from source text to emitted bytes.
//!
//! Each function here is one job as the `cfa` command performing it
//! would run it, with a span around every call into a layer's public
//! functions: `syntax.parse` (`parse_program`), `syntax.cps`
//! (`cps_convert`), `engine.analyze` (`analyze_*` — fixpoint plus
//! result assembly), `engine.parallel` (`run_fixpoint_parallel_on`),
//! `canon.render` (`canon_*`), `canon.serialize` (`to_json`),
//! `races.client` (`races_*`), `races.render` (`render_json`),
//! `callgraph.render` (`CallGraph` construction and dot output),
//! `pool.submit` and `pool.wait` (`submit_kcfa`, `KcfaJob::wait`).
//! Dropping a layer's result is charged to that layer (`*.free`).

use crate::trace::Tracer;
use cfa_core::engine::{EngineLimits, EvalMode, FixpointResult, Status};
use cfa_core::flatcfa::{FlatCfaMachine, FlatPolicy};
use cfa_core::kcfa::KCfaMachine;
use cfa_core::{Analysis, AnalysisPool, Metrics};
use cfa_syntax::cps::CpsProgram;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

/// Counts and layer timings one job reports from the public result
/// fields (`FixpointResult`, `SchedStats`, `Metrics`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    /// CPS terms in the program.
    pub terms: u64,
    /// Distinct configurations reached.
    pub configs: u64,
    /// Distinct environments (when result assembly ran).
    pub distinct_envs: Option<u64>,
    /// Output bytes (snapshot JSON, race report JSON, or reply).
    pub bytes: u64,
    /// Races reported (race jobs only).
    pub races: Option<u64>,
    /// Configuration evaluations.
    pub iterations: u64,
    /// Pops the epoch gate skipped.
    pub skipped: u64,
    /// Dependent re-enqueues.
    pub wakeups: u64,
    /// Facts added across all joins.
    pub delta_facts: u64,
    /// Approximate store-resident bytes at quiescence.
    pub store_bytes: u64,
    /// Successful steals.
    pub steals: u64,
    /// Steal attempts that found nothing.
    pub failed_steals: u64,
    /// Idle scheduler spins.
    pub idle_spins: u64,
    /// Inter-worker message batches delivered.
    pub inbox_batches: u64,
    /// Non-empty inbox drains.
    pub inbox_drains: u64,
    /// The fixpoint's own wall time (`FixpointResult::elapsed`).
    pub fixpoint: Duration,
    /// Pool admission wait (`FixpointResult::queue_wait`).
    pub queue_wait: Duration,
    /// Abstract values reaching `%halt` (when result assembly ran).
    pub halt: Option<BTreeSet<String>>,
}

impl Counts {
    fn engine<C, A, V>(&mut self, fix: &FixpointResult<C, A, V>) {
        self.configs = fix.config_count() as u64;
        self.iterations = fix.iterations;
        self.skipped = fix.skipped;
        self.wakeups = fix.wakeups;
        self.delta_facts = fix.delta_facts;
        self.store_bytes = fix.sched.store_resident_bytes;
        self.steals = fix.sched.steals;
        self.failed_steals = fix.sched.failed_steals;
        self.idle_spins = fix.sched.idle_spins;
        self.inbox_batches = fix.sched.inbox_batches;
        self.inbox_drains = fix.sched.inbox_drains;
        self.fixpoint = fix.elapsed;
        self.queue_wait = fix.queue_wait;
    }

    fn metrics(&mut self, m: &Metrics) {
        self.distinct_envs = Some(m.distinct_envs as u64);
        self.halt = Some(m.halt_values.clone());
    }
}

/// A finished job: its emitted bytes and counts.
#[derive(Debug)]
pub struct Output {
    /// The bytes the command would print.
    pub text: String,
    /// What the job reports.
    pub counts: Counts,
}

/// Why a job produced no output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Failure {
    /// The source did not compile.
    Compile(String),
    /// The fixpoint stopped early: budget, cancellation or abort.
    Stopped(String),
    /// The server answered `err`, closed, or sent something malformed.
    Protocol(String),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Compile(e) => write!(f, "compile error: {e}"),
            Failure::Stopped(s) => write!(f, "analysis stopped: {s}"),
            Failure::Protocol(e) => write!(f, "protocol: {e}"),
        }
    }
}

/// The limits every job runs under: the default engine limits plus the
/// per-job time budget.
pub fn limits(budget: Duration) -> EngineLimits {
    EngineLimits {
        time_budget: Some(budget),
        ..EngineLimits::default()
    }
}

fn complete(status: &Status) -> Result<(), Failure> {
    if status.is_complete() {
        Ok(())
    } else {
        Err(Failure::Stopped(format!("{status:?}")))
    }
}

/// Parse → CPS, each in its own span.
pub fn compile(src: &str, tr: &mut Tracer) -> Result<CpsProgram, Failure> {
    let scm = tr
        .time("syntax.parse", || cfa_syntax::parse_program(src))
        .map_err(|e| Failure::Compile(e.to_string()))?;
    let cps = tr.time("syntax.cps", || cfa_syntax::cps_convert(&scm));
    tr.time("syntax.free", || drop(scm));
    Ok(cps)
}

/// The `cfa dump` job on the sequential engine: parse → CPS →
/// `analyze_*` → `canon_*` → `to_json`.
pub fn dump(
    src: &str,
    analysis: Analysis,
    budget: Duration,
    tr: &mut Tracer,
) -> Result<Output, Failure> {
    let program = compile(src, tr)?;
    let mut counts = Counts {
        terms: program.term_count() as u64,
        ..Counts::default()
    };
    let canonical = "complete fixpoints are canonicalizable";
    let snapshot = match analysis {
        Analysis::KCfa { k } => {
            let r = tr.time("engine.analyze", || {
                cfa_core::analyze_kcfa(&program, k, limits(budget))
            });
            counts.engine(&r.fixpoint);
            counts.metrics(&r.metrics);
            complete(&r.fixpoint.status)?;
            let snap = tr.time("canon.render", || {
                cfa_core::canon_kcfa(&program, k, &r.fixpoint).expect(canonical)
            });
            tr.time("engine.free", || drop(r));
            snap
        }
        Analysis::MCfa { m } => {
            let r = tr.time("engine.analyze", || {
                cfa_core::analyze_mcfa(&program, m, limits(budget))
            });
            counts.engine(&r.fixpoint);
            counts.metrics(&r.metrics);
            complete(&r.fixpoint.status)?;
            let snap = tr.time("canon.render", || {
                cfa_core::canon_mcfa(&program, m, &r.fixpoint).expect(canonical)
            });
            tr.time("engine.free", || drop(r));
            snap
        }
        Analysis::PolyKCfa { k } => {
            let r = tr.time("engine.analyze", || {
                cfa_core::analyze_poly_kcfa(&program, k, limits(budget))
            });
            counts.engine(&r.fixpoint);
            counts.metrics(&r.metrics);
            complete(&r.fixpoint.status)?;
            let snap = tr.time("canon.render", || {
                cfa_core::canon_poly_kcfa(&program, k, &r.fixpoint).expect(canonical)
            });
            tr.time("engine.free", || drop(r));
            snap
        }
    };
    let text = tr.time("canon.serialize", || snapshot.to_json());
    tr.time("canon.free", || drop(snapshot));
    counts.bytes = text.len() as u64;
    Ok(Output { text, counts })
}

/// The `cfa dump --backend sharded --threads N` job: parse → CPS →
/// `run_fixpoint_parallel_on::<Sharded>` → `canon_*` → `to_json`.
pub fn dump_parallel(
    src: &str,
    analysis: Analysis,
    threads: usize,
    budget: Duration,
    tr: &mut Tracer,
) -> Result<Output, Failure> {
    use cfa_core::{run_fixpoint_parallel_on, Sharded};
    let program = compile(src, tr)?;
    let mut counts = Counts {
        terms: program.term_count() as u64,
        ..Counts::default()
    };
    let canonical = "complete fixpoints are canonicalizable";
    let mode = EvalMode::SemiNaive;
    let snapshot = match analysis {
        Analysis::KCfa { k } => {
            let r = tr.time("engine.parallel", || {
                run_fixpoint_parallel_on::<Sharded, _>(
                    &mut KCfaMachine::new(&program, k),
                    threads,
                    limits(budget),
                    mode,
                )
            });
            counts.engine(&r);
            complete(&r.status)?;
            let snap = tr.time("canon.render", || {
                cfa_core::canon_kcfa(&program, k, &r).expect(canonical)
            });
            tr.time("engine.free", || drop(r));
            snap
        }
        Analysis::MCfa { m: bound } | Analysis::PolyKCfa { k: bound } => {
            let policy = match analysis {
                Analysis::MCfa { .. } => FlatPolicy::TopMFrames,
                _ => FlatPolicy::LastKCalls,
            };
            let r = tr.time("engine.parallel", || {
                run_fixpoint_parallel_on::<Sharded, _>(
                    &mut FlatCfaMachine::new(&program, bound, policy),
                    threads,
                    limits(budget),
                    mode,
                )
            });
            counts.engine(&r);
            complete(&r.status)?;
            let snap = tr.time("canon.render", || match analysis {
                Analysis::MCfa { .. } => cfa_core::canon_mcfa(&program, bound, &r),
                _ => cfa_core::canon_poly_kcfa(&program, bound, &r),
            });
            tr.time("engine.free", || drop(r));
            snap.expect(canonical)
        }
    };
    let text = tr.time("canon.serialize", || snapshot.to_json());
    tr.time("canon.free", || drop(snapshot));
    counts.bytes = text.len() as u64;
    Ok(Output { text, counts })
}

/// The `cfa races --json` job: parse → CPS → `analyze_*` → `races_*`
/// → `render_json`.
pub fn races(
    src: &str,
    analysis: Analysis,
    budget: Duration,
    tr: &mut Tracer,
) -> Result<Output, Failure> {
    let program = compile(src, tr)?;
    let mut counts = Counts {
        terms: program.term_count() as u64,
        ..Counts::default()
    };
    let report = match analysis {
        Analysis::KCfa { k } => {
            let r = tr.time("engine.analyze", || {
                cfa_core::analyze_kcfa(&program, k, limits(budget))
            });
            counts.engine(&r.fixpoint);
            counts.metrics(&r.metrics);
            complete(&r.fixpoint.status)?;
            let report = tr.time("races.client", || {
                cfa_core::races_kcfa(&program, k, &r.fixpoint)
            });
            tr.time("engine.free", || drop(r));
            report
        }
        Analysis::MCfa { m } => {
            let r = tr.time("engine.analyze", || {
                cfa_core::analyze_mcfa(&program, m, limits(budget))
            });
            counts.engine(&r.fixpoint);
            counts.metrics(&r.metrics);
            complete(&r.fixpoint.status)?;
            let report = tr.time("races.client", || {
                cfa_core::races_mcfa(&program, m, &r.fixpoint)
            });
            tr.time("engine.free", || drop(r));
            report
        }
        Analysis::PolyKCfa { k } => {
            let r = tr.time("engine.analyze", || {
                cfa_core::analyze_poly_kcfa(&program, k, limits(budget))
            });
            counts.engine(&r.fixpoint);
            counts.metrics(&r.metrics);
            complete(&r.fixpoint.status)?;
            let report = tr.time("races.client", || {
                cfa_core::races_poly_kcfa(&program, k, &r.fixpoint)
            });
            tr.time("engine.free", || drop(r));
            report
        }
    };
    counts.races = Some(report.races.len() as u64);
    let text = tr.time("races.render", || report.render_json());
    tr.time("races.free", || drop(report));
    counts.bytes = text.len() as u64;
    Ok(Output { text, counts })
}

/// The header line and payload `cfa serve` answers a request with,
/// without the request id.
pub fn reply_body(
    query: crate::cells::Query,
    k: usize,
    program: &CpsProgram,
    r: &cfa_core::KcfaResult,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> String {
    use crate::cells::Query;
    match query {
        Query::Callgraph => tr.time("callgraph.render", || {
            let graph = cfa_core::callgraph::CallGraph::from_metrics(program, &r.metrics);
            format!(
                "callgraph k={k} sites={} edges={}\n{}",
                graph.site_count(),
                graph.edge_count(),
                graph.to_dot(program)
            )
        }),
        Query::Races => {
            let report = tr.time("races.client", || {
                cfa_core::races_kcfa(program, k, &r.fixpoint)
            });
            counts.races = Some(report.races.len() as u64);
            let json = tr.time("races.render", || report.render_json());
            format!("races k={k} count={}\n{json}\n", report.races.len())
        }
    }
}

/// A request submitted to an in-process pool, as `cfa serve` holds it.
#[derive(Debug)]
pub struct Submitted {
    program: Arc<CpsProgram>,
    job: cfa_core::kcfa::KcfaJob,
    counts: Counts,
}

/// The first half of a `serve` request in process: compile and
/// `submit_kcfa` on the server's default backend.
pub fn serve_submit(
    pool: &AnalysisPool,
    src: &str,
    k: usize,
    budget: Duration,
    tr: &mut Tracer,
) -> Result<Submitted, Failure> {
    let program = Arc::new(compile(src, tr)?);
    let counts = Counts {
        terms: program.term_count() as u64,
        ..Counts::default()
    };
    let job = tr.time("pool.submit", || {
        cfa_core::kcfa::submit_kcfa::<cfa_core::Replicated>(
            pool,
            Arc::clone(&program),
            k,
            limits(budget),
        )
    });
    Ok(Submitted {
        program,
        job,
        counts,
    })
}

/// The second half: `KcfaJob::wait`, then callgraph or race rendering.
pub fn serve_finish(
    submitted: Submitted,
    query: crate::cells::Query,
    k: usize,
    tr: &mut Tracer,
) -> Result<Output, Failure> {
    let Submitted {
        program,
        job,
        mut counts,
    } = submitted;
    let r = tr.time("pool.wait", || job.wait());
    counts.engine(&r.fixpoint);
    counts.metrics(&r.metrics);
    complete(&r.fixpoint.status)?;
    let text = reply_body(query, k, &program, &r, tr, &mut counts);
    tr.time("engine.free", || drop(r));
    counts.bytes = text.len() as u64;
    Ok(Output { text, counts })
}
