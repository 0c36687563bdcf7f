//! One benchmark run: set-up, the timed closed loop, output checks,
//! and the metrics.

use crate::cells::{self, Inputs, Query, Workload};
use crate::check::{Expected, Verifier};
use crate::job::{self, Counts, Failure, Output};
use crate::serve::{self, Server};
use crate::stats;
use crate::trace::Tracer;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The expected file, relative to the repository root.
pub const EXPECTED_FILE: &str = "e2ebench/expected.tsv";

/// How to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured duration: whole passes run until it has elapsed.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end
    /// ones.
    pub trace: bool,
    /// Repository root (golden files and the expected file live here).
    pub root: PathBuf,
    /// The `cfa` binary, for `serve`.
    pub cfa_bin: Option<PathBuf>,
    /// The benchmark binary, which also serves the host probe
    /// ([`crate::calib`]).
    pub probe_bin: PathBuf,
    /// Per-job time budget.
    pub budget: Duration,
    /// Per-cell budget overrides, by cell or request key.
    pub cell_budgets: Vec<(String, Duration)>,
    /// Set-ups to time (the last one is kept).
    pub setups: usize,
    /// Exact number of passes, overriding `seconds`.
    pub passes: Option<u64>,
    /// Ignore the expected file (to regenerate it).
    pub bless: bool,
}

impl Options {
    /// Defaults for `workload`, rooted at `root`, probing the host with
    /// `probe_bin`.
    pub fn new(workload: Workload, root: PathBuf, probe_bin: PathBuf) -> Self {
        Options {
            workload,
            seed: 1,
            seconds: 10.0,
            trace: false,
            root,
            cfa_bin: None,
            probe_bin,
            budget: Duration::from_secs(20),
            cell_budgets: Vec::new(),
            setups: 3,
            passes: None,
            bless: false,
        }
    }

    fn budget_for(&self, key: &str) -> Duration {
        self.cell_budgets
            .iter()
            .find(|(k, _)| k == key)
            .map_or(self.budget, |&(_, b)| b)
    }
}

/// Per-job record.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Cell or request key.
    pub key: String,
    /// Latency, ms (at least the budget for a failed job).
    pub ms: f64,
    /// Whether the job completed and its output passed every check.
    pub ok: bool,
    /// Counts the job reported (default for failed jobs).
    pub counts: Counts,
    /// Whether the job ran with spans on.
    pub traced: bool,
}

/// What a run measured.
#[derive(Debug)]
pub struct Report {
    /// Workload run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// `available_parallelism`.
    pub host_cpus: usize,
    /// Engine threads (parallel) or pool threads (serve); 1 otherwise.
    pub threads: usize,
    /// Outstanding requests (serve); 1 otherwise.
    pub window: usize,
    /// Passes completed.
    pub passes: u64,
    /// Every job attempted, in order.
    pub jobs: Vec<JobRecord>,
    /// Check failures and job failures, first ones verbatim.
    pub problems: Vec<String>,
    /// Whether every produced output passed its checks.
    pub correct: bool,
    /// Wall time of the loop, s.
    pub wall_s: f64,
    /// Time the measured passes spent inside timed regions, s: the sum
    /// of job latencies for one-shot workloads, the passes' wall time
    /// for `serve`.
    pub busy_s: f64,
    /// CPU time of the analysing process inside timed regions, s.
    pub cpu_s: f64,
    /// Totals of each measured pass.
    pub pass_totals: Vec<PassTotals>,
    /// Each set-up's duration, s.
    pub setup_s: Vec<f64>,
    /// The untimed warm-up pass's duration, s.
    pub warmup_s: f64,
    /// Per-layer metrics (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// The spans of a traced run.
    pub spans: Option<Tracer>,
    /// Fingerprints recorded (for `--bless`).
    pub recorded: BTreeMap<String, crate::check::Fingerprint>,
    /// Host-speed probe times, ms ([`crate::calib`]).
    pub probes: Vec<f64>,
}

fn budget_ms(opts: &Options, key: &str) -> f64 {
    opts.budget_for(key).as_secs_f64() * 1e3
}

/// The repository state the numbers belong to, if `root` is a git
/// checkout.
pub fn git_commit(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "unknown".to_owned();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// The host's parallelism.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Setup {
    inputs: Inputs,
    verifier: Verifier,
    server: Option<Server>,
}

/// Golden file of a cell, if the workload has goldens.
fn golden_path(root: &Path, workload: Workload, key: &str) -> Option<PathBuf> {
    let dir = match workload {
        Workload::Dump | Workload::Parallel => "snapshots",
        Workload::Races => "races",
        Workload::Serve => return None,
    };
    Some(root.join(format!("tests/golden/{dir}/{key}.json")))
}

/// The expected-file key of a cell: `parallel` cells must reproduce
/// the sequential `dump` snapshot.
fn expected_key(workload: Workload, key: &str) -> String {
    let w = match workload {
        Workload::Parallel => Workload::Dump,
        w => w,
    };
    format!("{}:{key}", w.name())
}

fn set_up(opts: &Options, expected: &Expected) -> Result<Setup, String> {
    let inputs = cells::inputs(opts.workload, opts.seed);
    let mut verifier = Verifier::new(expected.clone());
    for p in &inputs.programs {
        cfa_syntax::compile(&p.text).map_err(|e| format!("{}: {e}", p.name))?;
        if p.oracle {
            let v = cfa_concrete::eval_scheme(&p.text, cfa_concrete::Limits::default())
                .map_err(|e| format!("{}: concrete run failed: {e}", p.name))?;
            verifier.add_oracle(&p.name, v);
        }
    }
    for c in &inputs.cells {
        if let Some(path) = golden_path(&opts.root, opts.workload, &c.key) {
            verifier.add_golden(&expected_key(opts.workload, &c.key), &path);
        }
    }
    // The traced `serve` run replays in process and needs no server.
    let server = match opts.workload {
        Workload::Serve if !opts.trace => {
            Some(start_server(opts)?)
        }
        _ => None,
    };
    Ok(Setup {
        inputs,
        verifier,
        server,
    })
}

/// Starts `cfa serve` and waits until it answers.
fn start_server(opts: &Options) -> Result<Server, String> {
    let bin = opts
        .cfa_bin
        .as_deref()
        .ok_or("serve needs the cfa binary (--cfa-bin)")?;
    let mut server = Server::start(bin, opts.budget)
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    server.stats(opts.budget)?;
    Ok(server)
}

fn load_expected(opts: &Options) -> Result<Expected, String> {
    if opts.bless {
        return Ok(Expected::default());
    }
    let path = opts.root.join(EXPECTED_FILE);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Expected::parse(&text)
}

/// Whether the loop has measured enough: whole passes until `seconds`
/// have elapsed (and, when traced, both a traced and an untraced pass).
fn done(opts: &Options, start: Instant, passes: u64) -> bool {
    if let Some(n) = opts.passes {
        return passes >= n;
    }
    let min_passes = if opts.trace { 2 } else { 1 };
    passes >= min_passes && start.elapsed().as_secs_f64() >= opts.seconds
}

/// A hard stop well past the measured duration, so a regression that
/// makes every job slow ends the run instead of hanging it.
fn hard_stop(opts: &Options, start: Instant) -> bool {
    opts.passes.is_none() && start.elapsed().as_secs_f64() > 3.0 * opts.seconds + 60.0
}

/// Runs one benchmark: `setups` timed set-ups, a warm-up pass, then
/// measured passes.
pub fn run(opts: &Options) -> Result<Report, String> {
    let expected = load_expected(opts)?;
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..opts.setups.max(1) {
        if let Some(Setup {
            server: Some(old), ..
        }) = setup.take()
        {
            old.shutdown(Duration::from_secs(10));
        }
        let t = Instant::now();
        setup = Some(set_up(opts, &expected)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up ran");
    let mut report = Report {
        workload: opts.workload,
        seed: opts.seed,
        host_cpus: host_cpus(),
        threads: 1,
        window: 1,
        passes: 0,
        jobs: Vec::new(),
        problems: Vec::new(),
        correct: true,
        wall_s: 0.0,
        busy_s: 0.0,
        cpu_s: 0.0,
        pass_totals: Vec::new(),
        setup_s,
        warmup_s: 0.0,
        layers: BTreeMap::new(),
        spans: None,
        recorded: BTreeMap::new(),
        probes: Vec::new(),
    };
    match (opts.workload, opts.trace) {
        (Workload::Serve, false) => serve_loop(opts, setup, &mut report)?,
        (Workload::Serve, true) => serve_inprocess_loop(opts, setup, &mut report)?,
        _ => oneshot_loop(opts, setup, &mut report)?,
    }
    if opts.workload == Workload::Dump {
        if let Err(e) = paradox_shape(&report.recorded) {
            report.correct = false;
            report.problems.push(e);
        }
    }
    Ok(report)
}

fn note(report: &mut Report, problem: Option<String>, check_failed: bool) {
    if let Some(p) = problem {
        if report.problems.len() < 20 {
            report.problems.push(p);
        }
    }
    if check_failed {
        report.correct = false;
    }
}

/// What happened to one job.
struct Finished<'a> {
    key: &'a str,
    program: &'a str,
    elapsed: Duration,
    result: Result<Output, Failure>,
    traced: bool,
    warm: bool,
}

/// Records one finished job: budget, checks, latency. Warm-up jobs are
/// checked but not measured.
fn record(opts: &Options, report: &mut Report, verifier: &mut Verifier, job: Finished) {
    let Finished {
        key,
        program,
        elapsed,
        result,
        traced,
        warm,
    } = job;
    let budget = opts.budget_for(key);
    let (ok, counts, problem, check_failed) = match result {
        Err(f) => (false, Counts::default(), Some(format!("{key}: {f}")), false),
        Ok(_) if elapsed > budget => (
            false,
            Counts::default(),
            Some(format!("{key}: over its {budget:?} budget ({elapsed:?})")),
            false,
        ),
        Ok(out) => match verifier.check(
            &expected_key(opts.workload, key),
            program,
            &out.text,
            &out.counts,
        ) {
            Ok(()) => (true, out.counts, None, false),
            Err(e) => (false, out.counts, Some(e), true),
        },
    };
    note(report, problem, check_failed);
    if warm {
        return;
    }
    let ms = elapsed.as_secs_f64() * 1e3;
    report.jobs.push(JobRecord {
        key: key.to_owned(),
        ms: if ok { ms } else { ms.max(budget_ms(opts, key)) },
        ok,
        counts,
        traced,
    });
}

/// What one measured pass did.
#[derive(Clone, Debug, Default)]
pub struct PassTotals {
    /// Jobs attempted.
    pub jobs: usize,
    /// Jobs that completed and passed their checks.
    pub ok: usize,
    /// Time inside timed regions, s.
    pub busy_s: f64,
    /// CPU of the analysing process inside timed regions, s.
    pub cpu_s: f64,
    /// Peak RSS of the analysing process, MB.
    pub peak_rss_mb: f64,
}

/// Takes a measured pass's totals from the run's running sums. The
/// analysing process's (`pid`; `None`: this one) memory high-water
/// mark is reset as the pass starts and read as it ends.
struct PassMeter {
    pid: Option<u32>,
    at_start: PassTotals,
}

impl PassMeter {
    fn new(pid: Option<u32>) -> Self {
        PassMeter {
            pid,
            at_start: PassTotals::default(),
        }
    }

    fn sums(report: &Report) -> PassTotals {
        PassTotals {
            jobs: report.jobs.len(),
            ok: report.jobs.iter().filter(|j| j.ok).count(),
            busy_s: report.busy_s,
            cpu_s: report.cpu_s,
            peak_rss_mb: 0.0,
        }
    }

    fn start(&mut self, report: &Report) {
        self.at_start = Self::sums(report);
        crate::procfs::reset_peak_rss(self.pid);
    }

    fn end(&self, report: &mut Report) {
        let now = Self::sums(report);
        report.pass_totals.push(PassTotals {
            jobs: now.jobs - self.at_start.jobs,
            ok: now.ok - self.at_start.ok,
            busy_s: now.busy_s - self.at_start.busy_s,
            cpu_s: now.cpu_s - self.at_start.cpu_s,
            peak_rss_mb: crate::procfs::peak_rss_mb(self.pid).unwrap_or(0.0),
        });
    }
}

/// State of the one-shot loop (`dump`, `races`, `parallel`).
struct OneShot<'a> {
    opts: &'a Options,
    inputs: Inputs,
    verifier: Verifier,
    tr: Tracer,
    probe: crate::calib::Probe,
    threads: usize,
    job_id: u64,
}

impl OneShot<'_> {
    /// Runs pass `pass`; false when the hard stop cut it short.
    fn pass(&mut self, report: &mut Report, pass: u64, warm: bool, start: Instant) -> bool {
        let opts = self.opts;
        // Traced runs alternate traced and untraced passes; the
        // difference is the tracing overhead.
        let traced = opts.trace && !warm && report.passes.is_multiple_of(2);
        self.tr.set_on(traced);
        let cpu = || crate::procfs::cpu_seconds(None).unwrap_or(0.0);
        for idx in cells::pass_order(opts.workload, opts.seed, pass, self.inputs.cells.len()) {
            if hard_stop(opts, start) {
                report
                    .problems
                    .push("hard stop: run far past its duration".into());
                return false;
            }
            let cell = &self.inputs.cells[idx];
            let program = &self.inputs.programs[cell.program];
            let budget = opts.budget_for(&cell.key);
            if !warm {
                self.probe.sample();
            }
            let tr = &mut self.tr;
            tr.set_job(self.job_id);
            self.job_id += 1;
            let cpu0 = cpu();
            let root = tr.enter("job");
            let t0 = Instant::now();
            let result = match opts.workload {
                Workload::Dump => job::dump(&program.text, cell.analysis, budget, tr),
                Workload::Races => job::races(&program.text, cell.analysis, budget, tr),
                Workload::Parallel => {
                    job::dump_parallel(&program.text, cell.analysis, self.threads, budget, tr)
                }
                Workload::Serve => unreachable!("serve has its own loop"),
            };
            let elapsed = t0.elapsed();
            tr.exit(root);
            if !warm {
                report.cpu_s += cpu() - cpu0;
                report.busy_s += elapsed.as_secs_f64();
            }
            let finished = Finished {
                key: &cell.key,
                program: &program.name,
                elapsed,
                result,
                traced,
                warm,
            };
            record(opts, report, &mut self.verifier, finished);
        }
        true
    }
}

fn oneshot_loop(opts: &Options, setup: Setup, report: &mut Report) -> Result<(), String> {
    let threads = report.host_cpus;
    if opts.workload == Workload::Parallel {
        report.threads = threads;
    }
    let mut run = OneShot {
        opts,
        inputs: setup.inputs,
        verifier: setup.verifier,
        tr: Tracer::new(false),
        probe: crate::calib::Probe::start(&opts.probe_bin, report.threads)?,
        threads,
        job_id: 0,
    };
    let warm = Instant::now();
    run.pass(report, 0, true, warm);
    report.warmup_s = warm.elapsed().as_secs_f64();
    let mut meter = PassMeter::new(None);
    let start = Instant::now();
    while !done(opts, start, report.passes) {
        meter.start(report);
        let whole = run.pass(report, report.passes + 1, false, start);
        meter.end(report);
        if !whole {
            break;
        }
        report.passes += 1;
    }
    report.wall_s = start.elapsed().as_secs_f64();
    report.probes = run.probe.finish();
    report.recorded = std::mem::take(&mut run.verifier.recorded);
    if opts.trace {
        report.layers = layer_metrics(opts.workload, report, &run.tr, None);
        report.spans = Some(run.tr);
    }
    Ok(())
}

/// Host probes taken before each measured `serve` pass, while the
/// server is idle (one-shot workloads probe before every job).
const PROBES_PER_PASS: usize = 5;

/// A request the server has not answered yet.
struct InFlight {
    request: usize,
    id: u64,
    sent: Instant,
    warm: bool,
}

/// State of the `serve` loop against the binary.
struct ServeClient<'a> {
    opts: &'a Options,
    inputs: &'a Inputs,
    server: Server,
    inflight: std::collections::VecDeque<InFlight>,
    /// Why the loop cannot go on, once it cannot.
    broken: Option<String>,
    /// Measured replies: request index and reply text.
    replies: Vec<(usize, String)>,
    reply_timeout: Duration,
}

impl ServeClient<'_> {
    /// Reads the oldest outstanding reply and records it.
    fn finish_one(&mut self, report: &mut Report) {
        let front = self.inflight.pop_front().expect("a request is in flight");
        let req = &self.inputs.requests[front.request];
        let outcome = match &self.broken {
            Some(why) => Err(why.clone()),
            None => self
                .server
                .wait_for(front.id, self.reply_timeout)
                .map(|reply| {
                    let text = if reply.ok {
                        Ok(reply.text())
                    } else {
                        Err(reply.header)
                    };
                    (reply.at, text)
                }),
        };
        let (ms, result) = match outcome {
            Ok((at, r)) => ((at - front.sent).as_secs_f64() * 1e3, r),
            Err(e) => {
                self.broken = Some(e.clone());
                (front.sent.elapsed().as_secs_f64() * 1e3, Err(e))
            }
        };
        let budget = budget_ms(self.opts, &req.key);
        let ok = match result {
            Ok(_) if ms > budget => {
                note(
                    report,
                    Some(format!("{}: over budget ({ms:.1} ms)", req.key)),
                    false,
                );
                false
            }
            Ok(text) => {
                if !front.warm {
                    self.replies.push((front.request, text));
                }
                true
            }
            Err(e) => {
                note(report, Some(format!("{}: {e}", req.key)), false);
                false
            }
        };
        if !front.warm {
            report.jobs.push(JobRecord {
                key: req.key.clone(),
                ms: if ok { ms } else { ms.max(budget) },
                ok,
                counts: Counts::default(),
                traced: false,
            });
        }
    }

    /// Sends pass `pass`, keeping the window full; false when the loop
    /// had to stop.
    fn pass(&mut self, report: &mut Report, pass: u64, warm: bool, start: Instant) -> bool {
        let opts = self.opts;
        for idx in cells::pass_order(opts.workload, opts.seed, pass, self.inputs.requests.len()) {
            if hard_stop(opts, start) {
                // Fail what is still in flight rather than wait for it.
                self.broken = Some("hard stop: run far past its duration".into());
            }
            if let Some(why) = &self.broken {
                report
                    .problems
                    .push(format!("serve loop stopped early: {why}"));
                return false;
            }
            while self.inflight.len() >= report.window {
                self.finish_one(report);
            }
            let req = &self.inputs.requests[idx];
            let header = format!("{} k={}", req.query.keyword(), req.k);
            match self
                .server
                .send(&header, &self.inputs.programs[req.program].text)
            {
                Ok((id, sent)) => self.inflight.push_back(InFlight {
                    request: idx,
                    id,
                    sent,
                    warm,
                }),
                Err(e) => {
                    self.broken = Some(e.to_string());
                    if !warm {
                        report.jobs.push(JobRecord {
                            key: req.key.clone(),
                            ms: budget_ms(opts, &req.key),
                            ok: false,
                            counts: Counts::default(),
                            traced: false,
                        });
                    }
                }
            }
        }
        true
    }

    fn drain(&mut self, report: &mut Report) {
        while !self.inflight.is_empty() {
            self.finish_one(report);
        }
    }
}

fn serve_loop(opts: &Options, setup: Setup, report: &mut Report) -> Result<(), String> {
    let Setup {
        inputs,
        mut verifier,
        server,
    } = setup;
    let pool_threads = cfa_core::PoolConfig::from_env().threads;
    report.threads = pool_threads;
    report.window = 2 * pool_threads;
    let mut client = ServeClient {
        opts,
        inputs: &inputs,
        server: server.expect("serve set-up starts a server"),
        inflight: Default::default(),
        broken: None,
        replies: Vec::new(),
        reply_timeout: opts.budget + Duration::from_secs(10),
    };
    let warm = Instant::now();
    client.pass(report, 0, true, warm);
    client.drain(report);
    report.warmup_s = warm.elapsed().as_secs_f64();
    // Each measured pass runs on a fresh server, so its peak memory is
    // the pass's own and not what earlier passes left in the server's
    // allocator. The server keeps every core busy while a pass is in
    // flight, so each pass is drained before the next and the host is
    // probed in between.
    let mut probe = crate::calib::Probe::start(&opts.probe_bin, report.threads)?;
    let start = Instant::now();
    while !done(opts, start, report.passes) {
        let fresh = start_server(opts)?;
        std::mem::replace(&mut client.server, fresh).shutdown(Duration::from_secs(10));
        let stats0 = client.server.stats(client.reply_timeout)?;
        let replies0 = client.replies.len();
        for _ in 0..PROBES_PER_PASS {
            probe.sample();
        }
        let mut meter = PassMeter::new(Some(client.server.pid()));
        meter.start(report);
        let cpu0 = client.server.cpu_seconds().unwrap_or(0.0);
        let t = Instant::now();
        let whole = client.pass(report, report.passes + 1, false, start);
        client.drain(report);
        report.busy_s += t.elapsed().as_secs_f64();
        report.cpu_s += client.server.cpu_seconds().unwrap_or(0.0) - cpu0;
        meter.end(report);
        if !whole || client.broken.is_some() {
            break;
        }
        let stats1 = client.server.stats(client.reply_timeout)?;
        let finished = serve::stats_field(&stats1, "finished")
            .unwrap_or(0)
            .saturating_sub(serve::stats_field(&stats0, "finished").unwrap_or(0));
        if finished as usize != client.replies.len() - replies0 {
            report.problems.push(format!(
                "stats: {finished} tenants finished for {} ok replies",
                client.replies.len() - replies0
            ));
        }
        report.passes += 1;
    }
    report.wall_s = start.elapsed().as_secs_f64();
    report.probes = probe.finish();
    let ServeClient {
        server, replies, ..
    } = client;
    server.shutdown(Duration::from_secs(10));

    // Outside the timed region: every reply must equal the in-process
    // rendering of the same request (headers `sites=`, `edges=`,
    // `count=` included), which in turn must match the expected file.
    let mut inprocess: HashMap<usize, Result<String, String>> = HashMap::new();
    let mut tr = Tracer::new(false);
    for (request, text) in &replies {
        let req = &inputs.requests[*request];
        let reference = inprocess.entry(*request).or_insert_with(|| {
            if hard_stop(opts, start) {
                return Err("not verified: run far past its duration".to_owned());
            }
            let program = &inputs.programs[req.program];
            let r = inprocess_reply(&program.text, req.query, req.k, opts.budget, &mut tr)
                .map_err(|e| e.to_string())?;
            verifier.check(
                &expected_key(Workload::Serve, &req.key),
                &program.name,
                &r.text,
                &r.counts,
            )?;
            Ok(r.text)
        });
        let problem = match reference {
            Err(e) => Some(e.clone()),
            Ok(t) if t != text => Some(format!(
                "{}: server reply differs from the in-process result",
                req.key
            )),
            Ok(_) => None,
        };
        if let Some(p) = problem {
            if let Some(rec) = report.jobs.iter_mut().find(|j| j.ok && j.key == req.key) {
                rec.ok = false;
                rec.ms = rec.ms.max(budget_ms(opts, &req.key));
            }
            note(report, Some(p), true);
        }
    }
    report.recorded = std::mem::take(&mut verifier.recorded);
    Ok(())
}

/// The reply `cfa serve` should give, computed with the sequential
/// engine in process.
fn inprocess_reply(
    src: &str,
    query: Query,
    k: usize,
    budget: Duration,
    tr: &mut Tracer,
) -> Result<Output, Failure> {
    let program = job::compile(src, tr)?;
    let r = cfa_core::analyze_kcfa(&program, k, job::limits(budget));
    if !r.fixpoint.status.is_complete() {
        return Err(Failure::Stopped(format!("{:?}", r.fixpoint.status)));
    }
    let mut counts = Counts {
        configs: r.fixpoint.config_count() as u64,
        distinct_envs: Some(r.metrics.distinct_envs as u64),
        halt: Some(r.metrics.halt_values.clone()),
        ..Counts::default()
    };
    let text = job::reply_body(query, k, &program, &r, tr, &mut counts);
    counts.bytes = text.len() as u64;
    Ok(Output { text, counts })
}

/// A request submitted to the in-process pool.
struct Pending {
    request: usize,
    sent: Instant,
    submitted: Result<job::Submitted, Failure>,
    job: u64,
}

/// State of the in-process `serve` replay.
struct Replay<'a> {
    opts: &'a Options,
    pool: cfa_core::AnalysisPool,
    inputs: Inputs,
    verifier: Verifier,
    tr: Tracer,
    job_id: u64,
}

impl Replay<'_> {
    /// Replays pass `pass` with the window kept full, then drains it.
    fn pass(&mut self, report: &mut Report, pass: u64, warm: bool) {
        let opts = self.opts;
        let traced = !warm && report.passes.is_multiple_of(2);
        self.tr.set_on(traced);
        let mut inflight: std::collections::VecDeque<Pending> = Default::default();
        let order = cells::pass_order(opts.workload, opts.seed, pass, self.inputs.requests.len());
        let mut next = order.iter();
        loop {
            if inflight.len() < report.window {
                if let Some(&request) = next.next() {
                    let req = &self.inputs.requests[request];
                    let job = self.job_id;
                    self.job_id += 1;
                    self.tr.set_job(job);
                    let sent = Instant::now();
                    let root = self.tr.enter("job");
                    let submitted = job::serve_submit(
                        &self.pool,
                        &self.inputs.programs[req.program].text,
                        req.k,
                        opts.budget_for(&req.key),
                        &mut self.tr,
                    );
                    self.tr.exit(root);
                    inflight.push_back(Pending {
                        request,
                        sent,
                        submitted,
                        job,
                    });
                    continue;
                }
            }
            let Some(p) = inflight.pop_front() else { break };
            let req = &self.inputs.requests[p.request];
            self.tr.set_job(p.job);
            let root = self.tr.enter("job");
            let result = p
                .submitted
                .and_then(|s| job::serve_finish(s, req.query, req.k, &mut self.tr));
            let elapsed = p.sent.elapsed();
            self.tr.exit(root);
            let finished = Finished {
                key: &req.key,
                program: &self.inputs.programs[req.program].name,
                elapsed,
                result,
                traced,
                warm,
            };
            record(opts, report, &mut self.verifier, finished);
        }
    }
}

/// The traced `serve` run: the same request stream replayed in process
/// through the calls `run_serve` makes (compile, `submit_kcfa`,
/// `KcfaJob::wait`, rendering), with the same window.
fn serve_inprocess_loop(opts: &Options, setup: Setup, report: &mut Report) -> Result<(), String> {
    let Setup {
        inputs, verifier, ..
    } = setup;
    let mut replay = Replay {
        opts,
        pool: cfa_core::AnalysisPool::new(cfa_core::PoolConfig::from_env()),
        inputs,
        verifier,
        tr: Tracer::new(false),
        job_id: 0,
    };
    report.threads = replay.pool.metrics().threads;
    report.window = 2 * report.threads;
    let warm = Instant::now();
    replay.pass(report, 0, true);
    report.warmup_s = warm.elapsed().as_secs_f64();
    let mut probe = crate::calib::Probe::start(&opts.probe_bin, report.threads)?;
    let start = Instant::now();
    // Pool counters over the traced passes: finished, quanta, eval µs.
    let mut pool_traced = (0u64, 0u64, 0u64);
    while !done(opts, start, report.passes) && !hard_stop(opts, start) {
        for _ in 0..PROBES_PER_PASS {
            probe.sample();
        }
        let traced = report.passes.is_multiple_of(2);
        let before = replay.pool.metrics();
        replay.pass(report, report.passes + 1, false);
        if traced {
            let after = replay.pool.metrics();
            pool_traced.0 += after.finished - before.finished;
            pool_traced.1 += after.quanta - before.quanta;
            pool_traced.2 += after.eval_us - before.eval_us;
        }
        report.passes += 1;
    }
    report.wall_s = start.elapsed().as_secs_f64();
    replay.pool.shutdown();
    report.probes = probe.finish();
    report.recorded = std::mem::take(&mut replay.verifier.recorded);
    report.layers = layer_metrics(opts.workload, report, &replay.tr, Some(pool_traced));
    report.spans = Some(replay.tr);
    Ok(())
}

/// The paper's shape on the worst-case cells: k=1 distinct environments
/// double per step in n (at least [`DOUBLING`]× — the count is
/// `2^(n+1)` plus a small linear term, so the exact ratio sits just
/// under 2), while m=1 and poly k=1 grow at most polynomially (here: at
/// most cubically in n).
pub fn paradox_shape(recorded: &BTreeMap<String, crate::check::Fingerprint>) -> Result<(), String> {
    let envs = |n: usize, a: &str| -> Option<u64> {
        recorded
            .get(&format!("dump:{}--{a}", cells::worst_name(n)))
            .and_then(|f| f.distinct_envs)
    };
    for w in cells::WORST_K1.windows(2) {
        let (Some(lo), Some(hi)) = (envs(w[0], "k-1"), envs(w[1], "k-1")) else {
            continue;
        };
        if (hi as f64) < DOUBLING * lo as f64 {
            return Err(format!(
                "paradox: k=1 environments grew {lo} -> {hi} from n={} to n={}, \
                 less than {DOUBLING}x",
                w[0], w[1]
            ));
        }
    }
    for a in ["m-1", "poly-k-1"] {
        for w in cells::WORST_FLAT.windows(2) {
            let (Some(lo), Some(hi)) = (envs(w[0], a), envs(w[1], a)) else {
                continue;
            };
            let bound = (w[1] as f64 / w[0] as f64).powi(3) * lo as f64;
            if hi as f64 > bound {
                return Err(format!(
                    "paradox: {a} environments grew {lo} -> {hi} from n={} to n={}, faster than n^3",
                    w[0], w[1]
                ));
            }
        }
    }
    Ok(())
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::median(values)
    }
}

/// The least per-step growth of k=1 environments on the worst-case
/// family that still counts as doubling.
pub const DOUBLING: f64 = 1.95;

/// Per-layer metrics from a traced run's spans and counts.
fn layer_metrics(
    workload: Workload,
    report: &Report,
    tr: &Tracer,
    pool: Option<(u64, u64, u64)>,
) -> BTreeMap<&'static str, f64> {
    let traced: Vec<&JobRecord> = report.jobs.iter().filter(|j| j.traced).collect();
    let untraced: Vec<&JobRecord> = report.jobs.iter().filter(|j| !j.traced).collect();
    let n = traced.len().max(1) as f64;
    let times = tr.times_by_name();
    let self_ms = |name: &str| times.get(name).map_or(0.0, |t| t.1.as_secs_f64() * 1e3);
    let total_ms = |name: &str| times.get(name).map_or(0.0, |t| t.0.as_secs_f64() * 1e3);
    let sum = |f: &dyn Fn(&Counts) -> f64| traced.iter().map(|j| f(&j.counts)).sum::<f64>();
    let fixpoint_ms = sum(&|c| c.fixpoint.as_secs_f64() * 1e3);
    // Only the sequential `analyze_*` span contains its fixpoint; the
    // pool runs fixpoints on its own threads.
    let analyze_fix = if total_ms("engine.analyze") > 0.0 {
        fixpoint_ms
    } else {
        0.0
    };
    let iterations = sum(&|c| c.iterations as f64);
    let skipped = sum(&|c| c.skipped as f64);
    let steals = sum(&|c| c.steals as f64);
    let failed_steals = sum(&|c| c.failed_steals as f64);
    let drains = sum(&|c| c.inbox_drains as f64);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let job_ms = total_ms("job");

    let mut m = BTreeMap::new();
    m.insert("syntax.parse_ms", self_ms("syntax.parse") / n);
    m.insert("syntax.cps_ms", self_ms("syntax.cps") / n);
    m.insert("syntax.terms", sum(&|c| c.terms as f64) / n);
    m.insert("engine.fixpoint_ms", fixpoint_ms / n);
    m.insert("engine.iterations", iterations / n);
    m.insert("engine.configs", sum(&|c| c.configs as f64) / n);
    m.insert("engine.delta_facts", sum(&|c| c.delta_facts as f64) / n);
    m.insert("engine.wakeups", sum(&|c| c.wakeups as f64) / n);
    m.insert(
        "engine.useful_pop_ratio",
        ratio(iterations, iterations + skipped),
    );
    m.insert("engine.store_bytes", sum(&|c| c.store_bytes as f64) / n);
    m.insert(
        "results.assembly_ms",
        (self_ms("engine.analyze") - analyze_fix).max(0.0) / n,
    );
    m.insert(
        "results.distinct_envs",
        sum(&|c| c.distinct_envs.unwrap_or(0) as f64) / n,
    );
    let canon = workload == Workload::Dump || workload == Workload::Parallel;
    m.insert("canon.render_ms", self_ms("canon.render") / n);
    m.insert("canon.serialize_ms", self_ms("canon.serialize") / n);
    m.insert(
        "canon.bytes",
        if canon {
            sum(&|c| c.bytes as f64) / n
        } else {
            0.0
        },
    );
    m.insert("races.client_ms", self_ms("races.client") / n);
    m.insert("races.render_ms", self_ms("races.render") / n);
    m.insert("races.count", sum(&|c| c.races.unwrap_or(0) as f64) / n);
    m.insert("callgraph.render_ms", self_ms("callgraph.render") / n);
    let (finished, quanta, eval_us) = pool.unwrap_or((0, 0, 0));
    m.insert(
        "pool.queue_wait_ms",
        sum(&|c| c.queue_wait.as_secs_f64() * 1e3) / n,
    );
    m.insert("pool.eval_ms", eval_us as f64 / 1e3 / n);
    m.insert("pool.quanta_per_job", ratio(quanta as f64, finished as f64));
    m.insert("fabric.steals", steals / n);
    m.insert(
        "fabric.steal_success_ratio",
        ratio(steals, steals + failed_steals),
    );
    m.insert("fabric.idle_spins", sum(&|c| c.idle_spins as f64) / n);
    m.insert(
        "fabric.inbox_batches_per_drain",
        ratio(sum(&|c| c.inbox_batches as f64), drains),
    );

    // Self time per layer as a share of job time.
    let layer = |names: &[&str]| names.iter().map(|s| self_ms(s)).sum::<f64>();
    let share = |ms: f64| 100.0 * ratio(ms, job_ms);
    m.insert(
        "syntax.share_pct",
        share(layer(&["syntax.parse", "syntax.cps", "syntax.free"])),
    );
    m.insert(
        "engine.share_pct",
        share(analyze_fix + layer(&["engine.parallel", "engine.free"])),
    );
    m.insert(
        "results.share_pct",
        share((self_ms("engine.analyze") - analyze_fix).max(0.0)),
    );
    m.insert(
        "canon.share_pct",
        share(layer(&["canon.render", "canon.serialize", "canon.free"])),
    );
    m.insert(
        "races.share_pct",
        share(layer(&["races.client", "races.render", "races.free"])),
    );
    m.insert("callgraph.share_pct", share(self_ms("callgraph.render")));
    m.insert(
        "pool.share_pct",
        share(layer(&["pool.submit", "pool.wait"])),
    );
    m.insert("bench.share_pct", share(self_ms("job")));

    // Tracing overhead: each job's median latency in traced passes
    // against its median in untraced passes, summed over jobs.
    fn by_key<'a>(js: &[&'a JobRecord]) -> BTreeMap<&'a str, Vec<f64>> {
        let mut map: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for j in js {
            map.entry(j.key.as_str()).or_default().push(j.ms);
        }
        map
    }
    let (on, off) = (by_key(&traced), by_key(&untraced));
    let (mut sum_on, mut sum_off) = (0.0, 0.0);
    for (key, ms) in &on {
        if let Some(base) = off.get(key) {
            sum_on += stats::median(ms);
            sum_off += stats::median(base);
        }
    }
    m.insert("trace.overhead_pct", 100.0 * (ratio(sum_on, sum_off) - 1.0));
    m.insert("trace.spans_per_job", tr.spans().len() as f64 / n);
    m.insert("host.probe_ms", median_or_zero(&report.probes));
    m
}

impl Report {
    /// Jobs attempted.
    pub fn attempted(&self) -> u64 {
        self.jobs.len() as u64
    }

    /// Jobs that failed, were refused, hit the budget or failed a check.
    pub fn failed(&self) -> u64 {
        self.jobs.iter().filter(|j| !j.ok).count() as u64
    }

    /// `failed / attempted`.
    pub fn failed_frac(&self) -> f64 {
        self.failed() as f64 / self.attempted().max(1) as f64
    }

    /// Job latencies, ascending (failed jobs at no less than their
    /// budget).
    pub fn sorted_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.jobs.iter().map(|j| j.ms).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// How much slower this run's host was than the reference host
    /// ([`crate::calib::REFERENCE_MS`]); 1 without probes.
    pub fn slowdown(&self) -> f64 {
        if self.probes.is_empty() {
            1.0
        } else {
            stats::median(&self.probes) / crate::calib::REFERENCE_MS
        }
    }

    /// The end-to-end metrics as measured: name, value, unit.
    /// Latencies are over every measured job; rates, CPU and memory
    /// are medians over passes.
    pub fn end_to_end_raw(&self) -> Vec<(&'static str, f64, &'static str)> {
        let ms = self.sorted_ms();
        let n = self.attempted().max(1) as f64;
        let ok = (self.attempted() - self.failed()) as f64;
        let per_pass = |f: &dyn Fn(&PassTotals) -> f64| {
            median_or_zero(&self.pass_totals.iter().map(f).collect::<Vec<f64>>())
        };
        vec![
            ("job_ms_p50", stats::median(&ms), "ms"),
            ("job_ms_p90", stats::percentile(&ms, 90.0), "ms"),
            (
                "jobs_per_s",
                per_pass(&|p| p.ok as f64 / p.busy_s.max(1e-9)),
                "1/s",
            ),
            (
                "cpu_ms_per_job",
                per_pass(&|p| p.cpu_s * 1e3 / p.jobs.max(1) as f64),
                "ms",
            ),
            ("peak_rss_mb", per_pass(&|p| p.peak_rss_mb), "MB"),
            ("ok_frac", ok / n, "ratio"),
            ("setup_s", stats::median(&self.setup_s) + self.warmup_s, "s"),
        ]
    }

    /// The end-to-end metrics with timings scaled to the reference
    /// host: times divided, rates multiplied, by [`Report::slowdown`].
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let f = self.slowdown();
        self.end_to_end_raw()
            .into_iter()
            .map(|(name, v, unit)| match unit {
                "ms" | "s" => (name, v / f, unit),
                "1/s" => (name, v * f, unit),
                _ => (name, v, unit),
            })
            .collect()
    }
}
