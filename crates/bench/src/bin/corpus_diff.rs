//! Corpus-scale differential runner: sweeps the workload suite plus a
//! band of seeded generated programs (sequential *and* concurrent)
//! through five engine configurations — the sequential engine run
//! directly and as a pool tenant (the same loop, run in quanta), each
//! in both eval modes, plus the reference oracle — canonicalizes every
//! fixpoint with `cfa_core::canon`, and diffs the normal forms. The two
//! pooled configurations (`pool semi-naive`, `pool full-reeval`) ride
//! one long-lived [`AnalysisPool`], so programs overlap across pool
//! tenants for free; their replay line runs the direct sequential
//! engine, which is what a tenant runs.
//!
//! Any divergence is written as a replayable artifact directory
//! (program source, both snapshots, and the exact `cfa dump` /
//! `cfa compare` commands that reproduce it) and the run exits 1. A
//! run that cannot be compared honestly — any engine stopping short of
//! its fixpoint (timeout, iteration limit, injected fault) — is
//! reported as "not comparable", never as a spurious diff, and the run
//! exits 3.
//!
//! Environment knobs:
//!
//! * `CFA_CORPUS_SIZE` — number of seeded generated programs appended
//!   to the curated corpus (default 16; CI uses the default, nightly
//!   jobs scale it up).
//! * `CFA_CORPUS_SEED` — base seed for the generated band (default 0).
//! * `CFA_CORPUS_ONLY` — substring filter on program names.
//! * `CFA_ARTIFACT_DIR` — where failure artifacts are written (default
//!   `target/corpus-diff`).
//! * The usual engine limits (`CFA_MAX_ITERS`, `CFA_TIME_BUDGET_MS`,
//!   `CFA_FAULT_PLAN`, …) apply to every engine configuration.

use cfa_core::engine::{run_fixpoint_with, EngineLimits, EvalMode, FixpointResult};
use cfa_core::flatcfa::{FlatCfaMachine, FlatPolicy};
use cfa_core::kcfa::KCfaMachine;
use cfa_core::reference::{run_fixpoint_reference, RefFixpointResult, ReferenceMachine};
use cfa_core::{Analysis, AnalysisPool, CanonSnapshot, NotComparable, PoolConfig, Replicated};
use cfa_testsupport::{golden_slug, quiet_injected_panics};
use std::fmt::Debug;
use std::hash::Hash;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

/// One corpus entry: a named program, plus the seed that regenerates it
/// when it came from the random generators.
struct CorpusProgram {
    name: String,
    source: String,
    seed: Option<u64>,
}

fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(v) => v.parse().unwrap_or_else(|e| panic!("{name}={v:?}: {e}")),
        Err(_) => default,
    }
}

/// The full corpus: every workloads-suite program, the paper's
/// worst-case family, the golden concurrent programs, and
/// `CFA_CORPUS_SIZE` seeded generated programs alternating between the
/// sequential and the spawn/join/atom generators.
fn corpus() -> Vec<CorpusProgram> {
    let mut out: Vec<CorpusProgram> = cfa_workloads::suite()
        .iter()
        .map(|p| CorpusProgram {
            name: p.name.to_owned(),
            source: p.source.to_owned(),
            seed: None,
        })
        .collect();
    out.push(CorpusProgram {
        name: "worst-case n=3".to_owned(),
        source: cfa_workloads::worst_case_source(3),
        seed: None,
    });
    out.push(CorpusProgram {
        name: "fn-program 2x2".to_owned(),
        source: cfa_workloads::fn_program(2, 2),
        seed: None,
    });
    for &(name, src) in cfa_testsupport::golden_racy_programs() {
        out.push(CorpusProgram {
            name: format!("racy: {name}"),
            source: src.to_owned(),
            seed: None,
        });
    }
    for &(name, src) in cfa_testsupport::golden_synchronized_programs() {
        out.push(CorpusProgram {
            name: format!("synchronized: {name}"),
            source: src.to_owned(),
            seed: None,
        });
    }
    let size = env_u64("CFA_CORPUS_SIZE", 16);
    let base = env_u64("CFA_CORPUS_SEED", 0);
    for i in 0..size {
        let seed = base + i;
        let (name, source) = if i % 2 == 0 {
            (
                format!("gen-seq seed={seed}"),
                cfa_testsupport::random_scheme_program(seed, 30),
            )
        } else {
            (
                format!("gen-conc seed={seed}"),
                cfa_testsupport::random_concurrent_scheme_program(seed, 25),
            )
        };
        out.push(CorpusProgram {
            name,
            source,
            seed: Some(seed),
        });
    }
    if let Ok(filter) = std::env::var("CFA_CORPUS_ONLY") {
        out.retain(|p| p.name.contains(&filter));
    }
    out
}

fn mode_flag(mode: EvalMode) -> &'static str {
    match mode {
        EvalMode::SemiNaive => "semi-naive",
        EvalMode::FullReeval => "full-reeval",
    }
}

/// How one engine configuration's run canonicalized: a normal form, or
/// the reason it has none.
type EngineOutcome = (String, Result<CanonSnapshot, String>);

/// Runs one (program, analysis) pair through all five engine
/// configurations: the two pooled runs are submitted first, then the
/// reference oracle and the two sequential modes run inline while the
/// pool churns.
fn sweep_engines<M, R, F, G, CF, CR>(
    pool: &AnalysisPool,
    mk: F,
    mk_ref: G,
    canon_fix: CF,
    canon_ref: CR,
) -> Vec<EngineOutcome>
where
    M: cfa_core::ParallelMachine + 'static,
    R: ReferenceMachine<Config = M::Config, Addr = M::Addr, Val = M::Val>,
    M::Config: Send + Sync + Debug + 'static,
    M::Addr: Ord + Send + Sync + 'static,
    M::Val: Ord + Hash + Send + Sync + 'static,
    F: Fn() -> M,
    G: FnOnce() -> R,
    CF: Fn(&FixpointResult<M::Config, M::Addr, M::Val>) -> Result<CanonSnapshot, NotComparable>,
    CR: Fn(&RefFixpointResult<M::Config, M::Addr, M::Val>) -> Result<CanonSnapshot, NotComparable>,
{
    let limits = EngineLimits::from_env;
    let mut handles = Vec::new();
    for mode in [EvalMode::SemiNaive, EvalMode::FullReeval] {
        handles.push((
            format!("pool {}", mode_flag(mode)),
            pool.submit::<Replicated, M>(mk(), limits(), mode),
        ));
    }

    let mut out = Vec::new();
    let r = run_fixpoint_reference(&mut mk_ref(), limits());
    out.push((
        "reference".to_owned(),
        canon_ref(&r).map_err(|e| e.to_string()),
    ));
    for mode in [EvalMode::SemiNaive, EvalMode::FullReeval] {
        let r = run_fixpoint_with(&mut mk(), limits(), mode);
        out.push((
            format!("sequential {}", mode_flag(mode)),
            canon_fix(&r).map_err(|e| e.to_string()),
        ));
    }
    for (name, handle) in handles {
        let run = handle.wait();
        out.push((name, canon_fix(&run.fixpoint).map_err(|e| e.to_string())));
    }
    out
}

fn analysis_flag(analysis: Analysis) -> String {
    match analysis {
        Analysis::KCfa { k } => format!("--kcfa {k}"),
        Analysis::MCfa { m } => format!("--mcfa {m}"),
        Analysis::PolyKCfa { k } => format!("--poly {k}"),
    }
}

/// Writes a replayable failure artifact: the program, both normal
/// forms, and a README with the exact commands (and generator seed)
/// that reproduce the divergence.
#[allow(clippy::too_many_arguments)]
fn write_artifact(
    root: &std::path::Path,
    program: &CorpusProgram,
    analysis: Analysis,
    engine: &str,
    reference_json: &str,
    divergent_json: &str,
    report: &cfa_core::DiffReport,
) -> PathBuf {
    let dir = root.join(format!(
        "{}--{}--{}",
        golden_slug(&program.name),
        golden_slug(&analysis.short_name()),
        golden_slug(engine)
    ));
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    std::fs::write(dir.join("program.scm"), &program.source).expect("write program");
    std::fs::write(dir.join("reference.json"), reference_json).expect("write reference snapshot");
    std::fs::write(dir.join("divergent.json"), divergent_json).expect("write divergent snapshot");
    // A pool tenant runs the sequential loop, so both replay through
    // the direct sequential engine.
    let mode = engine
        .split_once(' ')
        .map_or("semi-naive", |(_, mode)| mode);
    let flag = analysis_flag(analysis);
    let seed_note = match program.seed {
        Some(seed) => format!(
            "\nThe program came from the seeded generator: regenerate the whole\n\
             corpus band with PROPTEST_SEED={seed} CFA_CORPUS_SEED={seed} \
             CFA_CORPUS_SIZE=1.\n"
        ),
        None => String::new(),
    };
    let readme = format!(
        "# Divergent normal form: {name} [{analysis}] on {engine}\n\n\
         Reproduce with:\n\n\
         ```\n\
         cfa dump {flag} --backend reference --out reference.json program.scm\n\
         cfa dump {flag} --backend sequential --mode {mode} \
         --out divergent.json program.scm\n\
         cfa compare reference.json divergent.json\n\
         ```\n\
         {seed_note}\n\
         First divergent facts:\n\n{report}\n",
        name = program.name,
        report = report.render(),
    );
    std::fs::write(dir.join("README.md"), readme).expect("write artifact README");
    dir
}

fn main() -> ExitCode {
    quiet_injected_panics();
    let pool = AnalysisPool::new(PoolConfig::from_env());
    let artifact_root = PathBuf::from(
        std::env::var("CFA_ARTIFACT_DIR").unwrap_or_else(|_| "target/corpus-diff".to_owned()),
    );
    let analyses = [
        Analysis::KCfa { k: 1 },
        Analysis::MCfa { m: 1 },
        Analysis::PolyKCfa { k: 1 },
    ];

    let programs = corpus();
    let mut comparisons = 0usize;
    let mut divergences = 0usize;
    let mut not_comparable = 0usize;
    for program in &programs {
        let compiled = match cfa_syntax::compile(&program.source) {
            Ok(p) => Arc::new(p),
            Err(e) => {
                eprintln!("corpus_diff: {}: does not compile: {e}", program.name);
                not_comparable += 1;
                continue;
            }
        };
        let mut engines_run = 0usize;
        for analysis in analyses {
            let outcomes = match analysis {
                Analysis::KCfa { k } => sweep_engines(
                    &pool,
                    || KCfaMachine::new_owned(Arc::clone(&compiled), k),
                    || KCfaMachine::new_owned(Arc::clone(&compiled), k),
                    |r| cfa_core::canon_kcfa(&compiled, k, r),
                    |r| cfa_core::canon_kcfa_ref(&compiled, k, r),
                ),
                Analysis::MCfa { m } => sweep_engines(
                    &pool,
                    || FlatCfaMachine::new_owned(Arc::clone(&compiled), m, FlatPolicy::TopMFrames),
                    || FlatCfaMachine::new_owned(Arc::clone(&compiled), m, FlatPolicy::TopMFrames),
                    |r| cfa_core::canon_mcfa(&compiled, m, r),
                    |r| cfa_core::canon_mcfa_ref(&compiled, m, r),
                ),
                Analysis::PolyKCfa { k } => sweep_engines(
                    &pool,
                    || FlatCfaMachine::new_owned(Arc::clone(&compiled), k, FlatPolicy::LastKCalls),
                    || FlatCfaMachine::new_owned(Arc::clone(&compiled), k, FlatPolicy::LastKCalls),
                    |r| cfa_core::canon_poly_kcfa(&compiled, k, r),
                    |r| cfa_core::canon_poly_kcfa_ref(&compiled, k, r),
                ),
            };
            engines_run += outcomes.len();
            let reference = match &outcomes[0].1 {
                Ok(snapshot) => snapshot.clone(),
                Err(reason) => {
                    // No oracle: nothing on this pair is comparable.
                    for (engine, _) in &outcomes {
                        eprintln!(
                            "not comparable: {} [{analysis}] {engine}: {reason}",
                            program.name
                        );
                        not_comparable += 1;
                    }
                    continue;
                }
            };
            let reference_json = reference.to_json();
            for (engine, outcome) in &outcomes[1..] {
                comparisons += 1;
                match outcome {
                    Err(reason) => {
                        eprintln!(
                            "not comparable: {} [{analysis}] {engine}: {reason}",
                            program.name
                        );
                        not_comparable += 1;
                    }
                    Ok(snapshot) => {
                        let json = snapshot.to_json();
                        if json != reference_json {
                            divergences += 1;
                            let report = cfa_core::diff_snapshots(
                                &reference,
                                snapshot,
                                cfa_core::canon::DEFAULT_DIFF_LIMIT,
                            );
                            let dir = write_artifact(
                                &artifact_root,
                                program,
                                analysis,
                                engine,
                                &reference_json,
                                &json,
                                &report,
                            );
                            eprintln!(
                                "DIVERGENCE: {} [{analysis}] {engine} — artifact at {}\n{}",
                                program.name,
                                dir.display(),
                                report.render()
                            );
                        }
                    }
                }
            }
        }
        println!("ok {} ({engines_run} engine configurations)", program.name);
    }
    pool.shutdown();

    println!(
        "corpus_diff: {} programs, {comparisons} comparisons, \
         {divergences} divergences, {not_comparable} not comparable",
        programs.len()
    );
    if divergences > 0 {
        ExitCode::FAILURE
    } else if not_comparable > 0 {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}
