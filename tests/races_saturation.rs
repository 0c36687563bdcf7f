//! The closure the race client relies on.
//!
//! The race detector re-steps every configuration of a completed
//! fixpoint through the machine's own id-level step, on a read-only view
//! of the fixpoint's store that skips every join. That is exact only if
//! a completed fixpoint is closed under a full re-step: no store row
//! grows and every successor is already a reached configuration. This
//! suite checks that closure with `engine::restep`, which re-steps on a
//! private copy of the store that records growth, over the workloads
//! suite, the golden concurrent programs and seeded random concurrent
//! programs, at k=1, m=1 and poly k=1, on fixpoints from both the
//! sequential and the sharded engine. It also runs the race client on
//! each fixpoint, whose view checks every skipped join in debug builds.

use std::fmt::Debug;

use cfa::analysis::engine::{restep, run_fixpoint, EngineLimits, EvalMode, FixpointResult};
use cfa::analysis::flatcfa::{FlatCfaMachine, FlatPolicy};
use cfa::analysis::kcfa::KCfaMachine;
use cfa::analysis::races::{races_kcfa, races_mcfa, races_poly_kcfa, RaceReport};
use cfa::analysis::{run_fixpoint_parallel_on, ParallelMachine, Sharded};
use cfa::CpsProgram;
use cfa_testsupport::{concurrent_scheme_corpus, PAR_THREADS};

/// The suite programs plus the concurrent corpus (the 8 golden
/// programs and 12 seeded random concurrent programs).
fn programs() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = cfa::workloads::suite()
        .iter()
        .map(|p| (p.name.to_owned(), p.source.to_owned()))
        .collect();
    out.extend(concurrent_scheme_corpus());
    out
}

/// Runs `mk()` to its fixpoint on the sequential and the sharded engine
/// and asserts each completed run is closed under a full re-step; then
/// runs the race client on it.
fn assert_closed<M, F, R>(label: &str, mk: F, races: R)
where
    M: ParallelMachine,
    M::Config: Debug + Send + Sync,
    M::Addr: Debug + Send + Sync + Ord,
    M::Val: Send + Sync,
    F: Fn() -> M,
    R: Fn(&FixpointResult<M::Config, M::Addr, M::Val>) -> RaceReport,
{
    let sequential = run_fixpoint(&mut mk(), EngineLimits::default());
    let sharded = run_fixpoint_parallel_on::<Sharded, _>(
        &mut mk(),
        PAR_THREADS,
        EngineLimits::default(),
        EvalMode::SemiNaive,
    );
    for (engine, fixpoint) in [("sequential", sequential), ("sharded", sharded)] {
        assert!(
            fixpoint.status.is_complete(),
            "{label} ({engine}): run incomplete: {:?}",
            fixpoint.status
        );
        let closure = restep(&mut mk(), &fixpoint);
        assert!(
            closure.grown.is_empty(),
            "{label} ({engine}): a full re-step grew rows {:?}",
            closure.grown
        );
        assert!(
            closure.escaped.is_empty(),
            "{label} ({engine}): a full re-step left the configuration set: {:?}",
            closure.escaped
        );
        races(&fixpoint);
    }
}

fn compile(name: &str, src: &str) -> CpsProgram {
    cfa::compile(src).unwrap_or_else(|e| panic!("{name}: {e:?}"))
}

#[test]
fn completed_kcfa_fixpoints_are_closed_under_a_full_restep() {
    for (name, src) in programs() {
        let p = compile(&name, &src);
        assert_closed(
            &format!("{name} k=1"),
            || KCfaMachine::new(&p, 1),
            |r| races_kcfa(&p, 1, r),
        );
    }
}

#[test]
fn completed_mcfa_fixpoints_are_closed_under_a_full_restep() {
    for (name, src) in programs() {
        let p = compile(&name, &src);
        assert_closed(
            &format!("{name} m=1"),
            || FlatCfaMachine::new(&p, 1, FlatPolicy::TopMFrames),
            |r| races_mcfa(&p, 1, r),
        );
    }
}

#[test]
fn completed_poly_kcfa_fixpoints_are_closed_under_a_full_restep() {
    for (name, src) in programs() {
        let p = compile(&name, &src);
        assert_closed(
            &format!("{name} poly k=1"),
            || FlatCfaMachine::new(&p, 1, FlatPolicy::LastKCalls),
            |r| races_poly_kcfa(&p, 1, r),
        );
    }
}
