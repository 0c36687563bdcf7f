//! A work-stealing parallel fixpoint engine over replicated stores —
//! the [`Replicated`] arm of the [`StoreBackend`] pair (the other arm,
//! one globally shared address-sharded store, lives in
//! [`crate::shardstore`]). Scheduling — steal discipline, pinned
//! wakeups, pending-counter termination, limit checks — is the generic
//! [`crate::fabric`] driver; this module contributes only the
//! store-specific half ([`fabric::BackendWorker`]).
//!
//! [`run_fixpoint_parallel`] shards the worklist of [`crate::engine`]
//! across N worker threads. The design leans on exactly the two
//! properties PR 1's interned store introduced for this purpose:
//!
//! * **flow sets are immutable epoch-stamped snapshots** — every worker
//!   owns a full [`AbsStore`] replica, so reads never cross a thread
//!   boundary and never see a torn set;
//! * **per-address epochs are the conflict detector** — wake queues
//!   are deliberately dedup-free (an is-queued bitmap would have to be
//!   kept coherent against growth arriving from remote merges), so a
//!   configuration woken by several growth events pops several times
//!   and the epoch gate absorbs the duplicates in O(|reads|) at pop
//!   time.
//!
//! # How work and facts move
//!
//! Configurations are sharded by **first touch**: a fresh configuration
//! is deduplicated once, globally, through the fabric's hash-sharded
//! seen-set, entered into a stealable queue, and becomes *homed* at
//! whichever worker first evaluates it — its dependency lists, read
//! set, and last-run epoch live only there, and every re-evaluation
//! (wakeup) is pinned to that home. Only never-evaluated configurations
//! migrate between workers, so no evaluation is ever repeated on
//! another replica and the total evaluation count stays in the same
//! regime as the sequential engine's.
//!
//! Each evaluation runs against the worker's own replica. When a step
//! grows an address, the worker wakes its *local* dependents and
//! broadcasts the grown rows — as `(address, values)` pairs, since
//! dense ids are replica-local — to every other worker's inbox. A
//! worker merges inbox batches into its replica before taking new
//! work; merges that grow an address wake that replica's dependents in
//! turn. Every generated fact therefore reaches every replica, which is
//! what keeps pinning sound: growth anywhere eventually becomes growth
//! at the home replica, which re-wakes exactly the configurations that
//! read the grown address there.
//!
//! # Termination
//!
//! The fabric's single atomic `pending` counter tracks queued tasks,
//! in-flight evaluations, and undelivered fact batches; a task's
//! increment is released only after all work it spawned has been
//! counted. When an idle worker observes `pending == 0` there is
//! provably no work anywhere and it raises the done flag.
//!
//! # Convergence
//!
//! The fixed point of a monotone transfer function is unique, so any
//! interleaving must reach the same configuration set and store facts
//! as [`crate::engine::run_fixpoint`] and [`crate::reference`]; the
//! differential tests in `tests/engine_differential.rs` enforce that on
//! the Scheme and FJ suites, the worst-case family, and random
//! programs. Worker replicas are equal at quiescence; the result store
//! is still assembled by id-remapping union ([`AbsStore::merge_from`])
//! as a defensive cross-check.
//!
//! # Shared with the sequential engine
//!
//! A replicated worker keeps the sequential run's per-configuration
//! tables (`engine::ConfigTables`: interning, epoch gate, dependency
//! registration) and evaluates through the same
//! `ConfigTables::step`; only successor dedup, wakeups and the fact
//! broadcast go through the fabric. Pool tenants do not run here: a
//! tenant is the sequential loop itself ([`crate::pool`]), and
//! [`Replicated`]'s [`crate::pool::PoolBackend`] impl only keeps the
//! `submit_*::<Replicated>` spelling compiling.

use crate::engine::{
    AbstractMachine, ConfigTables, EngineLimits, EvalMode, FixpointResult, SchedStats, TrackedStore,
};
use crate::fabric::{self, Fabric, WorkerCtx};
use crate::store::AbsStore;
use std::sync::Arc;
use std::time::Instant;

/// An [`AbstractMachine`] that can be driven by N workers at once.
///
/// Each worker drives its own machine instance (forked up front), so
/// `step` keeps its `&mut self` freedom — metric logs, memo tables and
/// environment pools stay thread-local — and the per-worker state is
/// folded back into the original machine when the run ends.
pub trait ParallelMachine: AbstractMachine + Send {
    /// A fresh worker-local instance sharing the immutable program data
    /// (metric accumulators start empty).
    fn fork(&self) -> Self;

    /// Folds a worker's accumulated state back into `self`. Called once
    /// per worker after the fixpoint is reached; the union across
    /// workers must be order-insensitive.
    fn absorb(&mut self, worker: Self);
}

/// Facts in transit between replicas: `(address, grown row values)`.
/// Value ids are replica-local, so the wire format is value-level; the
/// receiving replica re-interns (and its hash-consed ids make that one
/// hash per distinct value).
type FactBatch<A, V> = Vec<(A, Vec<V>)>;

/// The replicated backend's inter-worker message: a fact batch shared
/// (`Arc`, not copied) across its receivers.
type Batch<M> = Arc<FactBatch<<M as AbstractMachine>::Addr, <M as AbstractMachine>::Val>>;

/// The store-specific half of a replicated worker: a full store replica
/// plus the sequential run's per-configuration tables
/// ([`ConfigTables`]). The loop that drives it is [`crate::fabric`].
struct ReplicatedWorker<M: AbstractMachine> {
    machine: M,
    store: AbsStore<M::Addr, M::Val>,
    tables: ConfigTables<M::Config>,
    /// Scratch for [`ReplicatedWorker::wake_dependents`], recycled
    /// across calls.
    woken: Vec<usize>,
}

impl<M> ReplicatedWorker<M>
where
    M: ParallelMachine,
    M::Config: Send + Sync,
    M::Addr: Send + Sync + Ord,
    M::Val: Send + Sync,
{
    fn new(machine: M) -> Self {
        ReplicatedWorker {
            machine,
            store: AbsStore::new(),
            tables: ConfigTables::new(),
            woken: Vec::new(),
        }
    }

    /// Wakes the local dependents of the (sorted, unique) grown address
    /// ids. Wakeups are pinned here — the dependents' scheduling state
    /// lives in this replica — and carry no is-queued dedup: the epoch
    /// gate disarms duplicates at pop time.
    fn wake_dependents(
        tables: &ConfigTables<M::Config>,
        woken: &mut Vec<usize>,
        grown: &[u32],
        ctx: &mut WorkerCtx<'_, M::Config, Batch<M>>,
    ) {
        woken.clear();
        for &a in grown {
            woken.extend_from_slice(tables.dependents(a));
        }
        woken.sort_unstable();
        woken.dedup();
        if !woken.is_empty() {
            ctx.trace.wake_batch(woken.len() as u64);
        }
        for &j in woken.iter() {
            ctx.wake_local(j);
        }
    }

    /// Broadcasts the grown rows of this step to every other replica.
    /// Rows (not deltas) keep the wire format independent of join
    /// internals; receiving joins dedup for free. The batch is built
    /// once and shared behind an `Arc` — receivers read it in place.
    fn broadcast(&self, ctx: &mut WorkerCtx<'_, M::Config, Batch<M>>) {
        let n = ctx.threads();
        let grown = self.tables.grown();
        if n == 1 || grown.is_empty() {
            return;
        }
        let batch: Batch<M> = Arc::new(
            grown
                .iter()
                .map(|&a| {
                    let addr = self.store.addr(a).clone();
                    let values = self
                        .store
                        .flow_by_id(a)
                        .iter()
                        .map(|id| self.store.val(id).clone())
                        .collect();
                    (addr, values)
                })
                .collect(),
        );
        for other in 0..n {
            if other == ctx.id() {
                continue;
            }
            ctx.send(other, Arc::clone(&batch));
        }
    }
}

impl<M> fabric::BackendWorker for ReplicatedWorker<M>
where
    M: ParallelMachine,
    M::Config: Send + Sync,
    M::Addr: Send + Sync + Ord,
    M::Val: Send + Sync,
{
    type Config = M::Config;
    type Msg = Batch<M>;

    fn seed(&mut self, _ctx: &mut WorkerCtx<'_, M::Config, Batch<M>>) {
        // Every replica is seeded identically, so seed facts need no
        // broadcast.
        self.machine.seed(&mut TrackedStore::new(&mut self.store));
    }

    fn intern(&mut self, cfg: M::Config) -> usize {
        self.tables.intern(cfg).0
    }

    fn gated(&self, i: usize) -> bool {
        self.tables.gated(i, &self.store)
    }

    /// Evaluates one task (by local index): the sequential run's step
    /// ([`ConfigTables::step`]), then successor dedup through the
    /// fabric, local wakeups and the fact broadcast.
    fn evaluate(&mut self, i: usize, ctx: &mut WorkerCtx<'_, M::Config, Batch<M>>) {
        // The semi-naive baseline works per replica: this config is
        // pinned here, its last evaluation ran against this store, and
        // facts merged from other replicas land in this store's delta
        // logs — so the epochs line up exactly as in the sequential
        // engine.
        let (step_delta, step_applies) =
            self.tables
                .step(&mut self.machine, &mut self.store, i, ctx.mode());
        ctx.delta_facts += step_delta;
        ctx.delta_applies += step_applies;
        ctx.submit_fresh(&mut self.tables.successors);
        Self::wake_dependents(&self.tables, &mut self.woken, self.tables.grown(), ctx);
        self.broadcast(ctx);
    }

    fn describe(&self, i: usize) -> String {
        format!("{:?}", self.tables.configs[i])
    }

    /// Merges one delivered fact batch into the replica and wakes the
    /// dependents of every address that grew. The batch is shared with
    /// the other receivers ([`std::sync::Arc`]); values are cloned only
    /// when first interned locally.
    fn on_msg(&mut self, batch: Batch<M>, ctx: &mut WorkerCtx<'_, M::Config, Batch<M>>) {
        let mut grown: Vec<u32> = Vec::new();
        let mut ids: Vec<u32> = Vec::new();
        let mut delta: Vec<u32> = Vec::new();
        for (addr, values) in batch.iter() {
            let addr_id = self.store.addr_id(addr);
            ids.clear();
            ids.extend(values.iter().map(|v| self.store.val_id_ref(v)));
            ids.sort_unstable();
            ids.dedup();
            delta.clear();
            if self.store.join_ids(addr_id, &ids, &mut delta) {
                grown.push(addr_id);
            }
        }
        grown.sort_unstable();
        grown.dedup();
        Self::wake_dependents(&self.tables, &mut self.woken, &grown, ctx);
    }

    fn enforce_watermark(&mut self, watermark: usize, threads: usize) {
        // Per replica: the broadcast design multiplies log memory by
        // the worker count, so each replica holds itself to its share
        // (O(1) — log bytes are tracked incrementally).
        let share = watermark / threads;
        if self.store.delta_log_bytes() > share {
            self.store.trim_delta_logs();
        }
    }

    fn finish(&mut self, sched: &mut SchedStats) {
        // Measure the replica before the driver unions it away: the sum
        // across workers is the memory the replication design pays.
        sched.store_resident_bytes = self.store.approx_bytes() as u64;
    }
}

/// Runs `machine` to its least fixed point on `threads` worker threads
/// (or until a limit fires).
///
/// The returned [`FixpointResult`] matches [`crate::engine::run_fixpoint`]
/// on configurations and store facts (the fixed point is unique);
/// `configs` order is arbitrary, `iterations`/`skipped`/`wakeups` are
/// summed across workers, and `delta_facts` counts evaluation-side
/// growth per replica (two workers deriving the same fact independently
/// both count it).
pub fn run_fixpoint_parallel<M>(
    machine: &mut M,
    threads: usize,
    limits: EngineLimits,
) -> FixpointResult<M::Config, M::Addr, M::Val>
where
    M: ParallelMachine,
    M::Config: Send + Sync,
    M::Addr: Send + Sync + Ord,
    M::Val: Send + Sync,
{
    run_fixpoint_parallel_with(machine, threads, limits, EvalMode::SemiNaive)
}

/// [`run_fixpoint_parallel`] under an explicit [`EvalMode`] — the
/// fixpoint is mode-independent; the mode only changes how much of the
/// product each re-evaluation redoes.
pub fn run_fixpoint_parallel_with<M>(
    machine: &mut M,
    threads: usize,
    limits: EngineLimits,
    mode: EvalMode,
) -> FixpointResult<M::Config, M::Addr, M::Val>
where
    M: ParallelMachine,
    M::Config: Send + Sync,
    M::Addr: Send + Sync + Ord,
    M::Val: Send + Sync,
{
    let start = Instant::now();
    let threads = threads.max(1);

    let fabric: Fabric<M::Config, Batch<M>> = Fabric::new(threads);
    fabric.submit_root(machine.initial());

    let backends: Vec<ReplicatedWorker<M>> = (0..threads)
        .map(|_| ReplicatedWorker::new(machine.fork()))
        .collect();
    let reports = fabric::drive(&fabric, backends, mode, &limits, start);
    let (status, configs) = fabric.finish();

    let mut store: AbsStore<M::Addr, M::Val> = AbsStore::new();
    let (mut iterations, mut skipped, mut wakeups) = (0u64, 0u64, 0u64);
    let (mut delta_facts, mut delta_applies) = (0u64, 0u64);
    let mut sched = SchedStats::default();
    let mut rings = Vec::new();
    for report in reports {
        iterations += report.iterations;
        skipped += report.skipped;
        wakeups += report.wakeups;
        delta_facts += report.delta_facts;
        delta_applies += report.delta_applies;
        sched.absorb(&report.sched);
        rings.push(report.trace);
        store.merge_from(&report.backend.store);
        machine.absorb(report.backend.machine);
    }

    FixpointResult {
        configs,
        store,
        status,
        iterations,
        skipped,
        wakeups,
        delta_facts,
        delta_applies,
        sched,
        elapsed: start.elapsed(),
        queue_wait: std::time::Duration::ZERO,
        trace: crate::telemetry::RunTrace::from_buffers(rings),
    }
}

/// A parallel store backend, as a type-level selector: how N workers
/// share the abstract store.
///
/// [`run_fixpoint_parallel_on`] is generic over this, so callers (the
/// differential harness, the benchmarks, the CI backend matrix) can
/// run the *same* machine through both designs:
///
/// * [`Replicated`] — per-worker store replicas with all-to-all fact
///   broadcast (this module). Memory O(program × threads); no shared
///   rows, so evaluations never contend on a lock.
/// * [`Sharded`] — one globally shared, address-sharded store
///   ([`crate::shardstore`]). Memory O(program); facts are interned
///   once and never re-joined per replica; writes and wakeups route
///   point-to-point to row owners.
pub trait StoreBackend {
    /// Short backend name (bench columns, env-var selection).
    const NAME: &'static str;

    /// Runs `machine` to its least fixed point on `threads` workers
    /// under this backend.
    fn run_fixpoint<M>(
        machine: &mut M,
        threads: usize,
        limits: EngineLimits,
        mode: EvalMode,
    ) -> FixpointResult<M::Config, M::Addr, M::Val>
    where
        M: ParallelMachine,
        M::Config: Send + Sync,
        M::Addr: Send + Sync + Ord,
        M::Val: Send + Sync;
}

/// Per-worker store replicas + all-to-all fact broadcast (the backend
/// implemented by this module).
#[derive(Copy, Clone, Debug, Default)]
pub struct Replicated;

impl StoreBackend for Replicated {
    const NAME: &'static str = "replicated";

    fn run_fixpoint<M>(
        machine: &mut M,
        threads: usize,
        limits: EngineLimits,
        mode: EvalMode,
    ) -> FixpointResult<M::Config, M::Addr, M::Val>
    where
        M: ParallelMachine,
        M::Config: Send + Sync,
        M::Addr: Send + Sync + Ord,
        M::Val: Send + Sync,
    {
        run_fixpoint_parallel_with(machine, threads, limits, mode)
    }
}

impl crate::pool::PoolBackend for Replicated {}

/// One shared, address-sharded store ([`crate::shardstore`]).
#[derive(Copy, Clone, Debug, Default)]
pub struct Sharded;

impl StoreBackend for Sharded {
    const NAME: &'static str = "sharded";

    fn run_fixpoint<M>(
        machine: &mut M,
        threads: usize,
        limits: EngineLimits,
        mode: EvalMode,
    ) -> FixpointResult<M::Config, M::Addr, M::Val>
    where
        M: ParallelMachine,
        M::Config: Send + Sync,
        M::Addr: Send + Sync + Ord,
        M::Val: Send + Sync,
    {
        crate::shardstore::run_fixpoint_sharded_with(machine, threads, limits, mode)
    }
}

/// [`run_fixpoint_parallel_with`], generic over the store backend.
///
/// # Examples
///
/// ```
/// use cfa_core::engine::{EngineLimits, EvalMode};
/// use cfa_core::kcfa::KCfaMachine;
/// use cfa_core::parallel::{run_fixpoint_parallel_on, Replicated, Sharded};
///
/// let p = cfa_syntax::compile("((lambda (x) x) 1)").unwrap();
/// let rep = run_fixpoint_parallel_on::<Replicated, _>(
///     &mut KCfaMachine::new(&p, 1),
///     2,
///     EngineLimits::default(),
///     EvalMode::SemiNaive,
/// );
/// let sh = run_fixpoint_parallel_on::<Sharded, _>(
///     &mut KCfaMachine::new(&p, 1),
///     2,
///     EngineLimits::default(),
///     EvalMode::SemiNaive,
/// );
/// // The fixed point of a monotone transfer function is unique, so
/// // both backends reach identical facts.
/// assert_eq!(rep.store.fact_count(), sh.store.fact_count());
/// assert_eq!(rep.config_count(), sh.config_count());
/// ```
pub fn run_fixpoint_parallel_on<B, M>(
    machine: &mut M,
    threads: usize,
    limits: EngineLimits,
    mode: EvalMode,
) -> FixpointResult<M::Config, M::Addr, M::Val>
where
    B: StoreBackend,
    M: ParallelMachine,
    M::Config: Send + Sync,
    M::Addr: Send + Sync + Ord,
    M::Val: Send + Sync,
{
    B::run_fixpoint(machine, threads, limits, mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_fixpoint, Status};
    use std::time::Duration;

    /// The toy machine of the sequential engine tests.
    #[derive(Clone)]
    struct Counter {
        n: u32,
    }

    impl AbstractMachine for Counter {
        type Config = u32;
        type Addr = u32;
        type Val = u32;

        fn initial(&self) -> u32 {
            0
        }

        fn step(&mut self, c: &u32, s: &mut TrackedStore<'_, u32, u32>, out: &mut Vec<u32>) {
            let c = *c;
            if c < self.n {
                s.join(&(c % 3), [c]);
                out.push(c + 1);
            } else {
                let _ = s.read(&0);
            }
        }
    }

    impl ParallelMachine for Counter {
        fn fork(&self) -> Self {
            self.clone()
        }
        fn absorb(&mut self, _worker: Self) {}
    }

    #[test]
    fn parallel_matches_sequential_on_counter() {
        for threads in [1, 2, 4] {
            let seq = run_fixpoint(&mut Counter { n: 40 }, EngineLimits::default());
            let par =
                run_fixpoint_parallel(&mut Counter { n: 40 }, threads, EngineLimits::default());
            assert_eq!(par.status, Status::Completed, "threads={threads}");
            let mut seq_configs = seq.configs.clone();
            let mut par_configs = par.configs.clone();
            seq_configs.sort_unstable();
            par_configs.sort_unstable();
            assert_eq!(seq_configs, par_configs, "threads={threads}");
            for addr in 0..3u32 {
                assert_eq!(
                    seq.store.read(&addr),
                    par.store.read(&addr),
                    "threads={threads}"
                );
            }
            assert_eq!(
                seq.store.fact_count(),
                par.store.fact_count(),
                "threads={threads}"
            );
        }
    }

    /// The reader (scheduled first) reads two addresses that two later
    /// configurations grow one step apart. The parallel queues carry no
    /// is-queued bitmap, so the second growth enqueues a second wakeup;
    /// by the time it pops, the first re-evaluation has already seen
    /// both values and the epoch gate must skip it. With one worker the
    /// schedule is deterministic: root, reader, two growers, the
    /// justified re-run, then exactly one gate-skipped duplicate.
    struct TwoGrowers;

    impl AbstractMachine for TwoGrowers {
        type Config = u32;
        type Addr = u32;
        type Val = u32;

        fn initial(&self) -> u32 {
            0
        }

        fn step(&mut self, c: &u32, s: &mut TrackedStore<'_, u32, u32>, out: &mut Vec<u32>) {
            match *c {
                // Root: schedule the reader before the growers.
                0 => out.extend([10, 1, 2]),
                1 => s.join(&100, [7]),
                2 => s.join(&101, [8]),
                10 => {
                    let _ = s.read(&100);
                    let _ = s.read(&101);
                }
                _ => {}
            }
        }
    }

    impl ParallelMachine for TwoGrowers {
        fn fork(&self) -> Self {
            TwoGrowers
        }
        fn absorb(&mut self, _worker: Self) {}
    }

    #[test]
    fn epoch_gate_fires_on_duplicate_wakeups() {
        let r = run_fixpoint_parallel(&mut TwoGrowers, 1, EngineLimits::default());
        assert_eq!(r.status, Status::Completed);
        assert_eq!(r.wakeups, 2, "each grower wakes the reader once");
        assert_eq!(r.skipped, 1, "the duplicate wakeup dies at the epoch gate");
        assert_eq!(
            r.iterations, 5,
            "root, reader, growers, one justified re-run"
        );
        assert_eq!(r.store.read(&100), [7].into_iter().collect());
        assert_eq!(r.store.read(&101), [8].into_iter().collect());
    }

    /// Feedback machine: the fixpoint needs repeated re-evaluations, so
    /// wakeups and fact broadcasts cross worker boundaries constantly.
    struct Feedback;

    impl AbstractMachine for Feedback {
        type Config = u8;
        type Addr = u8;
        type Val = u8;

        fn initial(&self) -> u8 {
            0
        }

        fn step(&mut self, c: &u8, s: &mut TrackedStore<'_, u8, u8>, out: &mut Vec<u8>) {
            if *c == 0 {
                s.join(&0, [1u8]);
                out.extend([1, 2]);
            } else {
                let seen = s.read(&(*c % 2));
                let next: Vec<u8> = seen
                    .iter()
                    .map(|id| *s.val(id))
                    .filter(|&v| v < 40)
                    .map(|v| v + 1)
                    .collect();
                s.join(&((*c + 1) % 2), next);
            }
        }
    }

    impl ParallelMachine for Feedback {
        fn fork(&self) -> Self {
            Feedback
        }
        fn absorb(&mut self, _worker: Self) {}
    }

    #[test]
    fn parallel_feedback_converges_across_thread_counts() {
        let seq = run_fixpoint(&mut Feedback, EngineLimits::default());
        for threads in [1, 2, 4] {
            let par = run_fixpoint_parallel(&mut Feedback, threads, EngineLimits::default());
            assert_eq!(par.status, Status::Completed, "threads={threads}");
            assert_eq!(par.store.read(&0), seq.store.read(&0), "threads={threads}");
            assert_eq!(par.store.read(&1), seq.store.read(&1), "threads={threads}");
            assert_eq!(par.config_count(), seq.config_count(), "threads={threads}");
        }
    }

    #[test]
    fn iteration_limit_fires_in_parallel() {
        let r = run_fixpoint_parallel(
            &mut Counter { n: 1_000_000 },
            2,
            EngineLimits::iterations(100),
        );
        assert_eq!(r.status, Status::IterationLimit);
        assert!(
            r.iterations <= 100,
            "evaluations counted globally: {}",
            r.iterations
        );
    }

    #[test]
    fn timeout_fires_in_parallel() {
        struct Spin;
        impl AbstractMachine for Spin {
            type Config = u64;
            type Addr = u64;
            type Val = u64;
            fn initial(&self) -> u64 {
                0
            }
            fn step(&mut self, c: &u64, _s: &mut TrackedStore<'_, u64, u64>, out: &mut Vec<u64>) {
                std::thread::sleep(Duration::from_millis(1));
                out.push(c + 1);
            }
        }
        impl ParallelMachine for Spin {
            fn fork(&self) -> Self {
                Spin
            }
            fn absorb(&mut self, _worker: Self) {}
        }
        let r = run_fixpoint_parallel(
            &mut Spin,
            2,
            EngineLimits::timeout(Duration::from_millis(50)),
        );
        assert_eq!(r.status, Status::TimedOut);
    }
}
