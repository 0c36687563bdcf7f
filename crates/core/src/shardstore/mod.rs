//! A globally-shared, **address-sharded** store backend for the
//! parallel fixpoint engine.
//!
//! The replicated backend ([`crate::parallel`]) scales by full
//! per-worker store copies with all-to-all value-level fact broadcast:
//! every replica re-interns and re-joins every fact, so memory and
//! merge work grow linearly with the thread count. This module is the
//! alternative the concurrent-abstract-interpretation literature
//! licenses: the store is a single join-semilattice that workers race
//! on monotonically, so it can simply be *shared* —
//!
//! * `pool` — a global concurrent interner (sharded index, chunked
//!   append-only slots, lock-free `get`). Ids are process-global; a
//!   fact is interned once, ever;
//! * [`store`] — [`SharedStore`]: rows partitioned by address-id hash
//!   into one *owner* shard per worker. Writes go through the shared
//!   row (mutex-serialized, immediate read-your-writes); anyone reads
//!   via epoch-stamped `Arc<Vec<u32>>` snapshots (the same
//!   [`crate::store::Flow`] discipline as the single-threaded store);
//!   per-row delta logs live next to the snapshot so semi-naive
//!   evaluation keeps exact deltas;
//! * [`engine`] — [`run_fixpoint_sharded`]: the worker loop, with
//!   growth notifications and dependency registrations routed to row
//!   owners (who alone hold dependency lists), wakeups point-to-point
//!   instead of broadcast, the same pending-counter termination
//!   protocol as the replicated engine, and a result assembly that
//!   just drains the shared store (no `merge_from` union).
//!
//! Select between the N-worker backends through
//! [`crate::parallel::StoreBackend`] ([`crate::parallel::Replicated`]
//! vs [`crate::parallel::Sharded`]). Pool tenants run one worker and
//! always use a private store; a one-worker shared store only adds
//! locking to it.

pub mod engine;
pub(crate) mod pool;
pub mod store;

pub use engine::{run_fixpoint_sharded, run_fixpoint_sharded_with};
pub use store::{ShardView, SharedStore};
