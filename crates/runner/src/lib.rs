//! Deterministic plan runner.
//!
//! The paper's results are Monte-Carlo sweeps over (scenario ×
//! parameter point × replica). The [`plan`] layer describes each point
//! of such a sweep as a content-hashed [`Spec`], deduplicates specs
//! into a [`Plan`] with per-experiment subscriptions, and cuts the plan
//! into deterministic shards for multi-host sweeps.
//!
//! [`run_plan_cached`] is the one executor: it runs a plan (or one
//! shard of it) on a [`Pool`] of work-stealing workers built from `std`
//! primitives only, serves validated hits from an optional [`cache`]
//! ([`DirCache`] stores each completed spec's serialized output under
//! its content hash, writes misses back atomically, and lets
//! concurrent processes sharing its directory execute each spec once
//! through claim files), and reduces each subscription the moment its
//! last spec completes.
//! [`Plan::run_sequential`] is its pool-free oracle.
//!
//! The contract that makes parallelism safe for a *reproduction* is
//! determinism: results land in per-spec slots, every spec's randomness
//! is a pure function of its key ([`JobCtx::for_label`]), and a
//! panicking spec is captured per slot rather than tearing the sweep
//! down. Together this makes the output of a sweep byte-identical at
//! any thread count, shard count, slice budget and cache temperature —
//! `--threads 1` and `--threads 8` must (and do) produce the same
//! tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod job;
pub mod plan;
pub mod pool;

pub use cache::{
    CacheCounters, CacheEntry, CacheableSpec, Claim, ClaimFile, ClaimGuard, DirCache, OutputCache,
    TempFile, CACHE_FORMAT,
};
pub use job::JobCtx;
pub use plan::{
    run_plan_cached, stable_hash, ExecConfig, Plan, RunStats, SliceStep, SlicedRun, Spec,
    SpecFailures, SpecResult, SpecTiming, Subscription, SubscriptionResult, TraceConfig,
};
pub use pool::{default_threads, panic_message, Pool, ResumableTask, TaskStep};
