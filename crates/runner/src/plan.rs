//! Declarative experiment plans: content-hashed specs, subscriptions,
//! deterministic shards, completion-driven reduction.
//!
//! A [`Spec`] is the declarative replacement for an opaque job closure:
//! a serializable description of one unit of work (scenario × parameter
//! point × replica) whose identity is a canonical *content key*. Two
//! specs with the same key describe the same computation, so a [`Plan`]
//! stores each distinct spec once and lets any number of *subscriptions*
//! (one per experiment) reference it — one simulation fans out to every
//! reducer that asked for it.
//!
//! A plan is also the unit of distribution: [`Plan::shard_indices`]
//! partitions the unique specs deterministically into `k` shards that
//! can run on separate hosts, and [`Plan::fingerprint`] lets a merge
//! step verify that every shard was cut from the same plan. Because a
//! spec's randomness is a pure function of its content (its key seeds
//! the [`JobCtx`] stream, and scenario specs carry their own
//! parameter-derived seeds), results are bit-identical at any thread
//! count and any shard count.
//!
//! [`run_plan_cached`] is the one plan executor. It runs a plan (or a
//! shard's subset of it) on a [`Pool`], serves whatever it can from an
//! optional output cache, and fires a callback the moment the *last*
//! spec of a subscription completes — the hook that lets callers
//! reduce and spool each experiment while the rest of the grid is
//! still running. [`Plan::run_sequential`] is the pool-free oracle the
//! tests compare it against.
//!
//! Every executed spec runs through [`Spec::start_sliced`]: misses are
//! submitted *longest-first* by [`Spec::cost_hint`] (so the expensive
//! sims start while the short tail backfills the workers), and each
//! runs as a chain of slices under [`ExecConfig::slice_events`] — one
//! unbounded slice when slicing is off — that the pool can migrate
//! across workers mid-sim. Neither layer moves any bytes: results land
//! in per-spec slots and reduction is completion-driven, so tables stay
//! bit-identical to the sequential path at any thread count, slice
//! budget, or submission order.

use crate::cache::{CacheCounters, CacheableSpec, Claim, ClaimGuard, OutputCache};
use crate::job::JobCtx;
use crate::pool::{panic_message, Pool, ResumableTask, TaskStep};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Wall-clock accounting of one *executed* spec, accumulated across
/// its slices when the sliced path is active. Cache hits execute
/// nothing and get no timing row.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecTiming {
    /// The spec's content key.
    pub key: String,
    /// Wall-clock seconds spent executing this spec, summed over its
    /// slices (each slice may have run on a different worker).
    pub wall_s: f64,
    /// Engine events the spec's run dispatched.
    pub events: u64,
    /// Number of pool steps the run took (1 = never yielded).
    pub slices: u32,
}

/// Execution accounting of one plan run: cache
/// effectiveness plus the discrete-event engine events the *executed*
/// specs dispatched (cache hits execute nothing, so they contribute
/// zero — `events` measures this run's compute, not its provenance).
/// `timings` carries one row per executed spec, sorted by key so the
/// vector is deterministic even though completion order is not.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Cache hits vs executed specs.
    pub cache: CacheCounters,
    /// Engine events dispatched by the executed specs, as reported
    /// through [`JobCtx::record_events`].
    pub events: u64,
    /// Per-spec wall time of every executed (non-panicking) spec —
    /// the straggler table behind the bench's timing report.
    pub timings: Vec<SpecTiming>,
}

/// Where a traced run writes its per-spec trace files.
///
/// Tracing is an executor-level request: the executor stamps each
/// spec's [`JobCtx`] with a destination path
/// ([`JobCtx::set_trace_path`]) before the run starts, and specs that
/// support tracing write a trace file there on completion. A traced
/// run always *executes* — the cache probe is skipped for every
/// selected spec, because a cache hit would produce no trace — but the
/// outputs it computes are identical to untraced ones, so they are
/// still written back to the cache.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Destination: a single file when `single_file`, otherwise a
    /// directory receiving one file per spec.
    pub dest: PathBuf,
    /// Whether `dest` names the one output file (single-spec runs) or
    /// a directory of per-spec files.
    pub single_file: bool,
}

impl TraceConfig {
    /// Trace a single spec straight into the file at `dest`.
    pub fn single(dest: impl Into<PathBuf>) -> Self {
        Self {
            dest: dest.into(),
            single_file: true,
        }
    }

    /// Trace every spec into `dir`, one file per spec named by its
    /// content hash.
    pub fn per_spec(dir: impl Into<PathBuf>) -> Self {
        Self {
            dest: dir.into(),
            single_file: false,
        }
    }

    /// The trace file for the spec with this content key.
    pub fn path_for(&self, key: &str) -> PathBuf {
        if self.single_file {
            self.dest.clone()
        } else {
            self.dest.join(format!("{:016x}.pftrace", stable_hash(key)))
        }
    }
}

/// Execution knobs threaded through [`run_plan_cached`].
#[derive(Debug, Clone, Default)]
pub struct ExecConfig {
    /// When set, specs that support slicing ([`Spec::start_sliced`])
    /// yield back to the pool every `slice_events` engine events, so a
    /// straggler sim migrates to whichever worker frees up first
    /// instead of pinning one. `None` runs every spec monolithically.
    /// Output is bit-identical either way.
    pub slice_events: Option<u64>,
    /// When set, every selected spec executes (cache probing is
    /// skipped) with its [`JobCtx`] trace path set, so tracing-aware
    /// specs record a trace file per [`TraceConfig::path_for`].
    pub trace: Option<TraceConfig>,
}

impl ExecConfig {
    /// Slice supporting specs every `budget` engine events.
    pub fn sliced(budget: u64) -> Self {
        Self {
            slice_events: Some(budget),
            ..Self::default()
        }
    }

    /// This config with tracing per `trace`.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = Some(trace);
        self
    }
}

/// FNV-1a over the key bytes: a stable, platform-independent 64-bit
/// content hash. Not cryptographic — it identifies specs within a plan,
/// where the catalogue-uniqueness tests guard against collisions.
pub fn stable_hash(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A declarative, content-addressed unit of work.
///
/// Implementations must make [`Spec::key`] a *canonical* rendering of
/// every field that influences the result (parameters, seeds, effort):
/// the key is the spec's identity for deduplication, sharding, and the
/// `(master seed, key)` RNG stream handed to [`Spec::run`]. The key
/// must not depend on field declaration order, thread count, or any
/// other ambient state.
pub trait Spec: Clone + Send + Sync {
    /// What running the spec produces. `Sync` because one output is
    /// shared with every subscribed reducer; `'static` because the
    /// sliced-run path boxes in-flight state (output included) to hand
    /// it between workers.
    type Output: Send + Sync + 'static;

    /// Canonical content key (also the human-readable label).
    fn key(&self) -> String;

    /// Stable content hash of the key.
    fn hash(&self) -> u64 {
        stable_hash(&self.key())
    }

    /// Executes the spec. `ctx` carries the `(master seed, key)` RNG
    /// stream; specs may instead carry their own content-derived seeds
    /// (both satisfy the determinism contract).
    fn run(&self, ctx: &mut JobCtx) -> Self::Output;

    /// Relative cost estimate used for longest-first submission (any
    /// monotone proxy works — the experiments crate returns its
    /// engine-events estimate). The default `0` keeps catalogue order.
    /// Scheduling only: the hint never touches spec identity, shard
    /// membership, or output bytes.
    fn cost_hint(&self) -> u64 {
        0
    }

    /// Starts a (possibly sliced) execution: runs the first slice under
    /// an event `budget` and either finishes or returns the resumable
    /// state for the pool to re-enqueue. The default ignores the budget
    /// and runs the spec monolithically — only specs whose work is a
    /// resumable engine loop need to override this, and they must
    /// produce bit-identical output at every budget (the engine's
    /// budgeted dispatch makes that free: a sliced `run_until` is the
    /// same event sequence, just with scheduling points in it).
    fn start_sliced(&self, ctx: &mut JobCtx, budget: u64) -> SliceStep<Self::Output> {
        let _ = budget;
        SliceStep::Done(self.run(ctx))
    }
}

/// A paused sliced execution: everything a spec needs to continue its
/// run — engine, measurement phase, accumulated state — boxed so the
/// pool can hand it to whichever worker is free next.
pub trait SlicedRun: Send {
    /// What the finished run produces (the spec's output type).
    type Output;

    /// Runs the next slice under a fresh event `budget`. `ctx` is the
    /// same per-spec context the run started with, threaded through
    /// every slice by the executor.
    fn resume(self: Box<Self>, ctx: &mut JobCtx, budget: u64) -> SliceStep<Self::Output>;
}

/// One step of a sliced spec execution.
pub enum SliceStep<O> {
    /// The budget ran out mid-sim; re-enqueue this state and resume.
    Pending(Box<dyn SlicedRun<Output = O>>),
    /// The run finished.
    Done(O),
}

/// One experiment's interest in a plan: the specs it reduces, by index
/// into the plan's unique-spec list, in reduce order.
#[derive(Debug, Clone)]
pub struct Subscription {
    /// Subscriber identifier (the experiment id).
    pub id: String,
    /// Indices into [`Plan::specs`], in the order the subscriber's
    /// reducer consumes them.
    pub spec_indices: Vec<usize>,
}

/// A deduplicated set of specs plus the subscriptions that consume
/// them.
#[derive(Debug, Clone)]
pub struct Plan<S: Spec> {
    specs: Vec<S>,
    hashes: Vec<u64>,
    index: HashMap<u64, usize>,
    subs: Vec<Subscription>,
}

impl<S: Spec> Default for Plan<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Spec> Plan<S> {
    /// An empty plan.
    pub fn new() -> Self {
        Self {
            specs: Vec::new(),
            hashes: Vec::new(),
            index: HashMap::new(),
            subs: Vec::new(),
        }
    }

    /// A plan holding one experiment's subscription: `specs` in reduce
    /// order, deduplicated by content hash.
    ///
    /// # Panics
    /// Panics if two *different* keys collide to one hash — a plan must
    /// never silently alias distinct work.
    pub fn for_experiment(id: impl Into<String>, specs: Vec<S>) -> Self {
        let mut plan = Self::new();
        plan.subscribe(id, specs);
        plan
    }

    /// Appends a subscription, interning its specs.
    pub fn subscribe(&mut self, id: impl Into<String>, specs: Vec<S>) {
        let spec_indices = specs.into_iter().map(|s| self.intern(s)).collect();
        self.subs.push(Subscription {
            id: id.into(),
            spec_indices,
        });
    }

    /// Interns one spec, returning its index among the unique specs.
    fn intern(&mut self, spec: S) -> usize {
        let key = spec.key();
        let hash = stable_hash(&key);
        if let Some(&idx) = self.index.get(&hash) {
            assert_eq!(
                self.specs[idx].key(),
                key,
                "spec hash collision: distinct keys share hash {hash:#018x}"
            );
            return idx;
        }
        let idx = self.specs.len();
        self.specs.push(spec);
        self.hashes.push(hash);
        self.index.insert(hash, idx);
        idx
    }

    /// Merges another plan into this one: specs are re-interned (so
    /// cross-plan duplicates collapse) and subscriptions are appended.
    pub fn merge(&mut self, other: Plan<S>) {
        let Plan { specs, subs, .. } = other;
        // Re-intern the other plan's specs and remap its subscriptions.
        let remap: Vec<usize> = specs.into_iter().map(|s| self.intern(s)).collect();
        for sub in subs {
            self.subs.push(Subscription {
                id: sub.id,
                spec_indices: sub.spec_indices.into_iter().map(|i| remap[i]).collect(),
            });
        }
    }

    /// The unique specs, in first-subscription order.
    pub fn specs(&self) -> &[S] {
        &self.specs
    }

    /// Content hash of each unique spec (parallel to [`Plan::specs`]).
    pub fn spec_hashes(&self) -> &[u64] {
        &self.hashes
    }

    /// Index of the unique spec with this content hash, if present.
    pub fn index_of(&self, hash: u64) -> Option<usize> {
        self.index.get(&hash).copied()
    }

    /// The subscriptions, in the order they were added.
    pub fn subscriptions(&self) -> &[Subscription] {
        &self.subs
    }

    /// Number of unique specs (simulations actually executed).
    pub fn unique_len(&self) -> usize {
        self.specs.len()
    }

    /// Number of spec references across all subscriptions (simulations
    /// the old one-job-per-figure decomposition would have executed).
    pub fn subscribed_len(&self) -> usize {
        self.subs.iter().map(|s| s.spec_indices.len()).sum()
    }

    /// `subscribed / unique` — how much work deduplication saves
    /// (`1.0` when nothing is shared; `1.0` for an empty plan).
    pub fn dedup_ratio(&self) -> f64 {
        if self.specs.is_empty() {
            1.0
        } else {
            self.subscribed_len() as f64 / self.unique_len() as f64
        }
    }

    /// The unique-spec indices belonging to shard `shard` of `of`:
    /// round-robin over plan order, so shards are balanced and the
    /// union over all shards is exactly the plan.
    ///
    /// Shard membership is a function of *catalogue order only* — the
    /// longest-first submission order the executor uses is a scheduling
    /// detail applied after sharding, inside each shard, and never
    /// moves a spec between shards. Keeping the cut on plan order is
    /// what lets [`Plan::fingerprint`] verify that independently built
    /// shards came from one plan, regardless of each host's cost hints.
    ///
    /// # Panics
    /// Panics unless `shard < of`.
    pub fn shard_indices(&self, shard: usize, of: usize) -> Vec<usize> {
        assert!(shard < of, "shard {shard} out of range for {of} shards");
        (shard..self.specs.len()).step_by(of).collect()
    }

    /// A stable fingerprint of the whole plan — every spec hash in
    /// order plus the subscription structure. Two hosts that build the
    /// same plan (same experiments, same scale) agree on it; a merge
    /// step rejects shards carrying any other fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for &spec in &self.hashes {
            mix(spec);
        }
        for sub in &self.subs {
            mix(stable_hash(&sub.id));
            mix(sub.spec_indices.len() as u64);
            for &i in &sub.spec_indices {
                mix(self.hashes[i]);
            }
        }
        h
    }

    /// For each unique spec, the subscriptions that reference it (each
    /// subscription listed once per spec, however often it re-reads the
    /// output).
    fn subscribers_by_spec(&self) -> Vec<Vec<usize>> {
        let mut by_spec: Vec<Vec<usize>> = vec![Vec::new(); self.specs.len()];
        for (si, sub) in self.subs.iter().enumerate() {
            for &idx in &sub.spec_indices {
                if by_spec[idx].last() != Some(&si) {
                    by_spec[idx].push(si);
                }
            }
        }
        by_spec
    }

    /// Runs every unique spec in plan order on the calling thread,
    /// returning outputs parallel to [`Plan::specs`]. Panics propagate —
    /// this is the simple sequential path for single-experiment runs
    /// and tests.
    pub fn run_sequential(&self, master_seed: u64) -> Vec<S::Output> {
        self.specs
            .iter()
            .map(|spec| {
                let mut ctx = JobCtx::for_label(master_seed, spec.key());
                spec.run(&mut ctx)
            })
            .collect()
    }

    /// Borrows one subscription's outputs, in reduce order, out of a
    /// unique-spec output slice (as produced by
    /// [`Plan::run_sequential`]).
    ///
    /// # Panics
    /// Panics if `outputs` is not parallel to [`Plan::specs`].
    pub fn subscription_outputs<'a>(
        &self,
        subscription: usize,
        outputs: &'a [S::Output],
    ) -> Vec<&'a S::Output> {
        assert_eq!(outputs.len(), self.specs.len(), "outputs not plan-shaped");
        self.subs[subscription]
            .spec_indices
            .iter()
            .map(|&i| &outputs[i])
            .collect()
    }
}

/// A completed spec's shared output, or the panic message that killed
/// it.
pub type SpecResult<S> = Result<Arc<<S as Spec>::Output>, String>;

/// `(spec key, panic message)` for every failed spec a subscription
/// references.
pub type SpecFailures = Vec<(String, String)>;

/// What a subscription's reducer receives the moment its last spec
/// completes.
pub struct SubscriptionResult<S: Spec> {
    /// Index into [`Plan::subscriptions`].
    pub subscription: usize,
    /// Outputs in reduce order — or, if any subscribed spec panicked,
    /// the failures that spoiled the subscription.
    pub outcome: Result<Vec<Arc<S::Output>>, SpecFailures>,
}

/// Executes a plan's unique specs (optionally a subset) on the pool,
/// with an optional content-addressed output cache — the one plan
/// executor every caller goes through.
///
/// The selected specs (`only`, or the whole plan) are partitioned into
/// *hits* — entries loaded from `cache`, validated against the spec
/// key, decoded, and fed straight to their subscriptions — and
/// *misses*, which execute on the pool and are written back on
/// completion. An invalid entry (corrupt, truncated, version-skewed,
/// or key-mismatched) reads as a miss and re-executes; it can never
/// poison a reduce. With `cache: None` every spec is a miss.
///
/// Before its first slice, each miss claims its content hash
/// ([`OutputCache::claim`]), so concurrent processes sharing a cache
/// directory execute each spec once: a miss whose claim is held by a
/// live process waits for that process's entry and completes as a hit.
/// Hits never touch a claim, and traced runs take none.
///
/// Every miss runs as a chain of [`Spec::start_sliced`] slices under
/// [`ExecConfig::slice_events`] (`u64::MAX`, i.e. one slice, when
/// slicing is off), submitted longest-first by [`Spec::cost_hint`].
///
/// `on_ready` fires — from the completing worker's thread — as soon as
/// the last spec a subscription references has finished, with that
/// subscription's outputs in reduce order; subscriptions whose specs
/// lie partly outside `only` never fire. Per-spec results (shared via
/// [`Arc`]) are returned keyed by unique-spec index; specs outside
/// `only` yield `None`.
///
/// `progress` counts the misses' tasks, so a fully warm run reports
/// zero sims. The returned [`RunStats`] split the selected specs into
/// hits and misses, total the engine events the misses dispatched, and
/// carry one [`SpecTiming`] row per executed spec.
#[allow(clippy::too_many_arguments)]
pub fn run_plan_cached<S: CacheableSpec>(
    pool: &Pool,
    master_seed: u64,
    plan: &Plan<S>,
    only: Option<&[usize]>,
    cache: Option<&dyn OutputCache>,
    exec: ExecConfig,
    progress: impl Fn(usize, usize) + Sync,
    on_ready: impl Fn(SubscriptionResult<S>) + Sync,
) -> (Vec<Option<SpecResult<S>>>, RunStats) {
    let n = plan.specs().len();
    // Dedup the subset (first occurrence wins) so a spec never runs —
    // and never decrements readiness counters — twice.
    let mut in_shard = vec![false; n];
    let mut selected: Vec<usize> = Vec::new();
    for &i in only.unwrap_or(&(0..n).collect::<Vec<_>>()) {
        if !in_shard[i] {
            in_shard[i] = true;
            selected.push(i);
        }
    }
    let results: Vec<Mutex<Option<SpecResult<S>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let subscribers = plan.subscribers_by_spec();
    // A subscription is ready when its last *distinct* spec completes;
    // subscriptions reaching outside the executed subset never fire.
    let remaining: Vec<Option<AtomicUsize>> = plan
        .subscriptions()
        .iter()
        .map(|sub| {
            let mut distinct: Vec<usize> = sub.spec_indices.clone();
            distinct.sort_unstable();
            distinct.dedup();
            if distinct.iter().all(|&i| in_shard[i]) {
                Some(AtomicUsize::new(distinct.len()))
            } else {
                None
            }
        })
        .collect();

    let gather = |sub_idx: usize| -> SubscriptionResult<S> {
        let sub = &plan.subscriptions()[sub_idx];
        let mut outputs = Vec::with_capacity(sub.spec_indices.len());
        let mut failures: Vec<(String, String)> = Vec::new();
        for &idx in &sub.spec_indices {
            let slot = results[idx].lock().expect("result slot poisoned");
            match slot.as_ref().expect("subscribed spec complete") {
                Ok(out) => outputs.push(Arc::clone(out)),
                Err(msg) => {
                    let key = plan.specs()[idx].key();
                    if !failures.iter().any(|(k, _)| *k == key) {
                        failures.push((key, msg.clone()));
                    }
                }
            }
        }
        SubscriptionResult {
            subscription: sub_idx,
            outcome: if failures.is_empty() {
                Ok(outputs)
            } else {
                Err(failures)
            },
        }
    };
    // Records a finished spec's result and fires every subscription it
    // completes.
    let complete = |idx: usize, result: SpecResult<S>| {
        *results[idx].lock().expect("result slot poisoned") = Some(result);
        for &si in &subscribers[idx] {
            if let Some(r) = &remaining[si] {
                if r.fetch_sub(1, Ordering::AcqRel) == 1 {
                    on_ready(gather(si));
                }
            }
        }
    };

    // Subscriptions with no specs at all are ready before anything
    // runs (before hit pre-filling, which fires on the 1 → 0 counter
    // transition and would otherwise double-fire them).
    for (si, r) in remaining.iter().enumerate() {
        if let Some(r) = r {
            if r.load(Ordering::Acquire) == 0 {
                on_ready(gather(si));
            }
        }
    }

    // Partition the selection into cache hits — completed on the spot,
    // like a finished run — and the misses the pool actually executes.
    // Probing is sequential on the coordinating thread: a full warm
    // probe of the quick catalogue measures in tens of milliseconds,
    // far below the cost of a single sim. A traced run skips probing
    // and claims: a cache hit produces no trace.
    let probe = if exec.trace.is_some() { None } else { cache };
    let try_hit = |idx: usize| -> bool {
        let hit = probe.and_then(|c| {
            let text = c.load(plan.spec_hashes()[idx], &plan.specs()[idx].key())?;
            S::decode_output(&text).ok()
        });
        hit.map(|out| complete(idx, Ok(Arc::new(out)))).is_some()
    };
    let to_run: Vec<usize> = selected.iter().copied().filter(|&i| !try_hit(i)).collect();
    // Misses another process completed while this run waited on its
    // claim: they count as hits.
    let late_hits = AtomicUsize::new(0);
    let late_hit = |idx: usize| -> bool {
        let hit = try_hit(idx);
        if hit {
            late_hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    };

    // Longest-first submission: the expensive sims start immediately
    // and the short tail backfills idle workers, instead of a straggler
    // getting dequeued last and serializing the run's finish.
    let to_run = longest_first(to_run, |i| plan.specs()[i].clone());

    let events_total = AtomicU64::new(0);
    let timings: Mutex<Vec<SpecTiming>> = Mutex::new(Vec::with_capacity(to_run.len()));
    let budget = exec.slice_events.unwrap_or(u64::MAX);
    let finish =
        |idx: usize, outcome: Result<(S::Output, u64), String>, wall_s: f64, slices: u32| {
            let result = outcome.map(|(out, events)| {
                let key = plan.specs()[idx].key();
                events_total.fetch_add(events, Ordering::Relaxed);
                if let Some(c) = cache {
                    c.store(plan.spec_hashes()[idx], &key, &S::encode_output(&out));
                }
                timings.lock().expect("timings poisoned").push(SpecTiming {
                    key,
                    wall_s,
                    events,
                    slices,
                });
                Arc::new(out)
            });
            complete(idx, result);
        };
    let finish = &finish;
    let tasks: Vec<ResumableTask<()>> = to_run
        .iter()
        .map(|&idx| {
            let spec = plan.specs()[idx].clone();
            let mut ctx = JobCtx::for_label(master_seed, spec.key());
            if let Some(tc) = &exec.trace {
                ctx.set_trace_path(tc.path_for(&spec.key()));
            }
            let first = Box::new(move |ctx: &mut JobCtx| spec.start_sliced(ctx, budget));
            let run = move |claim| slice_chain(idx, ctx, first, budget, 0.0, 0, claim, finish);
            match probe {
                Some(c) => claimed(idx, plan.spec_hashes()[idx], c, &late_hit, run),
                None => run(ClaimGuard::default()),
            }
        })
        .collect();
    pool.run_resumable(tasks, progress);

    let late_hits = late_hits.into_inner();
    let mut timings = timings.into_inner().expect("timings poisoned");
    timings.sort_by(|a, b| a.key.cmp(&b.key));
    (
        results
            .into_iter()
            .map(|slot| slot.into_inner().expect("result slot poisoned"))
            .collect(),
        RunStats {
            cache: CacheCounters {
                hits: selected.len() - to_run.len() + late_hits,
                misses: to_run.len() - late_hits,
            },
            events: events_total.into_inner(),
            timings,
        },
    )
}

/// How long a miss waits before re-probing a spec another live process
/// has claimed. Waiting tasks sleep on their worker, so a pool holding
/// only parked tasks does not spin.
const CLAIM_WAIT: Duration = Duration::from_millis(2);

/// A miss's first step under cross-process claims. A won claim re-probes
/// the cache (another process may have stored the entry since this
/// run's probe) and otherwise starts `run`, which holds the claim until
/// the output is stored. A claim held by a live process re-probes, and
/// completes as a hit or waits and yields to try again.
fn claimed<'a, H, R>(
    idx: usize,
    hash: u64,
    cache: &'a dyn OutputCache,
    try_hit: &'a H,
    run: R,
) -> ResumableTask<'a, ()>
where
    H: Fn(usize) -> bool + Sync,
    R: FnOnce(ClaimGuard) -> ResumableTask<'a, ()> + Send + 'a,
{
    Box::new(move || match cache.claim(hash) {
        Claim::Won(guard) if guard.is_held() && try_hit(idx) => TaskStep::Done(()),
        Claim::Won(guard) => run(guard)(),
        Claim::Held if try_hit(idx) => TaskStep::Done(()),
        Claim::Held => {
            std::thread::sleep(CLAIM_WAIT);
            TaskStep::Yield(claimed(idx, hash, cache, try_hit, run))
        }
    })
}

/// One boxed slice step: takes the spec's job context, returns either
/// the finished output or the parked state of an unfinished run.
type StepFn<'a, O> = Box<dyn FnOnce(&mut JobCtx) -> SliceStep<O> + Send + 'a>;

/// The per-spec resumable task chain behind [`run_plan_cached`]: each
/// pool step runs one slice (budget-bounded when the spec supports
/// slicing, the whole run otherwise), accumulating wall time and slice
/// count across steps, and reports through `finish` exactly once — on
/// the completing slice or on the slice that panicked — then releases
/// the spec's `claim`. Panics are caught *here*, not left to the pool's
/// own capture, because `finish` must still run for a failed spec: it
/// records the error in the result slot and advances subscription
/// readiness so reducers learn about the failure.
#[allow(clippy::too_many_arguments)]
fn slice_chain<'a, O, F>(
    idx: usize,
    mut ctx: JobCtx,
    step: StepFn<'a, O>,
    budget: u64,
    wall_s: f64,
    slices: u32,
    claim: ClaimGuard,
    finish: &'a F,
) -> ResumableTask<'a, ()>
where
    O: Send + 'static,
    F: Fn(usize, Result<(O, u64), String>, f64, u32) + Sync,
{
    Box::new(move || {
        let started = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| step(&mut ctx)));
        let wall_s = wall_s + started.elapsed().as_secs_f64();
        let slices = slices + 1;
        let outcome = match out {
            Err(payload) => Err(panic_message(payload.as_ref())),
            Ok(SliceStep::Done(out)) => Ok((out, ctx.events_processed())),
            Ok(SliceStep::Pending(state)) => {
                return TaskStep::Yield(slice_chain(
                    idx,
                    ctx,
                    Box::new(move |ctx: &mut JobCtx| state.resume(ctx, budget)),
                    budget,
                    wall_s,
                    slices,
                    claim,
                    finish,
                ))
            }
        };
        // Store first, then release: a waiter that wins the claim next
        // re-probes and finds the entry.
        finish(idx, outcome, wall_s, slices);
        drop(claim);
        TaskStep::Done(())
    })
}

/// Submission order for a miss list: longest-first by cost hint,
/// original order as the tiebreak. Pure scheduling — results land in
/// index-keyed slots, so output bytes cannot depend on this order.
fn longest_first<S: Spec>(to_run: Vec<usize>, spec_of: impl Fn(usize) -> S) -> Vec<usize> {
    let mut hinted: Vec<(usize, u64)> = to_run
        .into_iter()
        .map(|i| (i, spec_of(i).cost_hint()))
        .collect();
    hinted.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    hinted.into_iter().map(|(i, _)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A toy spec: doubles its value; panics on demand.
    #[derive(Debug, Clone, PartialEq)]
    struct Toy {
        name: &'static str,
        value: u64,
        fail: bool,
    }

    impl Spec for Toy {
        type Output = u64;
        fn key(&self) -> String {
            format!("toy/{}/v{}", self.name, self.value)
        }
        fn run(&self, ctx: &mut JobCtx) -> u64 {
            if self.fail {
                panic!("toy spec failure");
            }
            // Honor the tracing contract: specs that support tracing
            // write a trace file at the ctx's path.
            if let Some(p) = ctx.trace_path() {
                std::fs::write(p, self.key()).unwrap();
            }
            // Pretend each run dispatched `value` engine events, so the
            // accounting below is observable.
            ctx.record_events(self.value);
            self.value * 2
        }
    }

    impl CacheableSpec for Toy {
        fn encode_output(out: &u64) -> String {
            format!("{out}")
        }
        fn decode_output(text: &str) -> Result<u64, String> {
            text.parse::<u64>().map_err(|e| e.to_string())
        }
    }

    fn toy(name: &'static str, value: u64) -> Toy {
        Toy {
            name,
            value,
            fail: false,
        }
    }

    /// Runs `plan` through [`run_plan_cached`] with no-op callbacks.
    fn execute<S: CacheableSpec>(
        threads: usize,
        plan: &Plan<S>,
        cache: Option<&dyn OutputCache>,
        exec: ExecConfig,
    ) -> (Vec<Option<SpecResult<S>>>, RunStats) {
        run_plan_cached(
            &Pool::new(threads),
            0,
            plan,
            None,
            cache,
            exec,
            |_, _| {},
            |_| {},
        )
    }

    /// Each spec's output, or its error message, in plan order.
    fn outcomes(results: &[Option<Result<Arc<u64>, String>>]) -> Vec<Result<u64, String>> {
        results
            .iter()
            .map(|r| {
                r.as_ref()
                    .expect("spec selected")
                    .as_deref()
                    .copied()
                    .map_err(|e| e.clone())
            })
            .collect()
    }

    #[test]
    fn stable_hash_is_fnv1a() {
        // FNV-1a test vectors.
        assert_eq!(stable_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(stable_hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(stable_hash("a/b"), stable_hash("b/a"));
    }

    #[test]
    fn plans_dedup_by_content() {
        let mut plan = Plan::for_experiment("e1", vec![toy("a", 1), toy("b", 2)]);
        plan.merge(Plan::for_experiment("e2", vec![toy("a", 1), toy("c", 3)]));
        assert_eq!(plan.unique_len(), 3);
        assert_eq!(plan.subscribed_len(), 4);
        assert!((plan.dedup_ratio() - 4.0 / 3.0).abs() < 1e-12);
        // e2's first spec resolves to e1's interned copy.
        assert_eq!(plan.subscriptions()[1].spec_indices[0], 0);
    }

    #[test]
    fn shards_partition_the_plan() {
        let plan = Plan::for_experiment("e", (0..10).map(|i| toy("s", i)).collect());
        let mut seen: Vec<usize> = Vec::new();
        for shard in 0..3 {
            seen.extend(plan.shard_indices(shard, 3));
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert_eq!(plan.shard_indices(0, 1).len(), 10);
    }

    #[test]
    fn fingerprint_tracks_content() {
        let a = Plan::for_experiment("e", vec![toy("a", 1), toy("b", 2)]);
        let b = Plan::for_experiment("e", vec![toy("a", 1), toy("b", 2)]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = Plan::for_experiment("e", vec![toy("a", 1), toy("b", 3)]);
        assert_ne!(a.fingerprint(), c.fingerprint());
        let d = Plan::for_experiment("other", vec![toy("a", 1), toy("b", 2)]);
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn subscriptions_fire_once_with_ordered_outputs() {
        let mut plan = Plan::for_experiment("e1", vec![toy("a", 1), toy("b", 2)]);
        plan.merge(Plan::for_experiment("e2", vec![toy("b", 2), toy("a", 1)]));
        let fired = Mutex::new(vec![Vec::new(); 2]);
        let calls = AtomicUsize::new(0);
        run_plan_cached(
            &Pool::new(4),
            0,
            &plan,
            None,
            None,
            ExecConfig::default(),
            |_, _| {},
            |res: SubscriptionResult<Toy>| {
                calls.fetch_add(1, Ordering::Relaxed);
                let outs: Vec<u64> = res.outcome.unwrap().iter().map(|o| **o).collect();
                fired.lock().unwrap()[res.subscription] = outs;
            },
        );
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        let fired = fired.into_inner().unwrap();
        assert_eq!(fired[0], vec![2, 4]);
        assert_eq!(fired[1], vec![4, 2], "reduce order per subscription");
    }

    #[test]
    fn a_failing_spec_fails_every_subscriber() {
        let mut plan = Plan::for_experiment(
            "bad",
            vec![
                toy("ok", 1),
                Toy {
                    name: "boom",
                    value: 9,
                    fail: true,
                },
            ],
        );
        plan.merge(Plan::for_experiment("good", vec![toy("ok", 1)]));
        let outcomes: Mutex<Vec<(usize, bool)>> = Mutex::new(Vec::new());
        run_plan_cached(
            &Pool::new(2),
            0,
            &plan,
            None,
            None,
            ExecConfig::default(),
            |_, _| {},
            |res: SubscriptionResult<Toy>| {
                let failed = match &res.outcome {
                    Ok(_) => false,
                    Err(fails) => {
                        assert_eq!(fails.len(), 1);
                        assert_eq!(fails[0].0, "toy/boom/v9");
                        assert!(fails[0].1.contains("toy spec failure"));
                        true
                    }
                };
                outcomes.lock().unwrap().push((res.subscription, failed));
            },
        );
        let mut outcomes = outcomes.into_inner().unwrap();
        outcomes.sort_unstable();
        assert_eq!(outcomes, vec![(0, true), (1, false)]);
    }

    #[test]
    fn subset_runs_skip_unready_subscriptions() {
        let mut plan = Plan::for_experiment("wide", vec![toy("a", 1), toy("b", 2)]);
        plan.merge(Plan::for_experiment("narrow", vec![toy("a", 1)]));
        let fired = Mutex::new(Vec::new());
        let (results, _) = run_plan_cached(
            &Pool::new(2),
            0,
            &plan,
            Some(&[0]),
            None,
            ExecConfig::default(),
            |_, _| {},
            |res: SubscriptionResult<Toy>| fired.lock().unwrap().push(res.subscription),
        );
        assert_eq!(*fired.lock().unwrap(), vec![1], "only 'narrow' is ready");
        assert!(results[0].is_some());
        assert!(results[1].is_none(), "spec outside the shard did not run");
    }

    #[test]
    fn sequential_run_matches_pool_run() {
        let plan = Plan::for_experiment("e", (0..7).map(|i| toy("s", i)).collect());
        let seq = plan.run_sequential(0);
        let (par, _) = execute(3, &plan, None, ExecConfig::default());
        let par: Vec<u64> = outcomes(&par).into_iter().map(Result::unwrap).collect();
        assert_eq!(seq, par);
    }

    /// A spec whose output is the first draw of its `(master seed,
    /// key)` stream.
    #[derive(Debug, Clone)]
    struct Draw(usize);

    impl Spec for Draw {
        type Output = u64;
        fn key(&self) -> String {
            format!("grid/p{}/rep0", self.0)
        }
        fn run(&self, ctx: &mut JobCtx) -> u64 {
            ctx.rng().next_u64()
        }
    }

    impl CacheableSpec for Draw {
        fn encode_output(out: &u64) -> String {
            format!("{out}")
        }
        fn decode_output(text: &str) -> Result<u64, String> {
            text.parse::<u64>().map_err(|e| e.to_string())
        }
    }

    #[test]
    fn ctx_rng_ignores_execution_order_and_threads() {
        let plan = Plan::for_experiment("draws", (0..24).map(Draw).collect());
        let seq = plan.run_sequential(7);
        for threads in [1, 8] {
            let (par, _) = run_plan_cached(
                &Pool::new(threads),
                7,
                &plan,
                None,
                None,
                ExecConfig::default(),
                |_, _| {},
                |_| {},
            );
            let par: Vec<u64> = outcomes(&par).into_iter().map(Result::unwrap).collect();
            assert_eq!(par, seq, "{threads} thread(s)");
        }
    }

    #[test]
    fn a_failing_spec_fails_only_its_own_slot() {
        let plan = Plan::for_experiment(
            "e",
            vec![
                toy("x", 5),
                Toy {
                    name: "boom",
                    value: 0,
                    fail: true,
                },
            ],
        );
        let (results, run) = execute(2, &plan, None, ExecConfig::default());
        let out = outcomes(&results);
        assert_eq!(out[0], Ok(10));
        assert!(out[1].as_ref().unwrap_err().contains("toy spec failure"));
        assert_eq!(core(&run), stats(0, 2, 5));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shard_index_must_be_in_range() {
        let plan = Plan::for_experiment("e", vec![toy("a", 1)]);
        let _ = plan.shard_indices(2, 2);
    }

    use crate::cache::DirCache;

    fn cache_scratch(name: &str) -> DirCache {
        let dir =
            std::env::temp_dir().join(format!("ebrc-plan-cache-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        DirCache::new(dir)
    }

    /// Shorthand for the expected (cache, events) core of a run's
    /// stats — wall-clock timings are checked separately since they
    /// are not reproducible.
    fn stats(hits: usize, misses: usize, events: u64) -> (CacheCounters, u64) {
        (CacheCounters { hits, misses }, events)
    }

    /// The reproducible core of a [`RunStats`].
    fn core(s: &RunStats) -> (CacheCounters, u64) {
        (s.cache, s.events)
    }

    /// (per-spec results, stats, per-subscription fired outputs).
    type CachedRun = (Vec<Option<SpecResult<Toy>>>, RunStats, Vec<Vec<u64>>);

    fn run_cached(plan: &Plan<Toy>, cache: &DirCache) -> CachedRun {
        let fired = Mutex::new(vec![Vec::new(); plan.subscriptions().len()]);
        let (results, counters) = run_plan_cached(
            &Pool::new(3),
            0,
            plan,
            None,
            Some(cache),
            ExecConfig::default(),
            |_, _| {},
            |res: SubscriptionResult<Toy>| {
                let outs: Vec<u64> = res.outcome.unwrap().iter().map(|o| **o).collect();
                fired.lock().unwrap()[res.subscription] = outs;
            },
        );
        (results, counters, fired.into_inner().unwrap())
    }

    #[test]
    fn warm_plan_runs_execute_nothing_and_match_cold_runs() {
        let mut plan = Plan::for_experiment("e1", vec![toy("a", 1), toy("b", 2)]);
        plan.merge(Plan::for_experiment("e2", vec![toy("b", 2), toy("c", 3)]));
        let cache = cache_scratch("warm");
        let (cold, c0, fired_cold) = run_cached(&plan, &cache);
        assert_eq!(
            core(&c0),
            stats(0, 3, 6),
            "cold run executes and dispatches"
        );
        // One timing row per executed spec, sorted by key, events
        // matching what each spec reported.
        let rows: Vec<(&str, u64, u32)> = c0
            .timings
            .iter()
            .map(|t| (t.key.as_str(), t.events, t.slices))
            .collect();
        assert_eq!(
            rows,
            vec![("toy/a/v1", 1, 1), ("toy/b/v2", 2, 1), ("toy/c/v3", 3, 1)]
        );
        let (warm, c1, fired_warm) = run_cached(&plan, &cache);
        assert_eq!(core(&c1), stats(3, 0, 0), "warm run executes nothing");
        assert!(c1.timings.is_empty(), "hits get no timing rows");
        // Byte-for-byte the same outputs, and every subscription fires
        // with identical reduce-order inputs.
        for (a, b) in cold.iter().zip(&warm) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(**a.as_ref().unwrap(), **b.as_ref().unwrap());
        }
        assert_eq!(fired_cold, fired_warm);
        assert_eq!(fired_warm, vec![vec![2, 4], vec![4, 6]]);
        // Without a cache every spec is a miss with the same outputs.
        let (bare, cb) = execute(3, &plan, None, ExecConfig::default());
        assert_eq!(core(&cb), stats(0, 3, 6));
        assert_eq!(outcomes(&bare), outcomes(&cold));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupted_entries_re_execute_instead_of_poisoning() {
        let plan = Plan::for_experiment("e", vec![toy("a", 1), toy("b", 2)]);
        let cache = cache_scratch("corrupt");
        let _ = run_cached(&plan, &cache);
        // Truncate one entry; flip the other's payload.
        let h_a = stable_hash("toy/a/v1");
        std::fs::write(cache.entry_path(h_a), "{\"form").unwrap();
        let h_b = stable_hash("toy/b/v2");
        let text = std::fs::read_to_string(cache.entry_path(h_b)).unwrap();
        let flipped = text.replace("\"payload\":\"4\"", "\"payload\":\"5\"");
        assert_ne!(text, flipped, "payload to corrupt must be present");
        std::fs::write(cache.entry_path(h_b), flipped).unwrap();
        let (results, counters, fired) = run_cached(&plan, &cache);
        assert_eq!(core(&counters), stats(0, 2, 3));
        assert_eq!(**results[0].as_ref().unwrap().as_ref().unwrap(), 2);
        assert_eq!(fired, vec![vec![2, 4]], "reduce saw fresh outputs");
        // The re-run repaired the entries.
        let (_, repaired, _) = run_cached(&plan, &cache);
        assert_eq!(core(&repaired), stats(2, 0, 0));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn shard_subsets_only_cache_their_own_specs() {
        let plan = Plan::for_experiment("e", (0..6).map(|i| toy("s", i)).collect());
        let cache = cache_scratch("subset");
        let shard0 = plan.shard_indices(0, 2);
        let (results, counters) = run_plan_cached(
            &Pool::new(2),
            0,
            &plan,
            Some(&shard0),
            Some(&cache),
            ExecConfig::default(),
            |_, _| {},
            |_| {},
        );
        assert_eq!(core(&counters), stats(0, 3, 6));
        assert!(results[1].is_none(), "outside the shard");
        assert_eq!(cache.entries().len(), 3);
        // Shard 1 misses everything; a repeat of shard 0 is all hits.
        let (_, c1) = run_plan_cached(
            &Pool::new(2),
            0,
            &plan,
            Some(&plan.shard_indices(1, 2)),
            Some(&cache),
            ExecConfig::default(),
            |_, _| {},
            |_| {},
        );
        assert_eq!(core(&c1), stats(0, 3, 9));
        let (_, c0) = run_plan_cached(
            &Pool::new(2),
            0,
            &plan,
            Some(&shard0),
            Some(&cache),
            ExecConfig::default(),
            |_, _| {},
            |_| {},
        );
        assert_eq!(core(&c0), stats(3, 0, 0));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn failing_specs_are_not_cached() {
        let boom = Toy {
            name: "boom",
            value: 9,
            fail: true,
        };
        let plan = Plan::for_experiment("e", vec![toy("ok", 1), boom]);
        let cache = cache_scratch("fail");
        let c0 = run_cached(&plan, &cache).1;
        assert_eq!(
            core(&c0),
            stats(0, 2, 1),
            "panicking specs contribute no events"
        );
        assert_eq!(c0.timings.len(), 1, "panicking specs get no timing row");
        // Only the successful spec was stored; the failure re-runs.
        let (results, c1, _) = run_cached(&plan, &cache);
        assert_eq!(core(&c1), stats(1, 1, 0));
        assert!(results[1].as_ref().unwrap().is_err());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    // -----------------------------------------------------------------
    // Cost-model scheduling and sliced execution.
    // -----------------------------------------------------------------

    /// A toy spec with an explicit cost hint and an optional sliced
    /// run: `work` counts down `budget` at a time, recording one event
    /// per unit, and the output is `value * 2` exactly like [`Toy`] —
    /// so sliced and monolithic paths must agree bit-for-bit.
    #[derive(Debug, Clone)]
    struct Sliceable {
        name: &'static str,
        value: u64,
        work: u64,
    }

    struct SliceableState {
        value: u64,
        left: u64,
    }

    impl SlicedRun for SliceableState {
        type Output = u64;
        fn resume(mut self: Box<Self>, ctx: &mut JobCtx, budget: u64) -> SliceStep<u64> {
            let step = self.left.min(budget.max(1));
            self.left -= step;
            ctx.record_events(step);
            if self.left == 0 {
                SliceStep::Done(self.value * 2)
            } else {
                SliceStep::Pending(self)
            }
        }
    }

    impl Spec for Sliceable {
        type Output = u64;
        fn key(&self) -> String {
            format!("sl/{}/v{}", self.name, self.value)
        }
        fn run(&self, ctx: &mut JobCtx) -> u64 {
            ctx.record_events(self.work);
            self.value * 2
        }
        fn cost_hint(&self) -> u64 {
            self.work
        }
        fn start_sliced(&self, ctx: &mut JobCtx, budget: u64) -> SliceStep<u64> {
            Box::new(SliceableState {
                value: self.value,
                left: self.work,
            })
            .resume(ctx, budget)
        }
    }

    impl CacheableSpec for Sliceable {
        fn encode_output(out: &u64) -> String {
            format!("{out}")
        }
        fn decode_output(text: &str) -> Result<u64, String> {
            text.parse::<u64>().map_err(|e| e.to_string())
        }
    }

    #[test]
    fn longest_first_orders_by_descending_hint_with_stable_ties() {
        let specs: Vec<Sliceable> = [(0, 5u64), (1, 9), (2, 5), (3, 0), (4, 9)]
            .iter()
            .map(|&(i, w)| Sliceable {
                name: "lf",
                value: i,
                work: w,
            })
            .collect();
        let order = longest_first((0..specs.len()).collect(), |i| specs[i].clone());
        assert_eq!(order, vec![1, 4, 0, 2, 3]);
    }

    #[test]
    fn sliced_execution_is_bit_identical_at_any_budget_and_thread_count() {
        let mut plan = Plan::for_experiment(
            "big",
            (0..9u64)
                .map(|i| Sliceable {
                    name: "mix",
                    value: i,
                    work: 1 + (i * 13) % 40,
                })
                .collect(),
        );
        plan.merge(Plan::for_experiment(
            "sub",
            vec![Sliceable {
                name: "mix",
                value: 4,
                work: 1 + (4 * 13) % 40,
            }],
        ));
        let sequential = plan.run_sequential(0);
        for threads in [1, 2, 8] {
            for budget in [None, Some(1), Some(7), Some(1000)] {
                let fired = Mutex::new(vec![Vec::new(); plan.subscriptions().len()]);
                let (results, stats) = run_plan_cached(
                    &Pool::new(threads),
                    0,
                    &plan,
                    None,
                    None,
                    ExecConfig {
                        slice_events: budget,
                        ..ExecConfig::default()
                    },
                    |_, _| {},
                    |res: SubscriptionResult<Sliceable>| {
                        let outs: Vec<u64> = res.outcome.unwrap().iter().map(|o| **o).collect();
                        fired.lock().unwrap()[res.subscription] = outs;
                    },
                );
                for (seq, got) in sequential.iter().zip(&results) {
                    assert_eq!(
                        *seq,
                        **got.as_ref().unwrap().as_ref().unwrap(),
                        "threads={threads} budget={budget:?}"
                    );
                }
                // Events survive slicing: every unit of work recorded
                // exactly once no matter how the run was chopped up.
                assert_eq!(
                    stats.events,
                    (0..9u64).map(|i| 1 + (i * 13) % 40).sum::<u64>(),
                    "threads={threads} budget={budget:?}"
                );
                let fired = fired.into_inner().unwrap();
                assert_eq!(fired[0], sequential.to_vec());
                assert_eq!(fired[1], vec![sequential[4]]);
                // Slice counts line up with the budget: ceil(work/budget)
                // for sliceable specs.
                if let Some(b) = budget {
                    for t in &stats.timings {
                        let work = t.events;
                        assert_eq!(t.slices as u64, work.div_ceil(b), "key={}", t.key);
                    }
                }
            }
        }
    }

    /// The straggler test: one sim 10× longer than the rest must not
    /// bound a two-worker pool's wall-clock. The toy sims *sleep*
    /// (their cost is time, not CPU), so the comparison measures
    /// scheduling — it holds even on a single-core host.
    #[derive(Debug, Clone)]
    struct Sleeper {
        id: u64,
        ms: u64,
    }

    struct SleeperState {
        left_ms: u64,
        id: u64,
    }

    impl SlicedRun for SleeperState {
        type Output = u64;
        fn resume(mut self: Box<Self>, ctx: &mut JobCtx, budget: u64) -> SliceStep<u64> {
            let step = self.left_ms.min(budget.max(1));
            std::thread::sleep(std::time::Duration::from_millis(step));
            ctx.record_events(step);
            self.left_ms -= step;
            if self.left_ms == 0 {
                SliceStep::Done(self.id)
            } else {
                SliceStep::Pending(self)
            }
        }
    }

    impl Spec for Sleeper {
        type Output = u64;
        fn key(&self) -> String {
            format!("sleep/{}/ms{}", self.id, self.ms)
        }
        fn run(&self, ctx: &mut JobCtx) -> u64 {
            std::thread::sleep(std::time::Duration::from_millis(self.ms));
            ctx.record_events(self.ms);
            self.id
        }
        fn cost_hint(&self) -> u64 {
            self.ms
        }
        fn start_sliced(&self, ctx: &mut JobCtx, budget: u64) -> SliceStep<u64> {
            Box::new(SleeperState {
                left_ms: self.ms,
                id: self.id,
            })
            .resume(ctx, budget)
        }
    }

    impl CacheableSpec for Sleeper {
        fn encode_output(out: &u64) -> String {
            format!("{out}")
        }
        fn decode_output(text: &str) -> Result<u64, String> {
            text.parse::<u64>().map_err(|e| e.to_string())
        }
    }

    #[test]
    fn a_single_huge_spec_no_longer_bounds_wall_clock() {
        // One 120 ms straggler + twelve 12 ms sims ≈ 264 ms serial.
        // Two workers with longest-first + 6 ms slices should land
        // near max(120, 264/2) ≈ 132 ms; we assert the generous bound
        // of 75% of the measured serial wall to stay robust under CI
        // noise. Sleeping sims parallelize even on one core, so this
        // exercises the scheduler, not the host's core count.
        let mut specs = vec![Sleeper { id: 0, ms: 120 }];
        specs.extend((1..13).map(|id| Sleeper { id, ms: 12 }));
        let plan = Plan::for_experiment("sleep", specs);
        let exec = ExecConfig::sliced(6);
        let serial_start = Instant::now();
        let (serial_out, _) = execute(1, &plan, None, exec.clone());
        let serial = serial_start.elapsed();
        let par_start = Instant::now();
        let (par_out, _) = execute(2, &plan, None, exec);
        let par = par_start.elapsed();
        assert_eq!(outcomes(&serial_out), outcomes(&par_out));
        assert!(
            par < serial.mul_f64(0.75),
            "two workers did not beat serial: serial={serial:?} par={par:?}"
        );
    }

    #[test]
    fn traced_runs_bypass_the_cache_and_stamp_trace_paths() {
        let specs: Vec<Toy> = (0..3).map(|i| toy("tr", i)).collect();
        let plan = Plan::for_experiment("trace", specs.clone());
        let cache = cache_scratch("trace");
        // Warm the cache, then trace: every spec must re-execute (a
        // hit would produce no trace) and write its per-spec file.
        let (_, c0) = execute(2, &plan, Some(&cache), ExecConfig::default());
        assert_eq!(core(&c0), stats(0, 3, 3));
        let dir = std::env::temp_dir().join(format!("ebrc-trace-out-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let tc = TraceConfig::per_spec(&dir);
        let exec = ExecConfig::default().with_trace(tc.clone());
        let (traced, c1) = execute(2, &plan, Some(&cache), exec);
        assert_eq!(core(&c1), stats(0, 3, 3), "tracing forces execution");
        for spec in &specs {
            let path = tc.path_for(&spec.key());
            assert_eq!(std::fs::read_to_string(&path).unwrap(), spec.key());
        }
        // Traced outputs are the same computation — identical results.
        assert_eq!(outcomes(&traced), vec![Ok(0), Ok(2), Ok(4)]);
        // A single-file config routes every key to the one destination.
        let single = TraceConfig::single(dir.join("one.pftrace"));
        assert_eq!(single.path_for("a"), single.path_for("b"));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// A cache that reports every claim it finds held, so a test can
    /// act exactly when the executor is waiting on a claim.
    struct Watched<'a> {
        inner: &'a DirCache,
        held: Mutex<std::sync::mpsc::Sender<()>>,
    }

    impl OutputCache for Watched<'_> {
        fn load(&self, hash: u64, key: &str) -> Option<String> {
            self.inner.load(hash, key)
        }
        fn store(&self, hash: u64, key: &str, payload: &str) {
            self.inner.store(hash, key, payload);
        }
        fn claim(&self, hash: u64) -> crate::cache::Claim {
            let claim = self.inner.claim(hash);
            if matches!(claim, crate::cache::Claim::Held) {
                let _ = self.held.lock().unwrap().send(());
            }
            claim
        }
    }

    /// Runs `plan` on two workers while a helper thread (a stand-in for
    /// another process) holds toy `a`'s claim. Once the executor has
    /// found the claim held, the helper stores `stored` (when given)
    /// and releases.
    fn run_against_held_claim(
        plan: &Plan<Toy>,
        cache: &DirCache,
        stored: Option<&'static str>,
    ) -> (Vec<Option<SpecResult<Toy>>>, RunStats) {
        let key = "toy/a/v1";
        let hash = stable_hash(key);
        let crate::cache::Claim::Won(guard) = cache.claim(hash) else {
            panic!("claim on an empty cache must win");
        };
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                // `Err` once the run is over without ever waiting.
                if rx.recv().is_ok() {
                    if let Some(payload) = stored {
                        cache.store(hash, key, payload);
                    }
                }
                drop(guard);
            });
            let watched = Watched {
                inner: cache,
                held: Mutex::new(tx),
            };
            execute(2, plan, Some(&watched), ExecConfig::default())
        })
    }

    #[test]
    fn a_live_claim_is_waited_out_and_served_as_a_hit() {
        let cache = cache_scratch("claim-hit");
        if !claims_supported(&cache) {
            return;
        }
        let plan = Plan::for_experiment("e", vec![toy("a", 1), toy("b", 2)]);
        // The holder stores a payload no execution would produce, so
        // serving it proves the spec was not executed here.
        let (results, run) = run_against_held_claim(&plan, &cache, Some("777"));
        assert_eq!(outcomes(&results), vec![Ok(777), Ok(4)]);
        assert_eq!(core(&run), stats(1, 1, 2), "only the unclaimed spec ran");
        assert!(cache.claim_files().is_empty(), "every claim released");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn a_claim_released_without_an_entry_is_executed_here() {
        let cache = cache_scratch("claim-miss");
        if !claims_supported(&cache) {
            return;
        }
        let plan = Plan::for_experiment("e", vec![toy("a", 1), toy("b", 2)]);
        let (results, run) = run_against_held_claim(&plan, &cache, None);
        assert_eq!(outcomes(&results), vec![Ok(2), Ok(4)]);
        assert_eq!(core(&run), stats(0, 2, 3));
        assert!(cache.claim_files().is_empty());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// A cache where another process stores toy `a`'s entry just
    /// before this run claims it — after this run's probe missed.
    struct StoredBeforeClaim<'a>(&'a DirCache);

    impl OutputCache for StoredBeforeClaim<'_> {
        fn load(&self, hash: u64, key: &str) -> Option<String> {
            self.0.load(hash, key)
        }
        fn store(&self, hash: u64, key: &str, payload: &str) {
            self.0.store(hash, key, payload);
        }
        fn claim(&self, hash: u64) -> crate::cache::Claim {
            if hash == stable_hash("toy/a/v1") {
                self.0.store(hash, "toy/a/v1", "777");
            }
            self.0.claim(hash)
        }
    }

    #[test]
    fn a_won_claim_re_probes_before_executing() {
        let cache = cache_scratch("claim-reprobe");
        if !claims_supported(&cache) {
            return;
        }
        let plan = Plan::for_experiment("e", vec![toy("a", 1), toy("b", 2)]);
        let (results, run) = execute(
            1,
            &plan,
            Some(&StoredBeforeClaim(&cache)),
            ExecConfig::default(),
        );
        assert_eq!(outcomes(&results), vec![Ok(777), Ok(4)]);
        assert_eq!(core(&run), stats(1, 1, 2));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// Whether this host supports claim files (they need `/proc`).
    fn claims_supported(cache: &DirCache) -> bool {
        matches!(cache.claim(0), crate::cache::Claim::Won(g) if g.is_held())
    }
}
