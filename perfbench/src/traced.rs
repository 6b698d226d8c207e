//! Traced passes: the same plan run through `run_plan_cached` with the
//! benchmark's spans around every call into a layer — plan build, cache
//! load/decode/encode/store (a timing [`OutputCache`] and a timing
//! [`CacheableSpec`] wrapper), scenario build and measurement, handler
//! dispatch (see [`crate::attrib`]), reduce, render and spool.

use crate::attrib::{self, KindTotals};
use crate::passes::{render_tables, spool_tables, PassResult, Setup};
use crate::seed::family;
use crate::spans::{self, Span};
use ebrc_experiments::{Experiment, Scale, SimSpec, SpecOutput, MASTER_SEED};
use ebrc_runner::{
    panic_message, run_plan_cached, CacheableSpec, DirCache, ExecConfig, JobCtx, OutputCache, Plan,
    RunStats, Spec, SubscriptionResult,
};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{mpsc, Mutex};
use std::time::Instant;

/// A catalogue spec whose execution and output codec are timed.
#[derive(Clone)]
pub struct Probed(pub SimSpec);

impl Spec for Probed {
    type Output = SpecOutput;

    fn key(&self) -> String {
        self.0.key()
    }

    fn run(&self, ctx: &mut JobCtx) -> SpecOutput {
        execute(&self.0, ctx)
    }

    fn cost_hint(&self) -> u64 {
        self.0.cost_hint()
    }
}

impl CacheableSpec for Probed {
    fn encode_output(out: &SpecOutput) -> String {
        let start = Instant::now();
        let text = SimSpec::encode_output(out);
        spans::record("runner.cache.encode", start, Instant::now(), 0, 0);
        text
    }

    fn decode_output(text: &str) -> Result<SpecOutput, String> {
        spans::timed("runner.cache.decode", || SimSpec::decode_output(text))
    }
}

/// Runs one spec inside a `spec` span. Dumbbell and many-flow specs run
/// through the attributed scenario drivers; every other family runs its
/// own `SimSpec::run`, which is then the leaf.
fn execute(spec: &SimSpec, ctx: &mut JobCtx) -> SpecOutput {
    let start = Instant::now();
    let out = if let Some((cfg, warmup, span)) = attrib::dumbbell_config(spec) {
        let (out, events) = attrib::run_dumbbell(&cfg, warmup, span);
        ctx.record_events(events);
        out
    } else if let Some((cfg, warmup, span)) = attrib::manyflow_window(spec) {
        let (out, events) = attrib::run_manyflow(&cfg, warmup, span);
        ctx.record_events(events);
        out
    } else {
        spec.run(ctx)
    };
    spans::record(
        "spec",
        start,
        Instant::now(),
        ctx.events_processed(),
        family(spec),
    );
    out
}

/// Whether a family's spec span is a leaf (no scenario or handler
/// spans under it).
fn leaf_family(family: usize) -> bool {
    family >= 2
}

struct TimedCache<'a>(&'a DirCache);

impl OutputCache for TimedCache<'_> {
    fn load(&self, hash: u64, key: &str) -> Option<String> {
        spans::timed("runner.cache.load", || self.0.load(hash, key))
    }

    fn store(&self, hash: u64, key: &str, payload: &str) {
        let start = Instant::now();
        self.0.store(hash, key, payload);
        spans::record(
            "runner.cache.store",
            start,
            Instant::now(),
            payload.len() as u64,
            0,
        );
    }
}

/// One traced pass: its result plus every span and handler total
/// recorded while it ran.
pub struct TracedPass {
    pub result: PassResult,
    pub spans: Vec<Span>,
    pub handlers: KindTotals,
    /// When `run_plan_cached` was entered and returned.
    pub run_start: Instant,
    pub run_end: Instant,
    /// The thread that called `run_plan_cached` (and probed the cache).
    pub main_thread: usize,
}

/// Runs the setup's experiments through `run_plan_cached` on `cache`,
/// reducing, rendering and spooling on a reducer thread as each
/// subscription completes.
pub fn traced_pass(setup: &Setup, cache: &DirCache, out_dir: &Path) -> TracedPass {
    spans::drain();
    attrib::drain();
    let scale = Scale::quick();
    let experiments = &setup.experiments;
    let started = Instant::now();
    let plan = spans::timed("runner.plan.build", || {
        let mut plan: Plan<Probed> = Plan::new();
        for e in experiments {
            let specs = e.specs(scale).into_iter().map(Probed).collect();
            plan.merge(Plan::for_experiment(e.id(), specs));
        }
        plan
    });
    let cache = TimedCache(cache);
    let mut texts: Vec<Option<String>> = vec![None; experiments.len()];
    let mut ready_s = Vec::new();
    let mut failed = BTreeSet::new();
    let mut run_start = started;
    let mut run_end = started;
    let mut stats = RunStats::default();
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<SubscriptionResult<Probed>>();
        let reducer = s.spawn(|| {
            for res in rx {
                let i = res.subscription;
                let sub = &plan.subscriptions()[i];
                let tables = match res.outcome {
                    Ok(outputs) => {
                        let refs: Vec<&SpecOutput> = outputs.iter().map(|o| o.as_ref()).collect();
                        spans::timed("experiments.reduce", || {
                            catch_unwind(AssertUnwindSafe(|| experiments[i].reduce(scale, &refs)))
                                .map_err(|p| panic_message(p.as_ref()))
                        })
                    }
                    Err(failures) => Err(format!("{} spec(s) failed", failures.len())),
                };
                match tables {
                    Ok(tables) => {
                        texts[i] = Some(spans::timed("series.render", || render_tables(&tables)));
                        if spans::timed("series.spool", || spool_tables(&tables, out_dir)).is_err()
                        {
                            failed.extend(sub.spec_indices.iter().copied());
                        }
                        ready_s.push(started.elapsed().as_secs_f64());
                    }
                    Err(e) => {
                        eprintln!("# traced pass: {} failed: {e}", experiments[i].id());
                        failed.extend(sub.spec_indices.iter().copied());
                    }
                }
            }
        });
        let tx = Mutex::new(tx);
        run_start = Instant::now();
        let (_, run_stats) = run_plan_cached(
            &setup.pool,
            MASTER_SEED,
            &plan,
            None,
            Some(&cache),
            ExecConfig::default(),
            |_, _| {},
            |res| {
                let _ = tx.lock().expect("completion channel poisoned").send(res);
            },
        );
        run_end = Instant::now();
        stats = run_stats;
        drop(tx);
        reducer.join().expect("reducer thread panicked");
    });
    let wall_s = started.elapsed().as_secs_f64();
    TracedPass {
        result: PassResult {
            wall_s,
            events: stats.events,
            sims: stats.cache.hits + stats.cache.misses,
            hits: stats.cache.hits,
            misses: stats.cache.misses,
            ready_s,
            texts,
            failed,
        },
        spans: spans::drain(),
        handlers: attrib::drain(),
        run_start,
        run_end,
        main_thread: spans::thread_index(),
    }
}

/// Where a traced pass's thread time went.
#[derive(Debug, Clone, Copy)]
pub struct Attribution {
    /// Seconds under a layer span (thread time).
    pub attributed_s: f64,
    /// Seconds inside a spec run or the cache-probe loop but under no
    /// layer span: runner bookkeeping and engine work outside handlers.
    pub unreached_s: f64,
    /// The rest of `threads × wall`: pool idle and scheduling gaps.
    pub idle_s: f64,
    pub capacity_s: f64,
}

impl Attribution {
    pub fn coverage(&self) -> f64 {
        self.attributed_s / self.capacity_s
    }
}

const LEAVES: [&str; 10] = [
    "runner.plan.build",
    "runner.cache.load",
    "runner.cache.decode",
    "runner.cache.encode",
    "runner.cache.store",
    "scenarios.build",
    "scenarios.measure",
    "experiments.reduce",
    "series.render",
    "series.spool",
];

impl TracedPass {
    pub fn sum(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    fn specs(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(|s| s.name == "spec")
    }

    /// Busy seconds and engine events per family.
    pub fn family_totals(&self) -> [(f64, u64); 6] {
        let mut out = [(0.0, 0); 6];
        for s in self.specs() {
            out[s.family].0 += s.secs();
            out[s.family].1 += s.count;
        }
        out
    }

    /// Σ spec wall ÷ (threads × pass wall).
    pub fn busy_frac(&self, threads: usize) -> f64 {
        let busy: f64 = self.specs().map(Span::secs).sum();
        busy / (threads as f64 * self.result.wall_s)
    }

    /// Seconds from the last spec start until `run_plan_cached` returned.
    pub fn tail_s(&self) -> Option<f64> {
        let last = self.specs().map(|s| s.start).max()?;
        Some(self.run_end.duration_since(last).as_secs_f64())
    }

    pub fn attribution(&self, threads: usize) -> Attribution {
        let leaves: f64 = LEAVES.iter().map(|n| self.sum(n)).sum();
        let leaf_specs: f64 = self
            .specs()
            .filter(|s| leaf_family(s.family))
            .map(Span::secs)
            .sum();
        let handlers = self.handlers.total_ns() as f64 * 1e-9;
        let attributed_s = leaves + leaf_specs + handlers;
        let scenario_specs: f64 = self
            .specs()
            .filter(|s| !leaf_family(s.family))
            .map(Span::secs)
            .sum();
        let scenario_children = self.sum("scenarios.build") + self.sum("scenarios.measure");
        let inside_specs = (scenario_specs - scenario_children - handlers).max(0.0);
        // The cache-probe loop runs on the calling thread from entry
        // until its last lookup; its lookups are leaves.
        let probe_end = self
            .spans
            .iter()
            .filter(|s| s.thread == self.main_thread && s.name.starts_with("runner.cache."))
            .map(|s| s.end)
            .max();
        let probe_loop = probe_end.map_or(0.0, |end| {
            let lookups: f64 = self
                .spans
                .iter()
                .filter(|s| s.thread == self.main_thread && s.name.starts_with("runner.cache."))
                .map(Span::secs)
                .sum();
            (end.duration_since(self.run_start).as_secs_f64() - lookups).max(0.0)
        });
        let unreached_s = inside_specs + probe_loop;
        let capacity_s = threads as f64 * self.result.wall_s;
        Attribution {
            attributed_s,
            unreached_s,
            idle_s: (capacity_s - attributed_s - unreached_s).max(0.0),
            capacity_s,
        }
    }
}
