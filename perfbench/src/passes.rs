//! Untraced passes: the end-to-end measurement, through the same
//! public entry points `repro all` uses — registry, `global_plan`,
//! `Pool`, `DirCache`, and `plan_run_catalogue_cached`, with each
//! experiment's tables rendered and spooled the moment it reduces.

use crate::seed::Seeded;
use ebrc_experiments::{
    all_experiments, global_plan, plan_run_catalogue_cached, table_file_name, Experiment,
    ExperimentReport, Plan, Scale, Table,
};
use ebrc_runner::{DirCache, ExecConfig, OutputCache, Pool};
use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::time::Instant;

/// Everything a pass needs, built before the first spec or lookup:
/// the seeded catalogue at quick scale, the merged plan, the pool and
/// the cache.
pub struct Setup {
    pub experiments: Vec<Seeded>,
    pub plan: Plan,
    pub pool: Pool,
    pub cache: DirCache,
}

impl Setup {
    pub fn new(seed: u64, threads: usize, cache_dir: &Path) -> Self {
        let experiments: Vec<Seeded> = all_experiments()
            .into_iter()
            .map(|inner| Seeded { inner, seed })
            .collect();
        let plan = global_plan(&refs(&experiments), Scale::quick());
        let pool = Pool::new(threads);
        std::fs::create_dir_all(cache_dir).expect("cache directory is creatable");
        Self {
            experiments,
            plan,
            pool,
            cache: DirCache::new(cache_dir),
        }
    }

    /// Unique spec indices each experiment subscribes to, in catalogue
    /// order.
    pub fn spec_sets(&self) -> Vec<BTreeSet<usize>> {
        self.plan
            .subscriptions()
            .iter()
            .map(|s| s.spec_indices.iter().copied().collect())
            .collect()
    }
}

pub fn refs(experiments: &[Seeded]) -> Vec<&dyn Experiment> {
    experiments.iter().map(|e| e as &dyn Experiment).collect()
}

/// What `repro` prints on stdout for one experiment: each table's
/// rendering followed by a newline.
pub fn render_tables(tables: &[Table]) -> String {
    let mut out = String::new();
    for t in tables {
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// Writes one JSON file per table, as `repro all --out DIR` does.
pub fn spool_tables(tables: &[Table], dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for t in tables {
        std::fs::write(dir.join(table_file_name(&t.name)), t.to_json())?;
    }
    Ok(())
}

/// The outcome of one pass over a plan, traced or not.
#[derive(Debug, Default)]
pub struct PassResult {
    pub wall_s: f64,
    /// Engine events the pass executed; on a served pass, the plan's
    /// own estimate of the events behind the delivered outputs.
    pub events: u64,
    /// Unique sims executed or served.
    pub sims: usize,
    pub hits: usize,
    pub misses: usize,
    /// Seconds from pass start until each experiment's tables were
    /// rendered and spooled.
    pub ready_s: Vec<f64>,
    /// Rendered stdout per experiment (catalogue order); `None` when
    /// the experiment failed.
    pub texts: Vec<Option<String>>,
    /// Unique spec indices whose outputs failed (panicked spec, failed
    /// reduce, or a spool error).
    pub failed: BTreeSet<usize>,
}

/// One untraced pass through `plan_run_catalogue_cached`.
pub fn untraced_pass(setup: &Setup, cache: &DirCache, out_dir: &Path) -> PassResult {
    let experiments = refs(&setup.experiments);
    let index: HashMap<&str, usize> = experiments
        .iter()
        .enumerate()
        .map(|(i, e)| (e.id(), i))
        .collect();
    let mut texts: Vec<Option<String>> = vec![None; experiments.len()];
    let mut ready_s = Vec::with_capacity(experiments.len());
    let mut spool_failed: Vec<usize> = Vec::new();
    let started = Instant::now();
    let run = plan_run_catalogue_cached(
        experiments.clone(),
        Scale::quick(),
        &setup.pool,
        Some(cache as &dyn OutputCache),
        ExecConfig::default(),
        |_, _| {},
        |report: &ExperimentReport| {
            if let Ok(tables) = &report.outcome {
                let i = index[report.id];
                texts[i] = Some(render_tables(tables));
                if spool_tables(tables, out_dir).is_err() {
                    spool_failed.push(i);
                }
                ready_s.push(started.elapsed().as_secs_f64());
            }
        },
    );
    let wall_s = started.elapsed().as_secs_f64();
    let sets = setup.spec_sets();
    let mut failed = BTreeSet::new();
    for (i, report) in run.reports.iter().enumerate() {
        if report.outcome.is_err() {
            failed.extend(&sets[i]);
        }
    }
    for i in spool_failed {
        failed.extend(&sets[i]);
    }
    PassResult {
        wall_s,
        events: run.events,
        sims: run.cache.hits + run.cache.misses,
        hits: run.cache.hits,
        misses: run.cache.misses,
        ready_s,
        texts,
        failed,
    }
}
