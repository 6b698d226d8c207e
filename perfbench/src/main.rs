//! The ebrc benchmark binary. `run.py` builds it and drives it; see
//! `perfbench/README.md` for the workloads, metrics and protocol.
//!
//! ```text
//! ebrc-perfbench --workload <catalogue-cold|catalogue-warm>
//!     --seed N --seconds S --trace <0|1> --work DIR [--reference FILE]
//! ebrc-perfbench --populate --seed N --work DIR
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed`, `metrics` (name → value and unit) and `digests` (one
//! per experiment, for `run.py`'s cross-run check).

mod attrib;
mod passes;
mod probes;
mod seed;
mod spans;
mod traced;

use attrib::KINDS;
use ebrc_experiments::Experiment;
use ebrc_runner::{stable_hash, DirCache};
use passes::{untraced_pass, PassResult, Setup};
use seed::FAMILIES;
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use traced::{traced_pass, TracedPass};

/// Set-ups before each pass; `setup_s` is the median over the run, so
/// its samples spread over the whole run rather than its first moments.
const SETUP_REPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    CatalogueCold,
    CatalogueWarm,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "catalogue-cold" => Some(Self::CatalogueCold),
            "catalogue-warm" => Some(Self::CatalogueWarm),
            _ => None,
        }
    }

    /// Whether the workload's own pass serves a populated cache.
    fn serving(self) -> bool {
        self == Self::CatalogueWarm
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
    reference: Option<PathBuf>,
    populate: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut populate = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--populate" {
            populate = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |k: &str| flags.get(k).map(String::as_str);
    let workload = match get("--workload") {
        Some(w) => Workload::parse(w).ok_or(format!("unknown workload {w}"))?,
        None if populate => Workload::CatalogueWarm,
        None => return Err("--workload is required".into()),
    };
    let num = |k: &str, default: &str| -> Result<f64, String> {
        get(k)
            .unwrap_or(default)
            .parse::<f64>()
            .map_err(|e| format!("{k}: {e}"))
    };
    Ok(Args {
        workload,
        seed: get("--seed")
            .unwrap_or("0")
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: num("--seconds", "10")?,
        trace: num("--trace", "0")? != 0.0,
        work: PathBuf::from(get("--work").ok_or("--work is required")?),
        reference: get("--reference").map(PathBuf::from),
        populate,
    })
}

pub fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Pool threads: at most the host's parallelism, and at most 2 so
/// every host runs the same load.
fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// An empty directory at `path`.
fn fresh_dir(path: &Path) -> DirCache {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).expect("work directory is creatable");
    DirCache::new(path)
}

/// Builds the setup `SETUP_REPS` times, appending each duration to
/// `secs`; returns the last setup.
fn timed_setups(seed: u64, cache_dir: &Path, secs: &mut Vec<f64>) -> Setup {
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let setup = Setup::new(seed, threads(), cache_dir);
        secs.push(start.elapsed().as_secs_f64());
        last = Some(setup);
    }
    last.expect("at least one set-up")
}

/// Metrics, correctness counts and digests of one run.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, &'static str, f64)>,
    digests: Vec<(String, u64, usize)>,
    notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push((name.into(), unit, value));
    }

    fn json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            assert!(value.is_finite(), "{name} is not finite: {value}");
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}, \"digests\": {");
        for (i, (id, digest, specs)) in self.digests.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{id}\": [\"{digest:016x}\", {specs}]");
        }
        out.push_str("}}");
        out
    }
}

/// Output checks: every pass against the expected per-experiment
/// stdout — `repro`'s own (with `--reference`) or this run's first pass.
struct Checker {
    ids: Vec<&'static str>,
    sets: Vec<BTreeSet<usize>>,
    unique: usize,
    expected: Option<Vec<Option<String>>>,
    reference: Option<Vec<u8>>,
}

impl Checker {
    fn new(setup: &Setup, reference: Option<&Path>) -> Self {
        Self {
            ids: setup.experiments.iter().map(|e| e.id()).collect(),
            sets: setup.spec_sets(),
            unique: setup.plan.unique_len(),
            expected: None,
            reference: reference.map(|p| std::fs::read(p).expect("reference output is readable")),
        }
    }

    /// The expected texts: the first pass's, or `repro`'s stdout cut
    /// into per-experiment segments at the first pass's lengths. When
    /// the lengths do not add up to the reference, nothing matches.
    fn expect_from(&mut self, first: &PassResult) {
        let expected = match &self.reference {
            None => first.texts.clone(),
            Some(reference) => {
                let mut at = 0;
                let mut out = Vec::new();
                for text in &first.texts {
                    let len = text.as_ref().map_or(0, String::len);
                    out.push(
                        reference
                            .get(at..at + len)
                            .and_then(|b| String::from_utf8(b.to_vec()).ok()),
                    );
                    at += len;
                }
                if at != reference.len() {
                    eprintln!("# check: output length differs from repro's stdout");
                    out.iter_mut().for_each(|e| *e = None);
                }
                out
            }
        };
        self.expected = Some(expected);
    }

    /// Counts one pass: attempted specs and failed ones (failed in the
    /// pass, or feeding an experiment whose output differs).
    fn check(&mut self, pass: &PassResult, report: &mut Report) {
        if self.expected.is_none() {
            self.expect_from(pass);
        }
        let expected = self.expected.as_ref().expect("expected texts set");
        let mut failed = pass.failed.clone();
        for (i, (got, want)) in pass.texts.iter().zip(expected).enumerate() {
            if got.is_none() || got != want {
                if !failed.is_superset(&self.sets[i]) {
                    report.notes.push(format!(
                        "output of {} differs from the expected",
                        self.ids[i]
                    ));
                }
                failed.extend(&self.sets[i]);
            }
        }
        report.attempted += self.unique as u64;
        report.failed += failed.len() as u64;
    }

    fn digests(&self, report: &mut Report) {
        let expected = self.expected.as_ref().expect("at least one pass checked");
        for (i, text) in expected.iter().enumerate() {
            let digest = text.as_deref().map_or(0, stable_hash);
            report
                .digests
                .push((self.ids[i].to_string(), digest, self.sets[i].len()));
        }
    }
}

/// Peak resident set of this process so far, in MB (Linux `VmHWM`).
/// Read after the first pass: one sweep's footprint, as a user running
/// `repro` once sees it, without the allocator growth that repeating
/// passes in one process adds.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn populate(args: &Args) -> Result<(), String> {
    let cache_dir = args.work.join("cache");
    fresh_dir(&cache_dir);
    let setup = Setup::new(args.seed, threads(), &cache_dir);
    let pass = untraced_pass(&setup, &setup.cache, &args.work.join("out"));
    if !pass.failed.is_empty() {
        return Err(format!(
            "{} spec(s) failed while populating",
            pass.failed.len()
        ));
    }
    println!(
        "# populated {} entries in {:.2} s",
        pass.misses, pass.wall_s
    );
    Ok(())
}

/// The end-to-end run: repeated untraced passes of the workload.
fn untraced_run(args: &Args, report: &mut Report) {
    let cache_dir = args.work.join("cache");
    let out_dir = args.work.join("out");
    let mut setup_secs = Vec::new();
    let mut setup = timed_setups(args.seed, &cache_dir, &mut setup_secs);
    let mut checker = Checker::new(&setup, args.reference.as_deref());
    // A served pass runs no engine events; its throughput is scaled by
    // the plan's own event estimate, so only the serving path's time
    // moves it.
    let served = args.workload.serving().then(|| {
        setup
            .plan
            .specs()
            .iter()
            .map(|s| s.events_hint())
            .sum::<u64>()
    });
    let started = Instant::now();
    let mut passes: Vec<PassResult> = Vec::new();
    let mut peak_mb = 0.0;
    loop {
        if !passes.is_empty() {
            setup = timed_setups(args.seed, &cache_dir, &mut setup_secs);
        }
        let scratch = args.work.join("pass");
        let cache = match served {
            Some(_) => DirCache::new(&cache_dir),
            None => fresh_dir(&scratch),
        };
        let mut pass = untraced_pass(&setup, &cache, &out_dir);
        if let Some(events) = served {
            pass.events = events;
            if pass.misses > 0 {
                report
                    .notes
                    .push(format!("{} cache misses on a warm pass", pass.misses));
                report.failed += pass.misses as u64;
            }
        }
        checker.check(&pass, report);
        if passes.is_empty() {
            peak_mb = peak_rss_mb();
        }
        let wall = pass.wall_s;
        passes.push(pass);
        if started.elapsed().as_secs_f64() + wall > args.seconds {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(args.work.join("pass"));
    checker.digests(report);
    let med = |f: &dyn Fn(&PassResult) -> f64| median(passes.iter().map(f).collect());
    report.metric("wall_s", "s", med(&|p| p.wall_s));
    report.metric("events_per_s", "1/s", med(&|p| p.events as f64 / p.wall_s));
    report.metric("sims_per_s", "1/s", med(&|p| p.sims as f64 / p.wall_s));
    report.metric("table_p50_s", "s", med(&|p| median(p.ready_s.clone())));
    report.metric("setup_s", "s", median(setup_secs));
    report.metric("peak_rss_mb", "MB", peak_mb);
    let (lo, hi) = passes.iter().fold((f64::MAX, 0.0f64), |(lo, hi), p| {
        (lo.min(p.wall_s), hi.max(p.wall_s))
    });
    report.notes.push(format!(
        "{} passes, wall s min {lo:.4} max {hi:.4}",
        passes.len()
    ));
}

/// The per-layer run: untraced reference passes alternating with
/// traced passes of the workload's own kind, the complementary pass
/// (a read-back of the written cache, or the populate that fills it),
/// and the sim probes. Both kinds of pass run the whole catalogue, so
/// every family and handler kind is measured on the workload itself.
fn traced_run(args: &Args, report: &mut Report) {
    let threads = threads();
    let cache_dir = args.work.join("cache");
    let out_dir = args.work.join("out");
    fresh_dir(&cache_dir);
    let setup = Setup::new(args.seed, threads, &cache_dir);
    let mut checker = Checker::new(&setup, args.reference.as_deref());
    let mut exec: Vec<TracedPass> = Vec::new();
    let mut serve: Vec<TracedPass> = Vec::new();
    let mut ref_walls = Vec::new();
    if args.workload.serving() {
        exec.push(traced_pass(&setup, &setup.cache, &out_dir));
    }
    let started = Instant::now();
    loop {
        let round = Instant::now();
        let reference = if args.workload.serving() {
            untraced_pass(&setup, &setup.cache, &out_dir)
        } else {
            untraced_pass(&setup, &fresh_dir(&args.work.join("ref")), &out_dir)
        };
        checker.check(&reference, report);
        ref_walls.push(reference.wall_s);
        if args.workload.serving() {
            serve.push(traced_pass(&setup, &setup.cache, &out_dir));
        } else {
            let written = fresh_dir(&args.work.join("traced"));
            exec.push(traced_pass(&setup, &written, &out_dir));
            if serve.is_empty() {
                serve.push(traced_pass(&setup, &written, &out_dir));
            }
        }
        let round_s = round.elapsed().as_secs_f64();
        if started.elapsed().as_secs_f64() + round_s > args.seconds {
            break;
        }
    }
    for p in exec.iter().chain(&serve) {
        checker.check(&p.result, report);
    }
    checker.digests(report);
    for dir in ["ref", "traced"] {
        let _ = std::fs::remove_dir_all(args.work.join(dir));
    }

    let own: &[TracedPass] = if args.workload.serving() {
        &serve
    } else {
        &exec
    };
    let med =
        |ps: &[TracedPass], f: &dyn Fn(&TracedPass) -> f64| median(ps.iter().map(f).collect());
    let per_call = |ps: &[TracedPass], name: &str| {
        let total: f64 = ps.iter().map(|p| p.sum(name)).sum();
        let n: usize = ps.iter().map(|p| p.count(name)).sum();
        total / n.max(1) as f64
    };

    report.metric(
        "runner.plan.build_ms",
        "ms",
        1e3 * med(own, &|p| p.sum("runner.plan.build")),
    );
    report.metric(
        "runner.pool.busy_frac",
        "frac",
        med(&exec, &|p| p.busy_frac(threads)),
    );
    report.metric(
        "runner.pool.tail_s",
        "s",
        median(exec.iter().filter_map(TracedPass::tail_s).collect()),
    );
    report.metric(
        "runner.cache.load_us",
        "us",
        1e6 * per_call(&serve, "runner.cache.load"),
    );
    report.metric(
        "runner.cache.decode_us",
        "us",
        1e6 * per_call(&serve, "runner.cache.decode"),
    );
    report.metric(
        "runner.cache.encode_us",
        "us",
        1e6 * per_call(&exec, "runner.cache.encode"),
    );
    report.metric(
        "runner.cache.store_us",
        "us",
        1e6 * per_call(&exec, "runner.cache.store"),
    );
    report.metric("runner.cache.hits", "count", serve[0].result.hits as f64);
    report.metric("runner.cache.misses", "count", exec[0].result.misses as f64);
    let stored: u64 = exec[0]
        .spans
        .iter()
        .filter(|s| s.name == "runner.cache.store")
        .map(|s| s.count)
        .sum();
    report.metric("runner.cache.bytes", "bytes", stored as f64);

    for (f, name) in FAMILIES.iter().enumerate() {
        let busy = med(&exec, &|p| p.family_totals()[f].0);
        report.metric(format!("spec.{name}.busy_s"), "s", busy);
        let events = exec[0].family_totals()[f].1 as f64;
        report.metric(format!("spec.{name}.events"), "count", events);
    }
    let builds: usize = exec.iter().map(|p| p.count("scenarios.build")).sum();
    let measure: f64 = exec.iter().map(|p| p.sum("scenarios.measure")).sum();
    report.metric(
        "scenarios.build_us",
        "us",
        1e6 * per_call(&exec, "scenarios.build"),
    );
    report.metric(
        "scenarios.measure_us",
        "us",
        1e6 * measure / builds.max(1) as f64,
    );
    report.metric(
        "experiments.reduce_ms",
        "ms",
        1e3 * med(own, &|p| p.sum("experiments.reduce")),
    );
    report.metric(
        "series.render_ms",
        "ms",
        1e3 * med(own, &|p| p.sum("series.render")),
    );
    report.metric(
        "series.spool_ms",
        "ms",
        1e3 * med(own, &|p| p.sum("series.spool")),
    );

    for (name, value) in probes::all(args.seed) {
        let unit = if name.ends_with("wheel_over_heap") {
            "ratio"
        } else {
            "ns"
        };
        report.metric(name, unit, value);
    }

    for (k, name) in KINDS.iter().enumerate() {
        let ev: u64 = exec.iter().map(|p| p.handlers.events[k]).sum();
        let total_ns: u64 = exec.iter().map(|p| p.handlers.ns[k]).sum();
        let per_pass = ev as f64 / exec.len() as f64;
        report.metric(format!("handler.{name}.events"), "count", per_pass);
        let ns = total_ns as f64 / ev.max(1) as f64;
        report.metric(format!("handler.{name}.ns_per_event"), "ns", ns);
    }

    let attr: Vec<_> = own.iter().map(|p| p.attribution(threads)).collect();
    let coverage = median(attr.iter().map(|a| a.coverage()).collect());
    let idle = median(attr.iter().map(|a| a.idle_s).collect());
    let unreached = median(attr.iter().map(|a| a.unreached_s).collect());
    let overhead = med(own, &|p| p.result.wall_s) / median(ref_walls.clone()) - 1.0;
    report.metric("trace.coverage_frac", "frac", coverage);
    report.metric("trace.overhead_frac", "frac", overhead);
    report.metric("trace.gap.idle_s", "s", idle);
    report.metric("trace.gap.unreached_s", "s", unreached);
    if coverage < 0.9 {
        report.notes.push(format!(
            "trace coverage {coverage:.3} is below the 0.9 target; unattributed thread time \
             per pass: idle {idle:.3} s (pool idle, scheduling gaps, serial phases), \
             unreached {unreached:.3} s (inside spec runs and the cache-probe loop, \
             outside every layer span)"
        ));
    }
    report.notes.push(format!(
        "{} executing and {} serving traced passes, {} untraced reference passes, {} threads",
        exec.len(),
        serve.len(),
        ref_walls.len(),
        threads
    ));
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ebrc-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.populate {
        if let Err(e) = populate(&args) {
            eprintln!("ebrc-perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let mut report = Report::default();
    if args.trace {
        traced_run(&args, &mut report);
    } else {
        untraced_run(&args, &mut report);
    }
    for note in &report.notes {
        println!("# {note}");
    }
    for (name, unit, value) in &report.metrics {
        println!("{name} = {value} {unit}");
    }
    println!("{}", report.json());
}
