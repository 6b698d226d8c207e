//! Sweep-throughput benchmarks of the plan runner: sims/sec at 1 and N
//! workers, for synthetic CPU-bound specs and for a real experiment
//! grid, both through `run_plan_cached` — the executor every sweep
//! uses. The absolute numbers CI tracks come from `repro bench-runner`
//! (BENCH_runner.json); these benches watch the executor's own overhead
//! and scaling shape.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ebrc_experiments::{find_experiment, Scale, MASTER_SEED};
use ebrc_runner::{
    default_threads, run_plan_cached, CacheableSpec, ExecConfig, JobCtx, Plan, Pool, Spec,
};

/// A CPU-bound synthetic spec: enough work that scheduling overhead is
/// visible but not dominant.
#[derive(Clone)]
struct Spin {
    iters: u64,
    salt: u64,
}

impl Spec for Spin {
    type Output = u64;

    fn key(&self) -> String {
        format!("spin/{}/{}", self.iters, self.salt)
    }

    fn run(&self, _ctx: &mut JobCtx) -> u64 {
        let mut acc = self.salt;
        for i in 0..self.iters {
            acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ i;
        }
        acc
    }
}

impl CacheableSpec for Spin {
    fn encode_output(out: &u64) -> String {
        out.to_string()
    }

    fn decode_output(text: &str) -> Result<u64, String> {
        text.parse().map_err(|e| format!("{e}"))
    }
}

/// Runs every spec of `plan` on `pool`, uncached and unsliced.
fn execute<S: CacheableSpec>(pool: &Pool, plan: &Plan<S>) -> usize {
    let (results, _) = run_plan_cached(
        pool,
        MASTER_SEED,
        plan,
        None,
        None,
        ExecConfig::default(),
        |_, _| {},
        |_| {},
    );
    results.len()
}

fn bench_synthetic(c: &mut Criterion) {
    const SPECS: u64 = 64;
    let plan = Plan::for_experiment(
        "spin",
        (0..SPECS)
            .map(|salt| Spin {
                iters: 200_000,
                salt,
            })
            .collect(),
    );
    let mut g = c.benchmark_group("runner-synthetic");
    g.sample_size(10);
    g.throughput(Throughput::Elements(SPECS));
    for threads in [1, default_threads()] {
        g.bench_function(format!("spin64/{threads}-threads"), |b| {
            let pool = Pool::new(threads);
            b.iter(|| black_box(execute(&pool, black_box(&plan))))
        });
    }
    g.finish();
}

fn bench_experiment_grid(c: &mut Criterion) {
    // A small real grid: fig03's Monte-Carlo specs at a reduced scale.
    let scale = Scale {
        mc_events: 4_000,
        sim_warmup: 4.0,
        sim_span: 8.0,
        replicas: 1,
        quick: true,
    };
    let exp = find_experiment("fig03").unwrap();
    let plan = exp.plan(scale);
    let mut g = c.benchmark_group("runner-fig03");
    g.sample_size(10);
    g.throughput(Throughput::Elements(plan.unique_len() as u64));
    for threads in [1, default_threads()] {
        g.bench_function(format!("sims/{threads}-threads"), |b| {
            let pool = Pool::new(threads);
            b.iter(|| black_box(execute(&pool, black_box(&plan))))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().without_plots();
    targets = bench_synthetic, bench_experiment_grid
}
criterion_main!(benches);
