//! Scenario builders shared by the experiments, and the one
//! warm-up/span estimator that measures them.

pub mod dumbbell;
pub mod manyflow;

pub use dumbbell::{
    CounterSnapshot, DumbbellConfig, DumbbellRun, FlowMeasure, QueueSpec, RunMeasurements,
    TfrcFlowSpec,
};
pub use manyflow::{
    ClassKind, FlowClass, ManyFlowConfig, ManyFlowMeasure, ManyFlowMeasurements, ManyFlowRun,
    ManyFlowSnapshot,
};

use crate::spec::SpecOutput;
use ebrc_net::NetEvent;
use ebrc_sim::{Engine, RunLimit};

/// A built scenario measured by the paper's long-run estimator: run to
/// `warmup`, snapshot the cumulative counters, run to `warmup + span`,
/// and difference. [`DumbbellRun`] and [`ManyFlowRun`] implement it;
/// one crate-internal driver runs it, monolithically (their `measure`)
/// or in event-budget slices (the runner's sliced path).
pub trait MeasuredScenario: Send + 'static {
    /// Cumulative counters at the end of warm-up. Plain owned data, so
    /// a sliced run carries it across worker threads.
    type Snapshot: Send + 'static;
    /// What differencing the span against the snapshot yields.
    type Measurements;

    /// The scenario's engine.
    fn engine(&mut self) -> &mut Engine<NetEvent>;

    /// Snapshots every flow's cumulative counters.
    fn snapshot_counters(&self) -> Self::Snapshot;

    /// Measurements of a span that started at `snap`; the engine must
    /// already stand at the end of the span.
    fn measurements_since(&self, snap: &Self::Snapshot, span: f64) -> Self::Measurements;

    /// The spec output a finished measurement is reported as.
    fn spec_output(m: Self::Measurements) -> SpecOutput;

    /// Installs a Perfetto trace sink on the engine, with every
    /// component registered under a topology-meaningful track name.
    fn install_tracer(&mut self);

    /// Finishes a trace started by
    /// [`MeasuredScenario::install_tracer`] and returns the encoded
    /// Perfetto bytes (`None` if no tracer was installed).
    fn take_trace(&mut self) -> Option<Vec<u8>> {
        ebrc_trace::take_sink(self.engine()).map(ebrc_trace::PerfettoSink::finish)
    }
}

/// The warm-up/span estimator as a resumable state machine: which leg
/// the engine is in, and the warm-up snapshot once it has been taken.
/// Driving it with an unbounded budget is `measure`; driving it in
/// bounded slices is the runner's sliced path. Both issue the same
/// `run_budgeted` horizons, so by the engine's sliced-execution
/// contract the measurements are bit-identical at any budget.
pub(crate) struct MeasureWindow<S> {
    warmup: f64,
    span: f64,
    /// Counters at the end of warm-up; `None` while still warming up.
    snap: Option<S>,
}

impl<S> MeasureWindow<S> {
    /// A window that warms up to `warmup` and measures `span` beyond.
    ///
    /// # Panics
    /// Panics unless `span` is positive.
    pub(crate) fn new(warmup: f64, span: f64) -> Self {
        assert!(span > 0.0, "measurement span must be positive");
        Self {
            warmup,
            span,
            snap: None,
        }
    }

    /// Dispatches at most `budget` events (at least one) across both
    /// legs, returning the measurements once the span is complete and
    /// `None` when the budget ran out first.
    ///
    /// A warm-up leg that spends the whole budget takes its snapshot at
    /// the start of the next call: the leg reports exhaustion, not the
    /// horizon, even when the budget ends exactly at the boundary.
    pub(crate) fn advance<R>(&mut self, run: &mut R, budget: u64) -> Option<R::Measurements>
    where
        R: MeasuredScenario<Snapshot = S>,
    {
        let mut left = budget.max(1);
        if self.snap.is_none() {
            let out = run.engine().run_budgeted(RunLimit::new(self.warmup, left));
            if out.exhausted() {
                return None;
            }
            left = left.saturating_sub(out.events);
            self.snap = Some(run.snapshot_counters());
        }
        let horizon = self.warmup + self.span;
        let out = run.engine().run_budgeted(RunLimit::new(horizon, left));
        if out.exhausted() {
            return None;
        }
        let snap = self.snap.as_ref().expect("warm-up snapshot taken");
        Some(run.measurements_since(snap, self.span))
    }
}

/// Runs `run`'s warm-up and span to completion and reports the
/// measurements — the monolithic drive of [`MeasureWindow`].
pub(crate) fn measure<R: MeasuredScenario>(run: &mut R, warmup: f64, span: f64) -> R::Measurements {
    MeasureWindow::new(warmup, span)
        .advance(run, u64::MAX)
        .expect("an unbounded budget finishes the window")
}
