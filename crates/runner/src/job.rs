//! The per-spec execution context.
//!
//! Every executed [`Spec`](crate::Spec) receives a [`JobCtx`] built
//! from its content key, which is the spec's *identity*: the context
//! carries a private RNG stream derived from `(master seed, key)` via
//! [`ebrc_dist::Rng::from_label`], so any randomness drawn from
//! [`JobCtx::rng`] is independent of which worker runs the spec, in
//! what order, at what thread count. (A spec may instead carry its own
//! parameter-derived seeds — the decomposed paper figures do, for
//! byte-compatibility with their pre-runner tables — which satisfies
//! the same contract: randomness must be a pure function of the spec's
//! identity, never of scheduling.) That is what makes parallel sweeps
//! bit-identical to sequential ones. The context also accumulates the
//! engine events a run reports and, for traced runs, where to write
//! the trace.

use ebrc_dist::Rng;
use std::path::{Path, PathBuf};

/// Per-spec execution context handed to [`Spec::run`](crate::Spec::run) and
/// threaded through every slice of a sliced run.
#[derive(Debug)]
pub struct JobCtx {
    label: String,
    rng: Rng,
    events: u64,
    trace_path: Option<PathBuf>,
}

impl JobCtx {
    /// Builds the context a spec with this label (its content key)
    /// receives: the label plus its `(master seed, label)` RNG stream.
    pub fn for_label(master_seed: u64, label: impl Into<String>) -> Self {
        let label = label.into();
        Self {
            rng: Rng::from_label(master_seed, &label),
            label,
            events: 0,
            trace_path: None,
        }
    }

    /// The job's full label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The job's own RNG stream, derived from `(master seed, label)`
    /// alone — identical no matter where or when the job runs.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// Records discrete-event engine work done by this job — bodies
    /// that run an engine report `events_processed()` here so sweeps
    /// can account their total dispatch cost (the runner sums these
    /// into per-run and per-shard totals).
    pub fn record_events(&mut self, n: u64) {
        self.events += n;
    }

    /// Engine events this job reported via [`JobCtx::record_events`]
    /// (zero for jobs that run no discrete-event engine).
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Asks the job to record an execution trace at this path. Set by
    /// the executor (from [`crate::TraceConfig`]) before the body runs;
    /// bodies that support tracing check [`JobCtx::trace_path`] and
    /// write their trace file there on completion.
    pub fn set_trace_path(&mut self, path: PathBuf) {
        self.trace_path = Some(path);
    }

    /// Where this job should write its execution trace, if tracing was
    /// requested. `None` means run untraced (the default, and the only
    /// path the bench gate ever measures).
    pub fn trace_path(&self) -> Option<&Path> {
        self.trace_path.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_rng_depends_only_on_seed_and_label() {
        let draw = |seed: u64, label: &str| JobCtx::for_label(seed, label).rng().next_u64();
        assert_eq!(draw(42, "a/b/rep0"), draw(42, "a/b/rep0"));
        assert_ne!(draw(42, "a/b/rep0"), draw(42, "a/b/rep1"));
        assert_ne!(draw(42, "a/b/rep0"), draw(43, "a/b/rep0"));
    }
}
