//! Handler attribution: a benchmark-owned [`TraceSink`] installed with
//! the public `Engine::set_tracer` timestamps every dispatch and bins
//! the wall time until the next one by the kind of component that
//! handled the event. The interval therefore includes the calendar
//! push of what the handler emitted and the pop of the next event, so
//! these are not pure self times; the dispatch and calendar probes give
//! the floor.
//!
//! The scenario drivers here rebuild a spec's scenario through the
//! public config helpers and `DumbbellRun`/`ManyFlowRun`, run the same
//! warm-up / snapshot / span / measure legs as `SimSpec::run`, and
//! check that the rebuilt scenario has the spec's own content key.

use crate::spans;
use ebrc_experiments::figures::internet::{site_config, sites};
use ebrc_experiments::figures::lab::lab_queues;
use ebrc_experiments::scenarios::{DumbbellConfig, DumbbellRun, ManyFlowConfig, ManyFlowRun};
use ebrc_experiments::spec::{
    buffer_sweep_config, cable_modem_config, manyflow_config, ns2_config,
};
use ebrc_experiments::{SimSpec, SpecOutput};
use ebrc_net::NetEvent;
use ebrc_runner::Spec;
use ebrc_sim::{ComponentId, Engine, TraceSink};
use std::sync::Mutex;
use std::time::Instant;

/// Handler kinds, as the per-layer metrics name them. `net.path` is
/// every component a scenario does not expose: the delay boxes and the
/// demuxes of both directions and, when a dumbbell config sets
/// `onoff_background`, the on/off background source and its counting
/// sink.
pub const KINDS: [&str; 9] = [
    "net.path",
    "net.bottleneck",
    "net.probe",
    "tfrc.sender",
    "tfrc.receiver",
    "tcp.sender",
    "tcp.sink",
    "manyflow.tfrc_bank",
    "manyflow.tcp_bank",
];

const PATH: u8 = 0;

/// Events and attributed nanoseconds per handler kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct KindTotals {
    pub events: [u64; 9],
    pub ns: [u64; 9],
}

impl KindTotals {
    pub fn absorb(&mut self, other: &KindTotals) {
        for k in 0..KINDS.len() {
            self.events[k] += other.events[k];
            self.ns[k] += other.ns[k];
        }
    }

    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

static TOTALS: Mutex<KindTotals> = Mutex::new(KindTotals {
    events: [0; 9],
    ns: [0; 9],
});

/// Takes the handler totals accumulated since the last drain.
pub fn drain() -> KindTotals {
    std::mem::take(&mut *TOTALS.lock().expect("handler totals poisoned"))
}

struct KindSink {
    kind_of: Vec<u8>,
    last: Option<(Instant, u8)>,
    totals: KindTotals,
}

impl KindSink {
    fn new(named: &[(ComponentId, u8)]) -> Self {
        let len = named
            .iter()
            .map(|(id, _)| id.index() + 1)
            .max()
            .unwrap_or(0);
        let mut kind_of = vec![PATH; len];
        for &(id, kind) in named {
            kind_of[id.index()] = kind;
        }
        Self {
            kind_of,
            last: None,
            totals: KindTotals::default(),
        }
    }

    fn close(&mut self, now: Instant) {
        if let Some((t, k)) = self.last.take() {
            self.totals.ns[k as usize] += now.duration_since(t).as_nanos() as u64;
        }
    }
}

impl TraceSink<NetEvent> for KindSink {
    fn on_event(&mut self, _now: f64, target: ComponentId, _event: &NetEvent) {
        let now = Instant::now();
        self.close(now);
        let kind = self.kind_of.get(target.index()).copied().unwrap_or(PATH);
        self.totals.events[kind as usize] += 1;
        self.last = Some((now, kind));
    }

    fn on_counter(&mut self, _now: f64, _c: ComponentId, _name: &'static str, _value: f64) {}

    fn on_instant(&mut self, _now: f64, _c: ComponentId, _name: &'static str) {}
}

fn take_sink(engine: &mut Engine<NetEvent>) -> Box<KindSink> {
    let any: Box<dyn std::any::Any> = engine.take_tracer().expect("attribution sink installed");
    any.downcast::<KindSink>().expect("attribution sink type")
}

/// Runs one leg to `horizon` and charges the time after the leg's last
/// dispatch to that dispatch's handler.
fn leg(engine: &mut Engine<NetEvent>, horizon: f64) {
    engine.run_until(horizon);
    let mut sink = take_sink(engine);
    sink.close(Instant::now());
    engine.set_tracer(sink);
}

fn finish(engine: &mut Engine<NetEvent>) {
    let sink = take_sink(engine);
    TOTALS
        .lock()
        .expect("handler totals poisoned")
        .absorb(&sink.totals);
}

/// The scenario config and window of a dumbbell-family spec, rebuilt
/// from the public per-family helpers.
pub fn dumbbell_config(spec: &SimSpec) -> Option<(DumbbellConfig, f64, f64)> {
    let (cfg, warmup, span) = match *spec {
        SimSpec::Ns2Dumbbell {
            n,
            l,
            rep,
            probe,
            warmup,
            span,
        } => (ns2_config(n, l, rep, probe), warmup, span),
        SimSpec::LabDumbbell {
            queue,
            n,
            seed,
            warmup,
            span,
        } => (
            DumbbellConfig::lab_paper(n, lab_queues().remove(queue).1, seed),
            warmup,
            span,
        ),
        SimSpec::SiteDumbbell {
            site,
            n,
            seed,
            quick,
            warmup,
            span,
        } => (site_config(&sites()[site], n, seed, quick), warmup, span),
        SimSpec::CableModem { seed, warmup, span } => (cable_modem_config(seed), warmup, span),
        SimSpec::BufferSweep {
            mode,
            buffer,
            seed,
            warmup,
            span,
        } => (buffer_sweep_config(mode, buffer, seed), warmup, span),
        _ => return None,
    };
    let key = format!("dumbbell/{}/warmup={warmup}/span={span}", cfg.content_key());
    assert_eq!(key, spec.key(), "rebuilt dumbbell differs from its spec");
    Some((cfg, warmup, span))
}

/// The scenario config and window of a many-flow spec.
pub fn manyflow_window(spec: &SimSpec) -> Option<(ManyFlowConfig, f64, f64)> {
    let SimSpec::ManyFlowDumbbell {
        n,
        rep,
        warmup,
        span,
    } = *spec
    else {
        return None;
    };
    let cfg = manyflow_config(n, rep);
    let key = format!("manyflow/{}/warmup={warmup}/span={span}", cfg.content_key());
    assert_eq!(
        key,
        spec.key(),
        "rebuilt many-flow run differs from its spec"
    );
    Some((cfg, warmup, span))
}

/// Runs a dumbbell with handler attribution; returns the spec output
/// and the engine events dispatched.
pub fn run_dumbbell(cfg: &DumbbellConfig, warmup: f64, span: f64) -> (SpecOutput, u64) {
    let mut run = spans::timed("scenarios.build", || DumbbellRun::build(cfg));
    let mut named = vec![(run.bottleneck, 1)];
    if let Some((snd, sink)) = run.probe {
        named.extend([(snd, 2), (sink, 2)]);
    }
    for &(snd, rcv) in &run.tfrc {
        named.extend([(snd, 3), (rcv, 4)]);
    }
    for &(snd, sink) in &run.tcp {
        named.extend([(snd, 5), (sink, 6)]);
    }
    run.engine.set_tracer(Box::new(KindSink::new(&named)));
    leg(&mut run.engine, warmup);
    let snap = spans::timed("scenarios.measure", || run.snapshot_counters());
    leg(&mut run.engine, warmup + span);
    let m = spans::timed("scenarios.measure", || run.measurements_since(&snap, span));
    finish(&mut run.engine);
    (SpecOutput::Run(m), run.engine.events_processed())
}

/// Runs a many-flow dumbbell with handler attribution.
pub fn run_manyflow(cfg: &ManyFlowConfig, warmup: f64, span: f64) -> (SpecOutput, u64) {
    let mut run = spans::timed("scenarios.build", || ManyFlowRun::build(cfg));
    let named = [(run.bottleneck, 1), (run.tfrc_bank, 7), (run.tcp_bank, 8)];
    run.engine.set_tracer(Box::new(KindSink::new(&named)));
    leg(&mut run.engine, warmup);
    let snap = spans::timed("scenarios.measure", || run.snapshot_counters());
    leg(&mut run.engine, warmup + span);
    let out = spans::timed("scenarios.measure", || {
        SpecOutput::Scalars(run.measurements_since(&snap, span).summary())
    });
    finish(&mut run.engine);
    (out, run.engine.events_processed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::family;
    use ebrc_experiments::{all_experiments, global_plan, Experiment, Scale};
    use ebrc_runner::CacheableSpec;

    #[test]
    fn every_catalogue_scenario_rebuilds_under_its_own_key() {
        let catalogue = all_experiments();
        let refs: Vec<&dyn Experiment> = catalogue.iter().map(|e| e.as_ref()).collect();
        let plan = global_plan(&refs, Scale::quick());
        let rebuilt = plan
            .specs()
            .iter()
            .filter(|s| dumbbell_config(s).is_some() || manyflow_window(s).is_some())
            .count();
        let scenarios = plan.specs().iter().filter(|s| family(s) <= 1).count();
        assert!(scenarios > 0);
        assert_eq!(rebuilt, scenarios, "every scenario spec is rebuilt");
    }

    #[test]
    fn attributed_run_matches_the_spec_output() {
        let spec = SimSpec::Ns2Dumbbell {
            n: 1,
            l: 8,
            rep: 0,
            probe: Some(5.0),
            warmup: 2.0,
            span: 4.0,
        };
        let (cfg, warmup, span) = dumbbell_config(&spec).unwrap();
        let (out, events) = run_dumbbell(&cfg, warmup, span);
        let mut ctx = ebrc_runner::JobCtx::for_label(0, spec.key());
        let plain = spec.run(&mut ctx);
        assert_eq!(SimSpec::encode_output(&out), SimSpec::encode_output(&plain));
        assert_eq!(events, ctx.events_processed());
        let totals = drain();
        assert_eq!(totals.events.iter().sum::<u64>(), events);
        for kind in [
            "net.path",
            "net.bottleneck",
            "net.probe",
            "tfrc.sender",
            "tcp.sink",
        ] {
            let k = KINDS.iter().position(|n| *n == kind).unwrap();
            assert!(
                totals.events[k] > 0 && totals.ns[k] > 0,
                "{kind} unattributed"
            );
        }
    }
}
