//! Golden `.pftrace` fixture: a tiny deterministic dumbbell sim must
//! record byte-identical Perfetto traces on every run — monolithic or
//! resumed from event-budgeted slices — and those bytes are pinned to
//! a committed fixture so the wire encoding cannot silently drift.
//! The fixture is also what a reviewer drags into ui.perfetto.dev to
//! eyeball the track layout.
//!
//! `UPDATE_GOLDEN=1 cargo test -p ebrc-experiments --test trace_golden`
//! rewrites the fixture after a deliberate format change.

use ebrc_experiments::scenarios::dumbbell::{DumbbellConfig, DumbbellRun, QueueSpec};
use ebrc_experiments::scenarios::MeasuredScenario;
use ebrc_sim::RunLimit;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace_tiny.pftrace")
}

/// Sim-time horizon of the fixture run: long enough for TFRC feedback
/// rounds, TCP cwnd growth, and queue buildup to all appear on their
/// tracks, short enough to keep the committed fixture small.
const HORIZON: f64 = 1.5;

/// One TFRC + one TCP flow over a deliberately slow (1 Mb/s) DropTail
/// bottleneck — slow so the committed fixture stays small, shallow so
/// losses (and the loss-event instants they trace) appear within the
/// horizon. With `Some(budget)` the run is driven in event-budgeted
/// slices, exactly like the runner's resumable path.
fn record(slice_events: Option<u64>) -> Vec<u8> {
    let mut cfg = DumbbellConfig::lab_paper(1, QueueSpec::DropTail(10), 0x5eed);
    cfg.bottleneck_bps = 1e6;
    let mut run = DumbbellRun::build(&cfg);
    run.install_tracer();
    match slice_events {
        None => {
            run.engine.run_until(HORIZON);
        }
        Some(budget) => loop {
            let out = run.engine.run_budgeted(RunLimit::new(HORIZON, budget));
            if !out.exhausted() {
                break;
            }
        },
    }
    run.take_trace().expect("tracer was installed")
}

#[test]
fn tiny_sim_trace_matches_the_golden_fixture() {
    let monolithic = record(None);

    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(golden_path(), &monolithic).unwrap();
        eprintln!(
            "golden trace regenerated: {} bytes at {}",
            monolithic.len(),
            golden_path().display()
        );
        return;
    }

    let golden = std::fs::read(golden_path()).unwrap_or_else(|e| {
        panic!(
            "no golden trace at {} ({e}); run UPDATE_GOLDEN=1",
            golden_path().display()
        )
    });
    assert_eq!(
        golden, monolithic,
        "trace bytes diverged from the committed fixture \
         (deliberate format change? regenerate with UPDATE_GOLDEN=1)"
    );

    // Slicing is pure scheduling: a run resumed from 257-event slices
    // must emit the same bytes as the monolithic run.
    assert_eq!(
        monolithic,
        record(Some(257)),
        "sliced run recorded different trace bytes"
    );
}

#[test]
fn the_golden_fixture_is_structurally_valid_perfetto() {
    let bytes = record(None);
    let summary = ebrc_trace::read_trace(&bytes).expect("recorded trace must parse");
    // The fixture must actually show the sim: per-component event
    // tracks, queue/drop counter tracks, and rate-controller activity.
    assert!(summary.tracks >= 9, "tracks: {summary:?}");
    assert!(summary.counter_tracks >= 3, "counters: {summary:?}");
    assert!(summary.slice_begins > 100, "slices: {summary:?}");
    assert_eq!(summary.slice_begins, summary.slice_ends, "{summary:?}");
    assert!(summary.counters > 10, "samples: {summary:?}");
    assert!(summary.instants > 0, "instants: {summary:?}");
    // Timestamps are sim-time nanoseconds within the horizon.
    assert!(summary.max_ts.unwrap() <= (HORIZON * 1e9) as u64 + 1);
}
