//! Sim-layer probes through the public `Engine` and `Calendar` APIs:
//! the floor under the handler attribution.

use crate::median;
use ebrc_dist::Rng;
use ebrc_sim::{
    Calendar, Component, ComponentId, Context, Engine, HeapCalendar, Scheduled, WheelCalendar,
};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions per probe; each probe reports its median.
const REPS: usize = 7;

/// One side of a two-component ping-pong.
struct Pong {
    peer: Option<ComponentId>,
    left: u64,
}

impl Component<u64> for Pong {
    fn handle(&mut self, _now: f64, event: u64, ctx: &mut Context<u64>) {
        if self.left > 0 {
            self.left -= 1;
            ctx.send(1e-3, self.peer.expect("peer wired"), event + 1);
        }
    }
}

/// Nanoseconds per event of a ping-pong between two components: the
/// bare dispatch core with a one-event calendar.
pub fn dispatch_ns_per_event() -> f64 {
    const EVENTS: u64 = 1_000_000;
    let samples = (0..REPS)
        .map(|_| {
            let mut eng: Engine<u64> = Engine::with_capacity(2, 4);
            let a = eng.add(Box::new(Pong {
                peer: None,
                left: EVENTS / 2,
            }));
            let b = eng.add(Box::new(Pong {
                peer: Some(a),
                left: EVENTS / 2,
            }));
            eng.get_mut::<Pong>(a).peer = Some(b);
            eng.schedule(0.0, a, 0);
            let start = Instant::now();
            let n = eng.run_to_completion(u64::MAX);
            let ns = start.elapsed().as_nanos() as f64;
            black_box(n);
            ns / n as f64
        })
        .collect();
    median(samples)
}

/// Nanoseconds per hold operation (pop the head, push a replacement a
/// uniform 0–10 s ahead) at a stable population of `pending` events.
pub fn hold_ns<C: Calendar<u64>>(pending: usize, seed: u64) -> f64 {
    const OPS: u64 = 500_000;
    let mut rng = Rng::seed_from(seed ^ pending as u64);
    let mut cal = C::with_capacity(pending);
    let mut seq = 0u64;
    for _ in 0..pending {
        cal.push(Scheduled {
            time: rng.uniform() * 10.0,
            seq,
            target: 0,
            event: seq,
        });
        seq += 1;
    }
    cal.next_time();
    let samples = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..OPS {
                let head = cal.pop().expect("population is stable");
                cal.push(Scheduled {
                    time: head.time + rng.uniform() * 10.0,
                    seq,
                    target: 0,
                    event: seq,
                });
                seq += 1;
            }
            black_box(cal.len());
            start.elapsed().as_nanos() as f64 / OPS as f64
        })
        .collect();
    median(samples)
}

/// Every sim-layer probe, as `(metric, value)` pairs.
pub fn all(seed: u64) -> Vec<(&'static str, f64)> {
    let wheel_10k = hold_ns::<WheelCalendar<u64>>(10_000, seed);
    let heap_10k = hold_ns::<HeapCalendar<u64>>(10_000, seed);
    vec![
        ("sim.dispatch.ns_per_event", dispatch_ns_per_event()),
        (
            "sim.calendar.hold_ns.p64",
            hold_ns::<WheelCalendar<u64>>(64, seed),
        ),
        ("sim.calendar.hold_ns.p10k", wheel_10k),
        ("sim.calendar.wheel_over_heap", heap_10k / wheel_10k),
    ]
}
