//! Property tests: the engine delivers events in time order,
//! deterministically, exactly once.

use ebrc_sim::{
    Calendar, Component, Context, Engine, HeapCalendar, RunLimit, Scheduled, StopReason,
    WheelCalendar,
};
use proptest::prelude::*;

struct Recorder {
    log: Vec<(f64, u32)>,
}

impl Component<u32> for Recorder {
    fn handle(&mut self, now: f64, ev: u32, _ctx: &mut Context<u32>) {
        self.log.push((now, ev));
    }
}

/// Follow-up rule shared by the [`Echo`] component and the naive
/// reference model: every third event id re-emits `id + 1` after a
/// deterministic delay (the chain stops immediately, since `id + 1` is
/// never divisible by three).
fn follow_up(ev: u32) -> Option<(f64, u32)> {
    ev.is_multiple_of(3)
        .then(|| ((ev % 7) as f64 * 0.1, ev + 1))
}

/// Records deliveries and re-emits per [`follow_up`] — so interleaved
/// run calls exercise the engine's scratch-buffer reuse, not just
/// externally scheduled events.
struct Echo {
    log: Vec<(f64, u32)>,
}

impl Component<u32> for Echo {
    fn handle(&mut self, now: f64, ev: u32, ctx: &mut Context<u32>) {
        self.log.push((now, ev));
        if let Some((delay, next)) = follow_up(ev) {
            ctx.send_self(delay, next);
        }
    }
}

/// A naive reference engine: a flat `Vec` calendar scanned for the
/// `(time, seq)` minimum on every dispatch. Quadratic and obviously
/// correct — the oracle the real engine's run paths are compared
/// against.
struct NaiveEngine {
    clock: f64,
    seq: u64,
    pending: Vec<(f64, u64, u32)>,
    log: Vec<(f64, u32)>,
    processed: u64,
}

impl NaiveEngine {
    fn new() -> Self {
        Self {
            clock: 0.0,
            seq: 0,
            pending: Vec::new(),
            log: Vec::new(),
            processed: 0,
        }
    }

    fn schedule(&mut self, delay: f64, ev: u32) {
        let time = self.clock + delay;
        let seq = self.seq;
        self.seq += 1;
        self.pending.push((time, seq, ev));
    }

    /// Index of the earliest pending event (ties by scheduling order).
    fn head(&self) -> Option<usize> {
        (0..self.pending.len()).reduce(|best, i| {
            let (bt, bs, _) = self.pending[best];
            let (t, s, _) = self.pending[i];
            if (t, s) < (bt, bs) {
                i
            } else {
                best
            }
        })
    }

    fn dispatch_head(&mut self, idx: usize) {
        let (time, _, ev) = self.pending.remove(idx);
        self.clock = time;
        self.processed += 1;
        self.log.push((time, ev));
        if let Some((delay, next)) = follow_up(ev) {
            self.schedule(delay, next);
        }
    }

    fn run_budgeted(&mut self, t_end: f64, max_events: u64) {
        let mut n = 0;
        let mut budget_hit = false;
        loop {
            if n >= max_events {
                budget_hit = true;
                break;
            }
            match self.head() {
                Some(idx) if self.pending[idx].0 <= t_end => {
                    self.dispatch_head(idx);
                    n += 1;
                }
                _ => break,
            }
        }
        if !budget_hit && t_end.is_finite() && self.clock < t_end {
            self.clock = t_end;
        }
    }

    fn run_until(&mut self, t_end: f64) {
        self.run_budgeted(t_end, u64::MAX);
    }

    fn run_events(&mut self, n: u64) {
        self.run_budgeted(f64::INFINITY, n);
    }
}

/// One step of an interleaved workload.
#[derive(Debug, Clone)]
enum Op {
    Schedule(f64, u32),
    RunEvents(u64),
    RunUntil(f64),
    RunBudgeted(f64, u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0.0f64..20.0, 0u32..100).prop_map(|(d, e)| Op::Schedule(d, e)),
        (0u64..12).prop_map(Op::RunEvents),
        (0.0f64..30.0).prop_map(Op::RunUntil),
        ((0.0f64..30.0), 0u64..8).prop_map(|(t, n)| Op::RunBudgeted(t, n)),
    ]
}

/// Op strategy for the wheel-vs-heap equivalence property: besides the
/// baseline mix it generates same-timestamp bursts (several events at an
/// identical delay, so FIFO-within-timestamp is actually exercised) and
/// far-future outliers that land outside any reasonable wheel window and
/// wrap its levels through the overflow path.
fn arb_calendar_op() -> impl Strategy<Value = Vec<Op>> {
    let one = prop_oneof![
        4 => (0.0f64..20.0, 0u32..100).prop_map(|(d, e)| vec![Op::Schedule(d, e)]),
        // Same-timestamp burst: k events at one exact delay.
        2 => (0.0f64..20.0, 0u32..100, 2usize..6).prop_map(|(d, e, k)| {
            (0..k).map(|i| Op::Schedule(d, e.wrapping_add(i as u32))).collect()
        }),
        // Far-future outlier: forces wheel-level wrap / overflow handling.
        1 => (1.0e4f64..1.0e7, 0u32..100).prop_map(|(d, e)| vec![Op::Schedule(d, e)]),
        2 => (0u64..12).prop_map(|n| vec![Op::RunEvents(n)]),
        2 => (0.0f64..40.0).prop_map(|t| vec![Op::RunUntil(t)]),
        2 => ((0.0f64..40.0), 0u64..8).prop_map(|(t, n)| vec![Op::RunBudgeted(t, n)]),
    ];
    proptest::collection::vec(one, 1..50).prop_map(|chunks| chunks.concat())
}

proptest! {
    #[test]
    fn delivery_in_time_order_exactly_once(delays in proptest::collection::vec(0.0_f64..100.0, 1..200)) {
        let mut eng: Engine<u32> = Engine::new();
        let rec = eng.add(Box::new(Recorder { log: vec![] }));
        for (i, d) in delays.iter().enumerate() {
            eng.schedule(*d, rec, i as u32);
        }
        eng.run_until(1000.0);
        let r: &Recorder = eng.get(rec);
        prop_assert_eq!(r.log.len(), delays.len(), "exactly once");
        // Non-decreasing delivery times.
        for w in r.log.windows(2) {
            prop_assert!(w[1].0 >= w[0].0);
        }
        // Every event id delivered.
        let mut ids: Vec<u32> = r.log.iter().map(|(_, e)| *e).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..delays.len() as u32).collect::<Vec<_>>());
        // Ties broken by scheduling order.
        for w in r.log.windows(2) {
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1);
            }
        }
    }

    #[test]
    fn replay_is_bitwise_identical(delays in proptest::collection::vec(0.0_f64..50.0, 1..100)) {
        let run = |ds: &[f64]| {
            let mut eng: Engine<u32> = Engine::new();
            let rec = eng.add(Box::new(Recorder { log: vec![] }));
            for (i, d) in ds.iter().enumerate() {
                eng.schedule(*d, rec, i as u32);
            }
            eng.run_until(100.0);
            eng.get::<Recorder>(rec).log.clone()
        };
        prop_assert_eq!(run(&delays), run(&delays));
    }

    #[test]
    fn run_until_boundary_is_inclusive_and_clock_monotone(
        delays in proptest::collection::vec(0.0_f64..10.0, 1..50),
        cut in 0.0_f64..10.0,
    ) {
        let mut eng: Engine<u32> = Engine::new();
        let rec = eng.add(Box::new(Recorder { log: vec![] }));
        for (i, d) in delays.iter().enumerate() {
            eng.schedule(*d, rec, i as u32);
        }
        eng.run_until(cut);
        let delivered = eng.get::<Recorder>(rec).log.len();
        let expected = delays.iter().filter(|d| **d <= cut).count();
        prop_assert_eq!(delivered, expected);
        prop_assert!(eng.now() >= cut);
    }

    /// Property: under any interleaving of `schedule`, `run_events`,
    /// `run_until`, and `run_budgeted` — including handler-emitted
    /// follow-ups that reuse the engine's scratch buffer — the real
    /// engine's dispatch log, clock, and `events_processed` match the
    /// naive reference engine after every single step.
    #[test]
    fn any_run_interleaving_matches_the_naive_reference(
        ops in proptest::collection::vec(arb_op(), 1..60),
    ) {
        let mut eng: Engine<u32> = Engine::new();
        let echo = eng.add(Box::new(Echo { log: vec![] }));
        let mut reference = NaiveEngine::new();
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Schedule(delay, ev) => {
                    eng.schedule(delay, echo, ev);
                    reference.schedule(delay, ev);
                }
                Op::RunEvents(n) => {
                    eng.run_events(n);
                    reference.run_events(n);
                }
                Op::RunUntil(t) => {
                    eng.run_until(t);
                    reference.run_until(t);
                }
                Op::RunBudgeted(t, n) => {
                    let _ = eng.run_budgeted(RunLimit::new(t, n));
                    reference.run_budgeted(t, n);
                }
            }
            prop_assert_eq!(
                eng.now().to_bits(),
                reference.clock.to_bits(),
                "clock diverged after step {} ({:?})", step, op
            );
            prop_assert_eq!(
                eng.events_processed(),
                reference.processed,
                "events_processed diverged after step {} ({:?})", step, op
            );
        }
        prop_assert_eq!(&eng.get::<Echo>(echo).log, &reference.log, "dispatch log diverged");
    }

    /// Property: `run_events(n)` is exactly `run_budgeted(∞, n)` — one
    /// dispatch loop behind both entry points.
    #[test]
    fn run_events_equals_budgeted_with_infinite_horizon(
        delays in proptest::collection::vec(0.0_f64..10.0, 1..40),
        n in 0u64..50,
    ) {
        let build = |ds: &[f64]| {
            let mut eng: Engine<u32> = Engine::new();
            let echo = eng.add(Box::new(Echo { log: vec![] }));
            for (i, d) in ds.iter().enumerate() {
                eng.schedule(*d, echo, i as u32);
            }
            (eng, echo)
        };
        let (mut a, ea) = build(&delays);
        let (mut b, eb) = build(&delays);
        let na = a.run_events(n);
        let out = b.run_budgeted(RunLimit::events(n));
        prop_assert_eq!(na, out.events);
        prop_assert!(matches!(out.reason, StopReason::Budget | StopReason::Idle));
        prop_assert_eq!(a.now().to_bits(), b.now().to_bits());
        prop_assert_eq!(&a.get::<Echo>(ea).log, &b.get::<Echo>(eb).log);
    }

    /// Property: chunking one `run_until(t)` into budgeted slices —
    /// `run_budgeted(RunLimit::new(t, budget))` repeated until the stop
    /// reason is no longer `Budget` — reaches a bit-identical final
    /// state (clock, dispatch log, lifetime event count). This is the
    /// engine-level contract the runner's sliced-run path rests on.
    #[test]
    fn sliced_run_until_is_bit_identical_to_monolithic(
        delays in proptest::collection::vec(0.0_f64..10.0, 1..60),
        cut in 0.0_f64..12.0,
        budget in 1u64..7,
    ) {
        let build = |ds: &[f64]| {
            let mut eng: Engine<u32> = Engine::new();
            let echo = eng.add(Box::new(Echo { log: vec![] }));
            for (i, d) in ds.iter().enumerate() {
                eng.schedule(*d, echo, i as u32);
            }
            (eng, echo)
        };
        let (mut mono, em) = build(&delays);
        let (mut sliced, es) = build(&delays);
        let n_mono = mono.run_until(cut);
        let mut n_sliced = 0;
        loop {
            let out = sliced.run_budgeted(RunLimit::new(cut, budget));
            n_sliced += out.events;
            if !out.exhausted() {
                break;
            }
        }
        prop_assert_eq!(n_mono, n_sliced);
        prop_assert_eq!(mono.now().to_bits(), sliced.now().to_bits());
        prop_assert_eq!(mono.events_processed(), sliced.events_processed());
        prop_assert_eq!(&mono.get::<Echo>(em).log, &sliced.get::<Echo>(es).log);
    }

    /// Property: the wheel calendar is observationally identical to the
    /// heap calendar — same dispatch log (bitwise times), same clock,
    /// same lifetime event count — under arbitrary interleavings of
    /// schedule and run calls, including same-timestamp bursts and
    /// far-future events that wrap the wheel's levels into overflow.
    #[test]
    fn wheel_calendar_is_bit_identical_to_heap_calendar(
        ops in arb_calendar_op(),
    ) {
        let mut wheel: Engine<u32, WheelCalendar<u32>> =
            Engine::with_calendar(WheelCalendar::with_capacity(16), 0);
        let mut heap: Engine<u32, HeapCalendar<u32>> =
            Engine::with_calendar(HeapCalendar::with_capacity(16), 0);
        let ew = wheel.add(Box::new(Echo { log: vec![] }));
        let eh = heap.add(Box::new(Echo { log: vec![] }));
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Schedule(delay, ev) => {
                    wheel.schedule(delay, ew, ev);
                    heap.schedule(delay, eh, ev);
                }
                Op::RunEvents(n) => {
                    wheel.run_events(n);
                    heap.run_events(n);
                }
                Op::RunUntil(t) => {
                    wheel.run_until(t);
                    heap.run_until(t);
                }
                Op::RunBudgeted(t, n) => {
                    let _ = wheel.run_budgeted(RunLimit::new(t, n));
                    let _ = heap.run_budgeted(RunLimit::new(t, n));
                }
            }
            prop_assert_eq!(
                wheel.now().to_bits(),
                heap.now().to_bits(),
                "clock diverged after step {} ({:?})", step, op
            );
            prop_assert_eq!(
                wheel.events_processed(),
                heap.events_processed(),
                "events_processed diverged after step {} ({:?})", step, op
            );
        }
        // Drain both to the end: every pending event (including the
        // far-future overflow tail) must pop in the same order.
        wheel.run_until(f64::INFINITY);
        heap.run_until(f64::INFINITY);
        let lw = &wheel.get::<Echo>(ew).log;
        let lh = &heap.get::<Echo>(eh).log;
        prop_assert_eq!(lw.len(), lh.len(), "drain lengths differ");
        for (i, (w, h)) in lw.iter().zip(lh.iter()).enumerate() {
            prop_assert_eq!(w.0.to_bits(), h.0.to_bits(), "time diverged at dispatch {}", i);
            prop_assert_eq!(w.1, h.1, "event diverged at dispatch {}", i);
        }
    }
}

/// One step of a direct calendar workload.
#[derive(Debug, Clone)]
enum CalOp {
    /// Push an event `delay` after the last popped time.
    Push(f64),
    Pop,
    /// `pop_before(head + offset)`: a negative offset puts the horizon
    /// before the head, zero exactly at it, a positive one after it.
    PopBefore(f64),
}

fn arb_cal_ops() -> impl Strategy<Value = Vec<CalOp>> {
    let one = prop_oneof![
        4 => (0.0f64..20.0).prop_map(|d| vec![CalOp::Push(d)]),
        // Same-timestamp burst.
        1 => (0.0f64..20.0, 2usize..6).prop_map(|(d, k)| vec![CalOp::Push(d); k]),
        // Far-future outlier through the overflow heap.
        1 => (1.0e4f64..1.0e7).prop_map(|d| vec![CalOp::Push(d)]),
        2 => Just(vec![CalOp::Pop]),
        2 => (-5.0f64..-1e-9).prop_map(|o| vec![CalOp::PopBefore(o)]),
        2 => Just(vec![CalOp::PopBefore(0.0)]),
        2 => (1e-9f64..5.0).prop_map(|o| vec![CalOp::PopBefore(o)]),
    ];
    proptest::collection::vec(one, 1..80).prop_map(|chunks| chunks.concat())
}

fn key(s: Scheduled<u32>) -> (u64, u64) {
    (s.time.to_bits(), s.seq)
}

proptest! {
    /// Property: `pop_before` on the wheel is observationally identical
    /// to the heap — the same `(time, seq)` stream under arbitrary
    /// interleavings of push, pop and horizon-bounded pops with the
    /// horizon before, exactly at (inclusive) and after the head — and a
    /// refused `pop_before` changes neither `len()` nor the next pop.
    #[test]
    fn wheel_pop_before_is_identical_to_heap(ops in arb_cal_ops()) {
        let mut wheel: WheelCalendar<u32> = Calendar::with_capacity(16);
        let mut heap: HeapCalendar<u32> = Calendar::with_capacity(16);
        let mut clock = 0.0f64;
        let mut seq = 0u64;
        for (step, op) in ops.iter().enumerate() {
            match *op {
                CalOp::Push(delay) => {
                    for cal in [&mut wheel as &mut dyn Calendar<u32>, &mut heap] {
                        cal.push(Scheduled { time: clock + delay, seq, target: 0, event: seq as u32 });
                    }
                    seq += 1;
                }
                CalOp::Pop => {
                    let (w, h) = (wheel.pop(), heap.pop());
                    if let Some(h) = &h {
                        clock = h.time;
                    }
                    prop_assert_eq!(w.map(key), h.map(key), "pop diverged at step {}", step);
                }
                CalOp::PopBefore(offset) => {
                    let head = heap.next_time();
                    let horizon = head.map_or(clock, |t| t + offset);
                    let len = heap.len();
                    let (w, h) = (wheel.pop_before(horizon), heap.pop_before(horizon));
                    let due = head.is_some_and(|t| t <= horizon);
                    prop_assert_eq!(h.is_some(), due, "heap ignored the horizon at step {}", step);
                    match (w, h) {
                        (Some(w), Some(h)) => {
                            clock = h.time;
                            prop_assert_eq!(key(w), key(h), "pop_before diverged at step {}", step);
                        }
                        (None, None) => {
                            prop_assert_eq!(wheel.len(), len, "refusal changed len at step {}", step);
                            prop_assert_eq!(heap.len(), len);
                            prop_assert_eq!(
                                wheel.next_time().map(f64::to_bits),
                                head.map(f64::to_bits),
                                "refusal moved the head at step {}", step
                            );
                        }
                        (w, _) => prop_assert!(false, "emptiness diverged at step {}: wheel {}", step, w.is_some()),
                    }
                }
            }
            prop_assert_eq!(wheel.len(), heap.len(), "len diverged after step {} ({:?})", step, op);
        }
        while let Some(h) = heap.pop() {
            prop_assert_eq!(wheel.pop().map(key), Some(key(h)), "drain diverged");
        }
        prop_assert!(wheel.pop().is_none());
    }
}
