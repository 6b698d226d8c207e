//! In-memory spans recorded by the benchmark around its calls into
//! each layer's public functions. Spans live in one process-wide list
//! and are drained once per traced pass; nothing is written out until
//! the benchmark aggregates them.

use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer operation, e.g. `runner.cache.load`.
    pub name: &'static str,
    /// Small per-thread index, so self time can be computed per thread.
    pub thread: usize,
    pub start: Instant,
    pub end: Instant,
    /// Operation-specific count: bytes stored, events dispatched, or a
    /// spec family index.
    pub count: u64,
    /// Family index for `spec` spans, otherwise 0.
    pub family: usize,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static THREAD: usize = {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

pub fn thread_index() -> usize {
    THREAD.with(|t| *t)
}

pub fn record(name: &'static str, start: Instant, end: Instant, count: u64, family: usize) {
    SPANS.lock().expect("span list poisoned").push(Span {
        name,
        thread: thread_index(),
        start,
        end,
        count,
        family,
    });
}

/// Runs `f` inside a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    record(name, start, Instant::now(), 0, 0);
    out
}

/// Takes every span recorded since the last drain.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span list poisoned"))
}
