//! In-memory spans recorded around the harness's calls into each crate.
//!
//! A span is `(name, thread, start, end)`; its layer is the name's prefix
//! before the first `.` (`compiler.compile` belongs to `compiler`). Spans
//! are kept in memory and reduced once the traced pass ends. A span's self
//! time is its duration minus the spans it directly encloses on the same
//! thread.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn thread_id() -> u64 {
    THREAD.with(|t| *t)
}

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    thread: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Collects spans from any thread for one traced pass.
pub struct Tracer {
    origin: Instant,
    main: u64,
    spans: Mutex<Vec<Span>>,
}

/// Per-layer reduction of a traced pass.
#[derive(Clone, Debug, Default)]
pub struct Reduced {
    /// Wall time from the tracer's creation to [`Tracer::finish`] (s).
    pub wall_s: f64,
    /// Self time per span name, summed over threads (s).
    pub self_s: BTreeMap<&'static str, f64>,
    /// Calls per span name.
    pub calls: BTreeMap<&'static str, u64>,
    /// Share of the wall that no span on the creating thread covers.
    pub unattributed_frac: f64,
}

impl Reduced {
    /// Self time of one span name (0 when it never ran).
    pub fn busy(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    /// Calls of one span name (0 when it never ran).
    pub fn count(&self, name: &str) -> u64 {
        self.calls.get(name).copied().unwrap_or(0)
    }
}

impl Tracer {
    /// Starts the clock; the calling thread is the pass's main thread.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            main: thread_id(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned").push(Span {
            name,
            thread: thread_id(),
            start_ns,
            end_ns,
        });
        out
    }

    /// Stops the clock and reduces the spans to self times per name.
    pub fn finish(self) -> Reduced {
        let wall_ns = self.now_ns();
        let mut spans = self.spans.into_inner().expect("span list poisoned");
        // Parents before children: by thread, then start, then longest.
        spans.sort_by_key(|s| (s.thread, s.start_ns, u64::MAX - s.end_ns));
        let mut out = Reduced {
            wall_s: wall_ns as f64 / 1e9,
            ..Reduced::default()
        };
        let mut main_covered_ns = 0u64;
        // Open spans on the current thread: (index, child time so far).
        let mut stack: Vec<(usize, u64)> = Vec::new();
        let mut close = |stack: &mut Vec<(usize, u64)>, spans: &[Span], out: &mut Reduced| {
            let (i, child_ns) = stack.pop().expect("close with an open span");
            let s = &spans[i];
            let dur = s.end_ns - s.start_ns;
            *out.self_s.entry(s.name).or_default() += dur.saturating_sub(child_ns) as f64 / 1e9;
            *out.calls.entry(s.name).or_default() += 1;
            match stack.last_mut() {
                Some(parent) => parent.1 += dur,
                None if s.thread == self.main => main_covered_ns += dur,
                None => {}
            }
        };
        for i in 0..spans.len() {
            while let Some(&(top, _)) = stack.last() {
                let t = &spans[top];
                if t.thread == spans[i].thread && spans[i].end_ns <= t.end_ns {
                    break;
                }
                close(&mut stack, &spans, &mut out);
            }
            stack.push((i, 0));
        }
        while !stack.is_empty() {
            close(&mut stack, &spans, &mut out);
        }
        out.unattributed_frac = if wall_ns == 0 {
            0.0
        } else {
            wall_ns.saturating_sub(main_covered_ns) as f64 / wall_ns as f64
        };
        out
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_main_coverage_reconciles() {
        let t = Tracer::new();
        t.span("core.outer", || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            t.span("isa.inner", || {
                std::thread::sleep(std::time::Duration::from_millis(10))
            });
        });
        let r = t.finish();
        assert_eq!(r.count("core.outer"), 1);
        assert_eq!(r.count("isa.inner"), 1);
        assert!(r.busy("isa.inner") >= 0.010);
        assert!(r.busy("core.outer") >= 0.005 && r.busy("core.outer") < 0.010);
        let total: f64 = r.self_s.values().sum();
        assert!((total - r.wall_s).abs() / r.wall_s < 0.05, "{r:?}");
        assert!(r.unattributed_frac < 0.05, "{r:?}");
    }

    #[test]
    fn worker_spans_count_as_busy_but_not_as_main_coverage() {
        let t = Tracer::new();
        t.span("runner.pool", || {
            std::thread::scope(|s| {
                s.spawn(|| {
                    t.span("pipeline.lanes", || {
                        std::thread::sleep(std::time::Duration::from_millis(5))
                    })
                });
            });
        });
        let r = t.finish();
        assert!(r.busy("pipeline.lanes") >= 0.005);
        assert!(
            r.busy("runner.pool") >= 0.005,
            "worker spans do not nest under main-thread spans"
        );
        assert!(r.unattributed_frac < 0.05);
    }
}
