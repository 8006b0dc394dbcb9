//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start and end, and the span that caused it
//! (the enclosing span on the same thread), so a layer's self time
//! leaves out the layers it calls. Spans are kept in memory until the
//! run ends. When tracing is off every call is a no-op, so the
//! untraced run times the program alone.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// The span name that marks one whole request: it is the traced wall
/// time, not a layer.
pub const REQUEST: &str = "request";

struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    thread: ThreadId,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// Open span indices per thread, innermost last.
    open: Vec<(ThreadId, Vec<usize>)>,
}

/// The span recorder. `Sync`, so a daemon thread can record into the
/// same trace as the client.
pub struct Tracer {
    state: Option<Mutex<State>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let (Some(i), Some(state)) = (self.index, &self.tracer.state) {
            let now = Instant::now();
            let mut st = state.lock().unwrap_or_else(|p| p.into_inner());
            st.spans[i].end = now;
            let thread = st.spans[i].thread;
            if let Some((_, stack)) = st.open.iter_mut().find(|(t, _)| *t == thread) {
                stack.retain(|&j| j != i);
            }
        }
    }
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer { state: None }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer { state: Some(Mutex::new(State::default())) }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Opens a span named `name`, closed when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let Some(state) = &self.state else { return SpanGuard { tracer: self, index: None } };
        let mut st = state.lock().unwrap_or_else(|p| p.into_inner());
        let thread = std::thread::current().id();
        let index = st.spans.len();
        let parent =
            st.open.iter().find(|(t, _)| *t == thread).and_then(|(_, s)| s.last().copied());
        let now = Instant::now();
        st.spans.push(Span { name, start: now, end: now, parent, thread });
        match st.open.iter_mut().find(|(t, _)| *t == thread) {
            Some((_, stack)) => stack.push(index),
            None => st.open.push((thread, vec![index])),
        }
        SpanGuard { tracer: self, index: Some(index) }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _g = self.span(name);
        f()
    }

    fn with_spans<T>(&self, f: impl FnOnce(&[Span]) -> T) -> Option<T> {
        let state = self.state.as_ref()?;
        let st = state.lock().unwrap_or_else(|p| p.into_inner());
        Some(f(&st.spans))
    }

    /// Self time in seconds per span name: each span's duration minus
    /// the part its child spans cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        self.with_spans(|spans| {
            let mut child = vec![0.0f64; spans.len()];
            for s in spans {
                if let Some(p) = s.parent {
                    child[p] += (s.end - s.start).as_secs_f64();
                }
            }
            let mut out = BTreeMap::new();
            for (i, s) in spans.iter().enumerate() {
                let own = ((s.end - s.start).as_secs_f64() - child[i]).max(0.0);
                *out.entry(s.name).or_insert(0.0) += own;
            }
            out
        })
        .unwrap_or_default()
    }

    /// Number of closed spans per name.
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        self.with_spans(|spans| {
            let mut out = BTreeMap::new();
            for s in spans {
                *out.entry(s.name).or_insert(0) += 1;
            }
            out
        })
        .unwrap_or_default()
    }

    /// Traced wall time (the union of [`REQUEST`] spans) in seconds and
    /// the share of it that no layer span covers, from any thread.
    pub fn wall_and_unattributed(&self) -> (f64, f64) {
        self.with_spans(|spans| {
            let requests = merge(
                spans.iter().filter(|s| s.name == REQUEST).map(|s| (s.start, s.end)).collect(),
            );
            let layers = merge(
                spans.iter().filter(|s| s.name != REQUEST).map(|s| (s.start, s.end)).collect(),
            );
            let wall: f64 = requests.iter().map(|(a, b)| (*b - *a).as_secs_f64()).sum();
            let mut covered = 0.0;
            for &(ra, rb) in &requests {
                for &(la, lb) in &layers {
                    let (a, b) = (ra.max(la), rb.min(lb));
                    if a < b {
                        covered += (b - a).as_secs_f64();
                    }
                }
            }
            let unattributed = if wall > 0.0 { ((wall - covered) / wall).max(0.0) } else { 0.0 };
            (wall, unattributed)
        })
        .unwrap_or((0.0, 0.0))
    }
}

/// Sorts and merges overlapping intervals.
fn merge(mut v: Vec<(Instant, Instant)>) -> Vec<(Instant, Instant)> {
    v.sort();
    let mut out: Vec<(Instant, Instant)> = Vec::with_capacity(v.len());
    for (a, b) in v {
        match out.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn busy(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children_and_unattributed_is_the_gap() {
        let tr = Tracer::on();
        {
            let _r = tr.span(REQUEST);
            {
                let _a = tr.span("a");
                busy(Duration::from_millis(4));
                tr.time("b", || busy(Duration::from_millis(4)));
            }
            busy(Duration::from_millis(4));
        }
        // Identities rather than timing windows, so a preempted test
        // thread cannot fail them: self times partition the request,
        // and the unattributed share is the request's own self time.
        let s = tr.self_seconds();
        let (wall, un) = tr.wall_and_unattributed();
        assert!(s["a"] >= 0.004 && s["b"] >= 0.004 && s[REQUEST] >= 0.004, "{s:?}");
        assert!((s["a"] + s["b"] + s[REQUEST] - wall).abs() < 1e-9, "{s:?} vs wall {wall}");
        assert!((un * wall - s[REQUEST]).abs() < 1e-9, "unattributed {un} of {wall}");
        assert_eq!(tr.counts()[REQUEST], 1);
    }

    #[test]
    fn off_records_nothing() {
        let tr = Tracer::off();
        tr.time("a", || ());
        assert!(tr.self_seconds().is_empty());
        assert_eq!(tr.wall_and_unattributed(), (0.0, 0.0));
    }
}
