//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from *outside* the crates — around calls into their
//! public functions — and kept in memory until the run ends. One span is
//! `(name, start, end, parent, op)`: `parent` is the span that was open
//! when this one started, `op` numbers the operation (one replayed job,
//! one served job) so the spans of one request share an identifier.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use serde_json::{json, Value};

use crate::stats::median;

/// Index of the absent parent.
const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u32,
}

/// A single-threaded span stack behind a mutex (hooks the executor calls
/// are `Fn + Sync`, so the recorder must be shareable; it is never
/// contended).
pub struct Recorder {
    epoch: Instant,
    inner: Mutex<Inner>,
}

struct Inner {
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Recorder {
    /// A recorder with room for `capacity` spans, so recording inside a
    /// timed slice does not reallocate.
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Self {
            epoch,
            inner: Mutex::new(Inner {
                spans: Vec::with_capacity(capacity),
                open: Vec::with_capacity(8),
                op: 0,
            }),
        }
    }

    /// Start the next operation and return its id; spans recorded from
    /// now on carry it.
    pub fn next_op(&self) -> u32 {
        let mut inner = self.inner.lock().expect("recorder");
        inner.op += 1;
        inner.op
    }

    /// Time `f` as a span named `name`, child of whichever span is open.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let index = {
            let mut inner = self.inner.lock().expect("recorder");
            let index = inner.spans.len() as u32;
            let parent = inner.open.last().copied().unwrap_or(NO_PARENT);
            let op = inner.op;
            inner.open.push(index);
            inner.spans.push(Span {
                name,
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent,
                op,
            });
            index
        };
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut inner = self.inner.lock().expect("recorder");
        inner.spans[index as usize].end_ns = end_ns;
        inner.open.pop();
        out
    }

    /// The recorded spans, in start order.
    pub fn into_spans(self) -> Vec<Span> {
        self.inner.into_inner().expect("recorder").spans
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover (children of one span never overlap: one thread, one
/// stack).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if span.parent != NO_PARENT {
            let p = span.parent as usize;
            own[p] = own[p].saturating_sub(span.end_ns - span.start_ns);
        }
    }
    own
}

/// Per span name: the median over operations of the self time that name
/// accounts for within one operation, in seconds.
pub fn median_self_time_per_op(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let own = self_times_ns(spans);
    let mut per_op: BTreeMap<(&'static str, u32), u64> = BTreeMap::new();
    for (span, own_ns) in spans.iter().zip(&own) {
        *per_op.entry((span.name, span.op)).or_insert(0) += own_ns;
    }
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for ((name, _), ns) in per_op {
        by_name.entry(name).or_default().push(ns as f64 * 1e-9);
    }
    by_name
        .into_iter()
        .map(|(name, samples)| (name, median(&samples)))
        .collect()
}

/// Median duration (not self time) of the spans called `name`, seconds.
pub fn median_duration(spans: &[Span], name: &str) -> Option<f64> {
    let samples: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .collect();
    (!samples.is_empty()).then(|| median(&samples))
}

/// The spans as JSON rows (`parent` is `null` at the top of an operation).
pub fn spans_json(spans: &[Span]) -> Value {
    Value::Array(
        spans
            .iter()
            .map(|s| {
                let parent = if s.parent == NO_PARENT {
                    Value::Null
                } else {
                    json!(s.parent)
                };
                json!({
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": parent,
                    "op": s.op
                })
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
        };
        let spans = vec![
            span("a", 0, 100, NO_PARENT),
            span("b", 10, 60, 0),
            span("c", 20, 30, 1),
            span("d", 70, 90, 0),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 40, 10, 20]);
        let per_op = median_self_time_per_op(&spans);
        assert!((per_op["a"] - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn nesting_follows_the_call_stack() {
        let rec = Recorder::new(Instant::now(), 8);
        rec.next_op();
        rec.span("outer", || {
            rec.span("inner", || {});
        });
        rec.span("sibling", || {});
        let spans = rec.into_spans();
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, NO_PARENT);
        assert!(spans.iter().all(|s| s.op == 1 && s.end_ns >= s.start_ns));
    }
}
