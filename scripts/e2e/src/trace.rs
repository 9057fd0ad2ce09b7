//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer's
//! public functions; spans nest by call order on the recording thread. A
//! layer's self time is its spans' duration minus the part their child
//! spans cover. Spans live in a thread-local buffer and are written out
//! once, when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<function>`; the layer is the crate on the request path.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request, lap or cycle this span belongs to.
    pub request_id: u64,
    /// True for a child whose duration was measured by the callee's own
    /// timers or by replaying the callee alone, and laid inside its parent
    /// afterwards, because no public seam lets the benchmark wrap it.
    pub paired: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request_id: u64,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread.
pub fn enable() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request_id: 0,
        })
    });
}

pub fn enabled() -> bool {
    RECORDER.with(|r| r.borrow().is_some())
}

/// Tag the spans that follow with `id`.
pub fn set_request(id: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.request_id = id;
        }
    });
}

/// Run `f` inside a span named `name`; a plain call when tracing is off.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    span_indexed(name, f).0
}

/// Lay a paired child of `dur_ns` inside span `parent`, after the
/// children it already has (clamped to the parent's end).
pub fn add_child(parent: Option<usize>, name: &'static str, dur_ns: u64) {
    let Some(parent) = parent else { return };
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let p = rec.spans[parent].clone();
            let start = rec.spans[parent + 1..]
                .iter()
                .filter(|s| s.parent == Some(parent))
                .map(|s| s.end_ns)
                .max()
                .unwrap_or(p.start_ns);
            rec.spans.push(Span {
                name,
                start_ns: start.min(p.end_ns),
                end_ns: (start + dur_ns).min(p.end_ns),
                parent: Some(parent),
                request_id: p.request_id,
                paired: true,
            });
        }
    });
}

/// [`span`], also returning the span's index for [`add_child`].
pub fn span_indexed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, Option<usize>) {
    let index = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let index = rec.spans.len();
        rec.spans.push(Span {
            name,
            start_ns: rec.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: rec.open.last().copied(),
            request_id: rec.request_id,
            paired: false,
        });
        rec.open.push(index);
        Some(index)
    });
    let out = f();
    if let Some(index) = index {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[index].end_ns = rec.origin.elapsed().as_nanos() as u64;
                rec.open.pop();
            }
        });
    }
    (out, index)
}

/// Stop recording and take the spans.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Self time per span: duration minus the union of its children's
/// intervals (children of one parent never overlap on one thread, but the
/// union keeps the rule true for spans merged from several threads).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    // every child as (parent, start, end) clamped to its parent, grouped
    // by parent and ordered by start: one sort instead of a list per span
    let mut kids: Vec<(usize, u64, u64)> = spans
        .iter()
        .filter_map(|s| {
            let p = s.parent?;
            Some((
                p,
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            ))
        })
        .collect();
    kids.sort_unstable();
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    let mut reach = (usize::MAX, 0u64);
    for (parent, start, end) in kids {
        if reach.0 != parent {
            reach = (parent, spans[parent].start_ns);
        }
        let start = start.max(reach.1);
        if end > start {
            own[parent] -= end - start;
            reach.1 = end;
        }
    }
    own
}

/// For every span, the index of its outermost ancestor (itself if it has
/// no parent). A parent is always recorded before its children.
pub fn roots(spans: &[Span]) -> Vec<usize> {
    let mut root = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        root.push(s.parent.map_or(i, |p| root[p]));
    }
    root
}

/// Self time summed per (root span name, layer).
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), u64> {
    let own = self_times_ns(spans);
    let root = roots(spans);
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        *out.entry((spans[root[i]].name, s.layer())).or_insert(0) += own[i];
    }
    out
}

/// Durations (ns) of every span named `name`.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// The trace file: one JSON array of span objects.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 2);
    out.push_str("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request_id\":{},\"paired\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request_id, s.paired
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request_id: 1,
            paired: false,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            s("serve.handle", 0, 100, None),       // 0
            s("genmapper.query", 10, 90, Some(0)), // 1: nested in 0
            s("operators.view", 20, 50, Some(1)),  // 2: nested in 1
            s("gam.get_object", 55, 60, Some(1)),  // 3: sibling of 2
            s("gam.get_object", 60, 70, Some(1)),  // 4: sibling, adjacent
            s("gam.find", 25, 30, Some(2)),        // 5: nested in 2
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 35, 25, 5, 10, 5]);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers[&("serve.handle", "serve")], 20);
        assert_eq!(layers[&("serve.handle", "genmapper")], 35);
        assert_eq!(layers[&("serve.handle", "operators")], 25);
        assert_eq!(layers[&("serve.handle", "gam")], 20);
        // self times partition the root span
        assert_eq!(layers.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        let spans = vec![
            s("a.root", 0, 100, None),
            s("b.x", 10, 60, Some(0)),
            s("b.y", 40, 80, Some(0)),  // overlaps b.x by 20
            s("b.z", 90, 120, Some(0)), // runs past its parent
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn layer_sums_can_be_scoped_to_a_root() {
        let spans = vec![
            s("lap.read", 0, 50, None),
            s("gam.get", 10, 20, Some(0)),
            s("lap.import", 60, 100, None),
            s("gam.add", 70, 100, Some(2)),
        ];
        let layers = layer_self_ns(&spans);
        assert_eq!(layers[&("lap.read", "gam")], 10);
        assert_eq!(layers[&("lap.import", "gam")], 30);
        assert_eq!(roots(&spans), vec![0, 0, 2, 2]);
    }

    #[test]
    fn paired_children_queue_up_inside_their_parent() {
        enable();
        let (_, outer) = span_indexed("import.import", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        add_child(outer, "gam.bulk_insert", 400_000);
        add_child(outer, "relstore.wal_commit", 300_000);
        add_child(outer, "relstore.never_fits", u64::MAX / 2);
        let spans = take();
        assert_eq!(spans.len(), 4);
        assert!(spans[1..].iter().all(|s| s.paired && s.parent == Some(0)));
        assert_eq!(spans[1].start_ns, spans[0].start_ns);
        assert_eq!(spans[2].start_ns, spans[1].end_ns);
        assert_eq!(spans[3].end_ns, spans[0].end_ns);
        // the children cover the parent completely: nothing is left to it
        assert_eq!(self_times_ns(&spans)[0], 0);
    }

    #[test]
    fn recorder_nests_by_call_order() {
        enable();
        set_request(7);
        let v = span("a.outer", || span("b.inner", || 42));
        assert_eq!(v, 42);
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].request_id, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(!enabled());
        assert!(to_json(&spans).contains("\"name\":\"b.inner\""));
    }
}
