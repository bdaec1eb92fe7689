//! Spans recorded around the benchmark's calls into each layer.
//!
//! The library is not instrumented: every span here wraps a call the
//! benchmark itself makes into a layer's public functions. A disabled
//! tracer costs one branch per span. Spans are kept in memory and written
//! out when the run ends.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span.
pub type SpanId = u64;

/// One finished span. Times are seconds since the tracer was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique id.
    pub id: SpanId,
    /// Layer-qualified name, e.g. `oag.build`.
    pub name: &'static str,
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
    /// The span that caused this one, if any.
    pub parent: Option<SpanId>,
    /// The request this span belongs to (serve-mix gives every request
    /// its own id).
    pub request: Option<u64>,
}

impl Span {
    /// Duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Collects spans from any number of threads.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `work` inside a span named `name`. `work` receives the span's
    /// id so nested calls can name it as their parent (`None` when
    /// disabled).
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<u64>,
        work: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.enabled {
            return work(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed().as_secs_f64();
        let out = work(Some(id));
        let end = self.origin.elapsed().as_secs_f64();
        self.spans.lock().expect("no span recorder panics while holding the lock").push(Span {
            id,
            name,
            start,
            end,
            parent,
            request,
        });
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("no span recorder panics while holding the lock").clone()
    }

    /// Writes every span as one tab-separated line (`id name start end
    /// parent request`, `-` for none) to `path`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("id\tname\tstart_s\tend_s\tparent\trequest\n");
        let opt = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
        for s in self.spans() {
            out.push_str(&format!(
                "{}\t{}\t{:.9}\t{:.9}\t{}\t{}\n",
                s.id,
                s.name,
                s.start,
                s.end,
                opt(s.parent),
                opt(s.request)
            ));
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(out.as_bytes())?;
        f.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> HashMap<SpanId, f64> {
    let mut children: HashMap<SpanId, Vec<(f64, f64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(f64, f64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start), b.min(s.end)))
                        .filter(|(a, b)| b > a)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (a, b) in iv {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, s.duration() - covered)
        })
        .collect()
}

/// The root ancestor of every span (a root is its own root).
fn roots(spans: &[Span]) -> HashMap<SpanId, SpanId> {
    let parent: HashMap<SpanId, Option<SpanId>> = spans.iter().map(|s| (s.id, s.parent)).collect();
    spans
        .iter()
        .map(|s| {
            let mut cur = s.id;
            while let Some(Some(p)) = parent.get(&cur) {
                cur = *p;
            }
            (s.id, cur)
        })
        .collect()
}

/// Self time per span name, summed within each root span:
/// `result[name][root]`.
pub fn self_time_by_root(spans: &[Span]) -> BTreeMap<&'static str, BTreeMap<SpanId, f64>> {
    let selfs = self_times(spans);
    let roots = roots(spans);
    let mut out: BTreeMap<&'static str, BTreeMap<SpanId, f64>> = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_default().entry(roots[&s.id]).or_default() += selfs[&s.id];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, name: &'static str, start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span { id, name, start, end, parent, request: None }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0, 10] ⊃ a [1, 4] ⊃ a1 [2, 3]; root ⊃ b [5, 9].
        let spans = vec![
            span(1, "root", 0.0, 10.0, None),
            span(2, "a", 1.0, 4.0, Some(1)),
            span(3, "a1", 2.0, 3.0, Some(2)),
            span(4, "b", 5.0, 9.0, Some(1)),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&1], 10.0 - 3.0 - 4.0); // grandchildren are not subtracted twice
        assert_eq!(s[&2], 3.0 - 1.0);
        assert_eq!(s[&3], 1.0);
        assert_eq!(s[&4], 4.0);
        // Self times of a tree add up to the root's duration.
        assert_eq!(s.values().sum::<f64>(), 10.0);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // Two client threads' requests overlap inside one pass.
        let spans = vec![
            span(1, "pass", 0.0, 10.0, None),
            span(2, "req", 1.0, 6.0, Some(1)),
            span(3, "req", 4.0, 8.0, Some(1)),
            span(4, "req", 12.0, 13.0, Some(1)), // outside the parent: clipped away
        ];
        let s = self_times(&spans);
        assert_eq!(s[&1], 10.0 - 7.0);
    }

    #[test]
    fn self_time_is_grouped_by_root() {
        let spans = vec![
            span(1, "setup", 0.0, 2.0, None),
            span(2, "oag.build", 0.5, 1.5, Some(1)),
            span(3, "pass", 3.0, 6.0, None),
            span(4, "cold_run", 3.0, 6.0, Some(3)),
            span(5, "oag.build", 3.5, 4.0, Some(4)),
            span(6, "probe", 7.0, 8.0, None),
            span(7, "oag.build", 7.0, 8.0, Some(6)),
        ];
        let by = self_time_by_root(&spans);
        assert_eq!(by["oag.build"][&1], 1.0);
        assert_eq!(by["oag.build"][&3], 0.5);
        assert_eq!(by["oag.build"][&6], 1.0);
        assert_eq!(by["cold_run"][&3], 2.5);
    }

    #[test]
    fn tracer_records_parent_and_request() {
        let t = Tracer::new(true);
        t.span("outer", None, None, |outer| {
            t.span("inner", outer, Some(7), |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.request, Some(7));
        assert!(outer.start <= inner.start && inner.end <= outer.end);

        let off = Tracer::new(false);
        assert_eq!(off.span("x", None, None, |id| id), None);
        assert!(off.spans().is_empty());
    }
}
