//! Outside-in span recorder.
//!
//! The benchmark wraps each call it makes into a layer's public API in a
//! span (name, id, parent, start, end). Spans stay in memory and are
//! written as JSON when the run ends. A layer's *self time* is its span's
//! duration minus the part of that interval its child spans cover; the
//! share of each root span covered by children says how much of the
//! measured work the layer spans explain.

use crate::json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Its id is its index in [`Tracer::spans`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of one layer, summed over its spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans of this layer.
    pub calls: usize,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

/// The span recorder. A disabled tracer runs every closure with no
/// recording, so untraced runs make exactly the same calls.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    current: Option<usize>,
}

impl Tracer {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            current: None,
        }
    }

    /// A tracer holding already-recorded spans.
    #[cfg(test)]
    pub fn from_spans(spans: Vec<Span>) -> Tracer {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans,
            current: None,
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Every recorded span, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.current;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.current = Some(id);
        let out = f(self);
        self.spans[id].end_ns = self.now_ns();
        self.current = parent;
        out
    }

    /// Self time of every span, by id: its duration minus the union of
    /// its children's intervals clipped to it.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Self time per layer name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_insert(LayerTime {
                calls: 0,
                total_ns: 0,
                self_ns: 0,
            });
            e.calls += 1;
            e.total_ns += s.duration_ns();
            e.self_ns += own;
        }
        out
    }

    /// Share of the root spans' time that their descendants cover.
    pub fn coverage(&self) -> f64 {
        let own = self.self_times();
        let (mut total, mut uncovered) = (0u64, 0u64);
        for (s, o) in self.spans.iter().zip(own) {
            if s.parent.is_none() {
                total += s.duration_ns();
                uncovered += o;
            }
        }
        if total == 0 {
            return 0.0;
        }
        1.0 - uncovered as f64 / total as f64
    }

    /// For each root span named `root`, the summed duration (seconds) of
    /// the spans named `name` beneath it (or of the root itself when
    /// `name == root`). Roots own contiguous id ranges, since spans are
    /// recorded in start order.
    pub fn per_root(&self, root: &str, name: &str) -> Vec<f64> {
        let mut out = Vec::new();
        let mut in_root = false;
        for s in &self.spans {
            if s.parent.is_none() {
                in_root = s.name == root;
                if in_root {
                    out.push(0.0);
                }
            }
            if in_root && s.name == name {
                if let Some(last) = out.last_mut() {
                    *last += s.duration_ns() as f64 * 1e-9;
                }
            }
        }
        out
    }

    /// Spans as a JSON array of `{name, id, parent, start_ns, end_ns}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 72 + 2);
        out.push('[');
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":{},\"id\":{id},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                json::string(s.name),
                s.start_ns,
                s.end_ns
            ));
        }
        out.push(']');
        out
    }

    /// Human-readable self-time table, largest first, with each layer's
    /// share of the root spans' time.
    pub fn table(&self) -> String {
        let root_ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum();
        let mut rows: Vec<(&'static str, LayerTime)> = self.layers().into_iter().collect();
        rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
        let mut out = format!(
            "  {:<22} {:>8} {:>12} {:>12} {:>7}\n",
            "layer", "calls", "total ms", "self ms", "self %"
        );
        for (name, t) in rows {
            out.push_str(&format!(
                "  {:<22} {:>8} {:>12.3} {:>12.3} {:>6.1}%\n",
                name,
                t.calls,
                t.total_ns as f64 * 1e-6,
                t.self_ns as f64 * 1e-6,
                100.0 * t.self_ns as f64 / root_ns.max(1) as f64
            ));
        }
        out.push_str(&format!(
            "  layer spans cover {:.2}% of the traced roots\n",
            100.0 * self.coverage()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let t = Tracer::from_spans(vec![
            span("rep", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 50, 90),
            span("b.inner", Some(2), 60, 70),
            // Overlapping and out-of-bounds children count once, clipped.
            span("rep", None, 200, 300),
            span("c", Some(4), 190, 250),
            span("d", Some(4), 240, 260),
        ]);
        assert_eq!(t.self_times(), vec![30, 30, 30, 10, 40, 60, 20]);
        let layers = t.layers();
        assert_eq!(layers["rep"].calls, 2);
        assert_eq!(layers["rep"].self_ns, 70);
        assert_eq!(layers["b"].total_ns, 40);
        assert!((t.coverage() - (1.0 - 70.0 / 200.0)).abs() < 1e-12);
        let near = |got: Vec<f64>, want: &[f64]| {
            got.len() == want.len() && got.iter().zip(want).all(|(g, w)| (g - w).abs() < 1e-15)
        };
        assert!(near(t.per_root("rep", "b"), &[40e-9, 0.0]));
        assert!(near(t.per_root("rep", "rep"), &[100e-9, 100e-9]));
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let v = t.span("outer", |t| t.span("inner", |_| 7) + 1);
        assert_eq!(v, 8);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].start_ns <= t.spans()[1].start_ns);
        assert!(t.spans()[1].end_ns <= t.spans()[0].end_ns);
        let parsed = json::parse(&t.to_json()).unwrap();
        assert_eq!(parsed.items().len(), 2);
        assert_eq!(parsed.items()[1].get("parent").unwrap().as_f64(), Some(0.0));

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", |t| t.span("inner", |_| 3)), 3);
        assert!(off.spans().is_empty());
        assert_eq!(off.coverage(), 0.0);
    }
}
