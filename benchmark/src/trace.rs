//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded from the benchmark's own files (the program
//! under test is not instrumented), kept in memory during the traced
//! pass and written to `trace.json` when the run ends. A span's *self
//! time* is its duration minus the part its child spans cover.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.run_once`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Traced iteration the span belongs to (the request identifier).
    pub iter: u32,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotal {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

/// Span recorder. Single-threaded: only the load generator records.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iter: u32,
}

impl Tracer {
    /// An empty recorder; span times count from now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iter: 0,
        }
    }

    /// Sets the iteration stamped on spans opened from now on.
    pub fn set_iter(&mut self, iter: u32) {
        self.iter = iter;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records `f` as a span named `name`, nested in whichever span is
    /// open; `f` gets the tracer back to open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            iter: self.iter,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Records time the caller accumulated itself over many short calls
    /// that interleave (one `select`, `copy`, `eval` per page, say): one
    /// span per name, laid end to end so that the last ends now. They
    /// nest in whichever span is open, whose self time they reduce like
    /// any other child. The totals must fit inside that span.
    pub fn record_totals(&mut self, totals: &[(&'static str, Duration)]) {
        let ns = |d: &Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let all: u64 = totals.iter().map(|(_, d)| ns(d)).sum();
        let mut start_ns = self.now_ns().saturating_sub(all);
        for (name, d) in totals {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns + ns(d),
                parent: self.open.last().copied(),
                iter: self.iter,
            });
            start_ns += ns(d);
        }
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array for `trace.json`.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("iter", Json::Num(f64::from(s.iter))),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus its direct children's
/// durations (children are sequential, so they never double-cover).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Count, total and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let own = self_times(spans);
    let mut by_name: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(own) {
        let t = by_name.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            iter: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("iter", 0, 100, None),
            span("engine.run_once", 5, 65, Some(0)),
            span("ladder.kernels", 70, 95, Some(0)),
            span("storage.gather", 72, 80, Some(2)),
            span("vexpr.select", 80, 94, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![15, 60, 3, 8, 14]);
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["ladder.kernels"],
            NameTotal {
                count: 1,
                total_ns: 25,
                self_ns: 3
            }
        );
        // Self times partition the root exactly.
        assert_eq!(totals.values().map(|t| t.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_and_stamps_iterations() {
        let mut t = Tracer::new();
        t.set_iter(3);
        let got = t.span("outer", |t| {
            t.span("inner", |_| std::hint::black_box(41)) + 1
        });
        assert_eq!(got, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(spans.iter().all(|s| s.iter == 3));
        t.span("replay", |t| {
            std::thread::sleep(Duration::from_millis(2));
            t.record_totals(&[
                ("a", Duration::from_micros(300)),
                ("b", Duration::from_micros(700)),
            ]);
        });
        let s = t.spans();
        assert_eq!((s[3].name, s[3].parent), ("a", Some(2)));
        assert_eq!((s[4].name, s[4].duration_ns()), ("b", 700_000));
        assert_eq!(s[3].end_ns, s[4].start_ns, "laid end to end");
        assert!(s[2].start_ns <= s[3].start_ns && s[4].end_ns <= s[2].end_ns);
        assert_eq!(self_times(s)[2], s[2].duration_ns() - 1_000_000);
        let json = t.to_json();
        assert_eq!(json.as_arr().unwrap().len(), 5);
        assert_eq!(
            json.as_arr().unwrap()[1].get("parent"),
            Some(&Json::Num(0.0))
        );
    }
}
