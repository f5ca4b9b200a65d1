//! Spans recorded by the benchmark around calls into each layer's
//! public functions. Spans are kept in memory and written out once, when
//! the workload ends; nothing inside the program is instrumented.

use crate::json::Json;
use std::collections::HashMap;
use std::time::Instant;

/// Where a span's times come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Timed by the benchmark around a public call.
    Bench,
    /// A duration the program reported (`PhaseStats` tier timers), laid
    /// out inside its parent; only its length is meaningful.
    Program,
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Unit or request index within the pass: spans of one operation
    /// share it.
    pub op: usize,
    pub source: Source,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, op: usize) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
            source: Source::Bench,
        });
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration.
    pub fn end(&mut self, id: usize) -> u64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].dur_ns()
    }

    /// Runs `f` inside a span; returns its result and the span's
    /// duration in microseconds.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: usize,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, parent, op);
        let out = f();
        let ns = self.end(id);
        (out, ns as f64 / 1e3)
    }

    /// Records a finished span from timestamps another thread took.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: usize,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
            parent,
            op,
            source: Source::Bench,
        });
        self.spans.len() - 1
    }

    /// Records a program-reported duration as a child of `parent`,
    /// placed after the parent's previous program children (a child of
    /// a program child starts where its parent starts).
    pub fn program_child(&mut self, name: &'static str, parent: usize, dur_ns: u64) -> usize {
        // Children are recorded after their parent.
        let start = self.spans[parent + 1..]
            .iter()
            .rev()
            .find(|s| s.parent == Some(parent) && s.source == Source::Program)
            .map_or(self.spans[parent].start_ns, |s| s.end_ns);
        let op = self.spans[parent].op;
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start + dur_ns,
            parent: Some(parent),
            op,
            source: Source::Program,
        });
        self.spans.len() - 1
    }

    /// Sum of the durations of the spans named `name` among
    /// `spans[from..]`, in milliseconds.
    pub fn total_ms(&self, from: usize, name: &str) -> f64 {
        let ns: u64 = self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum();
        ns as f64 / 1e6
    }

    /// Sum of the self times of the spans named `name` among
    /// `spans[from..]` (whose children lie in the same range), in
    /// milliseconds. A span's self time is its duration minus the part
    /// of that interval its child spans cover.
    pub fn self_total_ms(&self, from: usize, name: &str) -> f64 {
        let mut kids: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans[from..] {
            if let Some(p) = s.parent.filter(|&p| self.spans[p].name == name) {
                kids.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let ns: u64 = (from..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| uncovered(&self.spans[i], kids.remove(&i).unwrap_or_default()))
            .sum();
        ns as f64 / 1e6
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::Obj(vec![
                    ("id".into(), Json::Num(id as f64)),
                    ("name".into(), Json::str(s.name)),
                    ("start_ns".into(), Json::Num(s.start_ns as f64)),
                    ("end_ns".into(), Json::Num(s.end_ns as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("op".into(), Json::Num(s.op as f64)),
                    (
                        "source".into(),
                        Json::str(match s.source {
                            Source::Bench => "bench",
                            Source::Program => "program",
                        }),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::str(workload)),
            ("seed".into(), Json::Num(seed as f64)),
            ("spans".into(), Json::Arr(spans)),
        ])
    }
}

/// `me`'s duration minus the union of the `kids` intervals clipped to it.
fn uncovered(me: &Span, mut kids: Vec<(u64, u64)>) -> u64 {
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        let b = b.min(me.end_ns);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.dur_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Self time of the one span named `name`, in nanoseconds.
    fn self_ns(t: &Tracer, name: &str) -> u64 {
        (t.self_total_ms(0, name) * 1e6).round() as u64
    }

    fn tracer_with(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Tracer {
        let mut t = Tracer::new();
        for &(name, start_ns, end_ns, parent) in spans {
            t.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                op: 0,
                source: Source::Bench,
            });
        }
        t
    }

    #[test]
    fn self_time_with_nested_and_adjacent_children() {
        let t = tracer_with(&[
            ("unit", 0, 100, None),
            ("a", 10, 30, Some(0)), // adjacent to b
            ("b", 30, 50, Some(0)),
            ("c", 60, 90, Some(0)),
            ("c.inner", 65, 70, Some(3)), // grandchild: counts against c only
        ]);
        assert_eq!(self_ns(&t, "unit"), 100 - 20 - 20 - 30);
        assert_eq!(self_ns(&t, "c"), 30 - 5);
        assert_eq!(self_ns(&t, "c.inner"), 5);
        assert_eq!(self_ns(&t, "a"), 20);
    }

    #[test]
    fn self_time_clips_and_merges_overlapping_children() {
        let t = tracer_with(&[
            ("p", 10, 50, None),
            ("x", 0, 20, Some(0)),  // starts before the parent
            ("y", 15, 30, Some(0)), // overlaps x
            ("z", 45, 80, Some(0)), // ends after the parent
        ]);
        // Covered: [10,30) and [45,50) = 25 of 40.
        assert_eq!(self_ns(&t, "p"), 15);
    }

    #[test]
    fn program_children_are_laid_out_inside_the_parent() {
        let mut t = tracer_with(&[("core.compile", 100, 1000, None)]);
        let sim = t.program_child("core.simulate", 0, 50);
        let guard = t.program_child("core.guard", 0, 400);
        let undo = t.program_child("core.undo", guard, 30);
        assert_eq!((t.spans[sim].start_ns, t.spans[sim].end_ns), (100, 150));
        assert_eq!((t.spans[guard].start_ns, t.spans[guard].end_ns), (150, 550));
        assert_eq!((t.spans[undo].start_ns, t.spans[undo].end_ns), (150, 180));
        assert_eq!(t.spans[undo].source, Source::Program);
        // The parent's self time is what no program child accounts for.
        assert_eq!(self_ns(&t, "core.compile"), 900 - 450);
        assert_eq!(self_ns(&t, "core.guard"), 370);
        assert!((t.total_ms(0, "core.guard") - 0.0004).abs() < 1e-12);
        assert!((t.self_total_ms(0, "core.compile") - 0.00045).abs() < 1e-12);
    }

    #[test]
    fn begin_end_nest() {
        let mut t = Tracer::new();
        let unit = t.begin("unit", None, 7);
        let (x, us) = t.timed("inner", Some(unit), 7, || 41 + 1);
        assert_eq!(x, 42);
        assert_eq!(us, t.spans[1].dur_ns() as f64 / 1e3);
        let d = t.end(unit);
        assert_eq!(t.spans[1].parent, Some(unit));
        assert!(t.spans[1].dur_ns() <= d);
        let text = t.to_json("w", 1).to_string();
        assert!(text.contains("\"name\": \"inner\""), "{text}");
    }
}
