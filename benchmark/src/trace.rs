//! Spans around the benchmark's calls into each layer, kept in memory and
//! written out when the traced run ends.
//!
//! The spans are recorded from the benchmark's own files, around calls
//! into the crates' public functions; nothing inside the program is
//! instrumented. One operation (a burst, a policy frame, a
//! re-optimisation) shares an `op` identifier across its spans.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. `parent` is the id of the span that was open when this
/// one started (0 for a root); ids start at 1.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u32,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; give it back to [`Tracer::exit`].
#[derive(Clone, Copy)]
pub struct Open(u32);

/// Records spans when enabled; when disabled `enter`/`exit` do nothing, so
/// the same code can run without leaving spans.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Starts the next operation; spans entered from now on carry its id.
    pub fn next_op(&mut self) -> u32 {
        self.op += 1;
        self.op
    }

    pub fn enter(&mut self, layer: &'static str, name: &'static str) -> Open {
        if !self.enabled {
            return Open(0);
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            op: self.op,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
        });
        Open(id)
    }

    pub fn exit(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must nest");
        self.spans[open.0 as usize - 1].end_ns = end_ns;
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// What recording one span costs, ns: the median of a few batches of
/// enter/exit pairs on a scratch tracer.
pub fn span_cost_ns() -> f64 {
    const PAIRS: u32 = 20_000;
    let mut per_pair: Vec<f64> = (0..5)
        .map(|_| {
            let mut tr = Tracer::new(true);
            let t = Instant::now();
            for _ in 0..PAIRS {
                let s = tr.enter("trace", "calibration");
                tr.exit(s);
            }
            t.elapsed().as_nanos() as f64 / f64::from(PAIRS)
        })
        .collect();
    per_pair.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    per_pair[per_pair.len() / 2]
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover. Indexed like `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != 0 {
            covered[s.parent as usize - 1] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(*c))
        .collect()
}

/// Total duration and number of the spans called `name`.
pub fn total_ns(spans: &[Span], name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(ns, n), s| (ns + s.duration_ns(), n + 1))
}

/// Durations of the spans called `name`, in recording order.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

/// Share of the reference calls' time that the decomposed calls account
/// for: Σ duration of the spans named in `parts` / Σ duration of the spans
/// named `reference`, over the operations in which the reference call
/// ran (the same part may belong to another kind of operation too). 0
/// when the reference never ran.
pub fn coverage_share(spans: &[Span], parts: &[&str], reference: &str) -> f64 {
    let ops: std::collections::BTreeSet<u32> = spans
        .iter()
        .filter(|s| s.name == reference)
        .map(|s| s.op)
        .collect();
    let (reference_ns, _) = total_ns(spans, reference);
    if reference_ns == 0 {
        return 0.0;
    }
    let parts_ns: u64 = spans
        .iter()
        .filter(|s| ops.contains(&s.op) && parts.contains(&s.name))
        .map(Span::duration_ns)
        .sum();
    parts_ns as f64 / reference_ns as f64
}

/// The spans as a JSON document, one object per span, self time included.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let selfs = self_times_ns(spans);
    let mut out = String::with_capacity(spans.len() * 120 + 64);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
    );
    for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"id\":{},\"parent\":{},\"op\":{},\"layer\":\"{}\",\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id, s.parent, s.op, s.layer, s.name, s.start_ns, s.end_ns, self_ns
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            layer: "test",
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    /// op(0..100) ─ a(10..40) ─ a1(15..25)
    ///            └ b(50..90)
    fn tree() -> Vec<Span> {
        vec![
            span(1, 0, "op", 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 2, "a1", 15, 25),
            span(4, 1, "b", 50, 90),
            span(5, 0, "reference", 200, 280),
        ]
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let selfs = self_times_ns(&tree());
        assert_eq!(selfs, vec![100 - 30 - 40, 30 - 10, 10, 40, 80]);
    }

    #[test]
    fn coverage_is_parts_over_the_reference_call() {
        let t = tree();
        // a (30) + b (40) against the 80 ns reference call.
        assert_eq!(coverage_share(&t, &["a", "b"], "reference"), 70.0 / 80.0);
        // The same part in an operation the reference call never ran in
        // does not count.
        let mut other = span(6, 0, "a", 300, 400);
        other.op = 2;
        let mut with_other = t.clone();
        with_other.push(other);
        assert_eq!(
            coverage_share(&with_other, &["a", "b"], "reference"),
            70.0 / 80.0
        );
        assert_eq!(coverage_share(&t, &["a"], "missing"), 0.0);
        assert_eq!(total_ns(&t, "a"), (30, 1));
        assert_eq!(durations_ns(&t, "b"), vec![40]);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(true);
        tr.next_op();
        let outer = tr.enter("l", "outer");
        let inner = tr.enter("l", "inner");
        tr.exit(inner);
        tr.exit(outer);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (0, 1));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].op, 1);

        let mut off = Tracer::new(false);
        let s = off.enter("l", "x");
        off.exit(s);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn json_lists_every_span_with_its_self_time() {
        let doc = to_json("w", 7, &tree());
        assert!(doc.starts_with("{\"workload\":\"w\",\"seed\":7,\"spans\":["));
        assert_eq!(doc.matches("\"id\":").count(), 5);
        assert!(doc.contains("\"name\":\"a\",\"start_ns\":10,\"end_ns\":40,\"self_ns\":20"));
    }
}
