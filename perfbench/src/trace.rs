//! Spans recorded around the benchmark's calls into each layer: name,
//! start, end, parent span and op id, kept in memory and written out as
//! Chrome trace-event JSON when the run ends.

use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`, and returns
    /// its duration.
    pub fn exit(&mut self, id: usize) -> Duration {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        let span = &mut self.spans[id];
        span.end_ns = end;
        Duration::from_nanos(end - span.start_ns)
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, op);
        let r = f();
        self.exit(id);
        r
    }

    /// Each span's self time: its duration minus the time its child
    /// spans cover. Children of one span never overlap (one thread,
    /// properly nested), so the covered time is their summed duration.
    fn self_ns(&self) -> Vec<u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_ns[p] -= s.end_ns - s.start_ns;
            }
        }
        self_ns
    }

    /// Self times of every span named `name`, in µs.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let self_ns = self.self_ns();
        self.spans
            .iter()
            .zip(self_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e3)
            .collect()
    }

    /// Durations of every span named `name`, in µs.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// The share of all `name` spans' time that no child span covers,
    /// in percent.
    pub fn uncovered_pct(&self, name: &str) -> f64 {
        let self_ns = self.self_ns();
        let (mut uncovered, mut total) = (0u64, 0u64);
        for (s, own) in self.spans.iter().zip(self_ns) {
            if s.name == name {
                uncovered += own;
                total += s.end_ns - s.start_ns;
            }
        }
        crate::stats::ratio(uncovered, total) * 100.0
    }

    /// Chrome trace-event JSON (complete `X` events, µs timestamps):
    /// opens in `chrome://tracing`, Perfetto or speedscope.
    pub fn chrome_trace_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                     \"pid\": 1, \"tid\": 1, \"args\": {{\"id\": {id}, \"parent\": {parent}, \
                     \"op\": {}}}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3,
                    s.op
                )
            })
            .collect();
        format!(
            "{{\"traceEvents\": [\n{}\n], \"displayTimeUnit\": \"ms\"}}\n",
            rows.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let op = t.enter("op", 7);
        t.span("child", 7, || std::thread::sleep(Duration::from_millis(2)));
        std::thread::sleep(Duration::from_millis(1));
        t.exit(op);
        let own = t.self_times_us("op")[0];
        let total = t.durations_us("op")[0];
        let child = t.durations_us("child")[0];
        assert!((own + child - total).abs() < 1e-6);
        assert!(child >= 2000.0 && own >= 1000.0);
        assert!(t.uncovered_pct("op") > 0.0 && t.uncovered_pct("op") < 100.0);
        assert!(t.chrome_trace_json().contains("\"ph\": \"X\""));
    }
}
