//! Spans the benchmark records around its calls into each layer, the
//! kernel spans the executor's profiler records under them, the chrome
//! trace they make, and per-layer self times.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use lbm_gpu::KernelSpan;

/// Index of a span in the [`Tracer`].
pub type SpanId = usize;

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called.
    pub name: String,
    /// The crate (or `io` / `host`) the call went into.
    pub layer: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start in microseconds since the tracer's epoch.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Chrome-trace row: 0 for benchmark calls, the virtual stream for
    /// kernels.
    pub tid: u32,
}

/// Times calls, and keeps a span for each while recording is on. Timing
/// runs either way: the untraced run takes its metrics from the same
/// clock reads.
pub struct Tracer {
    epoch: Instant,
    /// Whether spans are kept.
    pub on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new(on: bool) -> Self {
        Self {
            epoch: Instant::now(),
            on,
            spans: Vec::new(),
        }
    }

    /// Microseconds from the epoch to `t`.
    pub fn since_epoch_us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Opens a span (a no-op returning `None` while recording is off).
    pub fn open(
        &mut self,
        name: &str,
        layer: &'static str,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let start_us = self.since_epoch_us(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            parent,
            start_us,
            dur_us: 0.0,
            tid: 0,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.since_epoch_us(Instant::now());
            self.spans[id].dur_us = end - self.spans[id].start_us;
        }
    }

    /// Runs `f` and returns its result with its wall time in seconds,
    /// keeping a span for the call while recording is on.
    pub fn time<R>(
        &mut self,
        name: &str,
        layer: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, f64, Option<SpanId>) {
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed();
        let id = self.on.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                layer,
                parent,
                start_us: self.since_epoch_us(t0),
                dur_us: dt.as_secs_f64() * 1e6,
                tid: 0,
            });
            self.spans.len() - 1
        });
        (out, dt.as_secs_f64(), id)
    }

    /// Adds the profiler's kernel spans as children of `parent`.
    /// `profiler_epoch_us` is the profiler's epoch on this tracer's clock.
    pub fn add_kernels(&mut self, parent: SpanId, kernels: &[KernelSpan], profiler_epoch_us: f64) {
        for k in kernels {
            self.spans.push(Span {
                name: k.name.to_string(),
                layer: "core.kernel",
                parent: Some(parent),
                start_us: profiler_epoch_us + k.start_us,
                dur_us: k.dur_us,
                tid: k.stream.unwrap_or(0),
            });
        }
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Kernel spans that do not lie inside their parent step span, with
    /// `slack_us` of clock tolerance.
    pub fn unnested_kernels(&self, slack_us: f64) -> usize {
        self.spans
            .iter()
            .filter(|s| s.layer == "core.kernel")
            .filter(|s| {
                let p = &self.spans[s.parent.expect("kernel spans have a parent")];
                s.start_us < p.start_us - slack_us
                    || s.start_us + s.dur_us > p.start_us + p.dur_us + slack_us
            })
            .count()
    }

    /// Chrome-trace JSON (trace event format) of every span. `args` carries
    /// each span's id, parent id and layer.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":0,\"tid\":{},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name, s.layer, s.start_us, s.dur_us, s.tid
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// Self time per `layer/name` in microseconds: each span's duration
    /// minus the part of it that its children's union covers.
    pub fn self_times_us(&self) -> BTreeMap<String, f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_us, s.start_us + s.dur_us));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children) {
            let covered = union_within(kids, s.start_us, s.start_us + s.dur_us);
            *out.entry(format!("{}/{}", s.layer, s.name)).or_insert(0.0) += s.dur_us - covered;
        }
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(
            union_within(vec![(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0),
            4.0
        );
        assert_eq!(union_within(vec![(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0), 3.0);
        assert_eq!(union_within(vec![], 0.0, 10.0), 0.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.open("step", "core", None).unwrap();
        t.close(Some(root));
        t.spans[root].start_us = 0.0;
        t.spans[root].dur_us = 10.0;
        let k = |s, d| KernelSpan {
            name: "K",
            wave: None,
            stream: None,
            start_us: s,
            dur_us: d,
            bytes: 0,
            cells: 0,
        };
        t.add_kernels(root, &[k(1.0, 4.0), k(3.0, 4.0)], 0.0);
        let st = t.self_times_us();
        assert_eq!(st["core/step"], 4.0);
        assert_eq!(st["core.kernel/K"], 8.0);
        assert_eq!(t.unnested_kernels(0.0), 0);
        t.add_kernels(root, &[k(9.0, 4.0)], 0.0);
        assert_eq!(t.unnested_kernels(0.0), 1);
    }

    #[test]
    fn off_tracer_times_without_spans() {
        let mut t = Tracer::new(false);
        let (v, dt, id) = t.time("x", "core", None, || 7);
        assert_eq!((v, id), (7, None));
        assert!(dt >= 0.0);
        assert!(t.spans().is_empty());
    }
}
