//! The harness's own tracing. Spans are recorded from outside the
//! program, around each call into a layer, kept in memory, and written out
//! as JSONL when the run ends. The per-layer numbers are derived from them.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use unicon_obs::Event;

/// One recorded span.
struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    /// Sample index within the workload; with the workload name it forms
    /// the request id. `None` for set-up work.
    sample: Option<u64>,
    /// Durations and counts the program itself reported for this span.
    attrs: Vec<(&'static str, f64)>,
}

/// Handle of an open span; inert when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// No parent: a root span.
    pub const ROOT: SpanId = SpanId(None);
}

/// An in-memory span recorder. When off, every call is a no-op that
/// reads no clock, so the untraced pass pays nothing for it.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span now.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, sample: Option<u64>) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let now = Instant::now();
        self.record(name, now, now, parent, sample)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end = Instant::now();
        }
    }

    /// Records a span timed elsewhere, such as on a client thread.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        sample: Option<u64>,
    ) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent: parent.0,
            sample,
            attrs: Vec::new(),
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Attaches a value the program reported to a span.
    pub fn attr(&mut self, id: SpanId, key: &'static str, value: f64) {
        if let Some(i) = id.0 {
            self.spans[i].attrs.push((key, value));
        }
    }

    /// Runs `f`; in a traced pass, captures the events the program emits
    /// meanwhile on this thread. Capturing switches on the program's own
    /// telemetry, including its per-class kernel timing, so it wraps
    /// probes made beside the timed work, never the timed work itself.
    pub fn collect<T>(&self, f: impl FnOnce() -> T) -> (T, Vec<Event>) {
        if self.on {
            unicon_obs::collect(f)
        } else {
            (f(), Vec::new())
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .collect()
    }

    /// Every value of attribute `key` on spans called `name`.
    pub fn attrs(&self, name: &str, key: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .flat_map(|s| s.attrs.iter().filter(|(k, _)| *k == key).map(|&(_, v)| v))
            .collect()
    }

    /// Writes one JSON object per span: name, request id, id, parent,
    /// start and end in nanoseconds since the pass began, and attributes.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let mut line = String::from("{\"name\":");
            unicon_obs::json::write_str(s.name, &mut line);
            line.push_str(",\"request\":");
            match s.sample {
                Some(i) => unicon_obs::json::write_str(&format!("{workload}#{i}"), &mut line),
                None => unicon_obs::json::write_str(&format!("{workload}#setup"), &mut line),
            }
            line.push_str(&format!(",\"id\":{id},\"parent\":"));
            match s.parent {
                Some(p) => line.push_str(&p.to_string()),
                None => line.push_str("null"),
            }
            line.push_str(&format!(
                ",\"start_ns\":{},\"end_ns\":{},\"attrs\":{{",
                ns(s.start),
                ns(s.end)
            ));
            for (i, (k, v)) in s.attrs.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                unicon_obs::json::write_str(k, &mut line);
                line.push(':');
                unicon_obs::json::write_f64(*v, &mut line);
            }
            line.push_str("}}\n");
            out.write_all(line.as_bytes())?;
        }
        out.flush()
    }
}

/// Observation names of the fused kernel's per-class timing and the
/// per-layer metric each one feeds.
/// The FTWC has no absorbing non-goal state, so the empty class never
/// runs and has no metric.
const KERNEL_CLASSES: [(&str, &str); 3] = [
    ("kernel_fixed_ps_per_state", "kernel.fixed_ps_per_state"),
    ("kernel_single_ps_per_state", "kernel.single_ps_per_state"),
    ("kernel_multi_ps_per_state", "kernel.multi_ps_per_state"),
];

/// Per-class kernel speeds gathered over a pass.
#[derive(Default)]
pub struct KernelSamples {
    ps_per_state: [Vec<f64>; 3],
}

impl KernelSamples {
    pub fn add(&mut self, events: &[Event]) {
        for ev in events {
            if let Event::Observe { name, value } = ev {
                if let Some(i) = KERNEL_CLASSES.iter().position(|(n, _)| n == name) {
                    self.ps_per_state[i].push(*value as f64);
                }
            }
        }
    }

    /// The median of each class, under its per-layer metric name.
    pub fn layers(&self) -> Vec<(&'static str, f64)> {
        KERNEL_CLASSES
            .iter()
            .zip(&self.ps_per_state)
            .map(|(&(_, metric), xs)| (metric, crate::stats::median(xs)))
            .collect()
    }
}
