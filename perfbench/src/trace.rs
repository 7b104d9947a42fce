//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only here, in the benchmark, around calls into each
//! layer's public API — never inside a layer's loop. Measuring at the
//! boundary is the paper's IPA lesson: its instrumentation pays only at
//! transitions, while SPA's per-event measurement costs 1 527–41 775 %.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span: offsets are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans from any thread; a disabled tracer records nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name` under `parent`; returns `f`'s
    /// value and the span's duration in microseconds. The span id is
    /// handed to `f` so nested calls can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce(Option<u64>) -> R,
    ) -> (R, f64) {
        if !self.enabled {
            let started = Instant::now();
            let out = f(None);
            return (out, started.elapsed().as_nanos() as f64 / 1_000.0);
        }
        let id = {
            let mut spans = self.spans.lock().expect("span store poisoned");
            let id = spans.len() as u64;
            spans.push(Span {
                id,
                parent,
                name,
                start_ns: 0,
                end_ns: 0,
            });
            id
        };
        let start_ns = self.now_ns();
        let out = f(Some(id));
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span store poisoned");
        let span = &mut spans[id as usize];
        span.start_ns = start_ns;
        span.end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 / 1_000.0)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_time() {
        let t = Tracer::new(true);
        let ((), outer) = t.span("outer", None, |id| {
            t.span("inner", id, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let inner = (spans[1].end_ns - spans[1].start_ns) as f64 / 1_000.0;
        assert!(outer >= inner && inner >= 2_000.0);
        let off = Tracer::new(false);
        let (v, _) = off.span("x", None, |id| id);
        assert_eq!(v, None);
        assert!(off.spans().is_empty());
    }
}
