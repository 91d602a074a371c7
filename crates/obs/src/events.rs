//! The JSONL event/span sink and the [`Span`] timing guard.
//!
//! Events are newline-delimited JSON objects written to an installed
//! sink (`--obs-events <out.jsonl>` in the CLI). Emission is guarded by
//! a relaxed atomic fast path: with no sink installed, [`emit_event`]
//! is a load and a branch, and [`span`] starts no clock unless either
//! the registry or the sink wants the measurement. The sink itself
//! lives behind a mutex — event emission happens at coarse boundaries
//! (cell finished, race migrated, run ended), never inside evaluator
//! hot loops, so the lock is uncontended in practice and can never sit
//! on a result-bearing code path.

use crate::registry::{enabled, observe, Hist};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// Fast-path flag: true iff a sink is installed.
static EVENTS_ON: AtomicBool = AtomicBool::new(false);

/// The installed sink, if any.
static SINK: Mutex<Option<Box<dyn Write + Send>>> = Mutex::new(None);

fn sink_lock() -> std::sync::MutexGuard<'static, Option<Box<dyn Write + Send>>> {
    // A panic while holding the sink lock (a failed write partway
    // through a line) must not wedge every later emitter.
    SINK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether an event sink is installed and accepting events.
#[inline]
pub fn events_enabled() -> bool {
    EVENTS_ON.load(Relaxed)
}

/// Installs an arbitrary writer as the JSONL event sink, replacing any
/// previous sink (which is flushed and dropped).
pub fn install_events_writer(writer: Box<dyn Write + Send>) {
    let mut sink = sink_lock();
    if let Some(mut old) = sink.take() {
        let _ = old.flush();
    }
    *sink = Some(writer);
    EVENTS_ON.store(true, Relaxed);
}

/// Creates (truncating) `path` and installs it as the JSONL event sink.
pub fn install_events_file(path: &Path) -> io::Result<()> {
    let file = File::create(path)?;
    install_events_writer(Box::new(BufWriter::new(file)));
    Ok(())
}

/// Flushes and removes the installed sink, turning events off.
pub fn shutdown_events() {
    EVENTS_ON.store(false, Relaxed);
    if let Some(mut old) = sink_lock().take() {
        let _ = old.flush();
    }
}

/// A field value in an emitted event.
#[derive(Debug, Clone, Copy)]
pub enum EventValue<'a> {
    /// An unsigned integer field.
    U64(u64),
    /// A float field (written with enough precision to round-trip).
    F64(f64),
    /// A string field (JSON-escaped on the way out).
    Str(&'a str),
    /// A boolean field.
    Bool(bool),
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Emits one JSONL event line `{"event":<name>, <fields...>}` to the
/// installed sink. A load-and-branch no-op when no sink is installed.
/// Write failures are swallowed (telemetry must never fail the run).
pub fn emit_event(event: &str, fields: &[(&str, EventValue<'_>)]) {
    if !events_enabled() {
        return;
    }
    let mut line = String::with_capacity(64 + fields.len() * 24);
    line.push_str("{\"event\":");
    push_json_str(&mut line, event);
    for (key, value) in fields {
        line.push(',');
        push_json_str(&mut line, key);
        line.push(':');
        match value {
            EventValue::U64(v) => {
                let _ = write!(line, "{v}");
            }
            EventValue::F64(v) => {
                if v.is_finite() {
                    let _ = write!(line, "{v:?}");
                } else {
                    line.push_str("null");
                }
            }
            EventValue::Str(s) => push_json_str(&mut line, s),
            EventValue::Bool(b) => line.push_str(if *b { "true" } else { "false" }),
        }
    }
    line.push_str("}\n");
    let mut sink = sink_lock();
    if let Some(w) = sink.as_mut() {
        let _ = w.write_all(line.as_bytes());
    }
}

/// A scoped duration measurement. While armed (registry enabled or a
/// sink installed at creation), the drop records the elapsed
/// microseconds into [`Hist::SpanUs`] and emits a `span` event; while
/// disarmed it holds no clock and drops for free.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

impl Span {
    /// Ends the span without recording anything (e.g. on an error path
    /// that should not pollute duration histograms).
    pub fn cancel(mut self) {
        self.start = None;
    }
}

/// Opens a named [`Span`]. Reads one clock at creation and one at drop
/// when armed; entirely free when both the registry and the sink are
/// off.
pub fn span(name: &'static str) -> Span {
    let armed = enabled() || events_enabled();
    Span { name, start: armed.then(Instant::now) }
}

/// Records `micros` into a duration histogram and, when a sink is
/// installed, emits a `span` event carrying the measurement. This is
/// the manual-clock sibling of [`span`] for call sites that already
/// time themselves (e.g. tournament cells).
pub fn record_duration(hist: Hist, name: &str, micros: u64) {
    observe(hist, micros);
    emit_event("span", &[("name", EventValue::Str(name)), ("dur_us", EventValue::U64(micros))]);
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            record_duration(Hist::SpanUs, self.name, elapsed_us(start));
        }
    }
}

fn elapsed_us(start: Instant) -> u64 {
    start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

/// A scoped histogram-only timer: the cheap sibling of [`span`] for hot
/// driver boundaries (e.g. one parallel scan). Arms only while the
/// registry is enabled — disarmed construction reads no clock — and the
/// drop records elapsed microseconds into `hist` without emitting any
/// event.
#[derive(Debug)]
pub struct HistTimer {
    hist: Hist,
    start: Option<Instant>,
}

/// Opens a [`HistTimer`] over `hist`.
pub fn timer(hist: Hist) -> HistTimer {
    HistTimer { hist, start: enabled().then(Instant::now) }
}

impl Drop for HistTimer {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            observe(self.hist, elapsed_us(start));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// The installed sink is process-global, so tests that install or
    /// tear one down serialize through this lock.
    static LOCK: StdMutex<()> = StdMutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A Vec-backed sink tests can read back. The Arc keeps a handle on
    /// the buffer after the box moves into the registry.
    #[derive(Clone)]
    struct Capture(Arc<StdMutex<Vec<u8>>>);

    impl Write for Capture {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn captured(cap: &Capture) -> String {
        String::from_utf8(cap.0.lock().unwrap().clone()).unwrap()
    }

    #[test]
    fn emit_without_sink_is_a_noop() {
        let _g = guard();
        shutdown_events();
        assert!(!events_enabled());
        emit_event("ignored", &[("k", EventValue::U64(1))]);
    }

    #[test]
    fn events_are_one_json_object_per_line() {
        let _g = guard();
        let cap = Capture(Arc::new(StdMutex::new(Vec::new())));
        install_events_writer(Box::new(cap.clone()));
        emit_event(
            "cell_finished",
            &[
                ("algorithm", EventValue::Str("se")),
                ("ok", EventValue::Bool(true)),
                ("objective_value", EventValue::F64(12.5)),
                ("evaluations", EventValue::U64(42)),
                ("note", EventValue::Str("line\nbreak \"quoted\"")),
            ],
        );
        emit_event("race_done", &[("race", EventValue::U64(0))]);
        shutdown_events();
        let text = captured(&cap);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"event\":\"cell_finished\",\"algorithm\":\"se\",\"ok\":true,\
             \"objective_value\":12.5,\"evaluations\":42,\
             \"note\":\"line\\nbreak \\\"quoted\\\"\"}"
        );
        assert_eq!(lines[1], "{\"event\":\"race_done\",\"race\":0}");
        emit_event("after_shutdown", &[]);
        assert_eq!(captured(&cap).lines().count(), 2);
    }

    #[test]
    fn spans_emit_and_cancel() {
        let _g = guard();
        let cap = Capture(Arc::new(StdMutex::new(Vec::new())));
        install_events_writer(Box::new(cap.clone()));
        {
            let _s = span("scoped_work");
        }
        span("not_recorded").cancel();
        shutdown_events();
        let text = captured(&cap);
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"name\":\"scoped_work\""));
        assert!(text.contains("\"dur_us\":"));
        assert!(!text.contains("not_recorded"));
    }

    #[test]
    fn nonfinite_floats_become_null() {
        let _g = guard();
        let cap = Capture(Arc::new(StdMutex::new(Vec::new())));
        install_events_writer(Box::new(cap.clone()));
        emit_event("gap", &[("value", EventValue::F64(f64::INFINITY))]);
        shutdown_events();
        assert!(captured(&cap).contains("\"value\":null"));
    }
}
