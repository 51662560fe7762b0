//! # unicon-obs — structured observability, bit-invisible by contract
//!
//! One coherent telemetry substrate for the whole tool chain: monotonic
//! **spans** with parent/child nesting, typed **events** (per-iteration
//! value-iteration residuals, Fox–Glynn truncation windows, bisimulation
//! refinement progress, guard-layer incidents), and pluggable **sinks**
//! (a JSONL trace stream, a Prometheus-style metrics [`Registry`], a
//! stderr console logger). Entirely `std`, zero external dependencies.
//!
//! ## The bit-invisibility contract
//!
//! Instrumentation must never change a result. The engines guarantee
//! bitwise-identical values at every thread count; telemetry rides along
//! only under these rules, enforced by construction here and by the
//! `ci.sh` trace-on/trace-off checksum gate:
//!
//! * emission sites only **read** engine state (residuals, checksums);
//!   no instrumented code path writes into the numeric pipeline;
//! * `Instant` is read at span boundaries ([`span`]), never inside a
//!   per-iteration event — iteration records are timestamp-free. The hot
//!   loop does read the clock while a sink wants [`Class::Metric`]: an
//!   unguarded reach run then times its kernel per class, one clock read
//!   per class run per worker per step, and `unicon serve` and
//!   `unicon metrics` always install such a sink (the metrics
//!   [`Registry`]). The readings only feed observations;
//! * when no installed sink is interested in a [`Class`] (and no
//!   thread-local collector captures it), [`live`] is a single relaxed
//!   atomic load plus a thread-local mask check, and [`emit`] never
//!   builds the event — the disabled handle costs near zero.
//!
//! ## Dispatch model
//!
//! All engine emission sites run on the *calling* thread (the sequential
//! loop, the parallel driver's assembly loop, the guard driver, the
//! refiner, the build pipeline) — worker threads never emit. That makes
//! the thread-local [`collect`] capture race-free even under a
//! multi-threaded test runner, while global sinks installed with
//! [`install`] see the same events (tee semantics).
//!
//! ```
//! use unicon_obs as obs;
//!
//! let ((), events) = obs::collect(|| {
//!     let _span = obs::span("phase");
//!     obs::emit(obs::Class::Metric, || obs::Event::Counter {
//!         name: "things_done",
//!         value: 3,
//!     });
//! });
//! assert_eq!(events.len(), 3); // open, counter, close
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod hist;
pub mod json;
mod metrics;
pub mod profile;
mod sink;

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

pub use event::{Event, Level};
pub use hist::{Histogram, HISTOGRAM_BUCKETS};
pub use metrics::Registry;
pub use sink::{ConsoleSink, JsonlSink, Sink};

// ---------------------------------------------------------------------------
// Event classes and the global interest mask
// ---------------------------------------------------------------------------

/// Coarse event classes, used as an interest filter so a sink that only
/// wants logs (the console) never turns on per-iteration telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Human log lines ([`Event::Log`]).
    Log,
    /// Span open/close records.
    Span,
    /// Per-iteration convergence telemetry — the only class whose
    /// emission sites sit on the numeric hot path.
    Iter,
    /// Counters and aggregate progress records (refinement rounds,
    /// Fox–Glynn windows, cache statistics).
    Metric,
    /// Guard-layer incidents (checkpoints, budget stops, resumes).
    Guard,
}

impl Class {
    /// This class's bit in an interest mask.
    #[must_use]
    pub fn bit(self) -> u32 {
        1 << (self as u32)
    }

    /// The mask covering every class.
    #[must_use]
    pub fn all_mask() -> u32 {
        0b1_1111
    }
}

/// OR of the interests of all installed sinks; `0` when nothing is
/// installed, so the disabled fast path is one relaxed load.
static INTEREST: AtomicU32 = AtomicU32::new(0);
static SINKS: RwLock<Vec<Arc<dyn Sink>>> = RwLock::new(Vec::new());
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The active [`collect`] buffer and the class mask it captures, if
    /// any.
    static COLLECTOR: RefCell<Option<(u32, Vec<Event>)>> = const { RefCell::new(None) };
    /// The open-span stack of this thread (parent tracking + timing).
    static SPAN_STACK: RefCell<Vec<OpenSpan>> = const { RefCell::new(Vec::new()) };
    /// The request id events on this thread are attributed to, if any.
    static CURRENT_REQUEST: Cell<Option<u64>> = const { Cell::new(None) };
}

fn sinks() -> std::sync::RwLockReadGuard<'static, Vec<Arc<dyn Sink>>> {
    SINKS
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Installs a sink; events of the classes it is interested in start
/// flowing to it immediately.
pub fn install(sink: Arc<dyn Sink>) {
    let mut guard = SINKS
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    guard.push(sink);
    let mask = guard.iter().fold(0, |m, s| m | s.interest());
    INTEREST.store(mask, Ordering::Relaxed);
}

/// Removes every installed sink (used by tests; the CLI installs once
/// per process).
pub fn reset() {
    let mut guard = SINKS
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    guard.clear();
    INTEREST.store(0, Ordering::Relaxed);
}

/// Flushes every installed sink (the CLI calls this once before exit so
/// buffered JSONL traces hit the disk).
pub fn flush() {
    for s in sinks().iter() {
        s.flush();
    }
}

/// Whether this thread's collector captures `class`.
fn collecting(class: Class) -> bool {
    COLLECTOR.with(|c| {
        c.borrow()
            .as_ref()
            .is_some_and(|(mask, _)| mask & class.bit() != 0)
    })
}

/// Is any consumer interested in `class` right now? Engines guard the
/// *computation* of expensive payloads (residuals, checksums) on this;
/// [`emit`] re-checks it internally, so plain call sites don't need to.
#[must_use]
pub fn live(class: Class) -> bool {
    INTEREST.load(Ordering::Relaxed) & class.bit() != 0 || collecting(class)
}

/// Emits an event lazily: `f` runs only when a sink or collector wants
/// events of `class`.
pub fn emit(class: Class, f: impl FnOnce() -> Event) {
    let mask = INTEREST.load(Ordering::Relaxed);
    let wanted = mask & class.bit() != 0;
    let collected = collecting(class);
    if !wanted && !collected {
        return;
    }
    let ev = f();
    if collected {
        COLLECTOR.with(|c| {
            if let Some((_, buf)) = c.borrow_mut().as_mut() {
                buf.push(ev.clone());
            }
        });
    }
    if wanted {
        for s in sinks().iter() {
            if s.interest() & class.bit() != 0 {
                s.record(&ev);
            }
        }
    }
}

/// Runs `f` with a thread-local event collector and returns its result
/// together with every event emitted *on this thread* while it ran.
/// Every class is live while it runs.
///
/// Events still reach installed global sinks (tee). Collectors nest:
/// an inner `collect` temporarily shadows the outer one, so the outer
/// buffer does not see the inner run's events. If `f` panics, the
/// previous collector is restored and the partial capture is dropped.
pub fn collect<T>(f: impl FnOnce() -> T) -> (T, Vec<Event>) {
    collect_classes(Class::all_mask(), f)
}

/// [`collect`] for the classes in `mask` only (an OR of [`Class::bit`]s):
/// the collector makes no other class live, so code that tests [`live`]
/// runs as it does with no collector at all, except for the classes
/// collected.
pub fn collect_classes<T>(mask: u32, f: impl FnOnce() -> T) -> (T, Vec<Event>) {
    struct Restore {
        prev: Option<Option<(u32, Vec<Event>)>>,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            if let Some(prev) = self.prev.take() {
                COLLECTOR.with(|c| *c.borrow_mut() = prev);
            }
        }
    }
    let prev = COLLECTOR.with(|c| c.borrow_mut().replace((mask, Vec::new())));
    let mut restore = Restore { prev: Some(prev) };
    let out = f();
    let events = COLLECTOR.with(|c| {
        let mut buf = c.borrow_mut();
        let captured = buf.take().map(|(_, events)| events).unwrap_or_default();
        *buf = restore.prev.take().expect("restore guard is armed");
        captured
    });
    (out, events)
}

// ---------------------------------------------------------------------------
// Request scoping
// ---------------------------------------------------------------------------

/// The request id the current thread's events are attributed to, if a
/// [`request_scope`] is active. The JSONL sink stamps this onto every
/// trace line (`"request":N`), so a multi-request trace can be filtered
/// to one request end-to-end. Engine emission all happens on the
/// calling/assembler thread, so a serve session's scope covers every
/// span, iteration record and metric its query triggers.
#[must_use]
pub fn current_request() -> Option<u64> {
    CURRENT_REQUEST.with(Cell::get)
}

/// An active request attribution scope; dropping it restores the
/// previous scope (scopes nest, inner wins).
#[derive(Debug)]
pub struct RequestScope {
    prev: Option<u64>,
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        CURRENT_REQUEST.with(|c| c.set(self.prev));
    }
}

/// Attributes every event emitted on this thread to request `id` until
/// the returned guard drops. Purely an annotation: no event is created,
/// suppressed or reordered by scoping, so the bit-invisibility contract
/// is untouched.
pub fn request_scope(id: u64) -> RequestScope {
    let prev = CURRENT_REQUEST.with(|c| c.replace(Some(id)));
    RequestScope { prev }
}

/// Emits one histogram sample ([`Event::Observe`]) for `name`.
pub fn observe(name: &'static str, value: u64) {
    emit(Class::Metric, || Event::Observe { name, value });
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct OpenSpan {
    id: u64,
    name: &'static str,
    start: Instant,
}

/// An open span: opened by [`span`], closed when it drops, so spans nest
/// by construction. A span opened while no consumer wanted span events
/// is inert: it read no clock and emits nothing.
#[derive(Debug)]
#[must_use = "a span closes when it drops"]
pub struct Span {
    /// The span's id, or 0 when inert.
    id: u64,
}

/// Opens a span named `name` on this thread's span stack, emitting an
/// [`Event::SpanOpen`] record with the parent span's id, if any. The
/// span closes when the returned value drops, emitting an
/// [`Event::SpanClose`] with its wall-clock duration.
///
/// When no consumer wants span events, this reads no clock and returns
/// an inert span.
pub fn span(name: &'static str) -> Span {
    if !live(Class::Span) {
        return Span { id: 0 };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|s| s.borrow().last().map(|o| o.id));
    SPAN_STACK.with(|s| {
        s.borrow_mut().push(OpenSpan {
            id,
            name,
            start: Instant::now(),
        })
    });
    emit(Class::Span, || Event::SpanOpen { name, id, parent });
    Span { id }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        // The innermost span, unless the caller dropped spans out of
        // order; a span moved to another thread is not on this stack.
        let closed = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let at = stack.iter().rposition(|o| o.id == self.id)?;
            Some(stack.remove(at))
        });
        if let Some(closed) = closed {
            let nanos = u64::try_from(closed.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            emit(Class::Span, || Event::SpanClose {
                name: closed.name,
                id: closed.id,
                nanos,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Log helpers
// ---------------------------------------------------------------------------

/// Emits a log event; the message closure runs only when someone
/// listens.
pub fn log(level: Level, f: impl FnOnce() -> String) {
    emit(Class::Log, || Event::Log {
        level,
        message: f(),
    });
}

/// Logs at [`Level::Error`].
pub fn error(f: impl FnOnce() -> String) {
    log(Level::Error, f);
}

/// Logs at [`Level::Info`].
pub fn info(f: impl FnOnce() -> String) {
    log(Level::Info, f);
}

/// Logs at [`Level::Debug`].
pub fn debug(f: impl FnOnce() -> String) {
    log(Level::Debug, f);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dormant_emission_costs_nothing_and_builds_nothing() {
        assert!(!live(Class::Iter));
        let mut ran = false;
        emit(Class::Iter, || {
            ran = true;
            Event::Counter {
                name: "never",
                value: 1,
            }
        });
        assert!(!ran, "payload closure must not run while dormant");
        // dormant spans are inert and close without a trace
        let s = span("dormant");
        assert_eq!(s.id, 0);
        assert!(SPAN_STACK.with(|s| s.borrow().is_empty()));
        drop(s);
    }

    #[test]
    fn collect_captures_events_in_order() {
        let ((), events) = collect(|| {
            emit(Class::Metric, || Event::Counter {
                name: "a",
                value: 1,
            });
            emit(Class::Metric, || Event::Counter {
                name: "b",
                value: 2,
            });
        });
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], Event::Counter { name: "a", .. }));
        assert!(matches!(events[1], Event::Counter { name: "b", .. }));
        // the collector is gone afterwards
        assert!(!live(Class::Metric));
    }

    /// A span-only collector makes no other class live and captures
    /// spans alone, even where other classes are emitted beside them.
    #[test]
    fn span_only_collector_captures_spans_alone() {
        let ((), events) = collect_classes(Class::Span.bit(), || {
            assert!(live(Class::Span));
            assert!(!live(Class::Iter));
            assert!(!live(Class::Metric));
            let s = span("phase");
            emit(Class::Metric, || panic!("a metric event must not be built"));
            emit(Class::Iter, || {
                panic!("an iteration event must not be built")
            });
            log(Level::Info, || panic!("a log message must not be built"));
            drop(s);
        });
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], Event::SpanOpen { name: "phase", .. }));
        assert!(matches!(events[1], Event::SpanClose { name: "phase", .. }));
        // Nested all-class collection still sees everything it wraps.
        let (((), inner), outer) = collect_classes(Class::Span.bit(), || {
            collect(|| {
                emit(Class::Metric, || Event::Counter {
                    name: "x",
                    value: 1,
                })
            })
        });
        assert_eq!(inner.len(), 1);
        assert!(outer.is_empty());
    }

    #[test]
    fn span_nesting_records_parents() {
        let ((), events) = collect(|| {
            let _outer = span("outer");
            let _inner = span("inner");
        });
        let opens: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::SpanOpen { name, id, parent } => Some((*name, *id, *parent)),
                _ => None,
            })
            .collect();
        assert_eq!(opens.len(), 2);
        assert_eq!(opens[0].0, "outer");
        assert_eq!(opens[0].2, None);
        assert_eq!(opens[1].0, "inner");
        assert_eq!(opens[1].2, Some(opens[0].1), "inner's parent is outer");
        let closes = events
            .iter()
            .filter(|e| matches!(e, Event::SpanClose { .. }))
            .count();
        assert_eq!(closes, 2);
    }

    /// A span dropped before its child still closes, and the child then
    /// closes too: no span stays open on the thread's stack.
    #[test]
    fn spans_dropped_out_of_order_still_close() {
        let ((), events) = collect(|| {
            let outer = span("outer");
            let inner = span("inner");
            drop(outer);
            drop(inner);
            assert!(SPAN_STACK.with(|s| s.borrow().is_empty()));
        });
        let closes: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::SpanClose { name, .. } => Some(*name),
                _ => None,
            })
            .collect();
        assert_eq!(closes, ["outer", "inner"]);
    }

    #[test]
    fn raii_span_closes_on_drop() {
        let ((), events) = collect(|| {
            let _s = span("raii");
        });
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::SpanClose { name: "raii", .. })));
    }

    #[test]
    fn request_scopes_nest_and_restore() {
        assert_eq!(current_request(), None);
        {
            let _outer = request_scope(7);
            assert_eq!(current_request(), Some(7));
            {
                let _inner = request_scope(8);
                assert_eq!(current_request(), Some(8), "inner scope wins");
            }
            assert_eq!(current_request(), Some(7), "outer scope restored");
        }
        assert_eq!(current_request(), None, "no scope after the last drop");
    }

    #[test]
    fn collect_restores_previous_collector_on_panic() {
        let ((), outer_events) = collect(|| {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = collect(|| {
                    emit(Class::Metric, || Event::Counter {
                        name: "inner",
                        value: 1,
                    });
                    panic!("boom");
                });
            }));
            assert!(caught.is_err());
            emit(Class::Metric, || Event::Counter {
                name: "outer",
                value: 1,
            });
        });
        assert_eq!(outer_events.len(), 1, "inner capture was dropped");
        assert!(matches!(
            outer_events[0],
            Event::Counter { name: "outer", .. }
        ));
    }
}
