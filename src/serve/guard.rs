//! Service-level guards for `unicon serve`: admission control, bounded
//! request reads, drain orchestration and poison-recovering locks.
//!
//! PR 3's guarded execution layer ([`unicon::ctmdp::guard`]) hardens
//! the *engine*: budgets, typed numeric failures, checkpointed partial
//! results. This module extends the same discipline to the *service*
//! boundary, in assume-guarantee style — each guard states the failure
//! it absorbs and the guarantee it still exports:
//!
//! * [`Gate`] — a counting admission gate. Absorbs: unbounded
//!   concurrency (thread-per-connection pile-ups, query stampedes).
//!   Guarantees: at most `limit` holders at once; excess load is shed
//!   immediately with a typed `overloaded` response instead of queuing
//!   unboundedly.
//! * [`read_bounded_line`] — a capped JSONL reader. Absorbs:
//!   adversarial or buggy clients streaming an unbounded line.
//!   Guarantees: at most `max_bytes` of one request line are ever
//!   resident; overruns surface as [`LineOutcome::TooLong`], read
//!   timeouts as [`LineOutcome::IdleTimeout`], so a stalled client can
//!   never pin a session thread forever.
//! * [`Drain`] — the shutdown state machine. Absorbs: `shutdown`
//!   requests and SIGTERM racing in-flight work. Guarantees: once
//!   draining, no new session is accepted, every accepted request is
//!   still answered (complete, partial-at-deadline, or typed error)
//!   and the daemon exits 0 after flushing metrics.
//! * [`lock`] — poison-recovering mutex acquisition. Absorbs: a
//!   panicking session poisoning shared state. Guarantees: serve state
//!   is only ever mutated through handlers that catch failures as typed
//!   records, so the data under a poisoned lock is still consistent and
//!   every other session keeps answering.
//! * [`ServeFaults`] — the seeded chaos plan (`fault-inject` feature
//!   only). Injects build panics and eviction-race stalls at exact,
//!   reproducible points so the chaos tests assert typed outcomes
//!   instead of hoping for races.

use std::io::{self, BufRead};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Mutex helper: serve never leaves shared state inconsistent (handlers
/// catch errors as typed records before unwinding can touch registry
/// invariants), so a poisoned lock carries recoverable data and one
/// session's panic must not wedge every other session.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------

/// A counting admission gate: at most `limit` concurrently held
/// [`Permit`]s (0 = unlimited). Acquisition never blocks — over-limit
/// callers are shed, which is the whole point: the daemon answers
/// `overloaded` in O(1) instead of queuing work it cannot finish.
pub struct Gate {
    limit: usize,
    active: AtomicI64,
}

impl Gate {
    /// Creates a gate admitting `limit` concurrent holders (0 = unlimited).
    pub fn new(limit: usize) -> Arc<Self> {
        Arc::new(Self {
            limit,
            active: AtomicI64::new(0),
        })
    }

    /// Tries to enter the gate; `None` means the caller must shed load.
    pub fn try_acquire(self: &Arc<Self>) -> Option<Permit> {
        let now = self.active.fetch_add(1, Ordering::SeqCst) + 1;
        if self.limit != 0 && now > self.limit as i64 {
            self.active.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        Some(Permit {
            gate: Arc::clone(self),
        })
    }

    /// Currently admitted holders.
    pub fn active(&self) -> i64 {
        self.active.load(Ordering::SeqCst)
    }

    /// The configured limit (0 = unlimited).
    pub fn limit(&self) -> usize {
        self.limit
    }
}

/// An owned slot in a [`Gate`]; dropping it releases the slot, so a
/// panicking or disconnecting session can never leak admission capacity.
pub struct Permit {
    gate: Arc<Gate>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.gate.active.fetch_sub(1, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------
// Bounded request reads
// ---------------------------------------------------------------------

/// The outcome of one bounded line read.
pub enum LineOutcome {
    /// A complete request line (newline stripped, lossily decoded —
    /// invalid UTF-8 becomes a parse error downstream, not an I/O one).
    Line(String),
    /// The line exceeded the byte cap before a newline arrived. The
    /// session must answer a typed `line-too-long` error and end — the
    /// remainder of the oversized line cannot be skipped in bounded
    /// memory without trusting the client to eventually send `\n`.
    TooLong,
    /// End of stream (a final unterminated line shorter than the cap is
    /// returned as [`LineOutcome::Line`] first).
    Eof,
    /// The socket read timeout expired with no complete line: the
    /// client stalled or vanished, and the session thread is released.
    IdleTimeout,
}

/// Reads one `\n`-terminated line of at most `max_bytes` bytes.
///
/// Unlike [`BufRead::read_line`], which grows its buffer without bound,
/// this consumes the source in `fill_buf` chunks and stops accumulating
/// the moment the cap is crossed. `WouldBlock`/`TimedOut` (the two
/// kinds `SO_RCVTIMEO` surfaces as) map to [`LineOutcome::IdleTimeout`].
///
/// # Errors
///
/// Propagates any other I/O error from the underlying reader.
pub fn read_bounded_line(r: &mut impl BufRead, max_bytes: usize) -> io::Result<LineOutcome> {
    let mut acc: Vec<u8> = Vec::new();
    loop {
        let buf = match r.fill_buf() {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(LineOutcome::IdleTimeout)
            }
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            return Ok(if acc.is_empty() {
                LineOutcome::Eof
            } else {
                LineOutcome::Line(String::from_utf8_lossy(&acc).into_owned())
            });
        }
        let (chunk, found_newline) = match buf.iter().position(|&b| b == b'\n') {
            Some(i) => (&buf[..i], true),
            None => (buf, false),
        };
        if acc.len() + chunk.len() > max_bytes {
            // Consume what we peeked so the error path is well-defined,
            // then stop: the session ends after the typed error.
            let used = chunk.len() + usize::from(found_newline);
            r.consume(used);
            return Ok(LineOutcome::TooLong);
        }
        acc.extend_from_slice(chunk);
        let used = chunk.len() + usize::from(found_newline);
        r.consume(used);
        if found_newline {
            let line = String::from_utf8_lossy(&acc).into_owned();
            return Ok(LineOutcome::Line(line));
        }
    }
}

// ---------------------------------------------------------------------
// Drain orchestration
// ---------------------------------------------------------------------

/// The shutdown state machine. `begin` is idempotent (first caller
/// wins); once draining, the accept loop stops admitting sessions and
/// new queries inherit the drain deadline so in-flight work finishes or
/// answers a certified partial record before the process exits.
pub struct Drain {
    draining: AtomicBool,
    /// Bit pattern of the drain deadline as nanos after `started`;
    /// encoded through a Mutex to keep `Instant` math simple.
    inner: Mutex<Option<DrainClock>>,
}

struct DrainClock {
    started: Instant,
    /// `None` when the grace window ends past what an [`Instant`] holds.
    deadline: Option<Instant>,
}

impl Default for Drain {
    fn default() -> Self {
        Self::new()
    }
}

impl Drain {
    pub fn new() -> Self {
        Self {
            draining: AtomicBool::new(false),
            inner: Mutex::new(None),
        }
    }

    /// Enters drain mode with the given grace window. Returns `true`
    /// for the first caller, `false` for every later (ignored) one.
    pub fn begin(&self, grace: Duration) -> bool {
        let mut inner = lock(&self.inner);
        if self.draining.swap(true, Ordering::SeqCst) {
            return false;
        }
        let started = Instant::now(); // det-lint: allow(clock): drain telemetry only.
        *inner = Some(DrainClock {
            started,
            deadline: started.checked_add(grace),
        });
        true
    }

    /// Whether drain mode has begun.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// The wall-clock deadline queries must respect while draining:
    /// none before the drain, or when its grace window ends past what an
    /// [`Instant`] holds.
    pub fn deadline(&self) -> Option<Instant> {
        lock(&self.inner).as_ref().and_then(|c| c.deadline)
    }

    /// Seconds since drain began (the `serve_drain_seconds` gauge).
    pub fn elapsed_seconds(&self) -> Option<f64> {
        lock(&self.inner)
            .as_ref()
            .map(|c| c.started.elapsed().as_secs_f64())
    }
}

// ---------------------------------------------------------------------
// SIGTERM
// ---------------------------------------------------------------------

static TERM_RECEIVED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" {
    /// libc's `signal(2)`; declared directly to keep the build
    /// dependency-free. `usize` stands in for `sighandler_t`.
    fn signal(signum: i32, handler: usize) -> usize;
}

#[cfg(unix)]
extern "C" fn on_sigterm(_signum: i32) {
    // Only an async-signal-safe atomic store; the accept loop polls it.
    TERM_RECEIVED.store(true, Ordering::SeqCst);
}

/// Installs the SIGTERM handler (socket mode only). The handler merely
/// raises a flag; the accept loop observes it on its next poll tick and
/// enters the same drain path as a `shutdown` request.
pub fn install_sigterm_handler() {
    #[cfg(unix)]
    {
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_sigterm as *const () as usize);
        }
    }
}

/// Whether SIGTERM has been delivered since the handler was installed.
pub fn sigterm_received() -> bool {
    TERM_RECEIVED.load(Ordering::SeqCst)
}

// ---------------------------------------------------------------------
// Seeded chaos plan (fault-inject builds only)
// ---------------------------------------------------------------------

/// The serve-layer fault plan: deterministic injection points armed by
/// hidden CLI flags, mirroring the engine-level
/// [`unicon::ctmdp::guard::FaultPlan`]. Compiled out of normal builds.
#[cfg(feature = "fault-inject")]
#[derive(Default, Clone)]
pub struct ServeFaults {
    /// Panic inside the model build of this cluster size
    /// (`--fault-build-panic <n>`), exercising `catch_unwind` +
    /// quarantine.
    pub build_panic_n: Option<usize>,
    /// Stall this many milliseconds between registry insert and budget
    /// enforcement (`--fault-evict-stall <ms>`), widening the
    /// eviction/pin race window to a certainty for the chaos tests.
    pub evict_stall_ms: Option<u64>,
}

#[cfg(feature = "fault-inject")]
impl ServeFaults {
    /// Trips the seeded build panic for cluster size `n`, if armed.
    pub fn maybe_panic_build(&self, n: usize) {
        if self.build_panic_n == Some(n) {
            panic!("fault-inject: seeded build panic for ftwc n={n}");
        }
    }

    /// Sleeps through the seeded eviction-race window, if armed.
    pub fn maybe_stall_eviction(&self) {
        if let Some(ms) = self.evict_stall_ms {
            std::thread::sleep(Duration::from_millis(ms));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn gate_sheds_over_limit_and_permits_release_on_drop() {
        let gate = Gate::new(2);
        let p1 = gate.try_acquire().expect("first");
        let _p2 = gate.try_acquire().expect("second");
        assert!(gate.try_acquire().is_none(), "third must shed");
        assert_eq!(gate.active(), 2);
        drop(p1);
        assert_eq!(gate.active(), 1);
        let _p3 = gate.try_acquire().expect("slot freed by drop");
    }

    #[test]
    fn unlimited_gate_never_sheds() {
        let gate = Gate::new(0);
        let permits: Vec<_> = (0..64).map(|_| gate.try_acquire().expect("ok")).collect();
        assert_eq!(gate.active(), 64);
        drop(permits);
        assert_eq!(gate.active(), 0);
    }

    #[test]
    fn bounded_reader_splits_lines_and_reports_eof() {
        let mut r = BufReader::new(&b"alpha\nbeta\ngamma"[..]);
        for expect in ["alpha", "beta", "gamma"] {
            match read_bounded_line(&mut r, 64).expect("read") {
                LineOutcome::Line(l) => assert_eq!(l, expect),
                _ => panic!("expected line {expect}"),
            }
        }
        assert!(matches!(
            read_bounded_line(&mut r, 64).expect("read"),
            LineOutcome::Eof
        ));
    }

    #[test]
    fn bounded_reader_caps_oversized_lines() {
        let long = [b'x'; 100];
        let mut r = BufReader::new(&long[..]);
        assert!(matches!(
            read_bounded_line(&mut r, 64).expect("read"),
            LineOutcome::TooLong
        ));
        // Exactly at the cap is fine.
        let mut data = vec![b'y'; 64];
        data.push(b'\n');
        let mut r = BufReader::new(&data[..]);
        match read_bounded_line(&mut r, 64).expect("read") {
            LineOutcome::Line(l) => assert_eq!(l.len(), 64),
            _ => panic!("cap-length line must pass"),
        }
    }

    #[test]
    fn bounded_reader_handles_tiny_fill_chunks() {
        // A 1-byte inner buffer forces the accumulate-across-fills path.
        let mut r = BufReader::with_capacity(1, &b"hello\nworld\n"[..]);
        match read_bounded_line(&mut r, 8).expect("read") {
            LineOutcome::Line(l) => assert_eq!(l, "hello"),
            _ => panic!("expected hello"),
        }
        match read_bounded_line(&mut r, 8).expect("read") {
            LineOutcome::Line(l) => assert_eq!(l, "world"),
            _ => panic!("expected world"),
        }
    }

    #[test]
    fn drain_begin_is_idempotent_and_exposes_deadline() {
        let d = Drain::new();
        assert!(!d.draining());
        assert!(d.deadline().is_none());
        assert!(d.begin(Duration::from_secs(5)));
        assert!(!d.begin(Duration::from_secs(99)), "second begin ignored");
        assert!(d.draining());
        let dl = d.deadline().expect("deadline set");
        assert!(dl > Instant::now()); // det-lint: allow(clock): test asserts a live deadline.
        assert!(d.elapsed_seconds().expect("started") >= 0.0);
        // A grace window past what an Instant holds drains without a
        // deadline.
        let endless = Drain::new();
        assert!(endless.begin(Duration::MAX));
        assert!(endless.draining());
        assert_eq!(endless.deadline(), None);
    }

    #[test]
    fn poisoned_mutex_still_locks() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().expect("clean lock");
            panic!("poison the mutex");
        })
        .join();
        assert!(m.lock().is_err(), "mutex is poisoned");
        assert_eq!(*lock(&m), 7, "data is still reachable and intact");
    }
}
