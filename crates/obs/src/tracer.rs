//! The event tracer: a cloneable handle over a bounded ring buffer.
//!
//! Every build carries the tracer; it is gated at runtime by an atomic
//! [`TraceLevel`], initially [`TraceLevel::Off`], the same way
//! [`Profiler`](crate::Profiler) is gated by its enable flag. While the
//! level is `Off`, an `if tracer.enabled()` guard at an instrumentation
//! site is one relaxed atomic load, and the event behind it is never
//! built. When the ring is full the oldest events are overwritten and
//! counted as dropped, so tracing a long run keeps the tail (the part
//! that usually matters when diagnosing a drift or a stall) at bounded
//! memory.
//!
//! Handles are cheap to clone and safe to share across the scheduler's
//! worker threads.

use crate::event::{TraceEvent, TraceLevel};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Default ring capacity in events (~1.6 MB encoded).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

#[derive(Debug)]
struct Ring {
    buf: VecDeque<TraceEvent>,
    cap: usize,
    dropped: u64,
}

#[derive(Debug)]
struct Inner {
    level: AtomicU8,
    ring: Mutex<Ring>,
}

/// Ring-buffered structured event tracer.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

fn level_from_u8(v: u8) -> TraceLevel {
    match v {
        0 => TraceLevel::Off,
        1 => TraceLevel::Standard,
        _ => TraceLevel::Verbose,
    }
}

fn level_to_u8(l: TraceLevel) -> u8 {
    match l {
        TraceLevel::Off => 0,
        TraceLevel::Standard => 1,
        TraceLevel::Verbose => 2,
    }
}

impl Tracer {
    /// Creates a tracer with the default ring capacity, initially
    /// [`TraceLevel::Off`].
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a tracer with a ring of `capacity` events, initially
    /// [`TraceLevel::Off`].
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: Arc::new(Inner {
                level: AtomicU8::new(0),
                // The buffer grows on demand up to `cap`: a tracer
                // that never records (level Off) costs no memory.
                ring: Mutex::new(Ring {
                    buf: VecDeque::new(),
                    cap: capacity.max(1),
                    dropped: 0,
                }),
            }),
        }
    }

    fn ring(&self) -> MutexGuard<'_, Ring> {
        // Survive poisoning: a panicked worker (the runner isolates
        // cell panics) must not take tracing down with it.
        match self.inner.ring.lock() {
            Ok(g) => g,
            Err(e) => e.into_inner(),
        }
    }

    /// Sets the runtime level shared by all clones of this handle.
    pub fn set_level(&self, level: TraceLevel) {
        self.inner
            .level
            .store(level_to_u8(level), Ordering::Relaxed);
    }

    /// The current runtime level.
    #[must_use]
    pub fn level(&self) -> TraceLevel {
        level_from_u8(self.inner.level.load(Ordering::Relaxed))
    }

    /// Whether any event could currently be recorded.
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.inner.level.load(Ordering::Relaxed) != 0
    }

    /// Records `ev` if the runtime level admits it.
    #[inline]
    pub fn record(&self, ev: TraceEvent) {
        if self.level() < ev.level() {
            return;
        }
        let mut ring = self.ring();
        if ring.buf.len() == ring.cap {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(ev);
    }

    /// Takes all buffered events (oldest first) and the count of
    /// events dropped by ring overwrites, clearing both.
    #[must_use]
    pub fn drain(&self) -> (Vec<TraceEvent>, u64) {
        let mut ring = self.ring();
        let events = ring.buf.drain(..).collect();
        let dropped = std::mem::take(&mut ring.dropped);
        (events, dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        t.record(TraceEvent::GateStallBegin { cycle: 1 });
        let (events, dropped) = t.drain();
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn records_in_order_at_standard_level() {
        let t = Tracer::default();
        t.set_level(TraceLevel::Standard);
        for cycle in 0..5 {
            t.record(TraceEvent::GateStallBegin { cycle });
        }
        let (events, dropped) = t.drain();
        assert_eq!(events.len(), 5);
        assert_eq!(dropped, 0);
        assert_eq!(events[0], TraceEvent::GateStallBegin { cycle: 0 });
        assert_eq!(events[4], TraceEvent::GateStallBegin { cycle: 4 });
    }

    #[test]
    fn standard_level_filters_verbose_events() {
        let t = Tracer::default();
        t.set_level(TraceLevel::Standard);
        t.record(TraceEvent::ConfidenceBucket {
            cycle: 1,
            pc: 2,
            raw: 3,
            class: 0,
        });
        t.record(TraceEvent::GateStallBegin { cycle: 1 });
        let (events, _) = t.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind_name(), "gate_stall_begin");
    }

    #[test]
    fn verbose_level_admits_everything() {
        let t = Tracer::default();
        t.set_level(TraceLevel::Verbose);
        t.record(TraceEvent::ConfidenceBucket {
            cycle: 1,
            pc: 2,
            raw: 3,
            class: 2,
        });
        assert_eq!(t.drain().0.len(), 1);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let t = Tracer::with_capacity(3);
        t.set_level(TraceLevel::Standard);
        for cycle in 0..10 {
            t.record(TraceEvent::GateStallBegin { cycle });
        }
        let (events, dropped) = t.drain();
        assert_eq!(events.len(), 3);
        assert_eq!(dropped, 7);
        assert_eq!(events[0], TraceEvent::GateStallBegin { cycle: 7 });
        assert_eq!(events[2], TraceEvent::GateStallBegin { cycle: 9 });
    }

    #[test]
    fn clones_share_one_ring_and_level() {
        let t = Tracer::default();
        let u = t.clone();
        u.set_level(TraceLevel::Standard);
        assert!(t.enabled());
        t.record(TraceEvent::GateStallBegin { cycle: 1 });
        u.record(TraceEvent::GateStallEnd {
            cycle: 2,
            stalled: 1,
        });
        assert_eq!(t.drain().0.len(), 2);
        assert_eq!(u.drain().0.len(), 0);
    }

    #[test]
    fn drain_resets_state() {
        let t = Tracer::with_capacity(1);
        t.set_level(TraceLevel::Standard);
        t.record(TraceEvent::GateStallBegin { cycle: 1 });
        t.record(TraceEvent::GateStallBegin { cycle: 2 });
        let (_, dropped) = t.drain();
        assert_eq!(dropped, 1);
        let (events, dropped) = t.drain();
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }
}
