//! The shared tracer handle.

use crate::buffer::TraceBuffer;
use crate::event::{EventKind, TraceEvent};
use crate::registry::CounterRegistry;
use std::cell::RefCell;
use std::rc::Rc;

/// Default ring-buffer capacity in events (~1M; see DESIGN.md's sizing
/// discussion — enough for every Table IV kernel at audit sizes).
const DEFAULT_CAPACITY: usize = 1 << 20;

/// A cheaply-cloneable handle to one run's trace state.
///
/// The simulator is single-threaded per run (cores already share their
/// LLC through `Rc<RefCell<…>>`), so the tracer uses the same idiom:
/// every core, hierarchy, and engine holds a clone, and all of them
/// append to one buffer in retirement order per track. Emission
/// methods take `&self`, so instrumented models don't need extra
/// mutability.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Rc<RefCell<State>>,
}

#[derive(Debug)]
struct State {
    buf: TraceBuffer,
    reg: CounterRegistry,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer with the default buffer capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A tracer buffering at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: Rc::new(RefCell::new(State {
                buf: TraceBuffer::new(capacity),
                reg: CounterRegistry::new(),
            })),
        }
    }

    fn push(&self, event: TraceEvent) {
        self.inner.borrow_mut().buf.push(event);
    }

    /// Emits a duration span; zero-length spans are skipped.
    pub fn span(
        &self,
        track: &'static str,
        cat: &'static str,
        name: &'static str,
        ts: u64,
        dur: u64,
    ) {
        if dur == 0 {
            return;
        }
        self.push(TraceEvent {
            track,
            cat,
            name,
            ts,
            dur,
            kind: EventKind::Span,
            arg: None,
        });
    }

    /// Emits a duration span carrying one key/value argument.
    pub fn span_arg(
        &self,
        track: &'static str,
        cat: &'static str,
        name: &'static str,
        ts: u64,
        dur: u64,
        arg: (&'static str, u64),
    ) {
        if dur == 0 {
            return;
        }
        self.push(TraceEvent {
            track,
            cat,
            name,
            ts,
            dur,
            kind: EventKind::Span,
            arg: Some(arg),
        });
    }

    /// Emits a point event.
    pub fn instant(&self, track: &'static str, cat: &'static str, name: &'static str, ts: u64) {
        self.push(TraceEvent {
            track,
            cat,
            name,
            ts,
            dur: 0,
            kind: EventKind::Instant,
            arg: None,
        });
    }

    /// Emits a point event carrying one key/value argument.
    pub fn instant_arg(
        &self,
        track: &'static str,
        cat: &'static str,
        name: &'static str,
        ts: u64,
        arg: (&'static str, u64),
    ) {
        self.push(TraceEvent {
            track,
            cat,
            name,
            ts,
            dur: 0,
            kind: EventKind::Instant,
            arg: Some(arg),
        });
    }

    /// Adds `amount` to the registry counter `name`.
    pub fn count(&self, name: &str, amount: u64) {
        self.inner.borrow_mut().reg.add(name, amount);
    }

    /// Records one histogram sample.
    pub fn record(&self, name: &str, value: u64) {
        self.inner.borrow_mut().reg.record(name, value);
    }

    /// Copies out the buffered events in emission order. Checks that
    /// only read the events borrow them with [`Tracer::with_events`].
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.borrow().buf.to_vec()
    }

    /// Lends the buffered events to `f` as one slice in emission order,
    /// without copying them ([`TraceBuffer::make_contiguous`]).
    ///
    /// # Panics
    ///
    /// Panics if `f` emits into this tracer or reads it through any
    /// handle: the buffer is on loan for the call.
    pub fn with_events<R>(&self, f: impl FnOnce(&[TraceEvent]) -> R) -> R {
        let mut state = self.inner.borrow_mut();
        f(state.buf.make_contiguous())
    }

    /// Buffered event count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.borrow().buf.len()
    }

    /// Whether no event was emitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().buf.is_empty()
    }

    /// Events lost to ring-buffer overflow.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().buf.dropped()
    }

    /// A snapshot of the counter/histogram registry. Checks that only
    /// read it borrow it with [`Tracer::with_registry`].
    #[must_use]
    pub fn registry(&self) -> CounterRegistry {
        self.inner.borrow().reg.clone()
    }

    /// Lends the counter/histogram registry to `f` without copying it.
    ///
    /// # Panics
    ///
    /// Panics if `f` emits into this tracer through any handle: the
    /// registry is on loan for the call.
    pub fn with_registry<R>(&self, f: impl FnOnce(&CounterRegistry) -> R) -> R {
        f(&self.inner.borrow().reg)
    }

    /// Discards the buffered events, the drop count and the registry,
    /// so this handle and every clone of it read as a fresh tracer.
    pub fn clear(&self) {
        let mut state = self.inner.borrow_mut();
        state.buf.clear();
        state.reg = CounterRegistry::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_one_buffer() {
        let a = Tracer::with_capacity(16);
        let b = a.clone();
        a.span("vsu", "busy", "busy", 0, 5);
        b.instant("vmu", "req", "line", 3);
        assert_eq!(a.len(), 2);
        assert_eq!(b.events()[0].cat, "busy");
    }

    #[test]
    fn lent_events_equal_the_copy() {
        // Capacity 2 with three spans: the ring has wrapped.
        let t = Tracer::with_capacity(2);
        for ts in 0..3 {
            t.span("vsu", "busy", "busy", ts * 5, 5);
        }
        let copy = t.events();
        assert_eq!(t.with_events(<[TraceEvent]>::to_vec), copy);
        assert_eq!(copy.iter().map(|e| e.ts).collect::<Vec<_>>(), [5, 10]);
    }

    #[test]
    fn zero_duration_spans_are_skipped() {
        let t = Tracer::with_capacity(4);
        t.span("vsu", "busy", "busy", 7, 0);
        assert!(t.is_empty());
    }

    #[test]
    fn clear_starts_every_clone_over() {
        let a = Tracer::with_capacity(1);
        let b = a.clone();
        a.span("vsu", "busy", "busy", 0, 5);
        a.span("vsu", "busy", "busy", 5, 5);
        a.count("x", 2);
        assert_eq!(a.dropped(), 1);
        b.clear();
        assert!(a.is_empty());
        assert_eq!(a.dropped(), 0);
        assert!(a.registry().is_empty());
    }

    #[test]
    fn counters_and_histograms_flow_to_registry() {
        let t = Tracer::with_capacity(4);
        t.count("x", 2);
        t.record("lat", 31);
        let reg = t.registry();
        assert_eq!(reg.counter("x"), 2);
        assert_eq!(reg.histogram("lat").unwrap().max(), 31);
        assert_eq!(t.with_registry(|lent| lent.clone()), reg);
    }
}
