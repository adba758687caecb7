//! The bounded event ring buffer.

use crate::event::TraceEvent;
use std::collections::VecDeque;

/// A ring buffer of trace events with a hard capacity.
///
/// When full, pushing drops the *oldest* event and counts the loss, so
/// a long run keeps its most recent window rather than aborting. The
/// attribution auditor checks [`TraceBuffer::dropped`] and refuses to
/// certify a lossy trace (a partial timeline cannot tile).
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceBuffer {
    /// A buffer holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace buffer needs nonzero capacity");
        Self {
            events: VecDeque::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Buffered event count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted by overflow since creation.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Discards every buffered event and the drop count.
    pub(crate) fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
    }

    /// Iterates the buffered events in emission order.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// The buffered events as one slice, in emission order. The ring
    /// is rotated into place first, which is O(1) unless it has
    /// wrapped.
    pub fn make_contiguous(&mut self) -> &[TraceEvent] {
        self.events.make_contiguous()
    }

    /// Copies the buffered events out in emission order.
    #[must_use]
    pub fn to_vec(&self) -> Vec<TraceEvent> {
        self.events.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(ts: u64) -> TraceEvent {
        TraceEvent {
            track: "t",
            cat: "c",
            name: "n",
            ts,
            dur: 1,
            kind: EventKind::Span,
            arg: None,
        }
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let mut b = TraceBuffer::new(3);
        for ts in 0..5 {
            b.push(ev(ts));
        }
        assert_eq!(b.len(), 3);
        assert_eq!(b.dropped(), 2);
        let kept: Vec<u64> = b.iter().map(|e| e.ts).collect();
        assert_eq!(kept, [2, 3, 4]);
        let lent: Vec<u64> = b.make_contiguous().iter().map(|e| e.ts).collect();
        assert_eq!(lent, kept);
    }

    #[test]
    fn lossless_until_capacity() {
        let mut b = TraceBuffer::new(8);
        for ts in 0..8 {
            b.push(ev(ts));
        }
        assert_eq!(b.dropped(), 0);
        assert_eq!(b.to_vec().len(), 8);
    }
}
