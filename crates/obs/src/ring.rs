//! The bounded buffer behind the event [`Tracer`](crate::Tracer) and the
//! [`SpanRecorder`](crate::SpanRecorder).

use std::collections::VecDeque;

/// A bounded FIFO: when full, pushing drops the oldest entry and advances a
/// drop counter, so recording can stay on for arbitrarily long runs.
#[derive(Debug)]
pub(crate) struct Ring<T> {
    buf: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    /// A ring keeping the most recent `capacity` entries (clamped to at
    /// least 1).
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Ring {
            buf: VecDeque::with_capacity(capacity.min(1 << 16)),
            capacity,
            dropped: 0,
        }
    }

    pub(crate) fn push(&mut self, item: T) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(item);
    }

    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }

    /// Removes and returns every entry, oldest first, and resets the drop
    /// counter.
    pub(crate) fn drain(&mut self) -> Vec<T> {
        self.dropped = 0;
        self.buf.drain(..).collect()
    }
}
