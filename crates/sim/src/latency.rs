//! Fixed-latency delay line.

use std::collections::VecDeque;

use crate::codec::{Dec, Enc, Mismatch, Reader};
use crate::Cycle;

/// A delay line: items inserted at cycle *t* become visible at `t +
/// latency`.
///
/// Models fixed-latency hardware paths — DRAM access latency, crossbar
/// traversal, pipeline depth — on top of which the bandwidth-limiting
/// logic of the channel model sits. Unbounded: admission control belongs
/// to the [`crate::Fifo`] in front of it.
///
/// # Example
///
/// ```rust
/// use matraptor_sim::{Cycle, LatencyPipe};
///
/// let mut pipe = LatencyPipe::new(3);
/// pipe.push(Cycle(10), "req");
/// assert_eq!(pipe.pop_ready(Cycle(12)), None);      // still in flight
/// assert_eq!(pipe.pop_ready(Cycle(13)), Some("req"));
/// ```
#[derive(Debug, Clone)]
pub struct LatencyPipe<T> {
    // conformance:allow(checkpoint-coverage): fixed hardware constant; restore keeps it
    latency: u64,
    in_flight: VecDeque<(Cycle, T)>,
}

impl<T> LatencyPipe<T> {
    /// Creates a pipe with the given latency in cycles.
    pub fn new(latency: u64) -> Self {
        LatencyPipe { latency, in_flight: VecDeque::new() }
    }

    /// Inserts an item at time `now`; it matures at `now + latency`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if items are pushed out of time order
    /// (the cycle-driven top level always ticks monotonically).
    pub fn push(&mut self, now: Cycle, item: T) {
        let ready = now + self.latency;
        debug_assert!(
            self.in_flight.back().is_none_or(|(r, _)| *r <= ready),
            "latency pipe pushed out of order"
        );
        self.in_flight.push_back((ready, item));
    }

    /// Removes and returns the oldest item whose maturity time has been
    /// reached.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        if self.in_flight.front().is_some_and(|(ready, _)| *ready <= now) {
            self.in_flight.pop_front().map(|(_, item)| item)
        } else {
            None
        }
    }

    /// The maturity cycle of the oldest item, the next one
    /// [`pop_ready`](LatencyPipe::pop_ready) returns; `None` when empty.
    #[inline]
    pub fn next_ready(&self) -> Option<Cycle> {
        self.in_flight.front().map(|&(ready, _)| ready)
    }

    /// Items currently in flight (ready or not).
    pub fn len(&self) -> usize {
        self.in_flight.len()
    }

    /// Whether the pipe is empty.
    pub fn is_empty(&self) -> bool {
        self.in_flight.is_empty()
    }

    /// The configured latency in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Drops every in-flight item, keeping the storage.
    pub fn clear(&mut self) {
        self.in_flight.clear();
    }
}

impl<T: Enc> LatencyPipe<T> {
    /// Writes the in-flight items, oldest first, each with its maturity
    /// cycle (`push` time plus latency), into a checkpoint.
    pub fn snapshot(&self, out: &mut Vec<u8>) {
        self.in_flight.enc(out);
    }
}

impl<T: Dec> LatencyPipe<T> {
    /// Reads a [`LatencyPipe::snapshot`] back into this pipe, keeping its
    /// latency.
    ///
    /// # Errors
    ///
    /// [`Mismatch`] if the items are not in maturity order or the bytes are
    /// malformed.
    pub fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), Mismatch> {
        self.in_flight.clear();
        r.append(&mut self.in_flight)?;
        if self.in_flight.iter().zip(self.in_flight.iter().skip(1)).any(|(a, b)| a.0 > b.0) {
            return Err(Mismatch("a latency pipe's items are out of maturity order"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_mature_in_order_after_latency() {
        let mut p = LatencyPipe::new(5);
        p.push(Cycle(0), 'a');
        p.push(Cycle(2), 'b');
        assert_eq!(p.pop_ready(Cycle(4)), None);
        assert_eq!(p.pop_ready(Cycle(5)), Some('a'));
        assert_eq!(p.pop_ready(Cycle(5)), None);
        assert_eq!(p.pop_ready(Cycle(7)), Some('b'));
        assert!(p.is_empty());
    }

    #[test]
    fn zero_latency_is_same_cycle() {
        let mut p = LatencyPipe::new(0);
        p.push(Cycle(3), 1);
        assert_eq!(p.pop_ready(Cycle(3)), Some(1));
    }

    #[test]
    fn next_ready_is_the_oldest_items_maturity() {
        let mut p = LatencyPipe::new(4);
        assert_eq!(p.next_ready(), None);
        p.push(Cycle(1), 'a');
        p.push(Cycle(3), 'b');
        assert_eq!(p.next_ready(), Some(Cycle(5)));
        assert_eq!(p.pop_ready(Cycle(5)), Some('a'));
        assert_eq!(p.next_ready(), Some(Cycle(7)));
    }

    #[test]
    fn multiple_ready_pop_one_per_call() {
        let mut p = LatencyPipe::new(1);
        p.push(Cycle(0), 1);
        p.push(Cycle(0), 2);
        assert_eq!(p.pop_ready(Cycle(10)), Some(1));
        assert_eq!(p.pop_ready(Cycle(10)), Some(2));
    }
}
