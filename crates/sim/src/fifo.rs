//! Bounded FIFO with backpressure.

use std::collections::VecDeque;

use crate::codec::{Dec, Enc, Mismatch, Reader};

/// A bounded hardware FIFO.
///
/// Models the paper's "outstanding requests and responses queues" (64
/// entries in the evaluated configuration) and every other producer/
/// consumer coupling in the pipeline. A full FIFO exerts backpressure —
/// callers must check [`Fifo::is_full`] (or use [`Fifo::try_push`]) and
/// stall, exactly as the hardware would.
///
/// # Example
///
/// ```rust
/// use matraptor_sim::Fifo;
///
/// let mut q = Fifo::new(2);
/// assert!(q.try_push(1).is_ok());
/// assert!(q.try_push(2).is_ok());
/// assert_eq!(q.try_push(3), Err(3)); // backpressure
/// assert_eq!(q.pop(), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct Fifo<T> {
    items: VecDeque<T>,
    // conformance:allow(checkpoint-coverage): fixed hardware constant; restore keeps it
    capacity: usize,
    /// Lifetime count of accepted pushes, for occupancy statistics.
    total_pushed: u64,
}

impl<T> Fifo<T> {
    /// Creates a FIFO holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` — a zero-depth queue cannot transport
    /// anything and always indicates a mis-configured pipeline.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "FIFO capacity must be positive");
        Fifo { items: VecDeque::with_capacity(capacity), capacity, total_pushed: 0 }
    }

    /// Attempts to enqueue; hands the item back if the FIFO is full.
    #[must_use = "the Err hands the rejected item back; dropping it loses the item"]
    pub fn try_push(&mut self, item: T) -> Result<(), T> {
        if self.items.len() >= self.capacity {
            Err(item)
        } else {
            self.items.push_back(item);
            self.total_pushed += 1;
            Ok(())
        }
    }

    /// Dequeues the oldest item, if any.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Peeks at the oldest item without removing it.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the FIFO is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the FIFO is exerting backpressure.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Configured depth.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Free slots remaining.
    pub fn free(&self) -> usize {
        self.capacity - self.items.len()
    }

    /// Lifetime count of accepted pushes.
    pub fn total_pushed(&self) -> u64 {
        self.total_pushed
    }

    /// The `i`-th oldest item, if the FIFO holds that many.
    pub fn get(&self, i: usize) -> Option<&T> {
        self.items.get(i)
    }

    /// Iterates oldest-to-newest without consuming.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Empties the FIFO and zeroes its push count, keeping its storage.
    pub fn clear(&mut self) {
        self.items.clear();
        self.total_pushed = 0;
    }

    /// Reads a [`Fifo::snapshot`] back into this FIFO, keeping its
    /// storage, with `item` reading each entry.
    ///
    /// # Errors
    ///
    /// [`Mismatch`] if the checkpoint holds more entries than the capacity
    /// or its bytes are malformed.
    pub fn restore(
        &mut self,
        r: &mut Reader<'_>,
        mut item: impl FnMut(&mut Reader<'_>) -> Result<T, Mismatch>,
    ) -> Result<(), Mismatch> {
        let n = r.count()?;
        if n > self.capacity {
            return Err(Mismatch("a FIFO holds more entries than its capacity"));
        }
        self.items.clear();
        for _ in 0..n {
            self.items.push_back(item(r)?);
        }
        self.total_pushed = u64::dec(r)?;
        Ok(())
    }
}

impl<T: Enc> Fifo<T> {
    /// Writes the contents (oldest first) and the lifetime push count into
    /// a checkpoint. Read it back with [`Fifo::restore`].
    pub fn snapshot(&self, out: &mut Vec<u8>) {
        self.items.enc(out);
        self.total_pushed.enc(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_ordering() {
        let mut q = Fifo::new(3);
        for i in 0..3 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        q.try_push(9).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(9));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn backpressure() {
        let mut q = Fifo::new(1);
        q.try_push("a").unwrap();
        assert!(q.is_full());
        assert_eq!(q.try_push("b"), Err("b"));
        q.pop();
        assert!(q.try_push("b").is_ok());
    }

    #[test]
    fn occupancy_accounting() {
        let mut q = Fifo::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.free(), 2);
        assert_eq!(q.total_pushed(), 2);
        q.pop();
        assert_eq!(q.total_pushed(), 2, "pops must not affect push count");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Fifo::<u8>::new(0);
    }

    #[test]
    fn front_peeks() {
        let mut q = Fifo::new(2);
        q.try_push(7).unwrap();
        assert_eq!(q.front(), Some(&7));
        assert_eq!(q.len(), 1, "peek must not consume");
    }
}
