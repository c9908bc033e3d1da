//! Bounded FIFO with backpressure.

use std::collections::VecDeque;

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

    /// Replaces the contents with `items` (oldest first) and the lifetime
    /// push count with `total_pushed`, keeping the storage: restores a
    /// [`Fifo::snapshot`] capture into a FIFO of the same capacity.
    ///
    /// # Panics
    ///
    /// Panics if `items` exceed the capacity — a snapshot can only have
    /// come from a FIFO that respected its own bound.
    pub fn restore(&mut self, items: impl IntoIterator<Item = T>, total_pushed: u64) {
        self.items.clear();
        self.items.extend(items);
        assert!(self.items.len() <= self.capacity, "snapshot exceeds FIFO capacity");
        self.total_pushed = total_pushed;
    }
}

impl<T: Clone> Fifo<T> {
    /// Captures the queue contents (oldest first) and the lifetime push
    /// count as plain data, for checkpointing. Load it back with
    /// [`Fifo::restore`].
    pub fn snapshot(&self) -> (Vec<T>, u64) {
        (self.items.iter().cloned().collect(), self.total_pushed)
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
