//! The PE's sorting queues (Section IV-A's merge hardware).

use std::collections::VecDeque;

use matraptor_sim::codec::{Dec, Enc, Mismatch, Reader};

/// One sorting queue: a FIFO of `(col id, value)` pairs that maintains the
/// invariant that column ids are strictly increasing from front to back.
///
/// Implemented as SRAM in the real design (4 KB each, Table I's dominant
/// area/power component); here a `VecDeque` with the same capacity bound
/// and the same single-push/single-pop per cycle discipline (enforced by
/// the PE, not the queue).
#[derive(Debug, Clone)]
pub(crate) struct SortQueue {
    entries: VecDeque<(u32, f64)>,
    // conformance:allow(checkpoint-coverage): fixed capacity from the config; restore checks against it
    capacity: usize,
}

impl SortQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        SortQueue { entries: VecDeque::with_capacity(capacity), capacity }
    }

    /// Appends an entry; the caller guarantees sortedness and capacity.
    ///
    /// # Panics
    ///
    /// Panics if the push would break the sorted invariant or exceed
    /// capacity — both indicate PE control bugs, checked eagerly.
    pub(crate) fn push(&mut self, col: u32, val: f64) {
        assert!(self.entries.len() < self.capacity, "sorting queue overflow");
        if let Some(&(back, _)) = self.entries.back() {
            assert!(col > back, "sorting queue push out of order: {col} after {back}");
        }
        self.entries.push_back((col, val));
    }

    pub(crate) fn pop(&mut self) -> Option<(u32, f64)> {
        self.entries.pop_front()
    }

    pub(crate) fn front_col(&self) -> Option<u32> {
        self.entries.front().map(|&(c, _)| c)
    }

    pub(crate) fn front(&self) -> Option<(u32, f64)> {
        self.entries.front().copied()
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub(crate) fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    /// Writes the entries front-to-back into a checkpoint.
    pub(crate) fn snapshot(&self, out: &mut Vec<u8>) {
        self.entries.enc(out);
    }

    /// Reads a [`SortQueue::snapshot`] back into this queue.
    ///
    /// # Errors
    ///
    /// [`Mismatch`] if the entries exceed the capacity or are out of
    /// column order, or the bytes are malformed.
    pub(crate) fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), Mismatch> {
        self.entries.clear();
        r.append(&mut self.entries)?;
        if self.entries.len() > self.capacity {
            return Err(Mismatch("a sorting queue holds more entries than its capacity"));
        }
        if self.entries.iter().zip(self.entries.iter().skip(1)).any(|(a, b)| a.0 >= b.0) {
            return Err(Mismatch("a sorting queue is out of column order"));
        }
        Ok(())
    }
}

/// How the PE should absorb the next partial-sum vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VectorMode {
    /// An empty primary queue is available: stream the vector straight in
    /// (the "first Q−1 vectors" case).
    Direct {
        /// Index of the receiving queue.
        queue: usize,
    },
    /// All primaries occupied: two-way merge the vector with the
    /// least-occupied primary into the helper queue.
    Merge {
        /// Queue being merged with the incoming vector.
        src: usize,
        /// Helper queue receiving the merged stream.
        helper: usize,
    },
}

/// One of the PE's two queue sets: Q−1 primary queues plus one helper.
#[derive(Debug, Clone)]
pub(crate) struct QueueSet {
    queues: Vec<SortQueue>,
    helper: usize,
    /// Queues filled directly and still counting as "occupied primaries"
    /// even if the vector was empty.
    occupied: Vec<bool>,
}

impl QueueSet {
    pub(crate) fn new(num_queues: usize, capacity: usize) -> Self {
        assert!(num_queues > 2, "need Q > 2 queues");
        QueueSet {
            queues: (0..num_queues).map(|_| SortQueue::new(capacity)).collect(),
            helper: num_queues - 1,
            occupied: vec![false; num_queues],
        }
    }

    /// Decides where the next partial-sum vector goes (Section IV-A's
    /// policy): an empty unoccupied primary if one exists, else merge with
    /// the shortest primary through the helper.
    pub(crate) fn start_vector(&mut self) -> VectorMode {
        let free = (0..self.queues.len())
            .find(|&q| q != self.helper && !self.occupied[q] && self.queues[q].is_empty());
        if let Some(queue) = free {
            self.occupied[queue] = true;
            VectorMode::Direct { queue }
        } else {
            let src = (0..self.queues.len())
                .filter(|&q| q != self.helper)
                .min_by_key(|&q| self.queues[q].len())
                // conformance:allow(panic-safety): invariant: a queue set always has at least one primary queue
                .expect("at least one primary");
            VectorMode::Merge { src, helper: self.helper }
        }
    }

    /// Completes a merge: the drained `src` becomes the new helper and the
    /// filled helper takes `src`'s place as a primary.
    pub(crate) fn finish_merge(&mut self, src: usize, helper: usize) {
        debug_assert!(self.queues[src].is_empty(), "merge source must be drained");
        debug_assert_eq!(helper, self.helper);
        self.occupied[helper] = true;
        self.occupied[src] = false;
        self.helper = src;
    }

    pub(crate) fn queue(&mut self, idx: usize) -> &mut SortQueue {
        &mut self.queues[idx]
    }

    pub(crate) fn queue_ref(&self, idx: usize) -> &SortQueue {
        &self.queues[idx]
    }

    /// Phase II step: pops every queue whose front column equals the
    /// global minimum and returns `(col, sum, queues_popped)` — the
    /// min-column-id selection plus adder tree of Fig. 5b.
    ///
    /// One pass over the fronts finds the minimum and sums the values
    /// tied at it in queue order, from `0.0`, restarting at each smaller
    /// column; only the queues from the first tie to the last are then
    /// revisited to pop.
    pub(crate) fn pop_min(&mut self) -> Option<(u32, f64, usize)> {
        let mut min = None;
        let (mut sum, mut popped, mut first, mut last) = (0.0, 0, 0, 0);
        for (q, queue) in self.queues.iter().enumerate() {
            let Some((col, val)) = queue.front() else { continue };
            if min.is_none_or(|m| col < m) {
                min = Some(col);
                (sum, popped, first) = (0.0, 0, q);
            } else if min != Some(col) {
                continue;
            }
            sum += val;
            popped += 1;
            last = q;
        }
        let min = min?;
        for queue in &mut self.queues[first..=last] {
            if queue.front_col() == Some(min) {
                queue.pop();
            }
        }
        Some((min, sum, popped))
    }

    pub(crate) fn total_entries(&self) -> usize {
        self.queues.iter().map(SortQueue::len).sum()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.queues.iter().all(SortQueue::is_empty)
    }

    /// Resets occupancy tracking for a new output row (queues must already
    /// be drained by Phase II).
    pub(crate) fn reset_for_new_row(&mut self) {
        debug_assert!(self.is_empty(), "reset with residual entries");
        for q in &mut self.queues {
            q.clear();
        }
        for o in &mut self.occupied {
            *o = false;
        }
    }

    /// Writes the queues, helper index, and occupancy into a checkpoint.
    pub(crate) fn snapshot(&self, out: &mut Vec<u8>) {
        self.queues.len().enc(out);
        self.queues.iter().for_each(|q| q.snapshot(out));
        (self.helper, &self.occupied).enc(out);
    }

    /// Reads a [`QueueSet::snapshot`] back into a set of the same shape.
    ///
    /// # Errors
    ///
    /// [`Mismatch`] if the checkpoint holds another number of queues, a
    /// queue that breaks its capacity or order, a helper index out of
    /// range, or malformed bytes.
    pub(crate) fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), Mismatch> {
        r.count_of(self.queues.len(), "a PE queue set holds another number of queues")?;
        for q in &mut self.queues {
            q.restore(r)?;
        }
        self.helper = usize::dec(r)?;
        if self.helper >= self.queues.len() {
            return Err(Mismatch("a PE helper queue index is out of range"));
        }
        r.count_of(self.occupied.len(), "a PE queue set holds another number of queues")?;
        for o in &mut self.occupied {
            *o = bool::dec(r)?;
        }
        Ok(())
    }

    /// Returns the set to its power-on state: empty, with the last queue
    /// as the helper.
    pub(crate) fn reset(&mut self) {
        self.hard_clear();
        self.helper = self.queues.len() - 1;
    }

    /// Drops all state (overflow recovery).
    pub(crate) fn hard_clear(&mut self) {
        for q in &mut self.queues {
            q.clear();
        }
        for o in &mut self.occupied {
            *o = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_queue_enforces_order_and_capacity() {
        let mut q = SortQueue::new(2);
        q.push(1, 1.0);
        q.push(5, 2.0);
        assert!(q.is_full());
        assert_eq!(q.front_col(), Some(1));
        assert_eq!(q.pop(), Some((1, 1.0)));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn unsorted_push_panics() {
        let mut q = SortQueue::new(4);
        q.push(5, 1.0);
        q.push(5, 2.0);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overfull_push_panics() {
        let mut q = SortQueue::new(1);
        q.push(1, 1.0);
        q.push(2, 2.0);
    }

    #[test]
    fn first_vectors_go_direct_then_merge() {
        // Q = 4: three primaries, one helper (index 3).
        let mut s = QueueSet::new(4, 16);
        let m1 = s.start_vector();
        assert_eq!(m1, VectorMode::Direct { queue: 0 });
        s.queue(0).push(1, 1.0);
        let m2 = s.start_vector();
        assert_eq!(m2, VectorMode::Direct { queue: 1 });
        // Leave queue 1 empty (empty B row) — still occupied.
        let m3 = s.start_vector();
        assert_eq!(m3, VectorMode::Direct { queue: 2 });
        s.queue(2).push(4, 4.0);
        // Fourth vector must merge with the shortest primary (queue 1).
        match s.start_vector() {
            VectorMode::Merge { src, helper } => {
                assert_eq!(src, 1);
                assert_eq!(helper, 3);
            }
            other => panic!("expected merge, got {other:?}"),
        }
    }

    #[test]
    fn merge_rotates_helper() {
        let mut s = QueueSet::new(3, 16);
        s.start_vector(); // direct into 0
        s.queue(0).push(1, 1.0);
        s.start_vector(); // direct into 1
        s.queue(1).push(2, 2.0);
        let (src, helper) = match s.start_vector() {
            VectorMode::Merge { src, helper } => (src, helper),
            m => panic!("unexpected {m:?}"),
        };
        // Simulate the merge: drain src into helper.
        while let Some((c, v)) = s.queue(src).pop() {
            s.queue(helper).push(c, v);
        }
        s.finish_merge(src, helper);
        // New helper is the drained src.
        match s.start_vector() {
            VectorMode::Merge { helper: h2, .. } => assert_eq!(h2, src),
            m => panic!("unexpected {m:?}"),
        }
    }

    #[test]
    fn pop_min_sums_equal_columns_across_queues() {
        let mut s = QueueSet::new(4, 16);
        s.queue(0).push(3, 1.0);
        s.queue(0).push(7, 9.0);
        s.queue(1).push(3, 2.0);
        s.queue(2).push(5, 4.0);
        let (c, v, n) = s.pop_min().unwrap();
        assert_eq!((c, n), (3, 2));
        assert!((v - 3.0).abs() < 1e-12);
        let (c, v, n) = s.pop_min().unwrap();
        assert_eq!((c, v as i64, n), (5, 4, 1));
        let (c, ..) = s.pop_min().unwrap();
        assert_eq!(c, 7);
        assert!(s.pop_min().is_none());
    }

    /// The two-pass Phase II step: find the minimum front column, then
    /// pop and sum every queue holding it, in queue order.
    fn two_pass_pop_min(set: &mut QueueSet) -> Option<(u32, f64, usize)> {
        let min = set.queues.iter().filter_map(SortQueue::front_col).min()?;
        let mut sum = 0.0;
        let mut popped = 0;
        for q in &mut set.queues {
            if q.front_col() == Some(min) {
                sum += q.pop().unwrap().1;
                popped += 1;
            }
        }
        Some((min, sum, popped))
    }

    #[test]
    fn one_pass_pop_min_equals_the_two_pass_reference() {
        use matraptor_sparse::rng::ChaCha8Rng;
        for seed in 0..200u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let queues = rng.gen_range(3usize..12);
            let mut set = QueueSet::new(queues, 16);
            // A narrow column range makes ties common. Every set is
            // drained to empty, where both picks must return `None`.
            let cols = rng.gen_range(1u32..24);
            let fill = rng.gen_range(0.0..1.0);
            for q in 0..queues {
                for col in 0..cols {
                    if set.queue(q).is_full() || !rng.gen_bool(fill) {
                        continue;
                    }
                    let val = match rng.gen_range(0usize..8) {
                        0 => -0.0,
                        1 => 0.0,
                        _ => rng.gen_range(-1e3..1e3),
                    };
                    set.queue(q).push(col, val);
                }
            }
            let mut reference = set.clone();
            loop {
                let (got, want) = (set.pop_min(), two_pass_pop_min(&mut reference));
                let bits = |r: Option<(u32, f64, usize)>| r.map(|(c, v, n)| (c, v.to_bits(), n));
                assert_eq!(bits(got), bits(want), "seed {seed}");
                if got.is_none() {
                    break;
                }
            }
            assert!(set.is_empty());
        }
    }

    #[test]
    fn pop_min_drains_to_empty_and_reset() {
        let mut s = QueueSet::new(3, 4);
        s.queue(0).push(1, 1.0);
        while s.pop_min().is_some() {}
        assert!(s.is_empty());
        s.reset_for_new_row();
        assert_eq!(s.start_vector(), VectorMode::Direct { queue: 0 });
    }
}
