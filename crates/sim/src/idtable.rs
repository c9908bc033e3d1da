//! Dense map keyed by counter-allocated request ids.

use std::collections::{BTreeMap, VecDeque};

/// Widest id window kept dense. An id further than this from the live
/// window spills into the ordered fallback map instead of growing the ring.
const MAX_SPAN: u64 = 1 << 16;

/// A map from `u64` ids to values, specialised for ids handed out by a
/// monotone counter — the accelerator's memory request ids.
///
/// Live ids cluster in a sliding window `[base, base + slots.len())`, kept
/// as a ring of optional slots: insert, lookup and remove are O(1) index
/// arithmetic, and once the ring has grown to the working window no
/// operation allocates. Ids that would stretch the window past
/// `MAX_SPAN` (never produced by a counter, but legal) go to an ordered
/// spill map, so every id pattern stays correct.
///
/// Iteration is in ascending id order, so a snapshot taken through it does
/// not depend on the ring's layout.
///
/// # Example
///
/// ```rust
/// use matraptor_sim::IdTable;
///
/// let mut t = IdTable::new();
/// t.insert(7, "a");
/// t.insert(9, "b");
/// assert_eq!(t.remove(7), Some("a"));
/// assert_eq!(t.get(9), Some(&"b"));
/// assert_eq!(t.len(), 1);
/// assert_eq!(t.iter().collect::<Vec<_>>(), vec![(9, &"b")]);
/// ```
#[derive(Debug, Clone)]
pub struct IdTable<T> {
    /// Id of `slots[0]`.
    base: u64,
    /// Dense window; the front and back slots are always occupied.
    slots: VecDeque<Option<T>>,
    /// Occupied slots in `slots`.
    occupied: usize,
    /// Ids outside the dense window.
    spill: BTreeMap<u64, T>,
}

impl<T> Default for IdTable<T> {
    fn default() -> Self {
        IdTable { base: 0, slots: VecDeque::new(), occupied: 0, spill: BTreeMap::new() }
    }
}

impl<T> IdTable<T> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes every entry, keeping the storage.
    pub fn clear(&mut self) {
        self.base = 0;
        self.slots.clear();
        self.occupied = 0;
        self.spill.clear();
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.occupied + self.spill.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slot index of `id` if it lies inside the dense window.
    fn index(&self, id: u64) -> Option<usize> {
        let off = id.checked_sub(self.base)?;
        usize::try_from(off).ok().filter(|&i| i < self.slots.len())
    }

    /// Inserts `value` under `id`, returning the value it replaced.
    pub fn insert(&mut self, id: u64, value: T) -> Option<T> {
        if let Some(i) = self.index(id) {
            let old = self.slots[i].replace(value);
            if old.is_none() {
                self.occupied += 1;
                return self.spill.remove(&id);
            }
            return old;
        }
        let old = self.spill.remove(&id);
        let len = self.slots.len() as u64;
        if self.slots.is_empty() {
            self.base = id;
            self.slots.push_back(Some(value));
        } else if id > self.base && id - self.base < MAX_SPAN {
            // Bounded by MAX_SPAN, so the fill loop is short.
            for _ in len..id - self.base {
                self.slots.push_back(None);
            }
            self.slots.push_back(Some(value));
        } else if id < self.base && self.base - id <= MAX_SPAN - len {
            for _ in id + 1..self.base {
                self.slots.push_front(None);
            }
            self.slots.push_front(Some(value));
            self.base = id;
        } else {
            self.spill.insert(id, value);
            return old;
        }
        self.occupied += 1;
        old
    }

    /// The value under `id`.
    pub fn get(&self, id: u64) -> Option<&T> {
        match self.index(id).and_then(|i| self.slots[i].as_ref()) {
            Some(v) => Some(v),
            None if self.spill.is_empty() => None,
            None => self.spill.get(&id),
        }
    }

    /// The value under `id`, mutably.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        match self.index(id) {
            Some(i) if self.slots[i].is_some() => self.slots[i].as_mut(),
            _ if self.spill.is_empty() => None,
            _ => self.spill.get_mut(&id),
        }
    }

    /// Whether `id` is present.
    pub fn contains_key(&self, id: u64) -> bool {
        self.get(id).is_some()
    }

    /// Removes and returns the value under `id`.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let Some(i) = self.index(id) else {
            return if self.spill.is_empty() { None } else { self.spill.remove(&id) };
        };
        let Some(value) = self.slots[i].take() else {
            return if self.spill.is_empty() { None } else { self.spill.remove(&id) };
        };
        self.occupied -= 1;
        if self.occupied == 0 {
            self.slots.clear();
        } else {
            while self.slots.front().is_some_and(Option::is_none) {
                self.slots.pop_front();
                self.base += 1;
            }
            while self.slots.back().is_some_and(Option::is_none) {
                self.slots.pop_back();
            }
        }
        Some(value)
    }

    /// Entries in ascending id order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            base: self.base,
            dense: self.slots.iter().enumerate(),
            spill: self.spill.iter(),
            next_dense: None,
            next_spill: None,
        }
    }
}

impl<T> FromIterator<(u64, T)> for IdTable<T> {
    fn from_iter<I: IntoIterator<Item = (u64, T)>>(iter: I) -> Self {
        let mut t = IdTable::new();
        for (id, v) in iter {
            t.insert(id, v);
        }
        t
    }
}

/// Ascending-id iterator over an [`IdTable`]: merges the dense window with
/// the spill map.
#[derive(Debug, Clone)]
pub struct Iter<'a, T> {
    base: u64,
    dense: std::iter::Enumerate<std::collections::vec_deque::Iter<'a, Option<T>>>,
    spill: std::collections::btree_map::Iter<'a, u64, T>,
    next_dense: Option<(u64, &'a T)>,
    next_spill: Option<(u64, &'a T)>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = (u64, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next_dense.is_none() {
            let base = self.base;
            self.next_dense =
                self.dense.by_ref().find_map(|(i, slot)| Some((base + i as u64, slot.as_ref()?)));
        }
        if self.next_spill.is_none() {
            self.next_spill = self.spill.next().map(|(&id, v)| (id, v));
        }
        match (self.next_dense, self.next_spill) {
            (Some(d), Some(s)) if s.0 < d.0 => self.next_spill.take(),
            (Some(_), _) => self.next_dense.take(),
            (None, _) => self.next_spill.take(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Applies the same operations to an `IdTable` and a `BTreeMap` and
    /// checks they agree after every step.
    fn check_against_btree(ops: &[(bool, u64)]) {
        let mut t = IdTable::new();
        let mut m = BTreeMap::new();
        for (step, &(insert, id)) in ops.iter().enumerate() {
            if insert {
                assert_eq!(t.insert(id, step), m.insert(id, step), "insert {id}");
            } else {
                assert_eq!(t.remove(id), m.remove(&id), "remove {id}");
            }
            assert_eq!(t.len(), m.len());
            assert_eq!(t.get(id), m.get(&id));
            let got: Vec<(u64, usize)> = t.iter().map(|(k, &v)| (k, v)).collect();
            let want: Vec<(u64, usize)> = m.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(got, want, "after step {step}");
        }
    }

    #[test]
    fn counter_ids_stay_dense() {
        let mut t = IdTable::new();
        for id in 0..100u64 {
            t.insert(id, id * 2);
            if id >= 10 {
                assert_eq!(t.remove(id - 10), Some((id - 10) * 2));
            }
        }
        assert_eq!(t.len(), 10);
        assert!(t.spill.is_empty());
        assert_eq!(t.slots.len(), 10, "window trimmed to the live ids");
        assert_eq!(t.base, 90);
    }

    #[test]
    fn out_of_order_completion_matches_btree() {
        // Responses return out of issue order, as they do across channels.
        let mut ops = Vec::new();
        for id in 0..64u64 {
            ops.push((true, id));
            if id % 3 == 2 {
                ops.push((false, id - 1));
            }
            if id % 5 == 4 {
                ops.push((false, id - 4));
            }
        }
        for id in 0..64u64 {
            ops.push((false, id));
        }
        check_against_btree(&ops);
    }

    #[test]
    fn far_and_descending_ids_spill_and_merge_in_order() {
        let far = u64::MAX - 3;
        check_against_btree(&[
            (true, 1_000),
            (true, far),
            (true, 5),
            (true, 999),
            (true, 1_000 + MAX_SPAN),
            (true, 0),
            (false, 1_000),
            (true, 1_000),
            (false, far),
            (false, 5),
            (true, 7),
            (false, 1_000 + MAX_SPAN),
            (false, 0),
            (false, 999),
            (false, 1_000),
            (false, 7),
        ]);
    }

    #[test]
    fn ids_at_the_top_of_the_range() {
        let top = u64::MAX;
        check_against_btree(&[
            (true, top - 1),
            (true, top),
            (true, 0),
            (true, top - 5),
            (false, top - 1),
            (false, top),
            (false, top - 5),
            (false, 0),
        ]);
    }

    #[test]
    fn spilled_id_reentering_the_window_is_not_duplicated() {
        let mut t = IdTable::new();
        t.insert(MAX_SPAN + 10, 'a'); // window starts here
        t.insert(5, 'b'); // too far below: spills
        assert_eq!(t.remove(MAX_SPAN + 10), Some('a'));
        t.insert(4, 'c'); // the window restarts at 4
        assert_eq!(t.insert(5, 'd'), Some('b'), "the spilled entry is replaced, not shadowed");
        assert_eq!(t.len(), 2);
        assert_eq!(t.iter().map(|(k, &v)| (k, v)).collect::<Vec<_>>(), vec![(4, 'c'), (5, 'd')]);
    }

    #[test]
    fn get_mut_and_collect() {
        let mut t: IdTable<u32> = [(3, 1), (4, 2)].into_iter().collect();
        *t.get_mut(4).unwrap() += 10;
        assert_eq!(t.get(4), Some(&12));
        assert!(t.get_mut(5).is_none());
        assert!(t.contains_key(3));
        assert!(!t.contains_key(5));
    }
}
