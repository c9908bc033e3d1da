//! Poison-input quarantine.
//!
//! Under the persistent-fault model an operand pair that faults will fault
//! again on every retry — resubmitting it just burns cycles and re-trips
//! the circuit breaker for everyone. The quarantine counts *resolved
//! failures* (not individual attempts) per input fingerprint and refuses
//! pairs permanently once they cross a threshold.
//!
//! Deadline cancellations do **not** strike: a deadline kill reflects the
//! submitting tenant's budget policy, not input health — the same pair may
//! be perfectly serviceable under another tenant's looser deadline.
//!
//! The strike table is *bounded*: at fleet scale (tens of thousands of
//! distinct operand pairs per campaign) an unbounded warning table is a
//! slow memory leak. Sub-threshold entries are capped at a configurable
//! capacity with deterministic oldest-first eviction; entries that have
//! crossed into quarantine are the protective memory of the service and
//! are **never** evicted.

use std::collections::BTreeMap;

/// Default cap on sub-threshold warning entries: generous enough that a
/// single-machine campaign never evicts (preserving historical reports
/// byte-for-byte), small enough to bound a 10k-job fleet campaign.
pub const DEFAULT_STRIKE_CAPACITY: usize = 4096;

/// One fingerprint's standing: how many resolved failures, and when the
/// entry was created (a logical sequence number, for oldest-first
/// eviction).
#[derive(Debug, Clone, Copy)]
struct Strike {
    count: u32,
    seq: u64,
}

/// Strike counter keyed by
/// [`Operands::fingerprint`](matraptor_core::Operands::fingerprint) values.
#[derive(Debug)]
pub struct Quarantine {
    threshold: u32,
    capacity: usize,
    strikes: BTreeMap<u64, Strike>,
    quarantined: usize,
    seq: u64,
}

impl Quarantine {
    /// An empty quarantine refusing inputs after `threshold` resolved
    /// failures, with the default warning-table capacity. A zero threshold
    /// is clamped to 1 (refuse-after-first).
    pub fn new(threshold: u32) -> Self {
        Quarantine::with_capacity(threshold, DEFAULT_STRIKE_CAPACITY)
    }

    /// As [`Quarantine::new`] with an explicit cap on *sub-threshold*
    /// entries (clamped to ≥ 1). Quarantined entries never count against
    /// the cap and are never evicted.
    pub fn with_capacity(threshold: u32, capacity: usize) -> Self {
        Quarantine {
            threshold: threshold.max(1),
            capacity: capacity.max(1),
            strikes: BTreeMap::new(),
            quarantined: 0,
            seq: 0,
        }
    }

    /// Whether this fingerprint is permanently refused.
    pub fn is_quarantined(&self, fingerprint: u64) -> bool {
        self.strikes.get(&fingerprint).is_some_and(|s| s.count >= self.threshold)
    }

    /// Record one resolved failure for `fingerprint`. Returns `true` the
    /// moment the pair crosses into quarantine (exactly once).
    ///
    /// A strike against a fingerprint not yet in the table may first evict
    /// the oldest sub-threshold entry to stay within capacity — that
    /// entry's warnings are forgotten (it starts from zero if seen again),
    /// a deliberate trade: bounded memory over perfect recall of
    /// one-strike offenders.
    pub fn strike(&mut self, fingerprint: u64) -> bool {
        if !self.strikes.contains_key(&fingerprint) && self.warning_count() >= self.capacity {
            self.evict_oldest_warning();
        }
        let seq = self.seq;
        self.seq = self.seq.saturating_add(1);
        let s = self.strikes.entry(fingerprint).or_insert(Strike { count: 0, seq });
        s.count = s.count.saturating_add(1);
        if s.count == self.threshold {
            self.quarantined += 1;
            true
        } else {
            false
        }
    }

    /// Number of distinct fingerprints currently quarantined.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined
    }

    /// Total tracked fingerprints (warnings + quarantined).
    pub fn len(&self) -> usize {
        self.strikes.len()
    }

    /// Whether nothing is tracked at all.
    pub fn is_empty(&self) -> bool {
        self.strikes.is_empty()
    }

    /// The sub-threshold entry cap this table was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Sub-threshold entries currently tracked.
    fn warning_count(&self) -> usize {
        self.strikes.len() - self.quarantined
    }

    /// Remove the sub-threshold entry with the smallest sequence number —
    /// the oldest warning. Deterministic: sequence numbers are unique, so
    /// the minimum is too.
    fn evict_oldest_warning(&mut self) {
        let oldest = self
            .strikes
            .iter()
            .filter(|(_, s)| s.count < self.threshold)
            .min_by_key(|(_, s)| s.seq)
            .map(|(fp, _)| *fp);
        if let Some(fp) = oldest {
            self.strikes.remove(&fp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarantines_exactly_at_the_threshold() {
        let mut q = Quarantine::new(2);
        assert!(!q.is_quarantined(7));
        assert!(!q.strike(7), "first strike is a warning");
        assert!(!q.is_quarantined(7));
        assert!(q.strike(7), "second strike crosses the threshold");
        assert!(q.is_quarantined(7));
        assert!(!q.strike(7), "crossing is reported only once");
        assert_eq!(q.quarantined_count(), 1);
    }

    #[test]
    fn fingerprints_are_independent() {
        let mut q = Quarantine::new(2);
        q.strike(1);
        q.strike(2);
        assert!(!q.is_quarantined(1));
        assert!(!q.is_quarantined(2));
        q.strike(1);
        assert!(q.is_quarantined(1));
        assert!(!q.is_quarantined(2));
    }

    #[test]
    fn zero_threshold_is_clamped_to_refuse_after_first() {
        let mut q = Quarantine::new(0);
        assert!(q.strike(9));
        assert!(q.is_quarantined(9));
    }

    #[test]
    fn capacity_evicts_the_oldest_warning_deterministically() {
        let mut q = Quarantine::with_capacity(2, 2);
        q.strike(10); // oldest warning
        q.strike(20);
        assert_eq!(q.len(), 2);
        // A third distinct fingerprint evicts fingerprint 10, not 20.
        q.strike(30);
        assert_eq!(q.len(), 2);
        // 10 was forgotten: one more strike is again only a warning.
        assert!(!q.strike(10), "evicted entry restarts from zero");
        // That strike in turn evicted 20 (now the oldest), keeping 30.
        q.strike(30);
        assert!(q.is_quarantined(30));
    }

    #[test]
    fn quarantined_entries_are_never_evicted() {
        let mut q = Quarantine::with_capacity(1, 2);
        // Threshold 1: every strike quarantines immediately, so the table
        // may grow past the warning capacity without evicting anything.
        for fp in 0..10 {
            assert!(q.strike(fp));
        }
        assert_eq!(q.quarantined_count(), 10);
        assert_eq!(q.len(), 10, "quarantined entries never count against the cap");
        for fp in 0..10 {
            assert!(q.is_quarantined(fp), "fingerprint {fp} must stay quarantined");
        }
    }

    #[test]
    fn eviction_skips_quarantined_entries_mixed_with_warnings() {
        let mut q = Quarantine::with_capacity(2, 2);
        q.strike(1);
        q.strike(1); // quarantined — exempt from the cap
        q.strike(2); // warning (oldest)
        q.strike(3); // warning — cap reached
        q.strike(4); // evicts 2, not the quarantined 1
        assert!(q.is_quarantined(1));
        assert_eq!(q.len(), 3, "one quarantined + two warnings");
        assert!(!q.strike(2), "2 was evicted and restarts from zero");
    }

    #[test]
    fn capacity_reports_and_clamps() {
        assert_eq!(Quarantine::with_capacity(2, 0).capacity(), 1);
        assert_eq!(Quarantine::new(2).capacity(), DEFAULT_STRIKE_CAPACITY);
        let q = Quarantine::new(2);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }
}
