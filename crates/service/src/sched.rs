//! Deficit-round-robin (DRR) scheduling over weighted per-tenant queues.
//!
//! Each tenant owns a bounded FIFO. The scheduler visits tenants in a
//! fixed round-robin order; on each visit the tenant's *deficit* grows by
//! its grant (`quantum × weight`) and the tenant may serve head jobs for
//! as long as the deficit covers their cost. Jobs are costed by their
//! cycle deadline — a monotone proxy for worst-case service time — so a
//! tenant with weight 4 moves roughly 4× the cycles per round of a
//! weight-1 tenant, regardless of how its work is split into jobs.
//!
//! Determinism: tenants are a fixed `Vec`, queues are FIFOs, and the
//! cursor/deficit evolution depends only on the submission sequence.

use std::collections::VecDeque;

use matraptor_core::{FaultPlan, Operands};
use matraptor_sim::Cycle;

use crate::job::{JobId, TenantId};

/// An admitted job waiting for dispatch; `M` is the operand handle.
#[derive(Debug, Clone)]
pub(crate) struct Pending<M> {
    pub id: JobId,
    pub tenant: TenantId,
    /// The operands admission checked, with their flop count (the
    /// deadline's estimate) and pair fingerprint (the quarantine key).
    pub operands: Operands<M>,
    pub plan: Option<FaultPlan>,
    pub deadline_cycles: u64,
    pub submitted_at: Cycle,
}

/// The scheduler. One queue, weight, and deficit per tenant.
#[derive(Debug)]
pub(crate) struct DrrScheduler<M> {
    queues: Vec<VecDeque<Pending<M>>>,
    capacities: Vec<usize>,
    grants: Vec<u64>,
    deficits: Vec<u64>,
    cursor: usize,
    /// Whether the cursor tenant has already received its grant for the
    /// current visit (cleared whenever the cursor advances). Without this
    /// flag a tenant re-granted on every `pop` call could be served
    /// forever, starving the others.
    granted: bool,
    len: usize,
}

impl<M> DrrScheduler<M> {
    /// `weights_and_capacities[i]` configures tenant `i`. Weights are
    /// clamped to ≥ 1 so every tenant always accrues deficit.
    pub(crate) fn new(quantum: u64, weights_and_capacities: &[(u64, usize)]) -> Self {
        let q = quantum.max(1);
        DrrScheduler {
            queues: weights_and_capacities.iter().map(|_| VecDeque::new()).collect(),
            capacities: weights_and_capacities.iter().map(|&(_, c)| c).collect(),
            grants: weights_and_capacities
                .iter()
                .map(|&(w, _)| q.saturating_mul(w.max(1)))
                .collect(),
            deficits: vec![0; weights_and_capacities.len()],
            cursor: 0,
            granted: false,
            len: 0,
        }
    }

    /// Jobs waiting across all tenants.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Admit a job to its tenant's queue, or report the bounded queue full
    /// (the job is handed back for explicit backpressure).
    pub(crate) fn try_enqueue(&mut self, job: Pending<M>) -> Result<(), Pending<M>> {
        let t = job.tenant.0;
        let (Some(queue), Some(cap)) = (self.queues.get_mut(t), self.capacities.get(t)) else {
            return Err(job);
        };
        if queue.len() >= *cap {
            return Err(job);
        }
        queue.push_back(job);
        self.len = self.len.saturating_add(1);
        Ok(())
    }

    /// Remove a queued job by id (mid-queue cancellation), handing the
    /// job back. Deterministic: queues are scanned in tenant order, and a
    /// job id appears at most once across all queues. Deficits are left
    /// untouched — the cancelled job never consumed any.
    pub(crate) fn remove(&mut self, id: JobId) -> Option<Pending<M>> {
        for queue in &mut self.queues {
            if let Some(pos) = queue.iter().position(|p| p.id == id) {
                let job = queue.remove(pos)?;
                self.len = self.len.saturating_sub(1);
                return Some(job);
            }
        }
        None
    }

    /// Dispatch the next job under DRR, or `None` when idle.
    pub(crate) fn pop(&mut self) -> Option<Pending<M>> {
        if self.len == 0 {
            return None;
        }
        let n = self.queues.len();
        // Up to one full granted round; if nothing was affordable, pay the
        // missing rounds in bulk and scan again (see `bulk_grant`).
        for pass in 0..2 {
            for _ in 0..=n {
                let t = self.cursor;
                if self.queues[t].is_empty() {
                    // An emptied queue forfeits its savings (standard DRR:
                    // deficit must not accrue while idle).
                    self.deficits[t] = 0;
                    self.advance();
                    continue;
                }
                if !self.granted {
                    self.deficits[t] = self.deficits[t].saturating_add(self.grants[t]);
                    self.granted = true;
                }
                let affordable =
                    self.queues[t].front().is_some_and(|p| cost_of(p) <= self.deficits[t]);
                if affordable {
                    return self.serve(t);
                }
                self.advance();
            }
            if pass == 0 {
                self.bulk_grant();
            }
        }
        // Unreachable when `len > 0`: `bulk_grant` makes at least one head
        // affordable. Serve the cursor's round-robin successor anyway so
        // the scheduler stays total (a stuck scheduler would deadlock the
        // service, the worse failure).
        let t = (0..n).map(|i| (self.cursor + i) % n).find(|&i| !self.queues[i].is_empty())?;
        self.cursor = t;
        self.serve(t)
    }

    /// Pop the head of queue `t`, charge its deficit, and leave the cursor
    /// in place — the tenant may keep serving while its deficit lasts.
    fn serve(&mut self, t: usize) -> Option<Pending<M>> {
        let job = self.queues[t].pop_front()?;
        self.deficits[t] = self.deficits[t].saturating_sub(cost_of(&job));
        self.len = self.len.saturating_sub(1);
        if self.queues[t].is_empty() {
            self.deficits[t] = 0;
            self.advance();
        }
        Some(job)
    }

    fn advance(&mut self) {
        self.cursor = (self.cursor + 1) % self.queues.len();
        self.granted = false;
    }

    /// A whole granted round served nothing: every backlogged head costs
    /// more than its tenant's deficit. Instead of spinning one grant per
    /// round, advance every backlogged tenant by the number of whole
    /// rounds the *cheapest shortfall* needs — O(tenants) instead of
    /// O(rounds), same resulting deficits as the naive loop.
    fn bulk_grant(&mut self) {
        let mut min_rounds = u64::MAX;
        for t in 0..self.queues.len() {
            let Some(head) = self.queues[t].front() else { continue };
            let shortfall = cost_of(head).saturating_sub(self.deficits[t]);
            let grant = self.grants[t].max(1);
            let rounds = shortfall.div_ceil(grant);
            min_rounds = min_rounds.min(rounds);
        }
        if min_rounds == u64::MAX {
            return;
        }
        for t in 0..self.queues.len() {
            if !self.queues[t].is_empty() {
                self.deficits[t] =
                    self.deficits[t].saturating_add(self.grants[t].saturating_mul(min_rounds));
            }
        }
    }
}

/// DRR cost of a job: its cycle deadline (worst-case service time),
/// clamped to ≥ 1 so zero-cost jobs cannot be served infinitely within
/// one grant.
fn cost_of<M>(p: &Pending<M>) -> u64 {
    p.deadline_cycles.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use matraptor_sparse::{gen, Csr};
    use std::rc::Rc;

    fn job(id: u64, tenant: usize, deadline: u64) -> Pending<Rc<Csr<f64>>> {
        let m = Rc::new(gen::uniform(4, 4, 4, 1));
        Pending {
            id: JobId(id),
            tenant: TenantId(tenant),
            operands: Operands::new(Rc::clone(&m), m).expect("valid operands"),
            plan: None,
            deadline_cycles: deadline,
            submitted_at: Cycle::ZERO,
        }
    }

    #[test]
    fn fifo_within_a_tenant() {
        let mut s = DrrScheduler::new(100, &[(1, 8)]);
        for i in 0..4 {
            s.try_enqueue(job(i, 0, 10)).unwrap();
        }
        let order: Vec<u64> = std::iter::from_fn(|| s.pop()).map(|p| p.id.0).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn bounded_queue_hands_the_job_back() {
        let mut s = DrrScheduler::new(100, &[(1, 2)]);
        s.try_enqueue(job(0, 0, 10)).unwrap();
        s.try_enqueue(job(1, 0, 10)).unwrap();
        let bounced = s.try_enqueue(job(2, 0, 10)).unwrap_err();
        assert_eq!(bounced.id, JobId(2));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn unknown_tenant_is_refused() {
        let mut s = DrrScheduler::new(100, &[(1, 2)]);
        assert!(s.try_enqueue(job(0, 5, 10)).is_err());
    }

    #[test]
    fn weights_set_the_served_cycle_ratio() {
        // Tenant 0 (weight 3) and tenant 1 (weight 1), both saturated with
        // equal-cost jobs: over a long horizon tenant 0 should serve ~3x
        // the jobs.
        let mut s = DrrScheduler::new(50, &[(3, 512), (1, 512)]);
        for i in 0..512 {
            s.try_enqueue(job(i, 0, 100)).unwrap();
            s.try_enqueue(job(512 + i, 1, 100)).unwrap();
        }
        let mut served = [0usize; 2];
        for _ in 0..200 {
            let p = s.pop().unwrap();
            served[p.tenant.0] += 1;
        }
        let ratio = served[0] as f64 / served[1] as f64;
        assert!((2.5..=3.5).contains(&ratio), "expected ~3:1, got {served:?}");
    }

    #[test]
    fn a_huge_job_is_eventually_served_without_starving_others() {
        let mut s = DrrScheduler::new(10, &[(1, 8), (1, 8)]);
        // Tenant 0's head costs 10_000 (1000 rounds of deficit at quantum
        // 10); tenant 1 has cheap jobs. Both must flow.
        s.try_enqueue(job(0, 0, 10_000)).unwrap();
        for i in 1..5 {
            s.try_enqueue(job(i, 1, 10)).unwrap();
        }
        let mut got = Vec::new();
        while let Some(p) = s.pop() {
            got.push(p.id.0);
        }
        assert_eq!(got.len(), 5);
        assert!(got.contains(&0), "the oversized job must eventually run");
    }

    #[test]
    fn an_emptied_queue_forfeits_its_deficit() {
        let mut s = DrrScheduler::new(10, &[(1, 8), (1, 8)]);
        s.try_enqueue(job(0, 0, 10)).unwrap();
        assert_eq!(s.pop().unwrap().id, JobId(0));
        // Tenant 0 sat idle; its stale deficit must not let a later burst
        // jump ahead of tenant 1's established backlog beyond one grant.
        s.try_enqueue(job(1, 1, 10)).unwrap();
        s.try_enqueue(job(2, 0, 10)).unwrap();
        let first = s.pop().unwrap();
        assert_eq!(first.tenant, TenantId(1), "cursor had moved on; tenant 1 is next");
    }

    #[test]
    fn pop_on_empty_is_none() {
        let mut s: DrrScheduler<Rc<Csr<f64>>> = DrrScheduler::new(10, &[(1, 1)]);
        assert!(s.pop().is_none());
    }

    #[test]
    fn saturated_deadline_costs_are_served_without_overflow() {
        // A job whose deadline saturated to u64::MAX must still be served:
        // bulk_grant's rounds arithmetic and the deficit accumulation both
        // saturate instead of overflowing or spinning.
        let mut s = DrrScheduler::new(100, &[(1, 8), (3, 8)]);
        s.try_enqueue(job(0, 0, u64::MAX)).unwrap();
        s.try_enqueue(job(1, 1, 10)).unwrap();
        let first = s.pop().expect("cheap job first");
        assert_eq!(first.id, JobId(1));
        let second = s.pop().expect("the saturated job must still come out");
        assert_eq!(second.id, JobId(0));
        assert!(s.pop().is_none());
    }
}
