//! Pieces the service campaigns share: the operand pool, the tenant mix,
//! the sporadic fault kinds, the scripted poison and breaker-burst inputs,
//! and the breaker section of the report. Each campaign keeps its own
//! script; only what they build identically lives here.

use std::rc::Rc;

use matraptor_core::FaultKind;
use matraptor_service::{BreakerState, BreakerTransition, TenantId};
use matraptor_sparse::{gen, rng::ChaCha8Rng, Csr};

/// A shared (A, B) operand pair.
pub type MatPair = (Rc<Csr<f64>>, Rc<Csr<f64>>);

/// Matrices per dimension class of the operand pool.
const PER_CLASS: usize = 4;

/// The operand pool's matrices: for each dimension `n` of `dims`, four
/// seeded uniform `n × n` matrices with six nonzeros per row, so any two
/// picks from one class multiply.
pub fn pool_matrices(seed: u64, dims: &[usize]) -> Vec<Vec<Csr<f64>>> {
    dims.iter()
        .enumerate()
        .map(|(c, &n)| {
            (0..PER_CLASS)
                .map(|i| {
                    let s = seed
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add((c * PER_CLASS + i) as u64);
                    gen::uniform(n, n, n * 6, s)
                })
                .collect()
        })
        .collect()
}

/// The [`pool_matrices`] shared by the jobs that pick them.
#[derive(Debug)]
pub struct Pool {
    /// The matrices of each dimension class.
    pub classes: Vec<Vec<Rc<Csr<f64>>>>,
}

impl Pool {
    /// Builds the pool of `dims`' classes from `seed`.
    pub fn build(seed: u64, dims: &[usize]) -> Pool {
        let classes = pool_matrices(seed, dims)
            .into_iter()
            .map(|class| class.into_iter().map(Rc::new).collect())
            .collect();
        Pool { classes }
    }

    /// A seeded pick: a class, then A and B from it.
    pub fn pick(&self, rng: &mut ChaCha8Rng) -> MatPair {
        let class = &self.classes[rng.gen_range(0..self.classes.len())];
        let a = Rc::clone(&class[rng.gen_range(0..class.len())]);
        let b = Rc::clone(&class[rng.gen_range(0..class.len())]);
        (a, b)
    }
}

/// Weighted tenant pick: 40% batch, 25% interactive, 20% analytics, 15%
/// free tier.
pub fn pick_tenant(rng: &mut ChaCha8Rng) -> TenantId {
    let roll = rng.gen_range(0..100u32);
    TenantId(match roll {
        0..=39 => 0,
        40..=64 => 1,
        65..=84 => 2,
        _ => 3,
    })
}

/// Sporadic fault kinds for the background stream. Deliberately excludes
/// `ChannelStall` (reserved for the scripted breaker burst, so breaker
/// opens happen where the script expects them) and the truncation/overflow
/// kinds whose failures would add noise to the quarantine story.
pub const SPORADIC_KINDS: [FaultKind; 3] =
    [FaultKind::StreamCorruption, FaultKind::DroppedWrite, FaultKind::BurstRefusal];

/// The scripted inputs outside the pool, so their quarantine strikes are
/// isolated from the background stream: the poison pair, and the three
/// pairs of the deadlock burst that trips the breaker.
pub fn poison_and_burst_pairs(seed: u64) -> (MatPair, Vec<MatPair>) {
    let pair = |sa: u64, sb: u64| {
        (
            Rc::new(gen::uniform(32, 32, 192, seed.wrapping_add(sa))),
            Rc::new(gen::uniform(32, 32, 192, seed.wrapping_add(sb))),
        )
    };
    let poison = pair(9_000, 9_001);
    let burst = (0..3).map(|i| pair(9_100 + 2 * i, 9_101 + 2 * i)).collect();
    (poison, burst)
}

/// The breaker's transition log as the report's JSON array entries, and
/// whether it walked one full closed → open → half-open → closed cycle.
pub fn breaker_transitions_json(transitions: &[BreakerTransition]) -> (String, bool) {
    let objects: Vec<String> = transitions
        .iter()
        .map(|t| {
            format!(
                "{{\"at\":{},\"from\":\"{}\",\"to\":\"{}\"}}",
                t.at.0,
                t.from.label(),
                t.to.label()
            )
        })
        .collect();
    let has_edge = |from: BreakerState, to: BreakerState| {
        transitions.iter().any(|t| t.from == from && t.to == to)
    };
    let full_cycle = has_edge(BreakerState::Closed, BreakerState::Open)
        && has_edge(BreakerState::Open, BreakerState::HalfOpen)
        && has_edge(BreakerState::HalfOpen, BreakerState::Closed);
    (objects.join(","), full_cycle)
}
