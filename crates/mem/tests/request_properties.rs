//! Property-style tests of the HBM model's request handling: every
//! accepted request completes exactly once with exactly its bytes, no
//! matter how requests split across bursts and channels.
//!
//! Runs as deterministic seeded sweeps (the offline build cannot fetch
//! `proptest`); each case reproduces exactly from the printed seed.

use matraptor_mem::{FaultWindow, Hbm, HbmConfig, MemFaults, MemKind, MemRequest};
use matraptor_sim::Cycle;
use matraptor_sparse::rng::ChaCha8Rng;
use std::collections::BTreeMap;

const CASES: u64 = 64;

/// Drives a batch of requests to completion, returning (id → bytes) of
/// responses and the elapsed mem cycles.
fn drive(cfg: HbmConfig, reqs: Vec<MemRequest>) -> (BTreeMap<u64, (MemKind, u32)>, u64) {
    let mut hbm = Hbm::new(cfg);
    let mut pending: Vec<MemRequest> = reqs;
    let mut done = BTreeMap::new();
    let total = pending.len();
    let mut t = 0u64;
    while done.len() < total {
        let now = Cycle(t);
        pending.retain(|r| hbm.submit(now, *r).is_err());
        hbm.tick(now);
        while let Some(resp) = hbm.pop_response(now) {
            let prior = done.insert(resp.id.0, (resp.kind, resp.bytes));
            assert!(prior.is_none(), "request {} completed twice", resp.id.0);
        }
        t += 1;
        assert!(t < 10_000_000, "drive did not drain");
    }
    (done, t)
}

/// Between 1 and `max - 1` random read/write requests with random addresses
/// and sizes.
fn random_requests(rng: &mut ChaCha8Rng, max: usize) -> Vec<MemRequest> {
    let n = rng.gen_range(1..max);
    (0..n)
        .map(|i| {
            let addr = rng.gen_range(0u64..1_000_000);
            let bytes = rng.gen_range(1u32..512);
            if rng.gen_bool(0.5) {
                MemRequest::read(i as u64, addr, bytes)
            } else {
                MemRequest::write(i as u64, addr, bytes)
            }
        })
        .collect()
}

#[test]
fn every_request_completes_exactly_once() {
    for seed in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let reqs = random_requests(&mut rng, 40);
        let cfg = HbmConfig::default();
        let n = reqs.len();
        let expect: BTreeMap<u64, (MemKind, u32)> =
            reqs.iter().map(|r| (r.id.0, (r.kind, r.bytes))).collect();
        let (done, _) = drive(cfg, reqs);
        assert_eq!(done.len(), n, "seed {seed}");
        for (id, got) in &done {
            assert_eq!(got, &expect[id], "seed {seed}: request {id} response mismatch");
        }
    }
}

#[test]
fn useful_bytes_account_exactly() {
    for seed in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x4B1D_0001);
        let reqs = random_requests(&mut rng, 30);
        let cfg = HbmConfig::with_channels(4);
        let mut hbm = Hbm::new(cfg);
        let total_bytes: u64 = reqs.iter().map(|r| r.bytes as u64).sum();
        let mut pending = reqs;
        let total = pending.len();
        let mut completed = 0usize;
        let mut t = 0u64;
        while completed < total {
            let now = Cycle(t);
            pending.retain(|r| hbm.submit(now, *r).is_err());
            hbm.tick(now);
            while hbm.pop_response(now).is_some() {
                completed += 1;
            }
            t += 1;
            assert!(t < 10_000_000, "seed {seed}");
        }
        let s = hbm.stats();
        assert_eq!(s.bytes_read + s.bytes_written, total_bytes, "seed {seed}");
        // Pin traffic is burst-quantized: at least the useful bytes, and a
        // whole number of bursts.
        assert!(s.traffic_read + s.traffic_written >= total_bytes, "seed {seed}");
        assert_eq!((s.traffic_read + s.traffic_written) % 64, 0, "seed {seed}");
        assert!(hbm.is_idle(), "seed {seed}");
    }
}

#[test]
fn more_channels_rarely_slower() {
    for seed in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x4B1D_0002);
        let reqs = random_requests(&mut rng, 24);
        let (_, t2) = drive(HbmConfig::with_channels(2), reqs.clone());
        let (_, t8) = drive(HbmConfig::with_channels(8), reqs);
        // More channels means more parallelism, but the channel count also
        // changes which rows/banks addresses map to, so a small adversarial
        // batch can lose a little row locality. Allow one activation of
        // slack; anything beyond that indicates a scaling bug.
        assert!(
            t8 <= t2 + HbmConfig::default().row_miss_penalty + 1,
            "seed {seed}: 8ch {t8} vs 2ch {t2}"
        );
    }
}

#[test]
fn mixed_reads_and_writes_share_channels_fairly() {
    let cfg = HbmConfig::with_channels(2);
    let reqs: Vec<MemRequest> = (0..64)
        .map(|i| {
            if i % 2 == 0 {
                MemRequest::read(i, i * 64, 64)
            } else {
                MemRequest::write(i, (i + 1000) * 64, 64)
            }
        })
        .collect();
    let (done, _) = drive(cfg, reqs);
    assert_eq!(done.len(), 64);
    assert_eq!(done.values().filter(|(k, _)| *k == MemKind::Read).count(), 32);
}

/// A random request of one of three shapes: `0` fits in one burst (one
/// fragment), `1` crosses at least one burst boundary (several fragments,
/// often on several channels), `2` is empty.
fn shaped_request(rng: &mut ChaCha8Rng, id: u64, shape: u64) -> MemRequest {
    let addr = rng.gen_range(0u64..8_192);
    let bytes = match shape {
        0 => rng.gen_range(1u32..64 - (addr % 64) as u32 + 1),
        1 => rng.gen_range(64 - (addr % 64) as u32 + 1..400),
        _ => 0,
    };
    if rng.gen_bool(0.5) {
        MemRequest::read(id, addr, bytes)
    } else {
        MemRequest::write(id, addr, bytes)
    }
}

/// Everything a refused submit must leave as it was.
fn observable(hbm: &Hbm) -> (usize, Vec<usize>, matraptor_mem::HbmStats, u64) {
    (hbm.in_flight(), hbm.queue_depths().collect(), hbm.stats(), hbm.full_channels())
}

#[test]
fn a_refusal_names_its_channels_and_changes_nothing() {
    let cfg = HbmConfig { queue_depth: 2, ..HbmConfig::with_channels(4) };
    for seed in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x4B1D_0003);
        let mut hbm = Hbm::new(cfg.clone());
        let (mut next_id, mut refusals) = (0u64, 0u64);
        for step in 0..300u64 {
            let now = Cycle(step / 3);
            let req = shaped_request(&mut rng, next_id, step % 3);
            let full = hbm.full_channels();
            let before = observable(&hbm);
            match hbm.submit(now, req) {
                Ok(()) => {
                    assert_eq!(
                        hbm.channel_mask(&req) & full,
                        0,
                        "seed {seed}: admitted on a full channel"
                    );
                    next_id += 1;
                }
                Err(mask) => {
                    assert_eq!(mask, hbm.channel_mask(&req), "seed {seed} step {step}");
                    assert_eq!(observable(&hbm), before, "seed {seed} step {step}");
                    refusals += 1;
                }
            }
            // The full set is exactly the channels with no free slot.
            let expect = hbm
                .queue_depths()
                .enumerate()
                .filter(|&(_, depth)| depth == cfg.queue_depth)
                .fold(0, |set, (ch, _)| set | 1 << ch);
            assert_eq!(hbm.full_channels(), expect, "seed {seed} step {step}");
            if step % 3 == 2 {
                hbm.tick(now);
                while hbm.pop_response(now).is_some() {}
            }
        }
        assert!(refusals > 100, "seed {seed}: only {refusals} refusals; the sweep tests little");
    }
}

#[test]
fn the_full_set_is_empty_under_a_fault_schedule() {
    let cfg = HbmConfig { queue_depth: 1, ..HbmConfig::with_channels(2) };
    for faults in [
        MemFaults { stalls: vec![FaultWindow::forever(1, 1_000)], refusals: Vec::new() },
        MemFaults {
            stalls: Vec::new(),
            refusals: vec![FaultWindow { channel: 0, start: 5, end: 9 }],
        },
    ] {
        let mut hbm = Hbm::new(cfg.clone());
        hbm.set_faults(faults);
        assert!(hbm.submit(Cycle(0), MemRequest::read(0, 0, 64)).is_ok());
        assert_eq!(hbm.queue_depths().next(), Some(1), "channel 0 is full");
        assert_eq!(hbm.full_channels(), 0);
        hbm.set_faults(MemFaults::none());
        assert_eq!(hbm.full_channels(), 1, "the set was kept, only hidden");
    }
}
