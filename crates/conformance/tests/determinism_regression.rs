//! Determinism regression: the property the `determinism` lint rule exists
//! to protect, checked dynamically. Running the cycle-level accelerator
//! model twice on the same input must produce bit-identical statistics —
//! any HashMap iteration, wall-clock read, or unseeded randomness smuggled
//! into simulator state shows up here as a cycle-count diff.

use matraptor_core::{Accelerator, MatRaptorConfig};
use matraptor_sparse::gen;

#[test]
fn same_input_same_cycles_within_one_instance() {
    let a = gen::uniform(96, 96, 900, 0xD5EED);
    let b = gen::uniform(96, 96, 850, 0xD5EED ^ 1);
    let acc = Accelerator::new(MatRaptorConfig::default());
    let r1 = acc.run(&a, &b);
    let r2 = acc.run(&a, &b);
    assert_eq!(r1.stats.total_cycles, r2.stats.total_cycles);
    assert_eq!(r1.stats.breakdown, r2.stats.breakdown);
    assert_eq!(r1.stats.traffic_read, r2.stats.traffic_read);
    assert_eq!(r1.stats.traffic_written, r2.stats.traffic_written);
    assert_eq!(r1.c, r2.c);
}

#[test]
fn same_input_same_cycles_across_instances() {
    // A fresh Accelerator (fresh queues, fresh channel state) must land on
    // the same cycle count — nothing may leak in from construction order.
    let a = gen::rmat(128, 1400, gen::RmatParams::default(), 0xAB5EED);
    let b = gen::rmat(128, 1300, gen::RmatParams::default(), 0xAB5EED ^ 1);
    let r1 = Accelerator::new(MatRaptorConfig::default()).run(&a, &b);
    let r2 = Accelerator::new(MatRaptorConfig::default()).run(&a, &b);
    assert_eq!(r1.stats.total_cycles, r2.stats.total_cycles);
    assert_eq!(r1.stats.per_pe_breakdown, r2.stats.per_pe_breakdown);
    assert_eq!(r1.c, r2.c);
}
