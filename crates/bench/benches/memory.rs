//! Benchmarks of the HBM model: request-processing throughput of the
//! simulator and the CSR/C²SR access-pattern drivers. Uses the std-only
//! harness in `matraptor_bench::harness`.

use matraptor_bench::harness::Group;
use matraptor_mem::{patterns, Hbm, HbmConfig, MemRequest};
use matraptor_sim::Cycle;
use std::hint::black_box;

fn streaming_reads() {
    let g = Group::new("hbm_streaming");
    g.bench("sequential_4k_bursts", || {
        let cfg = HbmConfig::default();
        let mut hbm = Hbm::new(cfg);
        let total = 4096u64;
        let mut submitted = 0u64;
        let mut completed = 0u64;
        let mut t = 0u64;
        while completed < total {
            let now = Cycle(t);
            while submitted < total
                && hbm.submit(now, MemRequest::read(submitted, submitted * 64, 64)).is_ok()
            {
                submitted += 1;
            }
            hbm.tick(now);
            while hbm.pop_response(now).is_some() {
                completed += 1;
            }
            t += 1;
        }
        black_box(t)
    });
}

fn pattern_drivers() {
    let g = Group::new("fig6_patterns");
    let rows: Vec<u64> = vec![200; 1000];
    for n in [2usize, 8] {
        let cfg = HbmConfig::with_channels(n);
        let streams = patterns::csr_streams(&rows, n, 8);
        g.bench(&format!("csr/{n}"), || black_box(patterns::measure_bandwidth(&cfg, &streams, 64)));
        let streams = patterns::c2sr_streams(&cfg, &rows, n, 64);
        g.bench(&format!("c2sr/{n}"), || {
            black_box(patterns::measure_bandwidth(&cfg, &streams, 64))
        });
    }
}

fn main() {
    streaming_reads();
    pattern_drivers();
}
