//! CSR ↔ C²SR format-conversion unit (Section VII).
//!
//! The paper keeps matrices portable by storing them in CSR and converting
//! to C²SR on the way in (and back on the way out) with "a simple hardware
//! unit that reads the sparse matrix in CSR format and stores it back to
//! memory in C²SR", measuring the conversion at ~12 % of SpGEMM time.
//! This module simulates that unit against the same HBM model: a streaming
//! reader over the flat CSR arrays feeding per-channel streaming writers.

use matraptor_mem::{Hbm, MemRequest};
use matraptor_sim::Cycle;
use matraptor_sparse::Csr;

use crate::config::MatRaptorConfig;
use crate::layout::INFO_BYTES;

/// Which way the conversion unit is running (Section VII mentions both:
/// "converted to C2SR (or vice versa)").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConversionDirection {
    /// CSR (flat, interleaved) → C²SR (per-channel streams).
    CsrToC2sr,
    /// C²SR → CSR, e.g. to hand the result back to portable software.
    C2srToCsr,
}

/// Result of simulating one CSR → C²SR conversion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConversionReport {
    /// Memory-clock cycles to drain the conversion.
    pub mem_cycles: u64,
    /// Bytes read (CSR row pointers + data).
    pub bytes_read: u64,
    /// Bytes written (C²SR row infos + per-channel data).
    pub bytes_written: u64,
    /// Memory clock in GHz, for time conversion.
    pub clock_ghz: f64,
}

impl ConversionReport {
    /// Wall-clock seconds of the conversion.
    pub fn elapsed_seconds(&self) -> f64 {
        self.mem_cycles as f64 / (self.clock_ghz * 1e9)
    }
}

/// Simulates converting `a` from CSR to C²SR through the configured HBM.
///
/// The unit streams the CSR `(value, col id)` array sequentially (wide
/// reads across all channels) and, as data arrives, appends each row to
/// its target channel's C²SR stream (wide writes). Reads and writes share
/// the channels, so the achieved figure lands near half of peak — the
/// O(nnz) cost the paper argues is amortised across SpGEMM's O(nnz²/N)
/// work.
///
/// # Panics
///
/// Panics if the simulation fails to drain (model bug).
pub fn conversion_cycles(a: &Csr<f64>, cfg: &MatRaptorConfig) -> ConversionReport {
    conversion_cycles_directed(a, cfg, ConversionDirection::CsrToC2sr)
}

/// [`conversion_cycles`] with an explicit direction. The two directions
/// move the same bytes with mirrored access patterns (flat-sequential on
/// the CSR side, per-channel streams on the C²SR side), so their costs
/// are nearly symmetric; both are exposed for completeness.
pub fn conversion_cycles_directed(
    a: &Csr<f64>,
    cfg: &MatRaptorConfig,
    direction: ConversionDirection,
) -> ConversionReport {
    let entry = cfg.entry_bytes as u64;
    let data_bytes = a.nnz() as u64 * entry;
    let ptr_bytes = (a.rows() as u64 + 1) * 8;
    let info_bytes = a.rows() as u64 * INFO_BYTES as u64;

    let chunk = cfg.read_request_bytes as u64;
    // Read plan: row pointers then data, flat sequential.
    let read_total = ptr_bytes.saturating_add(data_bytes);
    let mut reads: Vec<(u64, u32)> = Vec::new();
    let mut pos = 0u64;
    while pos < read_total {
        let len = chunk.min(read_total - pos);
        reads.push((pos, u32::try_from(len).unwrap_or(u32::MAX)));
        pos += len;
    }
    // Write plan: per-channel C²SR streams plus the row-info array.
    // Base far beyond the read region so reads/writes never alias rows.
    let wbase = 1u64 << 30;
    let mut writes: Vec<(u64, u32)> = Vec::new();
    let mut chan_local = vec![0u64; cfg.mem.num_channels];
    for i in 0..a.rows() {
        let ch = i % cfg.mem.num_channels;
        let mut remaining = a.row_nnz(i) as u64 * entry;
        while remaining > 0 {
            let boundary = (chan_local[ch] / chunk + 1) * chunk;
            let len = remaining.min(boundary - chan_local[ch]);
            writes.push((
                wbase + cfg.mem.channel_local_to_flat(ch, chan_local[ch]),
                u32::try_from(len).unwrap_or(u32::MAX),
            ));
            chan_local[ch] += len;
            remaining -= len;
        }
    }
    let mut ipos = 0u64;
    while ipos < info_bytes {
        let len = chunk.min(info_bytes.saturating_sub(ipos));
        writes.push((2 * wbase + ipos, u32::try_from(len).unwrap_or(u32::MAX)));
        ipos += len;
    }

    // For the reverse direction the roles swap: the unit streams the
    // per-channel C2SR data (reads) and writes the flat CSR arrays. The
    // plans are mirrored rather than rebuilt, which keeps byte totals
    // identical by construction.
    let (reads, writes) = match direction {
        ConversionDirection::CsrToC2sr => (reads, writes),
        ConversionDirection::C2srToCsr => {
            let swap_r: Vec<(u64, u32)> = writes;
            let swap_w: Vec<(u64, u32)> = reads;
            (swap_r, swap_w)
        }
    };

    // Drive: reads lead, each completed read releases proportional writes
    // (the unit buffers one burst).
    let mut hbm = Hbm::new(cfg.mem.clone());
    let mut next_read = 0usize;
    let mut next_write = 0usize;
    let mut reads_done = 0usize;
    let mut writes_done = 0usize;
    let mut writes_released = 0usize;
    let mut in_flight = 0usize;
    let max_outstanding = cfg.outstanding_requests;
    let mut id = 0u64;
    let budget = data_bytes
        .saturating_add(ptr_bytes)
        .saturating_add(info_bytes)
        .saturating_mul(64)
        .saturating_add(100_000);
    let mut t = 0u64;
    while reads_done < reads.len() || writes_done < writes.len() {
        assert!(t < budget, "format conversion did not drain");
        let now = Cycle(t);
        // Issue writes that have been released by arrived data.
        while next_write < writes_released.min(writes.len()) && in_flight < max_outstanding {
            let (addr, bytes) = writes[next_write];
            if hbm.submit(now, MemRequest::write(id, addr, bytes)).is_ok() {
                id += 1;
                next_write += 1;
                in_flight += 1;
            } else {
                break;
            }
        }
        // Issue reads.
        while next_read < reads.len() && in_flight < max_outstanding {
            let (addr, bytes) = reads[next_read];
            if hbm.submit(now, MemRequest::read(id, addr, bytes)).is_ok() {
                id += 1;
                next_read += 1;
                in_flight += 1;
            } else {
                break;
            }
        }
        hbm.tick(now);
        while let Some(resp) = hbm.pop_response(now) {
            in_flight -= 1;
            match resp.kind {
                matraptor_mem::MemKind::Read => {
                    reads_done += 1;
                    // Each arrived read releases a matching share of writes.
                    writes_released = (writes.len() * reads_done).div_ceil(reads.len().max(1));
                }
                matraptor_mem::MemKind::Write => writes_done += 1,
            }
        }
        t += 1;
    }

    let write_total = data_bytes.saturating_add(info_bytes);
    let (bytes_read, bytes_written) = match direction {
        ConversionDirection::CsrToC2sr => (read_total, write_total),
        ConversionDirection::C2srToCsr => (write_total, read_total),
    };
    ConversionReport { mem_cycles: t, bytes_read, bytes_written, clock_ghz: cfg.mem.clock_ghz }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matraptor_sparse::gen;

    #[test]
    fn conversion_is_linear_in_nnz() {
        let cfg = MatRaptorConfig::default();
        let small = conversion_cycles(&gen::uniform(200, 200, 2_000, 1), &cfg);
        let large = conversion_cycles(&gen::uniform(200, 200, 8_000, 1), &cfg);
        let ratio = large.mem_cycles as f64 / small.mem_cycles as f64;
        assert!(ratio > 2.0 && ratio < 6.0, "4x nnz should cost ~4x cycles, got {ratio:.2}");
    }

    #[test]
    fn byte_accounting() {
        let cfg = MatRaptorConfig::default();
        let a = gen::uniform(100, 100, 1_000, 2);
        let rep = conversion_cycles(&a, &cfg);
        assert_eq!(rep.bytes_read, 101 * 8 + 1_000 * 8);
        assert_eq!(rep.bytes_written, 1_000 * 8 + 100 * 8);
        assert!(rep.elapsed_seconds() > 0.0);
    }

    #[test]
    fn reverse_direction_costs_about_the_same() {
        let cfg = MatRaptorConfig::default();
        let a = gen::uniform(300, 300, 9_000, 4);
        let fwd = conversion_cycles_directed(&a, &cfg, ConversionDirection::CsrToC2sr);
        let rev = conversion_cycles_directed(&a, &cfg, ConversionDirection::C2srToCsr);
        let ratio = rev.mem_cycles as f64 / fwd.mem_cycles as f64;
        assert!(ratio > 0.5 && ratio < 2.0, "asymmetric conversion: {ratio:.2}");
        // Byte totals mirror.
        assert_eq!(fwd.bytes_read, rev.bytes_written);
        assert_eq!(fwd.bytes_written, rev.bytes_read);
    }

    #[test]
    fn achieves_reasonable_bandwidth() {
        // Conversion moves read+write ≈ 2x data; with shared channels the
        // elapsed bandwidth should be a sizable fraction of peak.
        let cfg = MatRaptorConfig::default();
        let a = gen::uniform(500, 500, 50_000, 3);
        let rep = conversion_cycles(&a, &cfg);
        let total = (rep.bytes_read + rep.bytes_written) as f64;
        let gbs = total / rep.mem_cycles as f64 * cfg.mem.clock_ghz;
        assert!(gbs > 0.3 * cfg.mem.peak_bandwidth_gbs(), "conversion too slow: {gbs:.1} GB/s");
    }
}
