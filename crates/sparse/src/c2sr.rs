//! Channel cyclic sparse row (C²SR) — the paper's hardware-friendly format.

use crate::{Csr, Index, Scalar, SparseError};

/// Per-row metadata in C²SR: the paper's *(row length, row pointer)* pair.
///
/// The channel is implicit (`row % num_channels`, the cyclic assignment of
/// Section III-B), so the pointer is an *entry offset within the row's
/// channel segment* rather than a global address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct C2srRow {
    /// Number of non-zeros in the row (the paper's "row length").
    pub len: u32,
    /// Offset of the row's first non-zero within its channel's storage, in
    /// entries (the paper's "row pointer").
    pub offset: u32,
}

/// A sparse matrix in **channel cyclic sparse row** format (Section III-B).
///
/// C²SR assigns row *i* to memory channel `i % num_channels` and stores all
/// rows of a channel contiguously in that channel's address space. This
/// gives the three properties the paper claims:
///
/// 1. **No channel conflicts** — rows on different channels never contend;
/// 2. **Vectorized, streaming reads** — a channel's rows are sequential;
/// 3. **Parallel writes** — a PE appends its output rows to its own channel
///    without synchronising with other PEs.
///
/// The in-memory representation here keeps each channel's `(col id, value)`
/// stream as its own pair of vectors; the `matraptor-mem` crate maps
/// (channel, entry offset) to interleaved byte addresses when timing is
/// simulated.
///
/// # Example
///
/// ```rust
/// use matraptor_sparse::{C2sr, Csr};
///
/// let a = Csr::<f64>::identity(4);
/// let c2sr = C2sr::from_csr(&a, 2);
/// // rows 0,2 live on channel 0; rows 1,3 on channel 1
/// assert_eq!(c2sr.channel_of(2), 0);
/// assert_eq!(c2sr.channel_nnz(0), 2);
/// assert_eq!(c2sr.to_csr(), a);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct C2sr<T> {
    rows: usize,
    cols: usize,
    num_channels: usize,
    row_info: Vec<C2srRow>,
    chan_cols: Vec<Vec<Index>>,
    chan_vals: Vec<Vec<T>>,
}

impl<T: Scalar> C2sr<T> {
    /// Converts a CSR matrix into C²SR over `num_channels` channels.
    ///
    /// This is the software equivalent of the format-conversion unit of
    /// Section VII; its O(nnz) cost is what the `fmt_conversion` benchmark
    /// measures against the SpGEMM itself.
    ///
    /// # Panics
    ///
    /// Panics if `num_channels == 0`.
    pub fn from_csr(csr: &Csr<T>, num_channels: usize) -> Self {
        // conformance:allow(panic-safety): documented panic at the infallible convenience boundary
        Self::try_from_csr(csr, num_channels).unwrap_or_else(|e| panic!("C2sr::from_csr: {e}"))
    }

    /// Fallible [`C2sr::from_csr`].
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ZeroChannels`] if `num_channels == 0`.
    #[must_use = "dropping the Result discards the converted matrix or the format error"]
    pub fn try_from_csr(csr: &Csr<T>, num_channels: usize) -> Result<Self, SparseError> {
        let mut c2sr = C2sr {
            rows: 0,
            cols: 0,
            num_channels,
            row_info: Vec::new(),
            chan_cols: Vec::new(),
            chan_vals: Vec::new(),
        };
        c2sr.convert_from_csr(csr, num_channels)?;
        Ok(c2sr)
    }

    /// [`C2sr::try_from_csr`] into this matrix's buffers: the matrix
    /// becomes `csr` over `num_channels` channels, and storage it already
    /// holds is reused, so converting the operands of a job of similar
    /// size allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ZeroChannels`] if `num_channels == 0`, and
    /// leaves the matrix unchanged.
    pub fn convert_from_csr(
        &mut self,
        csr: &Csr<T>,
        num_channels: usize,
    ) -> Result<(), SparseError> {
        if num_channels == 0 {
            return Err(SparseError::ZeroChannels);
        }
        self.chan_cols.resize_with(num_channels, Vec::new);
        self.chan_vals.resize_with(num_channels, Vec::new);
        self.chan_cols.iter_mut().for_each(Vec::clear);
        self.chan_vals.iter_mut().for_each(Vec::clear);
        self.row_info.clear();
        self.row_info.reserve(csr.rows());
        for i in 0..csr.rows() {
            let ch = i % num_channels;
            let (cols_slice, vals) = csr.row_slices(i);
            self.row_info.push(C2srRow {
                len: cols_slice.len() as u32,
                offset: self.chan_cols[ch].len() as u32,
            });
            self.chan_cols[ch].extend_from_slice(cols_slice);
            self.chan_vals[ch].extend_from_slice(vals);
        }
        self.rows = csr.rows();
        self.cols = csr.cols();
        self.num_channels = num_channels;
        Ok(())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of memory channels the matrix is laid out over.
    pub fn num_channels(&self) -> usize {
        self.num_channels
    }

    /// Total stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.chan_cols.iter().map(Vec::len).sum()
    }

    /// The channel that row `i` is cyclically assigned to.
    pub fn channel_of(&self, i: usize) -> usize {
        i % self.num_channels
    }

    /// The *(row length, row pointer)* metadata pair for row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_info(&self, i: usize) -> C2srRow {
        self.row_info[i]
    }

    /// Iterates over `(col, value)` pairs of row `i` in increasing column
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (Index, T)> + '_ {
        let ch = self.channel_of(i);
        let info = self.row_info[i];
        let range = info.offset as usize..(info.offset + info.len) as usize;
        self.chan_cols[ch][range.clone()]
            .iter()
            .copied()
            .zip(self.chan_vals[ch][range].iter().copied())
    }

    /// The `(col ids, values)` slices of row `i` inside its channel stream.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_slices(&self, i: usize) -> (&[Index], &[T]) {
        let ch = self.channel_of(i);
        let info = self.row_info[i];
        let range = info.offset as usize..(info.offset + info.len) as usize;
        (&self.chan_cols[ch][range.clone()], &self.chan_vals[ch][range])
    }

    /// Total non-zeros stored on channel `c` — the quantity behind the
    /// load-imbalance study (Fig. 11), since PE *p* owns channel *p*.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.num_channels()`.
    pub fn channel_nnz(&self, c: usize) -> usize {
        self.chan_cols[c].len()
    }

    /// Converts back to CSR. Lossless: `C2sr::from_csr(m, k).to_csr() == m`.
    pub fn to_csr(&self) -> Csr<T> {
        let mut row_ptr = vec![0usize; self.rows + 1];
        for i in 0..self.rows {
            row_ptr[i + 1] = row_ptr[i] + self.row_info[i].len as usize;
        }
        let nnz = row_ptr[self.rows];
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for i in 0..self.rows {
            let (c, v) = self.row_slices(i);
            col_idx.extend_from_slice(c);
            values.extend_from_slice(v);
        }
        Csr::from_parts_unchecked(self.rows, self.cols, row_ptr, col_idx, values)
    }

    /// Verifies the structural invariants: per-channel segments are exactly
    /// the concatenation of that channel's rows in increasing row order
    /// ([`check_c2sr_pointers`]), and column ids are sorted within each
    /// row.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`SparseError`].
    pub fn validate(&self) -> Result<(), SparseError> {
        let channel_entries: Vec<usize> = self.chan_cols.iter().map(Vec::len).collect();
        check_c2sr_pointers(&self.row_info, &channel_entries)?;
        for i in 0..self.rows {
            let (cols_slice, _) = self.row_slices(i);
            crate::csr::check_row_indices(i, self.cols, cols_slice)?;
        }
        Ok(())
    }
}

/// C²SR's pointer invariant over the *(row length, row pointer)* pairs
/// `row_info` of a matrix laid out over `channel_entries.len()` channels,
/// the `c`-th holding `channel_entries[c]` entries: on each channel, every row
/// with entries, and every row after one, starts where the previous rows
/// of its channel end, and the channel's rows add up to its entries.
///
/// This is the check [`C2sr::validate`] makes of its own layout, which the
/// accelerator makes of the streams its lanes wrote without building a
/// [`C2sr`] of them.
///
/// # Errors
///
/// [`SparseError::MalformedPointers`] at the first row out of place, or at
/// the channel whose rows do not add up to its entries.
pub fn check_c2sr_pointers(
    row_info: &[C2srRow],
    channel_entries: &[usize],
) -> Result<(), SparseError> {
    let num_channels = channel_entries.len();
    for (ch, &len) in channel_entries.iter().enumerate() {
        let mut expected_offset = 0u32;
        for i in (ch..row_info.len()).step_by(num_channels) {
            let info = row_info[i];
            if (info.len > 0 || expected_offset > 0) && info.offset != expected_offset {
                return Err(SparseError::MalformedPointers { at: i });
            }
            expected_offset += info.len;
        }
        if expected_offset as usize != len {
            return Err(SparseError::MalformedPointers { at: ch });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr<f64> {
        // The 4x4 matrix A from the paper's Fig. 2/3.
        //  [a00  .  a02 a03]
        //  [ .   .   .  a13]
        //  [ .  a21  .   . ]
        //  [ .  a31 a32  . ]
        let mut coo = crate::Coo::new(4, 4);
        for &(r, c, v) in &[
            (0u32, 0u32, 1.0),
            (0, 2, 2.0),
            (0, 3, 3.0),
            (1, 3, 4.0),
            (2, 1, 5.0),
            (3, 1, 6.0),
            (3, 2, 7.0),
        ] {
            coo.push(r, c, v);
        }
        coo.compress()
    }

    #[test]
    fn paper_fig3_layout_two_channels() {
        // With 2 channels: rows 0,2 -> channel 0; rows 1,3 -> channel 1.
        // Channel 0 data: a00 a02 a03 | a21  (paper Fig. 3d left)
        // Channel 1 data: a13 | a31 a32
        let m = C2sr::from_csr(&sample(), 2);
        assert_eq!(m.channel_nnz(0), 4);
        assert_eq!(m.channel_nnz(1), 3);
        assert_eq!(m.row_info(0), C2srRow { len: 3, offset: 0 });
        assert_eq!(m.row_info(2), C2srRow { len: 1, offset: 3 });
        assert_eq!(m.row_info(1), C2srRow { len: 1, offset: 0 });
        assert_eq!(m.row_info(3), C2srRow { len: 2, offset: 1 });
        m.validate().expect("invariants hold");
    }

    #[test]
    fn round_trip_various_channel_counts() {
        let csr = sample();
        for ch in [1, 2, 3, 4, 8] {
            let m = C2sr::from_csr(&csr, ch);
            assert_eq!(m.to_csr(), csr, "round trip failed for {ch} channels");
            m.validate().unwrap();
        }
    }

    #[test]
    fn row_iteration_matches_csr() {
        let csr = sample();
        let m = C2sr::from_csr(&csr, 3);
        for i in 0..csr.rows() {
            let a: Vec<_> = csr.row(i).collect();
            let b: Vec<_> = m.row(i).collect();
            assert_eq!(a, b, "row {i}");
        }
    }

    #[test]
    fn zero_channels_rejected() {
        assert_eq!(C2sr::try_from_csr(&sample(), 0).unwrap_err(), SparseError::ZeroChannels);
    }

    #[test]
    fn pointers_out_of_channel_order_are_refused() {
        let m = C2sr::from_csr(&sample(), 2);
        let mut info: Vec<C2srRow> = (0..4).map(|i| m.row_info(i)).collect();
        let lens = [m.channel_nnz(0), m.channel_nnz(1)];
        assert_eq!(check_c2sr_pointers(&info, &lens), Ok(()));
        // Row 2 placed before row 0 on channel 0.
        info.swap(0, 2);
        assert_eq!(
            check_c2sr_pointers(&info, &lens),
            Err(SparseError::MalformedPointers { at: 0 })
        );
        info.swap(0, 2);
        // Channel 1 holds an entry no row accounts for.
        let short = check_c2sr_pointers(&info, &[lens[0], lens[1] + 1]);
        assert_eq!(short, Err(SparseError::MalformedPointers { at: 1 }));
    }

    #[test]
    fn more_channels_than_rows() {
        let csr = sample();
        let m = C2sr::from_csr(&csr, 16);
        assert_eq!(m.to_csr(), csr);
        // Channels beyond row count stay empty.
        assert_eq!(m.channel_nnz(7), 0);
    }

    #[test]
    fn empty_rows_have_zero_len() {
        let csr = Csr::<f64>::zero(5, 5);
        let m = C2sr::from_csr(&csr, 2);
        for i in 0..5 {
            assert_eq!(m.row_info(i).len, 0);
        }
        assert_eq!(m.nnz(), 0);
        m.validate().unwrap();
    }
}
