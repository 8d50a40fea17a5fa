//! The leaf-contiguous **scan layout**: raw series and SAX words stored
//! in leaf order.
//!
//! The queue-processing phase of the engine drains leaves: for every
//! candidate it reads the series' SAX word (pruning) and, for
//! survivors, its raw values (real distance). With leaves holding id
//! lists into dataset-ordered storage, both reads scatter across the
//! whole collection. This module stores the collection *permuted* so
//! that each leaf's series — and their SAX words — are contiguous:
//! draining a leaf is two sequential streams, and the batched
//! lower-bound pass (`QueryKernel::lb_block_sq`) runs over one dense
//! byte block.
//!
//! The SAX words are held once, row-major (`segments` bytes per
//! position). The SIMD mindist sweep transposes eight segments of four
//! words in registers as it goes, so no segment-major copy is kept.
//!
//! # The permutation / id-mapping contract
//!
//! * A **scan position** `p ∈ [0, num_series)` is a slot in this
//!   layout; each tree leaf owns one contiguous range of positions
//!   ([`crate::tree::LeafSlice`]), and the slices of all leaves
//!   partition the position space.
//! * [`LeafLayout::original_id`] maps a position to the series'
//!   **original id** (its row in the dataset the index was built from).
//!   Everything user-visible — answers, `Summaries::sax(id)`, cluster
//!   id-maps — speaks original ids; scan positions never escape the
//!   index internals.
//! * The permutation is **deterministic**: it depends only on the data
//!   (buffer order, then left-to-right leaf order, then dataset order
//!   within each leaf). Replication-group nodes building the same chunk
//!   therefore produce bit-identical layouts, which is what lets the
//!   work-stealing protocol exchange RS-batch ids instead of data.

use crate::buffers::Summaries;
use crate::series::DatasetBuffer;
use std::sync::Arc;

/// Scan-ordered storage of one indexed collection: raw series, one
/// row-major copy of the SAX words, and the position/id mappings (see
/// module docs for the contract).
#[derive(Debug, Clone)]
pub struct LeafLayout {
    /// Raw series, one per scan position (leaf-contiguous order).
    data: DatasetBuffer,
    /// Full-cardinality SAX words, `segments` bytes per scan position:
    /// the only summary copy, read by the leaf sweep and persisted as is.
    sax: Arc<[u8]>,
    /// `scan_to_id[p]` = original id of the series at position `p`.
    scan_to_id: Arc<[u32]>,
    /// `id_to_scan[id]` = scan position of original id `id`.
    id_to_scan: Arc<[u32]>,
    segments: usize,
}

impl LeafLayout {
    /// Materializes the layout from a dataset-ordered collection, its
    /// summaries, and the scan permutation produced by
    /// [`crate::tree::build_forest`].
    ///
    /// Peak memory is transiently ~2× the raw data: the gather
    /// allocates the permuted copy before the caller drops the
    /// dataset-ordered original. Steady state holds exactly one copy.
    ///
    /// # Panics
    /// Panics if `scan_to_id` is not a permutation of
    /// `0..data.num_series()` or the shapes disagree.
    pub fn build(data: &DatasetBuffer, summaries: &Summaries, scan_to_id: Vec<u32>) -> Self {
        let scan_data = data.gather(&scan_to_id);
        let mut sax = Vec::with_capacity(scan_to_id.len() * summaries.segments());
        for &id in &scan_to_id {
            sax.extend_from_slice(summaries.sax(id));
        }
        Self::from_scan_parts(scan_data, sax, scan_to_id, summaries.segments())
    }

    /// Assembles the layout from *already scan-ordered* parts (the
    /// persistence path): `scan_data.series(p)` and the `p`-th SAX word
    /// of `scan_sax` must belong to the series whose original id is
    /// `scan_to_id[p]`.
    ///
    /// # Panics
    /// Panics if `scan_to_id` is not a permutation of
    /// `0..scan_data.num_series()` or the shapes disagree.
    pub fn from_scan_parts(
        scan_data: DatasetBuffer,
        scan_sax: Vec<u8>,
        scan_to_id: Vec<u32>,
        segments: usize,
    ) -> Self {
        let n = scan_data.num_series();
        assert_eq!(scan_to_id.len(), n, "permutation length mismatch");
        assert_eq!(scan_sax.len(), n * segments, "SAX block length mismatch");
        let mut id_to_scan = vec![u32::MAX; n];
        for (p, &id) in scan_to_id.iter().enumerate() {
            assert!((id as usize) < n, "id {id} out of range");
            assert_eq!(
                id_to_scan[id as usize],
                u32::MAX,
                "id {id} appears twice in the scan permutation"
            );
            id_to_scan[id as usize] = p as u32;
        }
        LeafLayout {
            data: scan_data,
            sax: scan_sax.into(),
            scan_to_id: scan_to_id.into(),
            id_to_scan: id_to_scan.into(),
            segments,
        }
    }

    /// The scan-ordered raw data (position-indexed, **not** id-indexed).
    #[inline]
    pub fn data(&self) -> &DatasetBuffer {
        &self.data
    }

    /// Raw values of the series at scan position `p`.
    #[inline]
    pub fn series(&self, p: usize) -> &[f32] {
        self.data.series(p)
    }

    /// Raw values of the series with original id `id`.
    #[inline]
    pub fn series_by_id(&self, id: u32) -> &[f32] {
        self.data.series(self.id_to_scan[id as usize] as usize)
    }

    /// SAX word of the series at scan position `p`.
    #[inline]
    pub fn sax(&self, p: usize) -> &[u8] {
        &self.sax[p * self.segments..(p + 1) * self.segments]
    }

    /// The dense SAX byte block of a contiguous position range (one
    /// leaf's summaries, for the batched lower-bound pass).
    #[inline]
    pub fn sax_block(&self, range: std::ops::Range<usize>) -> &[u8] {
        &self.sax[range.start * self.segments..range.end * self.segments]
    }

    /// Original id of the series at scan position `p`.
    #[inline]
    pub fn original_id(&self, p: usize) -> u32 {
        self.scan_to_id[p]
    }

    /// Scan position of the series with original id `id`.
    #[inline]
    pub fn scan_pos(&self, id: u32) -> usize {
        self.id_to_scan[id as usize] as usize
    }

    /// The full position-to-id permutation.
    #[inline]
    pub fn scan_to_id(&self) -> &[u32] {
        &self.scan_to_id
    }

    /// Number of segments per SAX word.
    #[inline]
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// Number of series in the layout.
    #[inline]
    pub fn num_series(&self) -> usize {
        self.data.num_series()
    }

    /// Index-overhead bytes of the layout: the scan-ordered SAX words
    /// plus both id mappings (the raw values are the collection itself,
    /// not overhead — they exist in exactly one copy).
    pub fn size_bytes(&self) -> usize {
        self.sax.len() + (self.scan_to_id.len() + self.id_to_scan.len()) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (DatasetBuffer, Summaries) {
        let data = DatasetBuffer::from_vec(
            vec![
                0.0, 1.0, //
                2.0, 3.0, //
                4.0, 5.0, //
                6.0, 7.0,
            ],
            2,
        );
        let summaries = Summaries::compute(&data, 2, 1);
        (data, summaries)
    }

    #[test]
    fn build_permutes_data_and_sax_consistently() {
        let (data, summaries) = tiny();
        let layout = LeafLayout::build(&data, &summaries, vec![2, 0, 3, 1]);
        assert_eq!(layout.num_series(), 4);
        for p in 0..4 {
            let id = layout.original_id(p);
            assert_eq!(layout.series(p), data.series(id as usize));
            assert_eq!(layout.sax(p), summaries.sax(id));
            assert_eq!(layout.scan_pos(id), p);
            assert_eq!(layout.series_by_id(id), data.series(id as usize));
        }
        assert_eq!(
            layout.sax_block(1..3).len(),
            2 * layout.segments(),
            "block spans two positions"
        );
        assert!(layout.size_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn rejects_duplicate_ids() {
        let (data, summaries) = tiny();
        LeafLayout::build(&data, &summaries, vec![0, 0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_ids() {
        let (data, summaries) = tiny();
        LeafLayout::build(&data, &summaries, vec![0, 1, 2, 9]);
    }
}
