//! Index persistence: a compact, versioned binary format for saving a
//! built [`Index`] (raw data + summaries + forest) and loading it back
//! without rebuilding.
//!
//! The paper's setting is in-memory, but any deployment answering more
//! than one batch wants to pay the construction cost once. The format is
//! deliberately simple (explicit little-endian fields, no external
//! serialization dependency) and fully validated on load — a corrupted
//! or truncated file produces an error, never a wrong index.
//!
//! Version 2 ("ODY2") persists the leaf-contiguous scan layout: raw
//! values in **scan order**, the scan permutation, and per-leaf slot
//! ranges instead of id lists. Loading validates that the permutation
//! is a bijection and that the leaf slices partition the position
//! space, so a loaded index satisfies the same layout contract as a
//! freshly built one.
//!
//! The in-memory layout holds exactly what the file holds: the SIMD
//! mindist sweep reads the persisted row-major SAX block directly, and
//! the root planes (`RootSoa`) are rebuilt from it on load. The bytes of
//! a save are pinned by a golden test, so ODY2 files written by earlier
//! builds load unchanged.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "ODY2" | u32 series_len | u32 segments | u32 leaf_capacity
//! u64 num_series | raw f32 data (scan order)
//! per-series SAX bytes (scan order)
//! scan permutation: u32 original id per scan position
//! u64 n_subtrees | per subtree: u64 key, node tree (pre-order)
//! node: u8 tag (0=leaf, 1=inner)
//!   leaf : word, u32 slice offset, u32 slice len
//!   inner: word, u32 split_seg, then both children
//! word : per segment u8 symbol, then per segment u8 card_bits
//! ```

use crate::index::{Index, IndexConfig};
use crate::sax::IsaxWord;
use crate::series::DatasetBuffer;
use crate::tree::{Leaf, LeafSlice, Node, RootSubtree};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"ODY2";

/// Bytes read per call when loading a bulk section. Section buffers
/// grow as bytes actually arrive, so a file whose header lies about its
/// length fails at EOF having allocated about what it holds, never what
/// it claims.
const READ_CHUNK: usize = 1 << 20;

/// Errors produced when loading a persisted index.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The bytes are not a valid persisted index.
    Corrupt(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "I/O error: {e}"),
            PersistError::Corrupt(m) => write!(f, "corrupt index file: {m}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

fn corrupt(msg: impl Into<String>) -> PersistError {
    PersistError::Corrupt(msg.into())
}

struct Writer<'w, W: Write> {
    out: &'w mut W,
}

impl<W: Write> Writer<'_, W> {
    fn u8(&mut self, v: u8) -> io::Result<()> {
        self.out.write_all(&[v])
    }
    fn u32(&mut self, v: u32) -> io::Result<()> {
        self.out.write_all(&v.to_le_bytes())
    }
    fn u64(&mut self, v: u64) -> io::Result<()> {
        self.out.write_all(&v.to_le_bytes())
    }
    fn bytes(&mut self, v: &[u8]) -> io::Result<()> {
        self.out.write_all(v)
    }
    fn word(&mut self, w: &IsaxWord) -> io::Result<()> {
        self.bytes(&w.symbols)?;
        self.bytes(&w.card_bits)
    }
    fn node(&mut self, n: &Node) -> io::Result<()> {
        match n {
            Node::Leaf(l) => {
                self.u8(0)?;
                self.word(&l.word)?;
                self.u32(l.slice.offset)?;
                self.u32(l.slice.len)?;
            }
            Node::Inner {
                word,
                split_seg,
                children,
            } => {
                self.u8(1)?;
                self.word(word)?;
                self.u32(*split_seg as u32)?;
                self.node(&children[0])?;
                self.node(&children[1])?;
            }
        }
        Ok(())
    }
}

struct Reader<'r, R: Read> {
    inp: &'r mut R,
    segments: usize,
}

impl<R: Read> Reader<'_, R> {
    fn u8(&mut self) -> Result<u8, PersistError> {
        let mut b = [0u8; 1];
        self.inp.read_exact(&mut b)?;
        Ok(b[0])
    }
    fn u32(&mut self) -> Result<u32, PersistError> {
        let mut b = [0u8; 4];
        self.inp.read_exact(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }
    fn u64(&mut self) -> Result<u64, PersistError> {
        let mut b = [0u8; 8];
        self.inp.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }
    fn word(&mut self) -> Result<IsaxWord, PersistError> {
        let mut symbols = vec![0u8; self.segments];
        self.inp.read_exact(&mut symbols)?;
        let mut card_bits = vec![0u8; self.segments];
        self.inp.read_exact(&mut card_bits)?;
        if card_bits.iter().any(|&b| b > crate::sax::MAX_CARD_BITS) {
            return Err(corrupt("cardinality exceeds maximum"));
        }
        Ok(IsaxWord { symbols, card_bits })
    }
    /// Reads a node, marking each leaf's slice positions in `covered`
    /// (the caller validates the slices partition the position space).
    fn node(
        &mut self,
        num_series: u64,
        depth: usize,
        covered: &mut [bool],
    ) -> Result<Node, PersistError> {
        if depth > 16 * crate::sax::MAX_CARD_BITS as usize + 64 {
            return Err(corrupt("tree deeper than any valid iSAX tree"));
        }
        match self.u8()? {
            0 => {
                let word = self.word()?;
                let offset = self.u32()?;
                let len = self.u32()?;
                let end = u64::from(offset) + u64::from(len);
                if end > num_series {
                    return Err(corrupt("leaf slice out of range"));
                }
                for (p, slot) in covered
                    .iter_mut()
                    .enumerate()
                    .take(end as usize)
                    .skip(offset as usize)
                {
                    if *slot {
                        return Err(corrupt(format!("scan position {p} covered twice")));
                    }
                    *slot = true;
                }
                Ok(Node::Leaf(Leaf {
                    word,
                    slice: LeafSlice { offset, len },
                }))
            }
            1 => {
                let word = self.word()?;
                let split_seg = self.u32()? as usize;
                if split_seg >= self.segments {
                    return Err(corrupt("split segment out of range"));
                }
                let c0 = self.node(num_series, depth + 1, covered)?;
                let c1 = self.node(num_series, depth + 1, covered)?;
                Ok(Node::Inner {
                    word,
                    split_seg,
                    children: [Box::new(c0), Box::new(c1)],
                })
            }
            t => Err(corrupt(format!("unknown node tag {t}"))),
        }
    }
}

/// Reads a bulk section of `count` fixed-width little-endian values in
/// chunks of at most [`READ_CHUNK`] bytes. Capacity grows geometrically,
/// capped at `count`: an honest file ends with exactly `count` slots, a
/// truncated one with at most about twice the values it held.
fn read_section<R: Read, T, const WIDTH: usize>(
    inp: &mut R,
    count: usize,
    decode: impl Fn([u8; WIDTH]) -> T,
) -> Result<Vec<T>, PersistError> {
    let per_chunk = READ_CHUNK / WIDTH;
    let mut buf = vec![0u8; count.min(per_chunk) * WIDTH];
    let mut out: Vec<T> = Vec::new();
    while out.len() < count {
        let left = count - out.len();
        let take = left.min(per_chunk);
        if out.capacity() - out.len() < take {
            out.reserve_exact(out.len().max(take).min(left));
        }
        let bytes = &mut buf[..take * WIDTH];
        inp.read_exact(bytes)?;
        out.extend(bytes.chunks_exact(WIDTH).map(|b| {
            let mut v = [0u8; WIDTH];
            v.copy_from_slice(b);
            decode(v)
        }));
    }
    Ok(out)
}

/// `a * b` as a `usize`, or `Corrupt` when the product overflows — the
/// header's lengths are untrusted.
fn checked_len(a: usize, b: usize, what: &str) -> Result<usize, PersistError> {
    a.checked_mul(b)
        .ok_or_else(|| corrupt(format!("{what} size overflows")))
}

/// Serializes a built index (including its raw data, in scan order) to
/// a writer.
pub fn save_index<W: Write>(index: &Index, out: &mut W) -> io::Result<()> {
    let mut w = Writer { out };
    let cfg = index.config();
    w.bytes(MAGIC)?;
    w.u32(cfg.series_len as u32)?;
    w.u32(cfg.segments as u32)?;
    w.u32(cfg.leaf_capacity as u32)?;
    let n = index.num_series();
    w.u64(n as u64)?;
    for &v in index.layout().data().raw() {
        w.bytes(&v.to_le_bytes())?;
    }
    w.bytes(index.layout().sax_block(0..n))?;
    for &id in index.layout().scan_to_id() {
        w.u32(id)?;
    }
    w.u64(index.forest().len() as u64)?;
    for st in index.forest() {
        w.u64(st.key)?;
        w.node(&st.node)?;
    }
    Ok(())
}

/// Deserializes an index previously written by [`save_index`].
pub fn load_index<R: Read>(inp: &mut R) -> Result<Index, PersistError> {
    let mut magic = [0u8; 4];
    inp.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(corrupt("bad magic (not an Odyssey index file)"));
    }
    let mut hdr = Reader { inp, segments: 0 };
    let series_len = hdr.u32()? as usize;
    let segments = hdr.u32()? as usize;
    let leaf_capacity = hdr.u32()? as usize;
    if series_len == 0 || segments == 0 || segments > series_len || segments > 64 {
        return Err(corrupt("invalid dimensions"));
    }
    if leaf_capacity == 0 {
        return Err(corrupt("invalid leaf capacity"));
    }
    // Series ids are `u32`, so a larger count is a lie, not an index.
    let n = usize::try_from(hdr.u64()?)
        .ok()
        .filter(|&n| n <= u32::MAX as usize)
        .ok_or_else(|| corrupt("series count exceeds the u32 id space"))?;
    let raw_len = checked_len(n, series_len, "raw data")?;
    checked_len(raw_len, 4, "raw data")?; // its byte count must fit too
    let sax_len = checked_len(n, segments, "SAX block")?;
    let raw = read_section(hdr.inp, raw_len, f32::from_le_bytes)?;
    let sax = read_section(hdr.inp, sax_len, |[b]: [u8; 1]| b)?;
    let scan_to_id = read_section(hdr.inp, n, u32::from_le_bytes)?;
    // The scan permutation must be a bijection onto [0, n). Every
    // allocation from here on is bounded by the bytes already read.
    {
        let mut seen = vec![false; n];
        for &id in &scan_to_id {
            let id = id as usize;
            if id >= n {
                return Err(corrupt("scan permutation id out of range"));
            }
            if seen[id] {
                return Err(corrupt(format!("id {id} appears twice in permutation")));
            }
            seen[id] = true;
        }
    }
    let n_subtrees = hdr.u64()? as usize;
    if n_subtrees > n.max(1) {
        return Err(corrupt("more subtrees than series"));
    }
    let mut reader = Reader {
        inp: hdr.inp,
        segments,
    };
    let mut forest = Vec::new();
    let mut prev_key: Option<u64> = None;
    let mut total = 0usize;
    // Leaf slices must partition the scan positions (no overlap, full
    // coverage) — the layout contract every search path relies on.
    let mut covered = vec![false; n];
    for _ in 0..n_subtrees {
        let key = reader.u64()?;
        if let Some(p) = prev_key {
            if key <= p {
                return Err(corrupt("subtree keys not strictly ascending"));
            }
        }
        prev_key = Some(key);
        let node = reader.node(n as u64, 0, &mut covered)?;
        let size = node.series_count();
        total += size;
        forest.push(RootSubtree { key, node, size });
    }
    if total != n {
        return Err(corrupt(format!(
            "forest stores {total} series, header says {n}"
        )));
    }
    if !covered.iter().all(|&c| c) {
        return Err(corrupt("leaf slices do not cover every scan position"));
    }
    // The determinism contract documented on `LeafSlice`: within each
    // leaf, positions ascend in original-id order. A file violating it
    // would load into an index whose tie resolution diverges from a
    // freshly built one.
    for st in &forest {
        let mut ordered = true;
        st.node.for_each_leaf(&mut |leaf| {
            let ids = &scan_to_id[leaf.slice.range()];
            if ids.windows(2).any(|w| w[0] >= w[1]) {
                ordered = false;
            }
        });
        if !ordered {
            return Err(corrupt("leaf ids not in dataset order"));
        }
    }
    let data = DatasetBuffer::from_vec(raw, series_len);
    let cfg = IndexConfig {
        series_len,
        segments,
        leaf_capacity,
    };
    Ok(Index::from_parts(cfg, data, sax, scan_to_id, forest))
}

/// Saves an index to a file path.
pub fn save_index_file(index: &Index, path: &std::path::Path) -> io::Result<()> {
    let mut f = io::BufWriter::new(std::fs::File::create(path)?);
    save_index(index, &mut f)?;
    f.flush()
}

/// Loads an index from a file path.
pub fn load_index_file(path: &std::path::Path) -> Result<Index, PersistError> {
    let mut f = io::BufReader::new(std::fs::File::open(path)?);
    load_index(&mut f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::engine::BatchEngine;
    use crate::search::exact::SearchParams;
    use std::sync::Arc;

    fn walk_dataset(n: usize, len: usize, seed: u64) -> DatasetBuffer {
        let mut x = seed | 1;
        let mut data = Vec::with_capacity(n * len);
        for _ in 0..n {
            let mut acc = 0.0f32;
            let mut s = Vec::with_capacity(len);
            for _ in 0..len {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc += ((x % 2000) as f32 / 1000.0) - 1.0;
                s.push(acc);
            }
            crate::series::znormalize(&mut s);
            data.extend_from_slice(&s);
        }
        DatasetBuffer::from_vec(data, len)
    }

    fn build(n: usize) -> Index {
        Index::build(
            walk_dataset(n, 64, 99),
            IndexConfig::new(64).with_segments(8).with_leaf_capacity(16),
            2,
        )
    }

    #[test]
    fn roundtrip_preserves_answers() {
        let index = build(700);
        let mut bytes = Vec::new();
        save_index(&index, &mut bytes).expect("save");
        let loaded = load_index(&mut bytes.as_slice()).expect("load");
        assert_eq!(loaded.num_series(), 700);
        assert_eq!(loaded.forest().len(), index.forest().len());
        let q = walk_dataset(1, 64, 5).series(0).to_vec();
        let a = BatchEngine::new(Arc::new(index), 2).exact(&q, &SearchParams::new(2));
        let b = BatchEngine::new(Arc::new(loaded), 2).exact(&q, &SearchParams::new(2));
        assert_eq!(a.answer.distance, b.answer.distance);
        assert_eq!(a.answer.series_id, b.answer.series_id);
    }

    #[test]
    fn roundtrip_preserves_structure_exactly() {
        let index = build(400);
        let mut bytes = Vec::new();
        save_index(&index, &mut bytes).expect("save");
        let loaded = load_index(&mut bytes.as_slice()).expect("load");
        assert_eq!(
            index.layout().scan_to_id(),
            loaded.layout().scan_to_id(),
            "scan permutation survives"
        );
        for (a, b) in index.forest().iter().zip(loaded.forest()) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.size, b.size);
            let mut la = Vec::new();
            let mut lb = Vec::new();
            a.node.for_each_leaf(&mut |l| la.push((l.word.clone(), l.slice)));
            b.node.for_each_leaf(&mut |l| lb.push((l.word.clone(), l.slice)));
            assert_eq!(la, lb);
        }
        for id in 0..400u32 {
            assert_eq!(index.sax_by_id(id), loaded.sax_by_id(id));
            assert_eq!(index.series_by_id(id), loaded.series_by_id(id));
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = b"NOPE".to_vec();
        bytes.extend_from_slice(&[0u8; 64]);
        assert!(matches!(
            load_index(&mut bytes.as_slice()),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let index = build(120);
        let mut bytes = Vec::new();
        save_index(&index, &mut bytes).expect("save");
        // Truncate at a spread of offsets; every prefix must fail cleanly.
        for frac in [10usize, 30, 50, 70, 90, 99] {
            let cut = bytes.len() * frac / 100;
            let mut slice = &bytes[..cut];
            assert!(
                load_index(&mut slice).is_err(),
                "truncation at {frac}% must not produce an index"
            );
        }
    }

    /// A header-only ODY2 file (magic, dimensions, series count) with no
    /// payload behind it.
    fn header_only(series_len: u32, segments: u32, n: u64) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        for v in [series_len, segments, 16] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        bytes.extend_from_slice(&n.to_le_bytes());
        bytes
    }

    #[test]
    fn rejects_series_count_beyond_id_space() {
        let bytes = header_only(128, 16, 1 << 40);
        match load_index(&mut bytes.as_slice()) {
            Err(PersistError::Corrupt(m)) => {
                assert!(m.contains("id space"), "unexpected message: {m}")
            }
            other => panic!("expected corruption error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_huge_series_count_without_payload() {
        // 2^31 series of 128 floats would be 1 TiB; the file holds 24
        // bytes, so the load must fail at EOF instead of allocating.
        let bytes = header_only(128, 16, 1 << 31);
        assert!(load_index(&mut bytes.as_slice()).is_err());
        // Widest dimensions: the byte count must not wrap either.
        let bytes = header_only(u32::MAX, 64, u32::MAX as u64);
        assert!(load_index(&mut bytes.as_slice()).is_err());
    }

    #[test]
    fn roundtrip_spans_several_read_chunks() {
        // 3000 × 128 floats is ~1.5 MiB of raw data: the bulk section
        // crosses a chunk boundary.
        let index = Index::build(
            walk_dataset(3000, 128, 7),
            IndexConfig::new(128).with_segments(16).with_leaf_capacity(64),
            2,
        );
        let mut bytes = Vec::new();
        save_index(&index, &mut bytes).expect("save");
        let loaded = load_index(&mut bytes.as_slice()).expect("load");
        assert_eq!(index.layout().data().raw(), loaded.layout().data().raw());
        assert_eq!(index.layout().scan_to_id(), loaded.layout().scan_to_id());
    }

    #[test]
    fn rejects_out_of_range_ids() {
        let index = build(50);
        let mut bytes = Vec::new();
        save_index(&index, &mut bytes).expect("save");
        // Lower the series count in the header: everything downstream
        // (permutation, slices) is now inconsistent with it.
        let off = 4 + 4 + 4 + 4; // magic + 3 u32s
        bytes[off..off + 8].copy_from_slice(&10u64.to_le_bytes());
        assert!(load_index(&mut bytes.as_slice()).is_err());
    }

    #[test]
    fn rejects_corrupted_scan_permutation() {
        let index = build(50);
        let cfg = *index.config();
        let n = index.num_series();
        let mut bytes = Vec::new();
        save_index(&index, &mut bytes).expect("save");
        // Overwrite the first permutation entry with a copy of the
        // second: the permutation is no longer a bijection.
        let perm_off = 4 + 12 + 8 + n * cfg.series_len * 4 + n * cfg.segments;
        let dup = bytes[perm_off + 4..perm_off + 8].to_vec();
        bytes[perm_off..perm_off + 4].copy_from_slice(&dup);
        match load_index(&mut bytes.as_slice()) {
            Err(PersistError::Corrupt(m)) => {
                assert!(m.contains("twice"), "unexpected message: {m}")
            }
            other => panic!("expected corruption error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_leaf_ids_out_of_dataset_order() {
        let index = build(200);
        let cfg = *index.config();
        let n = index.num_series();
        // Find a leaf holding at least two series.
        let mut off = None;
        for st in index.forest() {
            st.node.for_each_leaf(&mut |l| {
                if off.is_none() && l.slice.len() >= 2 {
                    off = Some(l.slice.offset as usize);
                }
            });
        }
        let off = off.expect("some leaf holds two series");
        let mut bytes = Vec::new();
        save_index(&index, &mut bytes).expect("save");
        // Swap the leaf's first two permutation entries: still a valid
        // bijection with valid slices, but the within-leaf dataset
        // order — and hence tie-resolution determinism — is broken.
        let perm_off =
            4 + 12 + 8 + n * cfg.series_len * 4 + n * cfg.segments + off * 4;
        let (a, b) = (perm_off, perm_off + 4);
        for i in 0..4 {
            bytes.swap(a + i, b + i);
        }
        match load_index(&mut bytes.as_slice()) {
            Err(PersistError::Corrupt(m)) => {
                assert!(m.contains("dataset order"), "unexpected message: {m}")
            }
            other => panic!("expected corruption error, got {other:?}"),
        }
    }

    /// FNV-1a, 64-bit, over a byte string.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    #[test]
    fn ody2_bytes_are_pinned() {
        // Golden hashes of two seeded saves. Any change to the file
        // format, the scan permutation, the SAX summaries or the forest
        // shows up here; a file written by an older build loads into the
        // same bytes, so it loads unchanged.
        for (segments, seed, want) in [
            (8usize, 31u64, 0xBC70_A853_4D1C_A1E0),
            (16, 47, 0x7CF2_97AE_69C4_B1C4),
        ] {
            let index = Index::build(
                walk_dataset(600, 64, seed),
                IndexConfig::new(64)
                    .with_segments(segments)
                    .with_leaf_capacity(20),
                2,
            );
            assert!(index.leaf_count() > 30, "many leaves");
            let mut bytes = Vec::new();
            save_index(&index, &mut bytes).expect("save");
            assert_eq!(
                fnv1a64(&bytes),
                want,
                "ODY2 bytes moved at {segments} segments ({} bytes)",
                bytes.len()
            );
            let loaded = load_index(&mut bytes.as_slice()).expect("load");
            let mut again = Vec::new();
            save_index(&loaded, &mut again).expect("resave");
            assert!(again == bytes, "load -> save reproduces the file");
        }
    }

    #[test]
    fn layout_holds_one_sax_copy() {
        // The layout's overhead is the SAX words once plus two u32 id
        // maps, built or loaded: a second summary copy would show here.
        let index = build(500);
        let mut bytes = Vec::new();
        save_index(&index, &mut bytes).expect("save");
        let loaded = load_index(&mut bytes.as_slice()).expect("load");
        for layout in [index.layout(), loaded.layout()] {
            let (n, segments) = (layout.num_series(), layout.segments());
            assert_eq!(layout.size_bytes(), n * segments + 8 * n);
        }
    }

    #[test]
    fn file_roundtrip() {
        let index = build(200);
        let path = std::env::temp_dir().join(format!("odyssey_persist_{}.idx", std::process::id()));
        save_index_file(&index, &path).expect("save file");
        let loaded = load_index_file(&path).expect("load file");
        assert_eq!(loaded.num_series(), 200);
        std::fs::remove_file(&path).ok();
    }
}
