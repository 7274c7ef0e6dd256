//! The resting form of a hybrid quantile summary: packed buffers.
//!
//! A summary that will not be updated again — a sealed time segment, kept
//! resident so that a window read can merge a copy of it — holds most of
//! its bytes in its point buffers: the unsorted base buffer and one sorted
//! buffer per hierarchy level, eight bytes a point. [`PackedQuantile`]
//! keeps the scalar state as it is and cuts every buffer into blocks of
//! [`BLOCK`] points. A block stores a width (0 to 8 bytes), a reference
//! point and one code per point at that width: in a sorted level the
//! reference is the block's first point and a code is the gap to the
//! point before it; in the base buffer the reference is the block's
//! minimum and a code is the offset from it. Most gaps between neighbours
//! in a sorted run fit a byte, so a ledger-shaped segment rests in about
//! 1.4 bytes a point; a block holding a value past `u32::MAX` packs too,
//! at most nine header bytes over its eight bytes a point.
//! [`PackedQuantile::unpack`] rebuilds the summary it was:
//! every point in its place (the base buffer's order included), every
//! empty or trailing level, the partial block and the generator, so the
//! rebuilt summary encodes to the same bytes and merges with the same
//! coins.

use ms_core::Rng64;

use crate::buffer::SortedBuffer;
use crate::hierarchy::BufferHierarchy;
use crate::hybrid::HybridQuantile;

/// Points per frame-of-reference block.
pub const BLOCK: usize = 64;

/// Bytes of a block's header: its width, then its reference point.
const HEADER: usize = 1 + 8;

/// A [`HybridQuantile<u64>`] at rest (module doc). Built by
/// [`HybridQuantile::pack`]; answers nothing itself — a reader unpacks a
/// copy.
#[derive(Debug, Clone)]
pub struct PackedQuantile {
    epsilon: f64,
    m: usize,
    max_levels: usize,
    w: u64,
    block_count: u64,
    block_candidate: Option<u64>,
    n: u64,
    rng: Rng64,
    /// Points in the base buffer.
    base_len: usize,
    /// Points in each hierarchy level, `None` for an empty slot.
    levels: Box<[Option<usize>]>,
    /// The base buffer's blocks, then each occupied level's, back to back.
    blocks: Box<[u8]>,
}

/// The narrowest width, in bytes, that holds `code`.
fn width_of(code: u64) -> usize {
    (64 - code.leading_zeros() as usize).div_ceil(8)
}

/// Append `points` to `out` as blocks of [`BLOCK`], in order, each coded
/// against its reference point (module doc): as gaps when `sorted`, as
/// offsets from the minimum otherwise.
fn pack_run(points: &[u64], sorted: bool, out: &mut Vec<u8>) {
    for block in points.chunks(BLOCK) {
        let lo = match sorted {
            true => block[0],
            false => block.iter().copied().min().expect("chunks are not empty"),
        };
        let mut codes = [0u64; BLOCK];
        let mut prev = lo;
        for (code, &v) in codes.iter_mut().zip(block) {
            *code = v - if sorted { prev } else { lo };
            prev = v;
        }
        let codes = &codes[..block.len()];
        let width = width_of(codes.iter().fold(0, |all, &c| all | c));
        out.push(width as u8);
        out.extend_from_slice(&lo.to_le_bytes());
        for code in codes {
            out.extend_from_slice(&code.to_le_bytes()[..width]);
        }
    }
}

/// The `len` points of the run starting at `blocks[*at..]`, advancing
/// `*at` past it. The vector is sized from `len`, the count the packed
/// form was built with.
fn unpack_run(blocks: &[u8], at: &mut usize, len: usize, sorted: bool) -> Vec<u64> {
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let count = (len - out.len()).min(BLOCK);
        let width = usize::from(blocks[*at]);
        let lo = u64::from_le_bytes(
            blocks[*at + 1..*at + HEADER]
                .try_into()
                .expect("an eight-byte reference"),
        );
        let body = &blocks[*at + HEADER..*at + HEADER + width * count];
        match (width, sorted) {
            (0, _) => out.resize(out.len() + count, lo),
            (1, true) => get::<1, true>(body, lo, &mut out),
            (2, true) => get::<2, true>(body, lo, &mut out),
            (3, true) => get::<3, true>(body, lo, &mut out),
            (4, true) => get::<4, true>(body, lo, &mut out),
            (1, false) => get::<1, false>(body, lo, &mut out),
            (2, false) => get::<2, false>(body, lo, &mut out),
            (3, false) => get::<3, false>(body, lo, &mut out),
            (4, false) => get::<4, false>(body, lo, &mut out),
            // Rare: a code past `u32::MAX`.
            (_, sorted) => get_wide(body, width, lo, sorted, &mut out),
        }
        *at += HEADER + width * count;
    }
    out
}

/// The points whose `W`-byte codes against `lo` are `body`: running sums
/// of gaps when `SORTED`, offsets from `lo` otherwise.
fn get<const W: usize, const SORTED: bool>(body: &[u8], lo: u64, out: &mut Vec<u64>) {
    let mut prev = lo;
    out.extend(body.chunks_exact(W).map(|code| {
        let mut bytes = [0u8; 8];
        bytes[..W].copy_from_slice(code);
        prev = if SORTED { prev } else { lo } + u64::from_le_bytes(bytes);
        prev
    }));
}

/// [`get`] for codes five to eight bytes wide.
fn get_wide(body: &[u8], width: usize, lo: u64, sorted: bool, out: &mut Vec<u64>) {
    let mut prev = lo;
    out.extend(body.chunks_exact(width).map(|code| {
        let mut bytes = [0u8; 8];
        bytes[..width].copy_from_slice(code);
        prev = if sorted { prev } else { lo } + u64::from_le_bytes(bytes);
        prev
    }));
}

impl HybridQuantile<u64> {
    /// This summary in its resting form (module doc).
    pub fn pack(&self) -> PackedQuantile {
        let levels = self.hierarchy.levels();
        // At most eight bytes a point and a header a block (every run may
        // end in a partial one); the boxed slice gives back the rest.
        let points = self.base.len() + self.hierarchy.stored_points();
        let mut blocks =
            Vec::with_capacity(8 * points + HEADER * (levels.len() + 1 + points / BLOCK));
        pack_run(&self.base, false, &mut blocks);
        let levels = levels
            .iter()
            .map(|slot| {
                slot.as_ref().map(|buffer| {
                    pack_run(buffer.points(), true, &mut blocks);
                    buffer.len()
                })
            })
            .collect();
        PackedQuantile {
            epsilon: self.epsilon,
            m: self.m,
            max_levels: self.max_levels,
            w: self.w,
            block_count: self.block_count,
            block_candidate: self.block_candidate,
            n: self.n,
            rng: self.rng.clone(),
            base_len: self.base.len(),
            levels,
            blocks: blocks.into_boxed_slice(),
        }
    }
}

impl PackedQuantile {
    /// The summary this was packed from, to the byte.
    pub fn unpack(&self) -> HybridQuantile<u64> {
        let mut at = 0;
        let base = unpack_run(&self.blocks, &mut at, self.base_len, false);
        let levels = self
            .levels
            .iter()
            .map(|slot| {
                slot.map(|len| {
                    SortedBuffer::from_sorted(unpack_run(&self.blocks, &mut at, len, true))
                })
            })
            .collect();
        HybridQuantile {
            epsilon: self.epsilon,
            m: self.m,
            max_levels: self.max_levels,
            w: self.w,
            block_count: self.block_count,
            block_candidate: self.block_candidate,
            base,
            hierarchy: BufferHierarchy::from_levels(levels),
            n: self.n,
            rng: self.rng.clone(),
        }
    }

    /// Heap bytes this form holds: the blocks and the level counts.
    pub fn heap_bytes(&self) -> usize {
        self.blocks.len() + std::mem::size_of_val(&*self.levels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RankSummary;
    use ms_core::Wire;

    #[test]
    fn widths_are_the_narrowest_that_hold_the_code() {
        let cases = [
            (0, 0),
            (1, 1),
            (0xFF, 1),
            (0x100, 2),
            (0xFFFF, 2),
            (0x1_0000, 3),
            (0xFFFF_FFFF, 4),
            (0x1_0000_0000, 5),
            (u64::MAX, 8),
        ];
        for (code, width) in cases {
            assert_eq!(width_of(code), width, "code {code:#x}");
        }
    }

    /// A sorted block codes the gaps between neighbours, any other the
    /// offsets from its minimum; both round-trip.
    #[test]
    fn sorted_blocks_code_gaps_and_others_offsets() {
        let cases: [(&[u64], bool, usize); 4] = [
            (&[1_000, 1_001, 1_200, 1_455], true, 1),
            (&[1_455, 1_000, 1_200, 1_001], false, 2),
            (&[0, u64::MAX], true, 8),
            (&[9, 9, 9], true, 0),
        ];
        for (points, sorted, width) in cases {
            let mut out = Vec::new();
            pack_run(points, sorted, &mut out);
            assert_eq!(usize::from(out[0]), width, "{points:?}");
            assert_eq!(out.len(), HEADER + width * points.len(), "{points:?}");
            let mut at = 0;
            assert_eq!(unpack_run(&out, &mut at, points.len(), sorted), points);
            assert_eq!(at, out.len());
        }
    }

    #[test]
    fn an_all_equal_block_is_its_header() {
        let mut q = HybridQuantile::new(0.1, 3);
        for _ in 0..50 {
            q.insert(u64::MAX);
        }
        let packed = q.pack();
        assert_eq!(packed.heap_bytes(), HEADER);
        assert_eq!(packed.unpack().encode(), q.encode());
    }
}
