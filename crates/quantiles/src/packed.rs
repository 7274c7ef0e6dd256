//! The resting form of a hybrid quantile summary: frame-of-reference
//! packed buffers.
//!
//! A summary that will not be updated again — a sealed time segment, kept
//! resident so that a window read can merge a copy of it — holds most of
//! its bytes in its point buffers: the unsorted base buffer and one sorted
//! buffer per hierarchy level, eight bytes a point. [`PackedQuantile`]
//! keeps the scalar state as it is and cuts every buffer into blocks of
//! [`BLOCK`] points, each stored as a width code (0, 1, 2, 4 or 8 bytes),
//! the block's minimum and every point's offset from it at that width.
//! Sixty-four neighbours in a sorted run span a small part of the value
//! range, so their offsets take one or two bytes; a block holding a value
//! past `u32::MAX` packs too, at most nine header bytes over its eight
//! bytes a point. [`PackedQuantile::unpack`] rebuilds the summary it was:
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

/// Bytes of a block's header: its width code, then its minimum.
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

/// The narrowest width code, in bytes, that holds `range`.
fn width_of(range: u64) -> usize {
    match range {
        0 => 0,
        1..=0xFF => 1,
        0x100..=0xFFFF => 2,
        0x1_0000..=0xFFFF_FFFF => 4,
        _ => 8,
    }
}

/// Append `points` to `out` as blocks of [`BLOCK`], in order.
fn pack_run(points: &[u64], out: &mut Vec<u8>) {
    for block in points.chunks(BLOCK) {
        let (lo, hi) = block
            .iter()
            .fold((u64::MAX, 0), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let width = width_of(hi - lo);
        out.push(width as u8);
        out.extend_from_slice(&lo.to_le_bytes());
        match width {
            0 => {}
            1 => put::<1>(block, lo, out),
            2 => put::<2>(block, lo, out),
            4 => put::<4>(block, lo, out),
            _ => put::<8>(block, lo, out),
        }
    }
}

/// Each point's offset from `lo`, in its low `W` bytes.
fn put<const W: usize>(block: &[u64], lo: u64, out: &mut Vec<u8>) {
    for &v in block {
        out.extend_from_slice(&(v - lo).to_le_bytes()[..W]);
    }
}

/// The `len` points of the run starting at `blocks[*at..]`, advancing
/// `*at` past it. The vector is sized from `len`, the count the packed
/// form was built with.
fn unpack_run(blocks: &[u8], at: &mut usize, len: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let count = (len - out.len()).min(BLOCK);
        let width = usize::from(blocks[*at]);
        let lo = u64::from_le_bytes(
            blocks[*at + 1..*at + HEADER]
                .try_into()
                .expect("an eight-byte minimum"),
        );
        let body = &blocks[*at + HEADER..*at + HEADER + width * count];
        match width {
            0 => out.resize(out.len() + count, lo),
            1 => get::<1>(body, lo, &mut out),
            2 => get::<2>(body, lo, &mut out),
            4 => get::<4>(body, lo, &mut out),
            _ => get::<8>(body, lo, &mut out),
        }
        *at += HEADER + width * count;
    }
    out
}

/// The points whose `W`-byte offsets from `lo` are `body`.
fn get<const W: usize>(body: &[u8], lo: u64, out: &mut Vec<u64>) {
    out.extend(body.chunks_exact(W).map(|offset| {
        let mut bytes = [0u8; 8];
        bytes[..W].copy_from_slice(offset);
        lo + u64::from_le_bytes(bytes)
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
        pack_run(&self.base, &mut blocks);
        let levels = levels
            .iter()
            .map(|slot| {
                slot.as_ref().map(|buffer| {
                    pack_run(buffer.points(), &mut blocks);
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
        let base = unpack_run(&self.blocks, &mut at, self.base_len);
        let levels = self
            .levels
            .iter()
            .map(|slot| {
                slot.map(|len| SortedBuffer::from_sorted(unpack_run(&self.blocks, &mut at, len)))
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
    fn widths_are_the_narrowest_that_hold_the_range() {
        let cases = [
            (0, 0),
            (1, 1),
            (0xFF, 1),
            (0x100, 2),
            (0xFFFF, 2),
            (0x1_0000, 4),
            (0xFFFF_FFFF, 4),
            (0x1_0000_0000, 8),
            (u64::MAX, 8),
        ];
        for (range, width) in cases {
            assert_eq!(width_of(range), width, "range {range:#x}");
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
