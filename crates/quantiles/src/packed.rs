//! The resting form of a hybrid quantile summary: bit-packed buffers.
//!
//! A summary that will not be updated again — a sealed time segment, kept
//! resident so that a window read can merge a copy of it — holds most of
//! its bytes in its point buffers: the unsorted base buffer and one sorted
//! buffer per hierarchy level, eight bytes a point. [`PackedQuantile`]
//! keeps the scalar state as it is and cuts every buffer into blocks of
//! [`BLOCK`] points. A block stores a width `W` in bits (0 to 64), a
//! reference point as a varint and one `W`-bit code per point, the codes
//! back to back in little-endian bit order: in a sorted level the
//! reference is the block's first point and a code is the gap to the
//! point before it; in the base buffer the reference is the block's
//! minimum and a code is the offset from it. Gaps between neighbours in
//! a sorted run take a handful of bits, so a ledger-shaped segment rests
//! in under a byte a point; a block holding a value past `u32::MAX` packs
//! too, at most eleven header bytes over its eight bytes a point.
//!
//! Eight codes of `W` bits fill exactly `W` bytes, so a block decodes in
//! groups of eight with a decoder specialised to its width: every load
//! offset, shift and mask in a group is a constant. A group is read in
//! place unless it ends within 16 bytes of the end of the blocks,
//! and each point is written once, as its running sum comes out, into
//! the spare capacity of the vector that returns it.
//!
//! [`PackedQuantile::unpack`] rebuilds the summary it was:
//! every point in its place (the base buffer's order included), every
//! empty or trailing level, the partial block and the generator, so the
//! rebuilt summary encodes to the same bytes and merges with the same
//! coins.

use std::mem::MaybeUninit;

use ms_core::wire::put_varint;
use ms_core::Rng64;

use crate::buffer::SortedBuffer;
use crate::hierarchy::BufferHierarchy;
use crate::hybrid::HybridQuantile;

/// Points per frame-of-reference block.
pub const BLOCK: usize = 64;

/// Codes per group: eight `W`-bit codes are `W` whole bytes.
const GROUP: usize = 8;

/// Most bytes of a block's header: its width, then a varint reference.
const MAX_HEADER: usize = 1 + 10;

/// Bytes a group decoder reads past its group's first byte, beyond the
/// group's own `W`: one unaligned 16-byte load at its last code.
const SLACK: usize = 16;

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
        let width = u64::BITS - codes.iter().fold(0, |all, &c| all | c).leading_zeros();
        out.push(width as u8);
        put_varint(out, lo);
        put_codes(codes, width, out);
    }
}

/// Append `codes` at `width` bits each, the first in the lowest bits of
/// the first byte: `⌈len · width / 8⌉` bytes.
fn put_codes(codes: &[u64], width: u32, out: &mut Vec<u8>) {
    let (mut acc, mut bits) = (0u128, 0);
    for &code in codes {
        acc |= u128::from(code) << bits;
        bits += width;
        if bits >= u64::BITS {
            out.extend_from_slice(&(acc as u64).to_le_bytes());
            acc >>= u64::BITS;
            bits -= u64::BITS;
        }
    }
    out.extend_from_slice(&acc.to_le_bytes()[..bits.div_ceil(8) as usize]);
}

/// The eight `W`-bit codes of the group starting at `bytes[0]`, which
/// holds at least `W + SLACK` bytes.
#[inline(always)]
fn group<const W: usize>(bytes: &[u8]) -> [u64; GROUP] {
    let bytes = &bytes[..W + SLACK];
    let mask = match W {
        0 => 0,
        _ => u64::MAX >> (64 - W),
    };
    let mut codes = [0u64; GROUP];
    for (i, code) in codes.iter_mut().enumerate() {
        let (at, shift) = (i * W / 8, i * W % 8);
        // A code and its shift fit one word up to 56 bits wide.
        *code = mask
            & if W <= 56 {
                let word = bytes[at..at + 8].try_into().expect("eight bytes");
                u64::from_le_bytes(word) >> shift
            } else {
                let word = bytes[at..at + 16].try_into().expect("sixteen bytes");
                (u128::from_le_bytes(word) >> shift) as u64
            };
    }
    codes
}

/// The group of codes starting `at` bytes into `body`, read in place
/// unless the group ends within [`SLACK`] bytes of `body`'s end.
#[inline(always)]
fn group_at<const W: usize>(body: &[u8], at: usize) -> [u64; GROUP] {
    match body.get(at..at + W + SLACK) {
        Some(bytes) => group::<W>(bytes),
        None => {
            let mut padded = [0u8; BLOCK + SLACK];
            let tail = &body[at..];
            padded[..tail.len()].copy_from_slice(tail);
            group::<W>(&padded)
        }
    }
}

/// Decode the block whose codes, `W` bits each, start at `body[0]` into
/// `points`, writing every slot: running sums of gaps from `lo` when
/// `SORTED`, offsets from `lo` otherwise.
fn decode_block<const W: usize, const SORTED: bool>(
    body: &[u8],
    lo: u64,
    points: &mut [MaybeUninit<u64>],
) {
    let mut prev = lo;
    let mut groups = points.chunks_exact_mut(GROUP);
    let mut at = 0;
    for points in &mut groups {
        let codes = group_at::<W>(body, at);
        for (point, code) in points.iter_mut().zip(codes) {
            prev = if SORTED { prev } else { lo } + code;
            point.write(prev);
        }
        at += W;
    }
    let rest = groups.into_remainder();
    if !rest.is_empty() {
        for (point, code) in rest.iter_mut().zip(group_at::<W>(body, at)) {
            prev = if SORTED { prev } else { lo } + code;
            point.write(prev);
        }
    }
}

/// One [`decode_block`] per width and code kind.
type DecodeBlock = fn(&[u8], u64, &mut [MaybeUninit<u64>]);

macro_rules! decoders {
    ($sorted:literal: $($w:literal)*) => {
        [$(decode_block::<$w, $sorted> as DecodeBlock),*]
    };
}

/// Gap decoders of sorted levels, indexed by width.
static GAPS: [DecodeBlock; 65] = decoders!(true:
    0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
    33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60 61 62 63
    64);

/// Offset decoders of the base buffer, indexed by width.
static OFFSETS: [DecodeBlock; 65] = decoders!(false:
    0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
    33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60 61 62 63
    64);

/// The varint at `bytes[*at..]`, advancing `*at` past it. The packed
/// form writes every reference itself ([`put_varint`]), so it is at most
/// ten bytes and needs none of a wire decoder's checks.
fn get_varint(bytes: &[u8], at: &mut usize) -> u64 {
    let (mut value, mut shift) = (0, 0);
    loop {
        let byte = bytes[*at];
        *at += 1;
        value |= u64::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            return value;
        }
        shift += 7;
    }
}

/// The `len` points of the run starting at `blocks[*at..]`, advancing
/// `*at` past it. The vector is sized from `len`, the count the packed
/// form was built with.
fn unpack_run(blocks: &[u8], at: &mut usize, len: usize, sorted: bool) -> Vec<u64> {
    let decoders = if sorted { &GAPS } else { &OFFSETS };
    let mut out = Vec::with_capacity(len);
    for points in out.spare_capacity_mut()[..len].chunks_mut(BLOCK) {
        let width = usize::from(blocks[*at]);
        *at += 1;
        let lo = get_varint(blocks, at);
        decoders[width](&blocks[*at..], lo, points);
        *at += (points.len() * width).div_ceil(8);
    }
    // SAFETY: the capacity is at least `len`, and the loop handed every
    // one of the first `len` slots to a decoder, which writes each slot
    // it is given.
    unsafe { out.set_len(len) };
    out
}

impl HybridQuantile<u64> {
    /// This summary in its resting form (module doc).
    pub fn pack(&self) -> PackedQuantile {
        let levels = self.hierarchy.levels();
        // At most eight bytes a point and a header a block (every run may
        // end in a partial one); the boxed slice gives back the rest.
        let points = self.base.len() + self.hierarchy.stored_points();
        let mut blocks =
            Vec::with_capacity(8 * points + MAX_HEADER * (levels.len() + 1 + points / BLOCK));
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

    /// Bytes of a block's header: its width, then its varint reference.
    fn header_len(lo: u64) -> usize {
        let mut varint = Vec::new();
        put_varint(&mut varint, lo);
        1 + varint.len()
    }

    /// A block of `count` points whose codes need exactly `width` bits,
    /// at the lowest reference (0) and at the highest (its largest point
    /// `u64::MAX`): gaps of a sorted run when `sorted`, offsets from the
    /// minimum otherwise.
    fn blocks_at_width(width: u32, count: usize, sorted: bool, rng: &mut Rng64) -> [Vec<u64>; 2] {
        // The code with the top bit; the others are below it.
        let top = match width {
            0 => 0,
            _ => 1u64 << (width - 1),
        };
        let below = top.saturating_sub(1);
        // Codes under `top / 64` keep a whole sorted run's sum under 2^width.
        let mut codes: Vec<u64> = (0..count)
            .map(|_| match sorted {
                true => (rng.next_u64() & below) / BLOCK as u64,
                false => rng.next_u64() & below,
            })
            .collect();
        codes[0] = 0;
        if count > 1 {
            codes[1 + rng.below(count as u64 - 1) as usize] = match sorted {
                true => top,
                false => top | below,
            };
        }
        let points: Vec<u64> = match sorted {
            true => codes
                .iter()
                .scan(0u64, |sum, &gap| {
                    *sum += gap;
                    Some(*sum)
                })
                .collect(),
            false => {
                // The minimum anywhere in the block, not only first.
                let at = rng.below(count as u64) as usize;
                codes.swap(0, at);
                codes
            }
        };
        let high = u64::MAX - points.iter().copied().max().unwrap_or(0);
        [0, high].map(|lo| points.iter().map(|&p| p + lo).collect())
    }

    /// Pack ∘ unpack is the identity at every bit width, in blocks of 1
    /// to 64 points, for sorted gaps and base offsets, at references 0
    /// and `u64::MAX - span`; a block is its header and `⌈count · W / 8⌉`
    /// code bytes.
    #[test]
    fn every_width_and_block_length_round_trips() {
        let mut rng = Rng64::new(0x5EED_B175);
        for width in 0..=64u32 {
            for count in 1..=BLOCK {
                if count == 1 && width > 0 {
                    continue; // a lone point is its own reference
                }
                for sorted in [true, false] {
                    for points in blocks_at_width(width, count, sorted, &mut rng) {
                        let case = format!("width {width}, {count} points, sorted {sorted}");
                        let mut out = Vec::new();
                        pack_run(&points, sorted, &mut out);
                        assert_eq!(u32::from(out[0]), width, "{case}");
                        let lo = match sorted {
                            true => points[0],
                            false => *points.iter().min().unwrap(),
                        };
                        let coded = (count * width as usize).div_ceil(8);
                        assert_eq!(out.len(), header_len(lo) + coded, "{case}");
                        let mut at = 0;
                        assert_eq!(unpack_run(&out, &mut at, count, sorted), points, "{case}");
                        assert_eq!(at, out.len(), "{case}");
                    }
                }
            }
        }
    }

    /// Runs of several blocks, read back to back: every group before the
    /// last few is read in place, past the end of its own block.
    #[test]
    fn runs_of_many_blocks_read_back_to_back() {
        let mut rng = Rng64::new(0xB10C);
        let runs: Vec<(Vec<u64>, bool)> = (0..40)
            .map(|i| {
                let len = rng.below(300) as usize;
                let spread = 1u64 << rng.below(64);
                let mut run: Vec<u64> = (0..len).map(|_| rng.next_u64() % spread).collect();
                if i % 2 == 0 {
                    run.sort_unstable();
                }
                (run, i % 2 == 0)
            })
            .collect();
        let mut out = Vec::new();
        for (run, sorted) in &runs {
            pack_run(run, *sorted, &mut out);
        }
        let mut at = 0;
        for (run, sorted) in &runs {
            assert_eq!(&unpack_run(&out, &mut at, run.len(), *sorted), run);
        }
        assert_eq!(at, out.len());
    }

    #[test]
    fn an_all_equal_block_is_its_header() {
        let mut q = HybridQuantile::new(0.1, 3);
        for _ in 0..50 {
            q.insert(u64::MAX);
        }
        let packed = q.pack();
        assert_eq!(packed.heap_bytes(), header_len(u64::MAX));
        assert_eq!(packed.unpack().encode(), q.encode());
    }
}
