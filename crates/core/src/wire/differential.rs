//! Differential test of the word-at-a-time batch codec against the
//! byte-at-a-time loops it replaced.
//!
//! A seeded, structure-aware mutator builds encoded batches out of
//! per-item byte pieces — canonical varints of every width, legal
//! overlong ones, 9- and 10-byte ones ending in 0 / 1 / 2, continuation
//! runs laid across every word boundary — then damages them (single bit
//! flips, truncation at every byte, an inflated length prefix, trailing
//! bytes). On every input the validate-only scan, the decoder and the
//! reference must agree on accept vs reject (the same `WireError`), on
//! the items and on the bytes consumed. That agreement is what lets a
//! shard worker `expect` its decode of a frame the server validated.

use super::*;
use crate::rng::Rng64;

const PINNED_SEEDS: [u64; 3] = [0xF417_5EED, 0xB0B5_CAFE, 0x2026_0806];
const BATCH_SIZES: [usize; 6] = [0, 1, 7, 8, 9, 1024];

/// The decoder `decode_u64_slice_into` replaced: one `varint` per item.
fn decode_bytewise(r: &mut WireReader<'_>, out: &mut Vec<u64>) -> Result<(), WireError> {
    let len = r.length()?;
    out.reserve(len);
    for _ in 0..len {
        out.push(r.varint()?);
    }
    Ok(())
}

/// The encoder `encode_u64_slice_into` replaced: one `put_varint` per item.
fn encode_bytewise(out: &mut Vec<u8>, items: &[u64]) {
    put_varint(out, items.len() as u64);
    for &v in items {
        put_varint(out, v);
    }
}

/// Hold all three readers to one verdict on `bytes`; returns whether they
/// accepted.
fn assert_agree(bytes: &[u8], what: &str) -> bool {
    let mut reference = WireReader::new(bytes);
    let mut want = Vec::new();
    let verdict = decode_bytewise(&mut reference, &mut want);

    let mut r = WireReader::new(bytes);
    let mut got = Vec::new();
    assert_eq!(
        decode_u64_slice_into(&mut r, &mut got),
        verdict,
        "{what}: decode verdict on {bytes:02x?}"
    );
    assert_eq!(got, want, "{what}: items of {bytes:02x?}");
    assert_eq!(r.pos(), reference.pos(), "{what}: decode cursor");

    let mut r = WireReader::new(bytes);
    assert_eq!(
        check_u64_slice(&mut r),
        verdict.clone().map(|()| want.len()),
        "{what}: check verdict on {bytes:02x?}"
    );
    assert_eq!(r.pos(), reference.pos(), "{what}: check cursor");
    verdict.is_ok()
}

/// A value whose canonical varint is exactly `width` bytes.
fn value_of_width(rng: &mut Rng64, width: u32) -> u64 {
    let lo = if width == 1 {
        0
    } else {
        1u64 << (7 * (width - 1))
    };
    let span = if width == 10 {
        1u64 << 63
    } else {
        (1u64 << (7 * width)) - lo
    };
    lo + rng.below(span)
}

/// `v` as a varint padded with continuation bytes to `total` bytes
/// (`0x80 0x00` is the two-byte zero): legal while `total <= 10`.
fn overlong(v: u64, total: usize) -> Vec<u8> {
    let mut piece = Vec::new();
    put_varint(&mut piece, v);
    while piece.len() < total {
        *piece.last_mut().unwrap() |= 0x80;
        piece.push(0);
    }
    piece
}

/// `n` continuation bytes with random payload bits.
fn continuation_run(rng: &mut Rng64, n: usize) -> Vec<u8> {
    (0..n).map(|_| 0x80 | rng.next_u64() as u8).collect()
}

/// One item's bytes: mostly canonical, sometimes one of the shapes the
/// slow path and the word boundaries have to get right.
fn piece(rng: &mut Rng64) -> Vec<u8> {
    let mut out = Vec::new();
    match rng.below(16) {
        // Zipf-like: most of a real batch is one or two bytes.
        0..=7 => {
            let bits = 1 + rng.below(14);
            put_varint(&mut out, rng.below(1 << bits));
        }
        8..=11 => {
            let width = 1 + rng.below(10) as u32;
            put_varint(&mut out, value_of_width(rng, width));
        }
        12 => out = overlong(rng.below(1 << 20), 2 + rng.below_usize(9)),
        13 => out = overlong(value_of_width(rng, 8), 9 + rng.below_usize(2)),
        // Eight or nine continuation bytes, then 0 / 1 / 2 (or anything,
        // for the nine-byte form): only a tenth byte above 1 overflows.
        14 => {
            out = continuation_run(rng, 8);
            out.push(rng.next_u64() as u8 & 0x7f);
        }
        _ => {
            out = continuation_run(rng, 9);
            out.push(rng.below(3) as u8);
        }
    }
    out
}

fn assemble(pieces: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = Vec::new();
    put_varint(&mut bytes, pieces.len() as u64);
    pieces.iter().for_each(|p| bytes.extend_from_slice(p));
    bytes
}

fn run_seed(seed: u64) {
    let mut rng = Rng64::new(seed);
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let mut tally = |ok: bool| if ok { accepted += 1 } else { rejected += 1 };
    for round in 0..6 {
        for &n in &BATCH_SIZES {
            let pieces: Vec<Vec<u8>> = (0..n).map(|_| piece(&mut rng)).collect();
            let bytes = assemble(&pieces);
            tally(assert_agree(&bytes, "as built"));

            // Truncation at every byte (every 7th for the big batch).
            let step = if n > 64 { 7 } else { 1 };
            for cut in (0..bytes.len()).step_by(step) {
                tally(assert_agree(&bytes[..cut], "truncated"));
            }
            // Single bit flips: all of them on small inputs, a sample on
            // the big one.
            let flips = if n > 64 { 600 } else { bytes.len() * 8 };
            for i in 0..flips {
                let bit = if n > 64 {
                    rng.below_usize(bytes.len() * 8)
                } else {
                    i
                };
                let mut bad = bytes.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                tally(assert_agree(&bad, "bit flip"));
            }
            // A length prefix inflated past the buffer, by one and by a lot.
            for extra in [1, 2, 9, bytes.len() as u64, 1 << 40, u64::MAX - n as u64] {
                let mut bad = Vec::new();
                put_varint(&mut bad, n as u64 + extra);
                pieces.iter().for_each(|p| bad.extend_from_slice(p));
                tally(assert_agree(&bad, "inflated length"));
            }
            // Trailing bytes stay unread: the cursor stops at the batch.
            let mut trailing = bytes.clone();
            trailing.extend((0..1 + round).map(|_| rng.next_u64() as u8));
            tally(assert_agree(&trailing, "trailing bytes"));
        }
    }
    // Continuation runs of every length laid over every alignment: `lead`
    // one-byte items, a run of `run` continuation bytes closed by `last`,
    // then a tail long enough that the word loop keeps going.
    for lead in 0..17 {
        for run in 0..12 {
            for last in [0u8, 1, 2, 0x7f] {
                let mut pieces: Vec<Vec<u8>> = vec![vec![rng.below(128) as u8]; lead];
                let mut straddler = continuation_run(&mut rng, run);
                straddler.push(last);
                pieces.push(straddler);
                pieces.extend((0..12).map(|_| piece(&mut rng)));
                tally(assert_agree(&assemble(&pieces), "straddling run"));
            }
        }
    }
    assert!(
        accepted > 1_000 && rejected > 1_000,
        "seed {seed:#x}: a one-sided run proves little ({accepted} accepted, {rejected} rejected)"
    );
}

#[test]
fn codec_agrees_with_the_bytewise_reference_on_pinned_seeds() {
    PINNED_SEEDS.into_iter().for_each(run_seed);
}

#[test]
fn codec_agrees_with_the_bytewise_reference_on_a_clock_seed() {
    let seed = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    println!("codec differential clock seed: {seed:#x}");
    run_seed(seed);
}

#[test]
fn named_edge_cases_keep_their_verdicts() {
    // (payload, accepted): one item each unless the prefix says otherwise.
    let nine = [0xffu8; 8];
    let cases: [(Vec<u8>, bool); 9] = [
        (vec![1, 0x80, 0x00], true),                           // overlong zero
        ([&[1u8][..], &nine[..], &[0x7f][..]].concat(), true), // 9 bytes, top group full
        ([&[1u8][..], &nine[..], &[0xff, 0x00][..]].concat(), true), // 10 bytes ending 0
        ([&[1u8][..], &nine[..], &[0xff, 0x01][..]].concat(), true), // u64::MAX
        ([&[1u8][..], &nine[..], &[0xff, 0x02][..]].concat(), false), // overflows
        (
            [&[1u8][..], &nine[..], &[0xff, 0x81, 0x00][..]].concat(),
            false,
        ), // 11 bytes
        (vec![2, 5], false),                                   // short of items
        (vec![0], true),                                       // empty batch
        (vec![], false),                                       // no prefix at all
    ];
    for (bytes, ok) in cases {
        assert_eq!(assert_agree(&bytes, "named case"), ok, "{bytes:02x?}");
    }
}

#[test]
fn encoder_equals_a_put_varint_loop_for_every_width() {
    let mut rng = Rng64::new(PINNED_SEEDS[0]);
    let mut edges = vec![0u64, 1, u64::MAX];
    for width in 1..=10u32 {
        edges.extend((0..50).map(|_| value_of_width(&mut rng, width)));
        if width < 10 {
            let top = 1u64 << (7 * width);
            edges.extend([top - 1, top]);
        }
    }
    for &v in &edges {
        let (mut got, mut want) = (Vec::new(), Vec::new());
        encode_u64_slice_into(&mut got, &[v]);
        encode_bytewise(&mut want, &[v]);
        assert_eq!(got, want, "value {v:#x}");
    }
    // Whole batches, across the encoder's staging-chunk boundary, onto a
    // buffer that already holds something.
    for n in [0, 1, 7, 8, 9, 63, 64, 65, 128, 1024] {
        let items: Vec<u64> = (0..n)
            .map(|_| {
                let width = 1 + rng.below(10) as u32;
                value_of_width(&mut rng, width)
            })
            .collect();
        let (mut got, mut want) = (vec![0xAA; 3], vec![0xAA; 3]);
        encode_u64_slice_into(&mut got, &items);
        encode_bytewise(&mut want, &items);
        assert_eq!(got, want, "batch of {n}");
        assert!(assert_agree(&got[3..], "round trip"));
    }
}
