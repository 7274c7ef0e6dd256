//! Compact binary wire codec for shipping summaries between nodes.
//!
//! The paper's model is *ship summaries, not data*: a summary built at one
//! site must travel to another site and merge there. This module is the
//! workspace's wire format — a small, versioned, length-prefixed binary
//! encoding used by the on-disk CLI envelopes, the `ms-service` TCP
//! protocol, and `ms-netsim`'s byte accounting.
//!
//! Design:
//!
//! * **Varint integers** (LEB128) for all counts and unsigned values —
//!   summaries are mostly small counters, so this is much denser than
//!   fixed-width fields and than JSON.
//! * **Zigzag varints** for signed values (Count-Sketch / AMS cells).
//! * **Fixed 8-byte little-endian bit patterns** for `f64` (exactness
//!   matters: ε parameters are compared bit-for-bit by merge guards).
//! * **Explicit framing** for files and sockets: a 2-byte magic, a u16
//!   format version, a 1-byte tag, and a u32 payload length — readers can
//!   reject foreign data, future formats, and runaway lengths before
//!   allocating.
//!
//! Derived state is *not* serialized: hash families are reconstructed from
//! `(width, depth, seed)`, lazily-built indexes are rebuilt on demand. The
//! codec therefore stays minimal and canonical for what it does encode.

use std::io::{self, Read, Write};

use crate::hash::FxHashMap;

/// Current wire-format version, embedded in every frame.
pub const WIRE_VERSION: u16 = 1;

/// Two-byte magic prefix of every frame ("mergeable summary").
pub const WIRE_MAGIC: [u8; 2] = *b"MS";

/// Refuse frames longer than this (corrupted or hostile length prefix).
pub const MAX_FRAME_LEN: u32 = 1 << 28;

/// Size of the fixed frame header: magic (2) + version (2) + tag (1) +
/// payload length (4). Fault-injection tooling uses this to aim corruption
/// at the header vs. the payload precisely.
pub const FRAME_HEADER_LEN: usize = 9;

/// Size of the durable-record trailer appended by
/// [`WireFrame::to_durable_bytes`]: total frame length (u32 LE) + CRC-32
/// of the frame bytes (u32 LE).
pub const RECORD_TRAILER_LEN: usize = 8;

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was complete.
    Truncated,
    /// Input has this many bytes left over after a complete value.
    Trailing(usize),
    /// Frame did not start with [`WIRE_MAGIC`].
    BadMagic([u8; 2]),
    /// Frame was written by an incompatible format version.
    BadVersion {
        /// Version found in the frame header.
        found: u16,
        /// Version this build understands.
        expected: u16,
    },
    /// Unknown enum/tag discriminant.
    BadTag(u8),
    /// Structurally invalid payload.
    Malformed(&'static str),
    /// A durable record's CRC-32 trailer did not match its frame bytes
    /// (bit rot, a torn rewrite, or deliberate corruption).
    Checksum {
        /// CRC stored in the trailer.
        found: u32,
        /// CRC computed over the frame bytes.
        expected: u32,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after value"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:?}, not a wire frame"),
            WireError::BadVersion { found, expected } => {
                write!(f, "wire version {found}, expected {expected}")
            }
            WireError::BadTag(t) => write!(f, "unknown tag {t}"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
            WireError::Checksum { found, expected } => {
                write!(
                    f,
                    "crc mismatch: trailer {found:#010x}, frame {expected:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Cursor over a byte slice being decoded.
#[derive(Debug)]
pub struct WireReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Start reading at the front of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        WireReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Offset of the next unread byte from the start of the input (file
    /// scanners use this to report where a damaged record begins).
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Next raw byte.
    pub fn byte(&mut self) -> Result<u8, WireError> {
        let b = *self.bytes.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// LEB128-decode the next unsigned varint.
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift == 63 && b > 1 {
                return Err(WireError::Malformed("varint overflows u64"));
            }
            value |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// A length prefix, checked against what is physically left so that a
    /// corrupt length cannot trigger a huge allocation.
    pub fn length(&mut self) -> Result<usize, WireError> {
        let n = self.varint()?;
        if n > self.remaining() as u64 {
            return Err(WireError::Truncated);
        }
        Ok(n as usize)
    }

    /// Error unless every byte was consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Trailing(self.remaining()))
        }
    }
}

/// LEB128-encode `v`.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// The stop bit of every byte in a word: clear in a varint's last byte.
const STOP_BITS: u64 = 0x8080_8080_8080_8080;

/// Items [`encode_u64_slice_into`] stages on the stack per copy, and the
/// most bytes one varint takes.
const ENCODE_CHUNK: usize = 64;
const MAX_VARINT_LEN: usize = 10;

/// The eight bytes at `pos` as a little-endian word, when there are eight.
#[inline]
fn load_word(bytes: &[u8], pos: usize) -> Option<u64> {
    let word = bytes.get(pos..pos.checked_add(8)?)?;
    Some(u64::from_le_bytes(word.try_into().expect("8 bytes")))
}

/// Drop bit 7 of each byte and close the gaps: eight 7-bit groups become
/// one 56-bit value, three mask-and-shift steps.
#[inline]
fn pack7(x: u64) -> u64 {
    let x = (x & 0x007f_007f_007f_007f) | ((x & 0x7f00_7f00_7f00_7f00) >> 1);
    let x = (x & 0x0000_3fff_0000_3fff) | ((x & 0x3fff_0000_3fff_0000) >> 2);
    (x & 0x0000_0000_0fff_ffff) | ((x & 0x0fff_ffff_0000_0000) >> 4)
}

/// The inverse of [`pack7`]: a value below 2⁵⁶ as eight 7-bit groups, one
/// per byte, bit 7 of each clear.
#[inline]
fn spread7(v: u64) -> u64 {
    let x = (v & 0x0000_0000_0fff_ffff) | ((v & 0x00ff_ffff_f000_0000) << 4);
    let x = (x & 0x0000_3fff_0000_3fff) | ((x & 0x0fff_c000_0fff_c000) << 2);
    (x & 0x007f_007f_007f_007f) | ((x & 0x3f80_3f80_3f80_3f80) << 1)
}

/// Encode a `&[u64]` exactly as `Vec<u64>::encode_into` would — varint
/// length followed by varint elements — without requiring an owned `Vec`.
/// The ingest hot path uses this to serialize a borrowed batch into a
/// reusable scratch buffer instead of cloning it first.
///
/// Byte-identical to a [`put_varint`] loop, a word at a time: a value
/// below 2⁵⁶ is spread into its 7-bit groups, gets its continuation bits
/// OR-ed in and is stored as one eight-byte word of which the cursor keeps
/// `len`; only the 9- and 10-byte values take the byte loop.
pub fn encode_u64_slice_into(out: &mut Vec<u8>, items: &[u64]) {
    put_varint(out, items.len() as u64);
    // What is certain: a byte per item. Past it the buffer doubles.
    out.reserve(items.len());
    let mut staged = [0u8; ENCODE_CHUNK * MAX_VARINT_LEN];
    for chunk in items.chunks(ENCODE_CHUNK) {
        let mut pos = 0;
        for &v in chunk {
            if v < 1 << 56 {
                let len = ((70 - (v | 1).leading_zeros()) / 7) as usize;
                let continued = !(u64::MAX << (8 * (len - 1))) & STOP_BITS;
                let word = spread7(v) | continued;
                staged[pos..pos + 8].copy_from_slice(&word.to_le_bytes());
                pos += len;
            } else {
                let mut v = v;
                while v >= 0x80 {
                    staged[pos] = v as u8 | 0x80;
                    pos += 1;
                    v >>= 7;
                }
                staged[pos] = v as u8;
                pos += 1;
            }
        }
        out.extend_from_slice(&staged[..pos]);
    }
}

/// Decode what [`encode_u64_slice_into`] wrote, appending the items to a
/// caller-owned buffer — the thread that received a frame fills a pooled
/// buffer with this instead of allocating a `Vec` per frame. The length prefix is checked
/// against what is physically left before anything is reserved.
///
/// A word at a time: every clear stop bit in the eight bytes at the
/// cursor ends a varint that lies wholly inside the word, so each is
/// peeled with two shifts and a [`pack7`]. A word with no stop bit (a
/// varint of nine bytes or more) and the last few bytes of the input go
/// through [`WireReader::varint`], which owns the overflow and truncation
/// checks — the accept set is that loop's, exactly.
pub fn decode_u64_slice_into(r: &mut WireReader<'_>, out: &mut Vec<u64>) -> Result<(), WireError> {
    let mut left = r.length()?;
    out.reserve(left);
    while left > 0 {
        let word = load_word(r.bytes, r.pos).unwrap_or(u64::MAX);
        let mut stops = !word & STOP_BITS;
        if stops == 0 {
            out.push(r.varint()?);
            left -= 1;
            continue;
        }
        // Bits [from, to) of the word hold the next varint.
        let mut from = 0;
        while stops != 0 && left > 0 {
            let to = stops.trailing_zeros() + 1;
            out.push(pack7((word << (64 - to)) >> (64 - to + from)));
            from = to;
            stops &= stops - 1;
            left -= 1;
        }
        r.pos += (from / 8) as usize;
    }
    Ok(())
}

/// Walk what [`decode_u64_slice_into`] would decode without producing the
/// items: same length check, same slow path, same accept set, same bytes
/// consumed. Returns the item count. A server validates an ingest payload
/// with this once and then moves the bytes, not the items.
pub fn check_u64_slice(r: &mut WireReader<'_>) -> Result<usize, WireError> {
    let len = r.length()?;
    let mut left = len;
    while left > 0 {
        let word = load_word(r.bytes, r.pos).unwrap_or(u64::MAX);
        let mut stops = !word & STOP_BITS;
        let found = stops.count_ones() as usize;
        if found == 0 {
            r.varint()?;
            left -= 1;
        } else if found <= left {
            // Every varint that ends in this word is wanted: step past
            // the word's last stop byte.
            r.pos += 8 - (stops.leading_zeros() / 8) as usize;
            left -= found;
        } else {
            // The batch ends inside this word, at its `left`-th stop byte.
            for _ in 1..left {
                stops &= stops - 1;
            }
            r.pos += (stops.trailing_zeros() / 8) as usize + 1;
            left = 0;
        }
    }
    Ok(len)
}

/// Append a complete frame (header + payload) to `out`, byte-identical
/// to `WireFrame::to_bytes` but without materialising an intermediate
/// payload `Vec`. `fill` writes the payload directly after the header;
/// the length field is backpatched once the payload size is known.
/// Clients use this to serialize requests into one scratch buffer
/// reused for the life of a connection.
pub fn encode_frame_into(out: &mut Vec<u8>, tag: u8, fill: impl FnOnce(&mut Vec<u8>)) {
    out.extend_from_slice(&WIRE_MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.push(tag);
    let len_at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    let body_start = out.len();
    fill(out);
    let len = (out.len() - body_start) as u32;
    out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
}

/// A value with a binary wire encoding.
///
/// Implementations come in field order, with collection lengths prefixed;
/// `decode` rejects trailing garbage. Derived state (hash families,
/// lazy indexes) is reconstructed, never shipped.
pub trait Wire: Sized {
    /// Append this value's encoding to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Decode one value from the reader.
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Encode into a fresh buffer.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decode a complete value: trailing bytes are an error.
    fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let value = Self::decode_from(&mut r)?;
        r.finish()?;
        Ok(value)
    }

    /// Encoded size in bytes (the wire cost `ms-netsim` accounts).
    fn wire_len(&self) -> usize {
        self.encode().len()
    }

    /// Append the encodings of `items`, one after another (a `Vec<T>`'s
    /// body, after its length prefix).
    fn encode_slice_into(items: &[Self], out: &mut Vec<u8>) {
        for v in items {
            v.encode_into(out);
        }
    }

    /// Decode `len` values one after another, appending them to `out`.
    fn decode_slice_from(
        r: &mut WireReader<'_>,
        len: usize,
        out: &mut Vec<Self>,
    ) -> Result<(), WireError> {
        for _ in 0..len {
            out.push(Self::decode_from(r)?);
        }
        Ok(())
    }
}

/// A byte encodes as itself, so a run of them moves as one copy.
impl Wire for u8 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.byte()
    }
    fn encode_slice_into(items: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }
    fn decode_slice_from(
        r: &mut WireReader<'_>,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), WireError> {
        out.extend_from_slice(r.take(len)?);
        Ok(())
    }
}

impl Wire for bool {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Wire for u16 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(*self));
    }
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        u16::try_from(r.varint()?).map_err(|_| WireError::Malformed("u16 out of range"))
    }
}

impl Wire for u32 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(*self));
    }
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        u32::try_from(r.varint()?).map_err(|_| WireError::Malformed("u32 out of range"))
    }
}

impl Wire for u64 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.varint()
    }
}

impl Wire for usize {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, *self as u64);
    }
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        usize::try_from(r.varint()?).map_err(|_| WireError::Malformed("usize out of range"))
    }
}

impl Wire for i64 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        // Zigzag: small magnitudes of either sign stay short.
        put_varint(out, ((*self << 1) ^ (*self >> 63)) as u64);
    }
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let z = r.varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }
}

impl Wire for f64 {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let bytes: [u8; 8] = r.take(8)?.try_into().expect("take(8) returns 8 bytes");
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }
}

impl Wire for String {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.length()?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("string not UTF-8"))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode_into(out);
            }
        }
    }
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.byte()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode_from(r)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        T::encode_slice_into(self, out);
    }
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.length()?;
        let mut out = Vec::with_capacity(len);
        T::decode_slice_from(r, len, &mut out)?;
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
        self.1.encode_into(out);
    }
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode_from(r)?, B::decode_from(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
        self.1.encode_into(out);
        self.2.encode_into(out);
    }
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode_from(r)?, B::decode_from(r)?, C::decode_from(r)?))
    }
}

impl<K, V> Wire for FxHashMap<K, V>
where
    K: Wire + Eq + std::hash::Hash,
    V: Wire,
{
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for (k, v) in self {
            k.encode_into(out);
            v.encode_into(out);
        }
    }
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.length()?;
        let mut map = FxHashMap::default();
        map.reserve(len);
        for _ in 0..len {
            let k = K::decode_from(r)?;
            let v = V::decode_from(r)?;
            if map.insert(k, v).is_some() {
                return Err(WireError::Malformed("duplicate map key"));
            }
        }
        Ok(map)
    }
}

// ---------------------------------------------------------------------------
// CRC-32

/// Slicing-by-8 lookup tables for CRC-32/ISO-HDLC (the zlib/Ethernet
/// polynomial, reflected 0xEDB88320), built at compile time. `[0]` is the
/// classic byte-at-a-time table; `[k][b]` is the CRC of byte `b` followed
/// by `k` zero bytes, so eight table reads advance the register by eight
/// input bytes at once.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// One byte into the CRC register — the tail of [`crc32`] and the whole
/// of the test reference.
#[inline]
fn crc32_step(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ CRC32_TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize]
}

/// CRC-32/ISO-HDLC of `bytes` (matches zlib's `crc32`). Used by the
/// durable-record trailer — every WAL record, segment file and checkpoint
/// passes through it — so it consumes eight bytes per step (slicing-by-8);
/// hand-rolled because the workspace carries no external dependencies.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = u32::MAX;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = crc32_step(crc, b);
    }
    !crc
}

// ---------------------------------------------------------------------------
// Framing

/// One tagged, length-prefixed frame (file envelope or socket message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFrame {
    /// Application-level tag (summary kind, request opcode, …).
    pub tag: u8,
    /// Encoded payload.
    pub payload: Vec<u8>,
}

impl WireFrame {
    /// Frame a `Wire` value under `tag`.
    pub fn from_value<T: Wire>(tag: u8, value: &T) -> Self {
        WireFrame {
            tag,
            payload: value.encode(),
        }
    }

    /// Decode the payload as `T` (complete, no trailing bytes).
    pub fn value<T: Wire>(&self) -> Result<T, WireError> {
        T::decode(&self.payload)
    }

    /// Serialize header + payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_HEADER_LEN + self.payload.len());
        out.extend_from_slice(&WIRE_MAGIC);
        out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        out.push(self.tag);
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parse a frame from a byte slice, rejecting trailing garbage.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let frame = Self::read_header_body(&mut r)?;
        r.finish()?;
        Ok(frame)
    }

    fn read_header_body(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let magic: [u8; 2] = r.take(2)?.try_into().expect("2 bytes");
        if magic != WIRE_MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = u16::from_le_bytes(r.take(2)?.try_into().expect("2 bytes"));
        if version != WIRE_VERSION {
            return Err(WireError::BadVersion {
                found: version,
                expected: WIRE_VERSION,
            });
        }
        let tag = r.byte()?;
        let len = u32::from_le_bytes(r.take(4)?.try_into().expect("4 bytes"));
        if len > MAX_FRAME_LEN {
            return Err(WireError::Malformed("frame length over limit"));
        }
        let payload = r.take(len as usize)?.to_vec();
        Ok(WireFrame { tag, payload })
    }

    /// Serialize header + payload + durable trailer. The trailer repeats
    /// the total frame length and adds a CRC-32 of the frame bytes, so a
    /// reader of an append-only file can tell a *torn* record (file ends
    /// mid-record: truncate and carry on) from a *corrupted* one (bits
    /// changed under a valid-looking shape: skip and report) instead of
    /// trusting whatever parses.
    pub fn to_durable_bytes(&self) -> Vec<u8> {
        let mut out = self.to_bytes();
        let frame_len = out.len() as u32;
        out.extend_from_slice(&frame_len.to_le_bytes());
        out.extend_from_slice(&crc32(&out[..frame_len as usize]).to_le_bytes());
        out
    }

    /// Total on-disk size of this frame once trailered.
    pub fn durable_len(&self) -> usize {
        FRAME_HEADER_LEN + self.payload.len() + RECORD_TRAILER_LEN
    }

    /// Read one trailered record from the reader. Verifies that the
    /// trailer's length matches the frame actually parsed and that the
    /// CRC-32 matches the frame bytes; any payload or header bit flip
    /// surfaces as [`WireError::Checksum`] or a structural error, never as
    /// silently different data.
    pub fn read_durable(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let start = r.pos;
        let frame = Self::read_header_body(r)?;
        let frame_len = (r.pos - start) as u32;
        let frame_bytes = &r.bytes[start..r.pos];
        let trailer = r.take(RECORD_TRAILER_LEN)?;
        let stored_len = u32::from_le_bytes(trailer[..4].try_into().expect("4 bytes"));
        if stored_len != frame_len {
            return Err(WireError::Malformed("record trailer length mismatch"));
        }
        let stored_crc = u32::from_le_bytes(trailer[4..].try_into().expect("4 bytes"));
        let expected = crc32(frame_bytes);
        if stored_crc != expected {
            return Err(WireError::Checksum {
                found: stored_crc,
                expected,
            });
        }
        Ok(frame)
    }

    /// Write this frame to a stream.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&self.to_bytes())
    }

    /// Read one frame from a stream. `Ok(None)` on clean EOF at a frame
    /// boundary; mid-frame EOF and malformed headers are errors.
    pub fn read_from(r: &mut impl Read) -> io::Result<Option<Self>> {
        let mut payload = Vec::new();
        Ok(Self::read_from_into(r, &mut payload)?.map(|tag| WireFrame { tag, payload }))
    }

    /// [`WireFrame::read_from`] into a caller-owned payload buffer,
    /// returning the frame tag. Allocation-free once the buffer's
    /// capacity covers the frame — streaming clients reuse one buffer
    /// for every response.
    pub fn read_from_into(r: &mut impl Read, payload: &mut Vec<u8>) -> io::Result<Option<u8>> {
        let mut header = [0u8; FRAME_HEADER_LEN];
        let mut filled = 0;
        while filled < header.len() {
            let n = r.read(&mut header[filled..])?;
            if n == 0 {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    WireError::Truncated,
                ));
            }
            filled += n;
        }
        if header[..2] != WIRE_MAGIC {
            return Err(WireError::BadMagic([header[0], header[1]]).into());
        }
        let version = u16::from_le_bytes([header[2], header[3]]);
        if version != WIRE_VERSION {
            return Err(WireError::BadVersion {
                found: version,
                expected: WIRE_VERSION,
            }
            .into());
        }
        let tag = header[4];
        let len = u32::from_le_bytes([header[5], header[6], header[7], header[8]]);
        if len > MAX_FRAME_LEN {
            return Err(WireError::Malformed("frame length over limit").into());
        }
        // Exactly: a server's buffer rides a shard ring and a pool long
        // after this frame, and amortized doubling would keep up to twice
        // the bytes resident for every one of them.
        payload.clear();
        payload.reserve_exact(len as usize);
        payload.resize(len as usize, 0);
        r.read_exact(payload)?;
        Ok(Some(tag))
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_slice_encoding_is_byte_identical_to_vec_encoding() {
        for items in [
            vec![],
            vec![0u64],
            vec![1, 127, 128, 300, u64::MAX],
            (0..1000).collect::<Vec<u64>>(),
        ] {
            let mut from_slice = Vec::new();
            encode_u64_slice_into(&mut from_slice, &items);
            assert_eq!(from_slice, items.encode());
            assert_eq!(Vec::<u64>::decode(&from_slice).unwrap(), items);
            let mut r = WireReader::new(&from_slice);
            let mut into = vec![7u64]; // appended to, never cleared
            decode_u64_slice_into(&mut r, &mut into).unwrap();
            r.finish().unwrap();
            assert_eq!(into[0], 7);
            assert_eq!(&into[1..], items.as_slice());
        }
        // A length prefix past the end of the input reserves nothing.
        let mut into = Vec::new();
        let bomb = [0xFF, 0xFF, 0xFF, 0x7F, 1];
        let mut r = WireReader::new(&bomb);
        assert_eq!(
            decode_u64_slice_into(&mut r, &mut into),
            Err(WireError::Truncated)
        );
        assert_eq!(into.capacity(), 0);
    }

    #[test]
    fn frame_encoding_into_scratch_is_byte_identical_to_to_bytes() {
        for items in [vec![], vec![1u64, 127, 128, u64::MAX]] {
            let frame = WireFrame::from_value(0x10, &items);
            let mut scratch = vec![0xAA; 3]; // dirty prefix survives untouched
            let prefix = scratch.len();
            encode_frame_into(&mut scratch, 0x10, |out| items.encode_into(out));
            assert_eq!(&scratch[prefix..], frame.to_bytes().as_slice());
            assert_eq!(&scratch[..prefix], &[0xAA; 3]);
        }
    }

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.encode();
        assert_eq!(T::decode(&bytes).unwrap(), value);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u64);
        roundtrip(127u64);
        roundtrip(128u64);
        roundtrip(u64::MAX);
        roundtrip(-1i64);
        roundtrip(i64::MIN);
        roundtrip(i64::MAX);
        roundtrip(0.0f64);
        roundtrip(-0.0f64);
        roundtrip(std::f64::consts::PI);
        roundtrip(true);
        roundtrip(String::from("héllo"));
        roundtrip(Some(42u64));
        roundtrip(Option::<u64>::None);
        roundtrip(vec![1u64, 2, 3]);
        roundtrip((7u64, -3i64, 0.5f64));
    }

    #[test]
    fn nan_bits_survive() {
        let bytes = f64::NAN.encode();
        assert!(f64::decode(&bytes).unwrap().is_nan());
    }

    #[test]
    fn map_roundtrips_and_rejects_duplicates() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..100 {
            m.insert(i, i * i);
        }
        let bytes = m.encode();
        assert_eq!(FxHashMap::<u64, u64>::decode(&bytes).unwrap(), m);

        let mut dup = Vec::new();
        put_varint(&mut dup, 2);
        for _ in 0..2 {
            1u64.encode_into(&mut dup);
            9u64.encode_into(&mut dup);
        }
        assert!(matches!(
            FxHashMap::<u64, u64>::decode(&dup),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn varints_are_compact() {
        assert_eq!(5u64.encode().len(), 1);
        assert_eq!(300u64.encode().len(), 2);
        assert_eq!((-2i64).encode().len(), 1);
    }

    /// `Vec<u8>` the way the generic `Vec<T>` codec moved it before `u8`
    /// copied its runs whole: one `encode_into` per byte.
    fn bytes_per_element(items: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, items.len() as u64);
        for b in items {
            b.encode_into(&mut out);
        }
        out
    }

    /// ... and one `decode_from` per byte, then `finish`.
    fn decode_per_element(bytes: &[u8]) -> Result<Vec<u8>, WireError> {
        let mut r = WireReader::new(bytes);
        let len = r.length()?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(u8::decode_from(&mut r)?);
        }
        r.finish()?;
        Ok(out)
    }

    #[test]
    fn byte_vectors_copy_whole_with_the_per_element_bytes_and_verdicts() {
        let mut rng = crate::rng::Rng64::new(0xB17E_B10B);
        for len in (0..=300).chain([4 << 10, 64 << 10]) {
            let items: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
            let bytes = items.encode();
            assert_eq!(bytes, bytes_per_element(&items), "{len} bytes");
            assert_eq!(Vec::<u8>::decode(&bytes), Ok(items.clone()), "{len} bytes");
            // Every cut of a short one, a few of a long one: a length
            // past the end is `Truncated` either way.
            let cuts: Vec<usize> = if len <= 300 {
                (0..bytes.len()).collect()
            } else {
                vec![0, 1, 2, 3, bytes.len() / 2, bytes.len() - 1]
            };
            for cut in cuts {
                let got = Vec::<u8>::decode(&bytes[..cut]);
                assert_eq!(got, decode_per_element(&bytes[..cut]), "{len} cut at {cut}");
                assert_eq!(got, Err(WireError::Truncated), "{len} cut at {cut}");
            }
            for extra in 1..=2 {
                let mut long = bytes.clone();
                long.extend(std::iter::repeat_n(0xA5, extra));
                let got = Vec::<u8>::decode(&long);
                assert_eq!(got, decode_per_element(&long), "{len} + {extra}");
                assert_eq!(got, Err(WireError::Trailing(extra)), "{len} + {extra}");
            }
            // Inside a larger value the cursor ends where it did before.
            let pair = (items.clone(), len as u64);
            let encoded = pair.encode();
            let mut r = WireReader::new(&encoded);
            assert_eq!(<(Vec<u8>, u64)>::decode_from(&mut r), Ok(pair));
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn truncation_and_trailing_are_detected() {
        let bytes = vec![1u64, 2, 3].encode();
        assert_eq!(
            Vec::<u64>::decode(&bytes[..bytes.len() - 1]),
            Err(WireError::Truncated)
        );
        let mut extra = bytes;
        extra.push(0);
        assert_eq!(Vec::<u64>::decode(&extra), Err(WireError::Trailing(1)));
    }

    #[test]
    fn corrupt_length_cannot_allocate() {
        // Claims 2^60 elements with 1 byte of data behind it.
        let mut bytes = Vec::new();
        put_varint(&mut bytes, 1u64 << 60);
        bytes.push(0);
        assert_eq!(Vec::<u64>::decode(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn frames_roundtrip_via_bytes_and_streams() {
        let frame = WireFrame::from_value(7, &vec![1u64, 500, 9]);
        let bytes = frame.to_bytes();
        assert_eq!(WireFrame::from_bytes(&bytes).unwrap(), frame);

        let mut stream = Vec::new();
        frame.write_to(&mut stream).unwrap();
        frame.write_to(&mut stream).unwrap();
        let mut cursor = &stream[..];
        assert_eq!(WireFrame::read_from(&mut cursor).unwrap().unwrap(), frame);
        assert_eq!(WireFrame::read_from(&mut cursor).unwrap().unwrap(), frame);
        assert!(WireFrame::read_from(&mut cursor).unwrap().is_none());
    }

    /// The byte-at-a-time loop `crc32` replaced, kept as the reference.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(u32::MAX, |crc, &b| crc32_step(crc, b))
    }

    #[test]
    fn crc32_slicing_matches_bytewise_reference() {
        let mut rng = crate::rng::Rng64::new(0xC4C3_2026);
        let mut buf = vec![0u8; 4096 + 8];
        let mut lens: Vec<usize> = (0..=64).collect();
        lens.extend((0..200).map(|_| rng.below_usize(4097)));
        for len in lens {
            for b in buf.iter_mut() {
                *b = rng.next_u64() as u8;
            }
            // Every start alignment relative to the allocation: the
            // eight-byte blocks fall differently over the same bytes.
            for start in 0..8 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "len {len} start {start}"
                );
            }
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Canonical CRC-32/ISO-HDLC check values (same as zlib).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn durable_records_roundtrip() {
        let frame = WireFrame::from_value(0x20, &vec![5u64, 6, 7]);
        let bytes = frame.to_durable_bytes();
        assert_eq!(bytes.len(), frame.durable_len());
        let mut r = WireReader::new(&bytes);
        assert_eq!(WireFrame::read_durable(&mut r).unwrap(), frame);
        r.finish().unwrap();
    }

    #[test]
    fn durable_records_detect_every_single_bit_flip() {
        // Exhaustive: flipping any one bit anywhere in the record — header,
        // payload, or trailer — must produce an error, never a silently
        // different frame.
        let frame = WireFrame::from_value(3, &vec![1u64, 2, 300, 40_000]);
        let good = frame.to_durable_bytes();
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                let mut r = WireReader::new(&bad);
                let outcome = WireFrame::read_durable(&mut r);
                assert!(
                    outcome.is_err(),
                    "flip of byte {byte} bit {bit} went undetected: {outcome:?}"
                );
            }
        }
    }

    #[test]
    fn durable_records_detect_torn_tails() {
        let frame = WireFrame::from_value(9, &vec![10u64; 50]);
        let good = frame.to_durable_bytes();
        // Cutting the record anywhere — even inside the trailer — reads as
        // Truncated, the signal to truncate a torn WAL tail.
        for cut in 0..good.len() {
            let mut r = WireReader::new(&good[..cut]);
            assert_eq!(
                WireFrame::read_durable(&mut r).unwrap_err(),
                WireError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn frames_reject_foreign_data() {
        assert!(matches!(
            WireFrame::from_bytes(b"XX\x01\x00\x00\x00\x00\x00\x00"),
            Err(WireError::BadMagic(_))
        ));
        let mut wrong_version = WireFrame::from_value(0, &1u64).to_bytes();
        wrong_version[2] = 0xFF;
        assert!(matches!(
            WireFrame::from_bytes(&wrong_version),
            Err(WireError::BadVersion { .. })
        ));
        let mut cursor: &[u8] = b"MS";
        assert!(WireFrame::read_from(&mut cursor).is_err());
    }
}
