//! Binary codec for values, rows, and log/checkpoint records.
//!
//! A compact self-describing format: each value is a 1-byte tag followed by
//! a fixed- or length-prefixed payload. Integers use zig-zag varint
//! encoding; lengths use plain varints. The same primitives serve the
//! write-ahead log and the page directory, so corruption detection (bad tags,
//! short buffers) is shared.
//!
//! Writers append to a `Vec<u8>`. Readers advance a `&mut &[u8]` cursor over
//! the CRC-verified payload in place, checking what remains before every
//! read, so a short buffer is a [`StoreError::Corrupt`], never a panic.
//!
//! A value is decoded one way, borrowed; an owned value ([`get_value`]) or
//! a reused slot ([`get_value_into`]) is that value copied out. A stored row is read at open
//! by the **cell walk**, [`walk_cell`]: every check a decode into a row
//! makes, each value lent borrowed from the cell, nothing allocated. The
//! value decoder reports a `Fault` of a byte or two, turned into a
//! `StoreError` only where a caller sees it, so a walk keeps its values in
//! registers.

use crate::error::{StoreError, StoreResult};
use crate::row::RowId;
use crate::value::{Value, ValueRef};

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_TEXT: u8 = 3;
const TAG_BYTES: u8 = 4;

/// Read one byte; `short` is the corruption reported when none remains.
#[inline]
pub fn get_u8(buf: &mut &[u8], short: &str) -> StoreResult<u8> {
    let Some((&byte, rest)) = buf.split_first() else {
        return Err(StoreError::Corrupt(short.into()));
    };
    *buf = rest;
    Ok(byte)
}

/// Read the next `len` bytes; `short` is the corruption reported when fewer
/// remain.
#[inline]
pub fn take<'a>(buf: &mut &'a [u8], len: usize, short: &str) -> StoreResult<&'a [u8]> {
    if buf.len() < len {
        return Err(StoreError::Corrupt(short.into()));
    }
    let (head, rest) = buf.split_at(len);
    *buf = rest;
    Ok(head)
}

/// Append a varint-encoded u64.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Why a value did not decode. A byte or two where a [`StoreError`] is 72,
/// so the decoders that return it keep their results in registers; it
/// becomes a [`StoreError::Corrupt`] where a caller sees it.
#[derive(Debug, Clone, Copy)]
enum Fault {
    VarintShort,
    VarintLong,
    TagShort,
    Tag(u8),
    /// The payload of a value with this tag, or of any value where the tag
    /// is `None`, runs off the end.
    Payload(Option<u8>),
    Utf8,
}

impl From<Fault> for StoreError {
    fn from(fault: Fault) -> StoreError {
        StoreError::Corrupt(match fault {
            Fault::VarintShort => "varint ran off end of buffer".into(),
            Fault::VarintLong => "varint longer than 64 bits".into(),
            Fault::TagShort => "value tag ran off end of buffer".into(),
            Fault::Tag(tag) => format!("unknown value tag {tag}"),
            Fault::Payload(Some(TAG_FLOAT)) => "float payload truncated".into(),
            Fault::Payload(Some(TAG_TEXT)) => "text payload truncated".into(),
            Fault::Payload(Some(_)) => "bytes payload truncated".into(),
            Fault::Payload(None) => "value payload truncated".into(),
            Fault::Utf8 => "text payload is not UTF-8".into(),
        })
    }
}

/// Read a varint-encoded u64: at most ten bytes, of which the tenth gives
/// only its lowest bit.
#[inline(always)]
fn varint(buf: &mut &[u8]) -> Result<u64, Fault> {
    let mut v: u64 = 0;
    for (i, &byte) in buf.iter().enumerate().take(10) {
        v |= u64::from(byte & 0x7f) << (7 * i);
        if byte < 0x80 {
            *buf = &buf[i + 1..];
            return Ok(v);
        }
    }
    Err(if buf.len() <= 10 { Fault::VarintShort } else { Fault::VarintLong })
}

/// Read a varint-encoded u64.
#[inline]
pub fn get_varint(buf: &mut &[u8]) -> StoreResult<u64> {
    Ok(varint(buf)?)
}

/// Read a varint that must fit in 32 bits: a larger value is corruption,
/// never cut down to its low bits.
pub fn get_u32(buf: &mut &[u8], what: &str) -> StoreResult<u32> {
    let v = get_varint(buf)?;
    u32::try_from(v).map_err(|_| StoreError::Corrupt(format!("{what} {v} exceeds 32 bits")))
}

/// Read an element count that the decoder is about to loop over or reserve
/// for. A count read from a file is not trusted: `min_bytes` is the least
/// one element can occupy, and a count the remaining bytes could not hold
/// is corruption — reported before anything is allocated for it.
#[inline]
pub fn get_count(buf: &mut &[u8], min_bytes: usize, what: &str) -> StoreResult<usize> {
    let count = varint(buf)?;
    if count > (buf.len() / min_bytes.max(1)) as u64 {
        return Err(StoreError::Corrupt(format!(
            "{what} count {count} exceeds the {} bytes that remain",
            buf.len()
        )));
    }
    Ok(count as usize)
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encode one value.
pub fn put_value(buf: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => buf.push(TAG_NULL),
        Value::Int(v) => {
            buf.push(TAG_INT);
            put_varint(buf, zigzag(*v));
        }
        Value::Float(v) => {
            buf.push(TAG_FLOAT);
            buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        Value::Text(s) => {
            buf.push(TAG_TEXT);
            put_str(buf, s);
        }
        Value::Bytes(b) => {
            buf.push(TAG_BYTES);
            put_varint(buf, b.len() as u64);
            buf.extend_from_slice(b);
        }
    }
}

/// A value's tag and, for a text or byte value, the payload's bytes, with
/// `buf` advanced past the payload; no payload is read for the others.
#[inline(always)]
fn tag_and_payload<'a>(buf: &mut &'a [u8]) -> Result<(u8, &'a [u8]), Fault> {
    let (&tag, rest) = buf.split_first().ok_or(Fault::TagShort)?;
    *buf = rest;
    let len = match tag {
        TAG_TEXT | TAG_BYTES => varint(buf)? as usize,
        TAG_NULL | TAG_INT | TAG_FLOAT => return Ok((tag, &[])),
        other => return Err(Fault::Tag(other)),
    };
    if buf.len() < len {
        return Err(Fault::Payload(Some(tag)));
    }
    let (payload, rest) = buf.split_at(len);
    *buf = rest;
    Ok((tag, payload))
}

/// Decode one value, borrowed from `buf` — the one value decoder: a tag, its
/// payload, and UTF-8 on a text payload.
#[inline(always)]
fn value<'a>(buf: &mut &'a [u8]) -> Result<ValueRef<'a>, Fault> {
    Ok(match tag_and_payload(buf)? {
        (TAG_NULL, _) => ValueRef::Null,
        (TAG_INT, _) => ValueRef::Int(unzigzag(varint(buf)?)),
        (TAG_FLOAT, _) => {
            let (bits, rest) = buf.split_first_chunk::<8>().ok_or(Fault::Payload(Some(TAG_FLOAT)))?;
            *buf = rest;
            ValueRef::Float(f64::from_le_bytes(*bits))
        }
        (TAG_TEXT, raw) => ValueRef::Text(std::str::from_utf8(raw).map_err(|_| Fault::Utf8)?),
        (_, raw) => ValueRef::Bytes(raw),
    })
}

/// Decode one value over `slot`. A text or byte payload lands in the buffer
/// `slot` already holds, if it holds one, so a reader that keeps its slots
/// decodes row after row without allocating.
pub fn get_value_into(buf: &mut &[u8], slot: &mut Value) -> StoreResult<()> {
    value(buf)?.store_into(slot);
    Ok(())
}

/// Decode one value.
pub fn get_value(buf: &mut &[u8]) -> StoreResult<Value> {
    Ok(value(buf)?.to_value())
}

/// Encode a row (arity-prefixed value list).
pub fn put_row(buf: &mut Vec<u8>, values: &[Value]) {
    put_varint(buf, values.len() as u64);
    for v in values {
        put_value(buf, v);
    }
}

/// Decode a row.
pub fn get_row(buf: &mut &[u8]) -> StoreResult<Vec<Value>> {
    let arity = get_count(buf, 1, "row value")?;
    let mut values = Vec::with_capacity(arity);
    for _ in 0..arity {
        values.push(get_value(buf)?);
    }
    Ok(values)
}

/// Walk one encoded row — arity, tags, lengths — building no value and
/// allocating nothing: what `buf` advances over is a cell [`walk_cell`] can
/// be asked for later (text is not checked for UTF-8 until then).
pub fn skip_row(buf: &mut &[u8]) -> StoreResult<()> {
    let skip = |buf: &mut &[u8]| -> Result<(), Fault> {
        let fixed = match tag_and_payload(buf)? {
            (TAG_INT, _) => return varint(buf).map(drop),
            (TAG_FLOAT, _) => 8,
            _ => 0,
        };
        *buf = buf.get(fixed..).ok_or(Fault::Payload(None))?;
        Ok(())
    };
    for _ in 0..get_count(buf, 1, "row value")? {
        skip(buf)?;
    }
    Ok(())
}

/// The cell walk: the way an open reads a stored row. Walk the `cell` of
/// row `row`, as [`put_row`] wrote it, handing `f` each value's ordinal and
/// the value borrowed from the cell; nothing is allocated. Checked on the
/// way, as a decode into a row would: the arity against the bytes that
/// remain, every tag and length, UTF-8 on every text value, and that the
/// values use the cell up whole. Returns the arity. A damaged cell may
/// have lent some values before its error: a caller judges what it was
/// lent only once the walk has succeeded.
#[inline]
pub fn walk_cell<'a>(row: RowId, mut cell: &'a [u8], f: impl FnMut(usize, ValueRef<'a>)) -> StoreResult<usize> {
    let arity = walk_row(&mut cell, f)?;
    match cell.len() {
        0 => Ok(arity),
        n => Err(StoreError::Corrupt(format!("row {row} leaves {n} bytes of its cell unread"))),
    }
}

/// [`walk_cell`] of the row at the front of `buf`, with `buf` advanced past
/// it: where cells lie back to back (a logged run), a row's own encoding
/// says where its cell ends. Returns the arity.
#[inline]
pub fn walk_row<'a>(buf: &mut &'a [u8], mut f: impl FnMut(usize, ValueRef<'a>)) -> StoreResult<usize> {
    let arity = get_count(buf, 1, "row value")?;
    for ordinal in 0..arity {
        f(ordinal, value(buf)?);
    }
    Ok(arity)
}

/// Encode a length-prefixed string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Decode a length-prefixed string, borrowed from `buf`.
pub fn get_str<'a>(buf: &mut &'a [u8]) -> StoreResult<&'a str> {
    let len = get_varint(buf)? as usize;
    let raw = take(buf, len, "string payload truncated")?;
    std::str::from_utf8(raw).map_err(|_| StoreError::Corrupt("string is not UTF-8".into()))
}

/// `CRC_TABLES[0][b]` is the CRC-32 remainder of the single byte `b` (eight
/// rounds of the reflected IEEE 802.3 polynomial); `CRC_TABLES[k][b]` is the
/// remainder of `b` followed by `k` zero bytes — table `k - 1`'s entry taken
/// through eight more rounds. Done once at compile time.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut k = 0;
    while k < 8 {
        let mut byte = 0;
        while byte < 256 {
            let mut crc = if k == 0 { byte as u32 } else { tables[k - 1][byte] };
            let mut round = 0;
            while round < 8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xedb8_8320 & mask);
                round += 1;
            }
            tables[k][byte] = crc;
            byte += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, reflected): frames WAL records, checksums page
/// images and page directories. 128 bytes or more are folded where the CPU
/// can (a page fault checksums a whole page), the rest go through tables.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(crc) = Some(data).filter(|data| data.len() >= 128).and_then(crc32_folded) {
        return crc;
    }
    !table_update(!0, data)
}

/// Advance the CRC register `crc` (not inverted) over `data`, slicing-by-8:
/// eight bytes a step through eight tables, a byte-wise tail.
fn table_update(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let (words, tail) = data.as_chunks::<8>();
    for c in words {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in tail {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xff) as usize];
    }
    crc
}

/// The CRC of `data` with its 16-byte lanes folded; `None` where the CPU cannot fold.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn crc32_folded(data: &[u8]) -> Option<u32> {
    if !(std::arch::is_x86_feature_detected!("pclmulqdq") && std::arch::is_x86_feature_detected!("sse4.1")) {
        return None;
    }
    let (lanes, tail) = data.as_chunks::<16>();
    // SAFETY: `fold::lanes` needs pclmulqdq and sse4.1, both detected above.
    let crc = unsafe { fold::lanes(!0, lanes) };
    Some(!table_update(crc, tail))
}

/// The standard PCLMULQDQ fold of a reflected CRC-32 (Intel, "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ", 2009), with
/// crc32fast's constants: four lanes folded 64 bytes ahead, then one lane
/// 16 bytes ahead, down to 64 bits, and a Barrett reduction to 32.
#[cfg(target_arch = "x86_64")]
mod fold {
    use std::arch::x86_64::*;

    const K1: i64 = 0x1_5444_2bd4; // x^(4*128+32) mod P, reflected: 64 bytes ahead
    const K2: i64 = 0x1_c6e4_1596; // x^(4*128-32) mod P
    const K3: i64 = 0x1_7519_97d0; // x^(128+32) mod P: 16 bytes ahead
    const K4: i64 = 0x0_ccaa_009e; // x^(128-32) mod P
    const K5: i64 = 0x1_63cd_6124; // x^64 mod P: 96 bits to 64
    const P_X: i64 = 0x1_db71_0641; // P itself
    const U_PRIME: i64 = 0x1_f701_1641; // floor(x^64 / P), for Barrett

    /// `acc` carried ahead by `keys`, plus the lane that lies there.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn fold_into(acc: __m128i, lane: __m128i, keys: __m128i) -> __m128i {
        let (lo, hi) = (_mm_clmulepi64_si128(acc, keys, 0x00), _mm_clmulepi64_si128(acc, keys, 0x11));
        _mm_xor_si128(_mm_xor_si128(lane, lo), hi)
    }

    /// Advance the register `crc` (not inverted) over `lanes`, under four by table.
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    pub(super) fn lanes(crc: u32, lanes: &[[u8; 16]]) -> u32 {
        let load = |lane: &[u8; 16]| {
            let word = u128::from_le_bytes(*lane);
            _mm_set_epi64x((word >> 64) as i64, word as i64)
        };
        let Some(([a, b, c, d], rest)) = lanes.split_first_chunk::<4>() else {
            return super::table_update(crc, lanes.as_flattened());
        };
        let mut x = [_mm_xor_si128(load(a), _mm_cvtsi32_si128(crc as i32)), load(b), load(c), load(d)];
        let k1k2 = _mm_set_epi64x(K2, K1);
        let (quads, singles) = rest.as_chunks::<4>();
        for quad in quads {
            for (acc, lane) in x.iter_mut().zip(quad) {
                *acc = fold_into(*acc, load(lane), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_into(fold_into(fold_into(x[0], x[1], k3k4), x[2], k3k4), x[3], k3k4);
        for lane in singles {
            x = fold_into(x, load(lane), k3k4);
        }
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x5 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00);
        let x = _mm_xor_si128(x5, _mm_srli_si128(x, 4));
        // Barrett: T1 = (x mod x^32)·µ, T2 = (T1 mod x^32)·P, the register is x ^ T2's high half
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use testkit::{cases, text, Prng};

    /// Any `i64`, with the edges and a small colliding range drawn often
    /// enough that duplicate keys and sign boundaries occur in most cases.
    fn int(rng: &mut Prng) -> i64 {
        match rng.below(4) {
            0 => *rng.pick(&[0, 1, -1, i64::MIN, i64::MAX]),
            1 | 2 => rng.gen_range(-20..20),
            _ => rng.next_u64() as i64,
        }
    }

    fn float(rng: &mut Prng) -> f64 {
        match rng.below(3) {
            0 => *rng.pick(&[0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE]),
            1 => rng.gen_f64() * 2.0 - 1.0,
            // every bit pattern, NaN payloads and subnormals included
            _ => f64::from_bits(rng.next_u64()),
        }
    }

    /// A value of any type, drawn for the seeded codec and ordering sweeps.
    pub(crate) fn value(rng: &mut Prng) -> Value {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789:_.-";
        match rng.below(5) {
            0 => Value::Null,
            1 => Value::Int(int(rng)),
            2 => Value::Float(float(rng)),
            3 => Value::Text(text(rng, ALPHABET, 0..=24)),
            _ => Value::Bytes((0..rng.below(32)).map(|_| rng.below(256) as u8).collect()),
        }
    }

    fn row(rng: &mut Prng) -> Vec<Value> {
        (0..rng.below(8)).map(|_| value(rng)).collect()
    }

    fn roundtrip(v: Value) -> Value {
        let mut buf = Vec::new();
        put_value(&mut buf, &v);
        let mut b = &buf[..];
        let out = get_value(&mut b).unwrap();
        assert!(b.is_empty(), "codec consumed whole buffer");
        out
    }

    #[test]
    fn value_roundtrips() {
        for v in [
            Value::Null,
            Value::Int(0),
            Value::Int(1),
            Value::Int(-1),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::text(""),
            Value::text("GO:0009116 nucleoside metabolism"),
            Value::bytes(vec![]),
            Value::bytes(vec![0, 255, 128]),
        ] {
            let back = roundtrip(v.clone());
            // Value's Eq uses total ordering so NaN == NaN here.
            assert_eq!(back, v);
        }
        cases(256, |rng| {
            let v = value(rng);
            assert_eq!(roundtrip(v.clone()), v);
        });
    }

    #[test]
    fn row_roundtrip() {
        let row = vec![
            Value::Int(353),
            Value::text("APRT"),
            Value::Null,
            Value::Float(0.97),
        ];
        let mut buf = Vec::new();
        put_row(&mut buf, &row);
        assert_eq!(get_row(&mut &buf[..]).unwrap(), row);
        cases(256, |rng| {
            let row = self::row(rng);
            let mut buf = Vec::new();
            put_row(&mut buf, &row);
            assert_eq!(get_row(&mut &buf[..]).unwrap(), row);
        });
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(get_varint(&mut &buf[..]).unwrap(), v);
        }
        // the cursor stops behind the varint
        let mut rest = &[0x80, 0x01, 0x42][..];
        assert_eq!(get_varint(&mut rest).unwrap(), 128);
        assert_eq!(rest, [0x42]);
        // a tenth byte gives its lowest bit; no byte may follow it
        assert_eq!(get_varint(&mut &[[0xff; 9].as_slice(), &[0x7f]].concat()[..]).unwrap(), u64::MAX);
        for (bytes, msg) in [(&[0x80; 2][..], "ran off end"), (&[0x80; 10], "ran off end"), (&[0x80; 11], "longer than 64 bits")] {
            match get_varint(&mut &bytes[..]) {
                Err(StoreError::Corrupt(m)) => assert!(m.contains(msg), "{m}"),
                other => panic!("{bytes:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn corrupt_input_is_detected_not_panicking() {
        // empty buffer
        assert!(get_value(&mut &[][..]).is_err());
        // unknown tag
        assert!(get_value(&mut &[9][..]).is_err());
        // truncated text
        let mut buf = Vec::new();
        put_value(&mut buf, &Value::text("hello"));
        assert!(get_value(&mut &buf[..buf.len() - 2]).is_err());
        // truncated float
        let mut buf = Vec::new();
        put_value(&mut buf, &Value::Float(0.5));
        assert!(get_value(&mut &buf[..buf.len() - 1]).is_err());
        // invalid utf-8
        let mut buf = vec![TAG_TEXT];
        put_varint(&mut buf, 2);
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert!(get_value(&mut &buf[..]).is_err());
        // overlong varint
        assert!(get_varint(&mut &[0x80u8; 11][..]).is_err());
        cases(256, |rng| {
            // half the cases are pure noise, half an encoded row with a few
            // bytes overwritten, so the decoder gets past the first tag
            let mut data: Vec<u8> = Vec::new();
            if rng.gen_bool(0.5) {
                put_row(&mut data, &row(rng));
                for _ in 0..rng.below(4) {
                    if !data.is_empty() {
                        let at = rng.below(data.len());
                        data[at] = rng.below(256) as u8;
                    }
                }
                data.truncate(rng.below(data.len() + 1));
            } else {
                data.extend((0..rng.below(64)).map(|_| rng.below(256) as u8));
            }
            // must never panic; errors are fine
            let _ = get_row(&mut &data[..]);
        });
    }

    /// The cell walk and a decode into values agree on every cell: the same
    /// values where the cell is a row used up whole, an error where not —
    /// an encoded row with bytes overwritten, cut off or left behind it.
    #[test]
    fn the_cell_walk_lends_what_a_decode_builds() {
        cases(512, |rng| {
            let mut cell = Vec::new();
            put_row(&mut cell, &row(rng));
            for _ in 0..rng.below(3) {
                if cell.is_empty() {
                    break;
                }
                let at = rng.below(cell.len());
                match rng.below(3) {
                    0 => cell[at] = rng.below(256) as u8,
                    1 => cell.truncate(at),
                    _ => cell.push(rng.below(256) as u8),
                }
            }
            let mut rest = &cell[..];
            let decoded = get_row(&mut rest).ok().filter(|_| rest.is_empty());
            let mut walked = Vec::new();
            let arity = walk_cell(RowId(7), &cell, |ordinal, value| {
                assert_eq!(ordinal, walked.len());
                walked.push(value.to_value());
            });
            assert_eq!(arity.ok().map(|arity| (arity, walked)), decoded.map(|row| (row.len(), row)), "{cell:?}");
        });
        let mut cell = Vec::new();
        put_row(&mut cell, &[Value::Int(1)]);
        cell.push(0);
        match walk_cell(RowId(7), &cell, |_, _| {}) {
            Err(StoreError::Corrupt(msg)) => assert_eq!(msg, "row #7 leaves 1 bytes of its cell unread"),
            other => panic!("{other:?}"),
        }
    }

    /// The bit-at-a-time definition the table is derived from.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xffff_ffff;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xedb8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_vector() {
        // standard test vector: "123456789" -> 0xCBF43926
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Both paths against the definition: the tables, and the fold where
    /// this CPU has it — `crc32` itself picks one by length.
    fn check_crc32(data: &[u8], what: &str) {
        let want = crc32_bitwise(data);
        assert_eq!(!table_update(!0, data), want, "tables, {what}");
        #[cfg(target_arch = "x86_64")]
        if let Some(folded) = crc32_folded(data) {
            assert_eq!(folded, want, "fold, {what}");
        }
        assert_eq!(crc32(data), want, "crc32, {what}");
    }

    #[test]
    fn crc32_paths_match_the_bitwise_definition() {
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            crc32_folded(&[]).is_some(),
            std::arch::is_x86_feature_detected!("pclmulqdq") && std::arch::is_x86_feature_detected!("sse4.1"),
            "the fold runs wherever the CPU has it"
        );
        // every length up to 1 KiB, at 16 alignments of one shared buffer
        let shared: Vec<u8> = (0..1024 + 16u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for start in 0..16 {
            for len in 0..=1024 {
                check_crc32(&shared[start..start + len], &format!("start {start} len {len}"));
            }
        }
        // seeded noise up to 64 KiB, sized around the fold's threshold and
        // each 64- and 16-byte step
        testkit::cases(64, |rng| {
            let len = match rng.below(3) {
                0 => 127 + rng.below(3),
                1 => (rng.below(1024) * *rng.pick(&[16, 64])).saturating_add(rng.below(3)).saturating_sub(1),
                _ => rng.below(64 * 1024 + 1),
            };
            let data: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
            check_crc32(&data, &format!("len {len}"));
        });
    }

    #[test]
    fn string_codec() {
        let mut buf = Vec::new();
        put_str(&mut buf, "locuslink");
        assert_eq!(get_str(&mut &buf[..]).unwrap(), "locuslink");
    }
}
