//! Binary codec for values, rows, and log/snapshot records.
//!
//! A compact self-describing format: each value is a 1-byte tag followed by
//! a fixed- or length-prefixed payload. Integers use zig-zag varint
//! encoding; lengths use plain varints. The same primitives serve the
//! write-ahead log and the snapshot file, so corruption detection (bad tags,
//! short buffers) is shared.

use crate::error::{StoreError, StoreResult};
use crate::value::Value;
use bytes::{Buf, BufMut, Bytes, BytesMut};

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_TEXT: u8 = 3;
const TAG_BYTES: u8 = 4;

/// Append a varint-encoded u64.
pub fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Read a varint-encoded u64.
pub fn get_varint(buf: &mut Bytes) -> StoreResult<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(StoreError::Corrupt("varint ran off end of buffer".into()));
        }
        let byte = buf.get_u8();
        if shift >= 64 {
            return Err(StoreError::Corrupt("varint longer than 64 bits".into()));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Read an element count that the decoder is about to loop over or reserve
/// for. A count read from a file is not trusted: `min_bytes` is the least
/// one element can occupy, and a count the remaining bytes could not hold
/// is corruption — reported before anything is allocated for it.
pub fn get_count(buf: &mut Bytes, min_bytes: usize, what: &str) -> StoreResult<usize> {
    let count = get_varint(buf)?;
    if count > (buf.remaining() / min_bytes.max(1)) as u64 {
        return Err(StoreError::Corrupt(format!(
            "{what} count {count} exceeds the {} bytes that remain",
            buf.remaining()
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
pub fn put_value(buf: &mut BytesMut, value: &Value) {
    match value {
        Value::Null => buf.put_u8(TAG_NULL),
        Value::Int(v) => {
            buf.put_u8(TAG_INT);
            put_varint(buf, zigzag(*v));
        }
        Value::Float(v) => {
            buf.put_u8(TAG_FLOAT);
            buf.put_u64_le(v.to_bits());
        }
        Value::Text(s) => {
            buf.put_u8(TAG_TEXT);
            put_varint(buf, s.len() as u64);
            buf.put_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            buf.put_u8(TAG_BYTES);
            put_varint(buf, b.len() as u64);
            buf.put_slice(b);
        }
    }
}

/// Decode one value.
pub fn get_value(buf: &mut Bytes) -> StoreResult<Value> {
    if !buf.has_remaining() {
        return Err(StoreError::Corrupt("value tag ran off end of buffer".into()));
    }
    let tag = buf.get_u8();
    Ok(match tag {
        TAG_NULL => Value::Null,
        TAG_INT => Value::Int(unzigzag(get_varint(buf)?)),
        TAG_FLOAT => {
            if buf.remaining() < 8 {
                return Err(StoreError::Corrupt("float payload truncated".into()));
            }
            Value::Float(f64::from_bits(buf.get_u64_le()))
        }
        TAG_TEXT => {
            let len = get_varint(buf)? as usize;
            if buf.remaining() < len {
                return Err(StoreError::Corrupt("text payload truncated".into()));
            }
            let raw = buf.copy_to_bytes(len);
            let s = std::str::from_utf8(&raw)
                .map_err(|_| StoreError::Corrupt("text payload is not UTF-8".into()))?;
            Value::Text(s.to_owned())
        }
        TAG_BYTES => {
            let len = get_varint(buf)? as usize;
            if buf.remaining() < len {
                return Err(StoreError::Corrupt("bytes payload truncated".into()));
            }
            Value::Bytes(buf.copy_to_bytes(len).to_vec())
        }
        other => {
            return Err(StoreError::Corrupt(format!("unknown value tag {other}")));
        }
    })
}

/// Encode a row (arity-prefixed value list).
pub fn put_row(buf: &mut BytesMut, values: &[Value]) {
    put_varint(buf, values.len() as u64);
    for v in values {
        put_value(buf, v);
    }
}

/// Decode a row.
pub fn get_row(buf: &mut Bytes) -> StoreResult<Vec<Value>> {
    let arity = get_count(buf, 1, "row value")?;
    let mut values = Vec::with_capacity(arity);
    for _ in 0..arity {
        values.push(get_value(buf)?);
    }
    Ok(values)
}

/// Encode a length-prefixed string.
pub fn put_str(buf: &mut BytesMut, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.put_slice(s.as_bytes());
}

/// Decode a length-prefixed string.
pub fn get_str(buf: &mut Bytes) -> StoreResult<String> {
    let len = get_varint(buf)? as usize;
    if buf.remaining() < len {
        return Err(StoreError::Corrupt("string payload truncated".into()));
    }
    let raw = buf.copy_to_bytes(len);
    String::from_utf8(raw.to_vec()).map_err(|_| StoreError::Corrupt("string is not UTF-8".into()))
}

/// CRC-32 (IEEE 802.3, reflected) over a byte slice. Used to frame WAL
/// records and to checksum snapshots; implemented locally to keep the
/// dependency set minimal.
pub fn crc32(data: &[u8]) -> u32 {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: Value) -> Value {
        let mut buf = BytesMut::new();
        put_value(&mut buf, &v);
        let mut b = buf.freeze();
        let out = get_value(&mut b).unwrap();
        assert!(!b.has_remaining(), "codec consumed whole buffer");
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
    }

    #[test]
    fn row_roundtrip() {
        let row = vec![
            Value::Int(353),
            Value::text("APRT"),
            Value::Null,
            Value::Float(0.97),
        ];
        let mut buf = BytesMut::new();
        put_row(&mut buf, &row);
        let mut b = buf.freeze();
        assert_eq!(get_row(&mut b).unwrap(), row);
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut b = buf.freeze();
            assert_eq!(get_varint(&mut b).unwrap(), v);
        }
    }

    #[test]
    fn corrupt_input_is_detected_not_panicking() {
        // empty buffer
        assert!(get_value(&mut Bytes::new()).is_err());
        // unknown tag
        assert!(get_value(&mut Bytes::from_static(&[9])).is_err());
        // truncated text
        let mut buf = BytesMut::new();
        put_value(&mut buf, &Value::text("hello"));
        let b = buf.freeze();
        let mut short = b.slice(0..b.len() - 2);
        assert!(get_value(&mut short).is_err());
        // invalid utf-8
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_TEXT);
        put_varint(&mut buf, 2);
        buf.put_slice(&[0xff, 0xfe]);
        assert!(get_value(&mut buf.freeze()).is_err());
        // overlong varint
        let mut buf = BytesMut::new();
        buf.put_slice(&[0x80u8; 11]);
        assert!(get_varint(&mut buf.freeze()).is_err());
    }

    #[test]
    fn crc32_known_vector() {
        // standard test vector: "123456789" -> 0xCBF43926
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn string_codec() {
        let mut buf = BytesMut::new();
        put_str(&mut buf, "locuslink");
        let mut b = buf.freeze();
        assert_eq!(get_str(&mut b).unwrap(), "locuslink");
    }
}
