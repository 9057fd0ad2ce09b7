//! Slotted heap pages: the on-disk unit of paged table storage.
//!
//! A page image is a self-contained byte string
//! `[magic "RSPG"][crc32 u32][body]` whose body carries the owning table,
//! the page number, the *base* row id of the page's slot range, a slot
//! directory, and a cell area. Slot `i` holds row id `base + i`; its
//! directory entry is `0` for a tombstone (deleted row) or `1 + offset`
//! of the row cell inside the cell area. Cells are encoded with the row
//! [`codec`](crate::codec), so pages share the WAL's and page directory's value
//! encoding. The CRC covers the body: a torn or bit-flipped page image is
//! detected at fault-in and surfaces as [`StoreError::Corrupt`], never as
//! silently wrong rows.
//!
//! Pages are *immutable images*: the buffer pool ([`crate::pager`])
//! rewrites a whole page (copy-on-write append to the heap file) when any
//! of its rows change, so images are only ever appended and the fault
//! model for torn tails matches the WAL's.

use crate::codec::{crc32, get_count, get_row, get_varint, put_row, put_varint};
use crate::error::{StoreError, StoreResult};
use crate::row::Row;

/// Page image magic.
pub const PAGE_MAGIC: &[u8; 4] = b"RSPG";

/// Hard cap on slots per page, so gap-filled tombstone runs (replay of
/// sparse row ids) cannot grow one page's slot directory without bound.
pub(crate) const MAX_PAGE_SLOTS: usize = 4096;

/// Identity of a page: owning table and position in that table's page list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId {
    pub table_id: u32,
    pub page_no: u32,
}

/// A decoded page: its identity, base row id, and slot contents.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedPage {
    pub table_id: u32,
    pub page_no: u32,
    /// Row id of slot 0; slot `i` is row `base + i`.
    pub base: u64,
    /// Slot contents; `None` is a tombstone.
    pub rows: Vec<Option<Row>>,
}

/// Exact encoded size of one row cell (used for page-fill accounting).
pub(crate) fn encoded_row_len(values: &[crate::value::Value]) -> usize {
    let mut scratch = Vec::new();
    put_row(&mut scratch, values);
    scratch.len()
}

/// Encode a page image (header + CRC + slotted body).
pub fn encode_page(table_id: u32, page_no: u32, base: u64, rows: &[Option<Row>]) -> Vec<u8> {
    let mut cells = Vec::new();
    let mut directory: Vec<u64> = Vec::with_capacity(rows.len());
    for slot in rows {
        match slot {
            None => directory.push(0),
            Some(row) => {
                directory.push(1 + cells.len() as u64);
                put_row(&mut cells, row.values());
            }
        }
    }
    let mut body = Vec::new();
    put_varint(&mut body, table_id as u64);
    put_varint(&mut body, page_no as u64);
    put_varint(&mut body, base);
    put_varint(&mut body, rows.len() as u64);
    for entry in directory {
        put_varint(&mut body, entry);
    }
    body.extend_from_slice(&cells);
    let mut out = Vec::with_capacity(body.len() + 8);
    out.extend_from_slice(PAGE_MAGIC);
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Decode and CRC-verify a page image.
pub fn decode_page(data: &[u8]) -> StoreResult<DecodedPage> {
    if data.len() < 8 {
        return Err(StoreError::Corrupt("page image too short".into()));
    }
    if &data[0..4] != PAGE_MAGIC {
        return Err(StoreError::Corrupt("bad page magic".into()));
    }
    let crc = u32::from_le_bytes([data[4], data[5], data[6], data[7]]);
    let body = &data[8..];
    if crc32(body) != crc {
        return Err(StoreError::Corrupt("page checksum mismatch".into()));
    }
    let mut buf = body;
    let table_id = get_varint(&mut buf)? as u32;
    let page_no = get_varint(&mut buf)? as u32;
    let base = get_varint(&mut buf)?;
    let nslots = get_count(&mut buf, 1, "page slot")?;
    if nslots > MAX_PAGE_SLOTS {
        return Err(StoreError::Corrupt(format!("implausible slot count {nslots}")));
    }
    let mut directory = Vec::with_capacity(nslots);
    for _ in 0..nslots {
        directory.push(get_varint(&mut buf)?);
    }
    // `buf` now holds the cell area. Cells were appended in slot order, so
    // decoding sequentially must land exactly on each directory offset.
    let cell_area_len = buf.len();
    let mut rows = Vec::with_capacity(nslots);
    for entry in directory {
        if entry == 0 {
            rows.push(None);
            continue;
        }
        let offset = (entry - 1) as usize;
        let consumed = cell_area_len - buf.len();
        if offset != consumed {
            return Err(StoreError::Corrupt(format!(
                "page slot offset {offset} disagrees with cell area position {consumed}"
            )));
        }
        rows.push(Some(Row::new(get_row(&mut buf)?)));
    }
    Ok(DecodedPage {
        table_id,
        page_no,
        base,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn row(i: i64) -> Row {
        Row::new(vec![Value::Int(i), Value::text(format!("r{i}")), Value::Null])
    }

    #[test]
    fn roundtrip_with_tombstones() {
        let rows = vec![Some(row(1)), None, Some(row(3)), None, None, Some(row(6))];
        let image = encode_page(7, 42, 1000, &rows);
        let page = decode_page(&image).unwrap();
        assert_eq!(page.table_id, 7);
        assert_eq!(page.page_no, 42);
        assert_eq!(page.base, 1000);
        assert_eq!(page.rows, rows);
    }

    #[test]
    fn empty_and_all_tombstone_pages() {
        let image = encode_page(0, 0, 0, &[]);
        assert_eq!(decode_page(&image).unwrap().rows, Vec::<Option<Row>>::new());
        let tombs = vec![None, None, None];
        let image = encode_page(1, 2, 3, &tombs);
        assert_eq!(decode_page(&image).unwrap().rows, tombs);
    }

    #[test]
    fn corruption_detected() {
        let rows = vec![Some(row(1)), Some(row(2))];
        let image = encode_page(1, 0, 0, &rows);
        // bad magic
        let mut bad = image.clone();
        bad[0] = b'X';
        assert!(decode_page(&bad).is_err());
        // flipped body byte
        let mut bad = image.clone();
        let n = bad.len();
        bad[n - 1] ^= 0xff;
        assert!(decode_page(&bad).is_err());
        // truncation (torn page)
        for cut in [0, 4, 8, image.len() - 1] {
            assert!(decode_page(&image[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn encoded_row_len_matches_codec() {
        let r = row(9);
        let mut buf = Vec::new();
        crate::codec::put_row(&mut buf, r.values());
        assert_eq!(encoded_row_len(r.values()), buf.len());
    }
}
