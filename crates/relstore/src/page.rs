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
//! silently wrong rows. Every fault pays for that check, so [`crc32`] folds
//! with PCLMULQDQ where the CPU has it, and the slot directory is read in
//! one pass.
//!
//! [`PageImage`] is that byte string in memory — the header, the slot
//! directory as a table of cell extents, and the cell area as it is on disk
//! — and the one form a row has in memory: a buffer-pool frame
//! ([`crate::pager`]) holds one, a table's open tail ([`crate::table`]) is
//! a run of them, and a seal hands one over as it stands. A row is decoded
//! from its cell when a read asks for it; a damaged cell is a typed error at
//! that read. On disk images are immutable: the pool appends a fresh image
//! (copy-on-write) when any row of a page changed, so the fault model for
//! torn tails matches the WAL's.

use crate::codec::{crc32, get_count, get_row, get_u32, get_varint, put_row, put_varint};
use crate::error::{StoreError, StoreResult};
use crate::row::Row;
use crate::value::Value;

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

/// Where a slot's cell lies in the cell area; `len == 0` is a tombstone (a
/// cell is at least its arity byte).
#[derive(Debug, Clone, Copy)]
struct Slot {
    off: u32,
    len: u32,
}

/// The live cell of slot `live` ends at `off`, where the next one starts or
/// the cell area ends: past its own offset, or at 0 if there is none.
fn end_cell(slots: &mut [Slot], live: Option<(usize, u64)>, off: u64) -> StoreResult<()> {
    match live {
        None if off == 0 => {}
        Some((prev, prev_off)) if off > prev_off => slots[prev].len = (off - prev_off) as u32,
        _ => return Err(StoreError::Corrupt(format!("page slot offset {off} does not ascend from 0 inside the cell area"))),
    }
    Ok(())
}

/// A page as it is on disk: identity, base row id, slot table, cell area.
#[derive(Debug, Clone)]
pub struct PageImage {
    pub table_id: u32,
    pub page_no: u32,
    /// Row id of slot 0; slot `i` is row `base + i`.
    pub base: u64,
    slots: Vec<Slot>,
    /// The cells, each where its slot says. A faulted image keeps the buffer
    /// it was read into; the header and directory in front count as `dead`.
    cells: Vec<u8>,
    /// Bytes of `cells` no slot points at; never written out.
    dead: usize,
}

impl PageImage {
    /// The image of an open `tail` that the next slot — row `next` of
    /// `table_id`, behind `sealed` pages — goes into: the last while it has
    /// room, else a fresh one under the identity it will be sealed with,
    /// behind a last one that has given back its growth slack. Every image
    /// of a tail but the last therefore holds [`MAX_PAGE_SLOTS`] slots.
    pub(crate) fn open(tail: &mut Vec<PageImage>, table_id: u32, sealed: usize, next: u64) -> &mut PageImage {
        if tail.last().is_none_or(|image| image.slots.len() >= MAX_PAGE_SLOTS) {
            tail.last_mut().map(PageImage::shrink_to_fit);
            let (page_no, slots, cells) = ((sealed + tail.len()) as u32, Vec::new(), Vec::new());
            tail.push(PageImage { table_id, page_no, base: next, slots, cells, dead: 0 });
        }
        let last = tail.len() - 1;
        &mut tail[last]
    }

    /// Add a slot holding `values` (`None` = tombstone) after the last one.
    pub(crate) fn push(&mut self, values: Option<&[Value]>) {
        let slot = self.append(values);
        self.slots.push(slot);
    }

    /// Add a slot holding `cell`, a row as [`put_row`] encoded it.
    pub(crate) fn push_cell(&mut self, cell: &[u8]) {
        let off = self.cells.len() as u32;
        self.cells.extend_from_slice(cell);
        self.slots.push(Slot { off, len: cell.len() as u32 });
    }

    /// Give back the growth slack of an image that will grow no more.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.slots.shrink_to_fit();
        self.cells.shrink_to_fit();
    }

    /// Encode `values` at the end of the cell area; `None` is a tombstone.
    fn append(&mut self, values: Option<&[Value]>) -> Slot {
        let off = self.cells.len();
        if let Some(values) = values {
            put_row(&mut self.cells, values);
        }
        Slot {
            off: off as u32,
            len: (self.cells.len() - off) as u32,
        }
    }

    /// The one page parser: magic, CRC over the body, header, and a slot
    /// directory whose live offsets must start at 0, ascend, and fall inside
    /// the cell area — all checked here, before any cell is touched. A
    /// cell's extent runs to the next live offset; that it decodes to
    /// exactly that extent is checked when it is read. The image keeps
    /// `data` as its cell buffer: a fault allocates the one buffer it read.
    pub fn parse(data: Vec<u8>) -> StoreResult<PageImage> {
        if !(8..=u32::MAX as usize).contains(&data.len()) {
            return Err(StoreError::Corrupt(format!("page image of {} bytes", data.len())));
        }
        if &data[0..4] != PAGE_MAGIC {
            return Err(StoreError::Corrupt("bad page magic".into()));
        }
        let crc = u32::from_le_bytes([data[4], data[5], data[6], data[7]]);
        let mut buf = &data[8..];
        if crc32(buf) != crc {
            return Err(StoreError::Corrupt("page checksum mismatch".into()));
        }
        let table_id = get_u32(&mut buf, "page table id")?;
        let page_no = get_u32(&mut buf, "page number")?;
        let base = get_varint(&mut buf)?;
        let nslots = get_count(&mut buf, 1, "page slot")?;
        if nslots > MAX_PAGE_SLOTS {
            return Err(StoreError::Corrupt(format!("implausible slot count {nslots}")));
        }
        // one pass, an entry a step: a varint of at most 5 bytes (`1 +
        // offset` fits in 33 bits)
        let mut slots = Vec::with_capacity(nslots);
        let (mut at, mut live) = (0, None);
        for i in 0..nslots {
            let (mut entry, mut shift) = (0u64, 0);
            loop {
                let Some(&byte) = buf.get(at).filter(|_| shift < 35) else {
                    return Err(StoreError::Corrupt(format!("page slot {i}'s entry is cut off or longer than 5 bytes")));
                };
                at += 1;
                entry |= u64::from(byte & 0x7f) << shift;
                if byte < 0x80 {
                    break;
                }
                shift += 7;
            }
            if let Some(off) = entry.checked_sub(1) {
                end_cell(&mut slots, live, off)?;
                live = Some((i, off));
            }
            slots.push(Slot { off: entry.saturating_sub(1) as u32, len: 0 });
        }
        // the rest is the cell area, and the last live cell runs to its end
        end_cell(&mut slots, live, (buf.len() - at) as u64)?;
        // the whole image is at most `u32::MAX` bytes
        let origin = (data.len() - buf.len() + at) as u32;
        for slot in &mut slots {
            slot.off += origin;
        }
        Ok(PageImage {
            table_id,
            page_no,
            base,
            slots,
            cells: data,
            dead: origin as usize,
        })
    }

    /// The image as bytes (header + CRC + slotted body): a byte copy of the
    /// live cells in slot order, whatever order memory holds them in — the
    /// bytes of an image the same rows were only ever pushed to.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.cells.len() + 2 * self.slots.len() + 40);
        out.extend_from_slice(PAGE_MAGIC);
        out.extend_from_slice(&[0; 4]); // the checksum, once the body is known
        put_varint(&mut out, self.table_id as u64);
        put_varint(&mut out, self.page_no as u64);
        put_varint(&mut out, self.base);
        put_varint(&mut out, self.slots.len() as u64);
        let mut at = 0u64;
        for slot in &self.slots {
            put_varint(&mut out, if slot.len == 0 { 0 } else { 1 + at });
            at += slot.len as u64;
        }
        for slot in self.slots.iter().filter(|s| s.len != 0) {
            out.extend_from_slice(self.cell(slot));
        }
        let crc = crc32(&out[8..]);
        out[4..8].copy_from_slice(&crc.to_le_bytes());
        out
    }

    fn cell(&self, slot: &Slot) -> &[u8] {
        &self.cells[slot.off as usize..][..slot.len as usize]
    }

    /// Number of slots (live or not).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The encoded cell of `slot` as it lies in memory; `None` for a
    /// tombstone or a slot the page does not have.
    pub(crate) fn raw_cell(&self, slot: usize) -> Option<&[u8]> {
        self.slots.get(slot).filter(|s| s.len != 0).map(|s| self.cell(s))
    }

    /// Encoded bytes of the live cells.
    pub(crate) fn live_bytes(&self) -> usize {
        self.cells.len() - self.dead
    }

    /// Run `read` over the cell of `slot`; `Ok(None)` for a tombstone or a
    /// slot the page does not have. A cell `read` does not consume exactly
    /// is corrupt.
    pub(crate) fn read_cell<T>(
        &self,
        slot: usize,
        read: impl FnOnce(&mut &[u8]) -> StoreResult<T>,
    ) -> StoreResult<Option<T>> {
        let Some(mut cell) = self.raw_cell(slot) else {
            return Ok(None);
        };
        let out = read(&mut cell)?;
        if !cell.is_empty() {
            let row = self.base + slot as u64;
            return Err(StoreError::Corrupt(format!(
                "row {row} leaves {} bytes of its cell unread",
                cell.len()
            )));
        }
        Ok(Some(out))
    }

    /// The row in `slot`, decoded straight into the row that is returned.
    pub fn row(&self, slot: usize) -> StoreResult<Option<Row>> {
        self.read_cell(slot, |cell| get_row(cell).map(Row::new))
    }

    /// Decode the row in `slot` over `scratch`; `false` for a tombstone.
    pub(crate) fn row_into(&self, slot: usize, scratch: &mut Row) -> StoreResult<bool> {
        Ok(self.read_cell(slot, |cell| scratch.decode_from(cell))?.is_some())
    }

    /// Point `slot` at `values` (`None` tombstones it) without touching any
    /// other row: the old cell is abandoned where it lies, a new one is
    /// appended, and abandoned bytes are squeezed out once they are half the
    /// cell area — O(row) amortised.
    pub(crate) fn set(&mut self, slot: usize, values: Option<&[Value]>) -> StoreResult<()> {
        let old = self.slots.get_mut(slot).ok_or_else(|| {
            StoreError::Corrupt(format!("page {} has no slot {slot}", self.page_no))
        })?;
        self.dead += old.len as usize;
        old.len = 0;
        if values.is_some() && self.dead > self.cells.len() / 2 {
            let mut cells = Vec::with_capacity(self.cells.len() - self.dead);
            for s in self.slots.iter_mut().filter(|s| s.len != 0) {
                let cell = &self.cells[s.off as usize..][..s.len as usize];
                s.off = cells.len() as u32;
                cells.extend_from_slice(cell);
            }
            self.cells = cells;
            self.dead = 0;
        }
        self.slots[slot] = self.append(values);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PageImage {
        /// The image of `rows` (`None` = tombstone), each cell encoded
        /// once, in slot order: what every other way to the same rows is
        /// held against.
        pub(crate) fn from_rows(table_id: u32, page_no: u32, base: u64, rows: &[Option<Row>]) -> Self {
            let (slots, cells) = (Vec::new(), Vec::new());
            let mut image = PageImage { table_id, page_no, base, slots, cells, dead: 0 };
            for row in rows {
                image.push(row.as_ref().map(Row::values));
            }
            image
        }
    }

    fn row(i: i64) -> Row {
        Row::new(vec![Value::Int(i), Value::text(format!("r{i}")), Value::Null])
    }

    /// Every slot of `page`, decoded.
    fn rows_of(page: &PageImage) -> Vec<Option<Row>> {
        (0..page.slot_count()).map(|slot| page.row(slot).unwrap()).collect()
    }

    #[test]
    fn roundtrip_with_tombstones() {
        let rows = vec![Some(row(1)), None, Some(row(3)), None, None, Some(row(6))];
        let image = PageImage::from_rows(7, 42, 1000, &rows).encode();
        let page = PageImage::parse(image.clone()).unwrap();
        assert_eq!(page.table_id, 7);
        assert_eq!(page.page_no, 42);
        assert_eq!(page.base, 1000);
        assert_eq!(rows_of(&page), rows);
        assert_eq!(page.row(6).unwrap(), None, "a slot the page does not have");
        assert_eq!(page.encode(), image, "an untouched image writes back as it was read");
    }

    #[test]
    fn empty_and_all_tombstone_pages() {
        let image = PageImage::from_rows(0, 0, 0, &[]).encode();
        assert_eq!(PageImage::parse(image.clone()).unwrap().slot_count(), 0);
        let tombs = vec![None, None, None];
        let image = PageImage::from_rows(1, 2, 3, &tombs).encode();
        assert_eq!(rows_of(&PageImage::parse(image.clone()).unwrap()), tombs);
    }

    #[test]
    fn corruption_detected() {
        let rows = vec![Some(row(1)), Some(row(2))];
        let image = PageImage::from_rows(1, 0, 0, &rows).encode();
        // bad magic
        let mut bad = image.clone();
        bad[0] = b'X';
        assert!(PageImage::parse(bad).is_err());
        // flipped body byte
        let mut bad = image.clone();
        let n = bad.len();
        bad[n - 1] ^= 0xff;
        assert!(PageImage::parse(bad).is_err());
        // truncation (torn page)
        for cut in [0, 4, 8, image.len() - 1] {
            assert!(PageImage::parse(image[..cut].to_vec()).is_err(), "cut at {cut}");
        }
    }

    /// A page image with a *valid* checksum over whatever `directory`
    /// entries and cell bytes it is given.
    fn forged(nslots: u64, directory: &[u64], cells: &[u8]) -> Vec<u8> {
        let mut out = PAGE_MAGIC.to_vec();
        out.extend_from_slice(&[0; 4]);
        for v in [1, 0, 100, nslots] {
            put_varint(&mut out, v);
        }
        for &entry in directory {
            put_varint(&mut out, entry);
        }
        out.extend_from_slice(cells);
        let crc = crc32(&out[8..]);
        out[4..8].copy_from_slice(&crc.to_le_bytes());
        out
    }

    fn cell(values: &[Value]) -> Vec<u8> {
        let mut out = Vec::new();
        put_row(&mut out, values);
        out
    }

    fn corrupt<T: std::fmt::Debug>(result: StoreResult<T>) -> String {
        match result {
            Err(StoreError::Corrupt(msg)) => msg,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn a_bad_slot_directory_behind_a_valid_checksum_is_refused_at_parse() {
        let good = cell(row(1).values());
        let two = [good.clone(), good.clone()].concat();
        let second = 1 + good.len() as u64;
        // the well-formed image parses
        assert_eq!(
            rows_of(&PageImage::parse(forged(2, &[1, second], &two)).unwrap()),
            vec![Some(row(1)), Some(row(1))]
        );
        // an offset past the cell area
        corrupt(PageImage::parse(forged(2, &[1, 1 + two.len() as u64], &two)));
        corrupt(PageImage::parse(forged(2, &[1, u64::MAX], &two)));
        // descending and repeated offsets
        corrupt(PageImage::parse(forged(2, &[second, 1], &two)));
        corrupt(PageImage::parse(forged(2, &[1, 1], &two)));
        // cell bytes in front of the first cell, or under no live slot
        corrupt(PageImage::parse(forged(2, &[0, second], &two)));
        corrupt(PageImage::parse(forged(1, &[0], &good)));
        // an entry is at most 5 varint bytes, padded ones included
        let padded = |bytes: &[u8]| forged(1, &[], &[bytes, &good].concat());
        assert_eq!(rows_of(&PageImage::parse(padded(&[0x81, 0x80, 0x80, 0x80, 0])).unwrap()), vec![Some(row(1))]);
        let msg = corrupt(PageImage::parse(padded(&[0x81, 0x80, 0x80, 0x80, 0x80, 0])));
        assert!(msg.contains("longer than 5 bytes"), "{msg}");
        // the directory runs off the end of the image
        corrupt(PageImage::parse(forged(1, &[], &[0x81])));
        // one slot too many: refused by the count, before the entries are read
        let entries = vec![0u64; MAX_PAGE_SLOTS + 1];
        let msg = corrupt(PageImage::parse(forged(entries.len() as u64, &entries, &[])));
        assert!(msg.contains("implausible slot count 4097"), "{msg}");
        // a count the bytes that remain could not hold allocates nothing
        let msg = corrupt(PageImage::parse(forged(3000, &[1], &good)));
        assert!(msg.contains("page slot count 3000"), "{msg}");
    }

    #[test]
    fn a_bad_cell_behind_a_valid_checksum_is_an_error_at_its_read_only() {
        let good = cell(row(7).values());
        let mut unknown_tag = vec![1u8];
        unknown_tag.push(9);
        let mut not_utf8 = vec![1u8, 3, 2];
        not_utf8.extend_from_slice(&[0xff, 0xfe]);
        let mut short_arity = good.clone();
        short_arity[0] = 2; // leaves its third value unread
        let mut long_arity = good.clone();
        long_arity[0] = 4; // runs off the end of its cell
        let mut huge_arity = Vec::new();
        put_varint(&mut huge_arity, u64::MAX); // sized by nothing
        for bad in [unknown_tag, not_utf8, short_arity, long_arity, huge_arity] {
            let cells = [good.clone(), bad.clone(), good.clone()].concat();
            let offsets = [1, 1 + good.len() as u64, 1 + (good.len() + bad.len()) as u64];
            let page = PageImage::parse(forged(3, &offsets, &cells)).unwrap();
            corrupt(page.row(1));
            let mut scratch = Row::new(Vec::new());
            corrupt(page.row_into(1, &mut scratch));
            // the neighbours of the damaged row still read, in both shapes
            for slot in [0, 2] {
                assert_eq!(page.row(slot).unwrap(), Some(row(7)), "{bad:?}");
                assert!(page.row_into(slot, &mut scratch).unwrap());
                assert_eq!(scratch, row(7));
            }
        }
    }

    /// A row drawn to change shape from its predecessor: arity, NULL /
    /// `Text` / `Int` / `Float` / `Bytes` in the same column, empty and
    /// 100-byte text.
    fn shifty_row(rng: &mut testkit::Prng) -> Row {
        let arity = *rng.pick(&[0usize, 1, 3, 3, 3, 5]);
        Row::new(
            (0..arity)
                .map(|_| match rng.below(7) {
                    0 => Value::Null,
                    1 => Value::Int(rng.next_u64() as i64 >> rng.below(64)),
                    2 => Value::Float(rng.gen_f64()),
                    3 => Value::text(""),
                    4 => Value::text("t".repeat(100)),
                    5 => Value::text(testkit::text(rng, b"abc", 1..=9)),
                    _ => Value::bytes(vec![rng.below(256) as u8; rng.below(5)]),
                })
                .collect(),
        )
    }

    #[test]
    fn in_place_decode_equals_a_fresh_decode() {
        testkit::cases(64, |rng| {
            let rows: Vec<Option<Row>> = (0..40)
                .map(|_| rng.gen_bool(0.9).then(|| shifty_row(rng)))
                .collect();
            let page = PageImage::from_rows(1, 0, 0, &rows);
            // one scratch row across consecutive rows, as a cursor uses it
            let mut scratch = Row::new(Vec::new());
            for (slot, want) in rows.iter().enumerate() {
                let live = page.row_into(slot, &mut scratch).unwrap();
                assert_eq!(live, want.is_some());
                if let Some(want) = want {
                    assert_eq!(&scratch, want, "slot {slot}");
                    assert_eq!(page.row(slot).unwrap().as_ref(), Some(want));
                    // `Value`'s equality is numeric across Int/Float: pin the variant too
                    let variants = |r: &Row| r.values().iter().map(Value::value_type).collect::<Vec<_>>();
                    assert_eq!(variants(&scratch), variants(want));
                }
            }
        });
    }

    #[test]
    fn mutated_image_encodes_as_the_image_built_from_the_same_rows() {
        testkit::cases(64, |rng| {
            let mut rows: Vec<Option<Row>> = (0..rng.gen_range(1..60usize))
                .map(|_| rng.gen_bool(0.8).then(|| shifty_row(rng)))
                .collect();
            let faulted_from = PageImage::from_rows(3, 9, 500, &rows).encode();
            let mut page = PageImage::parse(faulted_from.clone()).unwrap();
            assert_eq!(page.encode(), faulted_from);
            // tombstone / replace / restore random slots, many times over so
            // the abandoned cells are squeezed out along the way
            for _ in 0..rng.below(200) {
                let slot = rng.below(rows.len());
                let new = rng.gen_bool(0.6).then(|| shifty_row(rng));
                page.set(slot, new.as_ref().map(Row::values)).unwrap();
                rows[slot] = new;
                assert!(page.dead <= page.cells.len());
            }
            assert_eq!(rows_of(&page), rows);
            assert_eq!(page.encode(), PageImage::from_rows(3, 9, 500, &rows).encode());
            assert_eq!(page.live_bytes(), PageImage::from_rows(3, 9, 500, &rows).cells.len());
            corrupt(page.set(rows.len(), None));
        });
    }

    #[test]
    fn abandoned_cells_stay_bounded_under_repeated_replacement() {
        let rows: Vec<Option<Row>> = (0..10).map(|i| Some(row(i))).collect();
        let mut page = PageImage::from_rows(1, 0, 0, &rows);
        let live = page.cells.len();
        for i in 0..10_000 {
            page.set(3, Some(row(i % 10).values())).unwrap();
            assert!(page.cells.len() <= 2 * live + 16, "{} bytes at step {i}", page.cells.len());
        }
    }
}
