//! Full-database snapshots.
//!
//! A snapshot is a single self-contained file:
//! `[magic "RSSN"][version u32][crc32 u32][body]`, where the body starts
//! with the checkpoint *epoch* (version ≥ 2) and then encodes every table
//! (schema, high-water row id, live rows). The CRC covers the body, so
//! partially-written snapshots are detected and rejected; callers write to
//! a temp file, rename, and sync the directory for atomicity (see
//! [`Database::checkpoint`](crate::db::Database::checkpoint)). The epoch
//! ties a snapshot to the write-ahead log that extends it: recovery replays
//! a log only when the epochs match. Version-1 snapshots (no epoch field)
//! decode as epoch 0.

use crate::codec::{
    crc32, get_count, get_row, get_str, get_u8, get_varint, put_row, put_str, put_varint,
};
use crate::error::{StoreError, StoreResult};
use crate::row::RowId;
use crate::schema::{Column, Schema};
use crate::table::Table;
use crate::value::ValueType;
use crate::vfs::Vfs;
use std::path::Path;

const MAGIC: &[u8; 4] = b"RSSN";
const VERSION: u32 = 2;

fn type_tag(ty: ValueType) -> u8 {
    match ty {
        ValueType::Int => 0,
        ValueType::Float => 1,
        ValueType::Text => 2,
        ValueType::Bytes => 3,
    }
}

fn type_from_tag(tag: u8) -> StoreResult<ValueType> {
    Ok(match tag {
        0 => ValueType::Int,
        1 => ValueType::Float,
        2 => ValueType::Text,
        3 => ValueType::Bytes,
        other => return Err(StoreError::Corrupt(format!("unknown type tag {other}"))),
    })
}

pub(crate) fn put_schema(buf: &mut Vec<u8>, schema: &Schema) {
    put_str(buf, schema.name());
    put_varint(buf, schema.columns().len() as u64);
    for c in schema.columns() {
        put_str(buf, &c.name);
        buf.push(type_tag(c.ty));
        buf.push(u8::from(c.nullable));
    }
    put_varint(buf, schema.primary_key().len() as u64);
    for &o in schema.primary_key() {
        put_varint(buf, o as u64);
    }
    // secondary indexes (skip the synthesized "pk" entry)
    let secondary: Vec<_> = schema.indexes().iter().filter(|i| i.name != "pk").collect();
    put_varint(buf, secondary.len() as u64);
    for ix in secondary {
        put_str(buf, &ix.name);
        buf.push(u8::from(ix.unique));
        put_varint(buf, ix.columns.len() as u64);
        for &o in &ix.columns {
            put_varint(buf, o as u64);
        }
    }
}

pub(crate) fn get_schema(buf: &mut &[u8]) -> StoreResult<Schema> {
    let name = get_str(buf)?;
    let ncols = get_count(buf, 3, "column")?;
    let mut builder = Schema::builder(&name);
    let mut col_names = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let cname = get_str(buf)?;
        let ty = type_from_tag(get_u8(buf, "schema truncated")?)?;
        let nullable = get_u8(buf, "schema truncated")? != 0;
        col_names.push(cname.clone());
        builder = builder.column(if nullable {
            Column::nullable(cname, ty)
        } else {
            Column::new(cname, ty)
        });
    }
    let resolve = |buf: &mut &[u8], col_names: &[String]| -> StoreResult<Vec<String>> {
        let n = get_count(buf, 1, "index column")?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let o = get_varint(buf)? as usize;
            let name = col_names
                .get(o)
                .ok_or_else(|| StoreError::Corrupt(format!("ordinal {o} out of range")))?;
            out.push(name.clone());
        }
        Ok(out)
    };
    let pk = resolve(buf, &col_names)?;
    if !pk.is_empty() {
        let refs: Vec<&str> = pk.iter().map(String::as_str).collect();
        builder = builder.primary_key(&refs);
    }
    let nix = get_count(buf, 3, "index")?;
    for _ in 0..nix {
        let iname = get_str(buf)?;
        let unique = get_u8(buf, "schema truncated")? != 0;
        let cols = resolve(buf, &col_names)?;
        let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
        builder = if unique {
            builder.unique_index(&iname, &refs)
        } else {
            builder.index(&iname, &refs)
        };
    }
    builder.build()
}

/// Encode tables into a snapshot byte buffer stamped with `epoch`. Rows
/// stream through [`Table::for_each_row`], so paged tables are encoded
/// without materializing them (and their page-fault I/O errors propagate).
pub fn encode_snapshot<'a>(
    tables: impl Iterator<Item = &'a Table>,
    epoch: u64,
) -> StoreResult<Vec<u8>> {
    let mut body = Vec::new();
    put_varint(&mut body, epoch);
    let tables: Vec<&Table> = tables.collect();
    put_varint(&mut body, tables.len() as u64);
    for t in tables {
        put_schema(&mut body, t.schema());
        put_varint(&mut body, t.next_row_id().0);
        put_varint(&mut body, t.len() as u64);
        t.for_each_row(|row_id, row| {
            put_varint(&mut body, row_id.0);
            put_row(&mut body, row.values());
            Ok(())
        })?;
    }
    let mut out = Vec::with_capacity(body.len() + 12);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    Ok(out)
}

/// Decode a snapshot byte buffer into fully-indexed tables plus the epoch
/// it was written at (0 for version-1 files).
pub fn decode_snapshot(data: &[u8]) -> StoreResult<(Vec<Table>, u64)> {
    let (mut tables, epoch) = decode_snapshot_rows(data)?;
    for table in &mut tables {
        table.build_indexes()?;
    }
    Ok((tables, epoch))
}

/// Decode a snapshot's rows into tables still under recovery — rows placed
/// by id, high-water marks restored, no index built: the caller replays
/// the WAL over them first and builds each index once at the end
/// ([`Table::build_indexes`]).
pub(crate) fn decode_snapshot_rows(data: &[u8]) -> StoreResult<(Vec<Table>, u64)> {
    if data.len() < 12 {
        return Err(StoreError::Corrupt("snapshot too short".into()));
    }
    if &data[0..4] != MAGIC {
        return Err(StoreError::Corrupt("bad snapshot magic".into()));
    }
    let version = u32::from_le_bytes([data[4], data[5], data[6], data[7]]);
    if version == 0 || version > VERSION {
        return Err(StoreError::Corrupt(format!(
            "unsupported snapshot version {version}"
        )));
    }
    let crc = u32::from_le_bytes([data[8], data[9], data[10], data[11]]);
    let body = &data[12..];
    if crc32(body) != crc {
        return Err(StoreError::Corrupt("snapshot checksum mismatch".into()));
    }
    let mut buf = body;
    let epoch = if version >= 2 { get_varint(&mut buf)? } else { 0 };
    // a table is at least a name, one column, and three counts
    let ntables = get_count(&mut buf, 8, "table")?;
    let mut tables = Vec::with_capacity(ntables);
    for _ in 0..ntables {
        let schema = get_schema(&mut buf)?;
        let high_water = get_varint(&mut buf)?;
        // a row is at least its id and its arity
        let nrows = get_count(&mut buf, 2, "row")?;
        let mut table = Table::recovering(schema, nrows);
        for _ in 0..nrows {
            let row_id = RowId(get_varint(&mut buf)?);
            let values = get_row(&mut buf)?;
            table.insert_at(row_id, values)?;
        }
        // the last rows may have been deleted before the snapshot
        table.raise_high_water(high_water)?;
        tables.push(table);
    }
    Ok((tables, epoch))
}

/// Write a snapshot atomically: temp file + fsync + rename + directory
/// sync. Without the final directory sync a power cut can silently undo
/// the rename itself.
pub fn write_snapshot_file<'a>(
    vfs: &dyn Vfs,
    path: &Path,
    tables: impl Iterator<Item = &'a Table>,
    epoch: u64,
) -> StoreResult<()> {
    let data = encode_snapshot(tables, epoch)?;
    let tmp = path.with_extension("tmp");
    {
        let mut f = vfs.create(&tmp)?;
        f.write_all(&data)?;
        f.sync()?;
    }
    vfs.rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        vfs.sync_dir(parent)?;
    }
    Ok(())
}

/// Read a snapshot file into tables under recovery (see
/// [`decode_snapshot_rows`]). `None` if the file does not exist (a corrupt
/// file is an error, so callers can fall back to an older copy).
pub(crate) fn read_snapshot_file(
    vfs: &dyn Vfs,
    path: &Path,
) -> StoreResult<Option<(Vec<Table>, u64)>> {
    match vfs.read(path)? {
        Some(data) => decode_snapshot_rows(&data).map(Some),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::value::Value;

    fn sample_table() -> Table {
        let schema = Schema::builder("object")
            .column(Column::new("id", ValueType::Int))
            .column(Column::new("acc", ValueType::Text))
            .column(Column::nullable("score", ValueType::Float))
            .primary_key(&["id"])
            .unique_index("by_acc", &["acc"])
            .index("by_score", &["score"])
            .build()
            .unwrap();
        let mut t = Table::new(schema);
        for i in 0..20 {
            t.insert(vec![
                Value::Int(i),
                Value::text(format!("ACC{i}")),
                if i % 3 == 0 { Value::Null } else { Value::Float(i as f64 / 2.0) },
            ])
            .unwrap();
        }
        // create holes
        t.delete(RowId(5)).unwrap();
        t.delete(RowId(19)).unwrap(); // tail deletion exercises high-water fixup
        t
    }

    #[test]
    fn roundtrip_preserves_rows_ids_and_indexes() {
        let t = sample_table();
        let data = encode_snapshot(std::iter::once(&t), 3).unwrap();
        let (tables, epoch) = decode_snapshot(&data).unwrap();
        assert_eq!(epoch, 3);
        assert_eq!(tables.len(), 1);
        let back = &tables[0];
        assert_eq!(back.len(), t.len());
        assert_eq!(back.next_row_id(), t.next_row_id());
        // same rows at same ids
        for (id, row) in t.scan() {
            assert_eq!(back.get(id).unwrap(), row);
        }
        // indexes functional
        let hit = back
            .lookup_unique("by_acc", &[Value::text("ACC7")])
            .unwrap()
            .unwrap();
        assert_eq!(hit.get(0), &Value::Int(7));
        // deleted row is gone
        assert!(back.get(RowId(5)).is_err());
        // select equivalence
        let p = Predicate::eq("acc", Value::text("ACC3"));
        assert_eq!(back.select(&p).unwrap(), t.select(&p).unwrap());
    }

    #[test]
    fn high_water_mark_respected_after_restore() {
        let t = sample_table();
        let data = encode_snapshot(std::iter::once(&t), 0).unwrap();
        let mut back = decode_snapshot(&data).unwrap().0.pop().unwrap();
        // next insert must not collide with the deleted tail id 19
        let id = back
            .insert(vec![Value::Int(100), Value::text("NEW"), Value::Null])
            .unwrap();
        assert_eq!(id, RowId(20));
    }

    #[test]
    fn corruption_detected() {
        let t = sample_table();
        let mut data = encode_snapshot(std::iter::once(&t), 1).unwrap();
        // bad magic
        let mut bad = data.clone();
        bad[0] = b'X';
        assert!(decode_snapshot(&bad).is_err());
        // bad version
        let mut bad = data.clone();
        bad[4] = 99;
        assert!(decode_snapshot(&bad).is_err());
        let mut bad = data.clone();
        bad[4] = 0;
        assert!(decode_snapshot(&bad).is_err());
        // flipped body byte
        let n = data.len();
        data[n - 1] ^= 0xff;
        assert!(decode_snapshot(&data).is_err());
        // short file
        assert!(decode_snapshot(&[1, 2, 3]).is_err());
    }

    #[test]
    fn file_roundtrip_and_missing_file() {
        let vfs = crate::vfs::RealVfs;
        let dir = std::env::temp_dir().join("relstore-snap-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.bin");
        let t = sample_table();
        write_snapshot_file(&vfs, &path, std::iter::once(&t), 5).unwrap();
        let (tables, epoch) = read_snapshot_file(&vfs, &path).unwrap().unwrap();
        assert_eq!(epoch, 5);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), t.len());
        let missing = read_snapshot_file(&vfs, &dir.join("never.bin")).unwrap();
        assert!(missing.is_none());
    }

    #[test]
    fn version1_snapshot_decodes_as_epoch_zero() {
        // Hand-build a version-1 image: same body, no leading epoch varint.
        let t = sample_table();
        let v2 = encode_snapshot(std::iter::once(&t), 0).unwrap();
        let body = &v2[13..]; // epoch 0 encodes as one varint byte
        let mut v1 = Vec::new();
        v1.extend_from_slice(MAGIC);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&crc32(body).to_le_bytes());
        v1.extend_from_slice(body);
        let (tables, epoch) = decode_snapshot(&v1).unwrap();
        assert_eq!(epoch, 0);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].len(), t.len());
    }

    #[test]
    fn multiple_tables() {
        let t1 = sample_table();
        let schema2 = Schema::builder("source")
            .column(Column::new("id", ValueType::Int))
            .primary_key(&["id"])
            .build()
            .unwrap();
        let mut t2 = Table::new(schema2);
        t2.insert(vec![Value::Int(1)]).unwrap();
        let data = encode_snapshot([&t1, &t2].into_iter(), 0).unwrap();
        let (tables, _) = decode_snapshot(&data).unwrap();
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].name(), "object");
        assert_eq!(tables[1].name(), "source");
        assert_eq!(tables[1].len(), 1);
    }
}
