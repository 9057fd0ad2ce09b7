//! Database statistics, mirroring the deployment numbers GenMapper reports
//! (§5: "2 million objects of over 60 data sources, and 5 million object
//! associations organized in over 500 different mappings").

use std::fmt;

/// Per-table statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableStats {
    pub name: String,
    pub rows: usize,
    /// (index name, its statistics) pairs.
    pub indexes: Vec<(String, IndexStats)>,
}

/// What one index holds (see [`crate::index`]): its live entries, how
/// many of them sit in the delta and how many run entries are dead, and
/// the heap it keeps resident.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Live (key, row) entries.
    pub entries: usize,
    /// Live entries in the delta: inserted since the run was built.
    pub delta: usize,
    /// Run entries removed since the run was built.
    pub dead: usize,
    /// Resident bytes: both runs' key lanes or words, row ids and dead
    /// marks by capacity, at the widths each run picked.
    pub bytes: usize,
}

/// Buffer-pool metrics for paged databases (see [`crate::pager`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Configured page size in bytes.
    pub page_bytes: usize,
    /// Configured pool capacity in pages.
    pub pool_pages: usize,
    /// Pages currently resident in the pool.
    pub resident: usize,
    /// Resident pages whose image a reader holds right now.
    pub pinned: usize,
    /// Resident pages whose in-pool contents differ from disk.
    pub dirty: usize,
    /// Pages evicted since open.
    pub evictions: u64,
    /// Page requests served from the pool.
    pub hits: u64,
    /// Page requests that had to read the heap file.
    pub misses: u64,
    /// Pages written back by eviction (copy-on-write appends).
    pub writeback_pages: u64,
    /// Bytes written back by eviction.
    pub writeback_bytes: u64,
    /// Dirty pages flushed by checkpoints.
    pub checkpoint_pages: u64,
    /// Bytes flushed by checkpoints.
    pub checkpoint_bytes: u64,
    /// Current heap file extent in bytes (live pages + superseded images).
    pub heap_bytes: u64,
}

impl PoolStats {
    /// Fraction of page requests served without heap I/O (1.0 when no
    /// requests have happened yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl fmt::Display for PoolStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pool: {}/{} pages resident ({} pinned, {} dirty), {:.1}% hit rate, \
             {} evictions, {} writeback pages, {} checkpoint pages, heap {} bytes",
            self.resident,
            self.pool_pages,
            self.pinned,
            self.dirty,
            self.hit_rate() * 100.0,
            self.evictions,
            self.writeback_pages,
            self.checkpoint_pages,
            self.heap_bytes,
        )
    }
}

/// Whole-database statistics.
#[derive(Debug, Clone, Default)]
pub struct DbStats {
    pub tables: Vec<TableStats>,
    /// Bytes appended to the WAL since open/last checkpoint.
    pub wal_bytes: u64,
    /// Buffer-pool metrics; `None` for resident (non-paged) databases.
    pub pool: Option<PoolStats>,
}

impl DbStats {
    /// Row count for a table, 0 if absent.
    pub fn rows(&self, table: &str) -> usize {
        self.tables
            .iter()
            .find(|t| t.name == table)
            .map(|t| t.rows)
            .unwrap_or(0)
    }

    /// Total rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|t| t.rows).sum()
    }
}

impl fmt::Display for DbStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "database: {} tables, {} rows", self.tables.len(), self.total_rows())?;
        for t in &self.tables {
            writeln!(f, "  {:<16} {:>10} rows, {} indexes", t.name, t.rows, t.indexes.len())?;
            for (name, ix) in &t.indexes {
                writeln!(
                    f,
                    "    {name:<14} {:>10} entries, {:>10} bytes ({} in delta, {} dead)",
                    ix.entries, ix.bytes, ix.delta, ix.dead
                )?;
            }
        }
        if let Some(pool) = &self.pool {
            writeln!(f, "  {pool}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_and_display() {
        let stats = DbStats {
            tables: vec![
                TableStats {
                    name: "object".into(),
                    rows: 100,
                    indexes: vec![("pk".into(), IndexStats { entries: 100, ..IndexStats::default() })],
                },
                TableStats {
                    name: "source".into(),
                    rows: 5,
                    indexes: vec![],
                },
            ],
            wal_bytes: 0,
            pool: None,
        };
        assert_eq!(stats.rows("object"), 100);
        assert_eq!(stats.rows("missing"), 0);
        assert_eq!(stats.total_rows(), 105);
        let text = stats.to_string();
        assert!(text.contains("2 tables"));
        assert!(text.contains("object"));
        assert!(text.contains("pk                    100 entries"), "{text}");
        assert!(!text.contains("pool:"));
    }

    #[test]
    fn every_index_reports_its_entries_and_resident_bytes() {
        use crate::schema::{Column, Schema};
        use crate::{Database, RowId, Value, ValueType};
        let mut db = Database::in_memory();
        let schema = Schema::builder("t")
            .column(Column::new("id", ValueType::Int))
            .column(Column::new("acc", ValueType::Text))
            .primary_key(&["id"])
            .index("by_acc", &["acc"])
            .build()
            .unwrap();
        db.create_table(schema).unwrap();
        let rows = (0..1000).map(|i| vec![Value::Int(i), Value::text(format!("A{}", i % 7))]).collect();
        db.with_txn(|txn| txn.insert_batch("t", rows).map(drop)).unwrap();
        let index = |db: &Database, name: &str| {
            let stats = db.stats().unwrap();
            stats.tables[0].indexes.iter().find(|(n, _)| n == name).unwrap().1
        };
        let pk = index(&db, "pk");
        assert_eq!(pk.entries, 1000);
        // ids 0..1000 are one u32 key lane beside a u32 row id: 8 B an
        // entry in the run, 48 in the delta, which holds at most an eighth
        // of the run
        assert!((8 * 1000..=8 * 1000 + 48 * 125).contains(&pk.bytes), "{pk:?}");
        assert!(index(&db, "by_acc").bytes > pk.bytes, "a text key takes its words and a byte end");
        // a removal drops a delta entry or marks a run entry dead
        db.with_txn(|txn| txn.delete("t", RowId(999)).map(drop)).unwrap();
        let after = index(&db, "pk");
        assert_eq!(after.entries, 999);
        let pending = |ix: IndexStats| ix.dead as i64 - ix.delta as i64;
        assert_eq!(pending(after), pending(pk) + 1, "{pk:?} -> {after:?}");
        let text = db.stats().unwrap().to_string();
        assert!(text.contains("by_acc") && text.contains("999 entries"), "{text}");
    }

    #[test]
    fn pool_stats_hit_rate_and_display() {
        let mut pool = PoolStats {
            page_bytes: 4096,
            pool_pages: 8,
            resident: 6,
            pinned: 1,
            dirty: 2,
            evictions: 10,
            hits: 75,
            misses: 25,
            ..PoolStats::default()
        };
        assert!((pool.hit_rate() - 0.75).abs() < 1e-9);
        let text = pool.to_string();
        assert!(text.contains("6/8 pages resident"));
        assert!(text.contains("75.0% hit rate"));
        pool.hits = 0;
        pool.misses = 0;
        assert_eq!(pool.hit_rate(), 1.0);
        let stats = DbStats {
            tables: vec![],
            wal_bytes: 0,
            pool: Some(pool),
        };
        assert!(stats.to_string().contains("pool:"));
    }
}
