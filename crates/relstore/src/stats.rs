//! Database statistics, mirroring the deployment numbers GenMapper reports
//! (§5: "2 million objects of over 60 data sources, and 5 million object
//! associations organized in over 500 different mappings").

use std::fmt;

/// Per-table statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableStats {
    pub name: String,
    pub rows: usize,
    /// (index name, entry count) pairs.
    pub indexes: Vec<(String, usize)>,
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
                    indexes: vec![("pk".into(), 100)],
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
        assert!(!text.contains("pool:"));
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
