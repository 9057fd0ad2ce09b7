//! The frozen host reference kernel.
//!
//! One `slice()` does a fixed amount of std-only work shaped like the
//! system's own (ordered-map point lookups, binary searches in a sorted
//! vector, a short merge scan, `write!` formatting) over a private arena.
//! A slice runs before and after every timed lap on the thread that timed
//! it; the ratio of its duration to [`REF_NOMINAL_MS`] is the host factor
//! the lap's time is divided by (see `stats::Lap`).
//!
//! The arena is sized to stay in the core's private caches. On the shared
//! 2-vCPU hosts this was calibrated on, the slow stretches come from the
//! sibling hardware thread being busy, which slows cache-resident,
//! high-IPC code most: against a kernel over a 13-70 MB arena the read
//! lap's within-run log-log slope was 1.6-2.7 (the kernel barely noticed
//! the stretches the laps suffered), against this one it is 1.0-1.2
//! (README, "Host noise").
//!
//! FROZEN: changing anything here changes the unit every reported time
//! is expressed in. Do not edit together with a change that claims a gain.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Duration of one slice on the host the benchmark was calibrated on.
/// Only fixes the unit: a host factor of 1.0 means "as fast as that".
pub const REF_NOMINAL_MS: f64 = 2.0;

/// Latency of the reference `fsync` (4 KiB appended, then `sync_data`) on
/// the storage the benchmark was calibrated on; fixes the unit of the
/// storage factor the same way.
pub const SYNC_NOMINAL_MS: f64 = 0.6;

const MAP_KEYS: usize = 1 << 10;
const SORTED_LEN: usize = 1 << 12;
const MAP_PROBES: usize = 12_000;
const SEARCH_PROBES: usize = 40_000;
const MERGE_LEN: usize = 2048;
const MERGE_ROUNDS: usize = 16;
const FORMAT_ROWS: usize = 8_000;

pub struct RefKernel {
    map: BTreeMap<u64, u32>,
    sorted: Vec<u32>,
    map_probes: Vec<u64>,
    search_probes: Vec<u32>,
    text: String,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *state;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl RefKernel {
    pub fn new() -> Self {
        let mut s = 0x6765_6E6D_6170_7065u64;
        let map: BTreeMap<u64, u32> = (0..MAP_KEYS)
            .map(|i| (splitmix(&mut s), i as u32))
            .collect();
        let mut sorted: Vec<u32> = (0..SORTED_LEN).map(|_| splitmix(&mut s) as u32).collect();
        sorted.sort_unstable();
        let keys: Vec<u64> = map.keys().copied().collect();
        let map_probes = (0..MAP_PROBES)
            .map(|_| keys[splitmix(&mut s) as usize % keys.len()])
            .collect();
        let search_probes = (0..SEARCH_PROBES)
            .map(|_| splitmix(&mut s) as u32)
            .collect();
        RefKernel {
            map,
            sorted,
            map_probes,
            search_probes,
            text: String::with_capacity(FORMAT_ROWS * 32),
        }
    }

    /// Run one slice; returns its wall time in milliseconds.
    pub fn slice(&mut self) -> f64 {
        let start = Instant::now();
        let mut acc = 0u64;
        for key in &self.map_probes {
            acc = acc.wrapping_add(u64::from(self.map[key]));
        }
        for probe in &self.search_probes {
            acc = acc.wrapping_add(self.sorted.partition_point(|v| v < probe) as u64);
        }
        // merge-intersect two overlapping windows of the sorted vector
        for round in 0..MERGE_ROUNDS {
            let a = &self.sorted[round..round + MERGE_LEN];
            let b = &self.sorted[MERGE_LEN / 2..MERGE_LEN / 2 + MERGE_LEN];
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        acc = acc.wrapping_add(1);
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
        self.text.clear();
        for row in 0..FORMAT_ROWS {
            let v = self.sorted[row % SORTED_LEN];
            let _ = writeln!(self.text, "{}\t{:05}\t{}", row, acc % 100_000, v);
        }
        black_box(acc);
        black_box(&self.text);
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// The reference `fsync`: the time the program spends waiting on WAL syncs
/// follows the host's storage, not its CPUs — on this host it triples for
/// minutes at a time while compute speed does not move — so it is scaled by
/// a factor of its own (see `stats::Lap`).
pub struct SyncProbe {
    file: std::fs::File,
    block: [u8; 4096],
}

impl SyncProbe {
    /// A probe appending to a new file `path`.
    pub fn create(path: &std::path::Path) -> std::io::Result<SyncProbe> {
        Ok(SyncProbe {
            file: std::fs::File::create(path)?,
            block: [0x5A; 4096],
        })
    }

    /// Append one block and sync it; returns the wall time in milliseconds.
    pub fn slice(&mut self) -> std::io::Result<f64> {
        use std::io::Write as _;
        let start = Instant::now();
        self.file.write_all(&self.block)?;
        self.file.sync_data()?;
        Ok(start.elapsed().as_secs_f64() * 1e3)
    }
}
