//! In-memory ordered indexes mapping composite keys to row ids.
//!
//! An index is a frozen, key-sorted **run** plus a small B-tree **delta**.
//! Entries under one key are ordered by row id, so a multi index is a run
//! with repeated keys, and "unique" is a check at insert and at build.
//! [`IndexBuilder`] collects an index's entries at open and packs its run;
//! entries inserted since live in the delta, a `BTreeSet` of `(key, row
//! id)`, and run entries removed since are dead marks, a bitset allocated on
//! the first removal. Once the delta and the dead marks together exceed
//! `1 / MERGE_SHARE` of the run, they are merged into a fresh, exactly sized
//! run. Every read sees the live run entries merged with the delta, in
//! key-then-row order.
//!
//! A run packs its entries into `u32` **cells**, each value as narrow as
//! the run's values allow. Where every key column is fixed-width (a
//! non-nullable `Int` or `Float`), a key column is a **lane**: one cell
//! holding the offset from that column's least word over the run, its
//! *base*, where every column spans less than 2³², and two cells holding
//! the whole word otherwise. A row id is one cell while every one fits.
//! Other keys keep whole words, located by byte ends. Width belongs to one
//! run: each build and each merge picks it again from the entries it packs.
//! A probe is narrowed to the run's lanes once; one whose column lies
//! outside them matches no run entry, and only the delta answers it.
//!
//! Keys are not `Vec<Value>`: a [`KeySpec`] encodes the schema-typed key
//! columns into an [`IndexKey`], a short run of `u64` words held inline,
//! whose word order is exactly the [`Value`] order of the column tuple, so a
//! comparison is a few word compares with no pointer chase.

use crate::error::{StoreError, StoreResult};
use crate::row::RowId;
use crate::schema::{IndexDef, Schema};
use crate::stats::IndexStats;
use crate::value::{Value, ValueType};
use std::cmp::Ordering;
use std::collections::{btree_set, BTreeSet, TryReserveError};
use std::iter::Peekable;
use std::ops::Range;

/// Words an [`IndexKey`] holds without allocating: every GAM key (one to
/// three integers, or an integer plus an accession of up to 22 bytes) fits.
const INLINE_WORDS: usize = 4;

/// The delta and the dead marks are merged into a fresh run once together
/// they exceed `1 / MERGE_SHARE` of it: a merge copies the run, so a write
/// pays about `MERGE_SHARE` entry copies, and the delta stays small.
const MERGE_SHARE: usize = 8;

const SIGN: u64 = 1 << 63;
const TAG_NULL: u8 = 0;
const TAG_PRESENT: u8 = 1;
/// Text/bytes end with `00 01`; a literal `00` is escaped as `00 FF`, so a
/// string's encoding is never a byte prefix of a longer string's.
const TERMINATOR: u8 = 1;
const ESCAPE: u8 = 0xff;

/// An encoded composite key: the key columns' order-preserving byte
/// encoding (see [`KeySpec`]) packed big-endian into `u64` words and
/// zero-padded. Keys compare by words, then by byte length — which is the
/// byte order of the encodings, a proper prefix sorting first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexKey(Repr);

// One key has one representation (inline iff it fits), so derived equality
// agrees with the order below.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Repr {
    Inline { len: u8, words: [u64; INLINE_WORDS] },
    Heap { len: usize, words: Box<[u64]> },
}

impl IndexKey {
    /// Encoded length in bytes.
    fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap { len, .. } => *len,
        }
    }

    fn words(&self) -> &[u64] {
        match &self.0 {
            Repr::Inline { len, words } => &words[..(*len as usize).div_ceil(8)],
            Repr::Heap { words, .. } => words,
        }
    }

    /// True if this key's encoding begins with `prefix`'s — i.e. its
    /// leading key columns equal the columns `prefix` was encoded from.
    pub fn starts_with(&self, prefix: &IndexKey) -> bool {
        KeyRef::from(self).starts_with(prefix.into())
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.0, &other.0) {
            // unused inline words are zero, so whole-array order is the
            // order of the used words with the shorter run first on a tie
            (Repr::Inline { len: la, words: a }, Repr::Inline { len: lb, words: b }) => {
                a.cmp(b).then(la.cmp(lb))
            }
            _ => KeyRef::from(self).cmp(&other.into()),
        }
    }
}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// An encoded key borrowed from an [`IndexKey`] or from a run: its words and
/// its length in bytes. Orders as [`IndexKey`] does — by words, then by
/// length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct KeyRef<'a> {
    words: &'a [u64],
    len: usize,
}

impl<'a> From<&'a IndexKey> for KeyRef<'a> {
    fn from(key: &'a IndexKey) -> Self {
        KeyRef {
            words: key.words(),
            len: key.len(),
        }
    }
}

impl From<KeyRef<'_>> for IndexKey {
    fn from(key: KeyRef<'_>) -> Self {
        // inline iff the key fits, as `KeyWriter::finish` decides
        if key.len > 8 * INLINE_WORDS {
            return IndexKey(Repr::Heap { len: key.len, words: key.words.into() });
        }
        let mut words = [0; INLINE_WORDS];
        words.iter_mut().zip(key.words).for_each(|(w, k)| *w = *k);
        IndexKey(Repr::Inline { len: key.len as u8, words })
    }
}

impl KeyRef<'_> {
    fn byte(&self, i: usize) -> Option<u8> {
        if i >= self.len {
            return None;
        }
        let word = self.words.get(i / 8)?;
        Some((word >> (56 - 8 * (i % 8))) as u8)
    }

    /// True if this key's encoding begins with `prefix`'s.
    fn starts_with(&self, prefix: KeyRef<'_>) -> bool {
        let n = prefix.len;
        if n > self.len {
            return false;
        }
        let (a, b) = (self.words, prefix.words);
        let full = n / 8;
        if a[..full] != b[..full] {
            return false;
        }
        match n % 8 {
            0 => true,
            rest => (a[full] ^ b[full]) >> (64 - 8 * rest) == 0,
        }
    }
}

impl Ord for KeyRef<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.words.cmp(other.words).then(self.len.cmp(&other.len))
    }
}

impl PartialOrd for KeyRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Accumulates a key's bytes into big-endian words, inline until the
/// fifth word is needed.
#[derive(Default)]
struct KeyWriter {
    inline: [u64; INLINE_WORDS],
    spill: Vec<u64>,
    len: usize,
}

impl KeyWriter {
    fn word_mut(&mut self, i: usize) -> &mut u64 {
        if i < INLINE_WORDS && self.spill.is_empty() {
            return &mut self.inline[i];
        }
        if self.spill.is_empty() {
            self.spill.extend_from_slice(&self.inline);
        }
        if self.spill.len() <= i {
            self.spill.resize(i + 1, 0);
        }
        &mut self.spill[i]
    }

    fn push_byte(&mut self, b: u8) {
        let shift = 56 - 8 * (self.len % 8);
        *self.word_mut(self.len / 8) |= u64::from(b) << shift;
        self.len += 1;
    }

    fn push_word(&mut self, v: u64) {
        let (i, off) = (self.len / 8, self.len % 8);
        if off == 0 {
            *self.word_mut(i) = v;
        } else {
            *self.word_mut(i) |= v >> (8 * off);
            *self.word_mut(i + 1) |= v << (64 - 8 * off);
        }
        self.len += 8;
    }

    fn push_escaped(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.push_byte(b);
            if b == 0 {
                self.push_byte(ESCAPE);
            }
        }
        self.push_byte(0);
        self.push_byte(TERMINATOR);
    }

    fn finish(self) -> IndexKey {
        IndexKey(if self.spill.is_empty() {
            Repr::Inline {
                len: self.len as u8,
                words: self.inline,
            }
        } else {
            Repr::Heap {
                len: self.len,
                words: self.spill.into_boxed_slice(),
            }
        })
    }
}

/// One key column: where it sits in the row and how it is encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct KeyColumn {
    ordinal: usize,
    ty: ValueType,
    nullable: bool,
}

/// The key codec of one index: which row columns form the key and their
/// declared types. Per column, in key order:
///
/// | column            | bytes                                                        |
/// |-------------------|--------------------------------------------------------------|
/// | nullable          | one tag byte first: `00` NULL (nothing follows), `01` present |
/// | `Int`             | 8, big-endian, sign bit flipped                              |
/// | `Float`           | 8, big-endian, [`f64::total_cmp`] order (negatives inverted, others sign-flipped) |
/// | `Text` / `Bytes`  | the bytes with `00` → `00 FF`, then `00 01`                   |
///
/// Byte order of the concatenation equals [`Value`] order of the column
/// tuple for values that conform to the declared types, and a leading
/// subset of the columns encodes to a byte prefix — so prefix and range
/// probes are plain key ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeySpec {
    columns: Box<[KeyColumn]>,
}

impl KeySpec {
    /// The codec for index `def` of `schema`.
    pub fn new(schema: &Schema, def: &IndexDef) -> Self {
        KeySpec {
            columns: def
                .columns
                .iter()
                .map(|&ordinal| {
                    let column = &schema.columns()[ordinal];
                    KeyColumn {
                        ordinal,
                        ty: column.ty,
                        nullable: column.nullable,
                    }
                })
                .collect(),
        }
    }

    /// Words every key takes when every key column is fixed-width (a
    /// non-nullable `Int` or `Float`) and the key fits inline; 0 when key
    /// lengths vary.
    fn stride(&self) -> usize {
        let fixed = |c: &KeyColumn| !c.nullable && matches!(c.ty, ValueType::Int | ValueType::Float);
        if self.columns.len() <= INLINE_WORDS && self.columns.iter().all(fixed) {
            self.columns.len()
        } else {
            0
        }
    }

    /// Encode `value` for `column`; `false` if it does not conform (wrong
    /// type, or NULL where the column is not nullable).
    fn encode_value(column: &KeyColumn, value: &Value, out: &mut KeyWriter) -> bool {
        if value.is_null() {
            if column.nullable {
                out.push_byte(TAG_NULL);
            }
            return column.nullable;
        }
        if column.nullable {
            out.push_byte(TAG_PRESENT);
        }
        match (column.ty, value) {
            (ValueType::Int, Value::Int(v)) => out.push_word(*v as u64 ^ SIGN),
            (ValueType::Float, Value::Float(v)) => {
                let bits = v.to_bits();
                out.push_word(if bits & SIGN != 0 { !bits } else { bits ^ SIGN });
            }
            (ValueType::Text, Value::Text(s)) => out.push_escaped(s.as_bytes()),
            (ValueType::Bytes, Value::Bytes(b)) => out.push_escaped(b),
            _ => return false,
        }
        true
    }

    /// The key of a stored row. Every write path schema-checks rows first,
    /// so a cell that does not conform here came from damaged storage.
    pub fn row_key(&self, row: &[Value]) -> StoreResult<IndexKey> {
        let mut out = KeyWriter::default();
        for column in self.columns.iter() {
            let conforms = row
                .get(column.ordinal)
                .is_some_and(|v| Self::encode_value(column, v, &mut out));
            if !conforms {
                return Err(StoreError::Corrupt(format!(
                    "row cell {} does not conform to its indexed column type {}",
                    column.ordinal, column.ty
                )));
            }
        }
        Ok(out.finish())
    }

    /// Encode a probe over the first `probe.len()` key columns. `None` if
    /// no stored key can equal or extend it (too many values, or one that
    /// does not conform to its column).
    pub fn probe(&self, probe: &[Value]) -> Option<IndexKey> {
        if probe.len() > self.columns.len() {
            return None;
        }
        let mut out = KeyWriter::default();
        for (column, value) in self.columns.iter().zip(probe) {
            if !Self::encode_value(column, value, &mut out) {
                return None;
            }
        }
        Some(out.finish())
    }

    /// Decode a key (or a probe over the leading columns) back into its
    /// column values.
    pub fn decode(&self, key: &IndexKey) -> StoreResult<Vec<Value>> {
        let key = KeyRef::from(key);
        let mut bytes = (0..key.len).map_while(|i| key.byte(i)).peekable();
        let mut values = Vec::with_capacity(self.columns.len());
        for column in self.columns.iter() {
            if bytes.peek().is_none() {
                break;
            }
            let mut take = || {
                bytes
                    .next()
                    .ok_or_else(|| StoreError::Corrupt("index key ends inside a column".into()))
            };
            if column.nullable && take()? == TAG_NULL {
                values.push(Value::Null);
                continue;
            }
            values.push(match column.ty {
                ValueType::Int | ValueType::Float => {
                    let mut word = 0u64;
                    for _ in 0..8 {
                        word = word << 8 | u64::from(take()?);
                    }
                    match column.ty {
                        ValueType::Int => Value::Int((word ^ SIGN) as i64),
                        _ if word & SIGN != 0 => Value::Float(f64::from_bits(word ^ SIGN)),
                        _ => Value::Float(f64::from_bits(!word)),
                    }
                }
                ValueType::Text | ValueType::Bytes => {
                    let mut raw = Vec::new();
                    loop {
                        match take()? {
                            0 if take()? == TERMINATOR => break,
                            b => raw.push(b), // `00 FF` stands for a literal `00`
                        }
                    }
                    match column.ty {
                        ValueType::Bytes => Value::Bytes(raw),
                        _ => Value::Text(String::from_utf8(raw).map_err(|_| {
                            StoreError::Corrupt("index key text is not UTF-8".into())
                        })?),
                    }
                }
            });
        }
        match bytes.next() {
            Some(_) => Err(StoreError::Corrupt("index key has trailing bytes".into())),
            None => Ok(values),
        }
    }
}

/// The first position in `lo..hi` that is not `below`, for a `below` that
/// holds of a prefix of the positions. The last steps scan: their loads
/// overlap, where halving would wait for each cache miss in turn.
fn partition(mut lo: usize, mut hi: usize, below: impl Fn(usize) -> bool) -> usize {
    while hi - lo > 16 {
        let mid = lo + (hi - lo) / 2;
        if below(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    while lo < hi && below(lo) {
        lo += 1;
    }
    lo
}

/// [`partition`], galloping forward from `lo`: O(log d) for an answer `d`
/// positions on.
fn gallop(mut lo: usize, hi: usize, below: impl Fn(usize) -> bool) -> usize {
    let mut step = 1;
    while lo + step <= hi && below(lo + step - 1) {
        lo += step;
        step *= 2;
    }
    partition(lo, hi.min(lo + step), below)
}

/// What some entries need of a run's cells: each fixed-width key column's
/// least and greatest word, and one past the greatest row id.
#[derive(Debug, Clone, Copy)]
struct Span {
    columns: usize,
    lo: [u64; INLINE_WORDS],
    hi: [u64; INLINE_WORDS],
    top: u64,
}

impl Span {
    fn new(columns: usize) -> Span {
        Span { columns, lo: [u64::MAX; INLINE_WORDS], hi: [0; INLINE_WORDS], top: 0 }
    }

    fn add(&mut self, key: &[u64], row: RowId) {
        for (c, &word) in key.iter().enumerate().take(self.columns) {
            self.lo[c] = self.lo[c].min(word);
            self.hi[c] = self.hi[c].max(word);
        }
        self.top = self.top.max(row.0.saturating_add(1));
    }

    /// Cells a key column and a row id take: one `u32` where every key
    /// column's words span less than 2³² (an offset from the column's least
    /// word) and where every row id fits; two, a whole word, otherwise.
    fn widths(&self) -> (usize, usize) {
        let fits = |c: usize| self.hi[c].wrapping_sub(self.lo[c]) <= u32::MAX.into();
        let narrow_rows = self.top <= u32::MAX.into();
        (if (0..self.columns).all(fits) { 1 } else { 2 }, if narrow_rows { 1 } else { 2 })
    }
}

/// The frozen part of an index: entries in key-then-row order, packed into
/// `u32` cells.
#[derive(Debug, Clone)]
struct Run {
    /// Columns of a fixed-width key; 0 when key lengths vary.
    stride: usize,
    /// The bounds of the entries the run was packed with: exact while none
    /// is dead. Its `top` is one past the greatest row id held, so entering
    /// a new row searches nothing.
    span: Span,
    /// Cells a key column's lane and a row id take, as [`Span::widths`].
    key_width: usize,
    row_width: usize,
    /// Column `c` of a fixed-width key is `base[c]` plus its lane: the
    /// column's least word where lanes are one cell, 0 where they are two.
    base: [u64; INLINE_WORDS],
    /// Entry `i` from cell `i * self.entry()` on: its key lanes where keys
    /// are fixed-width, then its row id, each high cell first.
    cells: Vec<u32>,
    /// Variable-width keys: their words, entry `i`'s key ending at byte
    /// `ends[i]`, having begun at the first word boundary at or after
    /// `ends[i - 1]`.
    words: Vec<u64>,
    ends: Vec<u32>,
    /// Entries removed since the run was built, a bit each; empty until the
    /// first removal.
    dead: Vec<u64>,
    dead_count: usize,
}

/// A key in the form a run holds it: a fixed-width key's lanes in the
/// run's cells (the first `n`), or a variable-width key's words.
enum Probe<'k> {
    Cells { cells: [u32; 2 * INLINE_WORDS], n: usize },
    Words(KeyRef<'k>),
}

/// `value` as `width` cells, high cell first, so that cells compare as the
/// values do.
fn split(value: u64, width: usize) -> impl Iterator<Item = u32> {
    (0..width).rev().map(move |j| (value >> (32 * j)) as u32)
}

impl Run {
    /// An empty run, in the narrowest cells the entries `span` bounds fit,
    /// with room for `entries` of them whose keys take `words` words where
    /// their lengths vary.
    fn new(stride: usize, span: Span, entries: usize, words: usize) -> Run {
        let (key_width, row_width) = span.widths();
        let variable = usize::from(stride == 0);
        Run {
            stride,
            span,
            key_width,
            row_width,
            base: if key_width == 1 { span.lo } else { [0; INLINE_WORDS] },
            cells: Vec::with_capacity(entries * (stride * key_width + row_width)),
            words: Vec::with_capacity(words * variable),
            ends: Vec::with_capacity(entries * variable),
            dead: Vec::new(),
            dead_count: 0,
        }
    }

    /// Cells an entry takes.
    fn entry(&self) -> usize {
        self.stride * self.key_width + self.row_width
    }

    fn len(&self) -> usize {
        self.cells.len() / self.entry()
    }

    /// The value the `width` cells from `at` hold.
    fn cell(&self, at: usize, width: usize) -> u64 {
        match width {
            1 => self.cells[at].into(),
            _ => u64::from(self.cells[at]) << 32 | u64::from(self.cells[at + 1]),
        }
    }

    /// Append `value` in `width` cells; `None` if it does not fit.
    fn put(&mut self, value: u64, width: usize) -> Option<()> {
        (width == 2 || value <= u32::MAX.into()).then(|| self.cells.extend(split(value, width)))
    }

    /// Entry `i`'s lane for key column `c`.
    fn key_lane(&self, i: usize, c: usize) -> u64 {
        self.cell(i * self.entry() + c * self.key_width, self.key_width)
    }

    fn row(&self, i: usize) -> RowId {
        RowId(self.cell(i * self.entry() + self.stride * self.key_width, self.row_width))
    }

    /// `word` as key column `c`'s lane, if its offset from the column's
    /// base fits.
    fn lane(&self, c: usize, word: u64) -> Option<u64> {
        let offset = word.wrapping_sub(self.base[c]);
        (self.key_width == 2 || offset <= u32::MAX.into()).then_some(offset)
    }

    /// Append an entry that sorts after every one held.
    fn push(&mut self, key: KeyRef<'_>, row: RowId) -> Option<()> {
        if self.stride == 0 {
            self.ends.push(u32::try_from(8 * self.words.len() + key.len).ok()?);
            self.words.extend_from_slice(key.words);
        }
        for (c, &word) in key.words.iter().enumerate().take(self.stride) {
            let lane = self.lane(c, word)?;
            self.put(lane, self.key_width)?;
        }
        self.put(row.0, self.row_width)
    }

    /// Append the live entries at `range` of `src`, which sort after every
    /// one held: one block copy where none is dead and keys are fixed-width
    /// in the same cells.
    fn copy_live(&mut self, src: &Run, range: Range<usize>) -> Option<()> {
        let cells = |run: &Run| (run.key_width, run.row_width, run.base);
        if src.dead_count > 0 || src.stride == 0 || cells(src) != cells(self) {
            let mut live = range.filter(|&i| !src.is_dead(i));
            return live.try_for_each(|i| src.with_key(i, |key| self.push(key, src.row(i))));
        }
        let n = src.entry();
        self.cells.extend_from_slice(&src.cells[range.start * n..range.end * n]);
        Some(())
    }

    /// Entry `i`'s key, in a run of variable-width keys.
    fn key(&self, i: usize) -> KeyRef<'_> {
        let start = i.checked_sub(1).map_or(0, |prev| (self.ends[prev] as usize).div_ceil(8));
        let end = self.ends[i] as usize;
        KeyRef { words: &self.words[start..end.div_ceil(8)], len: end - 8 * start }
    }

    /// Hand `f` entry `i`'s key at full width.
    fn with_key<R>(&self, i: usize, f: impl FnOnce(KeyRef<'_>) -> R) -> R {
        if self.stride == 0 {
            return f(self.key(i));
        }
        let mut words = self.base;
        for (c, word) in words[..self.stride].iter_mut().enumerate() {
            *word = word.wrapping_add(self.key_lane(i, c));
        }
        f(KeyRef { words: &words[..self.stride], len: 8 * self.stride })
    }

    /// `key` (a whole key, or a probe over the leading columns) in this
    /// run's form; `None` if no entry can equal or extend it, because a
    /// column lies outside the run's lanes.
    fn probe<'k>(&self, key: KeyRef<'k>) -> Option<Probe<'k>> {
        if self.stride == 0 {
            return Some(Probe::Words(key));
        }
        let mut cells = [0; 2 * INLINE_WORDS];
        for (c, &word) in key.words.iter().enumerate() {
            let at = &mut cells[c * self.key_width..];
            at.iter_mut().zip(split(self.lane(c, word)?, self.key_width)).for_each(|(a, b)| *a = b);
        }
        Some(Probe::Cells { cells, n: key.words.len() * self.key_width })
    }

    /// Entry `i`'s key lanes, `n` cells of them from the first.
    fn lanes(&self, i: usize, n: usize) -> &[u32] {
        &self.cells[i * self.entry()..][..n]
    }

    /// Entry `i`'s key against `probe`, in [`KeyRef`] order: a probe over
    /// fewer columns sorts before every key it begins.
    fn cmp_at(&self, i: usize, probe: &Probe<'_>) -> Ordering {
        match probe {
            Probe::Cells { cells, n } => self.lanes(i, self.stride * self.key_width).cmp(&cells[..*n]),
            Probe::Words(key) => self.key(i).cmp(key),
        }
    }

    /// True if entry `i`'s key begins with `probe`.
    fn starts_at(&self, i: usize, probe: &Probe<'_>) -> bool {
        match probe {
            Probe::Cells { cells, n } => self.lanes(i, *n) == &cells[..*n],
            Probe::Words(key) => self.key(i).starts_with(*key),
        }
    }

    /// Entry `i` against the entry (`key`, `row`), compared at full width.
    fn cmp_entry(&self, i: usize, key: KeyRef<'_>, row: RowId) -> Ordering {
        self.with_key(i, |held| held.cmp(&key)).then_with(|| self.row(i).cmp(&row))
    }

    /// The first entry whose key the next one repeats.
    fn repeated(&self) -> Option<usize> {
        let next_equal = |i: usize| self.with_key(i, |a| self.with_key(i + 1, |b| a == b));
        (0..self.len().saturating_sub(1)).find(|&i| next_equal(i))
    }

    fn is_dead(&self, i: usize) -> bool {
        self.dead.get(i / 64).is_some_and(|bits| bits >> (i % 64) & 1 == 1)
    }

    /// Mark entry `i` removed, or live again.
    fn mark(&mut self, i: usize, dead: bool) {
        if self.dead.is_empty() {
            self.dead = vec![0; self.len().div_ceil(64)];
        }
        let bit = 1 << (i % 64);
        if dead {
            self.dead[i / 64] |= bit;
            self.dead_count += 1;
        } else {
            self.dead[i / 64] &= !bit;
            self.dead_count -= 1;
        }
    }

    /// The first position whose key is not below `probe`.
    fn lower(&self, probe: &Probe<'_>) -> usize {
        partition(0, self.len(), |i| self.cmp_at(i, probe).is_lt())
    }

    /// The positions under exactly `probe`, searched for by galloping from
    /// `from`.
    fn span(&self, probe: &Probe<'_>, from: usize) -> Range<usize> {
        let lo = gallop(from, self.len(), |i| self.cmp_at(i, probe).is_lt());
        let hi = (lo..self.len()).find(|&i| self.cmp_at(i, probe).is_ne()).unwrap_or(self.len());
        lo..hi
    }

    /// The position of the entry (`key`, `row`), dead or alive.
    fn find(&self, key: KeyRef<'_>, row: RowId) -> Option<usize> {
        if row.0 >= self.span.top {
            return None;
        }
        let probe = self.probe(key)?;
        let entry = |i: usize| self.cmp_at(i, &probe).then_with(|| self.row(i).cmp(&row));
        let at = gallop(self.lower(&probe), self.len(), |i| entry(i).is_lt());
        (at < self.len() && entry(at).is_eq()).then_some(at)
    }
}

/// Sort fixed-width keys of `N - 1` columns beside their rows, all of which
/// fit one cell (`span` says so), as one `[u32; N]` an entry: the cells
/// the run holds them in.
fn narrow_run<const N: usize>(words: Vec<u64>, rows: Vec<RowId>, span: Span) -> Run {
    let tuple = |(key, row): (&[u64], &RowId)| {
        let mut cells = [row.0 as u32; N];
        for ((cell, &word), &base) in cells.iter_mut().zip(key).zip(&span.lo) {
            *cell = word.wrapping_sub(base) as u32;
        }
        cells
    };
    let mut tuples: Vec<[u32; N]> = words.chunks_exact(N - 1).zip(&rows).map(tuple).collect();
    drop((words, rows));
    if !tuples.is_sorted() {
        tuples.sort_unstable();
    }
    Run { cells: tuples.into_flattened(), ..Run::new(N - 1, span, 0, 0) }
}

/// Collects an index's entries, one row at a time, for a bulk build:
/// fixed-width keys as bare words beside their row ids, bounded as they
/// come, so [`finish`](Self::finish) can narrow them before it sorts.
pub struct IndexBuilder {
    spec: KeySpec,
    span: Span,
    words: Vec<u64>,
    rows: Vec<RowId>,
    /// Variable-width keys, with their row ids.
    keys: Vec<(IndexKey, RowId)>,
}

impl IndexBuilder {
    /// An empty builder for the index `spec` encodes, with room for
    /// `entries` entries exactly.
    pub fn new(spec: KeySpec, entries: usize) -> Result<Self, TryReserveError> {
        let span = Span::new(spec.stride());
        let mut builder = IndexBuilder { spec, span, words: Vec::new(), rows: Vec::new(), keys: Vec::new() };
        if span.columns == 0 {
            builder.keys.try_reserve_exact(entries)?;
        } else {
            builder.words.try_reserve_exact(entries.saturating_mul(span.columns))?;
            builder.rows.try_reserve_exact(entries)?;
        }
        Ok(builder)
    }

    /// The key codec of the index being built.
    pub fn spec(&self) -> &KeySpec {
        &self.spec
    }

    /// Add the entry (`key`, `row`).
    pub fn push(&mut self, key: IndexKey, row: RowId) {
        self.span.add(key.words(), row);
        if self.span.columns == 0 {
            self.keys.push((key, row));
        } else {
            self.words.extend_from_slice(key.words());
            self.rows.push(row);
        }
    }

    /// Sort the entries, check uniqueness by comparing neighbours, and pack
    /// the run in the narrowest cells its entries fit. A duplicate key in a
    /// unique index is a `UniqueViolation` naming `table` and the index.
    pub fn finish(self, table: &str, def: &IndexDef) -> StoreResult<IndexStore> {
        let IndexBuilder { spec, span, words, rows, mut keys } = self;
        let run = match (span.widths(), span.columns) {
            ((1, 1), 1) => Some(narrow_run::<2>(words, rows, span)),
            ((1, 1), 2) => Some(narrow_run::<3>(words, rows, span)),
            ((1, 1), 3) => Some(narrow_run::<4>(words, rows, span)),
            ((1, 1), 4) => Some(narrow_run::<5>(words, rows, span)),
            (_, stride) => {
                let len = 8 * stride;
                let fixed = words.chunks_exact(stride.max(1)).zip(rows);
                keys.extend(fixed.map(|(words, row)| (KeyRef { words, len }.into(), row)));
                if !keys.is_sorted() {
                    keys.sort_unstable();
                }
                let words = keys.iter().map(|(key, _)| key.words().len()).sum();
                let mut run = Run::new(stride, span, keys.len(), words);
                keys.iter().try_for_each(|(key, row)| run.push(key.into(), *row)).map(|()| run)
            }
        };
        let index = &def.name;
        let run = run.ok_or_else(|| {
            StoreError::Unsupported(format!("index {index} of table {table} holds over 4 GiB of keys"))
        })?;
        if let Some(i) = def.unique.then(|| run.repeated()).flatten() {
            return Err(StoreError::UniqueViolation {
                table: table.to_owned(),
                index: index.clone(),
                key: format_key(&spec.decode(&run.with_key(i, |key| key.into()))?),
            });
        }
        Ok(IndexStore { spec, unique: def.unique, run, delta: BTreeSet::new() })
    }
}

/// How far a batch of ascending probes has got ([`IndexStore::seek`]): a
/// run position, and the delta from the last probe's key on.
pub struct Cursor<'a> {
    at: usize,
    delta: Peekable<btree_set::Range<'a, (IndexKey, RowId)>>,
}

/// A single index, unique or non-unique, with its key codec: a frozen run,
/// the delta written since, and the run's dead marks.
#[derive(Debug, Clone)]
pub struct IndexStore {
    spec: KeySpec,
    unique: bool,
    run: Run,
    /// Entries inserted since the run was built.
    delta: BTreeSet<(IndexKey, RowId)>,
}

impl IndexStore {
    /// Fresh empty index.
    pub fn new(spec: KeySpec, unique: bool) -> Self {
        let run = Run::new(spec.stride(), Span::new(spec.stride()), 0, 0);
        IndexStore { spec, unique, run, delta: BTreeSet::new() }
    }

    /// The key codec of this index.
    pub fn spec(&self) -> &KeySpec {
        &self.spec
    }

    /// Number of live (key, row) entries.
    pub fn entry_count(&self) -> usize {
        self.run.len() - self.run.dead_count + self.delta.len()
    }

    /// Entries, where they sit, and the bytes held: the run by capacity, the
    /// delta's entries by size (its B-tree nodes' overhead not counted).
    pub fn stats(&self) -> IndexStats {
        let run = &self.run;
        IndexStats {
            entries: self.entry_count(),
            delta: self.delta.len(),
            dead: run.dead_count,
            bytes: size_of::<u64>() * (run.words.capacity() + run.dead.capacity())
                + size_of::<u32>() * (run.ends.capacity() + run.cells.capacity())
                + size_of::<(IndexKey, RowId)>() * self.delta.len(),
        }
    }

    /// True if inserting `key` would violate uniqueness.
    pub fn would_conflict(&self, key: &IndexKey) -> bool {
        self.unique && !self.lookup(key, |_| false)
    }

    /// Enter (`key`, `row_id`), which must not break uniqueness: a table
    /// probes every unique index with [`would_conflict`](Self::would_conflict)
    /// before it enters a row into any. A dead run entry comes back to life,
    /// an entry already held stays as it is, and any other goes to the delta.
    pub fn insert(&mut self, key: IndexKey, row_id: RowId) {
        match self.run.find((&key).into(), row_id) {
            Some(i) if self.run.is_dead(i) => self.run.mark(i, false),
            Some(_) => {}
            None => {
                self.delta.insert((key, row_id));
            }
        }
        self.settle();
    }

    /// Enter the entries of fresh rows, sorted, as [`insert`](Self::insert)
    /// would: into the delta one by one, or — a batch larger than the delta
    /// may grow — merged with the delta straight into a fresh run.
    pub fn insert_sorted(&mut self, mut entries: Vec<(IndexKey, RowId)>) {
        if entries.len() <= self.run.len() / MERGE_SHARE {
            entries.into_iter().for_each(|(key, row)| self.insert(key, row));
        } else {
            entries.extend(std::mem::take(&mut self.delta));
            entries.sort(); // two sorted runs: merged in one pass
            self.merge(entries);
        }
    }

    /// Remove the entry for (`key`, `row_id`). Missing entries are ignored.
    pub fn remove(&mut self, key: &IndexKey, row_id: RowId) {
        if self.delta.is_empty() || !self.delta.remove(&(key.clone(), row_id)) {
            if let Some(i) = self.run.find(key.into(), row_id).filter(|&i| !self.run.is_dead(i)) {
                self.run.mark(i, true);
            }
        }
        self.settle();
    }

    /// Merge the delta and the dead marks into a fresh run once they exceed
    /// `1 / MERGE_SHARE` of the current one.
    fn settle(&mut self) {
        if self.delta.len() + self.run.dead_count > self.run.len() / MERGE_SHARE {
            let delta = std::mem::take(&mut self.delta).into_iter().collect();
            self.merge(delta);
        }
    }

    /// Merge `entries` (sorted, none held) and the live run entries into a
    /// fresh, exactly sized run, in the cells they need. Keys past 4 GiB go
    /// to the delta instead, merged on every read.
    fn merge(&mut self, entries: Vec<(IndexKey, RowId)>) {
        let old = &self.run;
        let mut span = old.span;
        if old.dead_count > 0 {
            // the old bounds may hold only dead entries: a fresh run of the
            // live ones is as narrow as they are
            span = Span::new(old.stride);
            for i in (0..old.len()).filter(|&i| !old.is_dead(i)) {
                old.with_key(i, |key| span.add(key.words, old.row(i)));
            }
        }
        entries.iter().for_each(|(key, row)| span.add(key.words(), *row));
        let added: usize = entries.iter().map(|(key, _)| key.words().len()).sum();
        let live = old.len() - old.dead_count + entries.len();
        let mut run = Run::new(old.stride, span, live, old.words.len() + added);
        let mut at = 0;
        let filled = entries.iter().try_for_each(|(key, row)| {
            let upto = gallop(at, old.len(), |i| old.cmp_entry(i, key.into(), *row).is_lt());
            run.copy_live(old, at..upto)?;
            at = upto;
            run.push(key.into(), *row)
        });
        match filled.and_then(|()| run.copy_live(old, at..old.len())) {
            Some(()) => {
                run.words.shrink_to_fit(); // the estimate counts dead entries' words too
                self.run = run;
            }
            None => self.delta.extend(entries),
        }
    }

    /// Feed `f` the live run entries at `run` (`Ok` of a position) and the
    /// delta entries `delta` (`Err`; ascending, within the same key bounds)
    /// one by one, in key-then-row order, until it returns `false`; returns
    /// whether it ran to the end.
    fn merged<'a>(
        &'a self,
        run: Range<usize>,
        delta: impl Iterator<Item = &'a (IndexKey, RowId)>,
        mut f: impl FnMut(Result<usize, &'a (IndexKey, RowId)>) -> bool,
    ) -> bool {
        let live = |range: Range<usize>, f: &mut dyn FnMut(Result<usize, _>) -> bool| {
            range.filter(|&i| !self.run.is_dead(i)).all(|i| f(Ok(i)))
        };
        let mut at = run.start;
        for entry in delta {
            let (key, row) = (KeyRef::from(&entry.0), entry.1);
            let upto = gallop(at, run.end, |i| self.run.cmp_entry(i, key, row).is_lt());
            if !live(at..upto, &mut f) || !f(Err(entry)) {
                return false;
            }
            at = upto;
        }
        live(at..run.end, &mut f)
    }

    /// [`merged`](Self::merged), feeding `f` each entry's row id.
    fn rows<'a>(
        &'a self,
        run: Range<usize>,
        delta: impl Iterator<Item = &'a (IndexKey, RowId)>,
        mut f: impl FnMut(RowId) -> bool,
    ) -> bool {
        self.merged(run, delta, |entry| f(entry.map_or_else(|&(_, row)| row, |i| self.run.row(i))))
    }

    /// Feed `f` the row ids of the live entries under exactly `key`, in row
    /// order, until it returns `false`; returns whether it ran to the end.
    pub fn lookup(&self, key: &IndexKey, f: impl FnMut(RowId) -> bool) -> bool {
        let run = match self.run.probe(key.into()) {
            Some(probe) => self.run.span(&probe, self.run.lower(&probe)),
            None => 0..0,
        };
        let delta = self.delta.range((key.clone(), RowId(0))..);
        self.rows(run, delta.take_while(|(d, _)| d == key), f)
    }

    /// A cursor for [`seek`](Self::seek), before every entry.
    pub fn cursor(&self) -> Cursor<'_> {
        Cursor { at: 0, delta: self.delta.range(..).peekable() }
    }

    /// [`lookup`](Self::lookup) of ascending keys through one cursor: the
    /// run is searched by galloping forward from where the last key ended,
    /// and the delta is sought again only where it holds entries between
    /// two keys. A batch of probes costs O(probes · log gap), however far
    /// apart its least and greatest key lie.
    pub fn seek<'a>(
        &'a self,
        key: &IndexKey,
        cursor: &mut Cursor<'a>,
        f: impl FnMut(RowId) -> bool,
    ) -> bool {
        let at = cursor.at;
        let span = self.run.probe(key.into()).map_or(at..at, |probe| self.run.span(&probe, at));
        cursor.at = span.end;
        if cursor.delta.peek().is_some_and(|(d, _)| d < key) {
            cursor.delta = self.delta.range((key.clone(), RowId(0))..).peekable();
        }
        let delta = std::iter::from_fn(|| cursor.delta.next_if(|(d, _)| d == key));
        self.rows(span, delta, f)
    }

    /// Feed `f` the row ids of the live entries of every key that starts
    /// with `prefix` (a probe over the leading key columns), in key-then-row
    /// order, until it returns `false`. Such keys sort at or after the
    /// prefix, contiguously.
    pub fn visit_prefix(&self, prefix: &IndexKey, f: impl FnMut(RowId) -> bool) -> bool {
        let run = match self.run.probe(prefix.into()) {
            Some(probe) => {
                let lo = self.run.lower(&probe);
                lo..gallop(lo, self.run.len(), |i| self.run.starts_at(i, &probe))
            }
            None => 0..0,
        };
        let delta = self.delta.range((prefix.clone(), RowId(0))..);
        self.rows(run, delta.take_while(|(k, _)| k.starts_with(prefix)), f)
    }

    /// Feed `f` every live entry, its key widened back to whole words, in
    /// key-then-row order, until it returns `false`.
    pub fn visit_all(&self, mut f: impl FnMut(IndexKey, RowId) -> bool) -> bool {
        self.merged(0..self.run.len(), self.delta.iter(), |entry| match entry {
            Ok(i) => f(self.run.with_key(i, |key| key.into()), self.run.row(i)),
            Err((key, row)) => f(key.clone(), *row),
        })
    }
}

/// Human-readable form of an index key, used in error messages.
pub fn format_key(key: &[Value]) -> String {
    let cells: Vec<String> = key.iter().map(Value::to_string).collect();
    format!("({})", cells.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;

    fn schema() -> Schema {
        Schema::builder("t")
            .column(Column::new("a", ValueType::Int))
            .column(Column::new("b", ValueType::Text))
            .column(Column::nullable("c", ValueType::Float))
            .column(Column::new("d", ValueType::Float))
            .index("by_a", &["a"])
            .index("by_ab", &["a", "b"])
            .index("by_cb", &["c", "b"])
            .index("by_da", &["d", "a"])
            .build()
            .unwrap()
    }

    fn spec(name: &str) -> KeySpec {
        let s = schema();
        KeySpec::new(&s, s.index(name).unwrap())
    }

    fn k(vals: &[i64]) -> IndexKey {
        let vals: Vec<Value> = vals.iter().map(|v| Value::Int(*v)).collect();
        spec("by_a").probe(&vals).unwrap()
    }

    fn ab(a: i64, b: &str) -> IndexKey {
        spec("by_ab")
            .probe(&[Value::Int(a), Value::text(b)])
            .unwrap()
    }

    #[test]
    fn key_is_five_words_and_inline_for_gam_shapes() {
        assert_eq!(std::mem::size_of::<IndexKey>(), 40);
        assert!(matches!(k(&[7]).0, Repr::Inline { len: 8, .. }));
        // 8 (int) + 22 (text) + 2 (terminator) bytes still fit inline
        assert!(matches!(
            ab(1, &"x".repeat(22)).0,
            Repr::Inline { len: 32, .. }
        ));
        assert!(matches!(
            ab(1, &"x".repeat(23)).0,
            Repr::Heap { len: 33, .. }
        ));
    }

    #[test]
    fn encoded_order_is_value_order() {
        let spec = spec("by_cb");
        let floats = [
            Value::Null,
            Value::Float(f64::NEG_INFINITY),
            Value::Float(-1.5),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(2.0),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NAN),
        ];
        let texts = [
            "",
            "\0",
            "\0\u{1}",
            "a",
            "a\0",
            "a\0b",
            "ab",
            "b",
            &"z".repeat(40),
        ];
        let mut tuples = Vec::new();
        for f in &floats {
            for t in texts {
                tuples.push(vec![f.clone(), Value::text(t)]);
            }
        }
        for x in &tuples {
            let kx = spec.probe(x).unwrap();
            assert_eq!(&spec.decode(&kx).unwrap(), x, "round trip");
            for y in &tuples {
                let ky = spec.probe(y).unwrap();
                assert_eq!(kx.cmp(&ky), x.cmp(y), "{x:?} vs {y:?}");
            }
        }
        // ints: sign flip keeps MIN < -1 < 0 < MAX
        let ints = [i64::MIN, -1, 0, 1, i64::MAX];
        for a in ints {
            for b in ints {
                assert_eq!(k(&[a]).cmp(&k(&[b])), a.cmp(&b));
            }
        }
    }

    #[test]
    fn probes_reject_what_no_stored_key_can_match() {
        let spec = spec("by_ab");
        assert!(spec.probe(&[Value::text("x")]).is_none(), "wrong type");
        assert!(
            spec.probe(&[Value::Null]).is_none(),
            "NULL in a non-nullable column"
        );
        assert!(
            spec.probe(&[Value::Float(1.0)]).is_none(),
            "float is not int"
        );
        assert!(spec
            .probe(&[Value::Int(1), Value::text("a"), Value::Int(2)])
            .is_none());
        assert!(spec.row_key(&[Value::text("x"), Value::text("y")]).is_err());
        // a leading subset of the columns is a prefix of every extension
        let prefix = spec.probe(&[Value::Int(1)]).unwrap();
        assert!(ab(1, "").starts_with(&prefix));
        assert!(ab(1, "zz").starts_with(&prefix));
        assert!(!ab(2, "").starts_with(&prefix));
        assert!(prefix < ab(1, ""));
        // a string is not a prefix of its zero-extended sibling
        assert!(!ab(1, "a\0b").starts_with(&ab(1, "a")));
    }

    /// Bulk-build an index from `entries`, as a table's open does.
    fn build(def: &IndexDef, spec: KeySpec, entries: Vec<(IndexKey, RowId)>) -> StoreResult<IndexStore> {
        let mut builder = IndexBuilder::new(spec, entries.len()).unwrap();
        entries.into_iter().for_each(|(key, row)| builder.push(key, row));
        builder.finish("t", def)
    }

    /// Row ids under `key`, as reads see them.
    fn ids(ix: &IndexStore, key: &IndexKey) -> Vec<RowId> {
        let mut out = Vec::new();
        ix.lookup(key, |id| {
            out.push(id);
            true
        });
        out
    }

    /// Every live entry, decoded, in read order.
    fn live_entries(ix: &IndexStore) -> Vec<(Vec<Value>, RowId)> {
        let mut out = Vec::new();
        ix.visit_all(|key, id| {
            out.push((ix.spec().decode(&key).unwrap(), id));
            true
        });
        out
    }

    #[test]
    fn unique_insert_lookup_remove() {
        let mut ix = IndexStore::new(spec("by_a"), true);
        ix.insert(k(&[1]), RowId(10));
        ix.insert(k(&[2]), RowId(20));
        assert_eq!(ids(&ix, &k(&[1])), [RowId(10)]);
        assert!(ix.would_conflict(&k(&[1])));
        assert!(!ix.would_conflict(&k(&[3])));
        // removing with wrong row id is a no-op
        ix.remove(&k(&[1]), RowId(99));
        assert_eq!(ids(&ix, &k(&[1])), [RowId(10)]);
        ix.remove(&k(&[1]), RowId(10));
        assert!(ids(&ix, &k(&[1])).is_empty());
        assert_eq!(ix.entry_count(), 1);
    }

    #[test]
    fn multi_insert_is_sorted_and_idempotent() {
        let mut ix = IndexStore::new(spec("by_a"), false);
        for id in [3, 1, 2, 2] {
            ix.insert(k(&[5]), RowId(id));
        }
        assert!(!ix.would_conflict(&k(&[5])), "a multi index takes any key");
        assert_eq!(ids(&ix, &k(&[5])), [RowId(1), RowId(2), RowId(3)]);
        assert_eq!(ix.entry_count(), 3);
        ix.remove(&k(&[5]), RowId(2));
        assert_eq!(ids(&ix, &k(&[5])), [RowId(1), RowId(3)]);
        ix.remove(&k(&[5]), RowId(1));
        ix.remove(&k(&[5]), RowId(3));
        assert_eq!(ix.entry_count(), 0, "an emptied key is gone");
    }

    /// What a case draws its values from. Ints and floats are a few
    /// neighbours and one outlier, whose distance from the least is just
    /// below or exactly 2³² (i64::MIN and i64::MAX among them); row ids run
    /// from 0, or straddle `u32::MAX`. A fixed-width run's key lanes are
    /// narrow exactly while it holds no outlier at 2³², its row lanes
    /// while it holds no row id past `u32::MAX - 1`.
    struct Pools {
        ints: Vec<i64>,
        floats: Vec<f64>,
        rows: std::ops::Range<u64>,
        /// One draw in `outlier` takes the outlier.
        outlier: usize,
    }

    impl Pools {
        fn new(rng: &mut testkit::Prng) -> Pools {
            let far = (1u64 << 32) - 1 + rng.below(2) as u64;
            let int = [0, -6, i64::MIN, i64::MAX - far as i64][rng.below(4)];
            let float = [1.0f64, -1.0][rng.below(2)].to_bits();
            let row = [0, u64::from(u32::MAX) - 30][rng.below(2)];
            Pools {
                ints: (0..6).map(|k| int + k).chain([int + far as i64]).collect(),
                floats: [0, 1, 2, far].map(|k| f64::from_bits(float + k)).to_vec(),
                rows: row..row + 60,
                outlier: [4, 16, 64][rng.below(3)],
            }
        }

        fn pick<T: Copy>(&self, rng: &mut testkit::Prng, pool: &[T]) -> T {
            match rng.below(self.outlier) {
                0 => pool[pool.len() - 1],
                _ => pool[rng.below(pool.len() - 1)],
            }
        }

        fn row(&self, rng: &mut testkit::Prng) -> RowId {
            RowId(self.rows.start + rng.below(60) as u64)
        }

        /// A random key of `by_a` or `by_da` (fixed width), or `by_ab`
        /// (variable width).
        fn key(&self, rng: &mut testkit::Prng, name: &str) -> Vec<Value> {
            let a = Value::Int(self.pick(rng, &self.ints));
            match name {
                "by_a" => vec![a],
                "by_da" => vec![Value::Float(self.pick(rng, &self.floats)), a],
                _ => vec![a, Value::text("x".repeat(9 * rng.below(3)))],
            }
        }

        /// Every key a case can draw, ascending.
        fn keys(&self, name: &str) -> Vec<Vec<Value>> {
            let ints = self.ints.iter().map(|&a| Value::Int(a));
            let mut keys: Vec<Vec<Value>> = match name {
                "by_a" => ints.map(|a| vec![a]).collect(),
                "by_da" => ints
                    .flat_map(|a| self.floats.iter().map(move |&d| vec![Value::Float(d), a.clone()]))
                    .collect(),
                _ => ints.flat_map(|a| ["", "xxxxxxxxx"].map(|t| vec![a.clone(), Value::text(t)])).collect(),
            };
            keys.sort();
            keys
        }
    }

    /// Whether a run's key lanes and row lanes are narrow.
    fn widths(ix: &IndexStore) -> (bool, bool) {
        (ix.run.key_width == 1, ix.run.row_width == 1)
    }

    #[test]
    fn run_delta_and_dead_marks_read_as_the_entries_they_hold() {
        let mut merges = 0;
        // how often a merge took key lanes and row lanes narrow -> wide and back
        let (mut keys_went, mut rows_went) = ([0; 2], [0; 2]);
        testkit::cases(32, |rng| {
            let (name, unique) = (["by_a", "by_ab", "by_da"][rng.below(3)], rng.gen_bool(0.5));
            let pools = Pools::new(rng);
            let spec = spec(name);
            let def = IndexDef { unique, ..schema().index(name).unwrap().clone() };
            let mut model = std::collections::BTreeSet::new();
            for _ in 0..rng.below(40) {
                let (key, row) = (pools.key(rng, name), pools.row(rng));
                if !unique || !model.iter().any(|(k, _)| *k == key) {
                    model.insert((key, row));
                }
            }
            let run = model.iter().map(|(k, r)| (spec.probe(k).unwrap(), *r)).collect();
            let mut ix = build(&def, spec.clone(), run).unwrap();
            for _ in 0..200 {
                let (mut key, mut row) = (pools.key(rng, name), pools.row(rng));
                let pending = ix.stats().delta + ix.stats().dead;
                let before = widths(&ix);
                if rng.gen_bool(0.6) {
                    let probe = spec.probe(&key).unwrap();
                    // as a table does: a unique index is probed first
                    let taken = model.iter().any(|(k, _)| *k == key);
                    assert_eq!(ix.would_conflict(&probe), unique && taken, "probe {key:?}");
                    if !unique || !taken {
                        ix.insert(probe, row);
                        model.insert((key, row));
                    }
                } else {
                    // half the removals take an entry that is held
                    if let Some(held) = model.iter().nth(rng.below(2 * model.len().max(1))) {
                        (key, row) = held.clone();
                    }
                    ix.remove(&spec.probe(&key).unwrap(), row);
                    model.remove(&(key, row));
                }
                let merged = pending > 0 && ix.stats().delta + ix.stats().dead == 0;
                merges += usize::from(merged);
                let after = widths(&ix);
                if before.0 != after.0 {
                    keys_went[usize::from(after.0)] += 1;
                }
                if before.1 != after.1 {
                    rows_went[usize::from(after.1)] += 1;
                }
                assert_eq!(live_entries(&ix), model.iter().cloned().collect::<Vec<_>>());
                assert_eq!(ix.entry_count(), model.len());
                // every key, point-probed and sought in order through one cursor
                let mut cursor = ix.cursor();
                for key in pools.keys(name) {
                    let want: Vec<RowId> = model.iter().filter(|(k, _)| *k == key).map(|e| e.1).collect();
                    let probe = spec.probe(&key).unwrap();
                    assert_eq!(ids(&ix, &probe), want);
                    let mut sought = Vec::new();
                    ix.seek(&probe, &mut cursor, |id| {
                        sought.push(id);
                        true
                    });
                    assert_eq!(sought, want);
                    assert_eq!(ix.would_conflict(&probe), unique && !want.is_empty());
                    let prefix = spec.probe(&key[..1]).unwrap();
                    let mut under = Vec::new();
                    ix.visit_prefix(&prefix, |id| {
                        under.push(id);
                        true
                    });
                    let want: Vec<_> = model.iter().filter(|(k, _)| k[0] == key[0]).map(|e| e.1).collect();
                    assert_eq!(under, want);
                }
            }
        });
        assert!(merges > 32 * 3, "the sweep merged {merges} times");
        assert!(keys_went.iter().all(|&n| n > 0), "key lanes went wide, narrow: {keys_went:?}");
        assert!(rows_went.iter().all(|&n| n > 0), "row lanes went wide, narrow: {rows_went:?}");
    }

    #[test]
    fn prefix_visit_on_composite_key() {
        let mut ix = IndexStore::new(spec("by_ab"), false);
        ix.insert(ab(1, "a"), RowId(1));
        ix.insert(ab(1, "b"), RowId(2));
        ix.insert(ab(2, "a"), RowId(3));
        let hits = |a: i64| {
            let mut out = Vec::new();
            let prefix = ix.spec().probe(&[Value::Int(a)]).unwrap();
            ix.visit_prefix(&prefix, |id| {
                out.push(id);
                true
            });
            out
        };
        assert_eq!(hits(1), vec![RowId(1), RowId(2)]);
        assert_eq!(hits(2), vec![RowId(3)]);
        assert!(hits(3).is_empty());
    }

    #[test]
    fn bulk_build_equals_per_row_maintenance() {
        let entries: Vec<(IndexKey, RowId)> = [5, 3, 5, 9, 3, 1]
            .iter()
            .enumerate()
            .map(|(i, v)| (k(&[*v]), RowId(i as u64)))
            .collect();
        let s = schema();
        let by_a = s.index("by_a").unwrap();
        let built = build(by_a, spec("by_a"), entries.clone()).unwrap();
        let mut grown = IndexStore::new(spec("by_a"), false);
        for (key, id) in entries.clone() {
            grown.insert(key, id);
        }
        assert_eq!(live_entries(&built), live_entries(&grown));
        assert_eq!(ids(&built, &k(&[5])), [RowId(0), RowId(2)]);
        // a bulk-built run weighs a u32 key lane and a u32 row id an entry
        assert_eq!(built.stats().bytes, 6 * 8);
        // the unique build names the duplicated key
        let unique = IndexDef {
            unique: true,
            ..by_a.clone()
        };
        let dup = build(&unique, spec("by_a"), entries).unwrap_err();
        assert!(matches!(
            dup,
            StoreError::UniqueViolation { ref table, ref index, ref key }
                if table == "t" && index == "by_a" && key == "(3)"
        ));
    }

    #[test]
    fn key_formatting() {
        assert_eq!(format_key(&[Value::Int(1), Value::text("GO")]), "(1, GO)");
    }
}
