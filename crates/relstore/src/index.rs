//! In-memory ordered indexes mapping composite keys to row ids.
//!
//! Indexes are B-tree-backed (`std::collections::BTreeMap`), giving ordered
//! iteration and range scans. A unique index stores one [`RowId`] per key; a
//! multi index stores a sorted vector of row ids (sorted so results are
//! deterministic and range unions are mergeable).
//!
//! Keys are not `Vec<Value>`: a [`KeySpec`] encodes the schema-typed key
//! columns into an [`IndexKey`], a short run of `u64` words held inline,
//! whose word order is exactly the [`Value`] order of the column tuple. An
//! entry therefore costs no allocation and a comparison is a few word
//! compares with no pointer chase. An index is built once from a sorted
//! run of entries ([`IndexStore::build`]); single-row maintenance
//! ([`IndexStore::insert`] / [`IndexStore::remove`]) serves live writes.

use crate::error::{StoreError, StoreResult};
use crate::row::RowId;
use crate::schema::{IndexDef, Schema};
use crate::value::{Value, ValueType};
use std::cmp::Ordering;
use std::collections::btree_map::{BTreeMap, Entry};
use std::ops::Bound;

/// Words an [`IndexKey`] holds without allocating: every GAM key (one to
/// three integers, or an integer plus an accession of up to 22 bytes) fits.
const INLINE_WORDS: usize = 4;

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

    fn byte(&self, i: usize) -> Option<u8> {
        if i >= self.len() {
            return None;
        }
        let word = self.words().get(i / 8)?;
        Some((word >> (56 - 8 * (i % 8))) as u8)
    }

    /// True if this key's encoding begins with `prefix`'s — i.e. its
    /// leading key columns equal the columns `prefix` was encoded from.
    pub fn starts_with(&self, prefix: &IndexKey) -> bool {
        let n = prefix.len();
        if n > self.len() {
            return false;
        }
        let (a, b) = (self.words(), prefix.words());
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

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.0, &other.0) {
            // unused inline words are zero, so whole-array order is the
            // order of the used words with the shorter run first on a tie
            (Repr::Inline { len: la, words: a }, Repr::Inline { len: lb, words: b }) => {
                a.cmp(b).then(la.cmp(lb))
            }
            _ => self
                .words()
                .cmp(other.words())
                .then(self.len().cmp(&other.len())),
        }
    }
}

impl PartialOrd for IndexKey {
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
        let mut bytes = (0..key.len()).map_while(|i| key.byte(i)).peekable();
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

#[derive(Debug, Clone)]
enum Tree {
    Unique(BTreeMap<IndexKey, RowId>),
    Multi(BTreeMap<IndexKey, Vec<RowId>>),
}

/// A single index structure, unique or non-unique, with its key codec.
#[derive(Debug, Clone)]
pub struct IndexStore {
    spec: KeySpec,
    tree: Tree,
}

impl IndexStore {
    /// Fresh empty index.
    pub fn new(spec: KeySpec, unique: bool) -> Self {
        let tree = if unique {
            Tree::Unique(BTreeMap::new())
        } else {
            Tree::Multi(BTreeMap::new())
        };
        IndexStore { spec, tree }
    }

    /// Bulk-build an index from all its entries at once: sort them (only
    /// if they are not already in key order), check uniqueness by
    /// comparing neighbours, and hand the sorted run to the B-tree's bulk
    /// constructor, which packs nodes densely. A duplicate key in a
    /// unique index is a `UniqueViolation` naming `table` and the index.
    pub fn build(
        table: &str,
        def: &IndexDef,
        spec: KeySpec,
        mut entries: Vec<(IndexKey, RowId)>,
    ) -> StoreResult<Self> {
        if !entries.is_sorted() {
            entries.sort_unstable();
        }
        let tree = if def.unique {
            if let Some(pair) = entries.windows(2).find(|pair| pair[0].0 == pair[1].0) {
                return Err(StoreError::UniqueViolation {
                    table: table.to_owned(),
                    index: def.name.clone(),
                    key: format_key(&spec.decode(&pair[0].0)?),
                });
            }
            Tree::Unique(entries.into_iter().collect())
        } else {
            Tree::Multi(
                entries
                    .chunk_by(|a, b| a.0 == b.0)
                    .map(|run| (run[0].0.clone(), run.iter().map(|e| e.1).collect()))
                    .collect(),
            )
        };
        Ok(IndexStore { spec, tree })
    }

    /// The key codec of this index.
    pub fn spec(&self) -> &KeySpec {
        &self.spec
    }

    /// Number of (key, row) entries.
    pub fn entry_count(&self) -> usize {
        match &self.tree {
            Tree::Unique(m) => m.len(),
            Tree::Multi(m) => m.values().map(Vec::len).sum(),
        }
    }

    /// True if inserting `key` would violate uniqueness.
    pub fn would_conflict(&self, key: &IndexKey) -> bool {
        match &self.tree {
            Tree::Unique(m) => m.contains_key(key),
            Tree::Multi(_) => false,
        }
    }

    /// Insert an entry with one tree descent. Returns `false`, leaving the
    /// index unchanged, if `key` is already taken in a unique index;
    /// re-inserting an entry a multi index already holds is a no-op.
    #[must_use = "a false return is a unique violation"]
    pub fn insert(&mut self, key: IndexKey, row_id: RowId) -> bool {
        match &mut self.tree {
            Tree::Unique(m) => match m.entry(key) {
                Entry::Vacant(slot) => {
                    slot.insert(row_id);
                }
                Entry::Occupied(_) => return false,
            },
            Tree::Multi(m) => {
                let slot = m.entry(key).or_default();
                if let Err(pos) = slot.binary_search(&row_id) {
                    slot.insert(pos, row_id);
                }
            }
        }
        true
    }

    /// Remove the entry for (`key`, `row_id`). Missing entries are ignored.
    pub fn remove(&mut self, key: &IndexKey, row_id: RowId) {
        match &mut self.tree {
            Tree::Unique(m) => {
                if m.get(key) == Some(&row_id) {
                    m.remove(key);
                }
            }
            Tree::Multi(m) => {
                if let Some(slot) = m.get_mut(key) {
                    if let Ok(pos) = slot.binary_search(&row_id) {
                        slot.remove(pos);
                    }
                    if slot.is_empty() {
                        m.remove(key);
                    }
                }
            }
        }
    }

    /// Row ids under an exact key, in row-id order.
    pub fn lookup(&self, key: &IndexKey) -> &[RowId] {
        match &self.tree {
            Tree::Unique(m) => m.get(key).map(std::slice::from_ref).unwrap_or_default(),
            Tree::Multi(m) => m.get(key).map(Vec::as_slice).unwrap_or_default(),
        }
    }

    /// Visit `(key, row ids)` groups whose key lies within the bounds, in
    /// key order, until `f` returns `false`. Every ordered read of the
    /// index goes through here.
    pub fn visit(
        &self,
        lo: Bound<&IndexKey>,
        hi: Bound<&IndexKey>,
        mut f: impl FnMut(&IndexKey, &[RowId]) -> bool,
    ) {
        // BTreeMap::range panics on an inverted range; it is just empty
        if let (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b) | Bound::Excluded(b)) =
            (lo, hi)
        {
            let both_excluded = matches!((lo, hi), (Bound::Excluded(_), Bound::Excluded(_)));
            if a > b || (a == b && both_excluded) {
                return;
            }
        }
        match &self.tree {
            Tree::Unique(m) => {
                for (k, r) in m.range::<IndexKey, _>((lo, hi)) {
                    if !f(k, std::slice::from_ref(r)) {
                        return;
                    }
                }
            }
            Tree::Multi(m) => {
                for (k, rs) in m.range::<IndexKey, _>((lo, hi)) {
                    if !f(k, rs) {
                        return;
                    }
                }
            }
        }
    }

    /// Visit the groups of every key that starts with `prefix` (a probe
    /// over the leading key columns), in key order, until `f` returns
    /// `false`. Such keys sort at or after the prefix itself, contiguously.
    pub fn visit_prefix(&self, prefix: &IndexKey, mut f: impl FnMut(&IndexKey, &[RowId]) -> bool) {
        self.visit(Bound::Included(prefix), Bound::Unbounded, |k, ids| {
            k.starts_with(prefix) && f(k, ids)
        });
    }

    /// The greatest key, if the index is not empty.
    pub fn last_key(&self) -> Option<&IndexKey> {
        match &self.tree {
            Tree::Unique(m) => m.keys().next_back(),
            Tree::Multi(m) => m.keys().next_back(),
        }
    }

    /// All (key, row id) entries in key order, then row-id order.
    pub fn iter_entries(&self) -> Box<dyn Iterator<Item = (&IndexKey, RowId)> + '_> {
        match &self.tree {
            Tree::Unique(m) => Box::new(m.iter().map(|(k, r)| (k, *r))),
            Tree::Multi(m) => {
                Box::new(m.iter().flat_map(|(k, rs)| rs.iter().map(move |r| (k, *r))))
            }
        }
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
            .index("by_a", &["a"])
            .index("by_ab", &["a", "b"])
            .index("by_cb", &["c", "b"])
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

    #[test]
    fn unique_insert_lookup_remove() {
        let mut ix = IndexStore::new(spec("by_a"), true);
        assert!(ix.insert(k(&[1]), RowId(10)));
        assert!(ix.insert(k(&[2]), RowId(20)));
        assert_eq!(ix.lookup(&k(&[1])), [RowId(10)]);
        assert!(ix.would_conflict(&k(&[1])));
        assert!(!ix.insert(k(&[1]), RowId(99)));
        // removing with wrong row id is a no-op
        ix.remove(&k(&[1]), RowId(99));
        assert_eq!(ix.lookup(&k(&[1])), [RowId(10)]);
        ix.remove(&k(&[1]), RowId(10));
        assert!(ix.lookup(&k(&[1])).is_empty());
        assert_eq!(ix.entry_count(), 1);
    }

    #[test]
    fn multi_insert_is_sorted_and_idempotent() {
        let mut ix = IndexStore::new(spec("by_a"), false);
        for id in [3, 1, 2, 2] {
            assert!(ix.insert(k(&[5]), RowId(id)));
        }
        assert_eq!(ix.lookup(&k(&[5])), [RowId(1), RowId(2), RowId(3)]);
        assert_eq!(ix.entry_count(), 3);
        ix.remove(&k(&[5]), RowId(2));
        assert_eq!(ix.lookup(&k(&[5])), [RowId(1), RowId(3)]);
        ix.remove(&k(&[5]), RowId(1));
        ix.remove(&k(&[5]), RowId(3));
        assert_eq!(ix.last_key(), None, "an emptied group takes its key along");
    }

    #[test]
    fn range_visit_and_inverted_bounds() {
        let mut ix = IndexStore::new(spec("by_a"), true);
        for i in 0..10 {
            assert!(ix.insert(k(&[i]), RowId(i as u64)));
        }
        let collect = |lo: Bound<&IndexKey>, hi: Bound<&IndexKey>| {
            let mut hits = Vec::new();
            ix.visit(lo, hi, |_, ids| {
                hits.extend_from_slice(ids);
                true
            });
            hits
        };
        let (lo, hi) = (k(&[3]), k(&[6]));
        assert_eq!(
            collect(Bound::Included(&lo), Bound::Excluded(&hi)),
            vec![RowId(3), RowId(4), RowId(5)]
        );
        assert!(collect(Bound::Included(&hi), Bound::Included(&lo)).is_empty());
        assert!(collect(Bound::Excluded(&lo), Bound::Excluded(&lo)).is_empty());
        assert_eq!(ix.last_key(), Some(&k(&[9])));
    }

    #[test]
    fn prefix_visit_on_composite_key() {
        let mut ix = IndexStore::new(spec("by_ab"), false);
        assert!(ix.insert(ab(1, "a"), RowId(1)));
        assert!(ix.insert(ab(1, "b"), RowId(2)));
        assert!(ix.insert(ab(2, "a"), RowId(3)));
        let hits = |a: i64| {
            let mut out = Vec::new();
            let prefix = ix.spec().probe(&[Value::Int(a)]).unwrap();
            ix.visit_prefix(&prefix, |_, ids| {
                out.extend_from_slice(ids);
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
        let built = IndexStore::build("t", by_a, spec("by_a"), entries.clone()).unwrap();
        let mut grown = IndexStore::new(spec("by_a"), false);
        for (key, id) in entries.clone() {
            assert!(grown.insert(key, id));
        }
        let flat = |ix: &IndexStore| -> Vec<(IndexKey, RowId)> {
            ix.iter_entries().map(|(k, r)| (k.clone(), r)).collect()
        };
        assert_eq!(flat(&built), flat(&grown));
        assert_eq!(built.lookup(&k(&[5])), [RowId(0), RowId(2)]);
        // the unique build names the duplicated key
        let unique = IndexDef {
            unique: true,
            ..by_a.clone()
        };
        let dup = IndexStore::build("t", &unique, spec("by_a"), entries).unwrap_err();
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
