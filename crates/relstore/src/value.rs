//! Cell values and their types.
//!
//! `relstore` rows are vectors of [`Value`]s. The type system is small —
//! integers, floats, text, raw bytes, and NULL — which is all the GAM schema
//! (and most EAV-style generic schemas) needs.
//!
//! Values carry a **total order** (via [`Ord`]) so they can serve as B-tree
//! index keys. Floats are ordered with [`f64::total_cmp`], and NULL sorts
//! before everything else, mirroring `NULLS FIRST` semantics.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 text.
    Text,
    /// Raw byte string.
    Bytes,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueType::Int => "INT",
            ValueType::Float => "FLOAT",
            ValueType::Text => "TEXT",
            ValueType::Bytes => "BYTES",
        };
        f.write_str(s)
    }
}

/// A single cell value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL-style NULL. Compares equal to itself here (unlike SQL) so that
    /// rows are hashable and indexable.
    Null,
    Int(i64),
    Float(f64),
    Text(String),
    Bytes(Vec<u8>),
}

impl Value {
    /// Convenience constructor for text values.
    pub fn text(s: impl Into<String>) -> Self {
        Value::Text(s.into())
    }

    /// Convenience constructor for byte values.
    pub fn bytes(b: impl Into<Vec<u8>>) -> Self {
        Value::Bytes(b.into())
    }

    /// The runtime type of this value, or `None` for NULL.
    pub fn value_type(&self) -> Option<ValueType> {
        self.view().value_type()
    }

    /// True if this value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extract an integer, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Extract a float, if this is a `Float`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Extract the text, if this is a `Text`.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Extract the bytes, if this is a `Bytes`.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// The value, borrowed.
    #[inline]
    pub fn view(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Int(v) => ValueRef::Int(*v),
            Value::Float(v) => ValueRef::Float(*v),
            Value::Text(s) => ValueRef::Text(s),
            Value::Bytes(b) => ValueRef::Bytes(b),
        }
    }

    /// Rank used to order values of different types: NULL < Int/Float < Text
    /// < Bytes. Int and Float share a rank and compare numerically.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) | Value::Float(_) => 1,
            Value::Text(_) => 2,
            Value::Bytes(_) => 3,
        }
    }
}

/// A value borrowed: from a [`Value`] ([`Value::view`]), or straight from
/// an encoded cell ([`crate::codec::walk_cell`]), its text and bytes never
/// copied. Schema conformance and the index key encoder read values in this
/// form, so a value is checked and encoded one way wherever it comes from.
#[derive(Debug, Clone, Copy)]
pub enum ValueRef<'a> {
    Null,
    Int(i64),
    Float(f64),
    Text(&'a str),
    Bytes(&'a [u8]),
}

/// A value a key probe can be built from without copying it: an owned
/// [`Value`] lends its view, a [`ValueRef`] is one. A probe over borrowed
/// text ([`crate::index::KeySpec::probe`]) allocates no `String`.
pub trait ValueView {
    /// The value, borrowed.
    fn view(&self) -> ValueRef<'_>;
}

impl ValueView for Value {
    #[inline]
    fn view(&self) -> ValueRef<'_> {
        Value::view(self)
    }
}

impl ValueView for ValueRef<'_> {
    #[inline]
    fn view(&self) -> ValueRef<'_> {
        *self
    }
}

impl ValueRef<'_> {
    /// The runtime type of this value, or `None` for NULL.
    #[inline]
    pub fn value_type(self) -> Option<ValueType> {
        match self {
            ValueRef::Null => None,
            ValueRef::Int(_) => Some(ValueType::Int),
            ValueRef::Float(_) => Some(ValueType::Float),
            ValueRef::Text(_) => Some(ValueType::Text),
            ValueRef::Bytes(_) => Some(ValueType::Bytes),
        }
    }

    /// The value, owned.
    #[inline]
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Int(v) => Value::Int(v),
            ValueRef::Float(v) => Value::Float(v),
            ValueRef::Text(s) => Value::Text(s.to_owned()),
            ValueRef::Bytes(b) => Value::Bytes(b.to_vec()),
        }
    }

    /// Overwrite `slot` with this value, into the text or byte buffer
    /// `slot` already holds, if it holds one.
    #[inline]
    pub(crate) fn store_into(self, slot: &mut Value) {
        match (self, slot) {
            (ValueRef::Text(s), Value::Text(held)) => s.clone_into(held),
            (ValueRef::Bytes(b), Value::Bytes(held)) => b.clone_into(held),
            (value, slot) => *slot = value.to_value(),
        }
    }
}

impl fmt::Display for ValueRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueRef::Null => f.write_str("NULL"),
            ValueRef::Int(v) => write!(f, "{v}"),
            ValueRef::Float(v) => write!(f, "{v}"),
            ValueRef::Text(s) => f.write_str(s),
            ValueRef::Bytes(b) => write!(f, "x'{}'", hex(b)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.view().fmt(f)
    }
}

fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            // Mixed numeric comparison: compare as floats; ties broken so
            // that the ordering stays antisymmetric (Int sorts before Float
            // on exact numeric equality).
            (Int(a), Float(b)) => match (*a as f64).total_cmp(b) {
                Ordering::Equal => Ordering::Less,
                o => o,
            },
            (Float(a), Int(b)) => match a.total_cmp(&(*b as f64)) {
                Ordering::Equal => Ordering::Greater,
                o => o,
            },
            (Text(a), Text(b)) => a.cmp(b),
            (Bytes(a), Bytes(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Int(v) => {
                1u8.hash(state);
                v.hash(state);
            }
            Value::Float(v) => {
                2u8.hash(state);
                v.to_bits().hash(state);
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Bytes(b) => {
                4u8.hash(state);
                b.hash(state);
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_checks() {
        let column = |ty| crate::schema::Column::nullable("c", ty);
        assert!(column(ValueType::Int).admits(Value::Int(1).view()));
        assert!(!column(ValueType::Text).admits(Value::Int(1).view()));
        assert!(column(ValueType::Int).admits(ValueRef::Null));
        assert!(!crate::schema::Column::new("c", ValueType::Bytes).admits(ValueRef::Null));
        assert_eq!(Value::text("x").value_type(), Some(ValueType::Text));
        assert_eq!(Value::Null.value_type(), None);
    }

    #[test]
    fn ordering_is_total_and_null_first() {
        let mut vals = [Value::text("b"),
            Value::Int(2),
            Value::Null,
            Value::Float(1.5),
            Value::text("a"),
            Value::Int(-1),
            Value::bytes(vec![0u8])];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        // numerics before text before bytes
        assert_eq!(vals[1], Value::Int(-1));
        assert_eq!(vals[2], Value::Float(1.5));
        assert_eq!(vals[3], Value::Int(2));
        assert_eq!(vals[4], Value::text("a"));
        assert_eq!(vals[6], Value::bytes(vec![0u8]));
        testkit::cases(256, |rng| {
            let draw = crate::codec::tests::value;
            let (a, b, c) = (draw(rng), draw(rng), draw(rng));
            // antisymmetry
            assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
            // transitivity (spot form): if a<=b and b<=c then a<=c
            if a.cmp(&b) != Ordering::Greater && b.cmp(&c) != Ordering::Greater {
                assert_ne!(a.cmp(&c), Ordering::Greater);
            }
        });
    }

    #[test]
    fn mixed_numeric_ordering_is_antisymmetric() {
        let a = Value::Int(3);
        let b = Value::Float(3.0);
        assert_eq!(a.cmp(&b), Ordering::Less);
        assert_eq!(b.cmp(&a), Ordering::Greater);
        assert_ne!(a, b);
    }

    #[test]
    fn nan_is_ordered() {
        let nan = Value::Float(f64::NAN);
        let one = Value::Float(1.0);
        // total_cmp puts NaN above all numbers
        assert_eq!(nan.cmp(&one), Ordering::Greater);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
    }

    #[test]
    fn hash_agrees_with_eq_for_floats() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::Float(0.5));
        assert!(set.contains(&Value::Float(0.5)));
        // -0.0 and 0.0 differ under total_cmp, and must differ in the set
        set.insert(Value::Float(0.0));
        assert!(!set.contains(&Value::Float(-0.0)));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::text("go").as_text(), Some("go"));
        assert_eq!(Value::bytes(vec![1, 2]).as_bytes(), Some(&[1u8, 2][..]));
        assert_eq!(Value::Null.as_int(), None);
        assert_eq!(Value::Int(7).as_text(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::text("APRT").to_string(), "APRT");
        assert_eq!(Value::bytes(vec![0xab, 0x01]).to_string(), "x'ab01'");
    }
}
