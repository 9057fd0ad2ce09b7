//! Row predicates for filtered scans.
//!
//! A predicate is a conjunction of `column = literal` and substring tests
//! over named columns — the only shapes the layers above build. It is
//! resolved against a [`Schema`] once (binding column names to ordinals)
//! and then evaluated per row. Table scans analyse predicates to pick an
//! index: a conjunction that fixes every column of an index with equality is
//! served by an index lookup instead of a full scan.

use crate::error::StoreResult;
use crate::schema::Schema;
use crate::value::Value;

/// A boolean expression over row columns.
#[derive(Debug, Clone)]
pub enum Predicate {
    /// `column = literal`. A NULL cell or literal never matches, mirroring
    /// SQL three-valued logic collapsed to two values.
    Eq { column: String, value: Value },
    /// Case-insensitive substring match on a text column (`column LIKE
    /// '%needle%'`). NULL and non-text cells never match.
    TextContains { column: String, needle: String },
    /// Conjunction.
    And(Vec<Predicate>),
}

impl Predicate {
    /// `column = value`.
    pub fn eq(column: impl Into<String>, value: Value) -> Self {
        Predicate::Eq {
            column: column.into(),
            value,
        }
    }

    /// Case-insensitive substring match on a text column.
    pub fn text_contains(column: impl Into<String>, needle: impl Into<String>) -> Self {
        Predicate::TextContains {
            column: column.into(),
            needle: needle.into(),
        }
    }

    /// Conjunction of two predicates.
    pub fn and(self, other: Predicate) -> Self {
        match self {
            Predicate::And(mut v) => {
                v.push(other);
                Predicate::And(v)
            }
            p => Predicate::And(vec![p, other]),
        }
    }

    /// Resolve column names to ordinals for fast evaluation.
    pub fn bind(&self, schema: &Schema) -> StoreResult<BoundPredicate> {
        Ok(match self {
            Predicate::Eq { column, value } => BoundPredicate::Eq {
                ordinal: schema.column_index(column)?,
                value: value.clone(),
            },
            Predicate::TextContains { column, needle } => BoundPredicate::TextContains {
                ordinal: schema.column_index(column)?,
                needle: needle.to_ascii_lowercase(),
            },
            Predicate::And(ps) => BoundPredicate::And(
                ps.iter().map(|p| p.bind(schema)).collect::<StoreResult<_>>()?,
            ),
        })
    }

    /// Collect the `column = literal` constraints of the conjunction (a
    /// bare `Eq` counts as a singleton conjunction). Used by the planner to
    /// match indexes.
    pub(crate) fn equality_constraints(&self) -> Vec<(&str, &Value)> {
        let mut out = Vec::new();
        self.collect_eq(&mut out);
        out
    }

    fn collect_eq<'a>(&'a self, out: &mut Vec<(&'a str, &'a Value)>) {
        match self {
            Predicate::Eq { column, value } => out.push((column.as_str(), value)),
            Predicate::And(ps) => {
                for p in ps {
                    p.collect_eq(out);
                }
            }
            Predicate::TextContains { .. } => {}
        }
    }
}

/// A predicate with column names resolved to ordinals.
#[derive(Debug, Clone)]
pub enum BoundPredicate {
    Eq {
        ordinal: usize,
        value: Value,
    },
    TextContains {
        ordinal: usize,
        /// Lower-cased needle; matching lower-cases the cell.
        needle: String,
    },
    And(Vec<BoundPredicate>),
}

impl BoundPredicate {
    /// Evaluate against a row (as a value slice).
    pub fn matches(&self, row: &[Value]) -> bool {
        match self {
            BoundPredicate::Eq { ordinal, value } => {
                let cell = &row[*ordinal];
                !cell.is_null() && !value.is_null() && cell.cmp(value).is_eq()
            }
            BoundPredicate::TextContains { ordinal, needle } => match row[*ordinal].as_text() {
                Some(text) => text.to_ascii_lowercase().contains(needle.as_str()),
                None => false,
            },
            BoundPredicate::And(ps) => ps.iter().all(|p| p.matches(row)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::value::ValueType;

    fn schema() -> Schema {
        Schema::builder("t")
            .column(Column::new("a", ValueType::Int))
            .column(Column::nullable("b", ValueType::Text))
            .build()
            .unwrap()
    }

    fn row(a: i64, b: Option<&str>) -> Vec<Value> {
        vec![
            Value::Int(a),
            b.map(Value::text).unwrap_or(Value::Null),
        ]
    }

    #[test]
    fn null_semantics() {
        let s = schema();
        let p = Predicate::eq("b", Value::text("x")).bind(&s).unwrap();
        assert!(p.matches(&row(1, Some("x"))));
        assert!(!p.matches(&row(1, Some("y"))));
        assert!(!p.matches(&row(1, None)));
        // not even NULL = NULL
        let p = Predicate::eq("b", Value::Null).bind(&s).unwrap();
        assert!(!p.matches(&row(1, None)));
    }

    #[test]
    fn boolean_combinators() {
        let s = schema();
        let p = Predicate::eq("a", Value::Int(1))
            .and(Predicate::eq("b", Value::text("x")))
            .bind(&s)
            .unwrap();
        assert!(p.matches(&row(1, Some("x"))));
        assert!(!p.matches(&row(1, Some("y"))));
        assert!(!p.matches(&row(2, Some("x"))));
    }

    #[test]
    fn equality_constraint_extraction() {
        let p = Predicate::eq("a", Value::Int(1))
            .and(Predicate::text_contains("b", "x"))
            .and(Predicate::eq("b", Value::text("x")));
        let cs = p.equality_constraints();
        // substring tests are not extracted
        assert_eq!(cs.len(), 2);
        assert_eq!((cs[0].0, cs[1].0), ("a", "b"));
        let substring = Predicate::text_contains("b", "x");
        assert!(substring.equality_constraints().is_empty());
    }

    #[test]
    fn text_contains_matching() {
        let s = schema();
        let p = Predicate::text_contains("b", "DeNiN").bind(&s).unwrap();
        assert!(p.matches(&row(1, Some("adenine phosphoribosyltransferase"))));
        assert!(!p.matches(&row(1, Some("other"))));
        assert!(!p.matches(&row(1, None)), "NULL never matches");
        // non-text column never matches
        let p = Predicate::text_contains("a", "1").bind(&s).unwrap();
        assert!(!p.matches(&row(1, None)));
    }

    #[test]
    fn binding_unknown_column_fails() {
        let s = schema();
        assert!(Predicate::eq("zzz", Value::Int(1)).bind(&s).is_err());
    }
}
