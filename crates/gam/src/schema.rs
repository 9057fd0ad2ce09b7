//! Relational schemas of the four GAM tables (paper Figure 4).
//!
//! Each table's surrogate id (Figure 4's `*_id`) is a relstore dense key:
//! a row's id is its row id + 1, checked at every write, so a read by id is
//! one read at the row's address and no index is kept for it. Beyond that a
//! table declares an index only where a read probes it; each schema's doc
//! names the read behind each of its indexes (DESIGN.md §1).

use crate::error::GamResult;
use relstore::schema::{Column, Schema};
use relstore::value::ValueType;

/// Table name constants.
pub mod tables {
    pub const SOURCE: &str = "source";
    pub const OBJECT: &str = "object";
    pub const SOURCE_REL: &str = "source_rel";
    pub const OBJECT_REL: &str = "object_rel";
}

/// `SOURCE(source_id, name, content, structure, release, imported_seq)`.
///
/// `get_source` reads by address; unique `by_name` serves `find_source`
/// and `find_sources`, and keeps source names unique.
pub fn source_schema() -> GamResult<Schema> {
    let schema = Schema::builder(tables::SOURCE)
        .column(Column::new("source_id", ValueType::Int))
        .column(Column::new("name", ValueType::Text))
        .column(Column::new("content", ValueType::Int))
        .column(Column::new("structure", ValueType::Int))
        .column(Column::nullable("release", ValueType::Text))
        .column(Column::new("imported_seq", ValueType::Int))
        .dense_key("source_id")
        .unique_index("by_name", &["name"])
        .build()?;
    Ok(schema)
}

/// `OBJECT(object_id, source_id, accession, text, number)`.
///
/// `get_object` and `with_objects` read by address; unique `by_accession`
/// serves `find_object`, `resolve_accessions` and every per-source read
/// (`objects_of`, `object_count`, the searches) as a `source_id` prefix, and
/// is the object-level duplicate elimination of §4.1.
pub fn object_schema() -> GamResult<Schema> {
    let schema = Schema::builder(tables::OBJECT)
        .column(Column::new("object_id", ValueType::Int))
        .column(Column::new("source_id", ValueType::Int))
        .column(Column::new("accession", ValueType::Text))
        .column(Column::nullable("text", ValueType::Text))
        .column(Column::nullable("number", ValueType::Float))
        .dense_key("object_id")
        .unique_index("by_accession", &["source_id", "accession"])
        .build()?;
    Ok(schema)
}

/// `SOURCE_REL(source_rel_id, source1_id, source2_id, type, derivation)`.
///
/// `get_source_rel` reads by address; `by_pair` serves
/// `source_rels_between` (both orientations are probed as (source1,
/// source2) pairs).
pub fn source_rel_schema() -> GamResult<Schema> {
    let schema = Schema::builder(tables::SOURCE_REL)
        .column(Column::new("source_rel_id", ValueType::Int))
        .column(Column::new("source1_id", ValueType::Int))
        .column(Column::new("source2_id", ValueType::Int))
        .column(Column::new("type", ValueType::Int))
        .column(Column::nullable("derivation", ValueType::Text))
        .dense_key("source_rel_id")
        .index("by_pair", &["source1_id", "source2_id"])
        .build()?;
    Ok(schema)
}

/// `OBJECT_REL(object_rel_id, source_rel_id, object1_id, object2_id,
/// evidence)`.
///
/// The paper reaches this table by mapping (`Map`/`Compose`/`GenerateView`,
/// §4.2) and by object (object information, §5.1), never by association
/// id. So: unique `by_pair` serves every per-mapping read — load, count,
/// duplicate elimination, cascade delete — as a `source_rel_id` prefix, and
/// `by_object1`/`by_object2` serve `associations_of_object`. No read goes
/// by `object_rel_id`; it is the dense key all the same, so an id is unique
/// because relstore refuses any row that does not hold its row id + 1.
pub fn object_rel_schema() -> GamResult<Schema> {
    let schema = Schema::builder(tables::OBJECT_REL)
        .column(Column::new("object_rel_id", ValueType::Int))
        .column(Column::new("source_rel_id", ValueType::Int))
        .column(Column::new("object1_id", ValueType::Int))
        .column(Column::new("object2_id", ValueType::Int))
        .column(Column::nullable("evidence", ValueType::Float))
        .dense_key("object_rel_id")
        .unique_index("by_pair", &["source_rel_id", "object1_id", "object2_id"])
        .index("by_object1", &["object1_id"])
        .index("by_object2", &["object2_id"])
        .build()?;
    Ok(schema)
}

/// All four schemas, in creation order.
pub fn all_schemas() -> GamResult<Vec<Schema>> {
    Ok(vec![
        source_schema()?,
        object_schema()?,
        source_rel_schema()?,
        object_rel_schema()?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schemas_build_and_have_expected_shape() {
        let s = source_schema().unwrap();
        assert_eq!(s.arity(), 6);
        assert!(s.index("by_name").unwrap().unique);

        let o = object_schema().unwrap();
        assert_eq!(o.arity(), 5);
        // the dedup index pins (source, accession)
        let by_acc = o.index("by_accession").unwrap();
        assert!(by_acc.unique);
        assert_eq!(by_acc.columns.len(), 2);

        let sr = source_rel_schema().unwrap();
        assert_eq!(sr.column_index("type").unwrap(), 3);

        let names = |s: &Schema| -> Vec<String> {
            s.indexes().iter().map(|i| i.name.clone()).collect()
        };
        assert_eq!(names(&s), ["by_name"]);
        assert_eq!(names(&o), ["by_accession"]);
        assert_eq!(names(&sr), ["by_pair"]);

        let or = object_rel_schema().unwrap();
        assert_eq!(names(&or), ["by_pair", "by_object1", "by_object2"]);
        // every id is a dense key, none a stored primary key
        for schema in all_schemas().unwrap() {
            assert!(schema.dense_key() && schema.primary_key().is_empty(), "{}", schema.name());
        }
        // the per-mapping access path used by load/count/delete: a unique
        // index led by the mapping id
        let by_pair = or.index("by_pair").unwrap();
        assert!(by_pair.unique);
        assert_eq!(by_pair.columns, vec![1, 2, 3]);
        assert_eq!(all_schemas().unwrap().len(), 4);
    }

    #[test]
    fn schemas_install_into_a_database() {
        let mut db = relstore::Database::in_memory();
        for schema in all_schemas().unwrap() {
            db.create_table(schema).unwrap();
        }
        assert_eq!(
            db.table_names(),
            vec!["object", "object_rel", "source", "source_rel"]
        );
    }
}
