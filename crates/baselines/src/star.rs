//! A conventional warehouse with an application-specific star schema.
//!
//! The schema is gene-centric, designed up front for the "known" sources:
//! a `gene` fact table (symbol, location, chromosome, unigene cluster)
//! plus bridge tables `gene_go` and `gene_omim`. Queries the schema
//! anticipated are direct indexed lookups. The price is rigidity:
//! integrating a source the designers did not anticipate raises
//! [`StarError::SchemaEvolutionRequired`], and accepting it means a
//! schema migration that rewrites the warehouse — the exact
//! construction/maintenance problem the paper's generic GAM avoids (§1).

use eav::{EavBatch, EavRecord};
use relstore::schema::{Column, Schema};
use relstore::value::{Value, ValueType};
use relstore::{Database, Row, StoreError};
use std::cell::Cell;
use std::collections::BTreeMap;

/// Errors of the star warehouse.
#[derive(Debug)]
pub enum StarError {
    /// The batch came from a source the star schema does not model.
    /// Integrating it requires a schema migration
    /// ([`StarWarehouse::migrate_add_bridge`]).
    SchemaEvolutionRequired { source: String },
    /// Underlying storage error.
    Store(StoreError),
}

impl std::fmt::Display for StarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StarError::SchemaEvolutionRequired { source } => write!(
                f,
                "source {source} is not part of the star schema; schema evolution required"
            ),
            StarError::Store(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for StarError {}

impl From<StoreError> for StarError {
    fn from(e: StoreError) -> Self {
        StarError::Store(e)
    }
}

/// The warehouse.
pub struct StarWarehouse {
    db: Database,
    /// Bridge tables added by schema evolution: source name → table name.
    extra_bridges: BTreeMap<String, String>,
    next_gene_key: i64,
    /// Index probes the queries made, reported by [`Self::index_probes`].
    probes: Cell<usize>,
}

fn gene_schema() -> Schema {
    Schema::builder("gene")
        .column(Column::new("gene_key", ValueType::Int))
        .column(Column::new("locus", ValueType::Text))
        .column(Column::nullable("symbol", ValueType::Text))
        .column(Column::nullable("name", ValueType::Text))
        .column(Column::nullable("chromosome", ValueType::Text))
        .column(Column::nullable("location", ValueType::Text))
        .column(Column::nullable("unigene", ValueType::Text))
        .primary_key(&["gene_key"])
        .unique_index("by_locus", &["locus"])
        .index("by_symbol", &["symbol"])
        .index("by_location", &["location"])
        .build()
        .expect("static schema")
}

fn bridge_schema(table: &str) -> Schema {
    Schema::builder(table)
        .column(Column::new("gene_key", ValueType::Int))
        .column(Column::new("value", ValueType::Text))
        .index("by_gene", &["gene_key"])
        .index("by_value", &["value"])
        .build()
        .expect("static schema")
}

impl StarWarehouse {
    /// Fresh warehouse with the designed-up-front schema.
    pub fn new() -> Result<Self, StarError> {
        let mut db = Database::in_memory();
        db.create_table(gene_schema())?;
        db.create_table(bridge_schema("gene_go"))?;
        db.create_table(bridge_schema("gene_omim"))?;
        Ok(StarWarehouse {
            db,
            extra_bridges: BTreeMap::new(),
            next_gene_key: 1,
            probes: Cell::new(0),
        })
    }

    fn bridge_for(&self, source: &str) -> Option<String> {
        match source {
            "GO" => Some("gene_go".to_owned()),
            "OMIM" => Some("gene_omim".to_owned()),
            other => self.extra_bridges.get(other).cloned(),
        }
    }

    /// Integrate a parsed source. Only sources the schema anticipated are
    /// accepted: `LocusLink` fills the fact table; `GO` and `OMIM`
    /// annotations (inside the LocusLink batch) fill the bridges; all
    /// other sources require schema evolution.
    pub fn integrate(&mut self, batch: &EavBatch) -> Result<usize, StarError> {
        if batch.meta.name != "LocusLink" {
            return Err(StarError::SchemaEvolutionRequired {
                source: batch.meta.name.clone(),
            });
        }
        let mut rows = 0usize;
        // first pass: fact rows
        let mut facts: BTreeMap<&str, [Option<&str>; 5]> = BTreeMap::new();
        let mut bridges: Vec<(&str, String, &str)> = Vec::new(); // (locus, table, value)
        for record in &batch.records {
            match record {
                EavRecord::Object { accession, text, .. } => {
                    let entry = facts.entry(accession).or_default();
                    if let Some(t) = text {
                        entry[1] = Some(t);
                    }
                }
                EavRecord::Annotation {
                    entity,
                    target,
                    accession,
                    ..
                } => match target.as_str() {
                    "Hugo" => {
                        facts.entry(entity).or_default()[0] = Some(accession);
                    }
                    "Chr" => {
                        facts.entry(entity).or_default()[2] = Some(accession);
                    }
                    "Location" => {
                        facts.entry(entity).or_default()[3] = Some(accession);
                    }
                    "Unigene" => {
                        facts.entry(entity).or_default()[4] = Some(accession);
                    }
                    other => {
                        if let Some(table) = self.bridge_for(other) {
                            bridges.push((entity, table, accession));
                        }
                        // annotations outside the schema are silently lost —
                        // the information loss the generic model avoids
                    }
                },
                EavRecord::IsA { .. } => {
                    // the star schema has no place for taxonomy structure
                }
            }
        }
        let mut keys: BTreeMap<&str, i64> = BTreeMap::new();
        {
            let mut txn = self.db.begin();
            for (locus, [symbol, name, chr, loc, unigene]) in &facts {
                let key = self.next_gene_key;
                self.next_gene_key += 1;
                keys.insert(locus, key);
                let opt = |v: &Option<&str>| v.map(Value::text).unwrap_or(Value::Null);
                txn.insert(
                    "gene",
                    vec![
                        Value::Int(key),
                        Value::text(*locus),
                        opt(symbol),
                        opt(name),
                        opt(chr),
                        opt(loc),
                        opt(unigene),
                    ],
                )?;
                rows += 1;
            }
            for (locus, table, value) in &bridges {
                let key = keys[locus];
                txn.insert(table, vec![Value::Int(key), Value::text(*value)])?;
                rows += 1;
            }
            txn.commit()?;
        }
        Ok(rows)
    }

    /// Schema evolution: add a bridge table for a new annotation source.
    /// In a real warehouse this is a migration (DDL + reload); here it
    /// registers the table so a subsequent re-integration can fill it.
    pub fn migrate_add_bridge(&mut self, source: &str) -> Result<(), StarError> {
        let table = format!("gene_{}", source.to_ascii_lowercase());
        self.db.create_table(bridge_schema(&table))?;
        self.extra_bridges.insert(source.to_owned(), table);
        Ok(())
    }

    /// One index probe: the rows of `table` whose `index` key is `key`.
    fn probe(&self, table: &str, index: &str, key: Value) -> Result<Vec<Row>, StarError> {
        self.probes.set(self.probes.get() + 1);
        Ok(self.db.table(table)?.lookup(index, &[key])?)
    }

    /// Index probes the queries have made since the warehouse was built.
    pub fn index_probes(&self) -> usize {
        self.probes.get()
    }

    /// Anticipated query: loci at a cytogenetic location (indexed).
    pub fn loci_at_location(&self, location: &str) -> Result<Vec<String>, StarError> {
        let rows = self.probe("gene", "by_location", Value::text(location))?;
        Ok(rows
            .into_iter()
            .map(|r| r.get(1).as_text().unwrap_or_default().to_owned())
            .collect())
    }

    /// Anticipated query: loci annotated with a GO term (bridge + fact).
    pub fn loci_with_go(&self, term: &str) -> Result<Vec<String>, StarError> {
        let bridge = self.probe("gene_go", "by_value", Value::text(term))?;
        let mut out = Vec::with_capacity(bridge.len());
        for row in bridge {
            for g in self.probe("gene", "pk", row.get(0).clone())? {
                out.push(g.get(1).as_text().unwrap_or_default().to_owned());
            }
        }
        out.sort();
        Ok(out)
    }

    /// Lookup one gene row by locus.
    pub fn gene(&self, locus: &str) -> Result<Option<Vec<Value>>, StarError> {
        let rows = self.probe("gene", "by_locus", Value::text(locus))?;
        Ok(rows.into_iter().next().map(|r| r.values().to_vec()))
    }

    /// Total rows across fact and bridge tables.
    pub fn row_count(&self) -> Result<usize, StarError> {
        Ok(self.db.stats()?.total_rows())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eav::SourceMeta;

    fn locuslink_batch() -> EavBatch {
        let mut b = EavBatch::new(SourceMeta::flat_gene("LocusLink", "r1"));
        b.push(EavRecord::named_object("353", "adenine phosphoribosyltransferase"));
        b.push(EavRecord::annotation("353", "Hugo", "APRT"));
        b.push(EavRecord::annotation("353", "Location", "16q24"));
        b.push(EavRecord::annotation("353", "GO", "GO:0009116"));
        b.push(EavRecord::annotation("353", "OMIM", "102600"));
        b.push(EavRecord::annotation("353", "Enzyme", "2.4.2.7")); // not modeled!
        b
    }

    #[test]
    fn anticipated_queries_work() {
        let mut w = StarWarehouse::new().unwrap();
        let rows = w.integrate(&locuslink_batch()).unwrap();
        assert_eq!(rows, 3); // 1 fact + go + omim bridges
        assert_eq!(w.loci_at_location("16q24").unwrap(), vec!["353"]);
        assert_eq!(w.index_probes(), 1);
        // the bridge, then the gene it names
        assert_eq!(w.loci_with_go("GO:0009116").unwrap(), vec!["353"]);
        assert_eq!(w.index_probes(), 3);
        let gene = w.gene("353").unwrap().unwrap();
        assert_eq!(gene[2], Value::text("APRT"));
    }

    #[test]
    fn unanticipated_source_requires_evolution() {
        let mut w = StarWarehouse::new().unwrap();
        let go_batch = EavBatch::new(SourceMeta::network(
            "GO",
            "200312",
            gam::model::SourceContent::Other,
        ));
        let err = w.integrate(&go_batch).unwrap_err();
        assert!(matches!(err, StarError::SchemaEvolutionRequired { .. }));
        assert!(err.to_string().contains("GO"));
    }

    #[test]
    fn unmodeled_annotations_are_lost_until_migration() {
        let mut w = StarWarehouse::new().unwrap();
        w.integrate(&locuslink_batch()).unwrap();
        // Enzyme annotation silently dropped — schema has no bridge
        assert_eq!(w.row_count().unwrap(), 3);

        // after migration + re-integration, the data lands
        let mut w2 = StarWarehouse::new().unwrap();
        w2.migrate_add_bridge("Enzyme").unwrap();
        let rows = w2.integrate(&locuslink_batch()).unwrap();
        assert_eq!(rows, 4);
    }
}
