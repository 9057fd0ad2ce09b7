//! Table schemas: columns, primary keys, dense keys, and index declarations.

use crate::codec::{get_count, get_str, get_u8, get_varint, put_str, put_varint};
use crate::error::{StoreError, StoreResult};
use crate::value::{Value, ValueType};

/// A column declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name, unique within the table.
    pub name: String,
    /// Declared type.
    pub ty: ValueType,
    /// Whether NULL is accepted. Defaults to `false`.
    pub nullable: bool,
}

impl Column {
    /// A non-nullable column.
    pub fn new(name: impl Into<String>, ty: ValueType) -> Self {
        Column {
            name: name.into(),
            ty,
            nullable: false,
        }
    }

    /// A nullable column.
    pub fn nullable(name: impl Into<String>, ty: ValueType) -> Self {
        Column {
            name: name.into(),
            ty,
            nullable: true,
        }
    }
}

/// Declaration of a secondary index over one or more columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    /// Index name, unique within the table.
    pub name: String,
    /// Ordinals of the indexed columns (in key order).
    pub columns: Vec<usize>,
    /// Whether the key must be unique across live rows.
    pub unique: bool,
}

/// A complete table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    name: String,
    columns: Vec<Column>,
    /// Ordinals of the primary-key columns, if a primary key was declared.
    /// The primary key is enforced as a unique index named `"pk"`.
    primary_key: Vec<usize>,
    /// Whether column 0 is a dense key ([`SchemaBuilder::dense_key`]).
    dense: bool,
    indexes: Vec<IndexDef>,
}

impl Schema {
    /// Start building a schema for the table `name`.
    pub fn builder(name: impl Into<String>) -> SchemaBuilder {
        SchemaBuilder {
            name: name.into(),
            columns: Vec::new(),
            primary_key: Vec::new(),
            dense: None,
            indexes: Vec::new(),
            error: None,
        }
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All columns, in ordinal order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Ordinal of a column by name.
    pub fn column_index(&self, name: &str) -> StoreResult<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| StoreError::NoSuchColumn {
                table: self.name.clone(),
                column: name.to_owned(),
            })
    }

    /// Primary-key column ordinals (empty if no primary key declared).
    pub fn primary_key(&self) -> &[usize] {
        &self.primary_key
    }

    /// Whether column 0 is a dense key: every row holds its row id + 1
    /// there ([`SchemaBuilder::dense_key`]).
    pub fn dense_key(&self) -> bool {
        self.dense
    }

    /// Declared secondary indexes (the primary key appears as index `"pk"`;
    /// a dense key appears in none).
    pub fn indexes(&self) -> &[IndexDef] {
        &self.indexes
    }

    /// Find an index declaration by name.
    pub fn index(&self, name: &str) -> Option<&IndexDef> {
        self.indexes.iter().find(|i| i.name == name)
    }

    /// Validate a row against this schema: arity, types, nullability.
    pub fn check_row(&self, row: &[Value]) -> StoreResult<()> {
        if row.len() != self.columns.len() {
            return Err(StoreError::SchemaViolation(format!(
                "table {}: expected {} columns, got {}",
                self.name,
                self.columns.len(),
                row.len()
            )));
        }
        for (col, val) in self.columns.iter().zip(row) {
            if val.is_null() {
                if !col.nullable {
                    return Err(StoreError::SchemaViolation(format!(
                        "table {}: column {} is not nullable",
                        self.name, col.name
                    )));
                }
            } else if !val.conforms_to(col.ty) {
                return Err(StoreError::SchemaViolation(format!(
                    "table {}: column {} expects {}, got {}",
                    self.name, col.name, col.ty, val
                )));
            }
        }
        Ok(())
    }
}

/// Builder for [`Schema`]. Column/index name resolution errors are deferred
/// to [`SchemaBuilder::build`] so declarations chain fluently.
pub struct SchemaBuilder {
    name: String,
    columns: Vec<Column>,
    primary_key: Vec<String>,
    dense: Option<String>,
    indexes: Vec<(String, Vec<String>, bool)>,
    error: Option<String>,
}

impl SchemaBuilder {
    /// Add a column.
    pub fn column(mut self, column: Column) -> Self {
        self.columns.push(column);
        self
    }

    /// Declare the primary key over the named columns. Enforced as a unique
    /// index named `"pk"`.
    pub fn primary_key(mut self, columns: &[&str]) -> Self {
        if !self.primary_key.is_empty() || self.dense.is_some() {
            self.error = Some("primary key declared twice".into());
        }
        self.primary_key = columns.iter().map(|c| (*c).to_owned()).collect();
        self
    }

    /// Declare the first column — a non-nullable `Int` — the table's dense
    /// key, in place of a primary key: the value of a row there must be
    /// its row id + 1, so the key is the row's address. Every write is
    /// checked against that ([`StoreError::DenseKeyViolation`]) and no
    /// index structure is kept for it: a `"pk"` read of
    /// [`Table`](crate::Table), `lookup_unique`, is answered by address.
    pub fn dense_key(mut self, column: &str) -> Self {
        if self.dense.is_some() || !self.primary_key.is_empty() {
            self.error = Some("a table has one key: dense or primary".into());
        }
        self.dense = Some(column.to_owned());
        self
    }

    /// Declare a unique secondary index.
    pub fn unique_index(mut self, name: &str, columns: &[&str]) -> Self {
        self.indexes.push((
            name.to_owned(),
            columns.iter().map(|c| (*c).to_owned()).collect(),
            true,
        ));
        self
    }

    /// Declare a non-unique secondary index.
    pub fn index(mut self, name: &str, columns: &[&str]) -> Self {
        self.indexes.push((
            name.to_owned(),
            columns.iter().map(|c| (*c).to_owned()).collect(),
            false,
        ));
        self
    }

    /// Finish building, validating all names.
    pub fn build(self) -> StoreResult<Schema> {
        if let Some(msg) = self.error {
            return Err(StoreError::InvalidSchema(msg));
        }
        if self.columns.is_empty() {
            return Err(StoreError::InvalidSchema(format!(
                "table {} has no columns",
                self.name
            )));
        }
        for (i, c) in self.columns.iter().enumerate() {
            if self.columns[..i].iter().any(|p| p.name == c.name) {
                return Err(StoreError::InvalidSchema(format!(
                    "duplicate column {} in table {}",
                    c.name, self.name
                )));
            }
        }
        let resolve = |names: &[String]| -> StoreResult<Vec<usize>> {
            if names.is_empty() {
                return Err(StoreError::InvalidSchema(format!(
                    "empty column list in index on table {}",
                    self.name
                )));
            }
            names
                .iter()
                .map(|n| {
                    self.columns
                        .iter()
                        .position(|c| &c.name == n)
                        .ok_or_else(|| {
                            StoreError::InvalidSchema(format!(
                                "index on table {} names unknown column {}",
                                self.name, n
                            ))
                        })
                })
                .collect()
        };

        if let Some(name) = &self.dense {
            let first = &self.columns[0];
            if &first.name != name || first.ty != ValueType::Int || first.nullable {
                return Err(StoreError::InvalidSchema(format!(
                    "dense key {name} of table {} must be its first column, a non-nullable Int",
                    self.name
                )));
            }
        }
        let mut indexes = Vec::with_capacity(self.indexes.len() + 1);
        let mut primary_key = Vec::new();
        if !self.primary_key.is_empty() {
            primary_key = resolve(&self.primary_key)?;
            indexes.push(IndexDef {
                name: "pk".to_owned(),
                columns: primary_key.clone(),
                unique: true,
            });
        }
        for (name, cols, unique) in &self.indexes {
            if name == "pk" {
                return Err(StoreError::InvalidSchema(
                    "index name pk is reserved for the primary key".into(),
                ));
            }
            if indexes.iter().any(|i: &IndexDef| &i.name == name) {
                return Err(StoreError::InvalidSchema(format!(
                    "duplicate index {} on table {}",
                    name, self.name
                )));
            }
            indexes.push(IndexDef {
                name: name.clone(),
                columns: resolve(cols)?,
                unique: *unique,
            });
        }
        Ok(Schema {
            name: self.name,
            columns: self.columns,
            primary_key,
            dense: self.dense.is_some(),
            indexes,
        })
    }
}

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

/// Column flag bits: a column's one flag byte in the schema encoding.
const NULLABLE: u8 = 1;
/// Set on column 0 only, of a schema with a dense key. A schema without
/// one encodes as it did before dense keys existed.
const DENSE: u8 = 2;

/// Encode a schema — the one on-disk form, shared by the WAL's `CreateTable`
/// record and the page directory.
pub(crate) fn put_schema(buf: &mut Vec<u8>, schema: &Schema) {
    put_str(buf, schema.name());
    put_varint(buf, schema.columns().len() as u64);
    for (i, c) in schema.columns().iter().enumerate() {
        put_str(buf, &c.name);
        buf.push(type_tag(c.ty));
        let dense = if i == 0 && schema.dense_key() { DENSE } else { 0 };
        buf.push(u8::from(c.nullable) | dense);
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

/// Decode (and re-validate, through the builder) a schema.
pub(crate) fn get_schema(buf: &mut &[u8]) -> StoreResult<Schema> {
    let name = get_str(buf)?;
    let ncols = get_count(buf, 3, "column")?;
    let mut builder = Schema::builder(&name);
    let mut col_names = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let cname = get_str(buf)?;
        let ty = type_from_tag(get_u8(buf, "schema truncated")?)?;
        let flags = get_u8(buf, "schema truncated")?;
        if flags & !(NULLABLE | DENSE) != 0 {
            return Err(StoreError::Corrupt(format!("unknown column flags {flags:#04x}")));
        }
        if flags & DENSE != 0 {
            // the builder refuses a dense flag on any column but the first
            builder = builder.dense_key(&cname);
        }
        col_names.push(cname.clone());
        builder = builder.column(if flags & NULLABLE != 0 {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::builder("object")
            .column(Column::new("object_id", ValueType::Int))
            .column(Column::new("source_id", ValueType::Int))
            .column(Column::new("accession", ValueType::Text))
            .column(Column::nullable("text", ValueType::Text))
            .column(Column::nullable("number", ValueType::Float))
            .primary_key(&["object_id"])
            .unique_index("by_acc", &["source_id", "accession"])
            .index("by_source", &["source_id"])
            .build()
            .unwrap()
    }

    #[test]
    fn builds_and_resolves() {
        let s = sample();
        assert_eq!(s.name(), "object");
        assert_eq!(s.arity(), 5);
        assert_eq!(s.column_index("accession").unwrap(), 2);
        assert_eq!(s.primary_key(), &[0]);
        assert_eq!(s.indexes().len(), 3);
        assert_eq!(s.index("by_acc").unwrap().columns, vec![1, 2]);
        assert!(s.index("by_acc").unwrap().unique);
        assert!(!s.index("by_source").unwrap().unique);
    }

    #[test]
    fn row_validation() {
        let s = sample();
        let ok = vec![
            Value::Int(1),
            Value::Int(2),
            Value::text("GO:0001"),
            Value::Null,
            Value::Float(0.5),
        ];
        s.check_row(&ok).unwrap();

        // wrong arity
        assert!(s.check_row(&ok[..4]).is_err());
        // type mismatch
        let mut bad = ok.clone();
        bad[0] = Value::text("x");
        assert!(s.check_row(&bad).is_err());
        // null in non-nullable
        let mut bad = ok;
        bad[2] = Value::Null;
        assert!(s.check_row(&bad).is_err());
    }

    #[test]
    fn a_dense_key_is_a_first_int_column_and_one_flag_bit_on_disk() {
        let build = |dense: bool| {
            let b = Schema::builder("t")
                .column(Column::new("id", ValueType::Int))
                .column(Column::new("x", ValueType::Text))
                .index("by_x", &["x"]);
            if dense { b.dense_key("id") } else { b }.build().unwrap()
        };
        let (dense, plain) = (build(true), build(false));
        assert!(dense.dense_key() && dense.primary_key().is_empty());
        assert_eq!(dense.indexes().len(), 1, "a dense key is no index");
        let encode = |schema: &Schema| {
            let mut buf = Vec::new();
            put_schema(&mut buf, schema);
            buf
        };
        let (bytes, plain_bytes) = (encode(&dense), encode(&plain));
        assert_eq!(get_schema(&mut &bytes[..]).unwrap(), dense);
        let differ: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] != plain_bytes[i]).collect();
        assert_eq!(differ.len(), 1, "only column 0's flag byte differs");
        let mut bad = bytes.clone();
        bad[differ[0]] |= 4;
        assert!(matches!(get_schema(&mut &bad[..]), Err(StoreError::Corrupt(_))));

        let refused = [
            Schema::builder("t").column(Column::new("a", ValueType::Int)).column(Column::new("b", ValueType::Int)).dense_key("b"),
            Schema::builder("t").column(Column::nullable("a", ValueType::Int)).dense_key("a"),
            Schema::builder("t").column(Column::new("a", ValueType::Text)).dense_key("a"),
            Schema::builder("t").column(Column::new("a", ValueType::Int)).dense_key("a").primary_key(&["a"]),
            Schema::builder("t").column(Column::new("a", ValueType::Int)).primary_key(&["a"]).dense_key("a"),
        ];
        for builder in refused {
            assert!(matches!(builder.build(), Err(StoreError::InvalidSchema(_))));
        }
    }

    #[test]
    fn rejects_bad_declarations() {
        // duplicate column
        assert!(Schema::builder("t")
            .column(Column::new("a", ValueType::Int))
            .column(Column::new("a", ValueType::Int))
            .build()
            .is_err());
        // unknown index column
        assert!(Schema::builder("t")
            .column(Column::new("a", ValueType::Int))
            .index("i", &["b"])
            .build()
            .is_err());
        // empty
        assert!(Schema::builder("t").build().is_err());
        // reserved pk name
        assert!(Schema::builder("t")
            .column(Column::new("a", ValueType::Int))
            .unique_index("pk", &["a"])
            .build()
            .is_err());
        // duplicate index name
        assert!(Schema::builder("t")
            .column(Column::new("a", ValueType::Int))
            .index("i", &["a"])
            .index("i", &["a"])
            .build()
            .is_err());
        // double primary key
        assert!(Schema::builder("t")
            .column(Column::new("a", ValueType::Int))
            .primary_key(&["a"])
            .primary_key(&["a"])
            .build()
            .is_err());
        // unknown column message
        let err = Schema::builder("t")
            .column(Column::new("a", ValueType::Int))
            .build()
            .unwrap()
            .column_index("zz")
            .unwrap_err();
        assert!(err.to_string().contains("zz"));
    }
}
