//! Resolved annotation views: object ids mapped back to accessions and
//! names, ready for display and export (paper Figure 6b/6c — "All results
//! can be saved and downloaded in different formats for further analysis
//! in external tools").

use gam::ObjectId;
use std::fmt::Write as _;

/// The cell index of a NULL (missing annotation) in a [`ResolvedView`].
pub(crate) const NULL: u32 = u32::MAX;

/// Where one resolved object lies in its view's text: the accession is
/// `text[start..mid]`, the name, if the object has one, `text[mid..end]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    start: usize,
    mid: usize,
    end: usize,
    named: bool,
}

/// The distinct objects of a view: every accession and name back to back
/// in one string, and one [`Span`] an object.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ResolvedObjects {
    text: String,
    spans: Vec<Span>,
}

impl ResolvedObjects {
    /// Room for `objects` objects.
    pub(crate) fn with_capacity(objects: usize) -> Self {
        ResolvedObjects { text: String::new(), spans: Vec::with_capacity(objects) }
    }

    /// Append the next object; its index is the number pushed before it.
    pub(crate) fn push(&mut self, accession: &str, name: Option<&str>) {
        let start = self.text.len();
        self.text.push_str(accession);
        let mid = self.text.len();
        self.text.push_str(name.unwrap_or_default());
        let (end, named) = (self.text.len(), name.is_some());
        self.spans.push(Span { start, mid, end, named });
    }

    /// Object `k`'s accession and name; `None` for [`NULL`].
    fn get(&self, k: u32) -> Cell<'_> {
        let span = self.spans.get(k as usize)?;
        let name = span.named.then(|| &self.text[span.mid..span.end]);
        Some((&self.text[span.start..span.mid], name))
    }
}

/// One view row, borrowed from its [`ResolvedView`]; cells align with
/// [`ResolvedView::header`].
#[derive(Debug, Clone, Copy)]
pub struct ResolvedRow<'a> {
    objects: &'a ResolvedObjects,
    cells: &'a [u32],
}

impl<'a> ResolvedRow<'a> {
    /// The object in each column; `None` is a NULL.
    fn cells(self) -> impl Iterator<Item = Cell<'a>> {
        self.cells.iter().map(move |&k| self.objects.get(k))
    }

    /// Accession in column `i`, if present.
    pub fn cell_text(&self, i: usize) -> Option<&'a str> {
        self.cells().nth(i)?.map(|(accession, _)| accession)
    }

    /// Object name in column `i`, if present.
    pub fn cell_name(&self, i: usize) -> Option<&'a str> {
        self.cells().nth(i)??.1
    }
}

/// Export formats of a view: the REPL's `export` and the service's `view`
/// speak the same words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExportFormat {
    Tsv,
    Csv,
    Json,
    Markdown,
}

impl ExportFormat {
    /// The format a command word names (`tsv`, `csv`, `json`, `md` or
    /// `markdown`).
    pub fn parse(word: &str) -> Option<ExportFormat> {
        match word {
            "tsv" => Some(ExportFormat::Tsv),
            "csv" => Some(ExportFormat::Csv),
            "json" => Some(ExportFormat::Json),
            "md" | "markdown" => Some(ExportFormat::Markdown),
            _ => None,
        }
    }
}

/// A fully resolved annotation view: each distinct object of the view
/// resolved once, into one string, and a row-major grid of cells indexing
/// into them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedView {
    /// Column names: the source, then each target (paper Figure 3 uses
    /// the source names as column headers).
    header: Vec<String>,
    /// The view's distinct objects, in ascending object id.
    objects: ResolvedObjects,
    /// `header.len()` cells a row, each an index into `objects` or [`NULL`].
    cells: Vec<u32>,
}

impl ResolvedView {
    pub(crate) fn new(header: Vec<String>, objects: ResolvedObjects, cells: Vec<u32>) -> Self {
        ResolvedView { header, objects, cells }
    }

    /// Column names: the source, then each target.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// The rows, in view order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = ResolvedRow<'_>> {
        let objects = &self.objects;
        let rows = self.cells.chunks_exact(self.header.len().max(1));
        rows.map(move |cells| ResolvedRow { objects, cells })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows().len()
    }

    /// True if the view has no rows.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Distinct accessions of a column.
    pub fn column_accessions(&self, column: usize) -> Vec<&str> {
        let mut out: Vec<&str> = self.rows().filter_map(|r| r.cell_text(column)).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Export in the given format: TSV or CSV (RFC 4180 quoting) with one
    /// header line, a GitHub-flavored Markdown table, or a JSON array of
    /// objects keyed by header; a NULL cell is an empty field (`null` in
    /// JSON).
    pub fn render(&self, format: ExportFormat) -> gam::GamResult<String> {
        Ok(export(format, &self.header, self.export_cells()))
    }

    /// Export as TSV (one header line; NULLs as empty cells).
    pub fn to_tsv(&self) -> String {
        export(ExportFormat::Tsv, &self.header, self.export_cells())
    }

    /// Every cell, row after row, as the exports read it.
    fn export_cells(&self) -> impl Iterator<Item = Cell<'_>> {
        self.cells.iter().map(|&k| self.objects.get(k))
    }
}

/// One view cell as an export reads it: the object's accession and name,
/// or `None` for a NULL.
pub(crate) type Cell<'a> = Option<(&'a str, Option<&'a str>)>;

/// The one writer of every export format: `header`, then `cells` row after
/// row, `header.len()` cells a row.
///
/// * TSV and CSV: one header line, then one line per row, NULLs as empty
///   fields. CSV quotes minimally (RFC 4180: a field holding a comma, a
///   quote or a line break is quoted).
/// * Markdown: a GitHub-flavored table (NULLs as empty cells, `|` escaped
///   as `\|`) — handy for pasting views into lab notebooks and issue
///   trackers.
/// * JSON: plain RFC 8259 JSON, an array of objects keyed by header; NULL
///   cells are `null`, and a cell without a name omits `"text"`.
pub(crate) fn export<'a>(
    format: ExportFormat,
    header: &[String],
    cells: impl IntoIterator<Item = Cell<'a>>,
) -> String {
    let ([open, sep, close], field): ([&str; 3], fn(&mut String, &str)) = match format {
        ExportFormat::Tsv => (["", "\t", ""], String::push_str),
        ExportFormat::Csv => (["", ",", ""], csv_field),
        ExportFormat::Markdown => (["| ", " | ", " |"], markdown_field),
        ExportFormat::Json => return export_json(header, cells),
    };
    let arity = header.len().max(1);
    let put = |out: &mut String, column: usize, text: &str| {
        out.push_str(if column == 0 { open } else { sep });
        field(out, text);
        if column + 1 == arity {
            out.push_str(close);
            out.push('\n');
        }
    };
    let mut out = String::new();
    for (column, name) in header.iter().enumerate() {
        put(&mut out, column, name);
    }
    if format == ExportFormat::Markdown {
        out.push('|');
        out.push_str(&"---|".repeat(header.len()));
        out.push('\n');
    }
    for (i, cell) in cells.into_iter().enumerate() {
        put(&mut out, i % arity, cell.map_or("", |(accession, _)| accession));
    }
    out
}

fn export_json<'a>(header: &[String], cells: impl IntoIterator<Item = Cell<'a>>) -> String {
    let arity = header.len().max(1);
    let mut out = String::from("[");
    for (i, cell) in cells.into_iter().enumerate() {
        let column = i % arity;
        if column == 0 {
            out.push_str(if i == 0 { "\n  {" } else { ",\n  {" });
        } else {
            out.push(',');
        }
        out.push_str("\n    ");
        write_json_string(&mut out, header.get(column).map_or("", String::as_str));
        out.push_str(": ");
        match cell {
            Some((accession, text)) => {
                out.push_str("{\"accession\": ");
                write_json_string(&mut out, accession);
                if let Some(text) = text {
                    out.push_str(", \"text\": ");
                    write_json_string(&mut out, text);
                }
                out.push('}');
            }
            None => out.push_str("null"),
        }
        if column + 1 == arity {
            out.push_str("\n  }");
        }
    }
    out.push_str("\n]");
    out
}

fn csv_field(out: &mut String, s: &str) {
    if s.contains([',', '"', '\n', '\r']) {
        let _ = write!(out, "\"{}\"", s.replace('"', "\"\""));
    } else {
        out.push_str(s);
    }
}

fn markdown_field(out: &mut String, s: &str) {
    out.push_str(&s.replace('|', "\\|"));
}

/// Append `s` to `out` as a JSON string literal with RFC 8259 escaping.
fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Full information about one object (paper Figure 6c: "the user can
/// retrieve the names and other information of the corresponding
/// objects").
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectInfo {
    pub id: ObjectId,
    pub source: String,
    pub accession: String,
    pub text: Option<String>,
    pub number: Option<f64>,
    /// (mapping partner source, partner accession, evidence) of every
    /// association touching the object.
    pub associations: Vec<(String, String, Option<f64>)>,
}

/// The `info` body of the REPL and the service: one header line, then one
/// line per association.
impl std::fmt::Display for ObjectInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} ({}) name={:?} number={:?}",
            self.accession, self.source, self.text, self.number
        )?;
        for (partner_source, partner, evidence) in &self.associations {
            match evidence {
                Some(e) => writeln!(f, "  -> {partner_source}: {partner} (~{e:.2})")?,
                None => writeln!(f, "  -> {partner_source}: {partner}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two-row view the tests read, its objects replaced by `objects`.
    fn view_of(header: [&str; 2], objects: [(&str, Option<&str>); 3]) -> ResolvedView {
        let mut resolved = ResolvedObjects::default();
        for (accession, name) in objects {
            resolved.push(accession, name);
        }
        ResolvedView::new(header.map(String::from).to_vec(), resolved, vec![0, 2, 1, NULL])
    }

    fn view() -> ResolvedView {
        view_of(
            ["LocusLink", "GO"],
            [
                ("353", Some("adenine phosphoribosyltransferase")),
                ("1234", None),
                ("GO:0009116", Some("nucleoside metabolism")),
            ],
        )
    }

    #[test]
    fn accessors() {
        let v = view();
        assert_eq!(v.len(), 2);
        let rows: Vec<ResolvedRow> = v.rows().collect();
        assert_eq!(rows[0].cell_text(1), Some("GO:0009116"));
        assert_eq!(rows[0].cell_name(1), Some("nucleoside metabolism"));
        assert_eq!(rows[1].cell_text(0), Some("1234"));
        assert_eq!(rows[1].cell_name(0), None);
        assert_eq!(rows[1].cell_text(1), None);
        assert_eq!(rows[1].cell_text(2), None, "past the last column");
        assert_eq!(v.column_accessions(0), vec!["1234", "353"]);
    }

    #[test]
    fn tsv_export() {
        let tsv = view().to_tsv();
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines[0], "LocusLink\tGO");
        assert_eq!(lines[1], "353\tGO:0009116");
        assert_eq!(lines[2], "1234\t");
    }

    #[test]
    fn an_empty_name_is_a_name_and_an_empty_accession_stays_in_its_cell() {
        let v = view_of(["A", "B"], [("", Some("")), ("x", None), ("y", Some("why"))]);
        let rows: Vec<ResolvedRow> = v.rows().collect();
        assert_eq!((rows[0].cell_text(0), rows[0].cell_name(0)), (Some(""), Some("")));
        assert_eq!((rows[0].cell_text(1), rows[0].cell_name(1)), (Some("y"), Some("why")));
        assert_eq!((rows[1].cell_text(0), rows[1].cell_name(0)), (Some("x"), None));
    }

    #[test]
    fn csv_export_quotes_when_needed() {
        let v = view_of(["LocusLink", "GO"], [("a,b", None), ("say \"hi\"", None), ("GO:1\r", None)]);
        let csv = v.render(ExportFormat::Csv).unwrap();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""), "a quote is doubled inside quotes");
        assert!(csv.contains("\"GO:1\r\""), "a carriage return is quoted");
        assert!(csv.starts_with("LocusLink,GO\n"));
    }

    #[test]
    fn markdown_export() {
        let md = view().render(ExportFormat::Markdown).unwrap();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines[0], "| LocusLink | GO |");
        assert_eq!(lines[1], "|---|---|");
        assert_eq!(lines[2], "| 353 | GO:0009116 |");
        assert_eq!(lines[3], "| 1234 |  |");
    }

    #[test]
    fn markdown_export_escapes_pipes() {
        let v = view_of(
            ["LocusLink", "Swiss|Prot"],
            [("353", None), ("1234", None), ("sp|P12345|APRT_HUMAN", None)],
        );
        let md = v.render(ExportFormat::Markdown).unwrap();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines[0], "| LocusLink | Swiss\\|Prot |");
        assert_eq!(lines[2], "| 353 | sp\\|P12345\\|APRT_HUMAN |");
    }

    #[test]
    fn json_export() {
        // the whole document: NULL cells are `null`, and a cell without a
        // name omits "text" instead of writing null
        assert_eq!(
            view().render(ExportFormat::Json).unwrap(),
            r#"[
  {
    "LocusLink": {"accession": "353", "text": "adenine phosphoribosyltransferase"},
    "GO": {"accession": "GO:0009116", "text": "nucleoside metabolism"}
  },
  {
    "LocusLink": {"accession": "1234"},
    "GO": null
  }
]"#
        );
    }

    #[test]
    fn json_export_escapes_special_characters() {
        let v = view_of(
            ["LocusLink", "GO"],
            [("a\"b\\c", Some("line1\nline2\tend\u{1}")), ("1234", None), ("GO:1", None)],
        );
        let json = v.render(ExportFormat::Json).unwrap();
        assert!(json.contains("\"accession\": \"a\\\"b\\\\c\""));
        assert!(json.contains("\"text\": \"line1\\nline2\\tend\\u0001\""));
    }
}
