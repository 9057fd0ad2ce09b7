//! Flexible annotation views (paper Figure 3 and §4.2).
//!
//! Demonstrates the full `GenerateView` query surface on a mid-size
//! ecosystem: OR views, AND views, negation (NOT), target-subset
//! restriction, composed mapping paths, derived-mapping materialization,
//! and the three export formats.
//!
//! Run with: `cargo run --example annotation_view`

use genmapper::{ExportFormat, GenMapper, QuerySpec, TargetQuery};
use sources::ecosystem::{Ecosystem, EcosystemParams};

fn main() {
    let eco = Ecosystem::generate(EcosystemParams::demo(42));
    let mut gm = GenMapper::in_memory().expect("store opens");
    gm.import_dumps(&eco.dumps).expect("pipeline runs");

    // A handful of loci to annotate (first five of the generated chip).
    let loci: Vec<String> = eco.universe.loci.iter().take(5).map(|l| l.id.to_string()).collect();
    let accs: Vec<&str> = loci.iter().map(String::as_str).collect();

    // ------------------------------------------------------------------
    // Figure 3: an OR view over several annotation targets.
    // ------------------------------------------------------------------
    let spec = QuerySpec::source("LocusLink")
        .accessions(accs.clone())
        .target("Hugo")
        .target("GO")
        .target("Location")
        .target("OMIM")
        .or();
    let view = gm.query(&spec).expect("OR view");
    println!("--- OR view: all annotations, NULLs preserved (Figure 3) ---");
    print!("{}", view.to_tsv());

    // ------------------------------------------------------------------
    // §4.2's canonical query: genes at a given location, with a given GO
    // function, but NOT associated with any OMIM disease.
    // ------------------------------------------------------------------
    let location = eco.universe.locus_353().location.clone();
    let spec = QuerySpec::source("LocusLink")
        .target_spec(TargetQuery::new("Location").accessions([location.as_str()]))
        .target_spec(TargetQuery::new("GO"))
        .target_spec(TargetQuery::new("OMIM").negated())
        .and();
    let view = gm.query(&spec).expect("AND/NOT view");
    println!("\n--- AND view with negation: at {location}, GO-annotated, no OMIM disease ---");
    print!("{}", view.to_tsv());
    println!("({} rows)", view.len());

    // ------------------------------------------------------------------
    // Composed path: NetAffx probe sets annotated with GO functions.
    // There is no direct NetAffx-GO mapping; GenMapper discovers the
    // path and composes it (paper §5.1).
    // ------------------------------------------------------------------
    let path = gm.find_path("NetAffx", "GO").expect("path exists");
    println!("\n--- automatic mapping path: {} ---", path.join(" -> "));
    let probe = eco.universe.probesets[0].acc.clone();
    let spec = QuerySpec::source("NetAffx")
        .accessions([probe.as_str()])
        .target("GO")
        .and();
    let view = gm.query(&spec).expect("composed view");
    println!("GO annotations of probe set {probe} (via composition):");
    print!("{}", view.to_tsv());

    // ------------------------------------------------------------------
    // Materialize the composed mapping for repeated use (paper §2/§3:
    // derived relationships support frequent queries).
    // ------------------------------------------------------------------
    let path_refs: Vec<&str> = path.iter().map(String::as_str).collect();
    let (rel, n) = gm.materialize_composed(&path_refs).expect("materializes");
    println!("\nmaterialized composed mapping {rel} with {n} associations");
    let direct = gm.map("NetAffx", "GO").expect("now direct");
    println!("Map(NetAffx, GO) now answers directly with {} associations", direct.len());

    // ------------------------------------------------------------------
    // Exports (Figure 6: "saved and downloaded in different formats").
    // ------------------------------------------------------------------
    let spec = QuerySpec::source("LocusLink")
        .accessions(["353"])
        .target("Hugo")
        .target("GO");
    let view = gm.query(&spec).expect("export view");
    println!("\n--- the same view in three export formats ---");
    println!("TSV:\n{}", view.to_tsv());
    for (name, format) in [("CSV", ExportFormat::Csv), ("JSON", ExportFormat::Json)] {
        println!("{name}:\n{}", view.render(format).expect("view exports"));
    }
}
