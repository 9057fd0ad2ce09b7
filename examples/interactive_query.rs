//! A scripted session of the interactive query interface (paper §5.1 and
//! Figure 6). The paper's web UI is a thin client over the operator API;
//! this example walks the same steps a user takes:
//!
//! 1. pick a source from the list of imported sources,
//! 2. paste the accessions of interest,
//! 3. pick targets; let GenMapper find mapping paths (or search for a
//!    path through a specific intermediate, or build and save one),
//! 4. choose AND/OR combination and negations,
//! 5. run GenerateView, inspect the annotation view,
//! 6. drill into object information, and export the result.
//!
//! Run with: `cargo run --example interactive_query`

use genmapper::{ExportFormat, GenMapper, QuerySpec, TargetQuery};
use sources::ecosystem::{Ecosystem, EcosystemParams};

fn main() {
    let eco = Ecosystem::generate(EcosystemParams::demo(1));
    let mut gm = GenMapper::in_memory().expect("store opens");
    gm.import_dumps(&eco.dumps).expect("pipeline runs");

    // Step 1: "the relevant source can be selected from the list of
    // currently imported sources".
    println!("=== Step 1: available sources ===");
    for source in gm.sources().expect("sources list") {
        println!(
            "  {:<24} {:<8} {:<8} release={}",
            source.name,
            source.content.to_string(),
            source.structure.to_string(),
            source.release.as_deref().unwrap_or("-")
        );
    }

    // Step 2: accessions of interest (pasted by the user).
    let accessions: Vec<String> = eco
        .universe
        .unigene
        .iter()
        .take(6)
        .map(|c| c.acc.clone())
        .collect();
    println!("\n=== Step 2: querying {} Unigene objects ===", accessions.len());
    for a in &accessions {
        println!("  {a}");
    }

    // Step 3: path discovery. "GenMapper is able to automatically
    // determine a mapping path to traverse from the source to any
    // specified target."
    println!("\n=== Step 3: mapping paths from Unigene to GO ===");
    let auto = gm.find_path("Unigene", "GO").expect("path found");
    println!("  automatic shortest path : {}", auto.join(" -> "));
    let alternatives = gm.find_paths("Unigene", "GO", 4).expect("alternatives");
    println!("  {} alternative path(s) in the source graph:", alternatives.len());
    for p in &alternatives {
        println!("    {}", p.join(" -> "));
    }
    // "the user can also search in the graph for specific paths, for
    // example, with a particular intermediate source" — and save them.
    gm.save_path("unigene-go-via-locuslink", &["Unigene", "LocusLink", "GO"])
        .expect("path saves");
    println!("  saved custom path 'unigene-go-via-locuslink'");

    // Step 4 + 5: the query of Figure 6a — Unigene objects with their GO
    // annotations and Hugo symbols, negating OMIM.
    println!("\n=== Steps 4-5: GenerateView ===");
    let accs: Vec<&str> = accessions.iter().map(String::as_str).collect();
    let spec = QuerySpec::source("Unigene")
        .accessions(accs)
        .target_spec(TargetQuery::new("GO").via(["Unigene", "LocusLink", "GO"]))
        .target_spec(TargetQuery::new("Hugo"))
        .target_spec(TargetQuery::new("OMIM").negated())
        .or();
    let view = gm.query(&spec).expect("view generates");
    println!("annotation view (Figure 6b), {} rows:", view.len());
    print!("{}", view.to_tsv());

    // Step 6: object information (Figure 6c) for the first result, and
    // the accession can seed a follow-up query ("the interesting
    // accessions among the retrieved ones can be selected to start a new
    // query").
    if let Some(acc) = view.rows().next().and_then(|r| r.cell_text(0)) {
        println!("\n=== Step 6: object information for {acc} (Figure 6c) ===");
        let info = gm.object_info("Unigene", acc).expect("info resolves");
        println!(
            "  accession {} name {:?}",
            info.accession, info.text
        );
        for (source, partner, _) in &info.associations {
            println!("    linked to {source}: {partner}");
        }

        // follow-up query seeded from the result
        let follow = QuerySpec::source("Unigene")
            .accessions([acc])
            .target("LocusLink");
        let follow_view = gm.query(&follow).expect("follow-up");
        println!("\nfollow-up query — the loci behind {acc}:");
        print!("{}", follow_view.to_tsv());
    }

    println!("\n=== export: download the view for external tools ===");
    println!("{}", view.render(ExportFormat::Csv).expect("view exports"));
}
