//! Source evolution: incremental re-import of a new release and release
//! diffing of the affected mappings.
//!
//! The paper's central maintenance claim (§1): the generic model "is
//! robust against changes in the external sources thereby supporting easy
//! maintenance", and §4.1: "re-importing LocusLink only requires to relate
//! the new LocusLink objects with the existing GO terms". This example
//! simulates a LocusLink release upgrade: some loci gain GO annotations,
//! some are newly curated — then shows what the importer deduplicated and
//! what a diff of the mapping's (locus, term) pairs reports as new.
//!
//! Run with: `cargo run --example release_update`

use eav::EavRecord;
use gam::{MappingIndex, ObjectId};
use genmapper::{GenMapper, QuerySpec};
use sources::ecosystem::{Ecosystem, EcosystemParams};
use std::collections::BTreeSet;

/// A mapping's (from, to) pairs, for diffing two releases of it.
fn pairs(mapping: &MappingIndex) -> BTreeSet<(ObjectId, ObjectId)> {
    mapping.iter().map(|a| (a.from, a.to)).collect()
}

fn main() {
    let eco = Ecosystem::generate(EcosystemParams::demo(99));
    let mut gm = GenMapper::in_memory().expect("store opens");
    gm.import_dumps(&eco.dumps).expect("pipeline runs");
    println!("initial state: {}", gm.cardinalities().expect("stats"));

    // the mapping as of release 1
    let old_locus_go = gm.map("LocusLink", "GO").expect("mapping exists");
    println!(
        "LocusLink->GO mapping at release 2003-10: {} associations",
        old_locus_go.len()
    );

    // ------------------------------------------------------------------
    // Release 2004-01 arrives: every existing record is still in the dump
    // (unchanged), two loci gain a new GO annotation, one locus is new.
    // ------------------------------------------------------------------
    let mut release2 = eco.dumps[0].parse().expect("parses");
    release2.meta.release = "2004-01".into();
    release2.push(EavRecord::annotation("353", "GO", "GO:0010001"));
    let second = eco.universe.loci[1].id.to_string();
    release2.push(EavRecord::annotation(&second, "GO", "GO:0009116"));
    release2.push(EavRecord::named_object("777001", "newly curated gene"));
    release2.push(EavRecord::annotation_with_text(
        "777001",
        "GO",
        "GO:0009116",
        "nucleoside metabolism",
    ));

    let report = gm.import_batch(&release2).expect("incremental import");
    println!("\nincremental re-import of release 2004-01:");
    println!("  {report}");
    println!(
        "  (the {} deduplicated objects and {} deduplicated associations are\n   the unchanged bulk of the dump — only the delta was inserted)",
        report.objects_deduped, report.associations_deduped
    );

    // ------------------------------------------------------------------
    // Release diff at the mapping level, over the two releases' pairs.
    // ------------------------------------------------------------------
    let new_locus_go = gm.map("LocusLink", "GO").expect("mapping exists");
    let (old_pairs, new_pairs) = (pairs(&old_locus_go), pairs(&new_locus_go));
    let added: Vec<_> = new_pairs.difference(&old_pairs).collect();
    let removed = old_pairs.difference(&new_pairs).count();
    println!("\nmapping diff LocusLink->GO (2004-01 vs 2003-10):");
    println!("  +{} associations, -{} associations", added.len(), removed);
    for &&(from, to) in &added {
        let locus = gm.store().get_object(from).expect("object");
        let term = gm.store().get_object(to).expect("object");
        println!("  + {} -> {}", locus.accession, term.accession);
    }

    // the new gene is immediately queryable across existing sources
    let view = gm
        .query(
            &QuerySpec::source("LocusLink")
                .accessions(["777001"])
                .target("GO")
                .or(),
        )
        .expect("view");
    println!("\nannotation view for the newly curated gene:");
    print!("{}", view.to_tsv());

    // and the unchanged release is skipped entirely on a repeat run
    let repeat = gm.import_batch(&release2).expect("repeat import");
    println!("\nrepeat import of 2004-01: skipped = {}", repeat.skipped);
}
