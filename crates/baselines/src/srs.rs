//! An SRS/DBGET-style per-source indexed store with link navigation.

use eav::{EavBatch, EavRecord};
use std::collections::{BTreeMap, BTreeSet};

/// One indexed entry of a source: its attributes and outgoing links.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SrsEntry {
    /// Display name, if the dump carried one.
    pub name: Option<String>,
    /// Cross-references: target source name → target accessions. These
    /// support *navigation* (one hop), not joins.
    pub links: BTreeMap<String, BTreeSet<String>>,
}

/// The answer of [`SrsStore::navigate_join`] and the work it took.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Navigation {
    /// Accessions of the source entries that reach the target accession.
    pub hits: Vec<String>,
    /// Entries fetched along the way, each source entry included.
    pub entries_visited: usize,
    /// Links (forward and back) followed from those entries.
    pub links_followed: usize,
}

/// The store: per source, an accession-indexed entry set plus an inverted
/// word index over entry names (SRS's queryable attributes).
#[derive(Debug, Default)]
pub struct SrsStore {
    sources: BTreeMap<String, BTreeMap<String, SrsEntry>>,
    /// source → word → accessions
    word_index: BTreeMap<String, BTreeMap<String, BTreeSet<String>>>,
    /// reverse links: target source → target accession → (origin source, origin accession)
    backlinks: BTreeMap<String, BTreeMap<String, BTreeSet<(String, String)>>>,
}

impl SrsStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index one parsed source (replicating it "as is").
    pub fn load(&mut self, batch: &EavBatch) {
        let source = self.sources.entry(batch.meta.name.clone()).or_default();
        let words = self.word_index.entry(batch.meta.name.clone()).or_default();
        for record in &batch.records {
            match record {
                EavRecord::Object {
                    accession, text, ..
                } => {
                    let entry = source.entry(accession.clone()).or_default();
                    if let Some(t) = text {
                        entry.name = Some(t.clone());
                        for word in t.split_whitespace() {
                            words
                                .entry(word.to_ascii_lowercase())
                                .or_default()
                                .insert(accession.clone());
                        }
                    }
                }
                EavRecord::Annotation {
                    entity,
                    target,
                    accession,
                    ..
                } => {
                    source
                        .entry(entity.clone())
                        .or_default()
                        .links
                        .entry(target.clone())
                        .or_default()
                        .insert(accession.clone());
                    self.backlinks
                        .entry(target.clone())
                        .or_default()
                        .entry(accession.clone())
                        .or_default()
                        .insert((batch.meta.name.clone(), entity.clone()));
                }
                EavRecord::IsA { .. } => {
                    // SRS indexes taxonomy entries but exposes no closure
                }
            }
        }
    }

    /// Names of loaded sources.
    pub fn source_names(&self) -> Vec<&str> {
        self.sources.keys().map(String::as_str).collect()
    }

    /// Entry lookup within one source (the supported query form).
    pub fn get(&self, source: &str, accession: &str) -> Option<&SrsEntry> {
        self.sources.get(source)?.get(accession)
    }

    /// Keyword query over one source's name words (the other supported
    /// query form). No cross-source joins exist.
    pub fn keyword_search(&self, source: &str, word: &str) -> Vec<&str> {
        self.word_index
            .get(source)
            .and_then(|w| w.get(&word.to_ascii_lowercase()))
            .map(|accs| accs.iter().map(String::as_str).collect())
            .unwrap_or_default()
    }

    /// Navigate one link hop from an entry ("cross-references can be
    /// utilized for interactive navigation").
    pub fn navigate(&self, source: &str, accession: &str, target: &str) -> Vec<&str> {
        self.get(source, accession)
            .and_then(|e| e.links.get(target))
            .map(|accs| accs.iter().map(String::as_str).collect())
            .unwrap_or_default()
    }

    /// Navigate a link backwards (who points at me?), as link-based
    /// browsers do.
    pub fn navigate_back(&self, target: &str, accession: &str) -> Vec<(&str, &str)> {
        self.backlinks
            .get(target)
            .and_then(|m| m.get(accession))
            .map(|set| {
                set.iter()
                    .map(|(s, a)| (s.as_str(), a.as_str()))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The client-side emulation of a join query: "which entries of
    /// `source` link (possibly through `hops` intermediate sources) to
    /// `target_accession` in `target`?" — answered by breadth-first link
    /// navigation. This is what a user of SRS must script by hand; the
    /// [`Navigation`] reports its fan-out beside the answer.
    pub fn navigate_join(
        &self,
        source: &str,
        path: &[&str],
        target_accession: &str,
    ) -> Navigation {
        let mut nav = Navigation::default();
        let Some(entries) = self.sources.get(source) else {
            return nav;
        };
        // for every entry, walk the path hop by hop (the fan-out)
        for (accession, _) in entries.iter() {
            let mut frontier: BTreeSet<(String, String)> =
                [(source.to_owned(), accession.clone())].into();
            for hop in path {
                let mut next = BTreeSet::new();
                for (src, acc) in &frontier {
                    nav.entries_visited += 1;
                    if let Some(entry) = self.get(src, acc) {
                        if let Some(links) = entry.links.get(*hop) {
                            for l in links {
                                nav.links_followed += 1;
                                next.insert(((*hop).to_owned(), l.clone()));
                            }
                        }
                    }
                    // links may also be stored on the hop side, pointing back
                    for (back_src, back_acc) in self.navigate_back(src, acc) {
                        if back_src == *hop {
                            nav.links_followed += 1;
                            next.insert((back_src.to_owned(), back_acc.to_owned()));
                        }
                    }
                }
                frontier = next;
                if frontier.is_empty() {
                    break;
                }
            }
            if frontier
                .iter()
                .any(|(_, acc)| acc == target_accession)
            {
                nav.hits.push(accession.clone());
            }
        }
        nav
    }

    /// Total indexed entries across sources.
    pub fn entry_count(&self) -> usize {
        self.sources.values().map(BTreeMap::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eav::SourceMeta;

    fn store() -> SrsStore {
        let mut s = SrsStore::new();
        let mut ll = EavBatch::new(SourceMeta::flat_gene("LocusLink", "r1"));
        ll.push(EavRecord::named_object("353", "adenine phosphoribosyltransferase"));
        ll.push(EavRecord::annotation("353", "GO", "GO:0009116"));
        ll.push(EavRecord::annotation("353", "Hugo", "APRT"));
        ll.push(EavRecord::object("999"));
        ll.push(EavRecord::annotation("999", "GO", "GO:0000001"));
        s.load(&ll);
        let mut ug = EavBatch::new(SourceMeta::flat_gene("Unigene", "b1"));
        ug.push(EavRecord::named_object("Hs.1", "cluster one"));
        ug.push(EavRecord::annotation("Hs.1", "LocusLink", "353"));
        s.load(&ug);
        s
    }

    #[test]
    fn per_source_lookup_and_keyword() {
        let s = store();
        assert_eq!(s.source_names(), vec!["LocusLink", "Unigene"]);
        let entry = s.get("LocusLink", "353").unwrap();
        assert_eq!(entry.name.as_deref(), Some("adenine phosphoribosyltransferase"));
        assert_eq!(s.keyword_search("LocusLink", "ADENINE"), vec!["353"]);
        assert!(s.keyword_search("LocusLink", "missing").is_empty());
        assert_eq!(s.entry_count(), 3);
    }

    #[test]
    fn navigation_one_hop() {
        let s = store();
        assert_eq!(s.navigate("LocusLink", "353", "GO"), vec!["GO:0009116"]);
        assert!(s.navigate("LocusLink", "353", "OMIM").is_empty());
        // backwards: who links to locus 353?
        let back = s.navigate_back("LocusLink", "353");
        assert!(back.contains(&("Unigene", "Hs.1")));
    }

    #[test]
    fn join_emulation_by_navigation() {
        let s = store();
        // Unigene clusters annotated (via LocusLink) with GO:0009116
        let nav = s.navigate_join("Unigene", &["LocusLink", "GO"], "GO:0009116");
        assert_eq!(nav.hits, vec!["Hs.1"]);
        // Hs.1, then locus 353 reached by its one link, which links on to
        // GO:0009116
        assert_eq!((nav.entries_visited, nav.links_followed), (2, 2));
        // a term only reachable from locus 999, which no cluster links to
        let nav = s.navigate_join("Unigene", &["LocusLink", "GO"], "GO:0000001");
        assert!(nav.hits.is_empty());
    }
}
