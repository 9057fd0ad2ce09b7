//! The correctness oracle: what the system must answer, computed from the
//! parsed EAV batches alone with ordered maps and nested loops. It shares
//! no code with `crates/` beyond the `EavBatch` input type — its own query
//! parser, its own import rules (paper §4.1), Map/Compose/GenerateView
//! (§4.2, Figure 5) and breadth-first path lengths.
//!
//! Answers are compared as header + sorted lines: the system orders rows
//! by internal object id, which the oracle does not model.

use eav::{EavBatch, EavRecord};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Fact,
    Similarity,
    IsA,
    Contains,
}

impl Kind {
    fn structural(self) -> bool {
        matches!(self, Kind::IsA | Kind::Contains)
    }
}

/// One source-level relationship with its object-level associations in
/// stored orientation; the first evidence written for a pair stays.
#[derive(Debug)]
struct Rel {
    s1: usize,
    s2: usize,
    kind: Kind,
    pairs: BTreeMap<(u32, u32), Option<f64>>,
}

#[derive(Debug)]
struct Object {
    source: usize,
    accession: String,
    text: Option<String>,
    number: Option<f64>,
}

/// `from -> to -> best effective evidence` of a merged mapping.
type Adjacency = BTreeMap<u32, BTreeMap<u32, f64>>;
/// `Map(S, T)` per source pair; `None` = no mapping stored.
type MapMemo = BTreeMap<(usize, usize), Option<std::rc::Rc<Adjacency>>>;
/// Answers `path <from> <to>` through the system under test.
pub type SystemPath<'a> = dyn FnMut(&str, &str) -> Result<Vec<String>, String> + 'a;

#[derive(Debug, Default)]
pub struct Model {
    sources: Vec<String>,
    releases: Vec<Option<String>>,
    source_ix: BTreeMap<String, usize>,
    by_accession: Vec<BTreeMap<String, u32>>,
    objects: Vec<Object>,
    rels: Vec<Rel>,
    /// Memo of [`Model::map`]; the model is frozen once queries start.
    maps: RefCell<MapMemo>,
}

/// The deployment cardinalities, as the system's `stats` prints them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cardinalities {
    pub sources: usize,
    pub objects: usize,
    pub mappings: usize,
    pub associations: usize,
}

impl std::fmt::Display for Cardinalities {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} sources, {} objects, {} mappings, {} associations",
            self.sources, self.objects, self.mappings, self.associations
        )
    }
}

fn wire_safe(accession: &str) -> bool {
    !accession.is_empty()
        && !accession.starts_with('!')
        && !accession
            .chars()
            .any(|c| c.is_whitespace() || matches!(c, ',' | '=' | '@'))
}

impl Model {
    /// The model after importing `batches` in order into an empty store.
    pub fn from_batches<'a>(batches: impl IntoIterator<Item = &'a EavBatch>) -> Model {
        let mut m = Model::default();
        for b in batches {
            m.apply(b);
        }
        m
    }

    fn source(&mut self, name: &str) -> usize {
        if let Some(&i) = self.source_ix.get(name) {
            return i;
        }
        let i = self.sources.len();
        self.sources.push(name.to_owned());
        self.releases.push(None);
        self.by_accession.push(BTreeMap::new());
        self.source_ix.insert(name.to_owned(), i);
        i
    }

    fn object(
        &mut self,
        source: usize,
        accession: &str,
        text: Option<&str>,
        number: Option<f64>,
    ) -> u32 {
        if let Some(&o) = self.by_accession[source].get(accession) {
            return o; // object-level dedup: the first writer's fields stay
        }
        let o = self.objects.len() as u32;
        self.objects.push(Object {
            source,
            accession: accession.to_owned(),
            text: text.map(str::to_owned),
            number,
        });
        self.by_accession[source].insert(accession.to_owned(), o);
        o
    }

    /// The relationship of `kind` between two sources in either stored
    /// orientation (created as `(a, b)` if absent) and whether `(a, b)`
    /// is its stored orientation.
    fn rel(&mut self, a: usize, b: usize, kind: Kind) -> (usize, bool) {
        for (want, forward) in [((a, b), true), ((b, a), false)] {
            if let Some(i) = self
                .rels
                .iter()
                .position(|r| (r.s1, r.s2) == want && r.kind == kind)
            {
                return (i, forward);
            }
        }
        self.rels.push(Rel {
            s1: a,
            s2: b,
            kind,
            pairs: BTreeMap::new(),
        });
        (self.rels.len() - 1, true)
    }

    /// Import one more batch (a new source, or a new release of one).
    pub fn apply(&mut self, batch: &EavBatch) {
        let sanitized;
        let batch = if batch.is_clean() {
            batch
        } else {
            let mut copy = batch.clone();
            copy.sanitize();
            sanitized = copy;
            &sanitized
        };
        let own = self.source(&batch.meta.name);
        if self.releases[own].as_deref() == Some(batch.meta.release.as_str()) {
            return; // source-level dedup
        }
        for p in &batch.meta.partitions {
            let part = self.source(&format!("{}.{}", batch.meta.name, p));
            self.rel(own, part, Kind::Contains);
        }
        // own objects: later Object records of one accession fill fields in
        let mut merged: BTreeMap<&str, (Option<&str>, Option<f64>)> = BTreeMap::new();
        for r in &batch.records {
            match r {
                EavRecord::Object {
                    accession,
                    text,
                    number,
                } => {
                    let e = merged.entry(accession).or_default();
                    if text.is_some() {
                        e.0 = text.as_deref();
                    }
                    if number.is_some() {
                        e.1 = *number;
                    }
                }
                EavRecord::Annotation { entity, .. } => {
                    merged.entry(entity).or_default();
                }
                EavRecord::IsA { child, parent } => {
                    merged.entry(child).or_default();
                    merged.entry(parent).or_default();
                }
            }
        }
        for (acc, (text, number)) in &merged {
            self.object(own, acc, *text, *number);
        }
        // annotations: one Fact and one Similarity mapping per target
        type Row<'r> = (&'r str, &'r str, Option<&'r str>, Option<f64>);
        let mut groups: BTreeMap<(&str, bool), Vec<Row<'_>>> = BTreeMap::new();
        for r in &batch.records {
            if let EavRecord::Annotation {
                entity,
                target,
                accession,
                text,
                evidence,
            } = r
            {
                groups
                    .entry((target, evidence.is_some()))
                    .or_default()
                    .push((entity, accession, text.as_deref(), *evidence));
            }
        }
        for ((target, scored), rows) in &groups {
            let t = self.source(target);
            let mut texts: BTreeMap<&str, Option<&str>> = BTreeMap::new();
            for (_, acc, text, _) in rows {
                let e = texts.entry(acc).or_default();
                if text.is_some() {
                    *e = *text;
                }
            }
            for (acc, text) in &texts {
                self.object(t, acc, *text, None);
            }
            let kind = if *scored {
                Kind::Similarity
            } else {
                Kind::Fact
            };
            let (rel, forward) = self.rel(own, t, kind);
            for (entity, acc, _, evidence) in rows {
                let from = self.by_accession[own][*entity];
                let to = self.by_accession[t][*acc];
                let pair = if forward { (from, to) } else { (to, from) };
                self.rels[rel].pairs.entry(pair).or_insert(*evidence);
            }
        }
        let mut isa = None;
        for r in &batch.records {
            if let EavRecord::IsA { child, parent } = r {
                let rel = *isa.get_or_insert_with(|| self.rel(own, own, Kind::IsA).0);
                let pair = (
                    self.by_accession[own][child.as_str()],
                    self.by_accession[own][parent.as_str()],
                );
                self.rels[rel].pairs.entry(pair).or_insert(None);
            }
        }
        self.releases[own] = Some(batch.meta.release.clone());
        self.maps.borrow_mut().clear();
    }

    pub fn cardinalities(&self) -> Cardinalities {
        Cardinalities {
            sources: self.sources.len(),
            objects: self.objects.len(),
            mappings: self.rels.len(),
            associations: self.rels.iter().map(|r| r.pairs.len()).sum(),
        }
    }

    pub fn source_names(&self) -> Vec<&str> {
        self.sources.iter().map(String::as_str).collect()
    }

    /// Accessions of `source` a request line can carry (sorted).
    pub fn wire_accessions(&self, source: &str) -> Vec<&str> {
        self.source_ix.get(source).map_or(Vec::new(), |&s| {
            self.by_accession[s]
                .keys()
                .map(String::as_str)
                .filter(|a| wire_safe(a))
                .collect()
        })
    }

    fn source_of(&self, name: &str) -> Result<usize, String> {
        self.source_ix
            .get(name)
            .copied()
            .ok_or_else(|| format!("oracle: unknown source {name}"))
    }

    /// `Map(S, T)`: every annotation mapping stored between the two
    /// sources, either orientation, merged; a duplicate pair keeps its
    /// best effective evidence (a fact counts 1.0). `None` = no mapping.
    fn map(&self, from: usize, to: usize) -> Option<std::rc::Rc<Adjacency>> {
        if let Some(hit) = self.maps.borrow().get(&(from, to)) {
            return hit.clone();
        }
        let mut adj = Adjacency::new();
        let mut any = false;
        for r in self.rels.iter().filter(|r| !r.kind.structural()) {
            let forward = (r.s1, r.s2) == (from, to);
            let backward = (r.s2, r.s1) == (from, to) && from != to;
            if !forward && !backward {
                continue;
            }
            any = true;
            for (&(o1, o2), ev) in &r.pairs {
                let (a, b) = if forward { (o1, o2) } else { (o2, o1) };
                let e = adj.entry(a).or_default().entry(b).or_insert(0.0);
                *e = e.max(ev.unwrap_or(1.0));
            }
        }
        let out = any.then(|| std::rc::Rc::new(adj));
        self.maps.borrow_mut().insert((from, to), out.clone());
        out
    }

    fn adjacent(&self, a: usize, b: usize) -> bool {
        a != b
            && self
                .rels
                .iter()
                .any(|r| !r.kind.structural() && ((r.s1, r.s2) == (a, b) || (r.s1, r.s2) == (b, a)))
    }

    /// Hops on a shortest mapping path, by breadth-first search.
    fn distance(&self, from: usize, to: usize) -> Option<usize> {
        let mut dist = vec![usize::MAX; self.sources.len()];
        dist[from] = 0;
        let mut queue = VecDeque::from([from]);
        while let Some(n) = queue.pop_front() {
            if n == to {
                return Some(dist[n]);
            }
            for next in 0..self.sources.len() {
                if dist[next] == usize::MAX && self.adjacent(n, next) {
                    dist[next] = dist[n] + 1;
                    queue.push_back(next);
                }
            }
        }
        None
    }

    /// A path the system reports must be a simple chain of stored mappings
    /// between the right endpoints.
    fn check_path(&self, path: &[&str], from: &str, to: &str) -> Result<Vec<usize>, String> {
        let ids = path
            .iter()
            .map(|n| self.source_of(n))
            .collect::<Result<Vec<_>, _>>()?;
        if path.first() != Some(&from) || path.last() != Some(&to) {
            return Err(format!("path {path:?} does not join {from} and {to}"));
        }
        if ids.iter().collect::<BTreeSet<_>>().len() != ids.len() {
            return Err(format!("path {path:?} repeats a source"));
        }
        for w in ids.windows(2) {
            if !self.adjacent(w[0], w[1]) {
                return Err(format!(
                    "path {path:?}: no mapping between {} and {}",
                    self.sources[w[0]], self.sources[w[1]]
                ));
            }
        }
        Ok(ids)
    }

    /// `Mi: S <-> T` restricted to the domain objects `s`: the stored
    /// mapping, or the composition along `path` (evidence multiplies,
    /// alternative routes keep the best).
    fn resolve(&self, path: &[usize], s: &BTreeSet<u32>) -> Result<Adjacency, String> {
        let mut cur: Adjacency = s.iter().map(|&o| (o, BTreeMap::from([(o, 1.0)]))).collect();
        for w in path.windows(2) {
            let step = self.map(w[0], w[1]).ok_or_else(|| {
                format!(
                    "oracle: no mapping {} -> {}",
                    self.sources[w[0]], self.sources[w[1]]
                )
            })?;
            let mut next = Adjacency::new();
            for (&origin, mids) in &cur {
                for (&mid, &e1) in mids {
                    for (&to, &e2) in step.get(&mid).into_iter().flatten() {
                        let e = next.entry(origin).or_default().entry(to).or_insert(0.0);
                        *e = e.max(e1 * e2);
                    }
                }
            }
            cur = next;
        }
        Ok(cur)
    }

    /// The body of `info <source> <accession>`.
    fn info(&self, source: &str, accession: &str) -> Result<String, String> {
        let s = self.source_of(source)?;
        let &o = self.by_accession[s]
            .get(accession)
            .ok_or_else(|| format!("oracle: unknown accession {accession} in {source}"))?;
        let obj = &self.objects[o as usize];
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} ({}) name={:?} number={:?}",
            obj.accession, source, obj.text, obj.number
        );
        for r in &self.rels {
            for (&(o1, o2), ev) in &r.pairs {
                for partner in [(o1 == o).then_some(o2), (o2 == o).then_some(o1)]
                    .into_iter()
                    .flatten()
                {
                    let p = &self.objects[partner as usize];
                    let _ = match ev {
                        Some(e) => writeln!(
                            out,
                            "  -> {}: {} (~{e:.2})",
                            self.sources[p.source], p.accession
                        ),
                        None => writeln!(out, "  -> {}: {}", self.sources[p.source], p.accession),
                    };
                }
            }
        }
        Ok(out)
    }

    /// The body of `query <words>` (GenerateView, Figure 5). `system_path`
    /// is asked for the mapping path of a target without a stored mapping;
    /// its answer is checked to be a valid shortest path before use.
    fn view(&self, words: &[&str], system_path: &mut SystemPath<'_>) -> Result<String, String> {
        let q = parse_query(words)?;
        let source = self.source_of(&q.source)?;
        let s: BTreeSet<u32> = if q.accessions.is_empty() {
            self.by_accession[source].values().copied().collect()
        } else {
            q.accessions
                .iter()
                .map(|a| {
                    self.by_accession[source]
                        .get(a)
                        .copied()
                        .ok_or_else(|| format!("oracle: unknown accession {a} in {}", q.source))
                })
                .collect::<Result<_, _>>()?
        };
        let mut rows: Vec<Vec<Option<u32>>> = s.iter().map(|&o| vec![Some(o)]).collect();
        let mut header = vec![q.source.clone()];
        for t in &q.targets {
            header.push(t.source.clone());
            let target = self.source_of(&t.source)?;
            let path = if self.map(source, target).is_some() {
                vec![source, target]
            } else {
                let reported = system_path(&q.source, &t.source)?;
                let names: Vec<&str> = reported.iter().map(String::as_str).collect();
                let ids = self.check_path(&names, &q.source, &t.source)?;
                if Some(ids.len() - 1) != self.distance(source, target) {
                    return Err(format!("path {names:?} is not a shortest path"));
                }
                ids
            };
            let mut mi = self.resolve(&path, &s)?;
            if let Some(floor) = t.min_evidence {
                for tos in mi.values_mut() {
                    tos.retain(|_, e| *e >= floor);
                }
            }
            let ti: Option<BTreeSet<u32>> = if t.accessions.is_empty() {
                None
            } else {
                Some(
                    t.accessions
                        .iter()
                        .map(|a| {
                            self.by_accession[target].get(a).copied().ok_or_else(|| {
                                format!("oracle: unknown accession {a} in {}", t.source)
                            })
                        })
                        .collect::<Result<_, _>>()?,
                )
            };
            // column: object -> values; present-with-no-values means NULL
            let mut column: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
            for &o in &s {
                let all: Vec<u32> = mi
                    .get(&o)
                    .map(|m| m.keys().copied().collect())
                    .unwrap_or_default();
                let restricted: Vec<u32> = all
                    .iter()
                    .copied()
                    .filter(|v| ti.as_ref().is_none_or(|t| t.contains(v)))
                    .collect();
                if t.negated {
                    if restricted.is_empty() {
                        column.insert(o, all);
                    }
                } else if !restricted.is_empty() {
                    column.insert(o, restricted);
                }
            }
            let mut next = Vec::new();
            for row in rows {
                let key = row[0].expect("the source column is never NULL");
                match column.get(&key) {
                    Some(values) if !values.is_empty() => {
                        for &v in values {
                            let mut r = row.clone();
                            r.push(Some(v));
                            next.push(r);
                        }
                    }
                    Some(_) => {
                        let mut r = row;
                        r.push(None);
                        next.push(r);
                    }
                    None if q.and => {}
                    None => {
                        let mut r = row;
                        r.push(None);
                        next.push(r);
                    }
                }
            }
            rows = next;
        }
        let mut out = header.join("\t");
        out.push('\n');
        for row in rows {
            let cells: Vec<&str> = row
                .iter()
                .map(|c| {
                    c.map(|o| self.objects[o as usize].accession.as_str())
                        .unwrap_or("")
                })
                .collect();
            out.push_str(&cells.join("\t"));
            out.push('\n');
        }
        Ok(out)
    }

    /// Check the system's `body` for request `line`. `system_path` answers
    /// `path <from> <to>` through the system under test.
    pub fn check(
        &self,
        line: &str,
        body: &str,
        system_path: &mut SystemPath<'_>,
    ) -> Result<(), String> {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["info", source, accession] => same_lines(&self.info(source, accession)?, body),
            ["query", rest @ ..] => same_lines(&self.view(rest, system_path)?, body),
            ["path", from, to] => {
                let path: Vec<&str> = body.trim_end().split(" -> ").collect();
                let ids = self.check_path(&path, from, to)?;
                if Some(ids.len() - 1) != self.distance(self.source_of(from)?, self.source_of(to)?)
                {
                    return Err(format!("path {path:?} is not a shortest path"));
                }
                Ok(())
            }
            ["paths", from, to, k] => {
                let k: usize = k.parse().map_err(|_| "bad k".to_owned())?;
                let lines: Vec<&str> = body.lines().collect();
                if lines.is_empty() || lines.len() > k {
                    return Err(format!("paths answered {} paths for k={k}", lines.len()));
                }
                if lines.iter().collect::<BTreeSet<_>>().len() != lines.len() {
                    return Err("paths repeated a path".to_owned());
                }
                for (i, l) in lines.iter().enumerate() {
                    let path: Vec<&str> = l.split(" -> ").collect();
                    let ids = self.check_path(&path, from, to)?;
                    if i == 0 && Some(ids.len() - 1) != self.distance(ids[0], ids[ids.len() - 1]) {
                        return Err(format!("first of paths {path:?} is not a shortest path"));
                    }
                }
                Ok(())
            }
            ["sources"] => {
                let got: BTreeSet<&str> =
                    body.lines().filter_map(|l| l.split('\t').next()).collect();
                let want: BTreeSet<&str> = self.sources.iter().map(String::as_str).collect();
                if got == want && body.lines().count() == want.len() {
                    Ok(())
                } else {
                    Err(format!(
                        "sources: {} listed, {} expected",
                        got.len(),
                        want.len()
                    ))
                }
            }
            ["stats"] => {
                let want = self.cardinalities().to_string();
                if body.lines().next() == Some(want.as_str()) {
                    Ok(())
                } else {
                    Err(format!(
                        "stats: got {:?}, want {want:?}",
                        body.lines().next()
                    ))
                }
            }
            _ => Err(format!("oracle cannot judge {line:?}")),
        }
    }
}

/// First line equal, remaining lines equal as multisets.
fn same_lines(want: &str, got: &str) -> Result<(), String> {
    let split = |s: &str| -> (String, Vec<String>) {
        let mut lines = s.lines().map(str::to_owned);
        let head = lines.next().unwrap_or_default();
        let mut rest: Vec<String> = lines.collect();
        rest.sort_unstable();
        (head, rest)
    };
    let (wh, wr) = split(want);
    let (gh, gr) = split(got);
    if wh != gh {
        return Err(format!("first line: got {gh:?}, want {wh:?}"));
    }
    if wr != gr {
        let missing = wr.iter().find(|l| !gr.contains(l));
        let extra = gr.iter().find(|l| !wr.contains(l));
        return Err(format!(
            "{} lines, want {}; first missing {missing:?}, first unexpected {extra:?}",
            gr.len(),
            wr.len()
        ));
    }
    Ok(())
}

struct Target {
    source: String,
    accessions: Vec<String>,
    negated: bool,
    min_evidence: Option<f64>,
}

struct Query {
    source: String,
    accessions: Vec<String>,
    and: bool,
    targets: Vec<Target>,
}

/// `<source>[:a1,a2] <and|or> [!]Target[=a1,a2][@floor] ...`
fn parse_query(words: &[&str]) -> Result<Query, String> {
    let list = |s: &str| {
        s.split(',')
            .filter(|a| !a.is_empty())
            .map(str::to_owned)
            .collect()
    };
    let [head, combine, specs @ ..] = words else {
        return Err("query needs a source, and|or, and targets".to_owned());
    };
    let (source, accessions) = match head.split_once(':') {
        Some((s, accs)) => (s.to_owned(), list(accs)),
        None => ((*head).to_owned(), Vec::new()),
    };
    let and = match *combine {
        "and" => true,
        "or" => false,
        other => return Err(format!("expected and|or, got {other:?}")),
    };
    let mut targets = Vec::new();
    for spec in specs {
        let (negated, body) = match spec.strip_prefix('!') {
            Some(b) => (true, b),
            None => (false, *spec),
        };
        let (body, min_evidence) = match body.split_once('@') {
            Some((b, f)) => (b, Some(f.parse::<f64>().map_err(|e| e.to_string())?)),
            None => (body, None),
        };
        let (name, accessions) = match body.split_once('=') {
            Some((n, accs)) => (n, list(accs)),
            None => (body, Vec::new()),
        };
        targets.push(Target {
            source: name.to_owned(),
            accessions,
            negated,
            min_evidence,
        });
    }
    if targets.is_empty() {
        return Err("query needs at least one target".to_owned());
    }
    Ok(Query {
        source,
        accessions,
        and,
        targets,
    })
}

/// 64-bit FNV-1a, for comparing a timed response with its verified first
/// answer without keeping the bodies.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use eav::SourceMeta;

    fn tiny() -> Model {
        let mut a = EavBatch::new(SourceMeta::flat_gene("A", "r1"));
        a.push(EavRecord::named_object("a1", "first"));
        a.push(EavRecord::annotation("a1", "B", "b1"));
        a.push(EavRecord::annotation("a1", "B", "b2"));
        a.push(EavRecord::annotation("a2", "B", "b2"));
        let mut c = EavBatch::new(SourceMeta::flat_gene("C", "r1"));
        c.push(EavRecord::similarity("c1", "B", "b2", 0.5));
        c.push(EavRecord::similarity("c2", "B", "b1", 0.9));
        Model::from_batches([&a, &c])
    }

    #[test]
    fn import_rules_dedup_sources_objects_and_pairs() {
        let mut m = tiny();
        let before = m.cardinalities();
        assert_eq!(
            before,
            Cardinalities {
                sources: 3,
                objects: 6,
                mappings: 2,
                associations: 5
            }
        );
        let mut again = EavBatch::new(SourceMeta::flat_gene("A", "r1"));
        again.push(EavRecord::annotation("a9", "B", "b9"));
        m.apply(&again); // same release: skipped whole
        assert_eq!(m.cardinalities(), before);
        let mut r2 = EavBatch::new(SourceMeta::flat_gene("A", "r2"));
        r2.push(EavRecord::annotation("a1", "B", "b1")); // known pair
        r2.push(EavRecord::annotation("a3", "B", "b1")); // new object + pair
        m.apply(&r2);
        let after = m.cardinalities();
        assert_eq!((after.objects, after.associations), (7, 6));
    }

    #[test]
    fn view_composes_negates_and_floors() {
        let m = tiny();
        let mut path =
            |from: &str, to: &str| Ok(vec![from.to_owned(), "B".to_owned(), to.to_owned()]);
        // A -> B -> C composed; a1 reaches c1 (0.5) and c2 (0.9), a2 only c1
        let all = m.view(&["A", "or", "C"], &mut path).unwrap();
        assert_eq!(all, "A\tC\na1\tc1\na1\tc2\na2\tc1\n");
        let floored = m.view(&["A", "or", "C@0.6"], &mut path).unwrap();
        assert_eq!(floored, "A\tC\na1\tc2\na2\t\n");
        let anded = m.view(&["A", "and", "C@0.6"], &mut path).unwrap();
        assert_eq!(anded, "A\tC\na1\tc2\n");
        // NOT keeps exactly the objects without the (restricted) annotation
        let negated = m.view(&["A", "and", "!B=b1"], &mut path).unwrap();
        assert_eq!(negated, "A\tB\na2\tb2\n");
        // a wrong path from the system is refused
        let mut bogus = |from: &str, to: &str| Ok(vec![from.to_owned(), to.to_owned()]);
        assert!(m.view(&["A", "or", "C"], &mut bogus).is_err());
    }

    #[test]
    fn check_judges_every_request_kind() {
        let m = tiny();
        let mut path =
            |from: &str, to: &str| Ok(vec![from.to_owned(), "B".to_owned(), to.to_owned()]);
        assert!(m
            .check(
                "info A a1",
                "a1 (A) name=Some(\"first\") number=None\n  -> B: b2\n  -> B: b1\n",
                &mut path
            )
            .is_ok());
        assert!(m
            .check(
                "info A a1",
                "a1 (A) name=Some(\"first\") number=None\n  -> B: b1\n",
                &mut path
            )
            .is_err());
        assert!(m.check("path A C", "A -> B -> C\n", &mut path).is_ok());
        assert!(m.check("path A C", "A -> C\n", &mut path).is_err());
        assert!(m.check("paths A C 2", "A -> B -> C\n", &mut path).is_ok());
        assert!(m
            .check(
                "stats",
                "3 sources, 6 objects, 2 mappings, 5 associations\nmore\n",
                &mut path
            )
            .is_ok());
        assert!(m
            .check(
                "stats",
                "3 sources, 6 objects, 2 mappings, 6 associations\n",
                &mut path
            )
            .is_err());
        assert!(m
            .check(
                "sources",
                "A\tGene\tFlat\nB\tOther\tFlat\nC\tGene\tFlat\n",
                &mut path
            )
            .is_ok());
        assert!(m
            .check("query A or C", "A\tC\na1\tc2\na1\tc1\na2\tc1\n", &mut path)
            .is_ok());
        assert!(m
            .check("query A or C", "A\tC\na1\tc2\na2\tc1\n", &mut path)
            .is_err());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
