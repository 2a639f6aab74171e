//! The corpus: every behaviour bucket ever reached, with the spec
//! that reached it first. Parents for the next generation are drawn
//! from here, so the map type matters: a `BTreeMap` keyed by
//! [`Signature`] gives deterministic iteration order, which keeps
//! parent selection — and therefore the whole campaign — a pure
//! function of the seed.

use crate::coverage::Signature;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;
use vi_scenario::{file_stem, ScenarioSpec};

/// One retained spec: the first reacher of its coverage bucket.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CorpusEntry {
    /// The coverage bucket this entry owns.
    pub signature: Signature,
    /// The retained spec.
    pub spec: ScenarioSpec,
    /// The seed it ran under.
    pub seed: u64,
    /// Campaign iteration that reached the bucket (0 = ancestor).
    pub iteration: u64,
}

/// The coverage map. First-reacher-wins: later specs hitting an owned
/// bucket are dropped, which biases the corpus toward small ancestors
/// — exactly the bias delta debugging wants.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Corpus {
    entries: BTreeMap<Signature, CorpusEntry>,
}

impl Corpus {
    /// An empty corpus.
    pub fn new() -> Self {
        Corpus::default()
    }

    /// Number of owned buckets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no bucket is owned yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts `entry` if its bucket is unowned; returns whether the
    /// bucket was new (= the mutation earned coverage).
    pub fn insert_if_new(&mut self, entry: CorpusEntry) -> bool {
        match self.entries.entry(entry.signature.clone()) {
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(entry);
                true
            }
            std::collections::btree_map::Entry::Occupied(_) => false,
        }
    }

    /// The `i`-th entry in deterministic (signature) order, wrapping —
    /// the campaign's parent selector.
    pub fn nth(&self, i: usize) -> Option<&CorpusEntry> {
        (!self.is_empty()).then(|| {
            self.entries
                .values()
                .nth(i % self.entries.len())
                .expect("index is wrapped")
        })
    }

    /// Iterates entries in deterministic order.
    pub fn entries(&self) -> impl Iterator<Item = &CorpusEntry> {
        self.entries.values()
    }

    /// Writes every entry as `<dir>/<signature-key>.json` (creating
    /// `dir`; the key goes through [`file_stem`]), the on-disk layout `repro fuzz --corpus-dir` reads
    /// back. One file per bucket keeps diffs reviewable and lets a
    /// minimized repro spec be lifted out with `jq .spec`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for entry in self.entries.values() {
            let json = serde_json::to_string(entry).expect("corpus entries serialize");
            let stem = file_stem(&entry.signature.key());
            std::fs::write(dir.join(format!("{stem}.json")), json)?;
        }
        Ok(())
    }

    /// Loads every `*.json` corpus entry under `dir`. Missing
    /// directories load as an empty corpus (a fresh campaign).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors and malformed entries.
    pub fn load(dir: &Path) -> Result<Self, String> {
        let mut corpus = Corpus::new();
        if !dir.exists() {
            return Ok(corpus);
        }
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .map_err(|e| format!("corpus dir {}: {e}", dir.display()))?
            .filter_map(|r| r.ok().map(|d| d.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
            .collect();
        paths.sort();
        for path in paths {
            let json = std::fs::read_to_string(&path)
                .map_err(|e| format!("corpus entry {}: {e}", path.display()))?;
            let entry: CorpusEntry = serde_json::from_str(&json)
                .map_err(|e| format!("corpus entry {}: {e}", path.display()))?;
            corpus.insert_if_new(entry);
        }
        Ok(corpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::Signature;
    use crate::gen::seed_corpus;
    use vi_scenario::EngineTuning;

    fn entry(spec: &ScenarioSpec, seed: u64) -> CorpusEntry {
        let outcome = spec.run_with(seed, EngineTuning::DEFAULT.with_telemetry());
        CorpusEntry {
            signature: Signature::of(&outcome),
            spec: spec.clone(),
            seed,
            iteration: 0,
        }
    }

    #[test]
    fn first_reacher_wins_and_order_is_deterministic() {
        let specs = seed_corpus();
        let mut corpus = Corpus::new();
        for spec in &specs {
            assert!(corpus.insert_if_new(entry(spec, 1)));
        }
        assert_eq!(corpus.len(), specs.len());
        // Re-inserting the same buckets earns nothing.
        for spec in &specs {
            assert!(!corpus.insert_if_new(entry(spec, 1)));
        }
        // Parent selection wraps deterministically.
        let a: Vec<String> = (0..8)
            .map(|i| corpus.nth(i).unwrap().spec.name.clone())
            .collect();
        let b: Vec<String> = (0..8)
            .map(|i| corpus.nth(i).unwrap().spec.name.clone())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn corpus_round_trips_through_a_directory() {
        let specs = seed_corpus();
        let mut corpus = Corpus::new();
        for spec in &specs {
            corpus.insert_if_new(entry(spec, 9));
        }
        let dir = std::env::temp_dir().join(format!("vi-fuzz-corpus-{}", std::process::id()));
        corpus.save(&dir).expect("save corpus");
        let back = Corpus::load(&dir).expect("load corpus");
        assert_eq!(back, corpus);
        std::fs::remove_dir_all(&dir).ok();
    }
}
