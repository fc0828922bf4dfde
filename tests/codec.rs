//! Codec round trip on a real document: a tuned entry written in the
//! binary store container (JSON header + packed rows) reads back
//! through [`TuningStore::get`] with every tree predicting
//! bit-identically at every candidate, and re-encodes to the same file
//! bytes. The header is the JSON encoding of the whole forest.

use acclaim::prelude::*;
use acclaim::store::EntryFormat;
use acclaim_core::all_candidates;
use std::path::PathBuf;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn binary_store_entry_reads_back_bit_identically() {
    let dir = temp_dir("acclaim-codec-binary-entry");
    let store = TuningStore::open(&dir).unwrap();
    let mut config = AcclaimConfig::new(FeatureSpace::tiny());
    config.learner.criterion =
        CriterionConfig::CumulativeVariance(VarianceConvergence::relative(4, 0.2));
    let db = BenchmarkDatabase::new(DatasetConfig::tiny());
    tune_with_store(
        &store,
        &config,
        &db,
        &[Collective::Allreduce],
        &Obs::disabled(),
    )
    .unwrap();
    let key = store.keys().unwrap().remove(0);
    let original = store.get(&key).unwrap().unwrap();

    store.put_with(&original, EntryFormat::Binary).unwrap();
    let path = store.root().join(format!("{key}.bin"));
    let bytes = std::fs::read(&path).unwrap();
    let entry = store.get(&key).unwrap().expect("binary entry reads back");

    let (a, b) = (&original.model, &entry.model);
    assert_eq!(a.n_trees(), b.n_trees());
    for c in all_candidates(Collective::Allreduce, &config.space) {
        let features = a.candidate_features(c.point, c.algorithm);
        for t in 0..a.n_trees() {
            let (pa, pb) = (
                a.tree_log_prediction(t, &features),
                b.tree_log_prediction(t, &features),
            );
            assert_eq!(pa.to_bits(), pb.to_bits(), "tree {t} drifted at {c:?}");
        }
    }
    assert_eq!(entry.samples.len(), original.samples.len());
    assert_eq!(
        serde_json::to_string(&entry).unwrap(),
        serde_json::to_string(&original).unwrap()
    );

    // Writing the decoded entry again reproduces the file byte for byte.
    store.put_with(&entry, EntryFormat::Binary).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), bytes);
    std::fs::remove_dir_all(&dir).ok();
}
