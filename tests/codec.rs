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

/// The refit working set lives beside a model, never inside it: a model
/// read back from a JSON or binary store entry refits (starting a fresh
/// working set) to exactly the trees of the same model refit while
/// keeping its working set, and of a scratch fit; and a model refit with
/// a working set serializes to the same forest and entry bytes as one
/// that never had one.
#[test]
fn store_round_tripped_model_refits_without_its_working_set() {
    let dir = temp_dir("acclaim-codec-working-set");
    let store = TuningStore::open(&dir).unwrap();
    let mut config = AcclaimConfig::new(FeatureSpace::tiny());
    config.learner.criterion =
        CriterionConfig::CumulativeVariance(VarianceConvergence::relative(4, 0.2));
    let forest = config.learner.forest;
    let db = BenchmarkDatabase::new(DatasetConfig::tiny());
    let collective = Collective::Bcast;
    tune_with_store(&store, &config, &db, &[collective], &Obs::disabled()).unwrap();
    let key = store.keys().unwrap().remove(0);
    let entry = store.get(&key).unwrap().unwrap();
    let samples = entry.samples.clone();
    let n = samples.len();
    assert!(n > 8, "tune collected too few rows ({n})");

    // The same rows, fitted then refit with one working set kept.
    let mut kept = PerfModel::fit(collective, &samples[..n - 6], &forest);
    let mut ws = RefitWorkingSet::default();
    for upto in [n - 4, n - 3, n] {
        kept.fit_incremental(&samples[..upto], &forest, &mut ws);
    }
    let forest_json = |m: &PerfModel| serde_json::to_string(m.forest()).unwrap();
    let scratch = PerfModel::fit(collective, &samples, &forest);
    assert_eq!(forest_json(&kept), forest_json(&scratch));
    assert_eq!(forest_json(&kept), forest_json(&entry.model));
    let bytes_of = |model: &PerfModel, format: EntryFormat| {
        let e = StoreEntry {
            model: model.clone(),
            ..entry.clone()
        };
        store.put_with(&e, format).unwrap();
        let ext = if format == EntryFormat::Binary {
            "bin"
        } else {
            "json"
        };
        std::fs::read(store.root().join(format!("{key}.{ext}"))).unwrap()
    };
    let mut read_back = Vec::new();
    for format in [EntryFormat::Json, EntryFormat::Binary] {
        assert_eq!(
            bytes_of(&kept, format),
            bytes_of(&scratch, format),
            "{format:?}"
        );
        read_back.push(store.get(&key).unwrap().unwrap().model);
    }

    // Append a batch: repeats of collected rows with new times, plus
    // rows at every algorithm of one point.
    let mut extended = samples.clone();
    for (i, s) in samples.iter().take(3).enumerate() {
        extended.push(TrainingSample {
            time_us: s.time_us * (1.1 + 0.1 * i as f64),
            ..*s
        });
    }
    let point = FeatureSpace::tiny().points()[1];
    for &a in collective.algorithms() {
        extended.push(TrainingSample {
            point,
            algorithm: a,
            time_us: db.time(a, point),
        });
    }
    kept.fit_incremental(&extended, &forest, &mut ws);
    let scratch = PerfModel::fit(collective, &extended, &forest);
    for mut model in read_back {
        model.fit_incremental(&extended, &forest, &mut RefitWorkingSet::default());
        for c in all_candidates(collective, &config.space) {
            let features = model.candidate_features(c.point, c.algorithm);
            for t in 0..model.n_trees() {
                let bits = model.tree_log_prediction(t, &features).to_bits();
                assert_eq!(bits, kept.tree_log_prediction(t, &features).to_bits());
                assert_eq!(bits, scratch.tree_log_prediction(t, &features).to_bits());
            }
        }
        assert_eq!(forest_json(&model), forest_json(&scratch));
    }
    assert_eq!(forest_json(&kept), forest_json(&scratch));
    std::fs::remove_dir_all(&dir).ok();
}
