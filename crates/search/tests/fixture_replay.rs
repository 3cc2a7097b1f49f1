//! Replays every committed adversarial fixture: each discovered worst
//! case is permanent, reproducible evaluation data. For every JSON file
//! under `fixtures/adversarial/`, this suite re-trains the recorded model
//! (smoke budget — seconds, and cached under `target/canopy-models`),
//! re-scores the minimized spec with the recorded objective, and requires
//! the violation to reproduce at or above the fixture's replay threshold.

use std::fs;
use std::path::PathBuf;

use canopy_scenarios::Family;
use canopy_search::{load_corpus, AdversarialFixture};
use canopy_telemetry::Artifact;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn corpus_dir() -> PathBuf {
    workspace_root().join("fixtures/adversarial")
}

/// The committed corpus, through the loader the hardening loop trains on,
/// so the corpus the tests replay is exactly the corpus `harden` reads.
fn corpus() -> Vec<AdversarialFixture> {
    load_corpus(corpus_dir()).unwrap_or_else(|e| panic!("{e}"))
}

#[test]
fn discovery_rejects_stray_corpus_entries() {
    let dir = std::env::temp_dir().join("canopy-corpus-stray-test");
    let _ = fs::remove_dir_all(&dir);
    let empty = load_corpus(&dir).expect("a missing directory is an empty corpus");
    assert!(empty.is_empty());
    fs::create_dir_all(&dir).expect("temp corpus dir");
    fs::write(dir.join("notes.txt"), "scratch").expect("stray file");
    assert!(load_corpus(&dir).is_err(), "a non-.json entry must fail");

    fs::remove_file(dir.join("notes.txt")).expect("cleanup stray");
    fs::create_dir_all(dir.join("nested.json")).expect("dir with json name");
    assert!(load_corpus(&dir).is_err(), "a directory must fail");

    // A file that parses as JSON but not as a fixture is an error, not a
    // skip.
    fs::remove_dir_all(dir.join("nested.json")).expect("cleanup nested");
    fs::write(dir.join("other.json"), "{\"schema\":\"other/v1\"}").expect("foreign json");
    assert!(load_corpus(&dir).is_err(), "a schema mismatch must fail");

    // The sanctioned traces/ subdirectory is invisible to discovery.
    fs::remove_file(dir.join("other.json")).expect("cleanup foreign json");
    fs::create_dir_all(dir.join("traces")).expect("traces dir");
    fs::write(dir.join("traces/x.trace.json"), "{}").expect("trace file");
    let traced = load_corpus(&dir).expect("traces/ must be skipped");
    assert!(traced.is_empty());

    // A file named as the corpus directory is an error, not an empty
    // corpus.
    assert!(load_corpus(dir.join("traces/x.trace.json")).is_err());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn committed_fixtures_are_canonical_and_valid() {
    let corpus = corpus();
    assert!(!corpus.is_empty(), "no committed adversarial fixtures");
    let mut names: Vec<String> = corpus.iter().map(AdversarialFixture::file_name).collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), corpus.len(), "two files hold one fixture");
    for fixture in &corpus {
        // Every fixture sits under its canonical name (with the names
        // unique, no file is misnamed). That each file is the canonical
        // bytes of its fixture is the umbrella package's
        // `tests/artifacts.rs`, with every other committed artifact.
        let path = corpus_dir().join(fixture.file_name());
        assert!(path.is_file(), "{} is misnamed", path.display());
        assert!(
            fixture.smoke_model,
            "{}: committed fixtures must use the smoke model so replay stays fast",
            path.display()
        );
    }
}

#[test]
fn committed_fixtures_replay_their_violations() {
    let cache = workspace_root().join("target/canopy-models");
    for fixture in corpus() {
        let name = fixture.file_name();
        // The recorded model (kind, seed and budget class) with the
        // recorded certification setup: the violation is only meaningful
        // against the model it was found on. (Committed fixtures are
        // smoke-budget by the canonicality test above, so this stays
        // seconds-fast.)
        let objective = fixture
            .objective(&cache)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let family = Family::parse(&fixture.family).expect("known family");
        let rebuilt = AdversarialFixture::new(
            family,
            &objective,
            fixture.model_seed,
            fixture.smoke_model,
            fixture.search_seed,
            fixture.recorded_badness,
            fixture.spec.clone(),
        );
        assert_eq!(
            rebuilt.to_json(),
            fixture.to_json(),
            "{name}: not what AdversarialFixture::new writes for this find"
        );

        let badness = objective
            .badness(&fixture.spec)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            badness >= fixture.replay_threshold,
            "{name}: replayed badness {badness} fell below the committed threshold {} \
             (recorded {}) — the regression no longer reproduces",
            fixture.replay_threshold,
            fixture.recorded_badness
        );
    }
}
