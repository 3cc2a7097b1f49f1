//! Guards the committed robustness ledger: `ROBUSTNESS_ledger.json` is
//! the repository's permanent record of the hardening loop, so it must
//! stay schema-valid (and canonical, pinned with every other committed
//! artifact by the umbrella package's `tests/artifacts.rs`), its
//! hardening claim must hold (at least two hardened rounds shrink the
//! worst-case reward gap on at least half the fuzz families relative to
//! the unhardened round 0), and every fixture it references must exist in
//! the committed corpus.

use std::collections::BTreeSet;
use std::path::PathBuf;

use canopy_search::RobustnessLedger;
use canopy_telemetry::Artifact;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn committed_ledger() -> RobustnessLedger {
    RobustnessLedger::read(workspace_root().join("ROBUSTNESS_ledger.json"))
        .unwrap_or_else(|e| panic!("{e}"))
}

#[test]
fn committed_ledger_records_two_hardened_rounds() {
    let ledger = committed_ledger();
    assert!(
        ledger.last_round().is_some_and(|r| r >= 2),
        "ledger must record round 0 plus at least two hardened rounds"
    );
}

#[test]
fn hardened_rounds_shrink_the_worst_case_reward_gap() {
    let ledger = committed_ledger();
    let base: Vec<_> = ledger.round_entries(0).collect();
    assert!(!base.is_empty(), "round 0 (unhardened base) is missing");
    let families: BTreeSet<&str> = base.iter().map(|e| e.family.as_str()).collect();
    let last = ledger.last_round().unwrap();

    let mut improving_rounds = 0;
    for round in 1..=last {
        let entries: Vec<_> = ledger.round_entries(round).collect();
        let shrunk = families
            .iter()
            .filter(|family| {
                let gap = |es: &[&canopy_search::LedgerEntry]| {
                    es.iter()
                        .find(|e| e.family == **family)
                        .map(|e| e.reward_gap)
                };
                matches!((gap(&entries), gap(&base)), (Some(h), Some(b)) if h < b)
            })
            .count();
        if shrunk * 2 >= families.len() {
            improving_rounds += 1;
        }
    }
    assert!(
        improving_rounds >= 2,
        "need at least two hardened rounds shrinking the worst-case reward gap \
         on at least half of the {} families; got {improving_rounds}",
        families.len()
    );
}

#[test]
fn referenced_fixtures_exist_in_the_corpus() {
    let ledger = committed_ledger();
    let corpus = workspace_root().join("fixtures/adversarial");
    let mut referenced = 0;
    for entry in &ledger.entries {
        if let Some(name) = &entry.fixture {
            assert!(
                corpus.join(name).is_file(),
                "round {} references fixture {name}, which is not in the corpus",
                entry.round
            );
            assert!(
                entry.round >= 1,
                "{name}: fixtures are only committed from hardened rounds"
            );
            referenced += 1;
        }
    }
    assert!(
        referenced >= 1,
        "ledger must reference at least one committed fixture from a hardened round"
    );
}
