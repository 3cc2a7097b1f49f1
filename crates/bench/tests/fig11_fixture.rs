//! Figure 11's evaluation conditions as committed data.
//!
//! **Staleness gate** — `fixtures/fig11/specs.json` must be byte-identical
//! to what [`canopy_bench::fig11_specs`] generates in full mode at the
//! default seed, so the committed figure conditions can never drift
//! silently from what `figures fig11` runs. (That the scenario runner these
//! specs replay through matches `CcEnv` step for step is pinned by
//! `crates/scenarios/tests/driver_consistency.rs`.)

use std::fs;
use std::path::PathBuf;

use canopy_bench::{fig11_specs, DEFAULT_SEED};
use canopy_scenarios::ScenarioSpec;

#[test]
fn committed_fig11_specs_match_the_harness() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/fig11/specs.json");
    let text = fs::read_to_string(path).expect("committed fig11 fixture");
    let generated = fig11_specs(DEFAULT_SEED, false);
    let canonical = serde_json::to_string(&generated).expect("specs serialize");
    if text != canonical {
        let fresh = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("fig11_specs.json");
        fs::write(&fresh, &canonical).expect("scratch copy of the regenerated fixture");
        panic!(
            "fixtures/fig11/specs.json is stale; the regenerated fixture is at {}",
            fresh.display()
        );
    }
    // And every committed spec is independently valid and replayable.
    let parsed: Vec<ScenarioSpec> = serde_json::from_str(&text).expect("fixture parses");
    assert_eq!(parsed.len(), 21 * 2, "21 eval traces × (clean, noisy)");
    for spec in &parsed {
        spec.validate()
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert_eq!(spec.family, "fig11");
    }
    // Clean/noisy pairing, trace-major.
    for pair in parsed.chunks(2) {
        assert!(pair[0].noise.is_none(), "{}", pair[0].name);
        assert!(pair[1].noise.is_some(), "{}", pair[1].name);
    }
}
