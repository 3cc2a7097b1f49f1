//! Workload traces for the Canopy evaluation.
//!
//! Three families, mirroring Section 6.1 of the paper:
//!
//! * [`synthetic`] — 18 hand-constructed bandwidth programs with frequent,
//!   controlled variation (steps, square waves, spikes, ramps, seeded
//!   random processes), richer than SAGE-style traces.
//! * [`cellular`] — three Markov-modulated rate processes calibrated to the
//!   qualitative character of the AT&T / Verizon / T-Mobile LTE traces of
//!   Winstein et al. (highly variable, operator-specific mean and burst
//!   structure). The originals are measurement data we cannot ship; these
//!   generators exercise the same code paths with the same variability
//!   class, seeded for determinism.
//! * [`realworld`] — the nine-region global-testbed path model used for the
//!   paper's in-the-wild deployment (Fig. 12): per-region propagation RTTs
//!   in the 20–237 ms range and mildly jittered path bandwidth.

pub mod cellular;
pub mod realworld;
pub mod synthetic;

pub use realworld::{PathClass, PathConfig};

use canopy_netsim::BandwidthTrace;

/// Every evaluation trace: 18 synthetic plus 3 cellular (21 total, the
/// count used throughout Section 6).
pub fn all_eval_traces(seed: u64) -> Vec<BandwidthTrace> {
    let mut v = synthetic::all(seed);
    v.extend(cellular::all(seed));
    v
}

/// The 64-bit FNV-1a hash of `s`: the workspace's one stable string hash,
/// for seed separation and cache keys.
pub fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// Looks up any trace by its canonical name — an evaluation trace
/// (`syn-*`, `cell-*`) or a global-testbed path (`rw-<region>`) — so
/// scenario specs can reference the paper's base traces declaratively and
/// recreate them from `(name, seed)` alone.
pub fn by_name(name: &str, seed: u64) -> Option<BandwidthTrace> {
    if let Some(t) = synthetic::by_name(name, seed) {
        return Some(t);
    }
    if let Some(region) = name.strip_prefix("rw-") {
        return realworld::paths()
            .iter()
            .find(|p| p.region == region)
            .map(|p| p.trace(seed));
    }
    [cellular::ATT, cellular::VERIZON, cellular::TMOBILE]
        .iter()
        .find(|m| m.name == name)
        .map(|m| cellular::generate(m, seed, 60.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_one_eval_traces() {
        let traces = all_eval_traces(1);
        assert_eq!(traces.len(), 21);
        // Names are unique.
        let mut names: Vec<&str> = traces.iter().map(|t| t.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 21);
    }

    #[test]
    fn by_name_covers_every_eval_trace_and_testbed_path() {
        let paths = realworld::paths();
        let traces = all_eval_traces(7)
            .into_iter()
            .chain(paths.iter().map(|p| p.trace(7)));
        for t in traces {
            let again =
                by_name(t.name(), 7).unwrap_or_else(|| panic!("missing trace {}", t.name()));
            assert_eq!(again.segments(), t.segments(), "{}", t.name());
        }
        assert!(by_name("no-such-trace", 0).is_none());
        assert!(by_name("rw-Atlantis", 0).is_none());
    }
}
