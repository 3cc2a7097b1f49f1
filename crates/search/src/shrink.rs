//! Delta-debugging counterexample minimization.
//!
//! A search-found worst case is only useful as committed evaluation data
//! if a human can read it. The shrinker greedily applies
//! structure-removing transformations — drop a cross flow, drop an
//! impairment phase, clear observation noise, flatten one trace
//! combinator, halve the horizon — keeping a candidate only when the
//! objective violation survives (badness stays at or above the
//! threshold). The pass order and first-success acceptance are fixed, so
//! shrinking is deterministic; every accepted step is recorded by name
//! for the report.

use canopy_netsim::Time;
use canopy_scenarios::{ScenarioSpec, SpecError, TraceProgram};

/// Shrinking limits.
#[derive(Clone, Copy, Debug)]
pub struct ShrinkConfig {
    /// Maximum candidate evaluations the shrinker may spend.
    pub budget: usize,
    /// Horizons are never halved below this floor.
    pub min_duration: Time,
}

impl Default for ShrinkConfig {
    fn default() -> ShrinkConfig {
        ShrinkConfig {
            budget: 64,
            min_duration: Time::from_secs(2),
        }
    }
}

/// The minimized counterexample.
#[derive(Clone, Debug)]
pub struct ShrinkOutcome {
    /// The smallest spec still violating the objective.
    pub spec: ScenarioSpec,
    /// Its badness under the caller's objective.
    pub badness: f64,
    /// Candidate evaluations spent.
    pub evaluations: usize,
    /// Accepted transformation names, in application order.
    pub applied: Vec<String>,
}

/// All single-node combinator flattenings of a trace program: each entry
/// replaces exactly one interior node with (one of) its children.
fn flatten_one_step(p: &TraceProgram) -> Vec<TraceProgram> {
    fn with_child(
        out: &mut Vec<TraceProgram>,
        child: &TraceProgram,
        rebuild: impl Fn(TraceProgram) -> TraceProgram,
    ) {
        for c in flatten_one_step(child) {
            out.push(rebuild(c));
        }
    }
    let mut out = Vec::new();
    match p {
        TraceProgram::Named { .. }
        | TraceProgram::Constant { .. }
        | TraceProgram::SquareWave { .. } => {}
        TraceProgram::Scale { inner, factor } => {
            out.push((**inner).clone());
            let f = *factor;
            with_child(&mut out, inner, |c| TraceProgram::Scale {
                inner: Box::new(c),
                factor: f,
            });
        }
        TraceProgram::Shift { inner, delta_bps } => {
            out.push((**inner).clone());
            let d = *delta_bps;
            with_child(&mut out, inner, |c| TraceProgram::Shift {
                inner: Box::new(c),
                delta_bps: d,
            });
        }
        TraceProgram::Clamp {
            inner,
            min_bps,
            max_bps,
        } => {
            out.push((**inner).clone());
            let (lo, hi) = (*min_bps, *max_bps);
            with_child(&mut out, inner, |c| TraceProgram::Clamp {
                inner: Box::new(c),
                min_bps: lo,
                max_bps: hi,
            });
        }
        TraceProgram::Concat {
            first,
            second,
            loops,
        } => {
            out.push((**first).clone());
            out.push((**second).clone());
            let l = *loops;
            let s = second.clone();
            with_child(&mut out, first, |c| TraceProgram::Concat {
                first: Box::new(c),
                second: s.clone(),
                loops: l,
            });
            let f = first.clone();
            with_child(&mut out, second, |c| TraceProgram::Concat {
                first: f.clone(),
                second: Box::new(c),
                loops: l,
            });
        }
        TraceProgram::Splice {
            base,
            patch,
            at,
            len,
        } => {
            out.push((**base).clone());
            let (a, l) = (*at, *len);
            let pt = patch.clone();
            with_child(&mut out, base, |c| TraceProgram::Splice {
                base: Box::new(c),
                patch: pt.clone(),
                at: a,
                len: l,
            });
            let b = base.clone();
            with_child(&mut out, patch, |c| TraceProgram::Splice {
                base: b.clone(),
                patch: Box::new(c),
                at: a,
                len: l,
            });
        }
        TraceProgram::Periodic { inner, window } => {
            out.push((**inner).clone());
            let w = *window;
            with_child(&mut out, inner, |c| TraceProgram::Periodic {
                inner: Box::new(c),
                window: w,
            });
        }
    }
    out
}

/// The candidate simplifications of `spec`, most structural first. Each
/// is one step; the shrink loop re-derives candidates after every
/// acceptance.
fn candidates(spec: &ScenarioSpec, config: &ShrinkConfig) -> Vec<(String, ScenarioSpec)> {
    let mut out = Vec::new();
    // Later flows first, so surviving flows keep their indices.
    for i in (0..spec.cross_traffic.len()).rev() {
        let mut s = spec.clone();
        s.cross_traffic.remove(i);
        out.push((format!("drop-cross-flow-{i}"), s));
    }
    if let Some(sched) = &spec.impairments {
        for i in (0..sched.phases.len()).rev() {
            let mut s = spec.clone();
            let phases = &mut s
                .impairments
                .as_mut()
                .expect("cloned from a spec with impairments")
                .phases;
            phases.remove(i);
            if phases.is_empty() {
                s.impairments = None;
            }
            out.push((format!("drop-impairment-phase-{i}"), s));
        }
    }
    if spec.noise.is_some() {
        let mut s = spec.clone();
        s.noise = None;
        out.push(("clear-noise".to_string(), s));
    }
    for (i, flat) in flatten_one_step(&spec.trace).into_iter().enumerate() {
        let mut s = spec.clone();
        s.trace = flat;
        out.push((format!("flatten-combinator-{i}"), s));
    }
    let half = spec.duration.mul_f64(0.5);
    if half >= config.min_duration {
        let mut s = spec.clone();
        s.duration = half;
        out.push(("halve-duration".to_string(), s));
    }
    out
}

/// Minimizes `spec` while `badness(candidate) >= threshold` holds, under
/// the caller's objective closure. `start_badness` is the already-known
/// score of `spec` (not re-evaluated). Candidates that fail validation
/// are skipped without spending budget.
pub fn shrink<F>(
    spec: &ScenarioSpec,
    start_badness: f64,
    threshold: f64,
    config: &ShrinkConfig,
    badness: F,
) -> Result<ShrinkOutcome, SpecError>
where
    F: Fn(&ScenarioSpec) -> Result<f64, SpecError>,
{
    let mut current = spec.clone();
    let mut current_badness = start_badness;
    let mut evaluations = 0usize;
    let mut applied = Vec::new();

    'outer: loop {
        for (name, cand) in candidates(&current, config) {
            if evaluations >= config.budget {
                break 'outer;
            }
            if cand.validate().is_err() {
                continue;
            }
            let b = badness(&cand)?;
            evaluations += 1;
            if b >= threshold {
                current = cand;
                current_badness = b;
                applied.push(name);
                // Restart from the simplified spec: acceptance invalidates
                // the remaining candidate list.
                continue 'outer;
            }
        }
        break;
    }

    Ok(ShrinkOutcome {
        spec: current,
        badness: current_badness,
        evaluations,
        applied,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use canopy_scenarios::{generate, Family};

    fn structural_size(spec: &ScenarioSpec) -> usize {
        fn tree(p: &TraceProgram) -> usize {
            1 + match p {
                TraceProgram::Named { .. }
                | TraceProgram::Constant { .. }
                | TraceProgram::SquareWave { .. } => 0,
                TraceProgram::Scale { inner, .. }
                | TraceProgram::Shift { inner, .. }
                | TraceProgram::Clamp { inner, .. }
                | TraceProgram::Periodic { inner, .. } => tree(inner),
                TraceProgram::Concat { first, second, .. } => tree(first) + tree(second),
                TraceProgram::Splice { base, patch, .. } => tree(base) + tree(patch),
            }
        }
        tree(&spec.trace)
            + spec.cross_traffic.len()
            + spec.impairments.as_ref().map_or(0, |s| s.phases.len())
            + usize::from(spec.noise.is_some())
    }

    #[test]
    fn flattening_enumerates_every_interior_node() {
        let spec = generate(Family::CrossTrafficChurn, 0);
        // churn traces are Concat(Constant, SquareWave): 3 nodes, 2 leaves
        // → flattening offers exactly the two children.
        let flats = flatten_one_step(&spec.trace);
        assert_eq!(flats.len(), 2);
        let deep = generate(Family::BandwidthCliff, 0);
        // Splice(Constant, Constant): base and both-children rebuilds.
        assert!(!flatten_one_step(&deep.trace).is_empty());
    }

    #[test]
    fn shrink_removes_structure_a_permissive_predicate_allows() {
        // With an always-true predicate the shrinker must reach a fixpoint
        // of minimal structure: no cross traffic, no impairments, no
        // noise, a leaf trace, and a floored horizon.
        let spec = generate(Family::FlashCrowd, 2);
        assert!(!spec.cross_traffic.is_empty());
        let out = shrink(
            &spec,
            1.0,
            0.5,
            &ShrinkConfig {
                budget: 256,
                min_duration: Time::from_secs(2),
            },
            |_| Ok(1.0),
        )
        .expect("shrinks");
        assert!(out.spec.cross_traffic.is_empty(), "{:?}", out.applied);
        assert!(out.spec.noise.is_none());
        assert!(out.spec.impairments.is_none());
        assert!(matches!(
            out.spec.trace,
            TraceProgram::Named { .. }
                | TraceProgram::Constant { .. }
                | TraceProgram::SquareWave { .. }
        ));
        assert!(out.spec.duration < Time::from_secs(4));
        assert!(structural_size(&out.spec) < structural_size(&spec));
        assert!(out.spec.validate().is_ok());
        assert_eq!(out.badness, 1.0);
    }

    #[test]
    fn shrink_keeps_structure_the_predicate_needs() {
        // Predicate: violation holds only while ≥ 2 cross flows remain.
        let spec = generate(Family::FlashCrowd, 2);
        let n = spec.cross_traffic.len();
        assert!(n >= 3);
        let out = shrink(&spec, 1.0, 0.5, &ShrinkConfig::default(), |s| {
            Ok(if s.cross_traffic.len() >= 2 { 1.0 } else { 0.0 })
        })
        .expect("shrinks");
        assert_eq!(out.spec.cross_traffic.len(), 2, "{:?}", out.applied);
        assert!(out.badness >= 0.5);
    }

    #[test]
    fn shrink_respects_its_budget_and_is_deterministic() {
        let spec = generate(Family::JitterStorm, 1);
        let run = || {
            shrink(
                &spec,
                1.0,
                0.5,
                &ShrinkConfig {
                    budget: 5,
                    min_duration: Time::from_secs(2),
                },
                |s| Ok(s.duration.as_secs_f64() / 20.0),
            )
            .expect("shrinks")
        };
        let a = run();
        let b = run();
        assert!(a.evaluations <= 5);
        assert_eq!(a.spec.to_json(), b.spec.to_json());
        assert_eq!(a.applied, b.applied);
    }
}
