//! What every workload provides, and the two passes the benchmark makes
//! over it: the untraced pass that yields the end-to-end metrics and the
//! traced pass that yields the per-layer ones.

use std::collections::BTreeMap;

use crate::harness::{median, quartiles, Rep, Tally, Tracer};

/// Inputs every workload derives its own inputs from.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// The workload seed: actor weights, trainer and search seeds, the
    /// harvested contexts all follow from it.
    pub seed: u64,
    /// Run at about a twentieth of the full size.
    pub smoke: bool,
    /// `CANOPY_THREADS` in effect (`min(nproc, 2)`).
    pub threads: usize,
}

/// Per-layer metrics by name; names absent from a workload's map read 0.
pub type Layers = BTreeMap<&'static str, f64>;

pub trait Workload: Sized {
    /// Everything before the warm-up rep: model build or training, context
    /// harvest, spec generation, the first `Fleet::new`.
    fn setup(params: &Params) -> Self;

    /// One rep of identical work on fresh state; the state is built
    /// outside the timed region.
    fn rep(&self) -> Rep;

    /// Untimed reps of the same work through another public path or at
    /// another thread count. Each must reproduce the timed reps' digest.
    fn invariance_reps(&self) -> Vec<Rep>;

    /// The traced pass: the benchmark owns the loop and spans every public
    /// call, for about `seconds`. `reference` is an untraced rep's result,
    /// which the replica must reproduce. Returns what was attempted.
    fn traced(
        &self,
        seconds: f64,
        reference: &Rep,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Tally;
}

/// Health of the instrument itself, from the traced reps: how many there
/// were and how they spread, what the spans cost against the untraced call
/// (`untraced_rep_s`), whether the replica still computes what the real
/// call computes, and how much of each rep its layer spans account for.
pub fn instrument_health(
    layers: &mut Layers,
    traced_rep_s: &[f64],
    untraced_rep_s: f64,
    divergence: f64,
    tracer: &Tracer,
) {
    let (q1, _, q3) = quartiles(traced_rep_s);
    let rep_total_s = tracer.total_s("rep");
    let rep_self_s = tracer
        .self_times()
        .iter()
        .find(|(name, _)| *name == "rep")
        .map_or(0.0, |(_, s)| *s);
    layers.insert("bench.reps", traced_rep_s.len() as f64);
    layers.insert("bench.rep_s_q1", q1);
    layers.insert("bench.rep_s_q3", q3);
    layers.insert(
        "bench.trace_overhead_ratio",
        median(traced_rep_s) / untraced_rep_s,
    );
    layers.insert("bench.trace_divergence", divergence);
    layers.insert("bench.span_coverage", 1.0 - rep_self_s / rep_total_s);
}
