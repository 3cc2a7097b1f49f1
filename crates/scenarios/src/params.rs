//! Family parameter spaces: each family's decoder is the one statement of
//! its layout, behind both the seeded generator and adversarial search.
//!
//! Every fuzz family is a *parametric* scenario template: a fixed sequence
//! of bounded reads (trace-combinator knobs, buffer depth, impairment-phase
//! timing, flow-schedule offsets) that a decoder turns into a
//! [`ScenarioSpec`]. Each read states its own bounds as it is made —
//! `cont(lo, hi)`, `int(lo, hi)`, `pick(&LIST)`, `coin()` — and clamps
//! (integers also round), so the decoder is the only place a parameter's
//! position, range and kind are written. Where the values come from is the
//! cursor's source:
//!
//! * [`draw`] — a uniform draw within each read's bounds from a seeded
//!   [`StdRng`]: the distribution behind
//!   [`generate`](crate::gen::generate);
//! * [`decode_unit`] — one unit-cube coordinate per read, mapped affinely
//!   onto the read's bounds: the point adversarial search proposes;
//! * [`dims`] — every read at its lower bound, counting the reads.
//!
//! So `generate(family, seed)` and a search loop exploring the same space
//! produce specs of identical shape by construction — a counterexample
//! found by search is just another point of the family, committable and
//! reproducible like any fuzzed scenario.
//!
//! Variable-length structure (competitor flows, storm phases) is encoded
//! with a fixed maximum: a decoder reads every slot, and an "active count"
//! read decides how many land in the spec.

use rand::rngs::StdRng;
use rand::Rng;

use canopy_core::env::NoiseConfig;
use canopy_netsim::link::{ImpairmentPhase, ImpairmentSchedule};
use canopy_netsim::Time;

use crate::gen::Family;
use crate::spec::{CrossFlow, ScenarioSpec, TopologySpec, TraceProgram};

const MBPS: f64 = 1e6;

/// Base traces sturdy enough to carry cross-traffic (deterministic,
/// tens of Mbps).
pub(crate) const WIDE_BASES: &[&str] = &["syn-plateau-dip", "syn-step-up", "syn-square-slow"];

const CELL_BASES: &[&str] = &["cell-att-lte", "cell-verizon-lte", "cell-tmobile-lte"];

/// Maximum competitor slots carried by the flash-crowd vector.
const FLASH_CROWD_MAX_FLOWS: u64 = 6;
/// Maximum competitor slots carried by the churn vector.
const CHURN_MAX_FLOWS: u64 = 5;
/// Maximum storm slots carried by the jitter-storm vector.
const STORM_MAX: u64 = 2;
/// Maximum sender slots carried by the incast-burst vector.
const INCAST_MAX_SENDERS: u64 = 6;
/// Maximum hop count (and thus competitor slots: one per hop) carried by
/// the parking-lot vector.
const LOT_MAX_HOPS: u64 = 5;

/// Where a decoder's reads take their values.
enum Source<'a> {
    /// Uniform within each read's bounds (integers over the inclusive
    /// range).
    Draw(&'a mut StdRng),
    /// One unit-cube coordinate per read; out-of-cube coordinates clamp
    /// into `[0, 1]` and non-finite ones land on 0.
    Unit(&'a [f64]),
    /// Every read at its lower bound.
    Lower,
}

/// The cursor a family decoder reads its parameters through.
struct Params<'a> {
    source: Source<'a>,
    reads: usize,
}

impl Params<'_> {
    /// The next value in `[lo, hi]`: clamped (a non-finite value lands on
    /// `lo`) and, for an integer read, rounded.
    fn read(&mut self, lo: f64, hi: f64, int: bool) -> f64 {
        let x = match &mut self.source {
            Source::Draw(rng) if int => rng.random_range(lo as u64..=hi as u64) as f64,
            Source::Draw(rng) => rng.random_range(lo..hi),
            Source::Unit(unit) => {
                let u = unit.get(self.reads).copied().unwrap_or(f64::NAN);
                let u = if u.is_finite() {
                    u.clamp(0.0, 1.0)
                } else {
                    0.0
                };
                lo + u * (hi - lo)
            }
            Source::Lower => lo,
        };
        self.reads += 1;
        let x = if x.is_finite() { x.clamp(lo, hi) } else { lo };
        if int {
            x.round().clamp(lo, hi)
        } else {
            x
        }
    }

    /// A real in `[lo, hi]` (a draw covers `[lo, hi)`).
    fn cont(&mut self, lo: f64, hi: f64) -> f64 {
        self.read(lo, hi, false)
    }

    /// An integer in `[lo, hi]`.
    fn int(&mut self, lo: u64, hi: u64) -> u64 {
        self.read(lo as f64, hi as f64, true) as u64
    }

    /// One entry of `list`.
    fn pick<T: Copy>(&mut self, list: &[T]) -> T {
        list[self.int(0, list.len() as u64 - 1) as usize]
    }

    /// A fair coin: a real in `[0, 1]` below one half.
    fn coin(&mut self) -> bool {
        self.cont(0.0, 1.0) < 0.5
    }
}

/// Draws the family's scenario from `rng`, each parameter uniform within
/// its bounds. [`generate`](crate::gen::generate) is this with the
/// `(family, seed)` stream and no cap.
///
/// `seed` is recorded as the spec's provenance and drives the derived
/// impairment/noise RNG streams. `max_duration` caps the experiment horizon
/// *before* fractional times (arrivals, phase starts) are resolved, so a
/// capped scenario keeps the family's shape at a shorter time scale.
pub fn draw(
    family: Family,
    seed: u64,
    rng: &mut StdRng,
    max_duration: Option<Time>,
) -> ScenarioSpec {
    decode(family, seed, Source::Draw(rng), max_duration).0
}

/// Decodes a point of the family's unit cube `[0, 1]^dims(family)`: each
/// coordinate maps affinely onto its parameter's bounds. Out-of-cube
/// coordinates clamp and non-finite ones land on the lower bound, so any
/// vector of the right length decodes to a valid spec. `seed` and
/// `max_duration` are as in [`draw`].
///
/// # Panics
///
/// Panics if `unit.len()` differs from [`dims`]`(family)`.
pub fn decode_unit(
    family: Family,
    seed: u64,
    unit: &[f64],
    max_duration: Option<Time>,
) -> ScenarioSpec {
    let (spec, reads) = decode(family, seed, Source::Unit(unit), max_duration);
    assert_eq!(
        unit.len(),
        reads,
        "{} expects {reads} parameters, got {}",
        family.name(),
        unit.len()
    );
    spec
}

/// The number of parameters the family's decoder reads: the dimension of
/// its unit cube.
pub fn dims(family: Family) -> usize {
    decode(family, 0, Source::Lower, None).1
}

/// Runs the family's decoder over `source`; returns the spec and the number
/// of reads it made.
fn decode(
    family: Family,
    seed: u64,
    source: Source<'_>,
    max_duration: Option<Time>,
) -> (ScenarioSpec, usize) {
    let mut p = Params { source, reads: 0 };
    let min_rtt = Time::from_millis(p.int(20, 60));
    let mut duration = Time::from_secs_f64(p.cont(10.0, 16.0));
    if let Some(cap) = max_duration {
        duration = duration.min(cap);
    }
    let mut spec = ScenarioSpec::simple(
        &format!("{}-s{seed}", family.name()),
        48.0 * MBPS,
        min_rtt,
        duration,
    );
    spec.family = family.name().to_string();
    spec.seed = seed;
    match family {
        Family::FlashCrowd => flash_crowd(&mut p, &mut spec),
        Family::BandwidthCliff => bandwidth_cliff(&mut p, &mut spec),
        Family::JitterStorm => jitter_storm(&mut p, &mut spec),
        Family::LossyWireless => lossy_wireless(&mut p, &mut spec),
        Family::BufferSweep => buffer_sweep(&mut p, &mut spec),
        Family::CrossTrafficChurn => cross_traffic_churn(&mut p, &mut spec),
        Family::IncastBurst => incast_burst(&mut p, &mut spec),
        Family::ParkingLotUnfairness => parking_lot_unfairness(&mut p, &mut spec),
    }
    debug_assert!(spec.validate().is_ok(), "{:?}", spec.validate());
    (spec, p.reads)
}

fn named(name: &str, seed: u64) -> Box<TraceProgram> {
    Box::new(TraceProgram::Named {
        name: name.to_string(),
        seed,
    })
}

/// A stampede: the primary flow has the link to itself, then `n`
/// competitors arrive nearly at once mid-run and depart together.
fn flash_crowd(p: &mut Params<'_>, spec: &mut ScenarioSpec) {
    let base = p.pick(WIDE_BASES);
    spec.trace = TraceProgram::Scale {
        inner: named(base, spec.seed),
        factor: p.cont(1.0, 2.5),
    };
    spec.buffer_bdp = p.cont(1.0, 2.5);
    let d = spec.duration.as_secs_f64();
    let arrive = p.cont(0.25, 0.45) * d;
    let dwell = p.cont(0.2, 0.35) * d;
    let n = p.int(3, FLASH_CROWD_MAX_FLOWS) as usize;
    for i in 0..FLASH_CROWD_MAX_FLOWS as usize {
        // The crowd arrives within a few hundred milliseconds; inactive
        // slots still read their parameters so the layout is fixed.
        let jitter = p.cont(0.0, 0.3);
        let rtt_ms = p.int(10, 80);
        if i >= n {
            continue;
        }
        spec.cross_traffic.push(CrossFlow {
            cc: "cubic".into(),
            start: Time::from_secs_f64(arrive + i as f64 * 0.05 + jitter),
            stop: Some(Time::from_secs_f64(arrive + dwell + jitter)),
            min_rtt: Time::from_millis(rtt_ms),
        });
    }
}

/// The link rate falls off a cliff (to 5–15 % of nominal) partway through
/// and recovers after a spell — a spliced outage-like collapse.
fn bandwidth_cliff(p: &mut Params<'_>, spec: &mut ScenarioSpec) {
    let high = p.cont(48.0, 144.0) * MBPS;
    let d = spec.duration.as_secs_f64();
    let at = p.cont(0.3, 0.55) * d;
    let len = p.cont(0.15, 0.35) * d;
    let floor = high * p.cont(0.05, 0.15);
    spec.trace = TraceProgram::Splice {
        base: Box::new(TraceProgram::Constant { rate_bps: high }),
        patch: Box::new(TraceProgram::Constant { rate_bps: floor }),
        at: Time::from_secs_f64(at),
        len: Time::from_secs_f64(len),
    };
    spec.buffer_bdp = p.cont(0.5, 2.0);
    if p.coin() {
        // Half the scenarios face the cliff while sharing with one
        // long-lived competitor.
        spec.cross_traffic.push(CrossFlow {
            cc: "cubic".into(),
            start: Time::ZERO,
            stop: None,
            min_rtt: spec.primary_min_rtt,
        });
    }
}

/// Calm, then one or two phases of heavy delay jitter, then calm again.
fn jitter_storm(p: &mut Params<'_>, spec: &mut ScenarioSpec) {
    spec.trace = TraceProgram::Clamp {
        inner: Box::new(TraceProgram::SquareWave {
            low_bps: p.cont(12.0, 24.0) * MBPS,
            high_bps: p.cont(36.0, 96.0) * MBPS,
            half_period: Time::from_secs_f64(p.cont(0.5, 2.0)),
        }),
        min_bps: 6.0 * MBPS,
        max_bps: 120.0 * MBPS,
    };
    spec.buffer_bdp = p.cont(1.0, 4.0);
    let d = spec.duration.as_secs_f64();
    let storms = p.int(1, STORM_MAX) as usize;
    let mut t = p.cont(0.15, 0.3) * d;
    let mut phases = Vec::new();
    for i in 0..STORM_MAX as usize {
        let storm_len = p.cont(0.15, 0.3) * d;
        let jitter_ms = p.int(5, 25);
        let calm = p.cont(0.1, 0.2) * d;
        if i >= storms {
            continue;
        }
        phases.push(ImpairmentPhase {
            start: Time::from_secs_f64(t),
            random_loss: 0.0,
            max_jitter: Time::from_millis(jitter_ms),
        });
        t += storm_len;
        phases.push(ImpairmentPhase {
            start: Time::from_secs_f64(t),
            random_loss: 0.0,
            max_jitter: Time::ZERO,
        });
        t += calm;
    }
    spec.impairments = Some(ImpairmentSchedule::new(phases, spec.seed.wrapping_add(1)));
    spec.noise = Some(NoiseConfig {
        mu: p.cont(0.0, 0.2),
        seed: spec.seed.wrapping_add(2),
    });
}

/// A cellular-class bandwidth process with scheduled random-loss phases,
/// the wireless regime learned controllers notoriously misread.
fn lossy_wireless(p: &mut Params<'_>, spec: &mut ScenarioSpec) {
    let cell = p.pick(CELL_BASES);
    spec.trace = TraceProgram::Periodic {
        inner: named(cell, spec.seed),
        window: Time::from_secs_f64(p.cont(8.0, 20.0)),
    };
    spec.buffer_bdp = p.cont(1.0, 3.0);
    let d = spec.duration.as_secs_f64();
    let onset = p.cont(0.1, 0.4) * d;
    let mut phases = vec![ImpairmentPhase {
        start: Time::from_secs_f64(onset),
        random_loss: p.cont(0.005, 0.03),
        max_jitter: Time::from_millis(p.int(0, 5)),
    }];
    let clears = p.coin();
    let clear_at = p.cont(0.6, 0.9) * d;
    if clears {
        // Sometimes the loss clears before the end.
        phases.push(ImpairmentPhase {
            start: Time::from_secs_f64(clear_at.max(onset)),
            random_loss: 0.0,
            max_jitter: Time::ZERO,
        });
    }
    spec.impairments = Some(ImpairmentSchedule::new(phases, spec.seed.wrapping_add(3)));
}

/// The same workload across a wide, log-uniform sweep of buffer depths
/// (0.25–8 BDP), isolating buffer sensitivity.
fn buffer_sweep(p: &mut Params<'_>, spec: &mut ScenarioSpec) {
    let base = p.pick(WIDE_BASES);
    spec.trace = TraceProgram::Shift {
        inner: named(base, spec.seed),
        delta_bps: p.cont(-4.0, 12.0) * MBPS,
    };
    spec.buffer_bdp = p.cont(0.25f64.ln(), 8.0f64.ln()).exp();
    spec.noise = Some(NoiseConfig {
        mu: p.cont(0.0, 0.1),
        seed: spec.seed.wrapping_add(4),
    });
}

/// Competitors of mixed kernels continually arriving and departing on a
/// concatenated two-regime link.
fn cross_traffic_churn(p: &mut Params<'_>, spec: &mut ScenarioSpec) {
    let lo = p.cont(24.0, 48.0) * MBPS;
    let hi = lo * p.cont(1.5, 3.0);
    spec.trace = TraceProgram::Concat {
        first: Box::new(TraceProgram::Constant { rate_bps: hi }),
        second: Box::new(TraceProgram::SquareWave {
            low_bps: lo,
            high_bps: hi,
            half_period: Time::from_secs_f64(p.cont(1.0, 3.0)),
        }),
        loops: true,
    };
    spec.buffer_bdp = p.cont(0.5, 3.0);
    let d = spec.duration.as_secs_f64();
    let n = p.int(3, CHURN_MAX_FLOWS) as usize;
    let kernels = ["cubic", "bbr"];
    for i in 0..CHURN_MAX_FLOWS as usize {
        let start = p.cont(0.0, 0.7) * d;
        let dwell = p.cont(0.15, 0.5) * d;
        let rtt_ms = p.int(10, 100);
        if i >= n {
            continue;
        }
        let stop = (start + dwell).min(0.95 * d);
        spec.cross_traffic.push(CrossFlow {
            cc: kernels[i % kernels.len()].into(),
            start: Time::from_secs_f64(start),
            stop: Some(Time::from_secs_f64(stop)),
            min_rtt: Time::from_millis(rtt_ms),
        });
    }
}

/// A synchronized burst: the primary flow owns its incast leaf, then a
/// crowd of senders on the other leaves arrives almost at once and hammers
/// the shared root — the fan-in collapse regime.
fn incast_burst(p: &mut Params<'_>, spec: &mut ScenarioSpec) {
    let fan_in = p.int(2, 8) as usize;
    spec.topology = TopologySpec::Incast { fan_in };
    spec.trace = TraceProgram::Constant {
        rate_bps: p.cont(12.0, 48.0) * MBPS,
    };
    spec.buffer_bdp = p.cont(0.5, 2.0);
    let d = spec.duration.as_secs_f64();
    let arrive = p.cont(0.1, 0.4) * d;
    let dwell = p.cont(0.3, 0.6) * d;
    let n = p.int(2, INCAST_MAX_SENDERS) as usize;
    for i in 0..INCAST_MAX_SENDERS as usize {
        // Senders arrive within tens of milliseconds of each other;
        // inactive slots still read their parameters so the layout is
        // fixed.
        let stagger_ms = p.int(0, 50);
        let rtt_ms = p.int(10, 80);
        if i >= n {
            continue;
        }
        let start = arrive + stagger_ms as f64 / 1e3;
        spec.cross_traffic.push(CrossFlow {
            cc: "cubic".into(),
            start: Time::from_secs_f64(start),
            stop: Some(Time::from_secs_f64((start + dwell).min(0.95 * d))),
            min_rtt: Time::from_millis(rtt_ms),
        });
    }
}

/// The classic RTT-unfairness construction: the primary flow crosses every
/// hop of a parking lot while one-hop competitors (same propagation RTT)
/// each squeeze a single queue. Every hop gets exactly one competitor —
/// the canonical shape — and competitors arrive early and stay to the end,
/// so any throughput gap is the path length's doing alone.
fn parking_lot_unfairness(p: &mut Params<'_>, spec: &mut ScenarioSpec) {
    let hops = p.int(2, LOT_MAX_HOPS) as usize;
    let hop_delay = Time::from_millis(p.int(2, 15));
    spec.topology = TopologySpec::ParkingLot { hops, hop_delay };
    spec.trace = TraceProgram::Constant {
        rate_bps: p.cont(16.0, 64.0) * MBPS,
    };
    spec.buffer_bdp = p.cont(0.5, 2.0);
    let d = spec.duration.as_secs_f64();
    for i in 0..LOT_MAX_HOPS as usize {
        // Inactive hop slots still read their parameter so the layout is
        // fixed.
        let start_frac = p.cont(0.0, 0.1);
        if i >= hops {
            continue;
        }
        spec.cross_traffic.push(CrossFlow {
            cc: "cubic".into(),
            start: Time::from_secs_f64(start_frac * d),
            stop: None,
            min_rtt: spec.primary_min_rtt,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn unit(dims: usize, u: f64) -> Vec<f64> {
        vec![u; dims]
    }

    #[test]
    fn every_source_reads_the_same_layout() {
        for f in Family::ALL {
            let n = dims(f);
            assert!(n >= 6, "{}: too few parameters", f.name());
            let mut rng = StdRng::seed_from_u64(3);
            for _ in 0..8 {
                let (_, reads) = decode(f, 1, Source::Draw(&mut rng), None);
                assert_eq!(reads, n, "{}: a draw read a different layout", f.name());
            }
            for u in [0.0, 0.5, 1.0] {
                let (_, reads) = decode(f, 1, Source::Unit(&unit(n, u)), None);
                assert_eq!(reads, n, "{}: unit {u} read a different layout", f.name());
            }
        }
    }

    #[test]
    fn reads_clamp_round_and_map_the_cube() {
        let cube = [0.0, 1.0, -0.5, 1.5, f64::NAN, 0.3, 0.3];
        let mut p = Params {
            source: Source::Unit(&cube),
            reads: 0,
        };
        assert_eq!(p.cont(2.0, 4.0), 2.0);
        assert_eq!(p.cont(2.0, 4.0), 4.0);
        assert_eq!(p.cont(2.0, 4.0), 2.0, "below the cube clamps to lo");
        assert_eq!(p.int(2, 4), 4, "above the cube clamps to hi");
        assert_eq!(p.int(2, 4), 2, "NaN lands on lo");
        assert_eq!(p.int(0, 10), 3, "integers round");
        assert_eq!(p.pick(&["a", "b", "c", "d"]), "b");
        assert_eq!(p.reads, cube.len());

        let mut rng = StdRng::seed_from_u64(7);
        let mut p = Params {
            source: Source::Draw(&mut rng),
            reads: 0,
        };
        for _ in 0..256 {
            assert!((2.0..4.0).contains(&p.cont(2.0, 4.0)));
            assert!((3..=5).contains(&p.int(3, 5)));
        }
    }

    #[test]
    fn cube_corners_and_wild_points_decode_to_valid_specs() {
        for f in Family::ALL {
            let n = dims(f);
            for u in [0.0, 1.0] {
                let spec = decode_unit(f, 9, &unit(n, u), None);
                assert!(spec.validate().is_ok(), "{} at {u}: {spec:?}", f.name());
            }
            let wild: Vec<f64> = (0..n)
                .map(|i| if i % 2 == 0 { 1e9 } else { -1e9 })
                .collect();
            let spec = decode_unit(f, 1, &wild, None);
            assert!(spec.validate().is_ok(), "{}: {spec:?}", f.name());
            let nans = decode_unit(f, 1, &unit(n, f64::NAN), None);
            assert_eq!(
                nans.to_json(),
                decode_unit(f, 1, &unit(n, 0.0), None).to_json(),
                "{}: NaN coordinates land on the lower bounds",
                f.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "expects")]
    fn a_short_point_is_refused() {
        let f = Family::BufferSweep;
        decode_unit(f, 1, &unit(dims(f) - 1, 0.5), None);
    }

    #[test]
    fn duration_cap_rescales_fractional_times() {
        let f = Family::FlashCrowd;
        let cap = Some(Time::from_secs(4));
        let capped = draw(f, 5, &mut StdRng::seed_from_u64(5), cap);
        assert_eq!(capped.duration, Time::from_secs(4));
        // The crowd still arrives inside the capped horizon.
        for cf in &capped.cross_traffic {
            assert!(cf.start < capped.duration, "{:?}", cf.start);
        }
        let uncapped = draw(f, 5, &mut StdRng::seed_from_u64(5), None);
        assert!(uncapped.duration >= Time::from_secs(10));
    }
}
