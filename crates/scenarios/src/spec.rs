//! The declarative scenario specification.
//!
//! A [`ScenarioSpec`] describes one full stress experiment — a bandwidth
//! *program* built from composition combinators, buffer depth, a
//! time-scheduled impairment program, observation noise, and a multi-flow
//! schedule with staggered arrivals/departures — as plain serializable
//! data. Any scenario round-trips losslessly through JSON, so a run can be
//! reproduced from the spec alone, and a fuzzer-found regression can be
//! committed as a fixture.

use serde::{Deserialize, Serialize, Value};

use canopy_core::env::NoiseConfig;
use canopy_netsim::{BandwidthTrace, ImpairmentSchedule, LinkConfig, LinkId, Time, Topology};

/// A failure to interpret a scenario specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid scenario spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl From<canopy_core::world::WorldError> for SpecError {
    fn from(e: canopy_core::world::WorldError) -> SpecError {
        SpecError(e.to_string())
    }
}

fn err(msg: impl Into<String>) -> SpecError {
    SpecError(msg.into())
}

/// The range a compiled bandwidth program's non-zero rates must lie in,
/// in bits per second (zero is an outage). Every generated and evaluation
/// trace lies within 3.3–234 Mb/s; far outside the range the simulator
/// cannot run a flow: at 1e-300 b/s one packet's serialization overflows
/// the clock, and at 1e300 b/s a run never ends.
const RATE_BPS: std::ops::RangeInclusive<f64> = 1e3..=1e10;

/// A bandwidth program: a small combinator algebra over base traces.
///
/// Leaves are either paper evaluation traces referenced by canonical name
/// (recreated deterministically from `(name, seed)`) or primitive shapes;
/// interior nodes are the composition combinators implemented on
/// [`BandwidthTrace`]. Compiling a program is pure and deterministic.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum TraceProgram {
    /// A base trace by canonical name (`syn-*`, `cell-*`, `rw-<region>`).
    Named {
        /// The canonical trace name.
        name: String,
        /// Seed for seeded base traces (ignored by deterministic ones).
        seed: u64,
    },
    /// A constant-rate link.
    Constant {
        /// Rate in bits per second.
        rate_bps: f64,
    },
    /// A square wave starting low.
    SquareWave {
        /// Low rate in bits per second.
        low_bps: f64,
        /// High rate in bits per second.
        high_bps: f64,
        /// Half-period of the wave.
        half_period: Time,
    },
    /// Multiplies every rate of `inner` by `factor`.
    Scale {
        /// The program to scale.
        inner: Box<TraceProgram>,
        /// Non-negative multiplier.
        factor: f64,
    },
    /// Adds `delta_bps` to every rate of `inner` (floored at zero).
    Shift {
        /// The program to shift.
        inner: Box<TraceProgram>,
        /// Signed rate offset in bits per second.
        delta_bps: f64,
    },
    /// Clamps every rate of `inner` into `[min_bps, max_bps]`.
    Clamp {
        /// The program to clamp.
        inner: Box<TraceProgram>,
        /// Lower rate bound.
        min_bps: f64,
        /// Upper rate bound.
        max_bps: f64,
    },
    /// One cycle of `first` followed by one cycle of `second`.
    Concat {
        /// The opening program.
        first: Box<TraceProgram>,
        /// The closing program.
        second: Box<TraceProgram>,
        /// Whether the concatenation repeats.
        loops: bool,
    },
    /// Replaces `[at, at + len)` of `base` with the first `len` of `patch`.
    Splice {
        /// The program being patched.
        base: Box<TraceProgram>,
        /// The patch content (read from its own time zero).
        patch: Box<TraceProgram>,
        /// Where the patch begins on `base`'s timeline.
        at: Time,
        /// Patch length.
        len: Time,
    },
    /// Loops the prefix `[0, window)` of `inner` forever.
    Periodic {
        /// The program whose prefix repeats.
        inner: Box<TraceProgram>,
        /// The repeated window.
        window: Time,
    },
}

impl TraceProgram {
    /// Compiles the program into a concrete [`BandwidthTrace`].
    pub fn compile(&self) -> Result<BandwidthTrace, SpecError> {
        match self {
            TraceProgram::Named { name, seed } => canopy_netsim::traces::by_name(name, *seed)
                .ok_or_else(|| err(format!("unknown base trace `{name}`"))),
            TraceProgram::Constant { rate_bps } => Ok(BandwidthTrace::constant("const", *rate_bps)),
            TraceProgram::SquareWave {
                low_bps,
                high_bps,
                half_period,
            } => {
                if *half_period == Time::ZERO {
                    return Err(err("square wave half-period must be positive"));
                }
                Ok(BandwidthTrace::square_wave(
                    "square",
                    *low_bps,
                    *high_bps,
                    *half_period,
                ))
            }
            TraceProgram::Scale { inner, factor } => Ok(inner.compile()?.scaled(*factor)),
            TraceProgram::Shift { inner, delta_bps } => {
                Ok(inner.compile()?.rate_shifted(*delta_bps))
            }
            TraceProgram::Clamp {
                inner,
                min_bps,
                max_bps,
            } => Ok(inner.compile()?.clamped(*min_bps, *max_bps)),
            TraceProgram::Concat {
                first,
                second,
                loops,
            } => Ok(first.compile()?.concat(&second.compile()?, *loops)),
            TraceProgram::Splice {
                base,
                patch,
                at,
                len,
            } => {
                if *len == Time::ZERO {
                    return Err(err("splice length must be positive"));
                }
                Ok(base.compile()?.spliced(*at, &patch.compile()?, *len))
            }
            TraceProgram::Periodic { inner, window } => {
                if *window == Time::ZERO {
                    return Err(err("periodic window must be positive"));
                }
                Ok(inner.compile()?.periodic(*window))
            }
        }
    }

    /// Refuses a program whose own numbers are malformed: every one must be
    /// finite, and a leaf rate or a scale factor non-negative. (The
    /// combinators floor a negative rate at zero, so the compiled trace
    /// alone would hide it; `Shift` is signed and `Clamp` floors its
    /// bounds by design.)
    fn check_numbers(&self) -> Result<(), SpecError> {
        let finite = |what: &str, x: f64| {
            if x.is_finite() {
                Ok(())
            } else {
                Err(err(format!("{what} {x:e} must be finite")))
            }
        };
        let non_negative = |what: &str, x: f64| {
            if x >= 0.0 {
                finite(what, x)
            } else {
                Err(err(format!("{what} {x:e} must be non-negative")))
            }
        };
        match self {
            TraceProgram::Named { .. } => Ok(()),
            TraceProgram::Constant { rate_bps } => non_negative("constant rate_bps", *rate_bps),
            TraceProgram::SquareWave {
                low_bps, high_bps, ..
            } => {
                non_negative("square wave low_bps", *low_bps)?;
                non_negative("square wave high_bps", *high_bps)
            }
            TraceProgram::Scale { inner, factor } => {
                non_negative("scale factor", *factor)?;
                inner.check_numbers()
            }
            TraceProgram::Shift { inner, delta_bps } => {
                finite("shift delta_bps", *delta_bps)?;
                inner.check_numbers()
            }
            TraceProgram::Clamp {
                inner,
                min_bps,
                max_bps,
            } => {
                finite("clamp min_bps", *min_bps)?;
                finite("clamp max_bps", *max_bps)?;
                inner.check_numbers()
            }
            TraceProgram::Concat { first, second, .. } => {
                first.check_numbers()?;
                second.check_numbers()
            }
            TraceProgram::Splice { base, patch, .. } => {
                base.check_numbers()?;
                patch.check_numbers()
            }
            TraceProgram::Periodic { inner, .. } => inner.check_numbers(),
        }
    }
}

/// Which topology a scenario runs over.
///
/// The spec's [`TraceProgram`] always describes the *bottleneck* link; the
/// topology decides how many copies of it exist and how flows route across
/// them. The scenario layer fixes the routing conventions (below) so a
/// topology is fully determined by one or two integers, which keeps it
/// fuzzable and searchable:
///
/// * [`Dumbbell`](TopologySpec::Dumbbell) — the classic single bottleneck,
///   every flow on it; runs are bit-for-bit identical to the pre-topology
///   engine.
/// * [`ParkingLot`](TopologySpec::ParkingLot) — `hops` copies of the
///   bottleneck in series, each adding `hop_delay` of forwarding delay.
///   The primary flow crosses every hop; cross flow `i` crosses only hop
///   `i % hops`. Impairments apply to the first hop only.
/// * [`Incast`](TopologySpec::Incast) — `fan_in` leaf uplinks (the
///   bottleneck trace scaled ×2) fanning into one root bottleneck.
///   Sender `i` (primary is sender 0, cross flow `j` is sender `j + 1`)
///   routes leaf `1 + i % fan_in` → root. Impairments apply to the root.
///
/// Serialized as `"dumbbell"`, `{"parking-lot": {...}}`, or
/// `{"incast": {...}}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologySpec {
    /// One bottleneck link shared by every flow (the historical model).
    Dumbbell,
    /// `hops` bottlenecks in series; the primary crosses all of them.
    ParkingLot {
        /// Number of hops in series (2–8).
        hops: usize,
        /// Forwarding delay added per hop crossed (on top of the flow's
        /// `min_rtt`, which models the ACK return path).
        hop_delay: Time,
    },
    /// `fan_in` leaf uplinks feeding one shared root bottleneck.
    Incast {
        /// Number of leaf uplinks (2–16).
        fan_in: usize,
    },
}

impl TopologySpec {
    /// A short identity label for report columns (`dumbbell`,
    /// `parking-lot-3`, `incast-8`).
    pub fn label(&self) -> String {
        match self {
            TopologySpec::Dumbbell => "dumbbell".to_string(),
            TopologySpec::ParkingLot { hops, .. } => format!("parking-lot-{hops}"),
            TopologySpec::Incast { fan_in } => format!("incast-{fan_in}"),
        }
    }

    /// Rejects degenerate shapes (hop counts and fan-ins outside the
    /// ranges the builders support). Public so front-ends (`scenario_lab
    /// --topology`) can fail at parse time with the same bounds the spec
    /// enforces.
    pub fn validate(&self) -> Result<(), SpecError> {
        match self {
            TopologySpec::Dumbbell => Ok(()),
            TopologySpec::ParkingLot { hops, .. } => {
                if !(2..=8).contains(hops) {
                    return Err(err(format!("parking-lot hops {hops} outside 2..=8")));
                }
                Ok(())
            }
            TopologySpec::Incast { fan_in } => {
                if !(2..=16).contains(fan_in) {
                    return Err(err(format!("incast fan_in {fan_in} outside 2..=16")));
                }
                Ok(())
            }
        }
    }
}

// The serde shim's derive cannot express kebab-case variant names, so the
// wire format (`"dumbbell"` / `{"parking-lot": {...}}` / `{"incast":
// {...}}`) is implemented by hand over its value tree.
impl Serialize for TopologySpec {
    fn to_value(&self) -> Value {
        match self {
            TopologySpec::Dumbbell => Value::String("dumbbell".to_string()),
            TopologySpec::ParkingLot { hops, hop_delay } => {
                let mut inner = serde::Map::new();
                inner.insert("hop_delay".to_string(), hop_delay.to_value());
                inner.insert("hops".to_string(), Value::U64(*hops as u64));
                let mut outer = serde::Map::new();
                outer.insert("parking-lot".to_string(), Value::Object(inner));
                Value::Object(outer)
            }
            TopologySpec::Incast { fan_in } => {
                let mut inner = serde::Map::new();
                inner.insert("fan_in".to_string(), Value::U64(*fan_in as u64));
                let mut outer = serde::Map::new();
                outer.insert("incast".to_string(), Value::Object(inner));
                Value::Object(outer)
            }
        }
    }
}

impl Deserialize for TopologySpec {
    fn from_value(v: &Value) -> Result<TopologySpec, serde::Error> {
        let bad = || {
            serde::Error::custom(
                "expected \"dumbbell\", {\"parking-lot\": ...}, or {\"incast\": ...}",
            )
        };
        match v {
            Value::String(s) if s == "dumbbell" => Ok(TopologySpec::Dumbbell),
            Value::Object(m) if m.len() == 1 => {
                let (variant, inner) = m.iter().next().expect("the guard checked one entry");
                match variant.as_str() {
                    "parking-lot" => Ok(TopologySpec::ParkingLot {
                        hops: usize::from_value(&inner["hops"])?,
                        hop_delay: Time::from_value(&inner["hop_delay"])?,
                    }),
                    "incast" => Ok(TopologySpec::Incast {
                        fan_in: usize::from_value(&inner["fan_in"])?,
                    }),
                    _ => Err(bad()),
                }
            }
            _ => Err(bad()),
        }
    }
}

/// One competitor flow sharing the bottleneck with the scheme under test.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CrossFlow {
    /// Baseline kernel driving the competitor (`cubic`, `bbr`, ...).
    pub cc: String,
    /// Arrival time.
    pub start: Time,
    /// Departure time (`None` stays to the end).
    pub stop: Option<Time>,
    /// Propagation RTT of the competitor's path.
    pub min_rtt: Time,
}

/// A full declarative experiment: everything needed to run one scenario,
/// as data.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Unique scenario name (`<family>-s<seed>` for generated scenarios).
    pub name: String,
    /// The named family this scenario was drawn from (free-form for
    /// hand-written specs).
    pub family: String,
    /// The generator seed (provenance; hand-written specs use 0).
    pub seed: u64,
    /// The bottleneck bandwidth program.
    pub trace: TraceProgram,
    /// Droptail buffer depth in BDP multiples.
    pub buffer_bdp: f64,
    /// Experiment horizon.
    pub duration: Time,
    /// Propagation RTT of the primary (scheme-under-test) flow.
    pub primary_min_rtt: Time,
    /// Optional time-scheduled impairment program (loss/jitter phases).
    pub impairments: Option<ImpairmentSchedule>,
    /// Optional observation noise for learned schemes.
    pub noise: Option<NoiseConfig>,
    /// Baseline cross-traffic with staggered arrivals/departures.
    pub cross_traffic: Vec<CrossFlow>,
    /// The topology the scenario runs over. Required in a spec's JSON: a
    /// spec without it is refused rather than read as a dumbbell.
    pub topology: TopologySpec,
}

/// The concrete network a spec compiles to: the topology plus the routing
/// the scenario layer's conventions assign to each flow.
#[derive(Clone, Debug)]
pub struct CompiledTopology {
    /// The links, ready for [`canopy_netsim::Simulator::with_topology`].
    pub topology: Topology,
    /// The primary (scheme-under-test) flow's path.
    pub primary_path: Vec<LinkId>,
    /// One path per cross flow, in spec order.
    pub cross_paths: Vec<Vec<LinkId>>,
}

impl ScenarioSpec {
    /// A minimal single-flow scenario over a constant link (a convenient
    /// starting point for hand-written specs and tests).
    pub fn simple(name: &str, rate_bps: f64, min_rtt: Time, duration: Time) -> ScenarioSpec {
        ScenarioSpec {
            name: name.to_string(),
            family: "custom".to_string(),
            seed: 0,
            trace: TraceProgram::Constant { rate_bps },
            buffer_bdp: 1.0,
            duration,
            primary_min_rtt: min_rtt,
            impairments: None,
            noise: None,
            cross_traffic: Vec::new(),
            topology: TopologySpec::Dumbbell,
        }
    }

    /// Wraps one of the paper's evaluation traces as a plain single-flow
    /// scenario (the fixed 21-trace suite re-expressed as specs).
    pub fn from_eval_trace(trace_name: &str, seed: u64) -> ScenarioSpec {
        ScenarioSpec {
            name: format!("paper-{trace_name}"),
            family: "paper".to_string(),
            seed,
            trace: TraceProgram::Named {
                name: trace_name.to_string(),
                seed,
            },
            buffer_bdp: 1.0,
            duration: Time::from_secs(20),
            primary_min_rtt: Time::from_millis(40),
            impairments: None,
            noise: None,
            cross_traffic: Vec::new(),
            topology: TopologySpec::Dumbbell,
        }
    }

    /// Checks internal consistency and that the bandwidth program compiles
    /// to a usable trace: every number in the program finite, every leaf
    /// rate and scale factor non-negative, every compiled rate zero or
    /// within [1 kb/s, 10 Gb/s], and not all of them zero.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.is_empty() {
            return Err(err("scenario name must not be empty"));
        }
        if self.duration == Time::ZERO {
            return Err(err("duration must be positive"));
        }
        if !self.buffer_bdp.is_finite() || self.buffer_bdp <= 0.0 {
            return Err(err("buffer_bdp must be positive"));
        }
        if self.primary_min_rtt == Time::ZERO {
            return Err(err("primary_min_rtt must be positive"));
        }
        self.topology.validate()?;
        self.trace.check_numbers()?;
        let trace = self.trace.compile()?;
        for rate in trace.segments().iter().map(|s| s.rate_bps) {
            if !(rate == 0.0 || RATE_BPS.contains(&rate)) {
                return Err(err(format!(
                    "bandwidth program rate {rate:e} b/s is neither 0 nor within [1e3, 1e10]"
                )));
            }
        }
        if trace.peak_rate() <= 0.0 {
            return Err(err("bandwidth program is a permanent outage"));
        }
        if let Some(sched) = &self.impairments {
            for p in &sched.phases {
                if !(0.0..1.0).contains(&p.random_loss) {
                    return Err(err(format!(
                        "phase random_loss {} outside [0, 1)",
                        p.random_loss
                    )));
                }
            }
            // The schedule's phase lookup binary-searches on start times;
            // `ImpairmentSchedule::new` sorts, but a hand-edited JSON spec
            // bypasses it, so sortedness must be validated here.
            if sched.phases.windows(2).any(|w| w[0].start > w[1].start) {
                return Err(err("impairment phases must be sorted by start time"));
            }
        }
        if let Some(noise) = &self.noise {
            if !noise.mu.is_finite() || noise.mu < 0.0 {
                return Err(err(format!("noise mu {} must be non-negative", noise.mu)));
            }
        }
        for (i, cf) in self.cross_traffic.iter().enumerate() {
            if canopy_cc::by_name(&cf.cc).is_none() {
                return Err(err(format!("cross flow {i}: unknown kernel `{}`", cf.cc)));
            }
            if cf.min_rtt == Time::ZERO {
                return Err(err(format!("cross flow {i}: min_rtt must be positive")));
            }
            if let Some(stop) = cf.stop {
                if stop <= cf.start {
                    return Err(err(format!("cross flow {i}: stop must follow start")));
                }
            }
        }
        Ok(())
    }

    /// Compiles the network this scenario runs over: the bandwidth program
    /// becomes the bottleneck link (trace, BDP-sized buffer, impairment
    /// program), the [`topology`](Self::topology) decides how many copies
    /// of it exist and where impairments attach, and the scenario layer's
    /// routing conventions (see [`TopologySpec`]) assign every flow its
    /// path. Does not re-run [`validate`](Self::validate); callers
    /// interpreting untrusted specs should validate first.
    pub fn compile_topology(&self) -> Result<CompiledTopology, SpecError> {
        let trace = self.trace.compile()?;
        let plain = LinkConfig::with_bdp_buffer(trace, self.primary_min_rtt, self.buffer_bdp);
        let impaired = LinkConfig {
            impairments: self.impairments.clone(),
            ..plain.clone()
        };
        let n_cross = self.cross_traffic.len();
        Ok(match self.topology {
            TopologySpec::Dumbbell => CompiledTopology {
                topology: Topology::dumbbell(impaired),
                primary_path: vec![LinkId(0)],
                cross_paths: vec![vec![LinkId(0)]; n_cross],
            },
            TopologySpec::ParkingLot { hops, hop_delay } => {
                // Impairments live on the first hop only; cloning the
                // schedule onto every hop would multiply the loss rate and
                // replay one RNG stream per copy.
                let mut links = vec![impaired.with_delay(hop_delay)];
                links.extend(std::iter::repeat_n(plain.with_delay(hop_delay), hops - 1));
                CompiledTopology {
                    topology: Topology::new(links),
                    primary_path: Topology::parking_lot_long_path(hops),
                    cross_paths: (0..n_cross)
                        .map(|i| Topology::parking_lot_hop_path(i, hops))
                        .collect(),
                }
            }
            TopologySpec::Incast { fan_in } => {
                // Leaf uplinks run the bottleneck program at 2× so the
                // root is where fan-in congestion concentrates.
                let leaf = LinkConfig::with_bdp_buffer(
                    plain.trace.scaled(2.0),
                    self.primary_min_rtt,
                    self.buffer_bdp,
                );
                CompiledTopology {
                    topology: Topology::incast(impaired, leaf, fan_in),
                    primary_path: Topology::incast_path(0, fan_in),
                    cross_paths: (0..n_cross)
                        .map(|i| Topology::incast_path(i + 1, fan_in))
                        .collect(),
                }
            }
        })
    }

    /// Serializes the spec to deterministic JSON (sorted keys).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("scenario specs always serialize")
    }

    /// Parses a spec back from [`to_json`](Self::to_json) output.
    pub fn from_json(text: &str) -> Result<ScenarioSpec, SpecError> {
        serde_json::from_str(text).map_err(|e| err(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canopy_netsim::link::ImpairmentPhase;

    fn nested_program() -> TraceProgram {
        TraceProgram::Splice {
            base: Box::new(TraceProgram::Scale {
                inner: Box::new(TraceProgram::Named {
                    name: "syn-step-up".into(),
                    seed: 3,
                }),
                factor: 0.5,
            }),
            patch: Box::new(TraceProgram::Constant { rate_bps: 2e6 }),
            at: Time::from_secs(2),
            len: Time::from_secs(1),
        }
    }

    #[test]
    fn programs_compile_to_expected_rates() {
        let tr = nested_program().compile().expect("compiles");
        // syn-step-up is 12 → 48 Mbps; scaled by 0.5 gives 6 → 24; the
        // splice puts 2 Mbps into [2 s, 3 s).
        assert_eq!(tr.rate_at(Time::from_secs(0)), 6e6);
        assert_eq!(tr.rate_at(Time::from_millis(2500)), 2e6);
        assert_eq!(tr.rate_at(Time::from_millis(3500)), 6e6);
        assert_eq!(tr.rate_at(Time::from_secs(6)), 24e6);
    }

    #[test]
    fn unknown_base_trace_is_an_error() {
        let p = TraceProgram::Named {
            name: "syn-nope".into(),
            seed: 0,
        };
        assert!(p.compile().is_err());
    }

    #[test]
    fn spec_round_trips_through_json() {
        let mut spec = ScenarioSpec::simple("rt", 24e6, Time::from_millis(30), Time::from_secs(8));
        spec.trace = nested_program();
        spec.impairments = Some(ImpairmentSchedule::new(
            vec![ImpairmentPhase {
                start: Time::from_secs(2),
                random_loss: 0.01,
                max_jitter: Time::from_millis(4),
            }],
            5,
        ));
        spec.noise = Some(NoiseConfig { mu: 0.1, seed: 7 });
        spec.cross_traffic.push(CrossFlow {
            cc: "bbr".into(),
            start: Time::from_secs(1),
            stop: Some(Time::from_secs(5)),
            min_rtt: Time::from_millis(60),
        });
        let text = spec.to_json();
        let back = ScenarioSpec::from_json(&text).expect("parses");
        assert_eq!(back.to_json(), text);
        assert!(back.validate().is_ok());
        // Compiled traces agree segment-for-segment.
        assert_eq!(
            back.trace.compile().unwrap().segments(),
            spec.trace.compile().unwrap().segments()
        );
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let good = ScenarioSpec::simple("ok", 12e6, Time::from_millis(20), Time::from_secs(5));
        assert!(good.validate().is_ok());

        let mut dead = good.clone();
        dead.trace = TraceProgram::Constant { rate_bps: 0.0 };
        assert!(dead.validate().is_err());

        let mut bad_cc = good.clone();
        bad_cc.cross_traffic.push(CrossFlow {
            cc: "quic-magic".into(),
            start: Time::ZERO,
            stop: None,
            min_rtt: Time::from_millis(20),
        });
        assert!(bad_cc.validate().is_err());

        let mut bad_loss = good.clone();
        bad_loss.impairments = Some(ImpairmentSchedule::new(
            vec![ImpairmentPhase {
                start: Time::ZERO,
                random_loss: 1.5,
                max_jitter: Time::ZERO,
            }],
            0,
        ));
        assert!(bad_loss.validate().is_err());

        let mut bad_noise = good.clone();
        bad_noise.noise = Some(NoiseConfig { mu: -0.1, seed: 1 });
        assert!(bad_noise.validate().is_err());

        // Phase order matters for the schedule's binary search; a
        // hand-edited spec bypasses the sorting constructor.
        let mut unsorted = good.clone();
        unsorted.impairments = Some(ImpairmentSchedule {
            phases: vec![
                ImpairmentPhase {
                    start: Time::from_secs(3),
                    random_loss: 0.01,
                    max_jitter: Time::ZERO,
                },
                ImpairmentPhase {
                    start: Time::from_secs(1),
                    random_loss: 0.02,
                    max_jitter: Time::ZERO,
                },
            ],
            seed: 0,
        });
        assert!(unsorted.validate().is_err());

        let mut inverted = good;
        inverted.cross_traffic.push(CrossFlow {
            cc: "cubic".into(),
            start: Time::from_secs(3),
            stop: Some(Time::from_secs(2)),
            min_rtt: Time::from_millis(20),
        });
        assert!(inverted.validate().is_err());
    }

    /// A spec over `trace`: a 2 s cubic dumbbell at 35 ms and 0.5 BDP.
    fn over(trace: TraceProgram) -> ScenarioSpec {
        let mut spec = ScenarioSpec::simple("rate", 1e7, Time::from_millis(35), Time::from_secs(2));
        spec.buffer_bdp = 0.5;
        spec.trace = trace;
        spec
    }

    #[test]
    fn a_rate_too_fast_to_finish_is_refused() {
        let e = over(TraceProgram::Constant { rate_bps: 1e300 }).validate();
        assert!(e
            .expect_err("1e300 b/s never finishes a run")
            .0
            .contains("1e300"));
    }

    #[test]
    fn an_infinitely_scaled_rate_is_refused() {
        let ten_mbps = Box::new(TraceProgram::Constant { rate_bps: 1e7 });
        let spec = over(TraceProgram::Scale {
            inner: ten_mbps,
            factor: f64::INFINITY,
        });
        let e = spec.validate().expect_err("an infinite rate is refused");
        assert!(e.0.contains("scale factor inf"), "{e}");
    }

    #[test]
    fn a_rate_too_slow_to_send_a_packet_is_refused() {
        let e = over(TraceProgram::Constant { rate_bps: 1e-300 }).validate();
        assert!(e
            .expect_err("1e-300 b/s overflows the clock")
            .0
            .contains("1e-300"));
    }

    #[test]
    fn a_negative_rate_is_refused() {
        let spec = over(TraceProgram::SquareWave {
            low_bps: -5e7,
            high_bps: 5e7,
            half_period: Time::from_millis(500),
        });
        let e = spec.validate().expect_err("a negative rate is refused");
        assert!(e.0.contains("low_bps -5e7"), "{e}");
    }

    #[test]
    fn rates_at_the_bounds_and_outages_validate() {
        for rate_bps in [1e3, 1e10] {
            assert!(over(TraceProgram::Constant { rate_bps }).validate().is_ok());
        }
        let outages = TraceProgram::SquareWave {
            low_bps: 0.0,
            high_bps: 1e3,
            half_period: Time::from_millis(500),
        };
        assert!(over(outages).validate().is_ok());
        let below = TraceProgram::Constant { rate_bps: 999.0 };
        assert!(over(below).validate().is_err());
    }

    #[test]
    fn nesting_bombs_are_spec_errors() {
        // 20 KB that used to abort the process with a stack overflow in
        // the JSON reader, before it bounded its nesting depth.
        for bomb in ["[".repeat(20_000), "{\"trace\":".repeat(20_000)] {
            assert!(ScenarioSpec::from_json(&bomb).is_err());
        }
    }

    #[test]
    fn topologies_round_trip_and_compile() {
        let base = ScenarioSpec::simple("topo", 24e6, Time::from_millis(30), Time::from_secs(6));
        let lot = TopologySpec::ParkingLot {
            hops: 3,
            hop_delay: Time::from_millis(5),
        };
        let tree = TopologySpec::Incast { fan_in: 4 };
        for topology in [TopologySpec::Dumbbell, lot, tree] {
            let mut spec = base.clone();
            spec.topology = topology;
            spec.cross_traffic.push(CrossFlow {
                cc: "cubic".into(),
                start: Time::ZERO,
                stop: None,
                min_rtt: Time::from_millis(30),
            });
            let text = spec.to_json();
            let back = ScenarioSpec::from_json(&text).expect("parses");
            assert_eq!(back.topology, topology);
            assert_eq!(back.to_json(), text);
            assert!(back.validate().is_ok());

            let compiled = back.compile_topology().expect("compiles");
            assert_eq!(compiled.cross_paths.len(), 1);
            let topo = &compiled.topology;
            assert!(topo.validate_path(&compiled.primary_path).is_ok());
            assert!(topo.validate_path(&compiled.cross_paths[0]).is_ok());
            match topology {
                TopologySpec::Dumbbell => {
                    assert_eq!(topo.len(), 1);
                    assert_eq!(compiled.primary_path, vec![LinkId(0)]);
                }
                TopologySpec::ParkingLot { hops, hop_delay } => {
                    assert_eq!(topo.len(), hops);
                    assert_eq!(compiled.primary_path.len(), hops);
                    assert_eq!(compiled.cross_paths[0], vec![LinkId(0)]);
                    for l in 0..hops {
                        assert_eq!(topo.link(LinkId(l)).delay, hop_delay);
                    }
                    // Impairments (none here) would attach to hop 0 only.
                    assert!(topo.link(LinkId(1)).impairments.is_none());
                }
                TopologySpec::Incast { fan_in } => {
                    assert_eq!(topo.len(), 1 + fan_in);
                    assert_eq!(compiled.primary_path.last(), Some(&LinkId(0)));
                    // Leaves carry 2× the root's rate.
                    let root = topo.link(LinkId(0)).trace.rate_at(Time::ZERO);
                    let leaf = topo.link(LinkId(1)).trace.rate_at(Time::ZERO);
                    assert_eq!(leaf, 2.0 * root);
                }
            }
        }
    }

    #[test]
    fn specs_without_a_topology_field_are_refused() {
        let spec = ScenarioSpec::simple("old", 24e6, Time::from_millis(30), Time::from_secs(6));
        let text = spec.to_json();
        assert!(text.contains("\"topology\":\"dumbbell\""));
        let back = ScenarioSpec::from_json(&text).expect("a complete spec parses");
        assert_eq!(back.topology, TopologySpec::Dumbbell);
        // Without the key the spec is an error, not a silent dumbbell.
        let missing = text.replace(",\"topology\":\"dumbbell\"", "");
        assert_ne!(missing, text, "key must have been removed");
        let e = ScenarioSpec::from_json(&missing).expect_err("a topology-less spec is refused");
        assert!(e.to_string().contains("missing field `topology`"), "{e}");
    }

    #[test]
    fn topology_validation_rejects_degenerate_shapes() {
        let base = ScenarioSpec::simple("bad", 24e6, Time::from_millis(30), Time::from_secs(6));
        for (topology, what) in [
            (
                TopologySpec::ParkingLot {
                    hops: 1,
                    hop_delay: Time::ZERO,
                },
                "1-hop parking lot",
            ),
            (
                TopologySpec::ParkingLot {
                    hops: 9,
                    hop_delay: Time::ZERO,
                },
                "9-hop parking lot",
            ),
            (TopologySpec::Incast { fan_in: 1 }, "1-leaf incast"),
            (TopologySpec::Incast { fan_in: 17 }, "17-leaf incast"),
        ] {
            let mut spec = base.clone();
            spec.topology = topology;
            assert!(spec.validate().is_err(), "{what} must be rejected");
        }
    }

    #[test]
    fn paper_traces_re_express_as_specs() {
        for tr in canopy_netsim::traces::all_eval_traces(11) {
            let spec = ScenarioSpec::from_eval_trace(tr.name(), 11);
            assert!(spec.validate().is_ok(), "{}", tr.name());
            let compiled = spec.trace.compile().unwrap();
            assert_eq!(compiled.segments(), tr.segments(), "{}", tr.name());
        }
    }
}
