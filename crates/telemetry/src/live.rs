//! Live observability: streaming metrics snapshots with Prometheus-style
//! exposition, and the SLO watchdog with its alert ledger.
//!
//! Everything here obeys the crate's determinism doctrine: snapshots are
//! taken at sim-time cadence boundaries, aggregate only order-invariant
//! state (registry counters, log-histograms, rolling windows), and
//! serialize to canonical JSON — so the JSONL stream, the exposition
//! text, and the alert ledger are bitwise-identical across runs and
//! thread counts.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use crate::artifact::Artifact;
use crate::metrics::{HistogramSummary, LogHistogram, Registry, RollingWindow, WindowSpec};
use crate::report::{export_registry, in_time_order, CounterEntry};

/// One rolling-window counter as exported in a snapshot.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WindowCounterEntry {
    /// Registry name.
    pub name: String,
    /// Window width in nanoseconds.
    pub window_ns: u64,
    /// Inclusive start of the window this value covers.
    pub window_start_ns: u64,
    /// Sum over the window.
    pub window_sum: u64,
    /// All-time total.
    pub total: u64,
}

/// One rolling-window histogram as exported in a snapshot.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WindowHistogramEntry {
    /// Registry name.
    pub name: String,
    /// Window width in nanoseconds.
    pub window_ns: u64,
    /// Inclusive start of the window this summary covers.
    pub window_start_ns: u64,
    /// Five-number summary of the merged window histogram.
    pub summary: HistogramSummary,
}

/// One point-in-time export of the metrics registry: exact counters,
/// all-time histogram summaries, and every rolling-window aggregate.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Schema tag, `canopy-live-metrics/v1`.
    pub schema: String,
    /// What is being observed (fleet name, scenario, …).
    pub label: String,
    /// Snapshot sequence number, starting at 0.
    pub seq: u64,
    /// Sim-time of the snapshot boundary, in nanoseconds.
    pub t_ns: u64,
    /// Counters in name order.
    pub counters: Vec<CounterEntry>,
    /// All-time histogram summaries in name order.
    pub histograms: Vec<HistogramSummary>,
    /// Rolling-window counters in name order.
    pub window_counters: Vec<WindowCounterEntry>,
    /// Rolling-window histogram summaries in name order.
    pub window_histograms: Vec<WindowHistogramEntry>,
}

impl MetricsSnapshot {
    /// Snapshots a registry at sim-time `t_ns`.
    pub fn from_registry(registry: &Registry, label: &str, seq: u64, t_ns: u64) -> MetricsSnapshot {
        let (counters, histograms) = export_registry(registry);
        MetricsSnapshot {
            schema: Self::SCHEMA.to_string(),
            label: label.to_string(),
            seq,
            t_ns,
            counters,
            histograms,
            window_counters: registry
                .windowed_counters()
                .map(|(name, c)| WindowCounterEntry {
                    name: name.to_string(),
                    window_ns: c.spec().window_ns(),
                    window_start_ns: c.window_start_ns(),
                    window_sum: c.window(),
                    total: *c.all(),
                })
                .collect(),
            window_histograms: registry
                .windowed_histograms()
                .map(|(name, h)| WindowHistogramEntry {
                    name: name.to_string(),
                    window_ns: h.spec().window_ns(),
                    window_start_ns: h.window_start_ns(),
                    summary: HistogramSummary::of(name, &h.window()),
                })
                .collect(),
        }
    }

    /// Renders the snapshot as Prometheus-style text exposition.
    /// Deterministic: metrics appear in registry (name) order and floats
    /// use Rust's shortest-round-trip formatting.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# {} label={} seq={} t_ns={}\n",
            Self::SCHEMA,
            self.label,
            self.seq,
            self.t_ns
        ));
        for c in &self.counters {
            let name = metric_name(&c.name);
            out.push_str(&format!("# TYPE canopy_{name} counter\n"));
            out.push_str(&format!("canopy_{name} {}\n", c.value));
        }
        for h in &self.histograms {
            let name = metric_name(&h.name);
            out.push_str(&format!("# TYPE canopy_{name} summary\n"));
            for (q, v) in [(0.5, h.p50), (0.95, h.p95), (0.99, h.p99)] {
                out.push_str(&format!("canopy_{name}{{quantile=\"{q}\"}} {v}\n"));
            }
            out.push_str(&format!("canopy_{name}_count {}\n", h.count));
            out.push_str(&format!("canopy_{name}_mean {}\n", h.mean));
        }
        for w in &self.window_counters {
            let name = metric_name(&w.name);
            out.push_str(&format!("# TYPE canopy_window_{name} gauge\n"));
            out.push_str(&format!(
                "canopy_window_{name}{{window_ns=\"{}\"}} {}\n",
                w.window_ns, w.window_sum
            ));
            out.push_str(&format!("canopy_window_{name}_total {}\n", w.total));
        }
        for w in &self.window_histograms {
            let name = metric_name(&w.name);
            let h = &w.summary;
            out.push_str(&format!("# TYPE canopy_window_{name} summary\n"));
            for (q, v) in [(0.5, h.p50), (0.95, h.p95), (0.99, h.p99)] {
                out.push_str(&format!(
                    "canopy_window_{name}{{window_ns=\"{}\",quantile=\"{q}\"}} {v}\n",
                    w.window_ns
                ));
            }
            out.push_str(&format!("canopy_window_{name}_count {}\n", h.count));
        }
        out
    }
}

impl Artifact for MetricsSnapshot {
    const SCHEMA: &'static str = "canopy-live-metrics/v1";

    fn schema(&self) -> &str {
        &self.schema
    }

    /// Finite floats, ordered quantiles, and positive window widths.
    fn check(&self) -> Result<(), String> {
        self.histograms
            .iter()
            .chain(self.window_histograms.iter().map(|w| &w.summary))
            .try_for_each(HistogramSummary::validate)?;
        for w in &self.window_counters {
            if w.window_ns == 0 {
                return Err(format!("window counter `{}`: zero-width window", w.name));
            }
            if w.window_sum > w.total {
                return Err(format!("window counter `{}`: window exceeds total", w.name));
            }
        }
        for w in &self.window_histograms {
            if w.window_ns == 0 {
                return Err(format!("window histogram `{}`: zero-width window", w.name));
            }
        }
        Ok(())
    }
}

/// Renders snapshots as the append-only JSONL stream (one canonical-JSON
/// snapshot per line).
pub fn metrics_jsonl(snapshots: &[MetricsSnapshot]) -> String {
    let mut out = String::new();
    for s in snapshots {
        out.push_str(&s.to_json());
        out.push('\n');
    }
    out
}

fn metric_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// What an SLO constrains. Each kind reads one rolling-window aggregate;
/// an SLO with no data in the window is neither breached nor cleared.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SloKind {
    /// Mean window `QC_sat` must stay **at or above** the threshold
    /// (reads the `qc_sat_ppm` windowed histogram).
    MinWindowQcSat,
    /// Window fallback engagements per decision must stay **at or
    /// below** the threshold (reads the `decisions_fallback_total` and
    /// `decisions_total` windowed counters).
    MaxFallbackRate,
    /// Window p99 decision latency (wall-clock nanoseconds, serving
    /// only — fed via `record_wall_latency_ns`, never part of
    /// deterministic artifacts) must stay **at or below** the threshold.
    MaxP99DecisionLatencyNs,
    /// Window packet drops per link sample must stay **at or below**
    /// the threshold (reads the `link_drops` and `link_samples_total`
    /// windowed counters). Only hosts that feed link samples give it
    /// data: the scenario and multi-flow runners do, a `canopy_serve`
    /// `Fleet` does not, so there this objective never evaluates.
    MaxLinkDropRate,
}

impl SloKind {
    /// Stable lowercase name used in ledgers and docs.
    pub fn name(&self) -> &'static str {
        match self {
            SloKind::MinWindowQcSat => "min_window_qc_sat",
            SloKind::MaxFallbackRate => "max_fallback_rate",
            SloKind::MaxP99DecisionLatencyNs => "max_p99_decision_latency_ns",
            SloKind::MaxLinkDropRate => "max_link_drop_rate",
        }
    }
}

/// One declarative service-level objective.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SloSpec {
    /// Ledger name for this objective (unique per watchdog).
    pub name: String,
    /// What the objective constrains.
    pub kind: SloKind,
    /// The bound (a rate in `[0,1]`, a `QC_sat`, or nanoseconds,
    /// depending on `kind`).
    pub threshold: f64,
}

impl SloSpec {
    /// A named objective.
    pub fn new(name: &str, kind: SloKind, threshold: f64) -> SloSpec {
        SloSpec {
            name: name.to_string(),
            kind,
            threshold,
        }
    }
}

/// One ledger entry: an SLO transitioning into (`active: true`) or out
/// of (`active: false`) breach at a snapshot boundary.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AlertRecord {
    /// Sim-time of the evaluating snapshot boundary, in nanoseconds.
    pub t_ns: u64,
    /// The breached objective's name.
    pub slo: String,
    /// The breached objective's kind.
    pub kind: SloKind,
    /// The observed window value that crossed (or re-crossed) the bound.
    pub observed: f64,
    /// The objective's bound.
    pub threshold: f64,
    /// `true` when the breach begins, `false` when it clears.
    pub active: bool,
}

/// The append-only, schema-validated alert ledger.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AlertLedger {
    /// Schema tag, `canopy-alerts/v1`.
    pub schema: String,
    /// What was being watched.
    pub label: String,
    /// Breach/clear transitions, oldest first.
    pub alerts: Vec<AlertRecord>,
}

impl AlertLedger {
    /// An empty ledger.
    pub fn new(label: &str) -> AlertLedger {
        AlertLedger {
            schema: Self::SCHEMA.to_string(),
            label: label.to_string(),
            alerts: Vec::new(),
        }
    }
}

impl Artifact for AlertLedger {
    const SCHEMA: &'static str = "canopy-alerts/v1";

    fn schema(&self) -> &str {
        &self.schema
    }

    /// Nondecreasing timestamps, finite floats, and per-SLO breach/clear
    /// alternation starting with a breach.
    fn check(&self) -> Result<(), String> {
        in_time_order("alert", self.alerts.iter().map(|a| a.t_ns))?;
        let mut active: BTreeSet<&str> = BTreeSet::new();
        for (i, a) in self.alerts.iter().enumerate() {
            if !a.observed.is_finite() || !a.threshold.is_finite() {
                return Err(format!("alert {i} carries a non-finite value"));
            }
            if a.active {
                if !active.insert(a.slo.as_str()) {
                    return Err(format!(
                        "alert {i}: `{}` breached while already active",
                        a.slo
                    ));
                }
            } else if !active.remove(a.slo.as_str()) {
                return Err(format!("alert {i}: `{}` cleared while not active", a.slo));
            }
        }
        Ok(())
    }
}

/// Evaluates a set of [`SloSpec`]s over the rolling windows at each
/// snapshot boundary, appending breach/clear transitions to the ledger.
#[derive(Clone, Debug)]
pub struct SloWatchdog {
    specs: Vec<SloSpec>,
    active: BTreeSet<String>,
    ledger: AlertLedger,
}

impl SloWatchdog {
    /// A watchdog over the given objectives.
    pub fn new(label: &str, specs: Vec<SloSpec>) -> SloWatchdog {
        SloWatchdog {
            specs,
            active: BTreeSet::new(),
            ledger: AlertLedger::new(label),
        }
    }

    /// Evaluates every objective against the registry's rolling windows
    /// (and the serving-only wall-latency window) at boundary `t_ns`.
    /// An objective with no window data keeps its current state.
    pub fn evaluate(
        &mut self,
        t_ns: u64,
        registry: &Registry,
        wall_latency: Option<&RollingWindow<LogHistogram>>,
    ) {
        // Window sum of `num` per unit of `den`; no data while `den` is 0.
        let rate = |num: &str, den: &str| {
            let den = registry.windowed_counter(den)?.window();
            let num = registry.windowed_counter(num).map_or(0, |c| c.window());
            (den > 0).then(|| num as f64 / den as f64)
        };
        for spec in &self.specs {
            let observed = match spec.kind {
                SloKind::MinWindowQcSat => {
                    registry.windowed_histogram("qc_sat_ppm").and_then(|w| {
                        let h = w.window();
                        (h.count() > 0).then(|| h.mean() / 1e6)
                    })
                }
                SloKind::MaxFallbackRate => rate("decisions_fallback_total", "decisions_total"),
                SloKind::MaxP99DecisionLatencyNs => wall_latency.and_then(|w| {
                    let h = w.window();
                    (h.count() > 0).then(|| h.p99() as f64)
                }),
                SloKind::MaxLinkDropRate => rate("link_drops", "link_samples_total"),
            };
            let Some(observed) = observed else { continue };
            let breached = match spec.kind {
                SloKind::MinWindowQcSat => observed < spec.threshold,
                SloKind::MaxFallbackRate
                | SloKind::MaxP99DecisionLatencyNs
                | SloKind::MaxLinkDropRate => observed > spec.threshold,
            };
            let was_active = self.active.contains(&spec.name);
            if breached != was_active {
                self.ledger.alerts.push(AlertRecord {
                    t_ns,
                    slo: spec.name.clone(),
                    kind: spec.kind,
                    observed,
                    threshold: spec.threshold,
                    active: breached,
                });
                if breached {
                    self.active.insert(spec.name.clone());
                } else {
                    self.active.remove(&spec.name);
                }
            }
        }
    }

    /// Whether any objective is currently in breach.
    pub fn breach_active(&self) -> bool {
        !self.active.is_empty()
    }

    /// The ledger accumulated so far.
    pub fn ledger(&self) -> &AlertLedger {
        &self.ledger
    }
}

/// Configuration of the live layer a [`crate::FlightRecorder`] can carry.
#[derive(Clone, Debug)]
pub struct LiveConfig {
    /// Snapshot cadence in nanoseconds of sim time; also the width of
    /// one rolling-window bucket.
    pub cadence_ns: u64,
    /// Buckets each rolling window spans.
    pub buckets: usize,
    /// Label stamped into snapshots and the alert ledger.
    pub label: String,
    /// Objectives the watchdog evaluates at each snapshot.
    pub slos: Vec<SloSpec>,
}

impl Default for LiveConfig {
    fn default() -> LiveConfig {
        LiveConfig {
            cadence_ns: 100_000_000, // 100 ms of sim time
            buckets: 8,
            label: "live".to_string(),
            slos: Vec::new(),
        }
    }
}

impl LiveConfig {
    /// Sets the snapshot cadence (the bucket width) and the bucket count.
    pub fn with_cadence(mut self, cadence_ns: u64, buckets: usize) -> LiveConfig {
        self.cadence_ns = cadence_ns.max(1);
        self.buckets = buckets;
        self
    }

    /// The windowed feeds' geometry: `buckets` buckets of one cadence each.
    pub fn window(&self) -> WindowSpec {
        WindowSpec::new(self.cadence_ns, self.buckets)
    }

    /// Sets the label.
    pub fn with_label(mut self, label: &str) -> LiveConfig {
        self.label = label.to_string();
        self
    }

    /// Adds an objective.
    pub fn with_slo(mut self, spec: SloSpec) -> LiveConfig {
        self.slos.push(spec);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot_fixture() -> MetricsSnapshot {
        let spec = WindowSpec::new(10_000_000, 4);
        let mut r = Registry::new();
        r.inc("decisions_total", 12);
        r.observe("decision_qdelay_ns", 1_000_000);
        r.inc_windowed("decisions_total", spec, 5_000_000, 12);
        r.observe_windowed("qc_sat_ppm", spec, 5_000_000, 900_000);
        MetricsSnapshot::from_registry(&r, "unit", 0, 10_000_000)
    }

    #[test]
    fn snapshot_round_trips_and_validates() {
        let snap = snapshot_fixture();
        snap.validate().expect("valid");
        let text = snap.to_json();
        let back = MetricsSnapshot::from_json(&text).expect("parses");
        assert_eq!(snap, back);
        assert_eq!(back.to_json(), text, "canonical round trip");
        assert_eq!(back.window_counters.len(), 1);
        assert_eq!(back.window_histograms.len(), 1);
        assert_eq!(back.window_counters[0].window_sum, 12);
    }

    #[test]
    fn snapshot_validation_rejects_broken_snapshots() {
        let good = snapshot_fixture();
        let mut bad = good.clone();
        bad.schema = "canopy-live-metrics/v0".into();
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.histograms[0].mean = f64::NAN;
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.window_counters[0].window_sum = bad.window_counters[0].total + 1;
        assert!(bad.validate().is_err());
        let mut bad = good;
        bad.window_counters[0].window_ns = 0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn exposition_is_deterministic_and_lists_every_metric() {
        let snap = snapshot_fixture();
        let text = snap.to_prometheus();
        assert_eq!(text, snap.to_prometheus());
        assert!(text.starts_with("# canopy-live-metrics/v1 label=unit seq=0 t_ns=10000000\n"));
        assert!(text.contains("canopy_decisions_total 12\n"));
        assert!(text.contains("canopy_decision_qdelay_ns{quantile=\"0.99\"}"));
        assert!(text.contains("canopy_window_decisions_total{window_ns=\"40000000\"} 12\n"));
        assert!(text.contains("canopy_window_qc_sat_ppm_count 1\n"));
    }

    #[test]
    fn jsonl_is_one_canonical_line_per_snapshot() {
        let snap = snapshot_fixture();
        let text = metrics_jsonl(&[snap.clone(), snap.clone()]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], snap.to_json());
    }

    #[test]
    fn watchdog_breaches_and_clears_with_alternating_ledger() {
        let spec = WindowSpec::new(10, 2);
        let slos = vec![
            SloSpec::new("fallback", SloKind::MaxFallbackRate, 0.5),
            SloSpec::new("qc", SloKind::MinWindowQcSat, 0.8),
        ];
        let mut dog = SloWatchdog::new("unit", slos);
        let mut r = Registry::new();
        // Window 1: all decisions fall back, QC well below the floor.
        r.inc_windowed("decisions_total", spec, 5, 4);
        r.inc_windowed("decisions_fallback_total", spec, 5, 4);
        r.observe_windowed("qc_sat_ppm", spec, 5, 100_000);
        dog.evaluate(10, &r, None);
        assert!(dog.breach_active());
        let breached: Vec<&str> = dog.ledger().alerts.iter().map(|a| a.slo.as_str()).collect();
        assert_eq!(breached, vec!["fallback", "qc"]);
        // Re-evaluating an ongoing breach appends nothing.
        dog.evaluate(20, &r, None);
        assert_eq!(dog.ledger().alerts.len(), 2);
        // Window slides past the bad bucket; healthy traffic clears both.
        r.inc_windowed("decisions_total", spec, 35, 10);
        r.observe_windowed("qc_sat_ppm", spec, 35, 950_000);
        r.advance_windows(35);
        dog.evaluate(40, &r, None);
        assert!(!dog.breach_active());
        let ledger = dog.ledger();
        assert_eq!(ledger.alerts.len(), 4);
        assert!(ledger.alerts[0].active && !ledger.alerts[2].active);
        ledger.validate().expect("ledger valid");
    }

    #[test]
    fn watchdog_latency_slo_reads_the_wall_window() {
        let mut dog = SloWatchdog::new(
            "unit",
            vec![SloSpec::new(
                "lat",
                SloKind::MaxP99DecisionLatencyNs,
                1_000.0,
            )],
        );
        let r = Registry::new();
        let mut wall = RollingWindow::<LogHistogram>::new(WindowSpec::new(10, 4));
        // No data: no transition.
        dog.evaluate(10, &r, Some(&wall));
        assert!(!dog.breach_active());
        wall.add(5, 50_000);
        dog.evaluate(20, &r, Some(&wall));
        assert!(dog.breach_active());
        assert_eq!(
            dog.ledger().alerts[0].kind,
            SloKind::MaxP99DecisionLatencyNs
        );
    }

    #[test]
    fn ledger_validation_rejects_malformed_sequences() {
        let mut ledger = AlertLedger::new("unit");
        let breach = AlertRecord {
            t_ns: 10,
            slo: "x".into(),
            kind: SloKind::MaxFallbackRate,
            observed: 1.0,
            threshold: 0.5,
            active: true,
        };
        ledger.alerts.push(breach.clone());
        ledger.validate().expect("open breach is fine");
        // Double breach without a clear.
        let mut bad = ledger.clone();
        bad.alerts.push(AlertRecord {
            t_ns: 20,
            ..breach.clone()
        });
        assert!(bad.validate().is_err());
        // Clear of a never-breached SLO.
        let mut bad = AlertLedger::new("unit");
        bad.alerts.push(AlertRecord {
            active: false,
            ..breach.clone()
        });
        assert!(bad.validate().is_err());
        // Time going backwards.
        let mut bad = ledger.clone();
        bad.alerts.push(AlertRecord {
            t_ns: 5,
            slo: "y".into(),
            ..breach.clone()
        });
        assert!(bad.validate().is_err());
        // Wrong schema.
        let mut bad = ledger.clone();
        bad.schema = "nope".into();
        assert!(bad.validate().is_err());
        // Round trip.
        let back = AlertLedger::from_json(&ledger.to_json()).expect("parses");
        assert_eq!(back, ledger);
    }
}
