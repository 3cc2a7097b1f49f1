//! The canonical-JSON telemetry report (`TELEMETRY_report.json`).

use serde::{Deserialize, Serialize};

use crate::artifact::Artifact;
use crate::event::{
    BatchRecord, DecisionRecord, LinkSample, SearchEvent, SpanRecord, TrainerEvent,
};
use crate::metrics::{HistogramSummary, Registry};
use crate::recorder::{FlightRecorder, Ring};

/// One named counter (the registry serialized in name order).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CounterEntry {
    /// Registry name.
    pub name: String,
    /// Counter value.
    pub value: u64,
}

/// One row of the span profiler's time-attribution table: exact totals
/// over every offered span of one hot-path stage.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpanStageSummary {
    /// Stage name ([`crate::SpanStage::name`]).
    pub stage: String,
    /// Spans recorded for this stage (one per batched dispatch).
    pub count: u64,
    /// Total items the stage processed across all its spans.
    pub items: u64,
    /// Total wall-clock nanoseconds attributed to the stage (0 when
    /// span timing was off).
    pub dur_ns: u64,
}

/// Everything one flight recording exports: exact counters, histogram
/// summaries, and the kept event rings with their exact totals — enough
/// to tell "the ring wrapped" apart from "nothing happened".
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// Schema tag, `canopy-telemetry/v2`.
    pub schema: String,
    /// What was recorded (scenario name, bench name, …).
    pub label: String,
    /// The scheme under instrumentation (`cubic`, a model name, …).
    pub scheme: String,
    /// Counters in name order.
    pub counters: Vec<CounterEntry>,
    /// Histogram summaries in name order.
    pub histograms: Vec<HistogramSummary>,
    /// Kept decision records, oldest first.
    pub decisions: Vec<DecisionRecord>,
    /// Total decisions offered to the recorder.
    pub decisions_seen: u64,
    /// Decisions evicted from the full ring.
    pub decisions_dropped: u64,
    /// Kept link samples, oldest first.
    pub links: Vec<LinkSample>,
    /// Total link samples offered.
    pub links_seen: u64,
    /// Link samples evicted from the full ring.
    pub links_dropped: u64,
    /// Kept batch-dispatch records, oldest first.
    pub batches: Vec<BatchRecord>,
    /// Total batch dispatches offered.
    pub batches_seen: u64,
    /// Batch records evicted from the full ring.
    pub batches_dropped: u64,
    /// Kept hot-path span records, oldest first.
    pub spans: Vec<SpanRecord>,
    /// Total spans offered.
    pub spans_seen: u64,
    /// Span records evicted from the full ring.
    pub spans_dropped: u64,
    /// Per-stage time-attribution totals over every offered span, in
    /// hot-path order (parent `dispatch` first).
    pub span_stages: Vec<SpanStageSummary>,
    /// Kept trainer events, oldest first.
    pub trainer: Vec<TrainerEvent>,
    /// Total trainer events offered.
    pub trainer_seen: u64,
    /// Trainer events evicted from the full ring.
    pub trainer_dropped: u64,
    /// Kept search events, oldest first.
    pub search: Vec<SearchEvent>,
    /// Total search events offered.
    pub search_seen: u64,
    /// Search events evicted from the full ring.
    pub search_dropped: u64,
}

/// A stream's kept events, oldest first.
fn kept<T: Clone>(ring: &Ring<T>) -> Vec<T> {
    ring.iter().cloned().collect()
}

/// `Err` naming the first of `what` stamped before its predecessor.
pub(crate) fn in_time_order(what: &str, stamps: impl Iterator<Item = u64>) -> Result<(), String> {
    let mut prev = 0;
    for (i, t) in stamps.enumerate() {
        if t < prev {
            return Err(format!("{what} {i} goes back in time"));
        }
        prev = t;
    }
    Ok(())
}

/// The part of a registry every export carries: its counters and its
/// all-time histogram summaries, each in name order.
pub(crate) fn export_registry(registry: &Registry) -> (Vec<CounterEntry>, Vec<HistogramSummary>) {
    let counters = registry
        .counters()
        .map(|(name, value)| CounterEntry {
            name: name.to_string(),
            value,
        })
        .collect();
    let histograms = registry
        .histograms()
        .map(|(name, h)| HistogramSummary::of(name, h))
        .collect();
    (counters, histograms)
}

impl TelemetryReport {
    /// Exports a recording.
    pub fn from_recorder(recorder: &FlightRecorder, label: &str, scheme: &str) -> TelemetryReport {
        let (counters, histograms) = export_registry(recorder.registry());
        TelemetryReport {
            schema: Self::SCHEMA.to_string(),
            label: label.to_string(),
            scheme: scheme.to_string(),
            counters,
            histograms,
            decisions: kept(recorder.decisions()),
            decisions_seen: recorder.decisions().seen(),
            decisions_dropped: recorder.decisions().dropped(),
            links: kept(recorder.links()),
            links_seen: recorder.links().seen(),
            links_dropped: recorder.links().dropped(),
            batches: kept(recorder.batches()),
            batches_seen: recorder.batches().seen(),
            batches_dropped: recorder.batches().dropped(),
            spans: kept(recorder.spans()),
            spans_seen: recorder.spans().seen(),
            spans_dropped: recorder.spans().dropped(),
            span_stages: if recorder.spans().seen() == 0 {
                Vec::new()
            } else {
                recorder
                    .span_stage_totals()
                    .into_iter()
                    .map(|(stage, count, items, dur_ns)| SpanStageSummary {
                        stage: stage.name().to_string(),
                        count,
                        items,
                        dur_ns,
                    })
                    .collect()
            },
            trainer: kept(recorder.trainer_events()),
            trainer_seen: recorder.trainer_events().seen(),
            trainer_dropped: recorder.trainer_events().dropped(),
            search: kept(recorder.search_events()),
            search_seen: recorder.search_events().seen(),
            search_dropped: recorder.search_events().dropped(),
        }
    }
}

impl Artifact for TelemetryReport {
    const SCHEMA: &'static str = "canopy-telemetry/v2";

    fn schema(&self) -> &str {
        &self.schema
    }

    /// Exact-total accounting per category, nondecreasing sim-time within
    /// every stream, and finite floats everywhere.
    fn check(&self) -> Result<(), String> {
        let streams: [(&str, usize, u64, u64); 6] = [
            (
                "decisions",
                self.decisions.len(),
                self.decisions_seen,
                self.decisions_dropped,
            ),
            (
                "links",
                self.links.len(),
                self.links_seen,
                self.links_dropped,
            ),
            (
                "batches",
                self.batches.len(),
                self.batches_seen,
                self.batches_dropped,
            ),
            (
                "spans",
                self.spans.len(),
                self.spans_seen,
                self.spans_dropped,
            ),
            (
                "trainer",
                self.trainer.len(),
                self.trainer_seen,
                self.trainer_dropped,
            ),
            (
                "search",
                self.search.len(),
                self.search_seen,
                self.search_dropped,
            ),
        ];
        for (name, kept, seen, dropped) in streams {
            // Checked in two steps (not `kept + dropped != seen`, which
            // can overflow-wrap on a forged report where kept > seen).
            if kept as u64 > seen {
                return Err(format!("{name}: kept {kept} exceeds seen {seen}"));
            }
            if seen - kept as u64 != dropped {
                return Err(format!(
                    "{name}: kept {kept} + dropped {dropped} != seen {seen}"
                ));
            }
        }
        in_time_order("decision", self.decisions.iter().map(|d| d.t_ns))?;
        in_time_order("link sample", self.links.iter().map(|s| s.t_ns))?;
        in_time_order("batch record", self.batches.iter().map(|b| b.t_ns))?;
        in_time_order("span", self.spans.iter().map(|s| s.t_ns))?;
        for (i, d) in self.decisions.iter().enumerate() {
            for x in [
                d.state_mean,
                d.state_min,
                d.state_max,
                d.action,
                d.action_clamped,
                d.cwnd,
            ] {
                if !x.is_finite() {
                    return Err(format!("decision {i} carries a non-finite value"));
                }
            }
            if let Some(q) = d.qc_sat {
                if !q.is_finite() || !(0.0..=1.0).contains(&q) {
                    return Err(format!("decision {i}: qc_sat {q} outside [0, 1]"));
                }
            }
        }
        for (i, s) in self.links.iter().enumerate() {
            if !s.utilization.is_finite() || s.utilization < 0.0 {
                return Err(format!(
                    "link sample {i}: bad utilization {}",
                    s.utilization
                ));
            }
        }
        for (i, b) in self.batches.iter().enumerate() {
            if b.size == 0 {
                return Err(format!("batch record {i} is empty"));
            }
            if b.groups == 0 || b.groups > b.size {
                return Err(format!(
                    "batch record {i}: {} groups for {} decisions",
                    b.groups, b.size
                ));
            }
        }
        if !self.span_stages.is_empty() {
            let stage_count: u64 = self.span_stages.iter().map(|s| s.count).sum();
            if stage_count != self.spans_seen {
                return Err(format!(
                    "span stage table counts {stage_count} spans, {} were seen",
                    self.spans_seen
                ));
            }
        } else if self.spans_seen != 0 {
            return Err("spans were seen but the stage table is empty".to_string());
        }
        for (i, e) in self.trainer.iter().enumerate() {
            if e.floats().iter().any(|x| !x.is_finite()) {
                return Err(format!("trainer event {i} carries a non-finite value"));
            }
        }
        for (i, e) in self.search.iter().enumerate() {
            if !e.batch_best.is_finite() || !e.best_badness.is_finite() {
                return Err(format!("search event {i} carries a non-finite value"));
            }
        }
        self.histograms
            .iter()
            .try_for_each(HistogramSummary::validate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DecisionRecord, SpanStage};
    use crate::recorder::{Recorder, RecorderConfig};

    fn recorded() -> FlightRecorder {
        let mut rec = FlightRecorder::new(RecorderConfig::default());
        for i in 0..5u64 {
            rec.record_decision(&DecisionRecord {
                t_ns: i * 20_000_000,
                flow: 0,
                state_mean: 0.0,
                state_min: -0.5,
                state_max: 0.5,
                action: 0.1,
                action_clamped: 0.1,
                cwnd: 12.0,
                qdelay_ns: 1_500_000,
                qc_sat: Some(0.8),
                fallback: i == 3,
            });
            rec.record_link(&LinkSample {
                t_ns: i * 10_000_000,
                link: 0,
                queue_bytes: 14_480,
                drops: 0,
                utilization: 0.9,
            });
        }
        rec.record_batch(&BatchRecord {
            t_ns: 20_000_000,
            size: 5,
            groups: 2,
        });
        for stage in SpanStage::ALL {
            rec.record_span(&SpanRecord {
                t_ns: 20_000_000,
                batch: 0,
                stage,
                items: 5,
                dur_ns: 0,
            });
        }
        rec.record_trainer(&TrainerEvent::TdLoss {
            step: 10,
            critic_loss: 0.02,
        });
        rec.record_search(&SearchEvent {
            generation: 0,
            evaluations: 16,
            batch_best: 0.3,
            best_badness: 0.3,
        });
        rec
    }

    #[test]
    fn report_round_trips_and_validates() {
        let report = TelemetryReport::from_recorder(&recorded(), "unit", "cubic");
        report.validate().expect("valid");
        let text = report.to_json();
        let back = TelemetryReport::from_json(&text).expect("parses");
        assert_eq!(report, back);
        assert_eq!(back.to_json(), text, "canonical round trip");
        assert_eq!(back.decisions_seen, 5);
        assert_eq!(back.batches_seen, 1);
        assert_eq!(back.spans_seen, 6);
        assert_eq!(back.span_stages.len(), 6);
        assert_eq!(back.span_stages[0].stage, "dispatch");
        assert_eq!(back.span_stages[0].items, 5);
        assert_eq!(back.counters.len(), 8);
    }

    #[test]
    fn validation_rejects_broken_reports() {
        let good = TelemetryReport::from_recorder(&recorded(), "unit", "cubic");
        let mut bad = good.clone();
        bad.schema = "canopy-telemetry/v1".into();
        let err = bad.validate().expect_err("the previous tag is refused");
        assert!(err.to_string().contains("schema mismatch"), "{err}");
        let mut bad = good.clone();
        bad.decisions_seen = 99;
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.decisions[0].t_ns = u64::MAX;
        assert!(bad.validate().is_err(), "time went backwards");
        let mut bad = good.clone();
        bad.decisions[1].qc_sat = Some(1.5);
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.links[0].utilization = f64::NAN;
        assert!(bad.validate().is_err());
        let mut bad = good.clone();
        bad.batches_seen = 7;
        assert!(bad.validate().is_err(), "batch accounting must balance");
        let mut bad = good.clone();
        bad.batches[0].groups = 9;
        assert!(bad.validate().is_err(), "more groups than decisions");
        let mut bad = good.clone();
        bad.spans[0].t_ns = u64::MAX;
        assert!(bad.validate().is_err(), "span time went backwards");
        let mut bad = good.clone();
        bad.span_stages[0].count += 1;
        assert!(bad.validate().is_err(), "stage table out of sync");
        let mut bad = good;
        bad.span_stages.clear();
        assert!(bad.validate().is_err(), "spans seen but no stage table");
    }

    #[test]
    fn ring_accounting_rejects_kept_exceeding_seen() {
        // Forged so that `kept + dropped` wraps back to `seen` in
        // release mode: the old single-equation check passed this.
        let good = TelemetryReport::from_recorder(&recorded(), "unit", "cubic");
        let mut forged = good.clone();
        forged.decisions_seen = 2; // kept = 5 > seen
        forged.decisions_dropped = u64::MAX - 2; // 5 + (MAX-2) wraps to 2
        let err = forged.validate().expect_err("forged accounting");
        assert!(err.to_string().contains("exceeds seen"), "{err}");
        let mut forged = good;
        forged.spans_seen = 3;
        forged.spans_dropped = u64::MAX - 2;
        assert!(forged.validate().is_err());
    }
}
