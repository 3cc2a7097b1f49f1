//! What the telemetry readers owe integers they did not write, and what
//! the one bounded ring owes its readers: an out-of-range integer is an
//! `Err`, never a saturated or rounded value, and a full [`Ring`] evicts
//! oldest-first with exact accounts. (Truncations, byte corruptions and
//! nesting bombs are swept over every artifact reader, these three
//! included, by the umbrella package's `tests/artifacts.rs`.)

use canopy_telemetry::{
    AlertLedger, Artifact, DecisionRecord, FlightRecorder, MetricsSnapshot, Recorder, Ring,
    TelemetryReport,
};

const METRICS: &str = include_str!("../../../fixtures/live/serve_lab/metrics.jsonl");
const ALERTS: &str = include_str!("../../../fixtures/live/serve_lab/alerts.json");

/// Runs all three telemetry readers over `text` and reports which of
/// them accepted it. A panic anywhere fails the calling test.
fn accepted(text: &str) -> [bool; 3] {
    [
        TelemetryReport::from_json(text).is_ok(),
        MetricsSnapshot::from_json(text).is_ok(),
        AlertLedger::from_json(text).is_ok(),
    ]
}

fn first_metrics_line() -> &'static str {
    METRICS.lines().next().expect("the fixture has a snapshot")
}

#[test]
fn out_of_range_integers_are_errors() {
    let mut rec = FlightRecorder::default();
    rec.record_decision(&DecisionRecord {
        t_ns: 77,
        flow: 0,
        state_mean: 0.0,
        state_min: 0.0,
        state_max: 0.0,
        action: 0.0,
        action_clamped: 0.0,
        cwnd: 10.0,
        qdelay_ns: 5,
        qc_sat: None,
        fallback: false,
    });
    let report = TelemetryReport::from_recorder(&rec, "unit", "cubic").to_json();
    let cases = [
        (report.as_str(), "\"decisions_seen\":1", 0),
        (report.as_str(), "\"t_ns\":77", 0),
        (first_metrics_line(), "\"seq\":0", 1),
        (ALERTS, "\"t_ns\":100000000", 2),
    ];
    for (text, field, reader) in cases {
        assert!(accepted(text)[reader], "{field}: the untouched text parses");
        let (key, _) = field.split_once(':').expect("key:value");
        for bad in ["1e999", "-1", "18446744073709551616", "0.5", "null"] {
            assert_eq!(text.matches(field).count(), 1, "{field} is unambiguous");
            let forged = text.replace(field, &format!("{key}:{bad}"));
            assert!(!accepted(&forged)[reader], "{key}:{bad} was accepted");
        }
    }
}

#[test]
fn a_full_ring_evicts_oldest_first_with_exact_accounts() {
    let mut ring = Ring::new(4);
    assert!(ring.is_empty());
    for i in 0..4u64 {
        ring.push(i);
        // Up to capacity nothing is lost: every event is kept.
        assert_eq!(
            (ring.len() as u64, ring.seen(), ring.dropped()),
            (i + 1, i + 1, 0)
        );
    }
    for i in 4..11u64 {
        ring.push(i);
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.seen(), ring.len() as u64 + ring.dropped());
        let kept: Vec<u64> = ring.iter().copied().collect();
        assert_eq!(kept, (i - 3..=i).collect::<Vec<_>>(), "oldest goes first");
    }
    assert_eq!((ring.seen(), ring.dropped()), (11, 7));
    // A zero capacity is clamped to one slot, not a ring that keeps nothing.
    let mut one = Ring::new(0);
    one.push('a');
    one.push('b');
    assert_eq!(one.iter().collect::<Vec<_>>(), [&'b']);
    assert_eq!((one.seen(), one.dropped()), (2, 1));
}
