//! What the telemetry layer owes input it did not write, and what its
//! one bounded ring owes its readers: a malformed, truncated or hostile
//! artifact is an `Err` from every parser — never a panic, never an
//! abort — and a full [`Ring`] evicts oldest-first with exact accounts.

use canopy_telemetry::{
    AlertLedger, DecisionRecord, FlightRecorder, MetricsSnapshot, Recorder, Ring, TelemetryReport,
};

const REPORT: &str = include_str!("../../../TELEMETRY_report.json");
const METRICS: &str = include_str!("../../../fixtures/live/serve_lab/metrics.jsonl");
const ALERTS: &str = include_str!("../../../fixtures/live/serve_lab/alerts.json");

/// Runs all three artifact readers over `text`, validating whatever
/// parses, and reports which of them accepted it. A panic anywhere
/// fails the calling test.
fn accepted(text: &str) -> [bool; 3] {
    [
        TelemetryReport::from_json(text).is_ok_and(|r| r.validate().is_ok()),
        MetricsSnapshot::from_json(text).is_ok_and(|s| s.validate().is_ok()),
        AlertLedger::from_json(text).is_ok_and(|l| l.validate().is_ok()),
    ]
}

fn first_metrics_line() -> &'static str {
    METRICS.lines().next().expect("the fixture has a snapshot")
}

/// `text` cut at the char boundary at or below `at`.
fn prefix(text: &str, mut at: usize) -> &str {
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    &text[..at]
}

#[test]
fn committed_artifacts_parse_and_validate() {
    assert_eq!(accepted(REPORT), [true, false, false]);
    assert_eq!(accepted(first_metrics_line()), [false, true, false]);
    assert_eq!(accepted(ALERTS), [false, false, true]);
}

#[test]
fn truncated_artifacts_are_errors() {
    // The report is 1.3 MB: 192 cuts across its first 64 KB, where every
    // kind of token occurs, and 16 more across the whole file.
    let dense = (0..192).map(|i| i * (64 << 10) / 192);
    let sparse = (1..=16).map(|i| i * (REPORT.len() - 1) / 16);
    for at in dense.chain(sparse) {
        assert_eq!(
            accepted(prefix(REPORT, at)),
            [false; 3],
            "report cut at {at}"
        );
    }
    for (name, text) in [
        ("metrics", first_metrics_line()),
        ("alerts", ALERTS.trim_end()),
    ] {
        for at in 0..text.len() {
            assert_eq!(accepted(prefix(text, at)), [false; 3], "{name} cut at {at}");
        }
    }
}

#[test]
fn single_byte_corruptions_never_panic() {
    // Structural characters, a digit, a letter, a control byte.
    const INJECT: &[u8] = b"\"{}[]:,\\-.9ex \n\x01";
    // A 4 KB prefix of the report is truncated whatever one byte says.
    let head = prefix(REPORT, 4096).as_bytes();
    // The two small artifacts are whole, so a corruption may still parse
    // (a changed digit): then `validate` runs, and must not panic either.
    let whole = [first_metrics_line().as_bytes(), ALERTS.as_bytes()];
    for (doc, must_fail) in [(head, true), (whole[0], false), (whole[1], false)] {
        for i in 0..doc.len() {
            let byte = INJECT[i % INJECT.len()];
            if !doc[i].is_ascii() || doc[i] == byte {
                continue;
            }
            let mut bytes = doc.to_vec();
            bytes[i] = byte;
            let text = String::from_utf8(bytes).expect("ASCII for ASCII");
            let verdict = accepted(&text);
            if must_fail {
                assert_eq!(verdict, [false; 3], "byte {i} -> {byte:#04x}");
            }
        }
    }
}

#[test]
fn nesting_bombs_are_errors_not_stack_overflows() {
    for bomb in ["[".repeat(20_000), "{\"alerts\":".repeat(20_000)] {
        assert_eq!(accepted(&bomb), [false; 3]);
        assert!(TelemetryReport::from_json(&bomb).is_err());
        assert!(MetricsSnapshot::from_json(&bomb).is_err());
        assert!(AlertLedger::from_json(&bomb).is_err());
    }
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
