//! Chrome-trace / Perfetto JSON export.
//!
//! Emits the classic `traceEvents` JSON array format, which both
//! `chrome://tracing` and <https://ui.perfetto.dev> open directly:
//! decision instants per flow track, link queue depth / utilization /
//! drops as counter tracks, and trainer/search events on their own
//! tracks. Timestamps are simulation microseconds; the output is
//! canonical (sorted keys, deterministic float formatting) so traces diff
//! cleanly across runs.

use serde::{Map, Value};

use crate::report::TelemetryReport;

/// Process ids of the synthetic trace: flows, links, trainer, search.
const PID_FLOWS: u64 = 1;
const PID_LINKS: u64 = 2;
const PID_TRAINER: u64 = 3;
const PID_SEARCH: u64 = 4;
const PID_BATCHES: u64 = 5;
const PID_SPANS: u64 = 6;

fn obj(entries: Vec<(&str, Value)>) -> Value {
    let mut m = Map::new();
    for (k, v) in entries {
        m.insert(k.to_string(), v);
    }
    Value::Object(m)
}

fn us(t_ns: u64) -> Value {
    Value::F64(t_ns as f64 / 1000.0)
}

fn meta(pid: u64, tid: u64, which: &str, name: &str) -> Value {
    obj(vec![
        ("ph", Value::String("M".into())),
        ("pid", Value::U64(pid)),
        ("tid", Value::U64(tid)),
        ("name", Value::String(which.into())),
        ("args", obj(vec![("name", Value::String(name.to_string()))])),
    ])
}

/// Renders a telemetry report as Chrome-trace JSON text.
pub fn chrome_trace(report: &TelemetryReport) -> String {
    let mut events: Vec<Value> = vec![
        meta(PID_FLOWS, 0, "process_name", "decisions"),
        meta(PID_LINKS, 0, "process_name", "links"),
        meta(PID_TRAINER, 0, "process_name", "trainer"),
        meta(PID_SEARCH, 0, "process_name", "search"),
        meta(PID_BATCHES, 0, "process_name", "batching"),
        meta(PID_SPANS, 0, "process_name", "hot path"),
    ];

    let mut named_flows: Vec<u64> = Vec::new();
    for d in &report.decisions {
        if !named_flows.contains(&d.flow) {
            named_flows.push(d.flow);
            events.push(meta(
                PID_FLOWS,
                d.flow,
                "thread_name",
                &format!("flow {}", d.flow),
            ));
        }
        let mut args = vec![
            ("action", Value::F64(d.action)),
            ("action_clamped", Value::F64(d.action_clamped)),
            ("cwnd", Value::F64(d.cwnd)),
            ("qdelay_ms", Value::F64(d.qdelay_ns as f64 / 1e6)),
        ];
        if let Some(q) = d.qc_sat {
            args.push(("qc_sat", Value::F64(q)));
        }
        let name = if d.fallback { "fallback" } else { "decision" };
        events.push(obj(vec![
            ("ph", Value::String("i".into())),
            ("s", Value::String("t".into())),
            ("pid", Value::U64(PID_FLOWS)),
            ("tid", Value::U64(d.flow)),
            ("ts", us(d.t_ns)),
            ("name", Value::String(name.into())),
            ("cat", Value::String("decision".into())),
            ("args", obj(args)),
        ]));
        // A counter track makes the applied window plottable over time.
        events.push(obj(vec![
            ("ph", Value::String("C".into())),
            ("pid", Value::U64(PID_FLOWS)),
            ("tid", Value::U64(d.flow)),
            ("ts", us(d.t_ns)),
            ("name", Value::String(format!("cwnd flow {}", d.flow))),
            ("args", obj(vec![("packets", Value::F64(d.cwnd))])),
        ]));
    }

    for s in &report.links {
        events.push(obj(vec![
            ("ph", Value::String("C".into())),
            ("pid", Value::U64(PID_LINKS)),
            ("tid", Value::U64(s.link)),
            ("ts", us(s.t_ns)),
            ("name", Value::String(format!("link {}", s.link))),
            (
                "args",
                obj(vec![
                    ("queue_bytes", Value::U64(s.queue_bytes)),
                    ("drops", Value::U64(s.drops)),
                    ("utilization", Value::F64(s.utilization)),
                ]),
            ),
        ]));
    }

    // The batched pool's dispatch sizes as a counter track: how many
    // decisions each simulation instant stacked through one actor call,
    // and how many distinct policy groups the batch split into.
    for b in &report.batches {
        events.push(obj(vec![
            ("ph", Value::String("C".into())),
            ("pid", Value::U64(PID_BATCHES)),
            ("tid", Value::U64(0)),
            ("ts", us(b.t_ns)),
            ("name", Value::String("decisions per batch".into())),
            (
                "args",
                obj(vec![
                    ("decisions", Value::U64(b.size)),
                    ("groups", Value::U64(b.groups)),
                ]),
            ),
        ]));
    }

    // Hot-path spans as complete ("X") duration events. Each batch's
    // `dispatch` span is the parent; its child stages are laid out
    // back-to-back from the parent's start (children nest under the
    // parent when contained in its duration, which holds by
    // construction: the stages partition the dispatch).
    let mut child_offset_ns = 0u64;
    for s in &report.spans {
        let name = s.stage.name();
        if name == "dispatch" {
            child_offset_ns = 0;
        }
        let ts_ns = if name == "dispatch" {
            s.t_ns
        } else {
            let ts = s.t_ns + child_offset_ns;
            child_offset_ns += s.dur_ns;
            ts
        };
        events.push(obj(vec![
            ("ph", Value::String("X".into())),
            ("pid", Value::U64(PID_SPANS)),
            ("tid", Value::U64(0)),
            ("ts", us(ts_ns)),
            ("dur", us(s.dur_ns)),
            ("name", Value::String(name.into())),
            ("cat", Value::String("span".into())),
            (
                "args",
                obj(vec![
                    ("batch", Value::U64(s.batch)),
                    ("items", Value::U64(s.items)),
                ]),
            ),
        ]));
    }

    // Trainer and search events have no simulation clock; index them by
    // step/generation on a millisecond-spaced synthetic timeline.
    for e in &report.trainer {
        let label = serde_json::to_string(e).expect("the JSON writer is infallible");
        events.push(obj(vec![
            ("ph", Value::String("i".into())),
            ("s", Value::String("t".into())),
            ("pid", Value::U64(PID_TRAINER)),
            ("tid", Value::U64(0)),
            ("ts", us(e.step() * 1_000_000)),
            ("name", Value::String(label)),
            ("cat", Value::String("trainer".into())),
        ]));
    }
    for e in &report.search {
        events.push(obj(vec![
            ("ph", Value::String("C".into())),
            ("pid", Value::U64(PID_SEARCH)),
            ("tid", Value::U64(0)),
            ("ts", us(e.generation * 1_000_000)),
            ("name", Value::String("badness".into())),
            (
                "args",
                obj(vec![
                    ("batch_best", Value::F64(e.batch_best)),
                    ("best_badness", Value::F64(e.best_badness)),
                ]),
            ),
        ]));
    }

    let root = obj(vec![
        ("displayTimeUnit", Value::String("ms".into())),
        (
            "otherData",
            obj(vec![
                ("label", Value::String(report.label.clone())),
                ("scheme", Value::String(report.scheme.clone())),
                ("schema", Value::String(report.schema.clone())),
            ]),
        ),
        ("traceEvents", Value::Array(events)),
    ]);
    serde_json::to_string(&root).expect("the JSON writer is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{BatchRecord, DecisionRecord, LinkSample, SpanRecord, SpanStage};
    use crate::recorder::{FlightRecorder, Recorder};

    #[test]
    fn trace_contains_expected_tracks_and_is_deterministic() {
        let mut rec = FlightRecorder::default();
        rec.record_decision(&DecisionRecord {
            t_ns: 20_000_000,
            flow: 2,
            state_mean: 0.0,
            state_min: 0.0,
            state_max: 0.0,
            action: 0.5,
            action_clamped: 0.5,
            cwnd: 20.0,
            qdelay_ns: 3_000_000,
            qc_sat: None,
            fallback: true,
        });
        rec.record_link(&LinkSample {
            t_ns: 10_000_000,
            link: 1,
            queue_bytes: 2896,
            drops: 3,
            utilization: 0.75,
        });
        rec.record_batch(&BatchRecord {
            t_ns: 20_000_000,
            size: 4,
            groups: 1,
        });
        let report = TelemetryReport::from_recorder(&rec, "unit", "cubic");
        let a = chrome_trace(&report);
        let b = chrome_trace(&report);
        assert_eq!(a, b);
        assert!(a.contains("\"traceEvents\""));
        assert!(a.contains("\"fallback\""));
        assert!(a.contains("\"link 1\""));
        assert!(a.contains("\"flow 2\""));
        assert!(a.contains("\"decisions per batch\""));
        let parsed: serde::Value = serde_json::from_str(&a).expect("valid JSON");
        assert!(parsed["traceEvents"].as_array().unwrap().len() >= 6);
    }

    #[test]
    fn spans_nest_children_inside_the_dispatch_parent() {
        let mut rec = FlightRecorder::default();
        let durs = [100u64, 20, 5, 40, 25, 10]; // dispatch, then stages
        for (stage, dur_ns) in SpanStage::ALL.into_iter().zip(durs) {
            rec.record_span(&SpanRecord {
                t_ns: 50_000_000,
                batch: 0,
                stage,
                items: 8,
                dur_ns,
            });
        }
        let report = TelemetryReport::from_recorder(&rec, "unit", "cubic");
        let trace = chrome_trace(&report);
        let parsed: serde::Value = serde_json::from_str(&trace).expect("valid JSON");
        let spans: Vec<&serde::Value> = parsed["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e["cat"].as_str() == Some("span"))
            .collect();
        assert_eq!(spans.len(), 6);
        let ts = |v: &serde::Value| v["ts"].as_f64().unwrap();
        let dur = |v: &serde::Value| v["dur"].as_f64().unwrap();
        // Parent covers 100 ns starting at the dispatch instant.
        assert_eq!(spans[0]["name"].as_str(), Some("dispatch"));
        assert_eq!(ts(spans[0]), 50_000.0);
        assert_eq!(dur(spans[0]), 0.1);
        // Children tile back-to-back inside the parent.
        let mut expect = 50_000.0;
        for (child, d) in spans[1..].iter().zip(&durs[1..]) {
            assert!(
                (ts(child) - expect).abs() < 1e-6,
                "{} vs {expect}",
                ts(child)
            );
            expect += *d as f64 / 1000.0;
        }
        assert!(ts(spans[5]) + dur(spans[5]) <= ts(spans[0]) + dur(spans[0]) + 1e-9);
    }
}
