//! Chrome-trace / Perfetto JSON export.
//!
//! Emits the classic `traceEvents` JSON array format, which both
//! `chrome://tracing` and <https://ui.perfetto.dev> open directly:
//! decision instants per flow track, link queue depth / utilization /
//! drops and the batched dispatch sizes as counter tracks, and
//! trainer/search events on their own tracks. Timestamps are simulation
//! microseconds; the output is canonical (sorted keys, deterministic float
//! formatting) so traces diff cleanly across runs.

use serde::{Map, Value};

use crate::report::TelemetryReport;

/// Process ids of the synthetic trace: flows, links, trainer, search,
/// batches.
const PID_FLOWS: u64 = 1;
const PID_LINKS: u64 = 2;
const PID_TRAINER: u64 = 3;
const PID_SEARCH: u64 = 4;
const PID_BATCHES: u64 = 5;

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
    // decisions each simulation instant stacked through one actor call.
    for b in &report.batches {
        events.push(obj(vec![
            ("ph", Value::String("C".into())),
            ("pid", Value::U64(PID_BATCHES)),
            ("tid", Value::U64(0)),
            ("ts", us(b.t_ns)),
            ("name", Value::String("decisions per batch".into())),
            ("args", obj(vec![("decisions", Value::U64(b.size))])),
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
    use crate::event::{BatchRecord, DecisionRecord, LinkSample};
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
}
