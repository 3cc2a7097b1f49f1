//! Cross-crate behavioural tests: classic congestion control over the
//! packet simulator must reproduce the qualitative behaviours the paper's
//! evaluation leans on.

use canopy_repro::core::eval::{RunMetrics, Scheme};
use canopy_repro::netsim::Time;
use canopy_repro::scenarios::{run_scenario, ScenarioSpec};

fn run(name: &str, spec: &ScenarioSpec) -> RunMetrics {
    run_scenario(&Scheme::Baseline(name.into()), spec, None)
        .expect("runs")
        .primary
}

fn baseline(name: &str, buffer_bdp: f64, rate_mbps: f64) -> RunMetrics {
    let rtt = Time::from_millis(40);
    let mut spec = ScenarioSpec::simple("itest", rate_mbps * 1e6, rtt, Time::from_secs(12));
    spec.buffer_bdp = buffer_bdp;
    run(name, &spec)
}

/// Cubic fills a constant link.
#[test]
fn cubic_achieves_high_utilization() {
    let m = baseline("cubic", 1.0, 24.0);
    assert!(m.utilization > 0.8, "{m:?}");
}

/// Cubic bufferbloats deep buffers: p95 queuing delay scales with the
/// buffer depth.
#[test]
fn cubic_bufferbloat_scales_with_buffer() {
    let shallow = baseline("cubic", 0.5, 24.0);
    let deep = baseline("cubic", 5.0, 24.0);
    assert!(
        deep.p95_qdelay_ms > 2.0 * shallow.p95_qdelay_ms,
        "deep {:.1} vs shallow {:.1}",
        deep.p95_qdelay_ms,
        shallow.p95_qdelay_ms
    );
}

/// Vegas keeps delays low (it backs off on queueing, not loss).
#[test]
fn vegas_keeps_delay_low_on_deep_buffers() {
    let cubic = baseline("cubic", 5.0, 24.0);
    let vegas = baseline("vegas", 5.0, 24.0);
    assert!(
        vegas.avg_qdelay_ms < cubic.avg_qdelay_ms,
        "vegas {:.1} vs cubic {:.1}",
        vegas.avg_qdelay_ms,
        cubic.avg_qdelay_ms
    );
}

/// BBR utilizes the link without Cubic-scale bufferbloat on deep buffers.
#[test]
fn bbr_bounds_queue_on_deep_buffers() {
    let cubic = baseline("cubic", 5.0, 24.0);
    let bbr = baseline("bbr", 5.0, 24.0);
    assert!(bbr.utilization > 0.6, "{bbr:?}");
    assert!(
        bbr.p95_qdelay_ms < cubic.p95_qdelay_ms,
        "bbr {:.1} vs cubic {:.1}",
        bbr.p95_qdelay_ms,
        cubic.p95_qdelay_ms
    );
}

/// NewReno survives a variable trace and keeps positive goodput.
#[test]
fn newreno_survives_variable_bandwidth() {
    let mut spec = ScenarioSpec::from_eval_trace("syn-square-fast", 0);
    spec.duration = Time::from_secs(12);
    let m = run("newreno", &spec);
    assert!(m.utilization > 0.4, "{m:?}");
    assert!(m.losses > 0, "droptail must bite on the square wave");
}

/// All 21 evaluation traces are runnable end to end with Cubic.
#[test]
fn all_eval_traces_run() {
    for trace in canopy_repro::traces::all_eval_traces(1) {
        let mut spec = ScenarioSpec::from_eval_trace(trace.name(), 1);
        spec.duration = Time::from_secs(3);
        let m = run("cubic", &spec);
        assert!(
            m.throughput_mbps > 0.5,
            "trace {} starved: {m:?}",
            trace.name()
        );
    }
}

/// Loss-based vs delay-based ordering: on a shallow buffer, Vegas sees
/// fewer losses than Cubic.
#[test]
fn vegas_loses_less_than_cubic_on_shallow() {
    let cubic = baseline("cubic", 0.5, 24.0);
    let vegas = baseline("vegas", 0.5, 24.0);
    assert!(
        vegas.losses <= cubic.losses,
        "vegas {} vs cubic {}",
        vegas.losses,
        cubic.losses
    );
}
