//! The scenario lab: fuzzed stress evaluation over the scenario families.
//!
//! Generates `--seeds` scenarios per selected family (reproducible from
//! `(family, seed)` alone), runs every requested scheme over every
//! scenario on the worker pool, prints a per-family summary table, and
//! writes the full `SCENARIOS_report.json`.
//!
//! ```text
//! cargo run -p canopy_bench --release --bin scenario_lab -- \
//!     [--family all|<name>[,<name>...]] [--seeds N | --seeds a,b,c] \
//!     [--schemes cubic,bbr,canopy-shallow,...] \
//!     [--topology dumbbell|parking-lot:H|incast:K] \
//!     [--smoke] [--seed N] [--out PATH] [--trace-out PATH] [--live-out DIR]
//! ```
//!
//! `--family` accepts `all` (default) or a comma list of
//! `flash-crowd`, `bandwidth-cliff`, `jitter-storm`, `lossy-wireless`,
//! `buffer-sweep`, `cross-traffic-churn`, `incast-burst`,
//! `parking-lot-unfairness`. `--topology` forces every generated
//! scenario onto one network shape (hop and fan-in counts are validated
//! up front); without it each family keeps its own topology.
//! `--seeds` accepts either a
//! count `N` (runs seeds `0..N`) or an explicit comma-separated seed list
//! (`--seeds 3,5,7`; a single explicit seed is spelled with a trailing
//! comma, `--seeds 7,`). A zero count, or an empty or repeated entry in
//! any of the three lists, is rejected before any model trains — a
//! repeat would run the same cells twice, a degenerate matrix. `--schemes` accepts
//! the classic kernels (`cubic`, `newreno`, `vegas`, `bbr`) plus the
//! trained models (`canopy-shallow`, `canopy-deep`, `canopy-robust`,
//! `orca`), which are loaded from the model cache (training on first
//! use; `--smoke` shrinks the budget). `--trace-out PATH` additionally
//! replays the first scheme over each family's first scenario with a
//! flight recorder attached and writes the `canopy-telemetry/v4` report
//! (plus a Chrome-trace twin next to it); `--live-out DIR` runs the same
//! replay with the recorder's live layer enabled and writes the
//! streaming artifacts (`metrics.jsonl`, `exposition.prom`) into `DIR`.
//! Every output is a pure function of the flags: the committed
//! `SCENARIOS_report.json` and `TELEMETRY_report{,.chrome}.json` are
//! regenerated and compared byte for byte by
//! `crates/bench/tests/regenerate.rs`.

use std::process::ExitCode;

use canopy_bench::cli::{run_main, LabOpts};
use canopy_bench::{f1, f3, header, resolve_scheme, row, write_live_out, write_trace, Recording};
use canopy_core::eval::Scheme;
use canopy_scenarios::{
    fuzz_suite_seeds, run_matrix, Family, ScenarioMetrics, ScenarioReport, ScenarioSpec,
};
use canopy_telemetry::{Artifact, FlightRecorder, LiveConfig, RecorderConfig};

/// Replays the first scheme over each family's first generated scenario
/// on one shared flight recorder. Scenarios replay sequentially on this
/// thread, so the event order is a pure function of the selected specs —
/// re-recording is bitwise identical.
fn record_traces(
    scheme: &Scheme,
    families: &[Family],
    specs: &[ScenarioSpec],
    live: bool,
) -> Result<Recording, String> {
    let recording = if live {
        // Sim-time cadence: the streamed snapshots are as deterministic
        // as the replay itself.
        let live = LiveConfig::default().with_label("scenario_lab");
        Recording::new(FlightRecorder::with_live(RecorderConfig::default(), live))
    } else {
        Recording::default()
    };
    let mut origin = 0u64;
    for family in families {
        let spec = specs
            .iter()
            .find(|s| s.family == family.name())
            .ok_or_else(|| format!("no generated scenario for family `{}`", family.name()))?;
        // Each replay's sim clock restarts at zero; shifting the origin
        // lays the scenarios end to end on one monotone timeline.
        recording.recorder().set_origin(origin);
        recording.replay(scheme, spec)?;
        origin += spec.duration.as_nanos();
    }
    if live {
        // Close out the live layer at the end of the merged timeline.
        let mut rec = recording.recorder();
        rec.set_origin(origin);
        rec.finish(0);
    }
    Ok(recording)
}

fn run(args: &[String]) -> Result<(), String> {
    let lab = LabOpts::parse(args)?;
    let resolve = |name: &String| resolve_scheme(name, &lab.harness);
    let schemes: Vec<Scheme> = lab.schemes.iter().map(resolve).collect::<Result<_, _>>()?;

    let mut specs = fuzz_suite_seeds(&lab.families, &lab.seeds);
    if let Some(topology) = lab.topology {
        // Force every generated scenario onto the requested shape. The
        // scenario keeps its (family, seed) identity; only the network
        // it runs over changes.
        for spec in &mut specs {
            spec.topology = topology;
        }
        println!("# topology override: {}\n", topology.label());
    }
    println!(
        "# Scenario lab — {} scenarios ({} families × {} seeds) × {} schemes\n",
        specs.len(),
        lab.families.len(),
        lab.seeds.len(),
        schemes.len()
    );

    let results = run_matrix(&schemes, &specs, None).map_err(|e| e.to_string())?;
    let report = ScenarioReport::new(results);

    // Per-(scheme, family) summary: means over the family's seeds.
    header!("scheme | family | thr (Mbps) | util | p95 qdelay (ms) | loss | jain");
    for scheme in &report.schemes {
        for family in &report.families {
            let in_cell = |r: &&ScenarioMetrics| &r.scheme == scheme && &r.family == family;
            let cells: Vec<&ScenarioMetrics> = report.results.iter().filter(in_cell).collect();
            if cells.is_empty() {
                continue;
            }
            let n = cells.len() as f64;
            let mean =
                |f: &dyn Fn(&ScenarioMetrics) -> f64| cells.iter().map(|c| f(c)).sum::<f64>() / n;
            // Jain is only defined for the family's multi-flow scenarios.
            let jains: Vec<f64> = cells.iter().filter_map(|c| c.jain_fairness).collect();
            let jain_cell = if jains.is_empty() {
                "-".to_string()
            } else {
                f3(jains.iter().sum::<f64>() / jains.len() as f64)
            };
            row!(
                "{scheme} | {family} | {} | {} | {} | {} | {jain_cell}",
                f1(mean(&|c| c.primary.throughput_mbps)),
                f3(mean(&|c| c.primary.utilization)),
                f1(mean(&|c| c.primary.p95_qdelay_ms)),
                f1(mean(&|c| c.primary.losses as f64)),
            );
        }
    }

    report.write(&lab.out).map_err(|e| e.to_string())?;
    let (out, n, schema) = (&lab.out, report.results.len(), &report.schema);
    println!("\nwrote {out} ({n} results, schema {schema})");

    if lab.trace_out.is_some() || lab.live_out.is_some() {
        let live = lab.live_out.is_some();
        let recording = record_traces(&schemes[0], &lab.families, &specs, live)
            .map_err(|e| format!("trace recording failed: {e}"))?;
        if let Some(path) = &lab.trace_out {
            write_trace(path, &recording.report("scenario_lab", &lab.schemes[0]))?;
        }
        if let Some(dir) = &lab.live_out {
            write_live_out(dir, &recording.recorder())?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    run_main("scenario_lab: ", 1, run)
}
