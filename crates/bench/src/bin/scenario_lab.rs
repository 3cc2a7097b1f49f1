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
//! comma, `--seeds 7,`); a zero count, an empty list, or a duplicated seed
//! is rejected up front — a duplicated seed would silently run the same
//! scenario twice and produce a degenerate matrix. `--schemes` accepts
//! the classic kernels (`cubic`, `newreno`, `vegas`, `bbr`) plus the
//! trained models (`canopy-shallow`, `canopy-deep`, `canopy-robust`,
//! `orca`), which are loaded from the model cache (training on first
//! use; `--smoke` shrinks the budget). `--trace-out PATH` additionally
//! replays the first scheme over each family's first scenario with a
//! flight recorder attached and writes the `canopy-telemetry/v2` report
//! (plus a Chrome-trace twin next to it); `--live-out DIR` runs the same
//! replay with the recorder's live layer enabled and writes the
//! streaming artifacts (`metrics.jsonl`, `exposition.prom`) into `DIR`.
//! Every output is a pure function of the flags: the committed
//! `SCENARIOS_report.json` and `TELEMETRY_report{,.chrome}.json` are
//! regenerated and compared byte for byte by
//! `crates/bench/tests/regenerate.rs`.

use std::cell::RefCell;
use std::process::ExitCode;
use std::rc::Rc;

use canopy_bench::{
    f1, f3, flag_value, header, resolve_scheme, row, write_live_out, write_trace, HarnessOpts,
    DEFAULT_SEED,
};
use canopy_core::eval::Scheme;
use canopy_netsim::Time;
use canopy_scenarios::{
    fuzz_suite_seeds, run_matrix, run_scenario_recorded, Family, ScenarioMetrics, ScenarioReport,
    ScenarioSpec, TopologySpec,
};
use canopy_telemetry::{
    Artifact, FlightRecorder, LiveConfig, RecorderConfig, SharedRecorder, TelemetryReport,
};

struct LabOpts {
    families: Vec<Family>,
    seeds: Vec<u64>,
    schemes: Vec<String>,
    topology: Option<TopologySpec>,
    /// Model-cache seed and budget for the learned `--schemes`.
    harness: HarnessOpts,
    out: String,
    trace_out: Option<String>,
    live_out: Option<String>,
}

/// Per-hop propagation delay used when `--topology parking-lot:H` does
/// not carry its own (the flag syntax only selects the shape).
const LAB_HOP_DELAY: Time = Time::from_millis(5);

/// Parses the `--topology` value: `dumbbell`, `parking-lot:H` (H hops in
/// series), or `incast:K` (K leaves fanning into one root). Hop and
/// fan-in counts outside the ranges the topology builders support are
/// rejected here, before any scenario runs.
fn parse_topology(v: &str) -> Result<TopologySpec, String> {
    let (shape, count) = match v.split_once(':') {
        Some((shape, count)) => (shape, Some(count)),
        None => (v, None),
    };
    let parse_count = |what: &str| -> Result<usize, String> {
        let c = count.ok_or_else(|| format!("--topology {shape} needs `:{what}`"))?;
        c.trim()
            .parse::<usize>()
            .map_err(|_| format!("bad {what} `{c}` in --topology"))
    };
    let topo = match shape {
        "dumbbell" => {
            if count.is_some() {
                return Err("--topology dumbbell takes no count".into());
            }
            TopologySpec::Dumbbell
        }
        "parking-lot" => TopologySpec::ParkingLot {
            hops: parse_count("hops")?,
            hop_delay: LAB_HOP_DELAY,
        },
        "incast" => TopologySpec::Incast {
            fan_in: parse_count("fan-in")?,
        },
        other => {
            return Err(format!(
                "unknown topology `{other}` (expected dumbbell, parking-lot:H, or incast:K)"
            ))
        }
    };
    topo.validate().map_err(|e| e.to_string())?;
    Ok(topo)
}

/// Parses the `--seeds` value: a plain count `N` selects seeds `0..N`, a
/// comma list selects exactly those seeds (a trailing comma — `7,` — is
/// how a *single* explicit seed is spelled, since a lone number is always
/// a count). Zero/empty/duplicate selections are hard errors rather than
/// degenerate matrices.
fn parse_seeds(v: &str) -> Result<Vec<u64>, String> {
    let seeds: Vec<u64> = if v.contains(',') {
        let list = v.trim();
        let list = list.strip_suffix(',').unwrap_or(list);
        list.split(',')
            .map(|s| {
                let s = s.trim();
                if s.is_empty() {
                    return Err("--seeds list contains an empty entry".to_string());
                }
                s.parse::<u64>().map_err(|_| format!("bad seed `{s}`"))
            })
            .collect::<Result<_, _>>()?
    } else {
        let n: u64 = v
            .trim()
            .parse()
            .map_err(|_| format!("bad seed count `{v}` (expected a count or a comma list)"))?;
        (0..n).collect()
    };
    if seeds.is_empty() {
        return Err("--seeds selects zero seeds; need at least one".into());
    }
    let mut sorted = seeds.clone();
    sorted.sort_unstable();
    if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!(
            "--seeds lists seed {} twice; duplicates would run identical scenarios",
            w[0]
        ));
    }
    Ok(seeds)
}

fn parse_lab_args(args: &[String]) -> Result<LabOpts, String> {
    let mut opts = LabOpts {
        families: Family::ALL.to_vec(),
        seeds: (0..8).collect(),
        schemes: vec!["cubic".to_string()],
        topology: None,
        harness: HarnessOpts {
            seed: DEFAULT_SEED,
            smoke: false,
        },
        out: "SCENARIOS_report.json".to_string(),
        trace_out: None,
        live_out: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--family" | "--families" => {
                let v: String = flag_value(flag, args.next())?;
                if v != "all" {
                    let family =
                        |n| Family::parse(n).ok_or_else(|| format!("unknown family `{n}`"));
                    opts.families = v
                        .split(',')
                        .map(str::trim)
                        .map(family)
                        .collect::<Result<_, _>>()?;
                }
            }
            "--seeds" => opts.seeds = parse_seeds(&flag_value::<String>(flag, args.next())?)?,
            "--schemes" => {
                let v: String = flag_value(flag, args.next())?;
                opts.schemes = v.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--topology" => {
                opts.topology = Some(parse_topology(&flag_value::<String>(flag, args.next())?)?)
            }
            "--out" => opts.out = flag_value(flag, args.next())?,
            "--trace-out" => opts.trace_out = Some(flag_value(flag, args.next())?),
            "--live-out" => opts.live_out = Some(flag_value(flag, args.next())?),
            "--smoke" => opts.harness.smoke = true,
            "--seed" => opts.harness.seed = flag_value(flag, args.next())?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// Replays the first scheme over each family's first generated scenario
/// with one shared flight recorder and exports the recording. Scenarios
/// replay sequentially on this thread, so the event order is a pure
/// function of the selected specs — re-recording is bitwise identical.
fn record_traces(
    scheme: &Scheme,
    scheme_name: &str,
    families: &[Family],
    specs: &[ScenarioSpec],
    live: bool,
) -> Result<(TelemetryReport, Rc<RefCell<FlightRecorder>>), String> {
    let recorder = if live {
        // Sim-time cadence: the streamed snapshots are as deterministic
        // as the replay itself.
        FlightRecorder::with_live(
            RecorderConfig::default(),
            LiveConfig::default().with_label("scenario_lab"),
        )
    } else {
        FlightRecorder::default()
    };
    let recorder = Rc::new(RefCell::new(recorder));
    let handle: SharedRecorder = recorder.clone();
    let mut origin = 0u64;
    for family in families {
        let spec = specs
            .iter()
            .find(|s| s.family == family.name())
            .ok_or_else(|| format!("no generated scenario for family `{}`", family.name()))?;
        // Each replay's sim clock restarts at zero; shifting the origin
        // lays the scenarios end to end on one monotone timeline.
        recorder.borrow_mut().set_origin(origin);
        run_scenario_recorded(scheme, spec, None, &handle).map_err(|e| e.to_string())?;
        origin += spec.duration.as_nanos();
    }
    if live {
        // Close out the live layer at the end of the merged timeline.
        let mut rec = recorder.borrow_mut();
        rec.set_origin(origin);
        rec.finish(0);
    }
    let report = TelemetryReport::from_recorder(&recorder.borrow(), "scenario_lab", scheme_name);
    Ok((report, recorder))
}

fn run() -> Result<(), String> {
    canopy_core::pool::env_threads()?;
    let lab = parse_lab_args(&std::env::args().skip(1).collect::<Vec<_>>())?;
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
    header(&[
        "scheme",
        "family",
        "thr (Mbps)",
        "util",
        "p95 qdelay (ms)",
        "loss",
        "jain",
    ]);
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
            row(&[
                scheme.clone(),
                family.clone(),
                f1(mean(&|c| c.primary.throughput_mbps)),
                f3(mean(&|c| c.primary.utilization)),
                f1(mean(&|c| c.primary.p95_qdelay_ms)),
                f1(mean(&|c| c.primary.losses as f64)),
                jain_cell,
            ]);
        }
    }

    report.write(&lab.out).map_err(|e| e.to_string())?;
    println!(
        "\nwrote {} ({} results, schema {})",
        lab.out,
        report.results.len(),
        report.schema
    );

    if lab.trace_out.is_some() || lab.live_out.is_some() {
        let (report, recorder) = record_traces(
            &schemes[0],
            &lab.schemes[0],
            &lab.families,
            &specs,
            lab.live_out.is_some(),
        )
        .map_err(|e| format!("trace recording failed: {e}"))?;
        if let Some(path) = &lab.trace_out {
            write_trace(path, &report)?;
        }
        if let Some(dir) = &lab.live_out {
            write_live_out(dir, &recorder.borrow())?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("scenario_lab: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn seed_counts_expand_and_lists_pass_through() {
        assert_eq!(parse_seeds("3").unwrap(), vec![0, 1, 2]);
        assert_eq!(parse_seeds("3,5,7").unwrap(), vec![3, 5, 7]);
        assert_eq!(parse_seeds(" 9 , 0 ").unwrap(), vec![9, 0]);
        // A trailing comma spells a single *explicit* seed (a lone number
        // is always a count).
        assert_eq!(parse_seeds("7,").unwrap(), vec![7]);
        assert_eq!(parse_seeds("7").unwrap(), (0..7).collect::<Vec<u64>>());
    }

    #[test]
    fn zero_and_duplicate_seeds_are_rejected_loudly() {
        let zero = parse_seeds("0").unwrap_err();
        assert!(zero.contains("zero seeds"), "{zero}");
        let dup = parse_seeds("4,2,4").unwrap_err();
        assert!(dup.contains("seed 4 twice"), "{dup}");
        let empty = parse_seeds("1,,2").unwrap_err();
        assert!(empty.contains("empty entry"), "{empty}");
        assert!(parse_seeds("x").unwrap_err().contains("bad seed count"));
        assert!(parse_seeds("1,x").unwrap_err().contains("bad seed `x`"));
    }

    #[test]
    fn topologies_parse_and_reject_bad_shapes() {
        assert_eq!(parse_topology("dumbbell").unwrap(), TopologySpec::Dumbbell);
        assert_eq!(
            parse_topology("parking-lot:3").unwrap(),
            TopologySpec::ParkingLot {
                hops: 3,
                hop_delay: LAB_HOP_DELAY
            }
        );
        assert_eq!(
            parse_topology("incast:8").unwrap(),
            TopologySpec::Incast { fan_in: 8 }
        );

        // Counts outside the builders' supported ranges fail at parse
        // time, before any scenario runs.
        let low = parse_topology("parking-lot:1").unwrap_err();
        assert!(low.contains("outside 2..=8"), "{low}");
        let high = parse_topology("parking-lot:9").unwrap_err();
        assert!(high.contains("outside 2..=8"), "{high}");
        let fan_low = parse_topology("incast:1").unwrap_err();
        assert!(fan_low.contains("outside 2..=16"), "{fan_low}");
        let fan_high = parse_topology("incast:17").unwrap_err();
        assert!(fan_high.contains("outside 2..=16"), "{fan_high}");

        // Malformed values are loud, not silently dumbbell.
        assert!(parse_topology("parking-lot").unwrap_err().contains(":hops"));
        assert!(parse_topology("incast").unwrap_err().contains(":fan-in"));
        assert!(parse_topology("incast:x")
            .unwrap_err()
            .contains("bad fan-in"));
        assert!(parse_topology("dumbbell:2")
            .unwrap_err()
            .contains("no count"));
        assert!(parse_topology("torus:4")
            .unwrap_err()
            .contains("unknown topology"));
    }

    #[test]
    fn lab_args_carry_topology_overrides() {
        let opts = parse_lab_args(&argv(&["--topology", "incast:4"])).unwrap();
        assert_eq!(opts.topology, Some(TopologySpec::Incast { fan_in: 4 }));
        let default = parse_lab_args(&argv(&[])).unwrap();
        assert_eq!(default.topology, None);
        assert!(parse_lab_args(&argv(&["--topology", "incast:99"])).is_err());
        assert!(parse_lab_args(&argv(&["--topology"])).is_err());
    }

    #[test]
    fn lab_args_carry_the_harness_seed_and_smoke() {
        let opts = parse_lab_args(&argv(&["--smoke", "--seed", "7"])).unwrap();
        assert_eq!(
            opts.harness,
            HarnessOpts {
                seed: 7,
                smoke: true
            }
        );
        assert_eq!(
            parse_lab_args(&argv(&[])).unwrap().harness.seed,
            DEFAULT_SEED
        );
        assert!(parse_lab_args(&argv(&["--seed", "7x"])).is_err());
        assert!(parse_lab_args(&argv(&["--seed"])).is_err());
        assert!(parse_lab_args(&argv(&["--smok"])).is_err());
    }

    #[test]
    fn trace_out_parses() {
        let opts = parse_lab_args(&argv(&["--trace-out", "TELEMETRY_report.json"])).unwrap();
        assert_eq!(opts.trace_out.as_deref(), Some("TELEMETRY_report.json"));
        assert_eq!(parse_lab_args(&argv(&[])).unwrap().trace_out, None);
        assert!(parse_lab_args(&argv(&["--trace-out"])).is_err());
    }

    #[test]
    fn live_out_parses() {
        let opts = parse_lab_args(&argv(&["--live-out", "live"])).unwrap();
        assert_eq!(opts.live_out.as_deref(), Some("live"));
        assert_eq!(parse_lab_args(&argv(&[])).unwrap().live_out, None);
        assert!(parse_lab_args(&argv(&["--live-out"])).is_err());
    }

    #[test]
    fn lab_args_carry_seed_lists() {
        let opts = parse_lab_args(&argv(&["--family", "flash-crowd", "--seeds", "2,6"])).unwrap();
        assert_eq!(opts.seeds, vec![2, 6]);
        assert_eq!(opts.families, vec![Family::FlashCrowd]);
        let default = parse_lab_args(&argv(&[])).unwrap();
        assert_eq!(default.seeds, (0..8).collect::<Vec<u64>>());
        assert!(parse_lab_args(&argv(&["--seeds", "0"])).is_err());
        assert!(parse_lab_args(&argv(&["--seeds", "1,1"])).is_err());
    }
}
