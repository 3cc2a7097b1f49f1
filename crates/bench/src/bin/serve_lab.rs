//! The serve lab: a fleet run with the full live-observability layer
//! attached — streaming metrics snapshots, the SLO watchdog with its
//! alert ledger, and the certificate-gated promotion path with its
//! breach veto.
//!
//! ```text
//! cargo run -p canopy_bench --release --bin serve_lab -- \
//!     [--flows N] [--duration-ms MS] [--seed N] [--smoke] \
//!     [--breach] [--live-out DIR]
//! ```
//!
//! The fleet is a dumbbell of `--flows` self-driving flows sharing one
//! policy, run flat-out for `--duration-ms` of simulation time with a
//! flight recorder whose live layer snapshots on the sim-time cadence —
//! so every streamed artifact is bitwise deterministic. After the run,
//! one promotion is attempted through [`Fleet::promote`].
//!
//! `--breach` arms a deterministic SLO drill: every driver gets a QC
//! monitor whose threshold (2.0) can never be met, so the Cubic fallback
//! engages on every decision, the fallback-engagement-rate SLO (max 10%)
//! breaches on the first window, the watchdog appends to the
//! `canopy-alerts/v1` ledger, and the promotion attempt is **vetoed**.
//! The binary exits non-zero if any link of that chain fails to fire.
//!
//! `--live-out DIR` writes the streaming artifacts (`metrics.jsonl`,
//! `exposition.prom`, and `alerts.json` when the watchdog ran) into
//! `DIR`. They are a pure function of the flags: the breach drill behind
//! the committed `fixtures/live/serve_lab/` is re-run, and its artifacts
//! compared byte for byte, by `crates/bench/tests/regenerate.rs`.

use std::cell::RefCell;
use std::process::ExitCode;
use std::rc::Rc;

use canopy_bench::{flag_value, write_live_out, DEFAULT_SEED};
use canopy_core::obs::StateLayout;
use canopy_core::property::{Property, PropertyParams};
use canopy_netsim::Time;
use canopy_nn::{Activation, Mlp};
use canopy_serve::{Fleet, FleetConfig, PromoteOutcome, PromotionGate, QcMonitorConfig};
use canopy_telemetry::{Artifact, FlightRecorder, LiveConfig, RecorderConfig, SloKind, SloSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct ServeLabOpts {
    flows: usize,
    duration_ms: u64,
    seed: u64,
    smoke: bool,
    breach: bool,
    live_out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<ServeLabOpts, String> {
    let mut opts = ServeLabOpts {
        flows: 64,
        duration_ms: 1000,
        seed: DEFAULT_SEED,
        smoke: false,
        breach: false,
        live_out: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--flows" => opts.flows = flag_value(flag, args.next())?,
            "--duration-ms" => opts.duration_ms = flag_value(flag, args.next())?,
            "--seed" => opts.seed = flag_value(flag, args.next())?,
            "--smoke" => opts.smoke = true,
            "--breach" => opts.breach = true,
            "--live-out" => opts.live_out = Some(flag_value(flag, args.next())?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if opts.flows == 0 {
        return Err("--flows must be at least 1".into());
    }
    if opts.smoke {
        opts.duration_ms = opts.duration_ms.min(400);
        opts.flows = opts.flows.min(32);
    }
    if opts.duration_ms == 0 {
        return Err("--duration-ms must be at least 1".into());
    }
    Ok(opts)
}

/// The fleet's shared policy: a small seeded tanh net (k = 3). The lab
/// measures the observability plumbing, not policy quality.
fn lab_actor(seed: u64) -> Mlp {
    let mut rng = StdRng::seed_from_u64(seed);
    Mlp::new(
        &mut rng,
        &[StateLayout::new(3).dim(), 16, 1],
        Activation::Tanh,
    )
}

/// One fleet run with the live layer attached; returns the fleet (for
/// the promotion attempt), its report, and the recorder.
fn run_fleet(
    opts: &ServeLabOpts,
) -> (
    Fleet,
    canopy_serve::FleetReport,
    Rc<RefCell<FlightRecorder>>,
) {
    let mut config = FleetConfig::dumbbell(opts.flows, 256e6, 3);
    if opts.breach {
        // A QC threshold no certificate can reach: the fallback engages
        // on every decision, deterministically, which is exactly the
        // breach the fallback-rate SLO below is watching for.
        let p = PropertyParams::default();
        config = config.with_qc_monitor(QcMonitorConfig {
            properties: vec![Property::p1(&p)],
            threshold: 2.0,
            n_components: 4,
        });
    }
    // The one SLO is constant across modes; only the QC monitor decides
    // whether the fleet actually trips it. The latency SLO is left out
    // on purpose: it reads wall clocks, and the lab's artifacts are
    // bitwise-checked.
    let live = LiveConfig::default()
        .with_label("serve_lab")
        .with_slo(SloSpec::new("fallback-rate", SloKind::MaxFallbackRate, 0.1));
    let recorder = Rc::new(RefCell::new(FlightRecorder::with_live(
        RecorderConfig::default(),
        live,
    )));
    let mut fleet = Fleet::new(&config, lab_actor(opts.seed));
    fleet.attach_live(recorder.clone());
    let report = fleet.run(Time::from_millis(opts.duration_ms));
    (fleet, report, recorder)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match canopy_core::pool::env_threads().and_then(|_| parse_args(&args)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("serve_lab: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "# Serve lab — {} flows, {} ms, seed {}{}\n",
        opts.flows,
        opts.duration_ms,
        opts.seed,
        if opts.breach {
            ", SLO breach drill"
        } else {
            ""
        }
    );
    let (mut fleet, report, recorder) = run_fleet(&opts);
    println!(
        "decisions {} | batches {} | mean batch {:.1} | realtime ×{:.1}",
        report.decisions, report.batches, report.mean_batch, report.realtime_factor
    );
    println!(
        "snapshots {} | alerts {} | breach active: {}",
        recorder.borrow().live_snapshots().len(),
        report.slo_alerts,
        report.slo_breach_active
    );

    // The promotion attempt: a candidate that would certify on a healthy
    // fleet. Under an active breach the veto must fire first.
    let gate = PromotionGate {
        properties: vec![Property::p1(&PropertyParams::default())],
        threshold: 0.9,
        n_components: 4,
    };
    let outcome: PromoteOutcome = fleet.promote(lab_actor(opts.seed ^ 0xa5), &gate);
    println!(
        "promotion: promoted={} vetoed={} min_qc={:.3} flows={}",
        outcome.promoted, outcome.vetoed, outcome.min_qc, outcome.flows
    );

    if opts.breach {
        // The drill's contract: breach recorded, ledger non-empty and
        // valid, promotion vetoed.
        let rec = recorder.borrow();
        let ledger = match rec.alert_ledger() {
            Some(l) => l,
            None => {
                eprintln!("serve_lab: breach drill produced no alert ledger");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = ledger.validate() {
            eprintln!("serve_lab: alert ledger is invalid: {e}");
            return ExitCode::FAILURE;
        }
        if !report.slo_breach_active || report.slo_alerts == 0 {
            eprintln!("serve_lab: breach drill did not trip the SLO watchdog");
            return ExitCode::FAILURE;
        }
        if !outcome.vetoed || outcome.promoted {
            eprintln!("serve_lab: active breach failed to veto the promotion");
            return ExitCode::FAILURE;
        }
        println!("\nbreach drill OK: SLO breached, ledger valid, promotion vetoed");
    }

    if let Some(dir) = &opts.live_out {
        if let Err(e) = write_live_out(dir, &recorder.borrow()) {
            eprintln!("serve_lab: {e}");
            return ExitCode::FAILURE;
        }
    }

    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_parse_with_defaults_and_overrides() {
        let d = parse_args(&argv(&[])).unwrap();
        assert_eq!(d.flows, 64);
        assert_eq!(d.duration_ms, 1000);
        assert!(!d.breach && d.live_out.is_none());

        let o = parse_args(&argv(&[
            "--flows",
            "8",
            "--duration-ms",
            "250",
            "--breach",
            "--live-out",
            "live",
        ]))
        .unwrap();
        assert_eq!(o.flows, 8);
        assert_eq!(o.duration_ms, 250);
        assert!(o.breach);
        assert_eq!(o.live_out.as_deref(), Some("live"));
    }

    #[test]
    fn smoke_shrinks_and_bad_args_are_loud() {
        let s = parse_args(&argv(&["--smoke"])).unwrap();
        assert_eq!(s.duration_ms, 400);
        assert_eq!(s.flows, 32);
        assert!(parse_args(&argv(&["--flows", "0"])).is_err());
        assert!(parse_args(&argv(&["--duration-ms", "0"])).is_err());
        assert!(parse_args(&argv(&["--flows"])).is_err());
        assert!(parse_args(&argv(&["--bogus"])).is_err());
    }

    #[test]
    fn breach_drill_trips_the_watchdog_and_vetoes_promotion() {
        let opts =
            parse_args(&argv(&["--flows", "8", "--duration-ms", "300", "--breach"])).unwrap();
        let (mut fleet, report, recorder) = run_fleet(&opts);
        assert!(report.slo_breach_active);
        assert!(report.slo_alerts >= 1);
        recorder
            .borrow()
            .alert_ledger()
            .unwrap()
            .validate()
            .unwrap();
        let gate = PromotionGate {
            properties: vec![Property::p1(&PropertyParams::default())],
            threshold: 0.9,
            n_components: 4,
        };
        let outcome = fleet.promote(lab_actor(opts.seed ^ 0xa5), &gate);
        assert!(outcome.vetoed && !outcome.promoted);
    }
}
