//! The harnesses' command lines as pure functions: one options struct and
//! parser per binary, every parser one set of match arms over the one
//! strict flag loop (`parse_flags`), comma lists through one `flag_list`,
//! and the one mapping from a harness's outcome to its exit status
//! ([`run_main`]).

use std::process::{ExitCode, Termination};
use std::slice::Iter;
use std::str::FromStr;

use canopy_core::models::ModelKind;
use canopy_netsim::Time;
use canopy_scenarios::{Family, TopologySpec};
use canopy_search::ObjectiveKind;

use crate::figures::{self, Figure, REGISTRY};
use crate::{HarnessOpts, DEFAULT_SEED};

/// The value following `flag` on a strict command line: a missing or
/// malformed value is an error naming the flag — never a silent default.
fn flag_value<T: FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    let bad = |_| format!("{flag}: bad value `{value}`");
    value.parse().map_err(bad)
}

/// A [`flag_value`] that must also satisfy `ok` (else "`flag` must be
/// `what`").
fn flag_value_where<T: FromStr>(
    flag: &str,
    value: Option<&String>,
    ok: impl Fn(&T) -> bool,
    what: &str,
) -> Result<T, String> {
    let value = flag_value(flag, value)?;
    if ok(&value) {
        Ok(value)
    } else {
        Err(format!("{flag} must be {what}"))
    }
}

/// A comma list of distinct `noun`s, each entry trimmed. An empty,
/// malformed or repeated entry is an error naming `flag`, so a list that
/// would run a degenerate matrix is refused before anything runs.
fn flag_list<T: FromStr + PartialEq>(flag: &str, list: &str, noun: &str) -> Result<Vec<T>, String> {
    let mut items = Vec::new();
    for entry in list.split(',').map(str::trim) {
        if entry.is_empty() {
            return Err(format!("{flag} list contains an empty entry"));
        }
        let item = entry
            .parse()
            .map_err(|_| format!("{flag}: bad {noun} `{entry}`"))?;
        if items.contains(&item) {
            return Err(format!("{flag} lists {noun} {entry} twice"));
        }
        items.push(item);
    }
    Ok(items)
}

/// The strict parse loop of every harness: `arm` takes each flag (and
/// its value from the iterator, see [`flag_value`]) and returns `false`
/// for one it does not know, which is an error, as is a bad value.
fn parse_flags<'a>(
    args: &'a [String],
    mut arm: impl FnMut(&'a str, &mut Iter<'a, String>) -> Result<bool, String>,
) -> Result<(), String> {
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if !arm(flag, &mut args)? {
            return Err(format!("unknown argument `{flag}`"));
        }
    }
    Ok(())
}

/// A harness's `main`: checks `CANOPY_THREADS`, hands `run` the command
/// line without the program name, and maps the outcome to the exit
/// status. An error is one `{prefix}{error}` line on stderr and status
/// `failure`.
pub fn run_main<T: Termination>(
    prefix: &str,
    failure: u8,
    run: impl FnOnce(&[String]) -> Result<T, String>,
) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match canopy_core::pool::env_threads().and_then(|_| run(&args)) {
        Ok(outcome) => outcome.report(),
        Err(e) => {
            eprintln!("{prefix}{e}");
            ExitCode::from(failure)
        }
    }
}

/// A count flag's value, which must be at least 1.
fn count(flag: &str, value: Option<&String>) -> Result<usize, String> {
    flag_value_where(flag, value, |n| *n >= 1, "at least 1")
}

/// What a `figures` command line asks for.
pub enum FiguresCmd {
    /// `--list`: the registry's ids and what each shows.
    List,
    /// `explore …`: one scheme on one evaluation trace.
    Explore(ExploreOpts),
    /// The named figures in command-line order (every one under `--all`)
    /// at one seed and size.
    Run(Vec<&'static Figure>, HarnessOpts),
}

impl FiguresCmd {
    /// Parses a `figures` command line: `explore` and its flags, or figure
    /// ids, `--all`, `--list`, `--seed N` and `--smoke`. Anything else is
    /// an error, as is a `--seed` without a `u64` value — never the
    /// default seed.
    pub fn parse(args: &[String]) -> Result<FiguresCmd, String> {
        if args.first().is_some_and(|a| a == "explore") {
            return ExploreOpts::parse(&args[1..]).map(Self::Explore);
        }
        let (mut all, mut list, mut selected) = (false, false, Vec::new());
        let mut harness = HarnessOpts {
            seed: DEFAULT_SEED,
            smoke: false,
        };
        parse_flags(args, |flag, args| {
            match (flag, figures::find(flag)) {
                ("--all", _) => all = true,
                ("--list", _) => list = true,
                ("--smoke", _) => harness.smoke = true,
                ("--seed", _) => harness.seed = flag_value(flag, args.next())?,
                (_, Some(figure)) => selected.push(figure),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        if all {
            selected = REGISTRY.iter().collect();
        }
        Ok(if list {
            Self::List
        } else {
            Self::Run(selected, harness)
        })
    }
}

/// `figures explore`: one scheme on one evaluation trace.
pub struct ExploreOpts {
    pub scheme: String,
    /// An evaluation trace's name, or `list`.
    pub trace: String,
    pub buffer_bdp: f64,
    pub rtt_ms: u64,
    pub duration_s: u64,
    /// Observation-noise amplitude, off by default.
    pub noise: Option<f64>,
    pub seed: u64,
}

impl ExploreOpts {
    /// Parses the flags after `explore`.
    pub fn parse(args: &[String]) -> Result<ExploreOpts, String> {
        let mut o = ExploreOpts {
            scheme: "cubic".to_string(),
            trace: "syn-step-up".to_string(),
            buffer_bdp: 1.0,
            rtt_ms: 40,
            duration_s: 20,
            noise: None,
            seed: DEFAULT_SEED,
        };
        parse_flags(args, |flag, args| {
            match flag {
                "--scheme" => o.scheme = flag_value(flag, args.next())?,
                "--trace" => o.trace = flag_value(flag, args.next())?,
                "--buffer-bdp" => o.buffer_bdp = flag_value(flag, args.next())?,
                "--rtt-ms" => o.rtt_ms = flag_value(flag, args.next())?,
                "--duration-s" => o.duration_s = flag_value(flag, args.next())?,
                "--noise" => o.noise = Some(flag_value(flag, args.next())?),
                "--seed" => o.seed = flag_value(flag, args.next())?,
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok(o)
    }
}

/// `scenario_lab`'s options.
pub struct LabOpts {
    pub families: Vec<Family>,
    pub seeds: Vec<u64>,
    pub schemes: Vec<String>,
    pub topology: Option<TopologySpec>,
    /// Model-cache seed and budget for the learned `--schemes`.
    pub harness: HarnessOpts,
    pub out: String,
    pub trace_out: Option<String>,
    pub live_out: Option<String>,
}

/// Per-hop propagation delay used when `--topology parking-lot:H` does
/// not carry its own (the flag syntax only selects the shape).
const LAB_HOP_DELAY: Time = Time::from_millis(5);

impl LabOpts {
    /// Parses a `scenario_lab` command line.
    pub fn parse(args: &[String]) -> Result<LabOpts, String> {
        let mut o = LabOpts {
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
        parse_flags(args, |flag, args| {
            match flag {
                "--family" | "--families" => {
                    let v: String = flag_value(flag, args.next())?;
                    if v != "all" {
                        o.families = flag_list(flag, &v, "family")?;
                    }
                }
                "--seeds" => o.seeds = parse_seeds(&flag_value::<String>(flag, args.next())?)?,
                "--schemes" => {
                    let v: String = flag_value(flag, args.next())?;
                    o.schemes = flag_list(flag, &v, "scheme")?;
                }
                "--topology" => {
                    o.topology = Some(parse_topology(&flag_value::<String>(flag, args.next())?)?)
                }
                "--out" => o.out = flag_value(flag, args.next())?,
                "--trace-out" => o.trace_out = Some(flag_value(flag, args.next())?),
                "--live-out" => o.live_out = Some(flag_value(flag, args.next())?),
                "--smoke" => o.harness.smoke = true,
                "--seed" => o.harness.seed = flag_value(flag, args.next())?,
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok(o)
    }
}

/// Parses the `--topology` value: `dumbbell`, `parking-lot:H` (H hops in
/// series), or `incast:K` (K leaves fanning into one root). Hop and
/// fan-in counts outside the ranges the topology builders support are
/// rejected here, before any scenario runs.
fn parse_topology(v: &str) -> Result<TopologySpec, String> {
    let (shape, count) = v.split_once(':').map_or((v, None), |(s, c)| (s, Some(c)));
    let parse_count = |what: &str| -> Result<usize, String> {
        let c = count.ok_or_else(|| format!("--topology {shape} needs `:{what}`"))?;
        c.trim()
            .parse::<usize>()
            .map_err(|_| format!("bad {what} `{c}` in --topology"))
    };
    let topo = match shape {
        "dumbbell" if count.is_none() => TopologySpec::Dumbbell,
        "dumbbell" => return Err("--topology dumbbell takes no count".into()),
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
/// a count). A zero count is an error, and a list is a [`flag_list`].
fn parse_seeds(v: &str) -> Result<Vec<u64>, String> {
    if v.contains(',') {
        let list = v.trim();
        return flag_list("--seeds", list.strip_suffix(',').unwrap_or(list), "seed");
    }
    let n: u64 = v
        .trim()
        .parse()
        .map_err(|_| format!("bad seed count `{v}` (expected a count or a comma list)"))?;
    if n == 0 {
        return Err("--seeds selects zero seeds; need at least one".into());
    }
    Ok((0..n).collect())
}

/// `scenario_search`'s options.
pub struct SearchOpts {
    pub family: Family,
    pub objective: ObjectiveKind,
    pub scheme: ModelKind,
    pub seed: u64,
    pub budget: usize,
    pub population: usize,
    pub min_gap: Option<f64>,
    pub smoke: bool,
    pub out: String,
    pub fixture_out: Option<String>,
    pub trace_out: Option<String>,
}

impl SearchOpts {
    /// Parses a `scenario_search` command line.
    pub fn parse(args: &[String]) -> Result<SearchOpts, String> {
        let mut o = SearchOpts {
            family: Family::FlashCrowd,
            objective: ObjectiveKind::QcSat,
            scheme: ModelKind::Shallow,
            seed: DEFAULT_SEED,
            budget: 64,
            population: 16,
            min_gap: None,
            smoke: false,
            out: "SEARCH_report.json".to_string(),
            fixture_out: None,
            trace_out: None,
        };
        let positive = |x: &f64| x.is_finite() && *x > 0.0;
        parse_flags(args, |flag, args| {
            match flag {
                "--family" => o.family = flag_value(flag, args.next())?,
                "--objective" => o.objective = flag_value(flag, args.next())?,
                "--scheme" => o.scheme = flag_value(flag, args.next())?,
                "--seed" => o.seed = flag_value(flag, args.next())?,
                "--budget" => o.budget = count(flag, args.next())?,
                "--population" => o.population = count(flag, args.next())?,
                "--min-gap" => {
                    let gap = flag_value_where(flag, args.next(), positive, "positive badness")?;
                    o.min_gap = Some(gap);
                }
                "--out" => o.out = flag_value(flag, args.next())?,
                "--fixture-out" => o.fixture_out = Some(flag_value(flag, args.next())?),
                "--trace-out" => o.trace_out = Some(flag_value(flag, args.next())?),
                "--smoke" => o.smoke = true,
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok(o)
    }
}

/// `harden`'s options.
pub struct HardenOpts {
    pub scheme: ModelKind,
    pub objective: ObjectiveKind,
    pub seed: u64,
    pub rounds: usize,
    pub budget: usize,
    pub population: usize,
    pub smoke: bool,
    pub ledger: String,
    pub fixture_out: String,
    pub trace_out: Option<String>,
    pub retrace: bool,
}

impl HardenOpts {
    /// Parses a `harden` command line.
    pub fn parse(args: &[String]) -> Result<HardenOpts, String> {
        let mut o = HardenOpts {
            scheme: ModelKind::Shallow,
            objective: ObjectiveKind::RewardGap,
            seed: DEFAULT_SEED,
            rounds: 2,
            budget: 16,
            population: 8,
            smoke: false,
            ledger: "ROBUSTNESS_ledger.json".to_string(),
            fixture_out: "fixtures/adversarial".to_string(),
            trace_out: None,
            retrace: false,
        };
        parse_flags(args, |flag, args| {
            match flag {
                "--scheme" => o.scheme = flag_value(flag, args.next())?,
                "--objective" => o.objective = flag_value(flag, args.next())?,
                "--seed" => o.seed = flag_value(flag, args.next())?,
                "--rounds" => o.rounds = count(flag, args.next())?,
                "--budget" => o.budget = count(flag, args.next())?,
                "--population" => o.population = count(flag, args.next())?,
                "--ledger" => o.ledger = flag_value(flag, args.next())?,
                "--fixture-out" => o.fixture_out = flag_value(flag, args.next())?,
                "--trace-out" => o.trace_out = Some(flag_value(flag, args.next())?),
                "--smoke" => o.smoke = true,
                "--retrace" => o.retrace = true,
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok(o)
    }
}

/// `serve_lab`'s options.
pub struct ServeLabOpts {
    pub flows: usize,
    pub duration_ms: u64,
    pub seed: u64,
    pub smoke: bool,
    pub breach: bool,
    pub live_out: Option<String>,
}

impl ServeLabOpts {
    /// Parses a `serve_lab` command line; `--smoke` caps the run at 32
    /// flows and 400 ms.
    pub fn parse(args: &[String]) -> Result<ServeLabOpts, String> {
        let mut o = ServeLabOpts {
            flows: 64,
            duration_ms: 1000,
            seed: DEFAULT_SEED,
            smoke: false,
            breach: false,
            live_out: None,
        };
        parse_flags(args, |flag, args| {
            match flag {
                "--flows" => o.flows = flag_value(flag, args.next())?,
                "--duration-ms" => o.duration_ms = flag_value(flag, args.next())?,
                "--seed" => o.seed = flag_value(flag, args.next())?,
                "--smoke" => o.smoke = true,
                "--breach" => o.breach = true,
                "--live-out" => o.live_out = Some(flag_value(flag, args.next())?),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        if o.flows == 0 {
            return Err("--flows must be at least 1".into());
        }
        if o.smoke {
            o.duration_ms = o.duration_ms.min(400);
            o.flows = o.flows.min(32);
        }
        if o.duration_ms == 0 {
            return Err("--duration-ms must be at least 1".into());
        }
        Ok(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    mod figures {
        use super::*;

        fn parse(args: &[&str]) -> Result<HarnessOpts, String> {
            match FiguresCmd::parse(&argv(args))? {
                FiguresCmd::Run(_, harness) => Ok(harness),
                _ => Err("not a figure run".into()),
            }
        }

        #[test]
        fn parse_reads_seed_and_smoke_and_rejects_everything_else() {
            let o = parse(&[]).expect("empty command line");
            assert_eq!((o.seed, o.smoke), (DEFAULT_SEED, false));
            let o = parse(&["--seed", "7"]).expect("valid seed");
            assert_eq!((o.seed, o.smoke), (7, false));
            let o = parse(&["--smoke", "--seed", "9"]).expect("both");
            assert_eq!((o.seed, o.smoke), (9, true));
            // A typo, a stray positional, or a flag missing its value must
            // never silently run the full-size default.
            for bad in [&["--smok"][..], &["fig99"], &["--smoke", "7"], &["--seed"]] {
                assert!(parse(bad).is_err(), "{bad:?}");
            }
            let err = parse(&["--smok"]).expect_err("typo");
            assert!(err.contains("unknown argument `--smok`"), "{err}");
        }

        #[test]
        fn parse_rejects_a_bad_seed_instead_of_defaulting() {
            for bad in [
                &["--seed", "7x"][..],
                &["--seed", "-1"],
                &["--seed", ""],
                &["--smoke", "--seed"],
            ] {
                let err = parse(bad).expect_err("bad seed");
                assert!(err.contains("--seed"), "{bad:?}: {err}");
            }
        }
    }

    mod scenario_lab {
        use super::*;

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
        fn duplicate_or_empty_families_and_schemes_are_rejected_up_front() {
            // Each would otherwise run (and train) the whole matrix before
            // the report refused its duplicate cells.
            for (args, needle) in [
                (
                    &["--family", "flash-crowd,flash-crowd"][..],
                    "family flash-crowd twice",
                ),
                (
                    &["--families", "jitter-storm, buffer-sweep ,jitter-storm"],
                    "twice",
                ),
                (&["--schemes", "cubic,cubic"], "scheme cubic twice"),
                (&["--schemes", "canopy-shallow,bbr,canopy-shallow"], "twice"),
                (&["--schemes", "cubic,"], "empty entry"),
                (&["--family", "flash-crowd,,jitter-storm"], "empty entry"),
                (&["--family", "tsunami"], "bad family `tsunami`"),
            ] {
                let err = LabOpts::parse(&argv(args)).err().expect("refused");
                assert!(
                    err.contains(needle) && err.contains(args[0]),
                    "{args:?}: {err}"
                );
            }
            let opts = LabOpts::parse(&argv(&["--family", "jitter-storm, flash-crowd"])).unwrap();
            assert_eq!(opts.families, [Family::JitterStorm, Family::FlashCrowd]);
            let opts = LabOpts::parse(&argv(&["--schemes", "cubic, bbr"])).unwrap();
            assert_eq!(opts.schemes, ["cubic", "bbr"]);
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
            let opts = LabOpts::parse(&argv(&["--topology", "incast:4"])).unwrap();
            assert_eq!(opts.topology, Some(TopologySpec::Incast { fan_in: 4 }));
            let default = LabOpts::parse(&argv(&[])).unwrap();
            assert_eq!(default.topology, None);
            assert!(LabOpts::parse(&argv(&["--topology", "incast:99"])).is_err());
            assert!(LabOpts::parse(&argv(&["--topology"])).is_err());
        }

        #[test]
        fn lab_args_carry_the_harness_seed_and_smoke() {
            let opts = LabOpts::parse(&argv(&["--smoke", "--seed", "7"])).unwrap();
            assert_eq!(
                opts.harness,
                HarnessOpts {
                    seed: 7,
                    smoke: true
                }
            );
            assert_eq!(
                LabOpts::parse(&argv(&[])).unwrap().harness.seed,
                DEFAULT_SEED
            );
            assert!(LabOpts::parse(&argv(&["--seed", "7x"])).is_err());
            assert!(LabOpts::parse(&argv(&["--seed"])).is_err());
            assert!(LabOpts::parse(&argv(&["--smok"])).is_err());
        }

        #[test]
        fn trace_out_parses() {
            let opts = LabOpts::parse(&argv(&["--trace-out", "TELEMETRY_report.json"])).unwrap();
            assert_eq!(opts.trace_out.as_deref(), Some("TELEMETRY_report.json"));
            assert_eq!(LabOpts::parse(&argv(&[])).unwrap().trace_out, None);
            assert!(LabOpts::parse(&argv(&["--trace-out"])).is_err());
        }

        #[test]
        fn live_out_parses() {
            let opts = LabOpts::parse(&argv(&["--live-out", "live"])).unwrap();
            assert_eq!(opts.live_out.as_deref(), Some("live"));
            assert_eq!(LabOpts::parse(&argv(&[])).unwrap().live_out, None);
            assert!(LabOpts::parse(&argv(&["--live-out"])).is_err());
        }

        #[test]
        fn lab_args_carry_seed_lists() {
            let args = argv(&["--family", "flash-crowd", "--seeds", "2,6"]);
            let opts = LabOpts::parse(&args).unwrap();
            assert_eq!(opts.seeds, vec![2, 6]);
            assert_eq!(opts.families, vec![Family::FlashCrowd]);
            let default = LabOpts::parse(&argv(&[])).unwrap();
            assert_eq!(default.seeds, (0..8).collect::<Vec<u64>>());
            assert!(LabOpts::parse(&argv(&["--seeds", "0"])).is_err());
            assert!(LabOpts::parse(&argv(&["--seeds", "1,1"])).is_err());
        }
    }

    mod scenario_search {
        use super::*;

        fn horizon(opts: &SearchOpts) -> Option<Time> {
            HarnessOpts::adversarial(opts.smoke).search_horizon()
        }

        #[test]
        fn acceptance_flags_parse() {
            let opts = SearchOpts::parse(&argv(&[
                "--family",
                "flash-crowd",
                "--seed",
                "7",
                "--objective",
                "qc_sat",
                "--budget",
                "64",
            ]))
            .unwrap();
            assert_eq!(opts.family, Family::FlashCrowd);
            assert_eq!(opts.objective, ObjectiveKind::QcSat);
            assert_eq!(opts.seed, 7);
            assert_eq!(opts.budget, 64);
            assert!(horizon(&opts).is_none());
        }

        #[test]
        fn smoke_mode_caps_horizons() {
            let opts = SearchOpts::parse(&argv(&["--smoke"])).unwrap();
            assert_eq!(horizon(&opts), Some(Time::from_secs(4)));
        }

        #[test]
        fn min_gap_parses_and_rejects_nonsense() {
            let parse = |args: &[&str]| SearchOpts::parse(&argv(args));
            assert_eq!(parse(&["--min-gap", "0.35"]).unwrap().min_gap, Some(0.35));
            assert_eq!(parse(&[]).unwrap().min_gap, None);
            assert!(parse(&["--min-gap", "0"]).is_err());
            assert!(parse(&["--min-gap", "-1"]).is_err());
            assert!(parse(&["--min-gap", "inf"]).is_err());
            assert!(parse(&["--min-gap"]).is_err());
        }

        #[test]
        fn trace_out_parses() {
            let opts = SearchOpts::parse(&argv(&["--trace-out", "trace.json"])).unwrap();
            assert_eq!(opts.trace_out.as_deref(), Some("trace.json"));
            assert_eq!(SearchOpts::parse(&argv(&[])).unwrap().trace_out, None);
            assert!(SearchOpts::parse(&argv(&["--trace-out"])).is_err());
        }

        #[test]
        fn bad_flags_fail_loudly() {
            let parse = |args: &[&str]| SearchOpts::parse(&argv(args));
            assert!(parse(&["--family", "tsunami"]).is_err());
            assert!(parse(&["--objective", "latency"]).is_err());
            assert!(parse(&["--budget", "0"]).is_err());
            assert!(parse(&["--scheme", "cubic"]).is_err());
            assert!(parse(&["--mystery"]).is_err());
        }
    }

    mod harden {
        use super::*;

        #[test]
        fn defaults_and_flags_parse() {
            let opts = HardenOpts::parse(&argv(&[])).unwrap();
            assert_eq!(opts.rounds, 2);
            assert_eq!(opts.ledger, "ROBUSTNESS_ledger.json");
            assert!(!opts.smoke);

            let opts = HardenOpts::parse(&argv(&[
                "--scheme",
                "canopy-robust",
                "--objective",
                "qc_sat",
                "--rounds",
                "3",
                "--smoke",
            ]))
            .unwrap();
            assert_eq!(opts.scheme, ModelKind::Robust);
            assert_eq!(opts.objective, ObjectiveKind::QcSat);
            assert_eq!(opts.rounds, 3);
            assert!(opts.smoke);
        }

        #[test]
        fn trace_out_parses() {
            let opts = HardenOpts::parse(&argv(&["--trace-out", "trace.json"])).unwrap();
            assert_eq!(opts.trace_out.as_deref(), Some("trace.json"));
            assert_eq!(HardenOpts::parse(&argv(&[])).unwrap().trace_out, None);
            assert!(HardenOpts::parse(&argv(&["--trace-out"])).is_err());
        }

        #[test]
        fn bad_flags_fail_loudly() {
            let parse = |args: &[&str]| HardenOpts::parse(&argv(args));
            assert!(parse(&["--rounds", "0"]).is_err());
            assert!(parse(&["--scheme", "cubic"]).is_err());
            assert!(parse(&["--objective", "latency"]).is_err());
            assert!(parse(&["--mystery"]).is_err());
        }
    }

    mod serve_lab {
        use super::*;

        #[test]
        fn args_parse_with_defaults_and_overrides() {
            let d = ServeLabOpts::parse(&argv(&[])).unwrap();
            assert_eq!(d.flows, 64);
            assert_eq!(d.duration_ms, 1000);
            assert!(!d.breach && d.live_out.is_none());

            let o = ServeLabOpts::parse(&argv(&[
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
            let parse = |args: &[&str]| ServeLabOpts::parse(&argv(args));
            let s = parse(&["--smoke"]).unwrap();
            assert_eq!(s.duration_ms, 400);
            assert_eq!(s.flows, 32);
            assert!(parse(&["--flows", "0"]).is_err());
            assert!(parse(&["--duration-ms", "0"]).is_err());
            assert!(parse(&["--flows"]).is_err());
            assert!(parse(&["--bogus"]).is_err());
        }
    }
}
