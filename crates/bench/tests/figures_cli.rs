//! The `figures` binary's command line: `--list` names the registry, the
//! committed smoke output is complete and finite, and bad command lines are
//! one-line errors with exit status 2 — never a panic, never a silent
//! full-size default.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

use canopy_bench::figures::REGISTRY;

/// Runs `figures` with a model cache private to the calling test (tests
/// run concurrently and must not share files), never the shared cache.
fn figures(args: &[&str], threads: &str, cache: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .env(
            "CANOPY_MODEL_DIR",
            PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(cache),
        )
        .env("CANOPY_THREADS", threads)
        .output()
        .expect("figures binary runs")
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).expect("utf-8 tables")
}

#[test]
fn list_names_every_registry_entry_once() {
    let listing = stdout(&figures(&["--list"], "1", "models-list"));
    let ids: Vec<&str> = listing
        .lines()
        .map(|l| l.split_whitespace().next().expect("id column"))
        .collect();
    let registry: Vec<&str> = REGISTRY.iter().map(|f| f.id).collect();
    assert_eq!(ids, registry);
    // One entry per artifact of the evaluation, in paper order.
    let mut expected: Vec<String> = [1, 2]
        .into_iter()
        .chain(5..=17)
        .map(|n| format!("fig{n:02}"))
        .collect();
    expected.extend(
        [
            "table04",
            "ablation_domains",
            "ablation_mechanism",
            "ext_random_loss",
        ]
        .map(String::from),
    );
    assert_eq!(ids, expected);
}

/// The committed stdout of `--all --smoke`, which `regenerate.rs` re-runs.
#[test]
fn committed_figures_carry_every_claim_and_only_finite_numbers() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../FIGURES_smoke.md");
    let text = fs::read_to_string(path).expect("committed FIGURES_smoke.md");
    for figure in REGISTRY {
        assert!(
            text.contains(figure.paper),
            "{}: no `paper:` line",
            figure.id
        );
    }
    let mut numbers = 0;
    for line in text.lines().filter(|l| l.starts_with("| ")) {
        for cell in line.trim_matches('|').split('|') {
            if let Ok(x) = cell.trim().parse::<f64>() {
                assert!(x.is_finite(), "non-finite cell in `{line}`");
                numbers += 1;
            }
        }
    }
    // 19 figures print far more than a thousand numeric cells between them.
    assert!(numbers > 1000, "only {numbers} numeric cells");
}

#[test]
fn bad_command_lines_exit_2_with_a_one_line_error() {
    for (threads, args, needle) in [
        (
            "1",
            &["explore", "--scheme", "reno2"][..],
            "unknown scheme `reno2`",
        ),
        (
            "1",
            &["explore", "--buffer-bdp", "abc"],
            "--buffer-bdp: bad value `abc`",
        ),
        (
            "1",
            &["explore", "--loss", "0.01"],
            "unknown argument `--loss`",
        ),
        (
            "1",
            &["explore", "--trace", "syn-nope"],
            "unknown base trace `syn-nope`",
        ),
        ("1", &["fig05", "--smok"], "unknown argument `--smok`"),
        ("1", &["fig99"], "unknown argument `fig99`"),
        ("1", &["fig05", "--seed"], "--seed needs a value"),
        ("1", &[], "nothing to run"),
        // A malformed worker count is an error too, not "all cores".
        ("abc", &["--list"], "CANOPY_THREADS: bad value `abc`"),
        ("0", &["--list"], "CANOPY_THREADS: bad value `0`"),
        ("", &["--list"], "CANOPY_THREADS: bad value ``"),
    ] {
        let out = figures(args, threads, "models-errors");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a table");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(needle),
            "{args:?}: {stderr}"
        );
    }
}
