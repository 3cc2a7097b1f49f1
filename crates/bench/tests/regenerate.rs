//! The committed artifacts are the behavioural contract. Each row below is
//! one harness invocation: it runs the built binary in an empty directory
//! with an empty model cache (training what it needs) and the caller's
//! `CANOPY_THREADS`, and every file it reproduces must equal the committed
//! file at the same path byte for byte. A mismatch names the file, the
//! first differing line and both lines around the first differing byte.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// One regeneration command.
struct Row {
    /// The harness executable.
    bin: &'static str,
    /// Its arguments, separated by whitespace.
    args: &'static str,
    /// Seeds the run's `fixtures/adversarial/` with the committed fixtures
    /// whose file name ends with this suffix.
    corpus: Option<&'static str>,
    /// Where the run's stdout is saved, relative to its directory; `None`
    /// discards it. Stderr is never compared.
    stdout: Option<&'static str>,
    /// Committed files — or directories, meaning every file directly in
    /// them and no other — that the run writes at the same relative path.
    reproduces: &'static [&'static str],
}

const ROWS: &[Row] = &[
    Row {
        bin: env!("CARGO_BIN_EXE_scenario_lab"),
        args: "--family all --seeds 8 --schemes cubic",
        corpus: None,
        stdout: None,
        reproduces: &["SCENARIOS_report.json"],
    },
    Row {
        bin: env!("CARGO_BIN_EXE_scenario_lab"),
        args: "--family all --seeds 1 --schemes canopy-shallow --smoke \
               --out SCENARIOS_smoke.json --trace-out TELEMETRY_report.json",
        corpus: None,
        stdout: None,
        reproduces: &["TELEMETRY_report.json", "TELEMETRY_report.chrome.json"],
    },
    Row {
        bin: env!("CARGO_BIN_EXE_scenario_search"),
        args: "--family flash-crowd --seed 7 --objective reward_gap --budget 64 --smoke",
        corpus: None,
        stdout: None,
        reproduces: &["SEARCH_report.json"],
    },
    Row {
        bin: env!("CARGO_BIN_EXE_harden"),
        args: "--seed 29 --rounds 2 --smoke",
        corpus: Some("-s7.json"),
        stdout: None,
        reproduces: &["ROBUSTNESS_ledger.json", "fixtures/adversarial"],
    },
    Row {
        bin: env!("CARGO_BIN_EXE_harden"),
        args: "--retrace --smoke",
        corpus: Some(".json"),
        stdout: None,
        reproduces: &["fixtures/adversarial/traces"],
    },
    Row {
        bin: env!("CARGO_BIN_EXE_serve_lab"),
        args: "--flows 16 --duration-ms 500 --breach --live-out fixtures/live/serve_lab",
        corpus: None,
        stdout: None,
        reproduces: &["fixtures/live/serve_lab"],
    },
    Row {
        bin: env!("CARGO_BIN_EXE_figures"),
        args: "--all --smoke",
        corpus: None,
        stdout: Some("FIGURES_smoke.md"),
        reproduces: &["FIGURES_smoke.md"],
    },
];

/// Bytes of a differing line shown before and after its first difference.
const BEFORE: usize = 240;
const AFTER: usize = 80;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn command_line(row: &Row) -> String {
    let bin = Path::new(row.bin).file_name().expect("binary file name");
    format!("{} {}", bin.to_string_lossy(), row.args)
}

/// Runs `row` in `dir` and returns one message per committed file it did
/// not reproduce.
fn regenerate(row: &Row, dir: &Path) -> Vec<String> {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).expect("run directory");
    if let Some(suffix) = row.corpus {
        let corpus = dir.join("fixtures/adversarial");
        fs::create_dir_all(&corpus).expect("corpus directory");
        for path in files_in(&repo_root().join("fixtures/adversarial")) {
            let name = path.file_name().expect("fixture name");
            if name.to_string_lossy().ends_with(suffix) {
                fs::copy(&path, corpus.join(name)).expect("seed the corpus");
            }
        }
    }
    let out = Command::new(row.bin)
        .args(row.args.split_whitespace())
        .current_dir(dir)
        .env("CANOPY_MODEL_DIR", dir.join("models"))
        .output()
        .expect("harness binary runs");
    assert!(
        out.status.success(),
        "`{}` exited {:?}: {}",
        command_line(row),
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    if let Some(rel) = row.stdout {
        fs::write(dir.join(rel), &out.stdout).expect("save stdout");
    }

    let mut failures = Vec::new();
    for &rel in row.reproduces {
        let committed = repo_root().join(rel);
        if committed.is_dir() {
            let names = |d: &Path| -> Vec<String> {
                let name = |p: &PathBuf| p.file_name().expect("file name").to_string_lossy().into();
                files_in(d).iter().map(name).collect()
            };
            let want = names(&committed);
            for extra in names(&dir.join(rel)).iter().filter(|n| !want.contains(n)) {
                failures.push(format!("{rel}/{extra}: written but not committed"));
            }
            for name in want {
                let (committed, got) = (committed.join(&name), dir.join(rel).join(&name));
                failures.extend(compare(&format!("{rel}/{name}"), &committed, &got));
            }
        } else {
            failures.extend(compare(rel, &committed, &dir.join(rel)));
        }
    }
    failures
}

/// The files directly in `dir`, sorted; none when it does not exist.
fn files_in(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .map(|entries| {
            entries
                .map(|e| e.expect("directory entry").path())
                .collect()
        })
        .unwrap_or_default();
    files.retain(|p| p.is_file());
    files.sort();
    files
}

fn compare(rel: &str, committed: &Path, regenerated: &Path) -> Option<String> {
    let want = fs::read(committed).expect("committed artifact");
    let Ok(got) = fs::read(regenerated) else {
        return Some(format!("{rel}: not written"));
    };
    first_difference(&want, &got).map(|diff| format!("{rel}: {diff}"))
}

/// `None` for equal bytes; else the line and column of the first differing
/// byte and an excerpt of that line from both sides.
fn first_difference(want: &[u8], got: &[u8]) -> Option<String> {
    if want == got {
        return None;
    }
    let at = want.iter().zip(got).take_while(|(a, b)| a == b).count();
    let prefix = &want[..at];
    let line = prefix.iter().filter(|&&b| b == b'\n').count() + 1;
    let start = prefix
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    let excerpt = |bytes: &[u8]| {
        let end = bytes[start..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(bytes.len(), |i| start + i);
        let from = start.max(at.saturating_sub(BEFORE));
        let to = end.min(at + AFTER);
        let head = if from > start { "…" } else { "" };
        let tail = if to < end { "…" } else { "" };
        format!("{head}{}{tail}", String::from_utf8_lossy(&bytes[from..to]))
    };
    Some(format!(
        "line {line} differs at column {}\n  committed:   {}\n  regenerated: {}",
        at - start + 1,
        excerpt(want),
        excerpt(got)
    ))
}

#[test]
fn every_committed_artifact_regenerates_byte_for_byte() {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("regenerate");
    let mut failures = Vec::new();
    for (i, row) in ROWS.iter().enumerate() {
        for failure in regenerate(row, &scratch.join(format!("row{i}"))) {
            failures.push(format!("`{}`\n  {failure}", command_line(row)));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n\n"));
}

#[test]
fn a_difference_names_its_line_and_both_lines() {
    assert_eq!(first_difference(b"a\nb\n", b"a\nb\n"), None);
    let diff = first_difference(b"one\ntwo 517\nthree", b"one\ntwo 518\nthree").unwrap();
    assert_eq!(
        diff,
        "line 2 differs at column 7\n  committed:   two 517\n  regenerated: two 518"
    );
    // A truncated file differs where it ends.
    let diff = first_difference(b"{\"a\":1}", b"{\"a\"").unwrap();
    assert!(diff.starts_with("line 1 differs at column 5"), "{diff}");
    // A long line is cut to the bytes around the difference.
    let want = [b'x'; 1000];
    let mut got = want;
    got[500] = b'y';
    let diff = first_difference(&want, &got).unwrap();
    assert!(diff.contains("column 501"), "{diff}");
    assert!(diff.len() < 2 * (BEFORE + AFTER) + 100, "{diff}");
}
