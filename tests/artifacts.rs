//! The artifact contract against the committed artifacts. Every committed
//! canonical-JSON file reads back through `Artifact::read` and `to_json`
//! reproduces it byte for byte; each reader refuses the other schemas by
//! their tag; and every reader meets truncated, corrupted and hostile
//! input with an `ArtifactError` or a value that validated — never a
//! panic, never an abort.

use std::fs;
use std::path::{Path, PathBuf};

use canopy_repro::scenarios::ScenarioReport;
use canopy_repro::search::{AdversarialFixture, RobustnessLedger, SearchReport};
use canopy_repro::telemetry::artifact::Cause;
use canopy_repro::telemetry::{
    AlertLedger, Artifact, ArtifactError, MetricsSnapshot, TelemetryReport,
};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn text(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// The `.json` files directly in `dir`, sorted.
fn json_files(dir: &Path) -> Vec<PathBuf> {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    let mut paths: Vec<PathBuf> = entries
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.is_file() && p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths
}

/// Reads `path` as an `A` and renders it back.
fn reread<A: Artifact>(path: &Path) -> Result<String, ArtifactError> {
    A::read(path).map(|a| a.to_json())
}

/// Parses `text` as an `A`, keeping only whether it was accepted.
fn parse<A: Artifact>(text: &str) -> Result<(), ArtifactError> {
    A::from_json(text).map(|_| ())
}

const METRICS: &str = "fixtures/live/serve_lab/metrics.jsonl";

#[test]
fn committed_artifacts_read_back_byte_for_byte() {
    type Reread = fn(&Path) -> Result<String, ArtifactError>;
    let mut table: Vec<(PathBuf, Reread)> = vec![
        (
            root().join("TELEMETRY_report.json"),
            reread::<TelemetryReport>,
        ),
        (
            root().join("SCENARIOS_report.json"),
            reread::<ScenarioReport>,
        ),
        (root().join("SEARCH_report.json"), reread::<SearchReport>),
        (
            root().join("ROBUSTNESS_ledger.json"),
            reread::<RobustnessLedger>,
        ),
        (
            root().join("fixtures/live/serve_lab/alerts.json"),
            reread::<AlertLedger>,
        ),
    ];
    let fixtures = json_files(&root().join("fixtures/adversarial"));
    let traces = json_files(&root().join("fixtures/adversarial/traces"));
    assert!(!fixtures.is_empty(), "no committed adversarial fixtures");
    assert_eq!(
        fixtures.len(),
        traces.len(),
        "one decision trace per fixture"
    );
    table.extend(
        fixtures
            .into_iter()
            .map(|p| (p, reread::<AdversarialFixture> as Reread)),
    );
    table.extend(
        traces
            .into_iter()
            .map(|p| (p, reread::<TelemetryReport> as Reread)),
    );
    for (path, reread) in table {
        let back = reread(&path).unwrap_or_else(|e| panic!("{e}"));
        // `assert!`, not `assert_eq!`: a megabyte-long diff helps no one.
        assert!(back == text(&path), "{} is not canonical", path.display());
    }
    let stream = text(&root().join(METRICS));
    assert!(
        stream.ends_with('\n'),
        "the JSONL stream ends its last line"
    );
    for (i, line) in stream.lines().enumerate() {
        let snapshot = MetricsSnapshot::from_json(line).unwrap_or_else(|e| panic!("line {i}: {e}"));
        assert!(
            snapshot.to_json() == line,
            "{METRICS} line {i} is not canonical"
        );
    }
}

type Parse = fn(&str) -> Result<(), ArtifactError>;

/// One committed sample per schema, with its reader. The telemetry
/// sample is the smallest fixture trace: the one-megabyte report adds
/// nothing a trace does not have.
fn samples() -> Vec<(&'static str, String, Parse)> {
    let smallest_trace = json_files(&root().join("fixtures/adversarial/traces"))
        .into_iter()
        .min_by_key(|p| fs::metadata(p).map_or(u64::MAX, |m| m.len()))
        .expect("a committed trace");
    let fixture = json_files(&root().join("fixtures/adversarial"))
        .into_iter()
        .next()
        .expect("a committed fixture");
    let first_snapshot = text(&root().join(METRICS))
        .lines()
        .next()
        .expect("a committed snapshot")
        .to_string();
    vec![
        ("telemetry", text(&smallest_trace), parse::<TelemetryReport>),
        ("metrics", first_snapshot, parse::<MetricsSnapshot>),
        (
            "alerts",
            text(&root().join("fixtures/live/serve_lab/alerts.json")),
            parse::<AlertLedger>,
        ),
        (
            "scenarios",
            text(&root().join("SCENARIOS_report.json")),
            parse::<ScenarioReport>,
        ),
        (
            "search",
            text(&root().join("SEARCH_report.json")),
            parse::<SearchReport>,
        ),
        ("fixture", text(&fixture), parse::<AdversarialFixture>),
        (
            "ledger",
            text(&root().join("ROBUSTNESS_ledger.json")),
            parse::<RobustnessLedger>,
        ),
    ]
}

#[test]
fn each_reader_refuses_the_other_schemas_by_their_tag() {
    let samples = samples();
    for (name, sample, _) in &samples {
        for (reader, _, parse) in &samples {
            match parse(sample) {
                Ok(()) => assert_eq!(name, reader, "{reader} accepted the {name} sample"),
                Err(ArtifactError {
                    cause: Cause::Schema { found: Some(_), .. },
                    ..
                }) => {
                    assert_ne!(name, reader, "{reader} refused its own tag")
                }
                Err(e) => panic!("{reader} on the {name} sample: {e}"),
            }
        }
    }
}

/// `text` cut at the char boundary at or below `at`.
fn prefix(text: &str, mut at: usize) -> &str {
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    &text[..at]
}

/// About `n` offsets spread evenly over `0..len` (all of them when
/// `len <= n`).
fn spread(len: usize, n: usize) -> impl Iterator<Item = usize> {
    (0..len).step_by(len.div_ceil(n).max(1))
}

/// How many of `readers` accept `text`. Every reader runs, so a panic in
/// any of them fails the calling test.
fn accepted(readers: &[Parse], text: &str) -> usize {
    readers.iter().filter(|parse| parse(text).is_ok()).count()
}

/// `doc` with byte `i` replaced by an injected one, or `None` when that
/// byte is not ASCII or already the injected one.
fn corrupt(doc: &str, i: usize) -> Option<String> {
    // Structural characters, a digit, a letter, a control byte.
    const INJECT: &[u8] = b"\"{}[]:,\\-.9ex \n\x01";
    let byte = INJECT[i % INJECT.len()];
    let mut bytes = doc.as_bytes().to_vec();
    if !bytes[i].is_ascii() || bytes[i] == byte {
        return None;
    }
    bytes[i] = byte;
    Some(String::from_utf8(bytes).expect("ASCII for ASCII"))
}

/// A sample up to this long is cut at every offset; every byte up to
/// here is corrupted.
const HEAD: usize = 4 << 10;
/// Beyond the head, spread cuts and corruptions over this much.
const BODY: usize = 64 << 10;

/// What the readers owe input they did not write. Every truncation of a
/// committed sample is refused by every reader: at each offset of a
/// sample up to 4 KB; 192 across the first 64 KB and 16 across the whole
/// of a longer one. Each byte of the first 4 KB is corrupted and run
/// through every reader: a cut head must be refused by all of them, a
/// whole sample may parse (a changed digit) into a value its reader
/// validated. Then 1024 bytes across the first 64 KB are corrupted for
/// the sample's own reader, which must refuse them too when that prefix
/// is cut.
fn sweep(name: &str, sample: &str, own: Parse, readers: &[Parse]) {
    let len = sample.len();
    let cuts: Vec<usize> = if len <= HEAD {
        (0..len).collect()
    } else {
        let across = (1..16).map(|i| i * len / 16);
        spread(len.min(BODY), 192).chain(across).collect()
    };
    for at in cuts {
        assert_eq!(
            accepted(readers, prefix(sample, at)),
            0,
            "{name} cut at {at}"
        );
    }
    let head = prefix(sample, HEAD);
    for i in 0..head.len() {
        if let Some(text) = corrupt(head, i) {
            let accepted = accepted(readers, &text);
            assert!(head.len() == len || accepted == 0, "{name}: head byte {i}");
        }
    }
    let body = prefix(sample, BODY);
    for i in spread(body.len(), 1024) {
        if let Some(text) = corrupt(body, i) {
            let verdict = own(&text);
            assert!(body.len() == len || verdict.is_err(), "{name}: byte {i}");
        }
    }
}

#[test]
fn every_reader_survives_bad_bytes() {
    let mut samples = samples();
    let readers: Vec<Parse> = samples.iter().map(|&(_, _, parse)| parse).collect();
    // The one-megabyte report too: cut well inside and far out, and
    // corrupt its (therefore truncated) head.
    let report = text(&root().join("TELEMETRY_report.json"));
    samples.push(("telemetry report", report, parse::<TelemetryReport>));
    // One thread per sample; a panic in any fails the test.
    std::thread::scope(|scope| {
        for (name, sample, own) in &samples {
            scope.spawn(|| sweep(name, sample, *own, &readers));
        }
    });
    // A nesting bomb is an error, not a stack overflow.
    for bomb in ["[", "{\"schema\":", "{\"alerts\":"].map(|open| open.repeat(20_000)) {
        assert_eq!(accepted(&readers, &bomb), 0, "nesting bomb");
    }
}
