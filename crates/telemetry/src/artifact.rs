//! The artifact contract: how every committed canonical-JSON file is
//! tagged, checked, read and written. Seven schemas implement
//! [`Artifact`] — the telemetry report, the live metrics snapshot and
//! alert ledger (this crate), the scenario report, the search report, the
//! adversarial fixture and the robustness ledger — each stating only its
//! tag and its body invariants.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use serde_json::Value;

/// Why an artifact could not be read, checked or written.
#[derive(Debug)]
pub struct ArtifactError {
    /// The file, when the artifact came from or was bound for one.
    pub path: Option<PathBuf>,
    /// What went wrong.
    pub cause: Cause,
}

/// What went wrong with an artifact.
#[derive(Debug)]
pub enum Cause {
    /// Reading or writing the file failed (`kind()` tells a missing file).
    Io(io::Error),
    /// Not JSON, or JSON of another shape (a missing or mistyped field).
    Parse(String),
    /// The schema tag is missing (`found: None`) or names another schema.
    Schema {
        /// The tag found.
        found: Option<String>,
        /// The tag the artifact type carries.
        expected: &'static str,
    },
    /// A body invariant fails, or a corpus entry is not an artifact file.
    Invalid(String),
}

impl From<Cause> for ArtifactError {
    fn from(cause: Cause) -> ArtifactError {
        ArtifactError { path: None, cause }
    }
}

impl ArtifactError {
    fn at(mut self, path: &Path) -> ArtifactError {
        self.path = Some(path.to_path_buf());
        self
    }
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(path) = &self.path {
            write!(f, "{}: ", path.display())?;
        }
        match &self.cause {
            Cause::Io(e) => write!(f, "{e}"),
            Cause::Parse(e) => write!(f, "not JSON of this artifact's shape: {e}"),
            Cause::Schema { found, expected } => {
                let found = found.as_deref().unwrap_or("no tag");
                write!(f, "schema mismatch: `{found}` (expected `{expected}`)")
            }
            Cause::Invalid(e) => f.write_str(e),
        }
    }
}

impl std::error::Error for ArtifactError {}

/// A canonical-JSON artifact with a pinned schema tag. The provided
/// methods are the one way the repository checks, reads and writes one;
/// every failure is an [`ArtifactError`] naming the file when there is
/// one.
pub trait Artifact: Serialize + Deserialize {
    /// The schema tag; bump it when the type's fields change.
    const SCHEMA: &'static str;

    /// The tag this value carries.
    fn schema(&self) -> &str;

    /// Body invariants beyond the tag.
    fn check(&self) -> Result<(), String>;

    /// The tag, then the body invariants.
    fn validate(&self) -> Result<(), ArtifactError> {
        tagged::<Self>(Some(self.schema()))?;
        self.check().map_err(|e| Cause::Invalid(e).into())
    }

    /// The canonical JSON text: sorted keys, so equal values are equal
    /// bytes.
    fn to_json(&self) -> String {
        // The vendored writer renders any value tree; it has no error path.
        serde_json::to_string(self).expect("the JSON writer is infallible")
    }

    /// Parses and validates. The tag is compared before the body is
    /// parsed, so text of another schema is a mismatch, not a missing
    /// field.
    fn from_json(text: &str) -> Result<Self, ArtifactError> {
        let parse = |e: serde_json::Error| ArtifactError::from(Cause::Parse(e.to_string()));
        let value: Value = serde_json::from_str(text).map_err(parse)?;
        tagged::<Self>(value["schema"].as_str())?;
        let artifact: Self = serde_json::from_value(value).map_err(parse)?;
        artifact.validate()?;
        Ok(artifact)
    }

    /// Reads and validates the artifact at `path`.
    fn read(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        let path = path.as_ref();
        let read = || Self::from_json(&std::fs::read_to_string(path).map_err(Cause::Io)?);
        read().map_err(|e| e.at(path))
    }

    /// Validates, then writes the canonical bytes to `path`; an invalid
    /// value writes nothing.
    fn write(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        let path = path.as_ref();
        let write = || std::fs::write(path, self.to_json()).map_err(|e| Cause::Io(e).into());
        self.validate()
            .and_then(|()| write())
            .map_err(|e| e.at(path))
    }
}

/// The one schema-tag comparison.
fn tagged<A: Artifact>(found: Option<&str>) -> Result<(), ArtifactError> {
    if found == Some(A::SCHEMA) {
        return Ok(());
    }
    let (found, expected) = (found.map(str::to_string), A::SCHEMA);
    Err(Cause::Schema { found, expected }.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::{AlertLedger, AlertRecord, SloKind};

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("canopy-artifact-{}-{name}", std::process::id()))
    }

    #[test]
    fn write_then_read_round_trips_the_canonical_bytes() {
        let path = temp_path("round-trip.json");
        let ledger = AlertLedger::new("unit");
        ledger.write(&path).expect("writes");
        let text = std::fs::read_to_string(&path).expect("written");
        let back = AlertLedger::read(&path).expect("reads");
        let _ = std::fs::remove_file(&path);
        assert_eq!(text, ledger.to_json());
        assert_eq!(back, ledger);
    }

    /// Which failure `e` is.
    fn kind(e: &ArtifactError) -> &'static str {
        match &e.cause {
            Cause::Io(e) if e.kind() == io::ErrorKind::NotFound => "missing",
            Cause::Io(_) => "io",
            Cause::Parse(_) => "parse",
            Cause::Schema { found: Some(_), .. } => "schema",
            Cause::Schema { found: None, .. } => "untagged",
            Cause::Invalid(_) => "invalid",
        }
    }

    #[test]
    fn every_failure_is_typed_and_names_the_file() {
        let path = temp_path("bad.json");
        let cases: [(Option<&[u8]>, &str); 6] = [
            (None, "missing"),
            (Some(&[0xff]), "io"),
            (Some(b"{\"alerts\":["), "parse"),
            (Some(b"{\"schema\":\"canopy-alerts/v0\"}"), "schema"),
            (Some(b"[]"), "untagged"),
            (
                Some(b"{\"alerts\":[],\"label\":0,\"schema\":\"canopy-alerts/v1\"}"),
                "parse",
            ),
        ];
        for (bytes, expected) in cases {
            let _ = std::fs::remove_file(&path);
            if let Some(bytes) = bytes {
                std::fs::write(&path, bytes).expect("temp file");
            }
            let err = AlertLedger::read(&path).expect_err("bad bytes");
            assert_eq!(kind(&err), expected, "{bytes:?}: {err:?}");
            assert!(err.to_string().contains("bad.json"), "{err}");
        }
        let _ = std::fs::remove_file(&path);
        let mut ledger = AlertLedger::new("unit");
        ledger.alerts.push(AlertRecord {
            t_ns: 1,
            slo: "s".into(),
            kind: SloKind::MaxFallbackRate,
            observed: 1.0,
            threshold: 0.5,
            active: false,
        });
        let err = AlertLedger::from_json(&ledger.to_json()).expect_err("cleared, never breached");
        assert_eq!(kind(&err), "invalid", "{err}");
    }

    #[test]
    fn an_invalid_value_is_never_written() {
        let path = temp_path("invalid.json");
        let mut ledger = AlertLedger::new("unit");
        ledger.schema = "canopy-alerts/v0".into();
        let err = ledger.write(&path).expect_err("wrong tag");
        assert_eq!(kind(&err), "schema", "{err:?}");
        assert!(err.to_string().contains("invalid.json"), "{err}");
        assert!(!path.exists(), "nothing was written");
    }
}
