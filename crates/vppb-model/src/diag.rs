//! Structured ingestion diagnostics.
//!
//! The Recorder writes its log while riding inside the monitored program
//! (§3), so a crashed, killed or disk-full target leaves a truncated or
//! corrupt file — the artifact a prediction tool is most often handed.
//! Every parser failure is therefore a positioned [`Diagnostic`] with a
//! stable machine-readable [`DiagCode`], not a bare string: lenient
//! ingestion collects them and keeps going, strict ingestion fails fast on
//! the first error, and `vppb check` renders them rustc-style.
//!
//! The full code table lives in DESIGN.md §6c.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::VppbError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Informational (e.g. a salvage edit that lost no information).
    Note,
    /// The input was damaged but repaired with an explicit edit.
    Warning,
    /// The input (or the requested part of it) is unusable.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable diagnostic codes. `E01xx` text parse, `E02xx` binary decode,
/// `E03xx` structural validation, `W04xx` salvage edits, `E05xx`/`W05xx`
/// durable-store recovery. Keep the numeric codes stable: they are part
/// of the `vppb check --json` contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DiagCode {
    // ---- text parse -------------------------------------------------------
    /// A `# key value` header line does not parse.
    BadHeaderField,
    /// The leading timestamp token does not parse.
    BadTime,
    /// A thread-id token is not `T<n>`.
    BadThreadId,
    /// The phase column is not `B`, `A` or `M`.
    BadPhase,
    /// The routine name is not in the event taxonomy.
    UnknownRoutine,
    /// A token is neither `key=value` nor `@addr`.
    BadToken,
    /// A routine is missing a required `key=` field.
    MissingField,
    /// A text or JSON log holds bytes that are not UTF-8.
    InvalidUtf8,
    // ---- binary decode ----------------------------------------------------
    /// The file does not start with the `VPPB` magic.
    BadMagic,
    /// The version field is newer than this build understands.
    UnsupportedVersion,
    /// The file ends inside the JSON header.
    TruncatedHeader,
    /// The JSON header does not deserialize.
    BadHeaderJson,
    /// The file ends inside a record.
    TruncatedRecord,
    /// A record carries a tag this build does not know.
    UnknownTag,
    /// A record carries a result tag this build does not know.
    UnknownResultTag,
    /// A record's phase byte is out of range.
    BadPhaseByte,
    /// A varint runs past 64 bits.
    VarintOverflow,
    /// A v2 record-length prefix disagrees with the record body.
    BadRecordLength,
    // ---- structural validation -------------------------------------------
    /// The log has no records at all.
    EmptyLog,
    /// The log does not begin with `start_collect`.
    MissingStartCollect,
    /// The log does not end with `end_collect`.
    MissingEndCollect,
    /// Sequence numbers are not dense and ascending.
    BadSequence,
    /// A timestamp goes backwards.
    TimeRegression,
    /// A BEFORE record arrives while another call is open on the thread.
    NestedBefore,
    /// An AFTER record has no open BEFORE on its thread.
    StrayAfter,
    /// A BEFORE/AFTER pair wraps two different routines.
    MismatchedPair,
    /// A non-`thr_exit` call is still open at the end of the log.
    UnterminatedCall,
    /// The log has no main thread.
    NoMainThread,
    /// A recorded `thr_create` has no AFTER carrying the child id.
    OrphanCreate,
    // ---- salvage edits ----------------------------------------------------
    /// An unparseable text line was dropped.
    DroppedLine,
    /// An unknown-tag v2 record was skipped via its length prefix.
    SkippedUnknownTag,
    /// A record truncated mid-encoding at the end of the file was dropped.
    DroppedPartialRecord,
    /// A thread with no recorded `thr_exit` got one at its last-seen time.
    SynthesizedExit,
    /// A lock held past the end of the log got a synthesized release.
    SynthesizedRelease,
    /// An out-of-order timestamp was clamped to its predecessor.
    ClampedTime,
    /// Sequence numbers were renumbered densely.
    RenumberedSeq,
    /// A missing `start_collect` mark was synthesized.
    SynthesizedStart,
    /// A missing `end_collect` mark was synthesized.
    SynthesizedEnd,
    /// A dangling BEFORE with no AFTER was dropped.
    DroppedDanglingBefore,
    /// An AFTER with no BEFORE (or wrapping a different routine) was
    /// dropped.
    DroppedStrayAfter,
    /// The header wall time was clamped to cover the last record.
    ClampedWallTime,
    // ---- durable store recovery (E05xx / W05xx) ----------------------------
    /// A stored object's footer is missing or malformed (torn/truncated
    /// write); the object was quarantined.
    TornObject,
    /// A stored object's payload fails its CRC footer; quarantined.
    ObjectCrcMismatch,
    /// The manifest names an object whose file is absent — a lost
    /// acknowledged write. Must never happen under the store's
    /// object-before-manifest write ordering.
    MissingObject,
    /// A stored object disagrees with the manifest's recorded length/CRC;
    /// quarantined.
    ManifestMismatch,
    /// A torn trailing journal record (crash debris) was dropped and the
    /// journal truncated back to the last clean frame.
    TornJournalTail,
    /// A CRC-valid object on disk was not in the manifest (the process
    /// died between object write and manifest append); it was adopted.
    AdoptedOrphanObject,
    /// A stale atomic-writer temp file was swept away during recovery.
    RemovedTempFile,
    /// A journal frame is damaged before the tail — real corruption, not
    /// crash debris. Replay stops at the damage.
    BadJournalRecord,
}

impl DiagCode {
    /// The stable `Ennn` / `Wnnn` rendering of this code.
    pub fn code(self) -> &'static str {
        use DiagCode::*;
        match self {
            BadHeaderField => "E0101",
            BadTime => "E0102",
            BadThreadId => "E0103",
            BadPhase => "E0104",
            UnknownRoutine => "E0105",
            BadToken => "E0106",
            MissingField => "E0107",
            InvalidUtf8 => "E0108",
            BadMagic => "E0201",
            UnsupportedVersion => "E0202",
            TruncatedHeader => "E0203",
            BadHeaderJson => "E0204",
            TruncatedRecord => "E0205",
            UnknownTag => "E0206",
            UnknownResultTag => "E0207",
            BadPhaseByte => "E0208",
            VarintOverflow => "E0209",
            BadRecordLength => "E0210",
            EmptyLog => "E0301",
            MissingStartCollect => "E0302",
            MissingEndCollect => "E0303",
            BadSequence => "E0304",
            TimeRegression => "E0305",
            NestedBefore => "E0306",
            StrayAfter => "E0307",
            MismatchedPair => "E0308",
            UnterminatedCall => "E0309",
            NoMainThread => "E0310",
            OrphanCreate => "E0311",
            DroppedLine => "W0401",
            SkippedUnknownTag => "W0402",
            DroppedPartialRecord => "W0403",
            SynthesizedExit => "W0404",
            SynthesizedRelease => "W0405",
            ClampedTime => "W0406",
            RenumberedSeq => "W0407",
            SynthesizedStart => "W0408",
            SynthesizedEnd => "W0409",
            DroppedDanglingBefore => "W0410",
            DroppedStrayAfter => "W0411",
            ClampedWallTime => "W0412",
            TornObject => "E0501",
            ObjectCrcMismatch => "E0502",
            MissingObject => "E0503",
            ManifestMismatch => "E0504",
            TornJournalTail => "W0505",
            AdoptedOrphanObject => "W0506",
            RemovedTempFile => "W0507",
            BadJournalRecord => "E0508",
        }
    }

    /// Whether this code names a salvage edit (`W04xx`) rather than a
    /// hard defect.
    pub fn is_salvage(self) -> bool {
        self.code().starts_with('W')
    }

    /// A fixed remediation hint for the code, when one exists.
    pub fn hint(self) -> Option<&'static str> {
        use DiagCode::*;
        match self {
            UnsupportedVersion => {
                Some("this build reads binary logs up to version 2; upgrade vppb")
            }
            BadMagic => Some("the file is not a vppb binary log; try the text or json loader"),
            TruncatedRecord | TruncatedHeader | DroppedPartialRecord => {
                Some("the recorder was likely interrupted; run `vppb check --lenient` to salvage")
            }
            UnknownRoutine | UnknownTag => {
                Some("the log may come from a newer recorder; unknown v2 records are skippable")
            }
            TornObject | ObjectCrcMismatch | ManifestMismatch => {
                Some("the damaged object was moved to quarantine/; re-upload the log to restore it")
            }
            MissingObject => {
                Some("an acknowledged write is gone; check the disk and restore from quarantine or backup")
            }
            _ => None,
        }
    }
}

/// Where in the input a diagnostic points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Pos {
    /// No position information.
    None,
    /// 1-based line number in a text log.
    Line(u32),
    /// Byte offset in a binary log.
    Byte(u64),
    /// Record sequence number in a parsed log.
    Record(u64),
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pos::None => Ok(()),
            Pos::Line(l) => write!(f, "line {l}"),
            Pos::Byte(b) => write!(f, "byte {b}"),
            Pos::Record(r) => write!(f, "record {r}"),
        }
    }
}

/// One structured ingestion finding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Error / warning / note.
    pub severity: Severity,
    /// Stable machine-readable code.
    pub code: DiagCode,
    /// Position in the input, when known.
    pub pos: Pos,
    /// Human-readable description of the specific finding.
    pub message: String,
    /// Remediation hint, when the code has one.
    pub hint: Option<String>,
}

impl Diagnostic {
    /// An error diagnostic with the code's canned hint.
    pub fn error(code: DiagCode, pos: Pos, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            code,
            pos,
            message: message.into(),
            hint: code.hint().map(str::to_string),
        }
    }

    /// A warning diagnostic (salvage edits, skipped damage).
    pub fn warning(code: DiagCode, pos: Pos, message: impl Into<String>) -> Diagnostic {
        Diagnostic { severity: Severity::Warning, ..Diagnostic::error(code, pos, message) }
    }

    /// Rustc-style rendering:
    ///
    /// ```text
    /// error[E0205]: truncated record (byte 1234)
    ///   hint: the recorder was likely interrupted; run `vppb check --lenient` to salvage
    /// ```
    pub fn render(&self) -> String {
        let mut out = format!("{}[{}]: {}", self.severity, self.code.code(), self.message);
        if self.pos != Pos::None {
            out += &format!(" ({})", self.pos);
        }
        if let Some(h) = &self.hint {
            out += &format!("\n  hint: {h}");
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<Diagnostic> for VppbError {
    fn from(d: Diagnostic) -> VppbError {
        VppbError::Diag(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_rustc_style() {
        let d = Diagnostic::error(DiagCode::TruncatedRecord, Pos::Byte(1234), "truncated record");
        let r = d.render();
        assert!(r.starts_with("error[E0205]: truncated record (byte 1234)"), "{r}");
        assert!(r.contains("hint:"), "{r}");
    }

    #[test]
    fn warning_without_hint_is_single_line() {
        let d = Diagnostic::warning(DiagCode::ClampedTime, Pos::Record(7), "clamped");
        assert_eq!(d.render(), "warning[W0406]: clamped (record 7)");
    }

    #[test]
    fn codes_are_unique_and_band_matches_is_salvage() {
        use DiagCode::*;
        let all = [
            BadHeaderField,
            BadTime,
            BadThreadId,
            BadPhase,
            UnknownRoutine,
            BadToken,
            MissingField,
            InvalidUtf8,
            BadMagic,
            UnsupportedVersion,
            TruncatedHeader,
            BadHeaderJson,
            TruncatedRecord,
            UnknownTag,
            UnknownResultTag,
            BadPhaseByte,
            VarintOverflow,
            BadRecordLength,
            EmptyLog,
            MissingStartCollect,
            MissingEndCollect,
            BadSequence,
            TimeRegression,
            NestedBefore,
            StrayAfter,
            MismatchedPair,
            UnterminatedCall,
            NoMainThread,
            OrphanCreate,
            DroppedLine,
            SkippedUnknownTag,
            DroppedPartialRecord,
            SynthesizedExit,
            SynthesizedRelease,
            ClampedTime,
            RenumberedSeq,
            SynthesizedStart,
            SynthesizedEnd,
            DroppedDanglingBefore,
            DroppedStrayAfter,
            ClampedWallTime,
            TornObject,
            ObjectCrcMismatch,
            MissingObject,
            ManifestMismatch,
            TornJournalTail,
            AdoptedOrphanObject,
            RemovedTempFile,
            BadJournalRecord,
        ];
        let mut codes: Vec<&str> = all.iter().map(|c| c.code()).collect();
        codes.sort_unstable();
        let n = codes.len();
        codes.dedup();
        assert_eq!(codes.len(), n, "duplicate diagnostic code");
        for c in all {
            assert_eq!(c.is_salvage(), c.code().starts_with('W'), "{c:?}");
        }
    }

    #[test]
    fn conversion_into_vppb_error() {
        let d = Diagnostic::error(DiagCode::BadMagic, Pos::Byte(0), "bad magic");
        let e: VppbError = d.clone().into();
        assert!(matches!(e, VppbError::Diag(got) if got == d));
    }
}
