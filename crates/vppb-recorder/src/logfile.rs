//! Log-file I/O: the text format (human-readable, fig. 2-style), JSON and
//! the compact binary format.
//!
//! The paper stores the recorded information in a file when the program
//! terminates; the largest log in §4 was 1.4 MB and "could be handled
//! without any problems".
//!
//! Two robustness properties live here:
//!
//! - **Writes are atomic.** Every save goes to a temporary file in the
//!   destination directory, is fsynced, then renamed over the target — a
//!   recorder killed mid-save leaves either the old log or the new one,
//!   never a half-written hybrid. (The *monitored program* can still die
//!   mid-run, which is what the salvage pipeline below is for.)
//! - **Reads can be lenient.** [`load_lenient`] sniffs the format, decodes
//!   with the recovering decoder, and if the result fails structural
//!   validation hands it to [`vppb_model::salvage`], returning the log
//!   together with every diagnostic and salvage edit.

use std::borrow::Cow;
use std::fs;
use std::io::Write;
use std::path::Path;
use vppb_model::salvage::{salvage_traced, SalvageReport};
use vppb_model::{binlog, textlog, DiagCode, Diagnostic, LogFormat, Pos, TraceLog, VppbError};

/// Write `bytes` to `path` atomically: temp file, fsync, rename.
fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), VppbError> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("log");
    let tmp = dir.join(format!(".{name}.{}.tmp", std::process::id()));
    let write = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if let Err(e) = write {
        let _ = fs::remove_file(&tmp);
        return Err(VppbError::Io(format!("{}: {e}", path.display())));
    }
    Ok(())
}

/// Write a log in the text format.
pub fn save_text(log: &TraceLog, path: impl AsRef<Path>) -> Result<(), VppbError> {
    atomic_write(path.as_ref(), textlog::write_log(log).as_bytes())
}

/// Write a log as JSON (lossless, machine-friendly).
pub fn save_json(log: &TraceLog, path: impl AsRef<Path>) -> Result<(), VppbError> {
    let json = serde_json::to_string(log).map_err(|e| VppbError::Io(format!("serialize: {e}")))?;
    atomic_write(path.as_ref(), json.as_bytes())
}

/// Write a log in the compact binary format (roughly a third of the text
/// size — §4 worries about log sizes for long fine-grained executions).
pub fn save_bin(log: &TraceLog, path: impl AsRef<Path>) -> Result<(), VppbError> {
    atomic_write(path.as_ref(), &binlog::encode(log)?)
}

/// Parse a JSON log. JSON is all-or-nothing: serde either parses the
/// value or not, so strict and lenient loads both use this.
fn parse_json(text: &str) -> Result<TraceLog, VppbError> {
    serde_json::from_str(text).map_err(|e| VppbError::MalformedLog(format!("json: {e}")))
}

/// The text of a text or JSON log: the one place that decides its
/// encoding. Invalid UTF-8 fails a strict load with a diagnostic naming
/// the line and byte of the first bad sequence; a lenient load replaces
/// each bad sequence with U+FFFD and warns once for each line it touched.
fn decode_text(data: &[u8], lenient: bool) -> Result<(Cow<'_, str>, Vec<Diagnostic>), VppbError> {
    if let Ok(text) = std::str::from_utf8(data) {
        return Ok((Cow::Borrowed(text), Vec::new()));
    }
    let mut text = String::with_capacity(data.len());
    let mut diags: Vec<Diagnostic> = Vec::new();
    let (mut line, mut at) = (1, 0);
    for chunk in data.utf8_chunks() {
        text.push_str(chunk.valid());
        line += chunk.valid().bytes().filter(|&b| b == b'\n').count();
        at += chunk.valid().len();
        if chunk.invalid().is_empty() {
            continue;
        }
        let pos = Pos::Line(line as u32);
        let message = format!("invalid UTF-8 sequence at byte {at}");
        if !lenient {
            return Err(Diagnostic::error(DiagCode::InvalidUtf8, pos, message).into());
        }
        if diags.last().map(|d| d.pos) != Some(pos) {
            let message = message + "; replaced with U+FFFD";
            diags.push(Diagnostic::warning(DiagCode::InvalidUtf8, pos, message));
        }
        text.push(char::REPLACEMENT_CHARACTER);
        at += chunk.invalid().len();
    }
    Ok((Cow::Owned(text), diags))
}

/// Read a log of any format strictly: sniffed like [`load_lenient`],
/// decoded with no recovery, and validated. Any damage is an error.
pub fn load(path: impl AsRef<Path>) -> Result<TraceLog, VppbError> {
    let data = fs::read(path)?;
    let log = match LogFormat::sniff(&data) {
        LogFormat::Binary => binlog::decode(&data)?,
        LogFormat::Json => parse_json(&decode_text(&data, false)?.0)?,
        LogFormat::Text => textlog::parse_log(&decode_text(&data, false)?.0)?,
    };
    log.validate()?;
    Ok(log)
}

/// The result of a lenient load: the (possibly repaired) log plus the
/// full account of what it took to read it.
#[derive(Debug, Clone)]
pub struct LoadedLog {
    /// The decoded — and, if necessary, salvaged — log.
    pub log: TraceLog,
    /// Decoder diagnostics (dropped lines, skipped tags, ...).
    pub diagnostics: Vec<Diagnostic>,
    /// Structural repairs applied after decoding.
    pub salvage: SalvageReport,
}

impl LoadedLog {
    /// Whether the log was read without any recovery at all.
    pub fn is_pristine(&self) -> bool {
        self.diagnostics.is_empty() && self.salvage.is_clean()
    }
}

/// Load a log of any format, recovering what a strict load would refuse.
///
/// The format is sniffed from the first bytes, as [`load`] does.
/// Decode-level damage is reported as diagnostics; if the
/// decoded log fails [`TraceLog::validate`], the salvager repairs it and
/// the edits are reported too. Returns an error only when the damage is
/// beyond salvage (no records survive, unsupported version, ...).
pub fn load_lenient(path: impl AsRef<Path>) -> Result<LoadedLog, VppbError> {
    let data = fs::read(path.as_ref())?;
    load_lenient_bytes(&data)
}

/// [`load_lenient`] over an in-memory buffer — the chaos harness and the
/// `vppb check` linter feed damaged bytes straight through without a file.
pub fn load_lenient_bytes(data: &[u8]) -> Result<LoadedLog, VppbError> {
    Ok(load_lenient_traced(data)?.0)
}

/// [`load_lenient_bytes`], additionally reporting which record seqs of the
/// returned log were *synthesized* by the salvager rather than decoded from
/// the input. Streaming ingestion treats those records (and everything a
/// thread did after them) as provisional: a later append can replace a
/// synthetic unlock/exit tail with the real continuation.
pub fn load_lenient_traced(data: &[u8]) -> Result<(LoadedLog, Vec<usize>), VppbError> {
    let (mut log, diagnostics) = match LogFormat::sniff(data) {
        LogFormat::Binary => binlog::decode_lenient(data)?,
        LogFormat::Json => {
            let (text, diagnostics) = decode_text(data, true)?;
            (parse_json(&text)?, diagnostics)
        }
        LogFormat::Text => {
            // Replaced bytes are reported ahead of what the parser found.
            let (text, mut diagnostics) = decode_text(data, true)?;
            let (log, parsed) = textlog::parse_log_lenient(&text);
            diagnostics.extend(parsed);
            (log, diagnostics)
        }
    };
    let (salvage_report, synthetic) = match log.validate() {
        Ok(()) => (SalvageReport::default(), Vec::new()),
        Err(_) => {
            let (report, synthetic) = salvage_traced(&mut log);
            log.validate()?; // post-salvage failure is unrecoverable
            (report, synthetic)
        }
    };
    Ok((LoadedLog { log, diagnostics, salvage: salvage_report }, synthetic))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{record, RecordOptions};
    use vppb_threads::AppBuilder;

    fn sample_log() -> TraceLog {
        let mut b = AppBuilder::new("io", "io.c");
        let m = b.mutex();
        let w = b.func("w", move |f| {
            f.lock(m);
            f.work_us(5);
            f.unlock(m);
        });
        b.main(move |f| {
            let a = f.create(w);
            f.join(a);
        });
        let app = b.build().unwrap();
        record(&app, &RecordOptions::default()).unwrap().log
    }

    #[test]
    fn text_round_trip_through_file() {
        let log = sample_log();
        let dir = std::env::temp_dir().join("vppb-test-text");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.vppb");
        save_text(&log, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn binary_round_trip_through_file() {
        let log = sample_log();
        let dir = std::env::temp_dir().join("vppb-test-bin");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.vppbb");
        save_bin(&log, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back, log);
        // And it is smaller than the text form.
        let text_path = dir.join("log.vppb");
        save_text(&log, &text_path).unwrap();
        let bin_len = fs::metadata(&path).unwrap().len();
        let text_len = fs::metadata(&text_path).unwrap().len();
        assert!(bin_len < text_len, "binary {bin_len} vs text {text_len}");
    }

    #[test]
    fn json_round_trip_through_file() {
        let log = sample_log();
        let dir = std::env::temp_dir().join("vppb-test-json");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.json");
        save_json(&log, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back, log);
        // A leading newline keeps it JSON, for strict and lenient loads.
        let padded = dir.join("padded.json");
        fs::write(&padded, format!("\n{}", fs::read_to_string(&path).unwrap())).unwrap();
        assert_eq!(load(&padded).unwrap(), log);
        assert!(load_lenient(&padded).unwrap().is_pristine());
    }

    #[test]
    fn saves_leave_no_temp_files_behind() {
        let log = sample_log();
        let dir = std::env::temp_dir().join("vppb-test-atomic");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        save_text(&log, dir.join("a.vppb")).unwrap();
        save_bin(&log, dir.join("b.vppbb")).unwrap();
        save_json(&log, dir.join("c.json")).unwrap();
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.len(), 3, "{names:?}");
        assert!(names.iter().all(|n| !n.ends_with(".tmp")), "{names:?}");
    }

    #[test]
    fn save_to_unwritable_path_is_io_error() {
        let log = sample_log();
        let err = save_text(&log, "/nonexistent-dir/sub/log.vppb").unwrap_err();
        assert!(matches!(err, VppbError::Io(_)), "{err:?}");
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(load("/nonexistent/vppb.log"), Err(VppbError::Io(_))));
    }

    #[test]
    fn corrupt_text_is_a_diagnostic() {
        let dir = std::env::temp_dir().join("vppb-test-corrupt");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.vppb");
        fs::write(&path, "0.000000 T1 Q wat @0x0\n").unwrap();
        assert!(matches!(load(&path), Err(VppbError::Diag(_))));
    }

    #[test]
    fn invalid_utf8_fails_strictly_at_its_line_and_warns_once_per_line_leniently() {
        let log = sample_log();
        let text = textlog::write_log(&log);
        let (head, rest) = text.split_at(text.find('\n').unwrap() + 1);
        let mut bytes = head.as_bytes().to_vec();
        let bad = bytes.len() + "# note ".len();
        bytes.extend_from_slice(b"# note \xff\xfe\n# again \xff\n");
        bytes.extend_from_slice(rest.as_bytes());
        let dir = std::env::temp_dir().join("vppb-test-utf8");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad-utf8.vppb");
        fs::write(&path, &bytes).unwrap();

        match load(&path) {
            Err(VppbError::Diag(d)) => {
                assert_eq!((d.code, d.pos), (DiagCode::InvalidUtf8, Pos::Line(2)));
                assert!(d.message.ends_with(&format!("byte {bad}")), "{}", d.message);
            }
            other => panic!("expected a positioned diagnostic, got {other:?}"),
        }
        let loaded = load_lenient(&path).unwrap();
        let found: Vec<_> = loaded.diagnostics.iter().map(|d| (d.code, d.pos)).collect();
        let utf8 = DiagCode::InvalidUtf8;
        assert_eq!(found, [(utf8, Pos::Line(2)), (utf8, Pos::Line(3))]);
        assert_eq!(loaded.log, log, "the replaced bytes sat in comments");
    }

    #[test]
    fn lenient_load_salvages_a_truncated_binary_log() {
        let log = sample_log();
        let dir = std::env::temp_dir().join("vppb-test-lenient");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cut.vppbb");
        let bytes = binlog::encode(&log).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
        assert!(load(&path).is_err(), "strict load refuses");
        let loaded = load_lenient(&path).unwrap();
        assert!(!loaded.is_pristine());
        loaded.log.validate().unwrap();
        assert!(
            !loaded.diagnostics.is_empty() || !loaded.salvage.is_clean(),
            "recovery must be reported"
        );
    }

    #[test]
    fn lenient_load_of_pristine_log_reports_nothing() {
        let log = sample_log();
        let dir = std::env::temp_dir().join("vppb-test-lenient-ok");
        fs::create_dir_all(&dir).unwrap();
        let save_t: fn(&TraceLog, &Path) -> Result<(), VppbError> = |l, p| save_text(l, p);
        let save_b: fn(&TraceLog, &Path) -> Result<(), VppbError> = |l, p| save_bin(l, p);
        for (name, save) in [("ok.vppb", save_t), ("ok.vppbb", save_b)] {
            let path = dir.join(name);
            save(&log, &path).unwrap();
            let loaded = load_lenient(&path).unwrap();
            assert!(loaded.is_pristine(), "{name}: {:?}", loaded.diagnostics);
            assert_eq!(loaded.log, log);
        }
    }
}
