//! Chunk framing for streaming ingestion.
//!
//! A growing log file can be cut anywhere, but only cuts at *record
//! boundaries* yield a prefix whose strict parse equals the strict parse
//! of the final file truncated there. This module enumerates those
//! boundaries for both on-disk encodings — text logs (one record per
//! `\n`-terminated line) and binlog v2 (`u32`-length-prefixed frames) —
//! and provides the deterministic splitters the chunk-equivalence test
//! battery and `vppb watch --chunks` are built on.
//!
//! The lenient loaders tolerate a cut *anywhere* (a torn trailing record
//! is dropped and later salvaged), so boundaries here are about making
//! splits interesting and reproducible, not about what the ingestion path
//! can survive.

use crate::binlog;
use crate::LogFormat;

/// Byte positions `p` (0 < p ≤ len) where `bytes[..p]` ends exactly at a
/// record boundary. The final position `len` is always included for
/// non-empty input. Text logs break after every newline; binlog v2 breaks
/// after the header and after every length-prefixed frame, up to the first
/// frame that is torn or carries an implausible length. Formats without
/// interior framing (JSON, binlog v1, unrecognized bytes) get only the
/// final boundary.
pub fn record_boundaries(bytes: &[u8]) -> Vec<usize> {
    if bytes.is_empty() {
        return Vec::new();
    }
    let mut out = match LogFormat::sniff(bytes) {
        LogFormat::Binary => binlog_boundaries(bytes),
        LogFormat::Json => Vec::new(), // a single indivisible document
        LogFormat::Text => {
            bytes.iter().enumerate().filter(|(_, &b)| b == b'\n').map(|(i, _)| i + 1).collect()
        }
    };
    if out.last() != Some(&bytes.len()) {
        out.push(bytes.len());
    }
    out
}

fn binlog_boundaries(bytes: &[u8]) -> Vec<usize> {
    let Some(mut pos) = binlog::frames_start(bytes) else {
        return Vec::new(); // v1 records carry no length prefix; or a torn header
    };
    let mut out = vec![pos];
    while let Ok((_, end)) = binlog::read_frame(bytes, pos) {
        pos = end;
        out.push(pos);
    }
    out
}

/// Split `bytes` at record boundaries, seeded and reproducible. Small logs
/// (at most `2 * target` interior boundaries) are split at *every*
/// boundary, so exhaustive prefix checks come for free; larger logs get
/// about `target` chunks at pseudo-randomly chosen boundaries. Always
/// returns at least one chunk for non-empty input, and the concatenation
/// of the chunks is exactly `bytes`.
pub fn split_random(bytes: &[u8], seed: u64, target: usize) -> Vec<Vec<u8>> {
    let bounds = record_boundaries(bytes);
    let Some((&last, interior)) = bounds.split_last() else {
        return Vec::new();
    };
    debug_assert_eq!(last, bytes.len());
    let target = target.max(1);
    let cuts: Vec<usize> = if interior.len() <= 2 * target {
        interior.to_vec()
    } else {
        // Pseudo-random subset via a 64-bit LCG: keep each interior
        // boundary with probability target/interior.len().
        let mut x = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut step = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 33
        };
        let keep_one_in = (interior.len() / target).max(1) as u64;
        interior.iter().copied().filter(|_| step() % keep_one_in == 0).collect()
    };
    cut_at(bytes, &cuts)
}

/// Split `bytes` into about `n` chunks of similar size, cutting at the
/// record boundary nearest each ideal cut point. Deterministic.
pub fn split_even(bytes: &[u8], n: usize) -> Vec<Vec<u8>> {
    let bounds = record_boundaries(bytes);
    let Some((_, interior)) = bounds.split_last() else {
        return Vec::new();
    };
    let n = n.max(1);
    let mut cuts = Vec::new();
    for i in 1..n {
        let ideal = bytes.len() * i / n;
        if let Some(&b) = interior.iter().min_by_key(|&&b| b.abs_diff(ideal)) {
            if cuts.last() != Some(&b) {
                cuts.push(b);
            }
        }
    }
    cut_at(bytes, &cuts)
}

fn cut_at(bytes: &[u8], cuts: &[usize]) -> Vec<Vec<u8>> {
    let mut out = Vec::with_capacity(cuts.len() + 1);
    let mut prev = 0usize;
    for &c in cuts {
        debug_assert!(c > prev && c < bytes.len());
        out.push(bytes[prev..c].to_vec());
        prev = c;
    }
    out.push(bytes[prev..].to_vec());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_boundaries_follow_newlines() {
        let b = b"# vppb 1\nrec a\nrec b\ntorn";
        let bounds = record_boundaries(b);
        assert_eq!(bounds, vec![9, 15, 21, b.len()]);
    }

    #[test]
    fn empty_input_has_no_boundaries() {
        assert!(record_boundaries(b"").is_empty());
        assert!(split_random(b"", 7, 4).is_empty());
    }

    #[test]
    fn json_is_indivisible() {
        assert_eq!(record_boundaries(b"{\"x\":1}"), vec![7]);
        assert_eq!(record_boundaries(b"\n {\"x\":1}\n"), vec![10]);
    }

    #[test]
    fn a_zero_length_frame_ends_the_binary_boundaries() {
        let frame = |body: &[u8]| [&(body.len() as u32).to_le_bytes()[..], body].concat();
        let head = [&b"VPPB"[..], &2u16.to_le_bytes(), &2u32.to_le_bytes(), b"{}"].concat();
        let log = [head, frame(b"abc"), frame(b""), frame(b"z")].concat();
        assert_eq!(record_boundaries(&log), vec![12, 19, log.len()]);
    }

    #[test]
    fn splits_reassemble() {
        let b = b"line one\nline two\nline three\nline four\n";
        for seed in 0..8u64 {
            let chunks = split_random(b, seed, 2);
            let glued: Vec<u8> = chunks.concat();
            assert_eq!(glued, b.to_vec(), "seed {seed}");
        }
        let even = split_even(b, 3);
        assert_eq!(even.concat(), b.to_vec());
        assert!(even.len() >= 2);
    }

    #[test]
    fn small_logs_split_at_every_boundary() {
        let b = b"a\nb\nc\n";
        let chunks = split_random(b, 1, 8);
        assert_eq!(chunks.len(), 3, "every interior boundary used");
    }
}
