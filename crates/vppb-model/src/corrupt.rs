//! Deterministic log corruption for the chaos harness.
//!
//! Robustness claims need an adversary. This module is the adversary: a
//! small set of seeded, reproducible mutators that damage serialized logs
//! the way real-world failures do — truncation (crash mid-write), bit
//! flips (media corruption), duplicated/dropped/reordered records (buggy
//! collectors, interleaved writers), and garbled headers. The chaos suite
//! feeds mutated logs through the full ingestion pipeline and asserts the
//! salvage-or-diagnose contract: **no input may panic the tool**.
//!
//! Mutators are format-aware where it matters: text logs are framed by
//! lines, binary v2 logs by their record length prefixes, and anything
//! else by fixed-size chunks, so record-level mutations (duplicate,
//! delete, swap) hit plausible boundaries instead of only producing
//! instantly-rejected noise. All randomness comes from a splitmix64
//! stream owned by the caller-provided seed: same seed, same damage.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::LogFormat;
use std::fmt;
use std::ops::Range;

/// Frame size used when a payload has no recognizable structure.
const CHUNK: usize = 16;

/// A deterministic splitmix64 pseudo-random stream.
///
/// Self-contained so corruption is reproducible from a single `u64` seed
/// with no dependency on the workspace RNG shim.
#[derive(Debug, Clone)]
pub struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    /// A stream seeded with `seed`; equal seeds yield equal streams.
    pub fn new(seed: u64) -> ChaosRng {
        ChaosRng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`0` when `bound == 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        if bound == 0 {
            0
        } else {
            (self.next_u64() % bound as u64) as usize
        }
    }
}

/// One concrete act of damage, reported so failures reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mutation {
    /// The log was cut off after `at` bytes (crash mid-write).
    Truncate {
        /// Bytes kept.
        at: usize,
    },
    /// Bit `bit` of byte `offset` was inverted.
    BitFlip {
        /// Byte offset of the flip.
        offset: usize,
        /// Which bit (0–7) was inverted.
        bit: u8,
    },
    /// Frame `frame` was written twice.
    DuplicateRecord {
        /// Index of the duplicated frame.
        frame: usize,
    },
    /// Frame `frame` was lost.
    DeleteRecord {
        /// Index of the deleted frame.
        frame: usize,
    },
    /// Frames `frame` and `frame + 1` traded places.
    SwapAdjacent {
        /// Index of the first of the two swapped frames.
        frame: usize,
    },
    /// Byte `offset` inside the header region was overwritten.
    GarbleHeader {
        /// Byte offset inside the header.
        offset: usize,
        /// The byte written over it.
        with: u8,
    },
    /// The input was too small for the chosen mutator; left untouched.
    Noop,
}

impl fmt::Display for Mutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mutation::Truncate { at } => write!(f, "truncate at byte {at}"),
            Mutation::BitFlip { offset, bit } => write!(f, "flip bit {bit} of byte {offset}"),
            Mutation::DuplicateRecord { frame } => write!(f, "duplicate frame {frame}"),
            Mutation::DeleteRecord { frame } => write!(f, "delete frame {frame}"),
            Mutation::SwapAdjacent { frame } => write!(f, "swap frames {frame} and {}", frame + 1),
            Mutation::GarbleHeader { offset, with } => {
                write!(f, "garble header byte {offset} -> {with:#04x}")
            }
            Mutation::Noop => write!(f, "no-op (input too small)"),
        }
    }
}

/// How a serialized log splits into a header region and body frames.
#[derive(Debug, Clone, Default)]
pub struct Framing {
    /// Byte length of the header region (garble target).
    pub header: usize,
    /// Body frames, as byte ranges (duplicate/delete/swap targets).
    pub frames: Vec<Range<usize>>,
}

/// Compute format-aware framing for `bytes`.
///
/// Text (and JSON) logs frame by lines (newline included), binary v2 logs
/// by their `u32` record length prefixes; binary v1 and unrecognized
/// payloads fall back to fixed [`CHUNK`]-byte frames. Unlike the decoder's
/// frame reader, the binary walk accepts any length, so damage it frames
/// is damage the decoder must survive.
pub fn framing(bytes: &[u8]) -> Framing {
    match LogFormat::sniff(bytes) {
        LogFormat::Binary => bin_framing(bytes),
        LogFormat::Json | LogFormat::Text => text_framing(bytes),
    }
}

fn bin_framing(bytes: &[u8]) -> Framing {
    // magic(4) + version(2) + header length(4) + header JSON.
    let version = if bytes.len() >= 6 { u16::from_le_bytes([bytes[4], bytes[5]]) } else { 0 };
    let hjson = if bytes.len() >= 10 {
        u32::from_le_bytes([bytes[6], bytes[7], bytes[8], bytes[9]]) as usize
    } else {
        0
    };
    let header = (10usize.saturating_add(hjson)).min(bytes.len());
    let mut frames = Vec::new();
    let mut pos = header;
    if version >= 2 {
        // v2 records carry a u32 length prefix; frame on it.
        while pos + 4 <= bytes.len() {
            let len =
                u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
                    as usize;
            let end = pos.saturating_add(4).saturating_add(len).min(bytes.len());
            if end <= pos {
                break;
            }
            frames.push(pos..end);
            pos = end;
        }
        if pos < bytes.len() {
            frames.push(pos..bytes.len());
        }
    } else {
        chunk_frames(bytes, pos, &mut frames);
    }
    Framing { header, frames }
}

fn text_framing(bytes: &[u8]) -> Framing {
    if !bytes
        .iter()
        .take(512)
        .all(|&b| b == b'\n' || b == b'\r' || b == b'\t' || (0x20..0x7f).contains(&b))
    {
        // Not text; treat the first chunk as "header" and the rest as chunks.
        let header = CHUNK.min(bytes.len());
        let mut frames = Vec::new();
        chunk_frames(bytes, header, &mut frames);
        return Framing { header, frames };
    }
    let mut frames = Vec::new();
    let mut start = 0usize;
    let mut header = 0usize;
    let mut in_header = true;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            let line = start..i + 1;
            if in_header && bytes.get(start) == Some(&b'#') {
                header = line.end;
            } else {
                in_header = false;
                frames.push(line);
            }
            start = i + 1;
        }
    }
    if start < bytes.len() {
        frames.push(start..bytes.len());
    }
    Framing { header, frames }
}

fn chunk_frames(bytes: &[u8], from: usize, frames: &mut Vec<Range<usize>>) {
    let mut pos = from;
    while pos < bytes.len() {
        let end = (pos + CHUNK).min(bytes.len());
        frames.push(pos..end);
        pos = end;
    }
}

/// Apply one randomly chosen mutator to `bytes` in place; the returned
/// [`Mutation`] says exactly what happened (reproduce with the same seed).
pub fn mutate(bytes: &mut Vec<u8>, rng: &mut ChaosRng) -> Mutation {
    match rng.below(6) {
        0 => truncate(bytes, rng),
        1 => bit_flip(bytes, rng),
        2 => duplicate_record(bytes, rng),
        3 => delete_record(bytes, rng),
        4 => swap_adjacent(bytes, rng),
        _ => garble_header(bytes, rng),
    }
}

/// Cut the log off at a random byte, as a crash mid-write would.
pub fn truncate(bytes: &mut Vec<u8>, rng: &mut ChaosRng) -> Mutation {
    if bytes.is_empty() {
        return Mutation::Noop;
    }
    let at = rng.below(bytes.len());
    bytes.truncate(at);
    Mutation::Truncate { at }
}

/// Invert one random bit anywhere in the log.
pub fn bit_flip(bytes: &mut [u8], rng: &mut ChaosRng) -> Mutation {
    if bytes.is_empty() {
        return Mutation::Noop;
    }
    let offset = rng.below(bytes.len());
    let bit = (rng.below(8)) as u8;
    bytes[offset] ^= 1 << bit;
    Mutation::BitFlip { offset, bit }
}

/// Write one random frame twice.
pub fn duplicate_record(bytes: &mut Vec<u8>, rng: &mut ChaosRng) -> Mutation {
    let framing = framing(bytes);
    if framing.frames.is_empty() {
        return Mutation::Noop;
    }
    let frame = rng.below(framing.frames.len());
    let range = framing.frames[frame].clone();
    let copy: Vec<u8> = bytes[range.clone()].to_vec();
    splice(bytes, range.end..range.end, &copy);
    Mutation::DuplicateRecord { frame }
}

/// Drop one random frame.
pub fn delete_record(bytes: &mut Vec<u8>, rng: &mut ChaosRng) -> Mutation {
    let framing = framing(bytes);
    if framing.frames.is_empty() {
        return Mutation::Noop;
    }
    let frame = rng.below(framing.frames.len());
    let range = framing.frames[frame].clone();
    splice(bytes, range, &[]);
    Mutation::DeleteRecord { frame }
}

/// Swap two adjacent frames.
pub fn swap_adjacent(bytes: &mut Vec<u8>, rng: &mut ChaosRng) -> Mutation {
    let framing = framing(bytes);
    if framing.frames.len() < 2 {
        return Mutation::Noop;
    }
    let frame = rng.below(framing.frames.len() - 1);
    let a = framing.frames[frame].clone();
    let b = framing.frames[frame + 1].clone();
    let mut swapped: Vec<u8> = Vec::with_capacity(b.end - a.start);
    swapped.extend_from_slice(&bytes[b.clone()]);
    swapped.extend_from_slice(&bytes[a.start..b.start]);
    splice(bytes, a.start..b.end, &swapped);
    Mutation::SwapAdjacent { frame }
}

/// Overwrite one random byte of the header region.
pub fn garble_header(bytes: &mut [u8], rng: &mut ChaosRng) -> Mutation {
    let framing = framing(bytes);
    if framing.header == 0 {
        return Mutation::Noop;
    }
    let offset = rng.below(framing.header);
    let with = (rng.next_u64() & 0xff) as u8;
    bytes[offset] = with;
    Mutation::GarbleHeader { offset, with }
}

fn splice(bytes: &mut Vec<u8>, range: Range<usize>, with: &[u8]) {
    let tail: Vec<u8> = bytes[range.end..].to_vec();
    bytes.truncate(range.start);
    bytes.extend_from_slice(with);
    bytes.extend_from_slice(&tail);
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &[u8] = b"\
# vppb-log v1
# program toy
0.000000 T1 M start_collect @0x0
0.000010 T1 B thr_exit @0x18
0.100000 T1 M end_collect @0x0
";

    #[test]
    fn rng_is_deterministic() {
        let mut a = ChaosRng::new(42);
        let mut b = ChaosRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(ChaosRng::new(1).next_u64(), ChaosRng::new(2).next_u64());
    }

    #[test]
    fn text_framing_splits_header_and_lines() {
        let f = framing(TEXT);
        let header_text = &TEXT[..f.header];
        assert!(header_text.ends_with(b"# program toy\n"));
        assert_eq!(f.frames.len(), 3);
        assert!(TEXT[f.frames[0].clone()].starts_with(b"0.000000"));
    }

    #[test]
    fn same_seed_same_damage() {
        let mut x = TEXT.to_vec();
        let mut y = TEXT.to_vec();
        let ma = mutate(&mut x, &mut ChaosRng::new(7));
        let mb = mutate(&mut y, &mut ChaosRng::new(7));
        assert_eq!(ma, mb);
        assert_eq!(x, y);
    }

    #[test]
    fn delete_removes_exactly_one_frame() {
        let mut bytes = TEXT.to_vec();
        let before = framing(&bytes).frames.len();
        let m = delete_record(&mut bytes, &mut ChaosRng::new(3));
        assert!(matches!(m, Mutation::DeleteRecord { .. }));
        assert_eq!(framing(&bytes).frames.len(), before - 1);
    }

    #[test]
    fn duplicate_adds_exactly_one_frame() {
        let mut bytes = TEXT.to_vec();
        let before = framing(&bytes).frames.len();
        let m = duplicate_record(&mut bytes, &mut ChaosRng::new(3));
        assert!(matches!(m, Mutation::DuplicateRecord { .. }));
        assert_eq!(framing(&bytes).frames.len(), before + 1);
    }

    #[test]
    fn swap_preserves_length() {
        let mut bytes = TEXT.to_vec();
        let n = bytes.len();
        let m = swap_adjacent(&mut bytes, &mut ChaosRng::new(9));
        assert!(matches!(m, Mutation::SwapAdjacent { .. }));
        assert_eq!(bytes.len(), n);
        assert_ne!(bytes, TEXT);
    }

    #[test]
    fn truncate_shortens() {
        let mut bytes = TEXT.to_vec();
        let m = truncate(&mut bytes, &mut ChaosRng::new(5));
        if let Mutation::Truncate { at } = m {
            assert_eq!(bytes.len(), at);
        } else {
            panic!("expected truncate, got {m}");
        }
    }

    #[test]
    fn garble_hits_only_the_header() {
        for seed in 0..32 {
            let mut bytes = TEXT.to_vec();
            let m = garble_header(&mut bytes, &mut ChaosRng::new(seed));
            if let Mutation::GarbleHeader { offset, .. } = m {
                assert!(offset < framing(TEXT).header);
            }
        }
    }

    #[test]
    fn empty_input_is_a_noop() {
        let mut bytes = Vec::new();
        for seed in 0..12 {
            assert_eq!(mutate(&mut bytes, &mut ChaosRng::new(seed)), Mutation::Noop);
        }
    }

    #[test]
    fn binary_framing_reads_length_prefixes() {
        // magic + version 2 + 2-byte header + two length-prefixed records.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"VPPB");
        bytes.extend_from_slice(&2u16.to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(b"{}");
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(b"abc");
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(b"z");
        let f = framing(&bytes);
        assert_eq!(f.header, 12);
        assert_eq!(f.frames.len(), 2);
        assert_eq!(&bytes[f.frames[0].clone()][4..], b"abc");
        assert_eq!(&bytes[f.frames[1].clone()][4..], b"z");
    }
}
