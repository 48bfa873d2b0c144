//! Compact binary log encoding.
//!
//! §4 of the paper worries that "the size of the log files could become a
//! problem for very long executions of fine grained programs" (they tested
//! up to 15 MB). The text format spends ~45 bytes per record on the
//! timestamp and key=value syntax alone; this fixed-layout binary format
//! stores a record in 15–40 bytes with delta-encoded timestamps, cutting
//! logs to roughly a third.
//!
//! Layout (little-endian throughout):
//!
//! ```text
//! magic "VPPB" | version u16 | header (JSON, u32-length-prefixed)
//! v2 record*: len u32 | body
//! body:       tag u8 | phase u8 | dt-micros varint | thread varint
//!             | payload (per tag) | result u8 [payload] | caller varint
//! ```
//!
//! Varints are LEB128. The JSON header keeps the uncommon, schema-rich
//! part (source map, thread names) simple while records stay tight.
//!
//! Version 2 adds the `u32` record length prefix. It costs four bytes per
//! record but buys *resynchronization*: a lenient decoder can skip an
//! unknown or damaged record and keep reading, and the chaos mutators can
//! frame their record-level damage. Version 1 streams (no prefix) remain
//! fully readable; logs with a version field beyond 2 are rejected with a
//! dedicated diagnostic rather than misparsed.
//!
//! Decoding comes in two modes, mirroring `textlog`: [`decode`] fails
//! fast on the first malformation with a byte-positioned
//! [`Diagnostic`], while [`decode_lenient`] recovers what it can —
//! unknown tags are skipped via the length prefix, a truncated final
//! record is dropped — and reports every repair as a warning.
//!
//! Both directions are linear and copy-free. Decoding borrows the input:
//! the header, each record frame and the incremental [`next_frame`] path
//! all read the caller's bytes in place through a slice cursor. Encoding
//! writes every record straight into one buffer sized up front, filling
//! in each v2 length prefix once its body is written, and returns that
//! buffer trimmed to its length.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::diag::{DiagCode, Diagnostic, Pos};
use crate::event::{EventKind, EventResult, Phase};
use crate::ids::{SyncObjId, ThreadId};
use crate::source::CodeAddr;
use crate::time::{Duration, Time, NANOS_PER_MICRO};
use crate::trace::{LogHeader, TraceLog, TraceRecord};
use crate::VppbError;
use bytes::{Buf, BufMut};

const MAGIC: &[u8; 4] = b"VPPB";
/// Current write version (length-prefixed records).
pub const VERSION: u16 = 2;
/// Oldest version [`decode`] still reads.
pub const MIN_VERSION: u16 = 1;
/// Upper bound on a sane record body; lengths beyond this are damage.
pub(crate) const MAX_RECORD_LEN: u32 = 1 << 20;

// Record tags. Keep stable: this is an on-disk format.
const T_START_COLLECT: u8 = 0;
const T_END_COLLECT: u8 = 1;
const T_THREAD_START: u8 = 2;
const T_CREATE: u8 = 3;
const T_JOIN: u8 = 4;
const T_EXIT: u8 = 5;
const T_YIELD: u8 = 6;
const T_SETPRIO: u8 = 7;
const T_SETCONC: u8 = 8;
const T_SUSPEND: u8 = 9;
const T_CONTINUE: u8 = 10;
const T_MUTEX_LOCK: u8 = 11;
const T_MUTEX_TRYLOCK: u8 = 12;
const T_MUTEX_UNLOCK: u8 = 13;
const T_SEM_WAIT: u8 = 14;
const T_SEM_TRYWAIT: u8 = 15;
const T_SEM_POST: u8 = 16;
const T_COND_WAIT: u8 = 17;
const T_COND_TIMEDWAIT: u8 = 18;
const T_COND_SIGNAL: u8 = 19;
const T_COND_BROADCAST: u8 = 20;
const T_RW_RDLOCK: u8 = 21;
const T_RW_WRLOCK: u8 = 22;
const T_RW_TRYRDLOCK: u8 = 23;
const T_RW_TRYWRLOCK: u8 = 24;
const T_RW_UNLOCK: u8 = 25;
const T_IO_WAIT: u8 = 26;
const T_BARRIER_WAIT: u8 = 27;
const T_ONCE_CALL: u8 = 28;

// Result tags.
const R_NONE: u8 = 0;
const R_CREATED: u8 = 1;
const R_JOINED: u8 = 2;
const R_ACQUIRED_FALSE: u8 = 3;
const R_ACQUIRED_TRUE: u8 = 4;
const R_TIMEDOUT_FALSE: u8 = 5;
const R_TIMEDOUT_TRUE: u8 = 6;

/// A decode failure before it has been given a byte position.
type Fail = (DiagCode, String);

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(b);
            return;
        }
        buf.put_u8(b | 0x80);
    }
}

fn get_varint(buf: &mut &[u8]) -> Result<u64, Fail> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err((DiagCode::TruncatedRecord, "truncated varint".into()));
        }
        let b = buf.get_u8();
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err((DiagCode::VarintOverflow, "varint exceeds 64 bits".into()));
        }
    }
}

/// Encode a log to the current binary format (version 2).
pub fn encode(log: &TraceLog) -> Result<Vec<u8>, VppbError> {
    encode_version(log, VERSION)
}

/// Encode a log as a specific format version; version 1 is kept writable
/// so the cross-version tests (and old tooling) have real inputs.
pub fn encode_version(log: &TraceLog, version: u16) -> Result<Vec<u8>, VppbError> {
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(VppbError::InvalidConfig(format!("cannot encode binlog version {version}")));
    }
    let header = serde_json::to_vec(&log.header)
        .map_err(|e| VppbError::Io(format!("header encode: {e}")))?;
    // Recorded logs average 12–14 bytes per framed record (4 fewer
    // unframed); a log that outgrows the estimate grows the buffer as
    // usual, and the trim below returns it exactly sized either way.
    let per_record = if version >= 2 { 16 } else { 12 };
    let mut buf = Vec::with_capacity(10 + header.len() + log.records.len() * per_record);
    buf.put_slice(MAGIC);
    buf.put_u16_le(version);
    buf.put_u32_le(header.len() as u32);
    buf.put_slice(&header);

    let mut prev_us = 0u64;
    for r in &log.records {
        if version >= 2 {
            // Reserve the length prefix and fill it in once the body is
            // written.
            let at = buf.len();
            buf.put_u32_le(0);
            write_record_body(&mut buf, r, &mut prev_us)?;
            let len = (buf.len() - at - 4) as u32;
            buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
        } else {
            write_record_body(&mut buf, r, &mut prev_us)?;
        }
    }
    buf.shrink_to_fit();
    Ok(buf)
}

fn write_record_body(
    buf: &mut Vec<u8>,
    r: &TraceRecord,
    prev_us: &mut u64,
) -> Result<(), VppbError> {
    let (tag, payload) = tag_of(&r.kind)?;
    buf.put_u8(tag);
    buf.put_u8(match r.phase {
        Phase::Before => 0,
        Phase::After => 1,
        Phase::Mark => 2,
    });
    let us = r.time.as_micros();
    put_varint(buf, us - *prev_us);
    *prev_us = us;
    put_varint(buf, r.thread.0 as u64);
    match payload {
        Payload::None => {}
        Payload::Obj(i) => put_varint(buf, i as u64),
        Payload::Addr(a) => put_varint(buf, a.0),
        Payload::CreateLike { bound, func } => {
            buf.put_u8(bound as u8);
            put_varint(buf, func.0);
        }
        Payload::JoinTarget(t) => match t {
            None => put_varint(buf, 0),
            Some(t) => put_varint(buf, t.0 as u64 + 1),
        },
        Payload::Thread(t) => put_varint(buf, t.0 as u64),
        Payload::ThreadPrio(t, p) => {
            put_varint(buf, t.0 as u64);
            put_varint(buf, p as u64); // priorities are >= 0 here
        }
        Payload::Count(n) => put_varint(buf, n as u64),
        Payload::CondMutex(cv, m) => {
            put_varint(buf, cv as u64);
            put_varint(buf, m as u64);
        }
        Payload::Dur(d) => put_varint(buf, d.nanos()),
        Payload::CondMutexTimeout(cv, m, d) => {
            put_varint(buf, cv as u64);
            put_varint(buf, m as u64);
            put_varint(buf, d.nanos());
        }
        Payload::ObjCount(i, n) => {
            put_varint(buf, i as u64);
            put_varint(buf, n as u64);
        }
        Payload::ObjDur(i, d) => {
            put_varint(buf, i as u64);
            put_varint(buf, d.nanos());
        }
    }
    match r.result {
        EventResult::None => buf.put_u8(R_NONE),
        EventResult::Created(t) => {
            buf.put_u8(R_CREATED);
            put_varint(buf, t.0 as u64);
        }
        EventResult::Joined(t) => {
            buf.put_u8(R_JOINED);
            put_varint(buf, t.0 as u64);
        }
        EventResult::Acquired(b) => buf.put_u8(if b { R_ACQUIRED_TRUE } else { R_ACQUIRED_FALSE }),
        EventResult::TimedOut(b) => buf.put_u8(if b { R_TIMEDOUT_TRUE } else { R_TIMEDOUT_FALSE }),
    }
    put_varint(buf, r.caller.0);
    Ok(())
}

enum Payload {
    None,
    Obj(u32),
    Addr(CodeAddr),
    CreateLike { bound: bool, func: CodeAddr },
    JoinTarget(Option<ThreadId>),
    Thread(ThreadId),
    ThreadPrio(ThreadId, i32),
    Count(u32),
    CondMutex(u32, u32),
    CondMutexTimeout(u32, u32, Duration),
    Dur(Duration),
    ObjCount(u32, u32),
    ObjDur(u32, Duration),
}

fn tag_of(kind: &EventKind) -> Result<(u8, Payload), VppbError> {
    use EventKind::*;
    Ok(match *kind {
        StartCollect => (T_START_COLLECT, Payload::None),
        EndCollect => (T_END_COLLECT, Payload::None),
        ThreadStart { func } => (T_THREAD_START, Payload::Addr(func)),
        ThrCreate { bound, func } => (T_CREATE, Payload::CreateLike { bound, func }),
        ThrJoin { target } => (T_JOIN, Payload::JoinTarget(target)),
        ThrExit => (T_EXIT, Payload::None),
        ThrYield => (T_YIELD, Payload::None),
        ThrSetPrio { target, prio } => {
            if prio < 0 {
                return Err(VppbError::MalformedLog("negative priority".into()));
            }
            (T_SETPRIO, Payload::ThreadPrio(target, prio))
        }
        ThrSetConcurrency { n } => (T_SETCONC, Payload::Count(n)),
        ThrSuspend { target } => (T_SUSPEND, Payload::Thread(target)),
        ThrContinue { target } => (T_CONTINUE, Payload::Thread(target)),
        IoWait { latency } => (T_IO_WAIT, Payload::Dur(latency)),
        MutexLock { obj } => (T_MUTEX_LOCK, Payload::Obj(obj.index)),
        MutexTryLock { obj } => (T_MUTEX_TRYLOCK, Payload::Obj(obj.index)),
        MutexUnlock { obj } => (T_MUTEX_UNLOCK, Payload::Obj(obj.index)),
        SemWait { obj } => (T_SEM_WAIT, Payload::Obj(obj.index)),
        SemTryWait { obj } => (T_SEM_TRYWAIT, Payload::Obj(obj.index)),
        SemPost { obj } => (T_SEM_POST, Payload::Obj(obj.index)),
        CondWait { cond, mutex } => (T_COND_WAIT, Payload::CondMutex(cond.index, mutex.index)),
        CondTimedWait { cond, mutex, timeout } => {
            (T_COND_TIMEDWAIT, Payload::CondMutexTimeout(cond.index, mutex.index, timeout))
        }
        CondSignal { cond } => (T_COND_SIGNAL, Payload::Obj(cond.index)),
        CondBroadcast { cond } => (T_COND_BROADCAST, Payload::Obj(cond.index)),
        RwRdLock { obj } => (T_RW_RDLOCK, Payload::Obj(obj.index)),
        RwWrLock { obj } => (T_RW_WRLOCK, Payload::Obj(obj.index)),
        RwTryRdLock { obj } => (T_RW_TRYRDLOCK, Payload::Obj(obj.index)),
        RwTryWrLock { obj } => (T_RW_TRYWRLOCK, Payload::Obj(obj.index)),
        RwUnlock { obj } => (T_RW_UNLOCK, Payload::Obj(obj.index)),
        BarrierWait { obj, parties } => (T_BARRIER_WAIT, Payload::ObjCount(obj.index, parties)),
        OnceCall { obj, init } => (T_ONCE_CALL, Payload::ObjDur(obj.index, init)),
    })
}

/// Decode a binary log, failing fast on the first malformation with a
/// byte-positioned diagnostic ([`VppbError::Diag`]).
pub fn decode(data: &[u8]) -> Result<TraceLog, VppbError> {
    let (log, diags) = decode_modes(data, false)?;
    debug_assert!(diags.is_empty(), "strict decode reported diagnostics");
    Ok(log)
}

/// Decode a binary log leniently: skip unknown tags (version 2 length
/// prefixes allow resynchronization), drop a truncated final record, and
/// report every recovery as a warning [`Diagnostic`].
///
/// Still fails when the file cannot be interpreted as a binary log at all
/// (bad magic, unsupported version, destroyed header framing).
pub fn decode_lenient(data: &[u8]) -> Result<(TraceLog, Vec<Diagnostic>), VppbError> {
    decode_modes(data, true)
}

fn decode_modes(data: &[u8], lenient: bool) -> Result<(TraceLog, Vec<Diagnostic>), VppbError> {
    let mut buf = data;
    let total = data.len();
    let pos = |buf: &[u8]| Pos::Byte((total - buf.remaining()) as u64);
    if buf.remaining() < 10 {
        return Err(Diagnostic::error(
            DiagCode::TruncatedHeader,
            Pos::Byte(total as u64),
            format!("file is {total} bytes; a binary log header needs at least 10"),
        )
        .into());
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(Diagnostic::error(
            DiagCode::BadMagic,
            Pos::Byte(0),
            format!("expected magic \"VPPB\", found {magic:02x?}"),
        )
        .into());
    }
    let version = buf.get_u16_le();
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(Diagnostic::error(
            DiagCode::UnsupportedVersion,
            Pos::Byte(4),
            format!(
                "log claims format version {version}; this build reads {MIN_VERSION}..={VERSION}"
            ),
        )
        .into());
    }
    let hlen = buf.get_u32_le() as usize;
    if buf.remaining() < hlen {
        return Err(Diagnostic::error(
            DiagCode::TruncatedHeader,
            Pos::Byte(10),
            format!("header claims {hlen} bytes but only {} remain", buf.remaining()),
        )
        .into());
    }
    let mut diags = Vec::new();
    let (header_bytes, rest) = buf.split_at(hlen);
    buf = rest;
    let header: LogHeader = match serde_json::from_slice(header_bytes) {
        Ok(h) => h,
        Err(e) => {
            let d = Diagnostic::error(
                DiagCode::BadHeaderJson,
                Pos::Byte(10),
                format!("header JSON does not parse: {e}"),
            );
            if !lenient {
                return Err(d.into());
            }
            // The header only carries metadata (names, source map, wall
            // time); records are still worth salvaging under a default.
            diags.push(Diagnostic::warning(
                DiagCode::BadHeaderJson,
                Pos::Byte(10),
                format!("header JSON does not parse ({e}); substituted an empty header"),
            ));
            LogHeader::default()
        }
    };

    let mut records = Vec::new();
    let mut prev_us = 0u64;
    let mut seq = 0u64;
    if version >= 2 {
        // Length-prefixed records: damage is skippable.
        while buf.has_remaining() {
            let at = pos(buf);
            if buf.remaining() < 4 {
                let d = Diagnostic::error(
                    DiagCode::TruncatedRecord,
                    at,
                    format!("{} trailing bytes cannot hold a record length", buf.remaining()),
                );
                if !lenient {
                    return Err(d.into());
                }
                diags.push(Diagnostic::warning(
                    DiagCode::DroppedPartialRecord,
                    at,
                    "trailing bytes too short for a record length; dropped".to_string(),
                ));
                break;
            }
            let len = buf.get_u32_le();
            if len == 0 || len > MAX_RECORD_LEN {
                let d = Diagnostic::error(
                    DiagCode::BadRecordLength,
                    at,
                    format!("record length {len} is outside 1..={MAX_RECORD_LEN}"),
                );
                if !lenient {
                    return Err(d.into());
                }
                diags.push(Diagnostic::warning(
                    DiagCode::DroppedPartialRecord,
                    at,
                    format!("implausible record length {len}; rest of log dropped"),
                ));
                break;
            }
            if (buf.remaining() as u64) < len as u64 {
                let d = Diagnostic::error(
                    DiagCode::TruncatedRecord,
                    at,
                    format!("record claims {len} bytes but only {} remain", buf.remaining()),
                );
                if !lenient {
                    return Err(d.into());
                }
                diags.push(Diagnostic::warning(
                    DiagCode::DroppedPartialRecord,
                    at,
                    format!("final record truncated ({} of {len} bytes); dropped", buf.remaining()),
                ));
                break;
            }
            let (frame, rest) = buf.split_at(len as usize);
            buf = rest;
            let mut body = frame;
            match parse_record_body(&mut body, prev_us, seq) {
                Ok((record, new_prev)) => {
                    if body.has_remaining() {
                        // The length and the content disagree — most likely
                        // a flipped length byte. The parsed record is
                        // coherent; keep it but say so.
                        let d = Diagnostic::error(
                            DiagCode::BadRecordLength,
                            at,
                            format!("record has {} unread trailing bytes", body.remaining()),
                        );
                        if !lenient {
                            return Err(d.into());
                        }
                        diags.push(Diagnostic::warning(
                            DiagCode::BadRecordLength,
                            at,
                            format!(
                                "record length exceeds its content by {} bytes; kept",
                                body.remaining()
                            ),
                        ));
                    }
                    prev_us = new_prev;
                    records.push(record);
                    seq += 1;
                }
                Err((code, msg)) => {
                    if !lenient {
                        return Err(Diagnostic::error(code, at, msg).into());
                    }
                    // Resynchronize past the bad record. Keep the time
                    // chain if its prefix (tag, phase, dt) is readable so
                    // later absolute times stay right.
                    if let Some(us) = record_dt(frame).and_then(|dt| advance(prev_us, dt)) {
                        prev_us = us;
                    }
                    let (wcode, action) = if code == DiagCode::UnknownTag {
                        (DiagCode::SkippedUnknownTag, "skipped")
                    } else {
                        (DiagCode::DroppedPartialRecord, "dropped")
                    };
                    diags.push(Diagnostic::warning(wcode, at, format!("{msg}; record {action}")));
                }
            }
        }
    } else {
        // Version 1: an unframed stream. Damage ends the readable part.
        while buf.has_remaining() {
            let at = pos(buf);
            match parse_record_body(&mut buf, prev_us, seq) {
                Ok((record, new_prev)) => {
                    prev_us = new_prev;
                    records.push(record);
                    seq += 1;
                }
                Err((code, msg)) => {
                    if !lenient {
                        return Err(Diagnostic::error(code, at, msg).into());
                    }
                    diags.push(Diagnostic::warning(
                        DiagCode::DroppedPartialRecord,
                        at,
                        format!("{msg}; rest of unframed v1 log dropped"),
                    ));
                    break;
                }
            }
        }
    }
    Ok((TraceLog { header, records }, diags))
}

/// Outcome of probing a buffer for the fixed preamble (magic, version,
/// JSON header) — the first step of *incremental* decoding, where a
/// growing buffer is decoded frame by frame as appends arrive.
#[derive(Debug)]
pub enum Preamble {
    /// A version-2 log with a parseable header; records start at
    /// `body_start`. Only v2 qualifies: its length-prefixed frames are
    /// what make incremental decoding possible.
    Ready {
        /// The decoded JSON header.
        header: Box<LogHeader>,
        /// Byte offset of the first record frame.
        body_start: usize,
    },
    /// The buffer ends inside the preamble; a later append may complete
    /// it. Nothing is committed.
    NeedMore,
    /// Not an incrementally decodable stream (not a binary log, version
    /// other than 2, or a damaged header) — the caller must use the full
    /// [`decode_lenient`] path, which also reproduces the exact error or
    /// recovery a cold read of these bytes gets.
    Fallback,
}

/// Probe `data` for an incrementally decodable v2 preamble.
pub fn probe_preamble(data: &[u8]) -> Preamble {
    if data.len() < 4 {
        return if MAGIC.starts_with(&data[..data.len()]) {
            Preamble::NeedMore
        } else {
            Preamble::Fallback
        };
    }
    if &data[..4] != MAGIC {
        return Preamble::Fallback;
    }
    if data.len() < 10 {
        return Preamble::NeedMore;
    }
    if u16::from_le_bytes([data[4], data[5]]) != 2 {
        return Preamble::Fallback;
    }
    let hlen = u32::from_le_bytes([data[6], data[7], data[8], data[9]]) as usize;
    let Some(header_bytes) = data.get(10..10 + hlen) else {
        return Preamble::NeedMore;
    };
    match serde_json::from_slice::<LogHeader>(header_bytes) {
        Ok(header) => Preamble::Ready { header: Box::new(header), body_start: 10 + hlen },
        Err(_) => Preamble::Fallback,
    }
}

/// One step of incremental v2 frame decoding at offset `at`.
#[derive(Debug)]
pub enum FrameStep {
    /// A complete, clean frame. `end` is the offset after it; `prev_us`
    /// is the updated time-delta accumulator to thread into the next
    /// step. Commits are final: a cold [`decode_lenient`] of any longer
    /// buffer decodes this frame identically.
    Record {
        /// The decoded record, with `seq` already assigned.
        rec: Box<TraceRecord>,
        /// Offset of the next frame.
        end: usize,
        /// Updated delta-time accumulator.
        prev_us: u64,
    },
    /// The buffer ends mid-frame. The diagnostic is exactly what a cold
    /// lenient decode of this buffer reports for the torn tail (`None`
    /// when `at` is the buffer end — a clean boundary). A later append
    /// can complete the frame, so nothing about the tail is committed.
    Tail(Option<Diagnostic>),
    /// The frame is damaged (unknown tag, implausible length, trailing
    /// bytes). Incremental decoding cannot reproduce the lenient
    /// decoder's recovery choices cheaply — the caller must fall back to
    /// [`decode_lenient`] over the full buffer, now and on every later
    /// append.
    Damage,
}

/// Decode the frame at byte offset `at`, if completely present.
pub fn next_frame(data: &[u8], at: usize, prev_us: u64, seq: u64) -> FrameStep {
    let remaining = data.len() - at;
    if remaining == 0 {
        return FrameStep::Tail(None);
    }
    if remaining < 4 {
        return FrameStep::Tail(Some(Diagnostic::warning(
            DiagCode::DroppedPartialRecord,
            Pos::Byte(at as u64),
            "trailing bytes too short for a record length; dropped".to_string(),
        )));
    }
    let len = u32::from_le_bytes([data[at], data[at + 1], data[at + 2], data[at + 3]]);
    if len == 0 || len > MAX_RECORD_LEN {
        return FrameStep::Damage;
    }
    let body_start = at + 4;
    if data.len() - body_start < len as usize {
        return FrameStep::Tail(Some(Diagnostic::warning(
            DiagCode::DroppedPartialRecord,
            Pos::Byte(at as u64),
            format!("final record truncated ({} of {len} bytes); dropped", data.len() - body_start),
        )));
    }
    let end = body_start + len as usize;
    let mut body = &data[body_start..end];
    match parse_record_body(&mut body, prev_us, seq) {
        Ok((rec, new_prev)) if !body.has_remaining() => {
            FrameStep::Record { rec: Box::new(rec), end, prev_us: new_prev }
        }
        _ => FrameStep::Damage,
    }
}

/// Best-effort read of a record body's time delta (micros), used to keep
/// the delta chain intact across a skipped record.
fn record_dt(body: &[u8]) -> Option<u64> {
    get_varint(&mut body.get(2..)?).ok()
}

/// The time, in micros, of a record `dt` after `prev_us`, or `None` when
/// it is past what a [`Time`] holds.
fn advance(prev_us: u64, dt: u64) -> Option<u64> {
    prev_us.checked_add(dt).filter(|us| us.checked_mul(NANOS_PER_MICRO).is_some())
}

/// Parse one record body. On success returns the record and the updated
/// time-delta accumulator; `prev_us` is only committed by the caller so a
/// failed parse has no side effects.
fn parse_record_body(buf: &mut &[u8], prev_us: u64, seq: u64) -> Result<(TraceRecord, u64), Fail> {
    if buf.remaining() < 2 {
        return Err((
            DiagCode::TruncatedRecord,
            format!("record needs at least 2 bytes, found {}", buf.remaining()),
        ));
    }
    let tag = buf.get_u8();
    let phase = match buf.get_u8() {
        0 => Phase::Before,
        1 => Phase::After,
        2 => Phase::Mark,
        p => return Err((DiagCode::BadPhaseByte, format!("phase byte {p} is not B/A/M (0/1/2)"))),
    };
    let dt = get_varint(buf)?;
    let us = advance(prev_us, dt).ok_or_else(|| {
        (
            DiagCode::VarintOverflow,
            format!("time delta {dt} us after {prev_us} us overflows the clock"),
        )
    })?;
    let thread = ThreadId(get_varint(buf)? as u32);
    let obj = |buf: &mut &[u8], mk: fn(u32) -> SyncObjId| -> Result<SyncObjId, Fail> {
        Ok(mk(get_varint(buf)? as u32))
    };
    let kind = match tag {
        T_START_COLLECT => EventKind::StartCollect,
        T_END_COLLECT => EventKind::EndCollect,
        T_THREAD_START => EventKind::ThreadStart { func: CodeAddr(get_varint(buf)?) },
        T_CREATE => {
            if !buf.has_remaining() {
                return Err((DiagCode::TruncatedRecord, "truncated thr_create payload".into()));
            }
            let bound = buf.get_u8() != 0;
            EventKind::ThrCreate { bound, func: CodeAddr(get_varint(buf)?) }
        }
        T_JOIN => {
            let t = get_varint(buf)?;
            EventKind::ThrJoin {
                target: if t == 0 { None } else { Some(ThreadId((t - 1) as u32)) },
            }
        }
        T_EXIT => EventKind::ThrExit,
        T_YIELD => EventKind::ThrYield,
        T_SETPRIO => EventKind::ThrSetPrio {
            target: ThreadId(get_varint(buf)? as u32),
            prio: get_varint(buf)? as i32,
        },
        T_SETCONC => EventKind::ThrSetConcurrency { n: get_varint(buf)? as u32 },
        T_SUSPEND => EventKind::ThrSuspend { target: ThreadId(get_varint(buf)? as u32) },
        T_CONTINUE => EventKind::ThrContinue { target: ThreadId(get_varint(buf)? as u32) },
        T_MUTEX_LOCK => EventKind::MutexLock { obj: obj(buf, SyncObjId::mutex)? },
        T_MUTEX_TRYLOCK => EventKind::MutexTryLock { obj: obj(buf, SyncObjId::mutex)? },
        T_MUTEX_UNLOCK => EventKind::MutexUnlock { obj: obj(buf, SyncObjId::mutex)? },
        T_SEM_WAIT => EventKind::SemWait { obj: obj(buf, SyncObjId::semaphore)? },
        T_SEM_TRYWAIT => EventKind::SemTryWait { obj: obj(buf, SyncObjId::semaphore)? },
        T_SEM_POST => EventKind::SemPost { obj: obj(buf, SyncObjId::semaphore)? },
        T_COND_WAIT => EventKind::CondWait {
            cond: SyncObjId::condvar(get_varint(buf)? as u32),
            mutex: SyncObjId::mutex(get_varint(buf)? as u32),
        },
        T_COND_TIMEDWAIT => EventKind::CondTimedWait {
            cond: SyncObjId::condvar(get_varint(buf)? as u32),
            mutex: SyncObjId::mutex(get_varint(buf)? as u32),
            timeout: Duration(get_varint(buf)?),
        },
        T_COND_SIGNAL => EventKind::CondSignal { cond: obj(buf, SyncObjId::condvar)? },
        T_COND_BROADCAST => EventKind::CondBroadcast { cond: obj(buf, SyncObjId::condvar)? },
        T_RW_RDLOCK => EventKind::RwRdLock { obj: obj(buf, SyncObjId::rwlock)? },
        T_RW_WRLOCK => EventKind::RwWrLock { obj: obj(buf, SyncObjId::rwlock)? },
        T_RW_TRYRDLOCK => EventKind::RwTryRdLock { obj: obj(buf, SyncObjId::rwlock)? },
        T_RW_TRYWRLOCK => EventKind::RwTryWrLock { obj: obj(buf, SyncObjId::rwlock)? },
        T_RW_UNLOCK => EventKind::RwUnlock { obj: obj(buf, SyncObjId::rwlock)? },
        T_IO_WAIT => EventKind::IoWait { latency: Duration(get_varint(buf)?) },
        T_BARRIER_WAIT => EventKind::BarrierWait {
            obj: SyncObjId::barrier(get_varint(buf)? as u32),
            parties: get_varint(buf)? as u32,
        },
        T_ONCE_CALL => EventKind::OnceCall {
            obj: SyncObjId::once(get_varint(buf)? as u32),
            init: Duration(get_varint(buf)?),
        },
        t => return Err((DiagCode::UnknownTag, format!("unknown record tag {t}"))),
    };
    if !buf.has_remaining() {
        return Err((DiagCode::TruncatedRecord, "record ends before its result tag".into()));
    }
    let result = match buf.get_u8() {
        R_NONE => EventResult::None,
        R_CREATED => EventResult::Created(ThreadId(get_varint(buf)? as u32)),
        R_JOINED => EventResult::Joined(ThreadId(get_varint(buf)? as u32)),
        R_ACQUIRED_FALSE => EventResult::Acquired(false),
        R_ACQUIRED_TRUE => EventResult::Acquired(true),
        R_TIMEDOUT_FALSE => EventResult::TimedOut(false),
        R_TIMEDOUT_TRUE => EventResult::TimedOut(true),
        r => return Err((DiagCode::UnknownResultTag, format!("unknown result tag {r}"))),
    };
    let caller = CodeAddr(get_varint(buf)?);
    Ok((TraceRecord { seq, time: Time::from_micros(us), thread, phase, kind, result, caller }, us))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::textlog;

    fn sample_log() -> TraceLog {
        // Reuse the text-log test fixture by parsing a small log.
        let text = "\
# vppb-log v1
# program bin-test
# walltime 0.100000
# probecost 2000
0.000000 T1 M start_collect @0x0
0.000010 T1 B thr_create bound=1 func=0x1000 @0x1010
0.000020 T1 A thr_create bound=1 func=0x1000 created=T4 @0x1010
0.000030 T4 B mutex_trylock obj=mtx3 @0x1020
0.000031 T4 A mutex_trylock obj=mtx3 acquired=0 @0x1020
0.000040 T4 B cond_timedwait cond=cv1 mutex=mtx3 timeout=5000000 @0x1024
0.000050 T4 A cond_timedwait cond=cv1 mutex=mtx3 timeout=5000000 timedout=1 @0x1024
0.000060 T1 B thr_join target=* @0x1030
0.000070 T1 A thr_join target=* joined=T4 @0x1030
0.100000 T1 M end_collect @0x0
";
        textlog::parse_log(text).unwrap()
    }

    #[test]
    fn binary_round_trip_is_lossless() {
        let log = sample_log();
        let bin = encode(&log).unwrap();
        let back = decode(&bin).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn version_1_streams_remain_readable() {
        let log = sample_log();
        let v1 = encode_version(&log, 1).unwrap();
        let v2 = encode_version(&log, 2).unwrap();
        assert_eq!(decode(&v1).unwrap(), log);
        assert_eq!(v2.len(), v1.len() + 4 * log.records.len(), "prefix costs 4 bytes/record");
    }

    #[test]
    fn binary_is_much_smaller_than_text() {
        let log = sample_log();
        let bin = encode(&log).unwrap();
        let text = textlog::write_log(&log);
        // Header dominates tiny logs; compare record bytes only.
        let bin_records = bin.len() - 10 - serde_json::to_vec(&log.header).unwrap().len();
        let text_records: usize =
            text.lines().filter(|l| !l.starts_with('#')).map(|l| l.len() + 1).sum();
        assert!(bin_records * 2 < text_records, "binary {bin_records}B vs text {text_records}B");
    }

    #[test]
    fn rejects_corruption_with_positioned_diagnostics() {
        let log = sample_log();
        let mut bin = encode(&log).unwrap();
        match decode(&bin[..5]) {
            Err(VppbError::Diag(d)) => assert_eq!(d.code, DiagCode::TruncatedHeader),
            other => panic!("expected truncation diagnostic, got {other:?}"),
        }
        bin[0] = b'X';
        match decode(&bin) {
            Err(VppbError::Diag(d)) => {
                assert_eq!(d.code, DiagCode::BadMagic);
                assert_eq!(d.pos, Pos::Byte(0));
            }
            other => panic!("expected bad-magic diagnostic, got {other:?}"),
        }
    }

    #[test]
    fn rejects_future_versions_with_dedicated_code() {
        let log = sample_log();
        let mut bin = encode(&log).unwrap();
        bin[4] = 0xff;
        match decode(&bin) {
            Err(VppbError::Diag(d)) => {
                assert_eq!(d.code, DiagCode::UnsupportedVersion);
                assert!(d.render().contains("E0202"), "{}", d.render());
            }
            other => panic!("expected version diagnostic, got {other:?}"),
        }
        // Lenient mode must not paper over a version it cannot read.
        assert!(decode_lenient(&bin).is_err());
    }

    #[test]
    fn lenient_drops_truncated_final_record() {
        let log = sample_log();
        let bin = encode(&log).unwrap();
        let cut = &bin[..bin.len() - 3];
        assert!(decode(cut).is_err(), "strict mode refuses");
        let (salvaged, diags) = decode_lenient(cut).unwrap();
        assert_eq!(salvaged.records.len(), log.records.len() - 1);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::DroppedPartialRecord);
        assert_eq!(salvaged.records[..], log.records[..log.records.len() - 1]);
    }

    #[test]
    fn lenient_skips_unknown_tags_and_keeps_the_time_chain() {
        let log = sample_log();
        let mut bin = encode(&log).unwrap();
        // Locate the second record's tag byte (header + first record) and
        // give it a tag from the future.
        let hlen = u32::from_le_bytes([bin[6], bin[7], bin[8], bin[9]]) as usize;
        let first_len =
            u32::from_le_bytes([bin[10 + hlen], bin[11 + hlen], bin[12 + hlen], bin[13 + hlen]])
                as usize;
        let second_tag = 10 + hlen + 4 + first_len + 4;
        bin[second_tag] = 200;
        match decode(&bin) {
            Err(VppbError::Diag(d)) => assert_eq!(d.code, DiagCode::UnknownTag),
            other => panic!("expected unknown-tag diagnostic, got {other:?}"),
        }
        let (salvaged, diags) = decode_lenient(&bin).unwrap();
        assert_eq!(salvaged.records.len(), log.records.len() - 1);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::SkippedUnknownTag);
        // Absolute times after the skipped record are unchanged.
        assert_eq!(salvaged.records.last().unwrap().time, log.records.last().unwrap().time);
    }

    /// `bin` with a v2 frame holding an `end_collect` mark `dt` micros
    /// after its predecessor spliced in before the last record, and the
    /// frame's offset.
    fn with_time_jump(bin: &[u8], dt: u64) -> (Vec<u8>, usize) {
        let mut at = 10 + u32::from_le_bytes([bin[6], bin[7], bin[8], bin[9]]) as usize;
        let mut last = at;
        while at < bin.len() {
            last = at;
            at += 4 + u32::from_le_bytes([bin[at], bin[at + 1], bin[at + 2], bin[at + 3]]) as usize;
        }
        let mut body = vec![T_END_COLLECT, 2];
        put_varint(&mut body, dt);
        put_varint(&mut body, 1); // thread
        body.push(R_NONE);
        put_varint(&mut body, 0); // caller
        let mut out = bin[..last].to_vec();
        out.put_u32_le(body.len() as u32);
        out.extend_from_slice(&body);
        out.extend_from_slice(&bin[last..]);
        (out, last)
    }

    #[test]
    fn a_time_past_the_clock_is_a_positioned_varint_overflow() {
        let log = sample_log();
        let bin = encode(&log).unwrap();
        // 2^62 us fits a u64 but not as nanoseconds; u64::MAX overflows
        // the sum itself.
        for dt in [1 << 62, u64::MAX] {
            let (bad, at) = with_time_jump(&bin, dt);
            match decode(&bad) {
                Err(VppbError::Diag(d)) => {
                    assert_eq!((d.code, d.pos), (DiagCode::VarintOverflow, Pos::Byte(at as u64)));
                    assert!(d.message.contains("overflows the clock"), "{}", d.message);
                }
                other => panic!("dt {dt}: expected a varint overflow, got {other:?}"),
            }
            assert!(matches!(next_frame(&bad, at, 70, 9), FrameStep::Damage));
        }
    }

    #[test]
    fn lenient_decode_drops_a_record_whose_time_overflows() {
        let log = sample_log();
        let bin = encode(&log).unwrap();
        for dt in [1 << 62, u64::MAX] {
            let (bad, at) = with_time_jump(&bin, dt);
            let (salvaged, diags) = decode_lenient(&bad).unwrap();
            // Every other record survives with its time: the chain skips
            // the dropped one.
            assert_eq!(salvaged.records, log.records);
            assert_eq!(diags.len(), 1);
            assert_eq!(
                (diags[0].code, diags[0].pos),
                (DiagCode::DroppedPartialRecord, Pos::Byte(at as u64))
            );
            assert!(diags[0].message.ends_with("record dropped"), "{}", diags[0].message);
        }
    }

    #[test]
    fn lenient_substitutes_default_header_when_json_is_garbled() {
        let log = sample_log();
        let mut bin = encode(&log).unwrap();
        bin[12] = b'!'; // inside the header JSON
        assert!(decode(&bin).is_err());
        let (salvaged, diags) = decode_lenient(&bin).unwrap();
        assert_eq!(salvaged.records, log.records);
        assert!(diags.iter().any(|d| d.code == DiagCode::BadHeaderJson));
    }

    #[test]
    fn incremental_walk_matches_lenient_decode_at_every_prefix() {
        let log = sample_log();
        let bin = encode(&log).unwrap();
        for cut in 0..=bin.len() {
            let data = &bin[..cut];
            let (header, body_start) = match probe_preamble(data) {
                Preamble::Ready { header, body_start } => (header, body_start),
                Preamble::NeedMore => {
                    assert!(decode_lenient(data).is_err(), "cut {cut}: cold must also fail");
                    continue;
                }
                Preamble::Fallback => panic!("cut {cut}: pristine v2 log must not fall back"),
            };
            let mut at = body_start;
            let mut prev_us = 0;
            let mut records = Vec::new();
            let tail = loop {
                match next_frame(data, at, prev_us, records.len() as u64) {
                    FrameStep::Record { rec, end, prev_us: p } => {
                        records.push(*rec);
                        at = end;
                        prev_us = p;
                    }
                    FrameStep::Tail(d) => break d,
                    FrameStep::Damage => panic!("cut {cut}: pristine frames must not be damage"),
                }
            };
            let (cold, diags) = decode_lenient(data).unwrap();
            assert_eq!(cold.header, *header, "cut {cut}");
            assert_eq!(cold.records, records, "cut {cut}");
            let tail_diags: Vec<Diagnostic> = tail.into_iter().collect();
            assert_eq!(diags, tail_diags, "cut {cut}");
        }
    }

    #[test]
    fn incremental_walk_reports_damage_for_bad_frames() {
        let log = sample_log();
        let mut bin = encode(&log).unwrap();
        assert!(matches!(probe_preamble(&encode_version(&log, 1).unwrap()), Preamble::Fallback));
        assert!(matches!(probe_preamble(b"# vppb-log v1\n"), Preamble::Fallback));
        // Corrupt the first record's tag: the frame is complete but bad.
        let hlen = u32::from_le_bytes([bin[6], bin[7], bin[8], bin[9]]) as usize;
        bin[10 + hlen + 4] = 200;
        assert!(matches!(next_frame(&bin, 10 + hlen, 0, 0), FrameStep::Damage));
    }

    #[test]
    fn decode_is_linear_in_the_header_size() {
        // ~16k call sites make a ~1 MB JSON header, as large as the
        // biggest recorded workload's. A decoder that re-scans the rest of
        // the input for every character needs tens of seconds on it.
        let mut log = sample_log();
        for i in 0..16_000u32 {
            log.header.source_map.intern(crate::SourceLoc::new(
                format!("src/kernel_{}/stage_{i}.c", i % 64),
                i + 1,
                format!("worker_stage_{i}_ü"),
            ));
        }
        let bin = encode(&log).unwrap();
        let hlen = u32::from_le_bytes([bin[6], bin[7], bin[8], bin[9]]);
        assert!(hlen > 1_000_000, "header is only {hlen} bytes");
        let started = std::time::Instant::now();
        let (back, diags) = decode_lenient(&bin).unwrap();
        let took = started.elapsed();
        assert_eq!(diags, []);
        assert_eq!(back, log);
        assert!(took < std::time::Duration::from_secs(5), "decode took {took:?}");
    }

    #[test]
    fn varint_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut b = Vec::new();
            put_varint(&mut b, v);
            let mut cursor = &b[..];
            assert_eq!(get_varint(&mut cursor).unwrap(), v);
            assert!(cursor.is_empty());
        }
    }
}
