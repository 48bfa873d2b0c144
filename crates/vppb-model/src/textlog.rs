//! The human-readable text log format.
//!
//! Mirrors the log excerpts in fig. 2 of the paper (`0.10 T1 thr_create
//! thr_a`, `0.53 T1 ok thr_join thr_a`, ...), extended with the fields a
//! machine reader needs. One record per line:
//!
//! ```text
//! <time> <thread> <B|A|M> <routine> [key=value ...] [result] @<caller>
//! ```
//!
//! e.g.
//!
//! ```text
//! 0.000123 T1 B thr_create bound=0 func=0x1000 @0x1010
//! 0.000131 T1 A thr_create bound=0 func=0x1000 created=T4 @0x1010
//! 0.004711 T4 B mutex_lock obj=mtx0 @0x1020
//! ```
//!
//! Timestamps have the paper's 1 µs resolution; the Recorder rounds to
//! microseconds before emitting, so writing and re-parsing a log is
//! lossless (a property test asserts this).
//!
//! Parsing is one pass over the text, and a record line allocates
//! nothing unless it fails: its `key=value` fields land in fixed per-key
//! slots (a later duplicate wins, an unknown key is ignored), and the
//! `# src` entries are collected and built into the source map once, at
//! the end.
//!
//! Tokens are separated by whitespace exactly as
//! [`str::split_whitespace`] separates them: ASCII space, tab, line feed,
//! vertical tab, form feed and carriage return, and any other Unicode
//! whitespace such as NBSP, U+2003 or U+3000.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::diag::{DiagCode, Diagnostic, Pos};
use crate::event::{EventKind, EventResult, Phase};
use crate::ids::{parse_obj_id, SyncObjId, ThreadId};
use crate::source::{CodeAddr, SourceLoc, SourceMap};
use crate::time::{parse_time, Duration};
use crate::trace::{LogHeader, TraceLog, TraceRecord};
use crate::VppbError;
use std::fmt::Write as _;

/// A parse failure before it is positioned: the code plus the specifics.
type ParseFail = (DiagCode, String);

/// Serialize a log to the text format.
pub fn write_log(log: &TraceLog) -> String {
    let mut out = String::new();
    let h = &log.header;
    out.push_str("# vppb-log v1\n");
    let _ = writeln!(out, "# program {}", h.program);
    let _ = writeln!(out, "# walltime {}", h.wall_time);
    let _ = writeln!(out, "# probecost {}", h.probe_cost.nanos());
    for (t, f) in &h.thread_start_fn {
        let _ = writeln!(out, "# thread {t} {f}");
    }
    for (addr, loc) in h.source_map.iter() {
        let _ = writeln!(out, "# src {addr} {}:{} {}", loc.file, loc.line, loc.function);
    }
    for r in &log.records {
        write_record(&mut out, r);
    }
    out
}

fn write_record(out: &mut String, r: &TraceRecord) {
    let _ = write!(out, "{} {} {} {}", r.time, r.thread, r.phase.short(), r.kind.name());
    use EventKind::*;
    match r.kind {
        StartCollect | EndCollect | ThrExit | ThrYield => {}
        ThreadStart { func } => {
            let _ = write!(out, " func={func}");
        }
        ThrCreate { bound, func } => {
            let _ = write!(out, " bound={} func={func}", bound as u8);
        }
        ThrJoin { target } => match target {
            Some(t) => {
                let _ = write!(out, " target={t}");
            }
            None => {
                let _ = write!(out, " target=*");
            }
        },
        ThrSetPrio { target, prio } => {
            let _ = write!(out, " target={target} prio={prio}");
        }
        ThrSetConcurrency { n } => {
            let _ = write!(out, " n={n}");
        }
        ThrSuspend { target } | ThrContinue { target } => {
            let _ = write!(out, " target={target}");
        }
        IoWait { latency } => {
            let _ = write!(out, " latency={}", latency.nanos());
        }
        MutexLock { obj }
        | MutexTryLock { obj }
        | MutexUnlock { obj }
        | SemWait { obj }
        | SemTryWait { obj }
        | SemPost { obj }
        | RwRdLock { obj }
        | RwWrLock { obj }
        | RwTryRdLock { obj }
        | RwTryWrLock { obj }
        | RwUnlock { obj } => {
            let _ = write!(out, " obj={obj}");
        }
        CondWait { cond, mutex } => {
            let _ = write!(out, " cond={cond} mutex={mutex}");
        }
        CondTimedWait { cond, mutex, timeout } => {
            let _ = write!(out, " cond={cond} mutex={mutex} timeout={}", timeout.nanos());
        }
        CondSignal { cond } | CondBroadcast { cond } => {
            let _ = write!(out, " cond={cond}");
        }
        BarrierWait { obj, parties } => {
            let _ = write!(out, " obj={obj} parties={parties}");
        }
        OnceCall { obj, init } => {
            let _ = write!(out, " obj={obj} init={}", init.nanos());
        }
    }
    match r.result {
        EventResult::None => {}
        EventResult::Created(t) => {
            let _ = write!(out, " created={t}");
        }
        EventResult::Joined(t) => {
            let _ = write!(out, " joined={t}");
        }
        EventResult::Acquired(b) => {
            let _ = write!(out, " acquired={}", b as u8);
        }
        EventResult::TimedOut(b) => {
            let _ = write!(out, " timedout={}", b as u8);
        }
    }
    let _ = writeln!(out, " @{}", r.caller);
}

/// Parse the text format back into a [`TraceLog`], failing fast on the
/// first defect with a positioned [`VppbError::Diag`].
pub fn parse_log(text: &str) -> Result<TraceLog, VppbError> {
    let (log, diags) = parse_modes(text, false);
    match diags.into_iter().next() {
        None => Ok(log),
        Some(d) => Err(VppbError::Diag(d)),
    }
}

/// Lenient parse: unparseable lines become positioned [`Diagnostic`]s and
/// are dropped; everything readable survives. The caller decides whether
/// the result is usable (typically by running [`crate::salvage`] and then
/// [`TraceLog::validate`]).
pub fn parse_log_lenient(text: &str) -> (TraceLog, Vec<Diagnostic>) {
    parse_modes(text, true)
}

/// Shared parse loop. In strict mode (`lenient == false`) the first defect
/// stops the parse; in lenient mode each bad line is reported and skipped.
fn parse_modes(text: &str, lenient: bool) -> (TraceLog, Vec<Diagnostic>) {
    let mut log = TraceLog::default();
    let mut diags = Vec::new();
    // `# src` entries, built into the source map once at the end.
    let mut src = Vec::new();
    let mut seq = 0u64;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let pos = Pos::Line(lineno as u32 + 1);
        let fail = if let Some(rest) = line.strip_prefix("# ") {
            parse_header_line(rest, &mut log.header, &mut src).err()
        } else {
            match parse_record_line(line) {
                Ok(mut rec) => {
                    rec.seq = seq;
                    seq += 1;
                    log.records.push(rec);
                    None
                }
                Err(f) => Some(f),
            }
        };
        if let Some((code, msg)) = fail {
            if lenient {
                diags.push(Diagnostic::warning(code, pos, format!("{msg}; line dropped")));
            } else {
                diags.push(Diagnostic::error(code, pos, msg));
                break;
            }
        }
    }
    log.header.source_map = SourceMap::from_entries(src);
    (log, diags)
}

fn parse_header_line(
    rest: &str,
    h: &mut LogHeader,
    src: &mut Vec<(CodeAddr, SourceLoc)>,
) -> Result<(), ParseFail> {
    let bad = |msg: String| (DiagCode::BadHeaderField, msg);
    let mut it = rest.splitn(2, ' ');
    let key = it.next().unwrap_or("");
    let val = it.next().unwrap_or("").trim();
    match key {
        "vppb-log" => {}
        "program" => h.program = val.to_string(),
        "walltime" => {
            h.wall_time = parse_time(val).ok_or_else(|| bad(format!("bad walltime {val:?}")))?
        }
        "probecost" => {
            h.probe_cost = Duration(val.parse().map_err(|_| bad(format!("bad probecost {val:?}")))?)
        }
        "thread" => {
            let (t, f) = val.split_once(' ').ok_or_else(|| bad("bad thread header".into()))?;
            h.thread_start_fn.insert(parse_thread(t)?, f.to_string());
        }
        "src" => {
            // `# src 0x1000 main.c:12 main`
            let mut parts = val.splitn(3, ' ');
            let addr = parse_addr(parts.next().ok_or_else(|| bad("missing src addr".into()))?)?;
            let fileline = parts.next().ok_or_else(|| bad("missing src file:line".into()))?;
            let func = parts.next().ok_or_else(|| bad("missing src function".into()))?;
            let (file, line) =
                fileline.rsplit_once(':').ok_or_else(|| bad("bad file:line".into()))?;
            let line: u32 = line.parse().map_err(|_| bad("bad line number".into()))?;
            src.push((addr, SourceLoc::new(file, line, func)));
        }
        _ => {} // unknown header lines are ignored for forward compatibility
    }
    Ok(())
}

fn parse_thread(s: &str) -> Result<ThreadId, ParseFail> {
    s.strip_prefix('T')
        .and_then(|n| n.parse().ok())
        .map(ThreadId)
        .ok_or_else(|| (DiagCode::BadThreadId, format!("bad thread id {s:?}")))
}

fn parse_addr(s: &str) -> Result<CodeAddr, ParseFail> {
    s.strip_prefix("0x")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .map(CodeAddr)
        .ok_or_else(|| (DiagCode::BadToken, format!("bad address {s:?}")))
}

/// The `key=value` fields of a record line, one slot per key a routine
/// or result reads. A later duplicate overwrites an earlier one; any
/// other key is ignored.
#[derive(Default)]
struct Fields<'a> {
    func: Option<&'a str>,
    bound: Option<&'a str>,
    target: Option<&'a str>,
    prio: Option<&'a str>,
    n: Option<&'a str>,
    latency: Option<&'a str>,
    obj: Option<&'a str>,
    cond: Option<&'a str>,
    mutex: Option<&'a str>,
    timeout: Option<&'a str>,
    parties: Option<&'a str>,
    init: Option<&'a str>,
    created: Option<&'a str>,
    joined: Option<&'a str>,
    acquired: Option<&'a str>,
    timedout: Option<&'a str>,
}

impl<'a> Fields<'a> {
    fn set(&mut self, key: &str, value: &'a str) {
        let slot = match key {
            "func" => &mut self.func,
            "bound" => &mut self.bound,
            "target" => &mut self.target,
            "prio" => &mut self.prio,
            "n" => &mut self.n,
            "latency" => &mut self.latency,
            "obj" => &mut self.obj,
            "cond" => &mut self.cond,
            "mutex" => &mut self.mutex,
            "timeout" => &mut self.timeout,
            "parties" => &mut self.parties,
            "init" => &mut self.init,
            "created" => &mut self.created,
            "joined" => &mut self.joined,
            "acquired" => &mut self.acquired,
            "timedout" => &mut self.timedout,
            _ => return,
        };
        *slot = Some(value);
    }
}

fn missing(what: &str) -> ParseFail {
    (DiagCode::MissingField, format!("missing {what}"))
}

fn obj(value: Option<&str>, key: &str) -> Result<SyncObjId, ParseFail> {
    value
        .and_then(parse_obj_id)
        .ok_or_else(|| (DiagCode::MissingField, format!("missing/bad {key}=")))
}

fn target(value: Option<&str>) -> Result<ThreadId, ParseFail> {
    parse_thread(value.ok_or_else(|| missing("target="))?)
}

/// A numeric field: absent or unparseable reads as missing.
fn number<T: std::str::FromStr>(value: Option<&str>, what: &str) -> Result<T, ParseFail> {
    value.and_then(|v| v.parse().ok()).ok_or_else(|| missing(what))
}

/// Parse one record line, allocating nothing unless it fails. Defects
/// are reported in a fixed order: the first of time, thread and phase
/// that is bad; then a bad token or `@address`, in line order; then an
/// unknown routine; then the first missing or bad field the routine
/// reads; then a bad result thread.
fn parse_record_line(line: &str) -> Result<TraceRecord, ParseFail> {
    let mut tokens = line.split_whitespace();
    let time = parse_time(tokens.next().ok_or_else(|| missing("time"))?)
        .ok_or_else(|| (DiagCode::BadTime, format!("bad time in {line:?}")))?;
    let thread = parse_thread(tokens.next().ok_or_else(|| missing("thread"))?)?;
    let phase = match tokens.next().ok_or_else(|| missing("phase"))? {
        "B" => Phase::Before,
        "A" => Phase::After,
        "M" => Phase::Mark,
        p => return Err((DiagCode::BadPhase, format!("bad phase {p:?}"))),
    };
    let name = tokens.next().ok_or_else(|| missing("routine name"))?;

    let mut f = Fields::default();
    let mut caller = CodeAddr::NULL;
    for tok in tokens {
        if let Some(addr) = tok.strip_prefix('@') {
            caller = parse_addr(addr)?;
        } else if let Some((k, v)) = tok.split_once('=') {
            f.set(k, v);
        } else {
            return Err((DiagCode::BadToken, format!("unparseable token {tok:?}")));
        }
    }

    use EventKind::*;
    let kind = match name {
        "start_collect" => StartCollect,
        "end_collect" => EndCollect,
        "thread_start" => {
            ThreadStart { func: parse_addr(f.func.ok_or_else(|| missing("func="))?)? }
        }
        "thr_create" => ThrCreate {
            bound: f.bound == Some("1"),
            func: parse_addr(f.func.ok_or_else(|| missing("func="))?)?,
        },
        "thr_join" => {
            let t = f.target.ok_or_else(|| missing("target="))?;
            ThrJoin { target: if t == "*" { None } else { Some(parse_thread(t)?) } }
        }
        "thr_exit" => ThrExit,
        "thr_yield" => ThrYield,
        "thr_setprio" => ThrSetPrio { target: target(f.target)?, prio: number(f.prio, "prio=")? },
        "thr_setconcurrency" => ThrSetConcurrency { n: number(f.n, "n=")? },
        "thr_suspend" => ThrSuspend { target: target(f.target)? },
        "io_wait" => IoWait { latency: Duration(number(f.latency, "latency=")?) },
        "thr_continue" => ThrContinue { target: target(f.target)? },
        "mutex_lock" => MutexLock { obj: obj(f.obj, "obj")? },
        "mutex_trylock" => MutexTryLock { obj: obj(f.obj, "obj")? },
        "mutex_unlock" => MutexUnlock { obj: obj(f.obj, "obj")? },
        "sema_wait" => SemWait { obj: obj(f.obj, "obj")? },
        "sema_trywait" => SemTryWait { obj: obj(f.obj, "obj")? },
        "sema_post" => SemPost { obj: obj(f.obj, "obj")? },
        "cond_wait" => CondWait { cond: obj(f.cond, "cond")?, mutex: obj(f.mutex, "mutex")? },
        "cond_timedwait" => CondTimedWait {
            cond: obj(f.cond, "cond")?,
            mutex: obj(f.mutex, "mutex")?,
            timeout: Duration(number(f.timeout, "timeout=")?),
        },
        "cond_signal" => CondSignal { cond: obj(f.cond, "cond")? },
        "cond_broadcast" => CondBroadcast { cond: obj(f.cond, "cond")? },
        "rw_rdlock" => RwRdLock { obj: obj(f.obj, "obj")? },
        "rw_wrlock" => RwWrLock { obj: obj(f.obj, "obj")? },
        "rw_tryrdlock" => RwTryRdLock { obj: obj(f.obj, "obj")? },
        "rw_trywrlock" => RwTryWrLock { obj: obj(f.obj, "obj")? },
        "rw_unlock" => RwUnlock { obj: obj(f.obj, "obj")? },
        "barrier_wait" => {
            BarrierWait { obj: obj(f.obj, "obj")?, parties: number(f.parties, "parties=")? }
        }
        "once_call" => {
            OnceCall { obj: obj(f.obj, "obj")?, init: Duration(number(f.init, "init=")?) }
        }
        other => return Err((DiagCode::UnknownRoutine, format!("unknown routine {other:?}"))),
    };

    let result = if let Some(t) = f.created {
        EventResult::Created(parse_thread(t)?)
    } else if let Some(t) = f.joined {
        EventResult::Joined(parse_thread(t)?)
    } else if let Some(b) = f.acquired {
        EventResult::Acquired(b == "1")
    } else if let Some(b) = f.timedout {
        EventResult::TimedOut(b == "1")
    } else {
        EventResult::None
    };

    Ok(TraceRecord { seq: 0, time, thread, phase, kind, result, caller })
}

/// The map-based parser the slot-based one replaced, kept as the
/// reference the tests check it against: one `BTreeMap` of `key=value`
/// fields per record line and one source-map insert per `# src` line.
/// It shares the token parsers (`parse_time`, `parse_thread`,
/// `parse_addr`, `parse_obj_id`) with the parser under test.
#[cfg(test)]
mod reference {
    use super::{parse_addr, parse_thread, Diagnostic, ParseFail};
    use crate::diag::{DiagCode, Pos};
    use crate::event::{EventKind, EventResult, Phase};
    use crate::ids::{parse_obj_id, SyncObjId, ThreadId};
    use crate::source::{CodeAddr, SourceLoc};
    use crate::time::{parse_time, Duration};
    use crate::trace::{LogHeader, TraceLog, TraceRecord};
    use std::collections::BTreeMap;

    pub fn parse_modes(text: &str, lenient: bool) -> (TraceLog, Vec<Diagnostic>) {
        let mut log = TraceLog::default();
        let mut diags = Vec::new();
        let mut seq = 0u64;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let pos = Pos::Line(lineno as u32 + 1);
            let fail = if let Some(rest) = line.strip_prefix("# ") {
                parse_header_line(rest, &mut log.header).err()
            } else {
                match parse_record_line(line) {
                    Ok(mut rec) => {
                        rec.seq = seq;
                        seq += 1;
                        log.records.push(rec);
                        None
                    }
                    Err(f) => Some(f),
                }
            };
            if let Some((code, msg)) = fail {
                if lenient {
                    diags.push(Diagnostic::warning(code, pos, format!("{msg}; line dropped")));
                } else {
                    diags.push(Diagnostic::error(code, pos, msg));
                    return (log, diags);
                }
            }
        }
        (log, diags)
    }

    fn parse_header_line(rest: &str, h: &mut LogHeader) -> Result<(), ParseFail> {
        let bad = |msg: String| (DiagCode::BadHeaderField, msg);
        let mut it = rest.splitn(2, ' ');
        let key = it.next().unwrap_or("");
        let val = it.next().unwrap_or("").trim();
        match key {
            "vppb-log" => {}
            "program" => h.program = val.to_string(),
            "walltime" => {
                h.wall_time = parse_time(val).ok_or_else(|| bad(format!("bad walltime {val:?}")))?
            }
            "probecost" => {
                h.probe_cost =
                    Duration(val.parse().map_err(|_| bad(format!("bad probecost {val:?}")))?)
            }
            "thread" => {
                let (t, f) = val.split_once(' ').ok_or_else(|| bad("bad thread header".into()))?;
                h.thread_start_fn.insert(parse_thread(t)?, f.to_string());
            }
            "src" => {
                let mut parts = val.splitn(3, ' ');
                let addr = parse_addr(parts.next().ok_or_else(|| bad("missing src addr".into()))?)?;
                let fileline = parts.next().ok_or_else(|| bad("missing src file:line".into()))?;
                let func = parts.next().ok_or_else(|| bad("missing src function".into()))?;
                let (file, line) =
                    fileline.rsplit_once(':').ok_or_else(|| bad("bad file:line".into()))?;
                let line: u32 = line.parse().map_err(|_| bad("bad line number".into()))?;
                h.source_map.insert_one(addr, SourceLoc::new(file, line, func));
            }
            _ => {}
        }
        Ok(())
    }

    fn parse_record_line(line: &str) -> Result<TraceRecord, ParseFail> {
        let missing = |what: &str| (DiagCode::MissingField, format!("missing {what}"));
        let mut tokens = line.split_whitespace();
        let time = parse_time(tokens.next().ok_or_else(|| missing("time"))?)
            .ok_or_else(|| (DiagCode::BadTime, format!("bad time in {line:?}")))?;
        let thread = parse_thread(tokens.next().ok_or_else(|| missing("thread"))?)?;
        let phase = match tokens.next().ok_or_else(|| missing("phase"))? {
            "B" => Phase::Before,
            "A" => Phase::After,
            "M" => Phase::Mark,
            p => return Err((DiagCode::BadPhase, format!("bad phase {p:?}"))),
        };
        let name = tokens.next().ok_or_else(|| missing("routine name"))?;

        let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
        let mut caller = CodeAddr::NULL;
        for tok in tokens {
            if let Some(addr) = tok.strip_prefix('@') {
                caller = parse_addr(addr)?;
            } else if let Some((k, v)) = tok.split_once('=') {
                kv.insert(k, v);
            } else {
                return Err((DiagCode::BadToken, format!("unparseable token {tok:?}")));
            }
        }

        let obj = |kv: &BTreeMap<&str, &str>, key: &str| -> Result<SyncObjId, ParseFail> {
            kv.get(key)
                .and_then(|v| parse_obj_id(v))
                .ok_or_else(|| (DiagCode::MissingField, format!("missing/bad {key}=")))
        };
        let target = |kv: &BTreeMap<&str, &str>| -> Result<ThreadId, ParseFail> {
            parse_thread(
                kv.get("target").ok_or((DiagCode::MissingField, "missing target=".to_string()))?,
            )
        };

        use EventKind::*;
        let kind = match name {
            "start_collect" => StartCollect,
            "end_collect" => EndCollect,
            "thread_start" => {
                ThreadStart { func: parse_addr(kv.get("func").ok_or_else(|| missing("func="))?)? }
            }
            "thr_create" => ThrCreate {
                bound: kv.get("bound").copied() == Some("1"),
                func: parse_addr(kv.get("func").ok_or_else(|| missing("func="))?)?,
            },
            "thr_join" => {
                let t = kv.get("target").copied().ok_or_else(|| missing("target="))?;
                ThrJoin { target: if t == "*" { None } else { Some(parse_thread(t)?) } }
            }
            "thr_exit" => ThrExit,
            "thr_yield" => ThrYield,
            "thr_setprio" => ThrSetPrio {
                target: target(&kv)?,
                prio: kv
                    .get("prio")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| missing("prio="))?,
            },
            "thr_setconcurrency" => ThrSetConcurrency {
                n: kv.get("n").and_then(|v| v.parse().ok()).ok_or_else(|| missing("n="))?,
            },
            "thr_suspend" => ThrSuspend { target: target(&kv)? },
            "io_wait" => IoWait {
                latency: Duration(
                    kv.get("latency")
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| missing("latency="))?,
                ),
            },
            "thr_continue" => ThrContinue { target: target(&kv)? },
            "mutex_lock" => MutexLock { obj: obj(&kv, "obj")? },
            "mutex_trylock" => MutexTryLock { obj: obj(&kv, "obj")? },
            "mutex_unlock" => MutexUnlock { obj: obj(&kv, "obj")? },
            "sema_wait" => SemWait { obj: obj(&kv, "obj")? },
            "sema_trywait" => SemTryWait { obj: obj(&kv, "obj")? },
            "sema_post" => SemPost { obj: obj(&kv, "obj")? },
            "cond_wait" => CondWait { cond: obj(&kv, "cond")?, mutex: obj(&kv, "mutex")? },
            "cond_timedwait" => CondTimedWait {
                cond: obj(&kv, "cond")?,
                mutex: obj(&kv, "mutex")?,
                timeout: Duration(
                    kv.get("timeout")
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| missing("timeout="))?,
                ),
            },
            "cond_signal" => CondSignal { cond: obj(&kv, "cond")? },
            "cond_broadcast" => CondBroadcast { cond: obj(&kv, "cond")? },
            "rw_rdlock" => RwRdLock { obj: obj(&kv, "obj")? },
            "rw_wrlock" => RwWrLock { obj: obj(&kv, "obj")? },
            "rw_tryrdlock" => RwTryRdLock { obj: obj(&kv, "obj")? },
            "rw_trywrlock" => RwTryWrLock { obj: obj(&kv, "obj")? },
            "rw_unlock" => RwUnlock { obj: obj(&kv, "obj")? },
            "barrier_wait" => BarrierWait {
                obj: obj(&kv, "obj")?,
                parties: kv
                    .get("parties")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| missing("parties="))?,
            },
            "once_call" => OnceCall {
                obj: obj(&kv, "obj")?,
                init: Duration(
                    kv.get("init").and_then(|v| v.parse().ok()).ok_or_else(|| missing("init="))?,
                ),
            },
            other => return Err((DiagCode::UnknownRoutine, format!("unknown routine {other:?}"))),
        };

        let result = if let Some(t) = kv.get("created") {
            EventResult::Created(parse_thread(t)?)
        } else if let Some(t) = kv.get("joined") {
            EventResult::Joined(parse_thread(t)?)
        } else if let Some(b) = kv.get("acquired") {
            EventResult::Acquired(*b == "1")
        } else if let Some(b) = kv.get("timedout") {
            EventResult::TimedOut(*b == "1")
        } else {
            EventResult::None
        };

        Ok(TraceRecord { seq: 0, time, thread, phase, kind, result, caller })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corrupt::{self, ChaosRng};
    use crate::time::Time;
    use std::sync::OnceLock;

    fn sample_log() -> TraceLog {
        let mut header = LogHeader {
            program: "toy".into(),
            wall_time: Time::from_micros(800_000),
            probe_cost: Duration::from_micros(2),
            ..LogHeader::default()
        };
        let addr_main = header.source_map.intern(SourceLoc::new("main.c", 12, "main"));
        let addr_work = header.source_map.intern(SourceLoc::new("main.c", 3, "thread"));
        header.thread_start_fn.insert(ThreadId(4), "thread".into());
        let m = SyncObjId::mutex(0);
        let records = vec![
            TraceRecord {
                seq: 0,
                time: Time::ZERO,
                thread: ThreadId(1),
                phase: Phase::Mark,
                kind: EventKind::StartCollect,
                result: EventResult::None,
                caller: CodeAddr::NULL,
            },
            TraceRecord {
                seq: 1,
                time: Time::from_micros(100_000),
                thread: ThreadId(1),
                phase: Phase::Before,
                kind: EventKind::ThrCreate { bound: false, func: addr_work },
                result: EventResult::None,
                caller: addr_main,
            },
            TraceRecord {
                seq: 2,
                time: Time::from_micros(100_050),
                thread: ThreadId(1),
                phase: Phase::After,
                kind: EventKind::ThrCreate { bound: false, func: addr_work },
                result: EventResult::Created(ThreadId(4)),
                caller: addr_main,
            },
            TraceRecord {
                seq: 3,
                time: Time::from_micros(200_000),
                thread: ThreadId(4),
                phase: Phase::Before,
                kind: EventKind::MutexLock { obj: m },
                result: EventResult::None,
                caller: addr_work,
            },
            TraceRecord {
                seq: 4,
                time: Time::from_micros(200_002),
                thread: ThreadId(4),
                phase: Phase::After,
                kind: EventKind::MutexLock { obj: m },
                result: EventResult::None,
                caller: addr_work,
            },
            TraceRecord {
                seq: 5,
                time: Time::from_micros(800_000),
                thread: ThreadId(1),
                phase: Phase::Mark,
                kind: EventKind::EndCollect,
                result: EventResult::None,
                caller: CodeAddr::NULL,
            },
        ];
        TraceLog { header, records }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let log = sample_log();
        let text = write_log(&log);
        let back = parse_log(&text).expect("parse");
        assert_eq!(back, log);
    }

    #[test]
    fn header_fields_survive() {
        let text = write_log(&sample_log());
        let back = parse_log(&text).unwrap();
        assert_eq!(back.header.program, "toy");
        assert_eq!(back.header.probe_cost, Duration::from_micros(2));
        assert_eq!(
            back.header.thread_start_fn.get(&ThreadId(4)).map(String::as_str),
            Some("thread")
        );
        assert_eq!(back.header.source_map.len(), 2);
    }

    #[test]
    fn join_wildcard_round_trips() {
        let mut log = sample_log();
        log.records.insert(
            5,
            TraceRecord {
                seq: 5,
                time: Time::from_micros(300_000),
                thread: ThreadId(1),
                phase: Phase::Before,
                kind: EventKind::ThrJoin { target: None },
                result: EventResult::None,
                caller: CodeAddr::NULL,
            },
        );
        log.records.insert(
            6,
            TraceRecord {
                seq: 6,
                time: Time::from_micros(300_010),
                thread: ThreadId(1),
                phase: Phase::After,
                kind: EventKind::ThrJoin { target: None },
                result: EventResult::Joined(ThreadId(4)),
                caller: CodeAddr::NULL,
            },
        );
        log.records[7].seq = 7;
        let back = parse_log(&write_log(&log)).unwrap();
        assert_eq!(back.records[5].kind, EventKind::ThrJoin { target: None });
        assert_eq!(back.records[6].result, EventResult::Joined(ThreadId(4)));
    }

    #[test]
    fn parse_rejects_unknown_routine() {
        let text = "0.000000 T1 M start_collect @0x0\n0.000001 T1 B frob_widget @0x0\n";
        assert!(parse_log(text).is_err());
    }

    #[test]
    fn parse_rejects_bad_phase_and_time() {
        assert!(parse_log("0.000000 T1 X thr_exit @0x0\n").is_err());
        assert!(parse_log("zero T1 B thr_exit @0x0\n").is_err());
    }

    #[test]
    fn blank_lines_and_unknown_headers_are_tolerated() {
        let text = "# vppb-log v1\n# future-field whatever\n\n0.000000 T1 M start_collect @0x0\n";
        let log = parse_log(text).unwrap();
        assert_eq!(log.len(), 1);
    }

    /// Text logs of the Table-1 programs at 2, 4 and 8 threads and of
    /// both case-study programs, as the recorder writes them.
    fn recorded_texts() -> &'static [String] {
        static TEXTS: OnceLock<Vec<String>> = OnceLock::new();
        TEXTS.get_or_init(|| {
            use vppb_workloads::{prodcons, splash2_suite, KernelParams};
            let mut apps = Vec::new();
            for spec in splash2_suite() {
                for threads in [2, 4, 8] {
                    apps.push((spec.build)(KernelParams::new(threads)));
                }
            }
            apps.push(prodcons::naive(1.0));
            apps.push(prodcons::improved(1.0));
            apps.iter()
                .map(|app| {
                    let rec = vppb_recorder::record(app, &Default::default()).expect("record");
                    // The recorder links its own build of this crate, so
                    // the log crosses over as JSON.
                    let json = serde_json::to_string(&rec.log).expect("log to JSON");
                    write_log(&serde_json::from_str(&json).expect("log from JSON"))
                })
                .collect()
        })
    }

    /// Strict and lenient parses of `text` equal the reference's: the
    /// records, the header and every diagnostic (code, position, message).
    fn assert_matches_reference(text: &str, case: &str) {
        for lenient in [false, true] {
            let (log, diags) = parse_modes(text, lenient);
            let (want_log, want_diags) = reference::parse_modes(text, lenient);
            assert_eq!(diags, want_diags, "{case} (lenient: {lenient})");
            assert_eq!(log.header, want_log.header, "{case} (lenient: {lenient})");
            assert!(log.records == want_log.records, "{case} (lenient: {lenient}): records differ");
        }
    }

    #[test]
    fn recorded_logs_parse_as_the_reference_parses_them() {
        for text in recorded_texts() {
            assert_matches_reference(text, "pristine");
            assert_eq!(write_log(&parse_log(text).expect("a recorded log parses")), *text);
        }
    }

    /// `rounds` seeded `corrupt::mutate` cases on each of `texts`.
    fn check_mutations(texts: &[String], rounds: usize, seed: u64) {
        let mut rng = ChaosRng::new(seed);
        for round in 0..rounds {
            for (i, text) in texts.iter().enumerate() {
                let mut bytes = text.clone().into_bytes();
                let mutation = corrupt::mutate(&mut bytes, &mut rng);
                let case = format!("log {i}, round {round}, {mutation:?}");
                assert_matches_reference(&String::from_utf8_lossy(&bytes), &case);
            }
        }
    }

    // 1,000 mutation cases in all: 960 on the fifteen Table-1 logs and 40
    // on the two case-study logs, which are 3 and 7 times the largest
    // Table-1 log. Two tests, so the harness runs them side by side.
    #[test]
    fn mutated_table1_logs_parse_as_the_reference_parses_them() {
        check_mutations(&recorded_texts()[..15], 64, 0x0B5E_55ED);
    }

    #[test]
    fn mutated_case_study_logs_parse_as_the_reference_parses_them() {
        check_mutations(&recorded_texts()[15..], 20, 0xCA5E_57D1);
    }

    /// A header with two call sites, then `line`.
    fn with_header(line: &str) -> String {
        format!(
            "# vppb-log v1\n# program hand\n# src 0x1000 m.c:1 main\n# src 0x1004 m.c:2 f\n{line}\n"
        )
    }

    #[test]
    fn hand_written_lines_parse_as_the_reference_parses_them() {
        let lines = [
            // Duplicate and unknown keys, odd `=` placement.
            "0.000001 T4 B mutex_lock obj=mtx0 obj=mtx1 @0x1000",
            "0.000001 T4 B mutex_lock zzz=1 obj=mtx0 @0x1000",
            "0.000001 T4 B mutex_lock a=b=c obj=mtx0",
            "0.000001 T4 B mutex_lock obj==mtx0",
            "0.000001 T4 B mutex_lock obj=",
            "0.000001 T4 B mutex_lock = obj=mtx0",
            "0.000001 T4 B mutex_lock =obj",
            "0.000001 T4 A thr_join target=T5 joined=T5 joined=T6",
            "0.000001 T4 A thr_create bound=1 func=0x1004 created=T5 acquired=1",
            // Callers.
            "0.000001 T4 B mutex_lock obj=mtx0 @0x1000 @0x1004",
            "0.000001 T4 B mutex_lock obj=mtx0 @0x1000 @zz",
            "0.000001 T4 B mutex_lock obj=mtx0 @0x",
            "0.000001 T4 B mutex_lock obj=mtx0 @0x+10",
            "0.000001 T4 B mutex_lock obj=mtx0 @0x+",
            "0.000001 T4 B mutex_lock obj=mtx0 @0X10",
            "0.000001 T4 B mutex_lock obj=mtx0 @0x10000000000000000",
            "0.000001 T4 B mutex_lock obj=mtx0 @=1",
            // Join targets and thread ids.
            "0.000001 T4 B thr_join target=*",
            "0.000001 T4 B thr_join target=**",
            "0.000001 T4 B thr_join",
            "0.000001 T+4 B thr_exit",
            "0.000001 T4294967296 B thr_exit",
            "0.000001 T B thr_exit",
            "0.000001 t4 B thr_exit",
            // Numbers.
            "0.000001 T4 B thr_setprio target=T5 prio=-5",
            "0.000001 T4 B thr_setprio target=T5 prio=+5",
            "0.000001 T4 B thr_setprio target=T5 prio=-2147483648",
            "0.000001 T4 B thr_setprio target=T5 prio=2147483648",
            "0.000001 T4 B thr_setprio target=T5 prio=-+5",
            "0.000001 T4 B thr_setprio target=T5 prio=-",
            "0.000001 T4 B thr_setprio prio=1",
            "0.000001 T4 B thr_setconcurrency n=+3",
            "0.000001 T4 B io_wait latency=18446744073709551615",
            "0.000001 T4 B io_wait latency=18446744073709551616",
            "0.000001 T4 B barrier_wait obj=bar1 parties=4294967296",
            "0.000001 T4 B once_call obj=once0 init=12",
            "0.000001 T4 B cond_timedwait cond=cv1 mutex=mtx2 timeout=7",
            "0.000001 T4 B cond_timedwait mutex=mtx2 timeout=7",
            "0.000001 T4 B sema_post obj=sem4294967296",
            "0.000001 T4 B sema_post obj=sem+1",
            // Times.
            "+0.000001 T4 B thr_exit",
            "0.00001 T4 B thr_exit",
            "0.0000012 T4 B thr_exit",
            ".000001 T4 B thr_exit",
            "1.2.3456 T4 B thr_exit",
            "18446744073.709551 T4 B thr_exit",
            "18446744074.000000 T4 B thr_exit",
            // Precedence: token, then routine, then field.
            "0.000001 T4 B frob_widget @zz",
            "0.000001 T4 B frob_widget bad",
            "0.000001 T4 B frob_widget obj=mtx0",
            "0.000001 T4 B mutex_lock bad @0x1000",
            "0.000001 T4 X frob_widget bad",
            "0.000001 T4",
            "0.000001 T4 B",
            // Whitespace: tabs, vertical tab, form feed, CR.
            "0.000001\tT4\tB\tmutex_lock\tobj=mtx0\t@0x1000",
            "0.000001 T4\x0bB\x0cmutex_lock  obj=mtx0\r@0x1000",
            // Unicode whitespace between tokens.
            "0.000001\u{a0}T4\u{a0}B mutex_lock obj=mtx0 @0x1000",
            "0.000001 T4\u{2003}B\u{3000}mutex_lock\u{85}obj=mtx0 @0x1000",
            "\u{3000}0.000001 T4 B mutex_lock obj=mtx0 @0x1000\u{a0}",
            // Non-ASCII inside a token, and chars that are not whitespace.
            "0.000001 T4 B mutex_lock obj=mtx0\u{e9} @0x1000",
            "0.000001 T4\u{e9} B mutex_lock obj=mtx0",
            "0.000001 T4 B mutex_lock\u{fc} obj=mtx0",
            "0.000001 T4 B mutex_lock obj=mtx0 @0x10\u{e9}",
            "0.000001 T4 B mutex_lock \u{e9}=\u{fc} obj=mtx0",
            "0.000001 T4 B mutex_lock obj=mtx0\u{200b}@0x1000",
            "0.000001 T4 B mutex_lock obj=mtx0\u{feff} @0x1000",
            "\u{fffd}0.000001 T4 B thr_exit",
        ];
        for line in lines {
            assert_matches_reference(&with_header(line), line);
        }
        // Every line at once, in both line-ending styles.
        let all = lines.join("\n");
        assert_matches_reference(&with_header(&all), "all lines");
        assert_matches_reference(&with_header(&all).replace('\n', "\r\n"), "all lines, CRLF");

        let rec = |line: &str| parse_log(&with_header(line)).expect(line).records[0];
        let last = rec("0.000001 T4 B mutex_lock obj=mtx0 obj=mtx1 @0x1000");
        assert_eq!(last.kind, EventKind::MutexLock { obj: SyncObjId::mutex(1) });
        let nbsp = rec("0.000001\u{a0}T4\u{2003}B\u{3000}mutex_lock obj=mtx0 @0x1004");
        assert_eq!((nbsp.thread, nbsp.caller), (ThreadId(4), CodeAddr(0x1004)));
        let wild = rec("0.000001 T4 B thr_join zzz=9 target=*");
        assert_eq!(wild.kind, EventKind::ThrJoin { target: None });
        let err = |line: &str| match parse_log(&with_header(line)) {
            Err(VppbError::Diag(d)) => (d.code, d.message),
            other => panic!("{line}: {other:?}"),
        };
        assert_eq!(err("0.000001 T4 B frob @zz").0, DiagCode::BadToken);
        assert_eq!(err("0.000001 T4 B frob obj=mtx0").0, DiagCode::UnknownRoutine);
        assert_eq!(err("0.000001 T4 B mutex_lock obj=").1, "missing/bad obj=");
    }

    #[test]
    fn repeated_src_addresses_keep_the_last_entry() {
        let text = "# src 0x1004 a.c:1 f\n# src 0x1000 a.c:2 g\n# src 0x1004 a.c:3 h\n\
                    0.000000 T1 M start_collect @0x1004\n";
        assert_matches_reference(text, "repeated src");
        let log = parse_log(text).unwrap();
        let map = &log.header.source_map;
        assert_eq!(map.len(), 2);
        assert_eq!(map.resolve(CodeAddr(0x1004)), Some(&SourceLoc::new("a.c", 3, "h")));
        let mut interned = map.clone();
        assert_eq!(interned.intern(SourceLoc::new("a.c", 4, "i")), CodeAddr(0x1008));
    }

    #[test]
    fn an_overflowing_record_time_is_a_bad_time() {
        let text = "0.000000 T1 M start_collect @0x0\n20000000000.000000 T1 M end_collect @0x0\n";
        let Err(VppbError::Diag(d)) = parse_log(text) else { panic!("must not parse") };
        assert_eq!((d.code, d.pos), (DiagCode::BadTime, Pos::Line(2)));
        let (log, diags) = parse_log_lenient(text);
        assert_eq!(log.len(), 1);
        assert_eq!(diags.len(), 1);
        assert_eq!((diags[0].code, diags[0].pos), (DiagCode::BadTime, Pos::Line(2)));
        assert!(diags[0].message.ends_with("line dropped"), "{}", diags[0].message);
    }

    #[test]
    fn an_overflowing_walltime_is_a_bad_header_field() {
        let text = "# walltime 20000000000.000000\n0.000000 T1 M start_collect @0x0\n";
        let Err(VppbError::Diag(d)) = parse_log(text) else { panic!("must not parse") };
        assert_eq!((d.code, d.pos), (DiagCode::BadHeaderField, Pos::Line(1)));
        let (log, diags) = parse_log_lenient(text);
        assert_eq!((log.len(), log.header.wall_time), (1, Time::ZERO));
        assert_eq!((diags[0].code, diags.len()), (DiagCode::BadHeaderField, 1));
    }

    #[test]
    fn a_src_address_at_the_top_saturates_the_next_address() {
        let text = "# src 0xffffffffffffffff main.c:1 main\n0.000000 T1 M start_collect @0x0\n";
        for log in [parse_log(text).expect("strict"), parse_log_lenient(text).0] {
            let map = &log.header.source_map;
            assert_eq!(map.resolve(CodeAddr(u64::MAX)).map(|l| l.line), Some(1));
            let json = serde_json::to_string(map).unwrap();
            assert!(json.ends_with("\"next_addr\":18446744073709551615}"), "{json}");
        }
        assert!(parse_log_lenient(text).1.is_empty());
    }
}
