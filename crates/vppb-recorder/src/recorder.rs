//! The Recorder (§3.1): monitor a uni-processor, single-LWP execution and
//! produce the log file the Simulator replays.
//!
//! The probes record, for every call into the thread library: a wall-clock
//! timestamp with 1 µs resolution, the routine, the object concerned, the
//! calling thread, the return-value details visible at the AFTER probe, and
//! the call-site address. Each probe charges a configurable intrusion cost
//! to the calling thread — the source of the ≤ 3 % recording overhead the
//! paper measures.

use std::collections::BTreeMap;
use vppb_machine::{run, Hooks, RunLimits, RunOptions, RunResult};
use vppb_model::{
    CodeAddr, Duration, EventKind, EventResult, LogHeader, MachineConfig, Phase, ThreadId, Time,
    TraceLog, TraceRecord, VppbError,
};
use vppb_threads::App;

/// Options for a monitored run.
#[derive(Debug, Clone)]
pub struct RecordOptions {
    /// CPU time each probe adds (BEFORE and AFTER separately). The paper's
    /// total intrusion was ≤ 3 % of execution time at up to 653 events/s,
    /// implying roughly a dozen microseconds per probe on the mid-90s
    /// hardware (timestamp, `%i7` capture, buffering).
    pub probe_cost: Duration,
    /// Abort limits — this is what catches the unrecordable programs (the
    /// Barnes / Raytrace classes of §4) instead of hanging.
    pub limits: RunLimits,
    /// Machine to record on. **Must** have one CPU and one LWP; the
    /// Recorder cannot monitor kernel-level LWP switches (§6).
    pub machine: MachineConfig,
}

impl Default for RecordOptions {
    fn default() -> RecordOptions {
        RecordOptions {
            probe_cost: Duration::from_micros(12),
            limits: RunLimits::default(),
            machine: MachineConfig::uniprocessor_one_lwp(),
        }
    }
}

/// A completed recording.
#[derive(Debug, Clone)]
pub struct Recording {
    /// The recorded information — box (d) in the paper's fig. 1.
    pub log: TraceLog,
    /// The monitored run itself (timings include probe intrusion).
    pub run: RunResult,
}

impl Recording {
    /// Wall time of the monitored uni-processor execution.
    pub fn wall_time(&self) -> Time {
        self.run.wall_time
    }
}

/// The probe implementation: an [`Hooks`] impl accumulating records.
struct RecorderHooks<'a> {
    app: &'a App,
    probe_cost: Duration,
    records: Vec<TraceRecord>,
    thread_start_fn: BTreeMap<ThreadId, String>,
    seq: u64,
}

impl<'a> RecorderHooks<'a> {
    fn push(
        &mut self,
        time: Time,
        thread: ThreadId,
        phase: Phase,
        kind: EventKind,
        result: EventResult,
        caller: CodeAddr,
    ) {
        // The paper's clock has 1 microsecond resolution.
        let time = Time::from_micros(time.as_micros());
        self.records.push(TraceRecord { seq: self.seq, time, thread, phase, kind, result, caller });
        self.seq += 1;
    }
}

impl<'a> Hooks for RecorderHooks<'a> {
    fn probe_cost(&self) -> Duration {
        self.probe_cost
    }

    fn on_collect(&mut self, start: bool, t: Time) {
        let kind = if start { EventKind::StartCollect } else { EventKind::EndCollect };
        self.push(t, ThreadId::MAIN, Phase::Mark, kind, EventResult::None, CodeAddr::NULL);
    }

    fn on_thread_start(&mut self, t: Time, thread: ThreadId, func: CodeAddr) {
        if let Some(f) = self.app.func_by_entry(func) {
            self.thread_start_fn.insert(thread, self.app.func_name(f).to_string());
        }
        self.push(
            t,
            thread,
            Phase::Mark,
            EventKind::ThreadStart { func },
            EventResult::None,
            CodeAddr::NULL,
        );
    }

    fn on_before(&mut self, t: Time, thread: ThreadId, kind: EventKind, site: CodeAddr) {
        self.push(t, thread, Phase::Before, kind, EventResult::None, site);
    }

    fn on_after(
        &mut self,
        t: Time,
        thread: ThreadId,
        kind: EventKind,
        result: EventResult,
        site: CodeAddr,
    ) {
        self.push(t, thread, Phase::After, kind, result, site);
    }
}

/// Record a monitored uni-processor execution of `app`.
///
/// Returns [`VppbError::Unrecordable`] when the program cannot make
/// progress on a single LWP (spins on a variable, or steals all work into
/// one thread — the programs §4 had to exclude).
pub fn record(app: &App, opts: &RecordOptions) -> Result<Recording, VppbError> {
    if opts.machine.cpus != 1 {
        return Err(VppbError::InvalidConfig(
            "the Recorder monitors uni-processor executions only".into(),
        ));
    }
    if opts.machine.lwps.pool_size(1, 1) != 1 {
        return Err(VppbError::InvalidConfig(
            "the Recorder requires exactly one LWP (it cannot observe kernel LWP switches)".into(),
        ));
    }
    let mut hooks = RecorderHooks {
        app,
        probe_cost: opts.probe_cost,
        records: Vec::new(),
        thread_start_fn: BTreeMap::new(),
        seq: 0,
    };
    let run_opts = RunOptions {
        limits: opts.limits,
        record_trace: false, // the log *is* the record; skip the timeline
        ..RunOptions::new(&mut hooks)
    };
    let run = match run(app, &opts.machine, run_opts) {
        Ok(r) => r,
        Err(VppbError::ProgramError(msg))
            if msg.contains("livelock") || msg.contains("exceeded") =>
        {
            return Err(VppbError::Unrecordable(format!(
                "program `{}` makes no progress on one LWP: {msg}",
                app.name
            )));
        }
        Err(e) => return Err(e),
    };
    let log = TraceLog {
        header: LogHeader {
            program: app.name.clone(),
            // Same 1 µs resolution as the records.
            wall_time: Time::from_micros(run.wall_time.as_micros()),
            probe_cost: opts.probe_cost,
            thread_start_fn: hooks.thread_start_fn,
            source_map: app.source_map.clone(),
        },
        records: hooks.records,
    };
    debug_assert!(log.validate().is_ok(), "recorder produced a malformed log");
    Ok(Recording { log, run })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vppb_model::Phase;
    use vppb_threads::AppBuilder;

    fn toy() -> App {
        let mut b = AppBuilder::new("toy", "toy.c");
        let w = b.func("thread", |f| f.work_ms(300));
        b.main(move |f| {
            let a = f.create(w);
            let c = f.create(w);
            f.join(a);
            f.join(c);
        });
        b.build().unwrap()
    }

    #[test]
    fn recording_produces_valid_bracketed_log() {
        let rec = record(&toy(), &RecordOptions::default()).unwrap();
        rec.log.validate().unwrap();
        assert_eq!(rec.log.header.program, "toy");
        assert!(rec.log.header.wall_time >= Time::from_millis(600));
        assert_eq!(
            rec.log.header.thread_start_fn.get(&ThreadId(4)).map(String::as_str),
            Some("thread")
        );
    }

    #[test]
    fn log_contains_paired_creates_and_joins() {
        let rec = record(&toy(), &RecordOptions::default()).unwrap();
        let creates_before = rec
            .log
            .records
            .iter()
            .filter(|r| r.phase == Phase::Before && r.kind.name() == "thr_create")
            .count();
        let creates_after = rec
            .log
            .records
            .iter()
            .filter(|r| r.phase == Phase::After && r.kind.name() == "thr_create")
            .count();
        assert_eq!(creates_before, 2);
        assert_eq!(creates_after, 2);
        // The AFTER records carry the children T4 and T5 (paper numbering).
        let children: Vec<ThreadId> =
            rec.log.records.iter().filter_map(|r| r.created_child()).collect();
        assert_eq!(children, vec![ThreadId(4), ThreadId(5)]);
    }

    #[test]
    fn timestamps_are_microsecond_aligned() {
        let rec = record(&toy(), &RecordOptions::default()).unwrap();
        for r in &rec.log.records {
            assert_eq!(r.time.nanos() % 1_000, 0, "sub-microsecond timestamp in log");
        }
    }

    #[test]
    fn multiprocessor_recorder_config_is_rejected() {
        let opts =
            RecordOptions { machine: MachineConfig::sun_enterprise(4), ..Default::default() };
        assert!(matches!(record(&toy(), &opts), Err(VppbError::InvalidConfig(_))));
    }

    #[test]
    fn higher_probe_cost_means_longer_monitored_run() {
        let cheap = record(&toy(), &RecordOptions::default()).unwrap();
        let dear = record(
            &toy(),
            &RecordOptions { probe_cost: Duration::from_micros(500), ..Default::default() },
        )
        .unwrap();
        assert!(dear.wall_time() > cheap.wall_time());
    }
}
