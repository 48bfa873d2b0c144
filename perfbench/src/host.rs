//! The host's speed, read by a fixed probe between stretches of ops.
//!
//! On the shared development host each of the two vCPUs runs the same
//! code up to 1.7 times as slowly for a fraction of a second to seconds
//! at a time, independently of the other, and the share of slow time
//! drifts over quarter hours (README, "Host noise"). A fixed probe run on
//! the same thread slows down with the ops around it, though by more
//! than they do. Every timing the benchmark reports is therefore scaled
//! to the reference host: multiplied by (`REFERENCE_PROBE_MS` ÷ the
//! probe's reading around the time it was measured) raised to the
//! workload's sensitivity, the log-log slope of its op time against the
//! reading. The probe is the benchmark's own code and allocates nothing,
//! so a change to the program, or to the heap it leaves behind, moves
//! the timings and never the probe.

use std::cell::RefCell;
use std::hint::black_box;
use std::io::{Cursor, Write};
use std::time::{Duration, Instant};

/// The probe's reading on the reference host (a 2-vCPU Xeon VM) with
/// its vCPU in the fast state, ms. Readings in the slow state are about
/// 1.4 to 1.8 ms.
pub const REFERENCE_PROBE_MS: f64 = 0.9;

/// Timed kernel runs per reading; the reading is their median.
const PROBE_REPS: usize = 3;

/// Wall time after which [`HostClock::tick`] closes a segment.
const SEGMENT: Duration = Duration::from_millis(50);

/// Lines per kernel run, and the most keys the kernel keeps.
const LINES: usize = 3_000;
const KEYS: usize = 1_024;

/// The kernel's buffers, allocated once per thread.
struct Scratch {
    keys: Vec<u64>,
    values: Vec<[u64; 8]>,
}

/// The probe's fixed work: format a line into a fixed buffer, parse it
/// back, and insert its key into a sorted array that is emptied whenever
/// it holds [`KEYS`] keys, with a short integer mix per line. It uses
/// the system allocator for nothing: run beside a large fragmented heap,
/// a `format!`/`BTreeMap` version of the same work read twice as slow.
fn kernel(s: &mut Scratch) -> usize {
    s.keys.clear();
    s.values.clear();
    let mut line = [0u8; 64];
    let (mut acc, mut x) = (0usize, 0x9E37_79B9_7F4A_7C15u64);
    for i in 0..LINES {
        let mut w = Cursor::new(&mut line[..]);
        write!(w, "{} {i} {}", i * 7_919 % 10_007, i ^ 0x55).expect("the line fits");
        let n = w.position() as usize;
        let mut fields = [0u64; 3];
        let text = std::str::from_utf8(&line[..n]).expect("ASCII digits");
        for (f, t) in fields.iter_mut().zip(text.split(' ')) {
            *f = t.parse().unwrap_or(0);
        }
        let at = s.keys.partition_point(|&k| k < fields[0]);
        s.keys.insert(at, fields[0]);
        s.values.insert(at, [fields[1]; 8]);
        if s.keys.len() == KEYS {
            s.keys.clear();
            s.values.clear();
        }
        for _ in 0..32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        acc = acc.wrapping_add(fields[2] as usize + (x & 1) as usize);
    }
    acc + s.keys.len()
}

/// One reading on the calling thread, ms: the median of [`PROBE_REPS`]
/// timed kernel runs after an untimed one that warms the caches. The ops
/// a reading scales ran on the same thread, so most likely on the same
/// vCPU.
pub fn probe_ms() -> f64 {
    thread_local! {
        static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch {
            keys: Vec::with_capacity(KEYS),
            values: Vec::with_capacity(KEYS),
        });
    }
    SCRATCH.with_borrow_mut(|s| {
        black_box(kernel(s));
        let mut runs: Vec<f64> = (0..PROBE_REPS)
            .map(|_| {
                let t = Instant::now();
                black_box(kernel(s));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        runs.sort_by(f64::total_cmp);
        runs[PROBE_REPS / 2]
    })
}

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread, and every thread it starts from now on, to
/// the vCPU it is running on, so that a single-threaded workload's ops,
/// including work the program hands to a thread of its own (a sweep runs
/// its cells on a scoped worker even with `jobs = 1`), run on the vCPU
/// the probe reads. Returns that vCPU, or `None` if the host refuses.
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: `sched_getcpu` takes no arguments; it returns the CPU the
    // caller runs on, or -1.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).ok().filter(|&c| c < 1024)?;
    let mut mask = [0u64; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a 1,024-bit CPU set that outlives the call, and
    // `cpusetsize` is its size in bytes; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// The factor that turns a time measured between `readings` into
/// reference-host time for a workload of `sensitivity`:
/// ([`REFERENCE_PROBE_MS`] ÷ their mean) ^ `sensitivity`.
pub fn scale(readings: &[f64], sensitivity: f64) -> f64 {
    let mean = readings.iter().sum::<f64>() / readings.len() as f64;
    (REFERENCE_PROBE_MS / mean).powf(sensitivity)
}

/// A timed phase cut into segments of about [`SEGMENT`], with a probe
/// reading before the first segment and after each one. Probe time is in
/// no segment.
pub struct HostClock {
    sensitivity: f64,
    readings: Vec<f64>,
    /// Wall time of each closed segment, s.
    segments: Vec<f64>,
    opened: Instant,
}

impl HostClock {
    /// Take the first reading on this thread and open the first segment,
    /// for a workload of `sensitivity`.
    pub fn start(sensitivity: f64) -> HostClock {
        let readings = vec![probe_ms()];
        HostClock { sensitivity, readings, segments: Vec::new(), opened: Instant::now() }
    }

    /// A finished clock from `readings` taken elsewhere and the wall time
    /// (s) of each segment between them.
    pub fn from_parts(sensitivity: f64, readings: Vec<f64>, segments: Vec<f64>) -> HostClock {
        assert_eq!(readings.len(), segments.len() + 1, "a reading on each side of each segment");
        HostClock { sensitivity, readings, segments, opened: Instant::now() }
    }

    /// The open segment's index: the one an op timed now belongs to.
    pub fn segment(&self) -> usize {
        self.segments.len()
    }

    /// Close the open segment if it has run for [`SEGMENT`]. Call between
    /// ops, never inside a timed span.
    pub fn tick(&mut self) {
        if self.opened.elapsed() >= SEGMENT {
            self.close();
        }
    }

    /// Close the open segment, take a reading on this thread and open
    /// the next segment.
    pub fn close(&mut self) {
        self.segments.push(self.opened.elapsed().as_secs_f64());
        self.readings.push(probe_ms());
        self.opened = Instant::now();
    }

    /// The factor for times measured in closed segment `seg`: the
    /// readings at its two ends.
    pub fn scale(&self, seg: usize) -> f64 {
        scale(&self.readings[seg..seg + 2], self.sensitivity)
    }

    /// The closed segments' wall time, s, as measured.
    pub fn raw_phase_s(&self) -> f64 {
        self.segments.iter().sum()
    }

    /// The closed segments' wall time in reference-host seconds.
    pub fn phase_s(&self) -> f64 {
        self.segments.iter().enumerate().map(|(seg, s)| s * self.scale(seg)).sum()
    }

    /// The median reading, ms.
    pub fn median_reading(&self) -> f64 {
        crate::schedule::median(&self.readings)
    }

    /// Readings taken.
    pub fn readings(&self) -> usize {
        self.readings.len()
    }
}
