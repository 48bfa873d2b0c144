//! Seeded op schedules and the order statistics every workload reports.
//!
//! A run never time-boxes its ops: it runs a fixed number of *rounds*,
//! and one round holds every input kind of the workload a fixed number of
//! times. The seed only permutes the op list, so every seed runs the same
//! multiset of inputs.

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// The op list of one run: `rounds` rounds in which input kind `k` occurs
/// `per_round[k]` times. Each round is shuffled on its own from `seed`,
/// so every round is the same work and any whole number of rounds holds
/// the same input mix.
pub fn schedule(per_round: &[usize], rounds: usize, seed: u64) -> Vec<usize> {
    let round: Vec<usize> =
        per_round.iter().enumerate().flat_map(|(kind, &n)| std::iter::repeat_n(kind, n)).collect();
    let mut rng = Rng::new(seed);
    let mut ops = Vec::with_capacity(round.len() * rounds);
    for _ in 0..rounds {
        let start = ops.len();
        ops.extend_from_slice(&round);
        rng.shuffle(&mut ops[start..]);
    }
    ops
}

/// Rounds for a run of `seconds`, given the nominal duration of one round
/// on the reference host. The count depends on the arguments alone, never
/// on the clock, so every run with the same arguments does the same work.
pub fn rounds_for(seconds: u64, round_s: f64, min_rounds: usize) -> usize {
    ((seconds as f64 / round_s).round() as usize).max(min_rounds)
}

/// The smallest round count of at least `rounds` for which, in a run of
/// `per_round` equally weighted inputs per round, the tail falls inside
/// the slowest input's cluster of samples, at least two samples from its
/// lower edge, instead of on the boundary between two inputs. Every entry
/// of `per_round` must satisfy this (one per subset a tail is taken over).
pub fn rounds_with_tail_inside(per_round: &[usize], rounds: usize) -> usize {
    let inside = |k: usize, r: usize| {
        let n = k * r;
        let sorted: Vec<f64> = (0..n).map(|i| i as f64).collect();
        tail(&sorted).is_some_and(|t| rank(n, t.pct) >= n - r + 3)
    };
    (rounds.max(1)..)
        .find(|&r| per_round.iter().all(|&k| inside(k, r)))
        .expect("some round count works")
}

/// Nearest-rank percentile of ascending `sorted` (`pct` in 1..=100).
pub fn percentile(sorted: &[f64], pct: u32) -> f64 {
    sorted[rank(sorted.len(), pct) - 1]
}

/// 1-based nearest rank of percentile `pct` among `n` samples.
fn rank(n: usize, pct: u32) -> usize {
    (pct as usize * n).div_ceil(100).max(1)
}

/// Median of `xs` (nearest rank, so it is always one of the samples).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50)
}

/// A tail latency: the percentile it sits at, how many samples lie beyond
/// it, and its value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub pct: u32,
    pub beyond: usize,
    pub value: f64,
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest whole percentile, capped at p99, that leaves at least
/// [`TAIL_MIN_BEYOND`] samples of ascending `sorted` beyond it. `None`
/// when even the median leaves fewer.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    (50..=99u32).rev().find_map(|pct| {
        let r = rank(n, pct);
        let beyond = n.checked_sub(r)?;
        (n > 0 && beyond >= TAIL_MIN_BEYOND).then(|| Tail { pct, beyond, value: sorted[r - 1] })
    })
}
