//! The seeded schedule builder, the order statistics, and span self time.

use perfbench::schedule::{median, percentile, rounds_with_tail_inside, schedule, tail, Tail};
use perfbench::trace::{self_times, Span};

/// Cold's round: 33 equally weighted inputs.
const COLD: [usize; 33] = [1; 33];

#[test]
fn same_seed_gives_the_same_op_list() {
    assert_eq!(schedule(&COLD, 16, 7), schedule(&COLD, 16, 7));
}

#[test]
fn another_seed_reorders_the_same_multiset() {
    let (a, b) = (schedule(&COLD, 16, 7), schedule(&COLD, 16, 8));
    assert_ne!(a, b);
    let (mut sa, mut sb) = (a.clone(), b.clone());
    sa.sort_unstable();
    sb.sort_unstable();
    assert_eq!(sa, sb);
    // Every round holds every input once.
    for round in a.chunks(COLD.len()) {
        let mut r = round.to_vec();
        r.sort_unstable();
        assert_eq!(r, (0..COLD.len()).collect::<Vec<_>>());
    }
}

#[test]
fn weighted_rounds_keep_their_mix() {
    // Serve's shape: three copies of each hot request, one miss.
    let ops = schedule(&[3, 3, 1], 100, 42);
    assert_eq!(ops.len(), 700);
    assert_eq!(ops.iter().filter(|&&k| k == 2).count(), 100);
}

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(tail(&ramp(1000)), Some(Tail { pct: 99, beyond: 10, value: 990.0 }));
    assert_eq!(tail(&ramp(5000)), Some(Tail { pct: 99, beyond: 50, value: 4950.0 }));
    assert_eq!(tail(&ramp(627)), Some(Tail { pct: 98, beyond: 12, value: 615.0 }));
    assert_eq!(tail(&ramp(100)), Some(Tail { pct: 90, beyond: 10, value: 90.0 }));
    assert_eq!(tail(&ramp(20)), Some(Tail { pct: 50, beyond: 10, value: 10.0 }));
    assert_eq!(tail(&ramp(19)), None);
}

#[test]
fn percentiles_use_the_nearest_rank() {
    assert_eq!(percentile(&ramp(10), 50), 5.0);
    assert_eq!(percentile(&ramp(10), 100), 10.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
}

#[test]
fn round_counts_keep_the_tail_inside_the_slowest_cluster() {
    // 13-15 rounds of 33 put p97 on the first sample of the slowest input.
    assert_eq!(rounds_with_tail_inside(&[33], 4), 16);
    assert_eq!(rounds_with_tail_inside(&[33], 19), 19);
    assert_eq!(rounds_with_tail_inside(&[7], 4), 13);
}

#[test]
fn self_time_excludes_child_spans() {
    let span = |name, parent, start_ns, end_ns| Span { op: 0, name, parent, start_ns, end_ns };
    let spans = vec![
        span("outer", None, 0, 100),
        span("inner", Some(0), 10, 40),
        span("inner", Some(0), 50, 70),
        span("leaf", Some(2), 55, 60),
    ];
    let t = self_times(&spans);
    assert_eq!(t["outer"], (50, 1));
    assert_eq!(t["inner"], (45, 2));
    assert_eq!(t["leaf"], (5, 1));
}
