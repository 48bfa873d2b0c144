//! Host-speed scaling: the factor, and how a clock applies it.

use perfbench::host::{probe_ms, scale, HostClock, REFERENCE_PROBE_MS};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[test]
fn a_reference_reading_scales_by_one() {
    let r = REFERENCE_PROBE_MS;
    assert!(close(scale(&[r, r], 0.7), 1.0));
}

#[test]
fn the_factor_is_the_mean_reading_raised_to_the_sensitivity() {
    let r = REFERENCE_PROBE_MS;
    // Readings of 1.5 and 2.5 reference units average 2.
    assert!(close(scale(&[1.5 * r, 2.5 * r], 1.0), 0.5));
    assert!(close(scale(&[2.0 * r], 0.5), 0.5f64.sqrt()));
    assert!(close(scale(&[2.0 * r], 0.0), 1.0));
}

#[test]
fn each_segment_is_scaled_by_the_readings_on_its_two_sides() {
    let r = REFERENCE_PROBE_MS;
    let clock = HostClock::from_parts(1.0, vec![r, r, 3.0 * r], vec![2.0, 1.0]);
    assert!(close(clock.scale(0), 1.0));
    assert!(close(clock.scale(1), 0.5));
    assert!(close(clock.raw_phase_s(), 3.0));
    assert!(close(clock.phase_s(), 2.0 + 0.5));
    assert!(close(clock.median_reading(), r));
    assert_eq!(clock.readings(), 3);
}

#[test]
fn a_live_clock_records_a_reading_around_every_segment() {
    let mut clock = HostClock::start(1.0);
    assert_eq!(clock.segment(), 0);
    clock.close();
    clock.close();
    assert_eq!(clock.segment(), 2);
    assert_eq!(clock.readings(), 3);
    assert!(clock.scale(1) > 0.0 && clock.scale(1).is_finite());
}

#[test]
fn a_reading_is_a_positive_time() {
    let ms = probe_ms();
    assert!(ms > 0.0 && ms < 1_000.0, "{ms} ms");
}
