//! A soak in a process of its own, so that no other test interns names
//! beside it: after the first full pass over the ring, serving the same
//! sources again must not grow the global symbol interner (the soak's
//! `interner-growth` invariant), and every other soak invariant holds.

use std::time::Duration;

use urk::{run_soak, SoakConfig};

#[test]
fn a_soak_through_every_lane_leaves_the_interner_flat() {
    let report = run_soak(&SoakConfig {
        duration: Duration::from_secs(3),
        jobs: 2,
        batch: 16,
        ring: 12,
        serve: true,
        report_every: Duration::ZERO,
        ..SoakConfig::default()
    })
    .expect("soak runs");
    assert!(
        report.is_clean(),
        "soak violations: {:?}",
        report.violations
    );
    let baseline = report
        .interned_after_first_pass
        .expect("every lane answered every ring source");
    assert_eq!(report.interned_len, baseline);
}
