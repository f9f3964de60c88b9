//! Determinism regression gate: the same chaos scenario, run twice in the
//! same process, must produce bit-identical oracle reports for every
//! protocol. This is the dynamic counterpart of `gcr-lint`'s static
//! rules (D01/D02): if a hash-ordered iteration or wall-clock read slips
//! past the analyzer, the digest comparison catches it here before it
//! corrupts replay, shrinking, or a published figure.

use gcr_chaos::{parse_schedule, run_chaos, ChaosBackend, ChaosProto, ChaosSpec};
use gcr_net::StorageTarget;

/// A fixed scenario per protocol: ring workload (fast), one mid-run group
/// crash, local storage. The schedule exercises the full recovery path —
/// halt, volume exchange, replay — where nondeterminism likes to hide.
fn spec_for(proto: ChaosProto) -> ChaosSpec {
    ChaosSpec {
        seed: 0xD1CE,
        workload: gcr_chaos::ChaosWorkload::Ring,
        proto,
        storage: StorageTarget::Local,
        interval_ms: 700,
        gc_overshoot: 0,
        schedule: parse_schedule("crash:g1@2500").expect("literal schedule parses"),
        backend: ChaosBackend::Disk,
        replication: 2,
    }
}

/// The conformance harness: run the protocol's fixed scenario twice,
/// require the oracles to hold, and require the two reports to be
/// bit-identical. Iterating [`ChaosProto::ALL`] means a protocol added to
/// the chaos vocabulary is enrolled here automatically — there is no
/// separate registration step to forget.
fn assert_conformant(proto: ChaosProto) {
    let spec = spec_for(proto);
    let a = run_chaos(&spec);
    let b = run_chaos(&spec);
    assert!(
        a.passed(),
        "{}: oracle violation(s): {:?}",
        proto.label(),
        a.violations
    );
    assert_eq!(
        a.digest(),
        b.digest(),
        "{}: same spec, different report digest — a nondeterministic \
         input leaked into the simulation",
        proto.label()
    );
    // The digest covers the dumped report; compare the dumps too so a
    // failure here prints the actual divergence.
    assert_eq!(
        a.to_json().pretty(),
        b.to_json().pretty(),
        "{}: reports diverged",
        proto.label()
    );
}

#[test]
fn every_protocol_is_bit_deterministic_under_chaos() {
    for proto in ChaosProto::ALL {
        assert_conformant(proto);
    }
}
