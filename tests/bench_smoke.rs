//! Bench smoke test (tier-1): the executor still produces the exact
//! chaos digests pinned on the original single-heap executor, and the
//! committed `BENCH_protocols.json` and `BENCH_recovery.json` trajectories
//! still parse against their schemas and keep their acceptance bars.

use gcr_chaos::{parse_schedule, run_chaos, ChaosBackend, ChaosProto, ChaosSpec, ChaosWorkload};
use gcr_json::Json;
use gcr_net::StorageTarget;

/// Digests of the pinned scenario (seed 0xD1CE, ring workload, local
/// storage, 700 ms interval, `crash:g1@2500`). The blocking family and
/// VCL were captured on the single-heap executor before the event arena
/// and the CallInit/CallRun two-step replaced task-per-message delivery;
/// CVC and receiver-based logging were captured on the commit before
/// their restart and two-phase-commit bodies were merged into the
/// blocking family's.
const PINNED: [(ChaosProto, u64); 7] = [
    (ChaosProto::Norm, 0xaa0753172d701950),
    (ChaosProto::Gp, 0x3638182098136693),
    (ChaosProto::Gp1, 0x85db100133b6753e),
    (ChaosProto::Gp4, 0x994ab282c0502e59),
    (ChaosProto::Vcl, 0x3b1eea16a89df404),
    (ChaosProto::Cvc, 0x63bd4fee771a7ce2),
    (ChaosProto::Rblog, 0x7530a15a2a6cc0e0),
];

/// The pinned scenario with `schedule` in place of its crash.
fn pinned_spec(proto: ChaosProto, schedule: &str) -> ChaosSpec {
    ChaosSpec {
        seed: 0xD1CE,
        workload: ChaosWorkload::Ring,
        proto,
        storage: StorageTarget::Local,
        interval_ms: 700,
        gc_overshoot: 0,
        schedule: parse_schedule(schedule).expect("literal schedule parses"),
        backend: ChaosBackend::Disk,
        replication: 2,
    }
}

#[test]
fn chaos_digests_match_the_pinned_values() {
    for (proto, want) in PINNED {
        let got = run_chaos(&pinned_spec(proto, "crash:g1@2500")).digest();
        assert_eq!(
            got,
            want,
            "{}: digest {got:#018x} != pin {want:#018x} — \
             the executor changed observable behavior",
            proto.label()
        );
    }
}

/// Digests of the pinned scenario with a crash trap armed on group 0 at
/// each phase (`crashckpt:g0p<phase>@1500;crash:g0@2600`): the next wave
/// fails before, halfway through or after its image write, and the crash
/// restarts from the fallback generation. These cover the crash-trap
/// image write and the coordinator's commit decision shared by the
/// blocking and CVC waves. Captured on the commit before that code was
/// shared.
const TRAP_PINNED: [(ChaosProto, u8, u64); 6] = [
    (ChaosProto::Gp, 0, 0x8cd40006453d5e04),
    (ChaosProto::Gp, 1, 0xc543b77fcc5ee400),
    (ChaosProto::Gp, 2, 0x5fd59aa04ab7a37f),
    (ChaosProto::Cvc, 0, 0x67c94d9b9eaa4be3),
    (ChaosProto::Cvc, 1, 0xf99c00920b8abd20),
    (ChaosProto::Cvc, 2, 0x9c331e265c271e34),
];

#[test]
fn crash_trap_digests_match_the_pinned_values() {
    for (proto, phase, want) in TRAP_PINNED {
        let schedule = format!("crashckpt:g0p{phase}@1500;crash:g0@2600");
        let report = run_chaos(&pinned_spec(proto, &schedule));
        assert!(
            report.passed(),
            "{} {schedule}: {:?}",
            proto.label(),
            report.violations
        );
        assert!(
            report.recoveries.iter().any(|r| r.fell_back),
            "{} {schedule}: the trap never landed",
            proto.label()
        );
        let got = report.digest();
        assert_eq!(
            got,
            want,
            "{} {schedule}: digest {got:#018x} != pin {want:#018x}",
            proto.label()
        );
    }
}

/// The committed protocol-crossover grid (`BENCH_protocols.json`, written
/// by the `protocol_crossover` bin) parses, covers the full protocol ×
/// workload × failure-rate grid, includes both protocols added by the
/// zoo (CVC and receiver-based logging), and keeps the bookkeeping
/// coherent: a point with no recoveries reports zero downtime and zero
/// replayed bytes, and crash counts match recovery counts.
#[test]
fn committed_protocol_crossover_validates() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_protocols.json");
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path} must be committed alongside the protocol zoo: {e}"));
    let doc = Json::parse(&text).expect("committed BENCH_protocols.json parses");
    assert_eq!(
        doc.str_field("schema").expect("schema"),
        "gcr-bench-protocols/v1"
    );
    let protocols: Vec<String> = doc
        .arr_field("protocols")
        .expect("protocols array")
        .iter()
        .map(|p| p.as_str().expect("protocol label").to_string())
        .collect();
    for required in ["cvc", "rblog"] {
        assert!(
            protocols.iter().any(|p| p == required),
            "crossover grid must include `{required}`"
        );
    }
    let points = doc.arr_field("points").expect("points array");
    // Full grid: every swept protocol appears at every failure rate in
    // every workload, so each protocol contributes points ≡ 0 (mod 3).
    assert!(
        points.len() >= protocols.len() * 3,
        "grid needs ≥ 3 failure rates per protocol"
    );
    for proto in &protocols {
        let mine: Vec<_> = points
            .iter()
            .filter(|p| p.str_field("proto").expect("proto") == *proto)
            .collect();
        assert!(
            !mine.is_empty() && mine.len() % 3 == 0,
            "`{proto}`: expected a full 3-rate grid, got {} point(s)",
            mine.len()
        );
        assert!(
            mine.iter()
                .any(|p| p.u64_field("crashes").expect("crashes") == 0)
                && mine
                    .iter()
                    .any(|p| p.u64_field("crashes").expect("crashes") >= 2),
            "`{proto}`: grid must span crash-free through multi-crash rates"
        );
    }
    for p in points {
        assert!(p.f64_field("exec_s").expect("exec_s") > 0.0);
        let recoveries = p.u64_field("recoveries").expect("recoveries");
        let downtime = p.f64_field("downtime_s").expect("downtime_s");
        let replayed = p.u64_field("replayed_bytes").expect("replayed_bytes");
        assert_eq!(
            recoveries,
            p.u64_field("crashes").expect("crashes"),
            "every injected crash must surface as exactly one recovery"
        );
        if recoveries == 0 {
            assert_eq!(downtime, 0.0, "no recovery, yet nonzero downtime");
            assert_eq!(replayed, 0, "no recovery, yet bytes were replayed");
        } else {
            assert!(downtime > 0.0, "recovery with zero downtime");
        }
    }
}

/// The committed recovery-latency trajectory (`BENCH_recovery.json`,
/// written by the `recovery_latency` bin) parses, pairs every world size
/// as (remote, restore), and preserves the acceptance bar: peer-memory
/// recovery is strictly faster than the remote-server path and actually
/// served restart reads from peers.
#[test]
fn committed_recovery_trajectory_validates() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_recovery.json");
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path} must be committed alongside the backend: {e}"));
    let doc = Json::parse(&text).expect("committed BENCH_recovery.json parses");
    assert_eq!(
        doc.str_field("schema").expect("schema"),
        "gcr-bench-recovery/v1"
    );
    assert!(doc.u64_field("replication").expect("replication") >= 1);
    let points = doc.arr_field("points").expect("points array");
    assert!(
        points.len() >= 4,
        "need at least two (remote, restore) pairs"
    );
    assert_eq!(points.len() % 2, 0, "points must pair remote with restore");
    for pair in points.chunks(2) {
        let (remote, restore) = (&pair[0], &pair[1]);
        assert_eq!(remote.str_field("backend").expect("backend"), "remote");
        assert_eq!(restore.str_field("backend").expect("backend"), "restore");
        let procs = remote.u64_field("procs").expect("procs");
        assert_eq!(
            restore.u64_field("procs").expect("procs"),
            procs,
            "pair mismatch"
        );
        let remote_s = remote.f64_field("downtime_s").expect("remote downtime");
        let restore_s = restore.f64_field("downtime_s").expect("restore downtime");
        assert!(
            restore_s < remote_s,
            "{procs} procs: restore {restore_s}s not below remote {remote_s}s"
        );
        assert!(
            restore.u64_field("peer_reads").unwrap_or(0) > 0,
            "{procs} procs: restore point never read from peer memory"
        );
    }
}
