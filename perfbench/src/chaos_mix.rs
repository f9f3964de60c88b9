//! `chaos`: a stratified range of consecutive `ChaosSpec::generate_for`
//! seeds. Each (workload, protocol) cell of the 4 × 6 matrix gets one
//! scenario per checkpoint-interval step under the disk backend and one
//! under the restore backend (k = 2); storage and the fault schedule are
//! the generator's own draws. No scenario plants the `gc_overshoot` bug.
//! Stratifying matters: the cost of a scenario spans three orders of
//! magnitude across cells and intervals, so an unstratified range moves
//! `wall_s` by tens of percent from one range to the next.
//!
//! `run_chaos` builds its world internally, so set-up and the per-layer
//! counters come from a *twin*: the same scenario rebuilt from public calls
//! without its fault schedule. The traced run proves the twin faithful by
//! matching its `Metrics::digest` against `run_chaos` on the emptied
//! schedule, scenario by scenario.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use gcr_chaos::{
    repro_command, run_chaos, ChaosBackend, ChaosProto, ChaosReport, ChaosSpec, ChaosWorkload,
};
use gcr_ckpt::{CkptConfig, CkptRuntime, Mode};
use gcr_mpi::WorldOpts;
use gcr_net::{spec::SimDurationSpec, ClusterSpec, RestoreBackend, StorageTarget};
use gcr_sim::SimDuration;

use crate::layers::{exec_timer, span_metrics, stage, timed, Counts, MsgCounter, Spans};
use crate::report::Run;
use crate::stats::fnv;
use crate::Args;

/// The protocols mixed: every `ChaosProto` except CVC, whose recovery
/// livelocks under some fault schedules (`gcrsim chaos --seed 48 --proto
/// cvc` never finishes), which would hang the run.
const PROTOS: [ChaosProto; 6] = [
    ChaosProto::Norm,
    ChaosProto::Gp,
    ChaosProto::Gp1,
    ChaosProto::Gp4,
    ChaosProto::Vcl,
    ChaosProto::Rblog,
];
/// (workload, protocol) cells: 4 × 6.
const CELLS: usize = ChaosWorkload::ALL.len() * PROTOS.len();
/// Scenarios per cell and backend.
const PER_CELL: usize = 4;
/// Scenarios per pass: half disk, half restore.
pub const SCENARIOS: usize = 2 * CELLS * PER_CELL;

/// The scenario portfolio: `ChaosSpec::generate_for` seeds `0..SCENARIOS`
/// with the stratified overrides above. `--seed` re-seeds each scenario's
/// protocol streams (stragglers, backoff jitter) and keeps its fault
/// schedule, so the portfolio's cost stays comparable from seed to seed;
/// on [`crate::DEFAULT_SEED`] scenario `j` is exactly `gcrsim chaos --seed
/// j` with the same overrides.
fn scenarios(seed: u64) -> Vec<ChaosSpec> {
    let shift = seed
        .wrapping_sub(crate::DEFAULT_SEED)
        .wrapping_mul(SCENARIOS as u64);
    (0..SCENARIOS)
        .map(|j| {
            let backend = if j < SCENARIOS / 2 {
                ChaosBackend::Disk
            } else {
                ChaosBackend::Restore
            };
            // Within each backend's half: cell-major over the replicates, so
            // every cell sees each checkpoint interval step exactly once.
            let (cell, step) = ((j % (SCENARIOS / 2)) % CELLS, (j % (SCENARIOS / 2)) / CELLS);
            let mut s = ChaosSpec::generate_for(j as u64, backend);
            s.seed = shift.wrapping_add(j as u64);
            s.workload = ChaosWorkload::ALL[cell / PROTOS.len()];
            s.proto = PROTOS[cell % PROTOS.len()];
            s.interval_ms = 400 + (800 * step / (PER_CELL - 1)) as u64;
            // VCL is the remote-server baseline, as generate_for draws it.
            if s.proto == ChaosProto::Vcl {
                s.storage = StorageTarget::Remote;
            }
            s
        })
        .collect()
}

/// The chaos harness's world: Gideon-300 with a milder straggler model.
fn cluster_spec(n: usize) -> ClusterSpec {
    let mut spec = ClusterSpec::gideon300(n);
    spec.straggler.prob = 0.02;
    spec.straggler.mean = SimDurationSpec::from_millis(200);
    spec
}

fn world_opts() -> WorldOpts {
    WorldOpts {
        compute_slice: SimDuration::from_millis(100),
        eager_threshold: 128 * 1024,
        ..WorldOpts::default()
    }
}

/// A fault-free rebuild of one scenario.
struct Twin {
    spans: Spans,
    counts: Counts,
    ckpt_s: f64,
    digest: u64,
}

fn twin(spec: &ChaosSpec, sink: Option<&Rc<MsgCounter>>) -> Result<Twin, String> {
    let mut spans = Spans::default();
    let wl = spec.workload.build();
    let n = wl.n();
    let groups = Rc::new(timed(&mut spans.resolve, || {
        spec.proto.resolve_groups(spec.workload)
    }));
    let (sim, world) = stage(
        &mut spans,
        cluster_spec(n),
        world_opts(),
        wl.as_ref(),
        sink,
        |cluster| {
            if spec.backend == ChaosBackend::Restore {
                let group_of = (0..n as u32).map(|r| groups.group_of(r)).collect();
                RestoreBackend::install(cluster, group_of, spec.replication.max(1));
            }
        },
    );
    let mode = match spec.proto {
        ChaosProto::Norm | ChaosProto::Gp | ChaosProto::Gp1 | ChaosProto::Gp4 => Mode::Blocking,
        ChaosProto::Vcl => Mode::Vcl,
        ChaosProto::Cvc => Mode::Cvc,
        ChaosProto::Rblog => Mode::RbLog,
    };
    let mut cfg = CkptConfig::uniform(n, 0, spec.storage);
    cfg.image_bytes = wl.image_bytes();
    cfg.seed = spec.seed;
    cfg.gc_overshoot = spec.gc_overshoot;
    let rt = timed(&mut spans.install, || {
        CkptRuntime::install(&world, Rc::clone(&groups), mode, cfg)
    });
    exec_timer(&sim, &world);
    {
        let (rt, world) = (rt.clone(), world.clone());
        let interval = SimDuration::from_millis(spec.interval_ms);
        sim.spawn_named("chaos-controller", async move {
            rt.interval_schedule(interval, interval).await;
            world.wait_all_ranks().await;
            rt.shutdown();
        });
    }
    timed(&mut spans.run, || sim.run()).map_err(|d| format!("twin deadlocked: {d}"))?;
    if world.ranks_finished() != n {
        return Err(format!(
            "twin: {}/{n} ranks finished",
            world.ranks_finished()
        ));
    }
    Ok(Twin {
        spans,
        counts: Counts::snapshot(&sim, &world, Some(&rt), sink.map(|s| s.as_ref())),
        ckpt_s: rt.metrics().aggregate_ckpt_time(),
        digest: rt.metrics().digest(),
    })
}

/// Run one scenario through the harness; any oracle violation fails it.
fn harness(spec: &ChaosSpec) -> Result<(ChaosReport, f64), String> {
    let t = Instant::now();
    let r = run_chaos(spec);
    let secs = t.elapsed().as_secs_f64();
    if r.passed() {
        Ok((r, secs))
    } else {
        Err(format!(
            "{} [repro: {}]",
            r.violations.join("; "),
            repro_command(spec)
        ))
    }
}

/// The summed twins of one pass.
#[derive(Default)]
struct TwinPass {
    spans: Spans,
    counts: Counts,
    ckpt_s: f64,
    digests: Vec<u64>,
}

fn twin_pass(run: &mut Run, specs: &[ChaosSpec], sink: bool) -> Option<TwinPass> {
    let mut p = TwinPass::default();
    for s in specs {
        let counter = sink.then(|| Rc::new(MsgCounter::default()));
        let t = run.attempt(&format!("chaos twin seed {}", s.seed), || {
            twin(s, counter.as_ref())
        })?;
        p.spans.add(&t.spans);
        p.counts.add(&t.counts);
        p.ckpt_s += t.ckpt_s;
        p.digests.push(t.digest);
    }
    Some(p)
}

/// The harness reports of one pass, with host seconds per scenario.
fn harness_pass(run: &mut Run, specs: &[ChaosSpec]) -> Option<Vec<(ChaosReport, f64)>> {
    let mut out = Vec::with_capacity(specs.len());
    for s in specs {
        out.push(run.attempt(&format!("chaos seed {}", s.seed), || harness(s))?);
    }
    Some(out)
}

/// Untraced repeats of the whole scenario range for `--seconds`.
pub fn measure(args: &Args, run: &mut Run) {
    let specs = scenarios(args.seed);
    run.fact("scenarios", specs.len());
    let start = Instant::now();
    let mut first: Option<(Vec<u64>, Vec<u64>, f64)> = None;
    let mut totals = (0.0, 0.0);
    let mut passes = 0;
    while args.more(start, passes) {
        passes += 1;
        let Some(tw) = twin_pass(run, &specs, false) else {
            break;
        };
        run.push("setup_s", tw.spans.setup());
        let t = Instant::now();
        let Some(reports) = harness_pass(run, &specs) else {
            break;
        };
        run.push("wall_s", t.elapsed().as_secs_f64());
        run.record_peak_rss();
        run.scenario_ms.extend(reports.iter().map(|(_, s)| s * 1e3));
        let digests: Vec<u64> = reports.iter().map(|(r, _)| r.digest()).collect();
        match &first {
            Some((d, td, _)) if *d != digests || *td != tw.digests => {
                run.fail(format!("chaos pass {passes}: outcomes differ from pass 1"));
            }
            Some(_) => {}
            None => {
                totals = (
                    reports.iter().map(|(r, _)| r.exec_s).sum(),
                    reports
                        .iter()
                        .flat_map(|(r, _)| &r.recoveries)
                        .map(|rec| rec.downtime_s)
                        .sum(),
                );
                first = Some((digests, tw.digests, tw.ckpt_s));
            }
        }
    }
    let Some((digests, twin_digests, ckpt_s)) = first else {
        return;
    };
    run.push("sim_exec_s", totals.0);
    run.push("sim_ckpt_s", ckpt_s);
    run.push("sim_downtime_s", totals.1);
    let fold = fnv(digests.iter().copied());
    let twin_fold = fnv(twin_digests.iter().copied());
    run.fact("report_digests_fnv", format!("{fold:#018x}"));
    run.fact("twin_digests_fnv", format!("{twin_fold:#018x}"));
    if args.pinned() {
        for (j, (got, pin)) in digests.iter().zip(PINS).enumerate() {
            if *got != pin {
                run.fail(format!(
                    "chaos scenario {j} (seed {}): report digest {got:#018x} differs from \
                     pinned {pin:#018x}",
                    specs[j].seed
                ));
            }
        }
        run.check_pin("chaos twin digests", twin_fold, PIN_TWINS);
    }
}

/// Faulted harness pass, emptied-schedule harness pass and traced twin
/// pass, twice; all exact outcomes must agree between the two. The twins
/// are the only instrumented pass here, so the tracing overhead compares
/// the traced twin passes with plain ones run just before each, rather
/// than with `wall_s`.
pub fn traced(args: &Args, run: &mut Run, _untraced_wall: f64) {
    let specs = scenarios(args.seed);
    let emptied: Vec<ChaosSpec> = specs
        .iter()
        .map(|s| ChaosSpec {
            schedule: Vec::new(),
            ..s.clone()
        })
        .collect();
    let (mut plain_twins, mut traced_twins) = (0.0, 0.0);
    let mut reps: Vec<(Vec<u64>, Counts, Vec<u64>)> = Vec::new();
    loop {
        let Some(faulted) = harness_pass(run, &specs) else {
            return;
        };
        let Some(quiet) = harness_pass(run, &emptied) else {
            return;
        };
        let t = Instant::now();
        if twin_pass(run, &specs, false).is_none() {
            return;
        }
        plain_twins += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let Some(tw) = twin_pass(run, &specs, true) else {
            return;
        };
        traced_twins += t.elapsed().as_secs_f64();
        for (j, ((q, _), d)) in quiet.iter().zip(&tw.digests).enumerate() {
            if q.metrics_digest != *d {
                run.fail(format!(
                    "chaos scenario {j} (seed {}): twin digest {d:#018x} differs from the \
                     emptied harness run {:#018x}",
                    specs[j].seed, q.metrics_digest
                ));
            }
        }
        let digests = faulted
            .iter()
            .chain(&quiet)
            .map(|(r, _)| r.digest())
            .collect();
        reps.push((digests, tw.counts.clone(), tw.digests.clone()));
        if reps.len() == 2 {
            if reps[0] != reps[1] {
                run.fail("chaos: two traced runs gave different counts".to_string());
            }
            let overhead = (traced_twins - plain_twins) / plain_twins * 100.0;
            return traced_metrics(run, &faulted, &quiet, &tw, overhead);
        }
    }
}

/// The per-layer metrics of one traced repetition.
fn traced_metrics(
    run: &mut Run,
    faulted: &[(ChaosReport, f64)],
    quiet: &[(ChaosReport, f64)],
    tw: &TwinPass,
    trace_overhead_pct: f64,
) {
    let mut counts = tw.counts.clone();
    // Fault-path facts only the harness reports can give.
    counts.store_fallbacks = 0;
    counts.store_loads = 0;
    counts.recoveries = 0;
    counts.replayed_bytes = 0;
    for (r, _) in faulted {
        for rec in &r.recoveries {
            counts.recoveries += 1;
            counts.store_loads += rec.ranks as u64;
            counts.store_fallbacks += u64::from(rec.fell_back);
            counts.replayed_bytes += rec.replayed_bytes;
        }
        counts.restore_peer_reads += r.peer_reads;
        counts.restore_fallback_reads += r.fallback_reads;
        counts.events_applied += r.events_applied;
        counts.events_skipped += r.events_skipped;
        counts.violations += r.violations.len() as u64;
    }
    let mut m = BTreeMap::new();
    counts.metrics(&mut m);
    // No app-only or hooks rung here (the twin is the base rung), so
    // `ckpt.hooks_s` and `ckpt.waves_restart_s` read 0.
    span_metrics(&tw.spans, tw.spans.run, tw.spans.run, &mut m);
    let per = |n: u64| tw.spans.run * 1e9 / n.max(1) as f64;
    m.insert("sim.ns_per_event".into(), per(tw.counts.events()));
    m.insert("mpi.ns_per_msg".into(), per(tw.counts.msgs));
    m.insert("sim.churn_ns_per_event".into(), 0.0);
    m.insert("sim.churn_events".into(), 0.0);
    let run_s: f64 = faulted.iter().map(|(_, s)| s).sum();
    let quiet_s: f64 = quiet.iter().map(|(_, s)| s).sum();
    m.insert("chaos.run_s".into(), run_s);
    m.insert("chaos.fault_path_s".into(), run_s - quiet_s);
    m.insert("trace_overhead_pct".into(), trace_overhead_pct);
    run.push_all(&m);
}

/// `ChaosReport::digest` of every scenario on [`crate::DEFAULT_SEED`].
#[rustfmt::skip]
const PINS: [u64; SCENARIOS] = [
    0x5ff4_cb20_bec7_93a4, 0x862d_acf4_5c66_2887, 0x1296_97ee_dad4_f764,
    0xa45a_b833_6438_faf2, 0x175a_e7fb_d274_598b, 0xf3e8_87db_4d6c_f6c2,
    0xb6e7_76d0_f75d_64b2, 0x1fb0_9004_62ec_41d4, 0x6186_c9a2_5088_ca55,
    0xcf14_331f_3455_0a51, 0x42cf_50a0_cc0b_c4c0, 0x7999_f5c5_0d95_d008,
    0x3e27_2a58_1828_e95b, 0xe2dc_bccc_b055_dcbd, 0x2384_d63a_4c22_fd7b,
    0x8f24_472c_0341_badb, 0x03dc_a39c_5052_b2d3, 0x81d7_2e3b_e91d_14b9,
    0xfd21_2582_7ea8_497b, 0x2484_8b01_b7a0_47e7, 0xb77b_f499_792d_668b,
    0xcdb5_01fc_d2b9_480b, 0x34c4_e940_8722_4c09, 0xe7d6_a08d_68ad_b6b5,
    0xde87_b923_2b42_d0de, 0xc39e_12e4_520a_025d, 0xd2c1_2b1f_9b33_9180,
    0x7483_b1c2_6c6a_6f5a, 0xe71e_1126_ad45_e7ec, 0xbaf6_9841_9fdf_1426,
    0x3d17_61a3_02a8_2b4c, 0xc06e_fa5a_c685_91b3, 0x08b4_8a5a_4a0a_7034,
    0x7745_3626_ba6c_5962, 0x9f80_a657_9c94_69ea, 0x4da0_eab1_1f62_4582,
    0x4e8b_5fd8_e9bd_f52a, 0xe965_a6f6_9502_4e54, 0x4553_5b35_a41c_c4ec,
    0xa7f9_b6db_7bf3_141a, 0xa4e9_d435_ed76_3910, 0xedf2_82e5_0b9d_d6a5,
    0xda88_d97a_65e1_ff01, 0x8708_5e77_d651_d38e, 0x195b_2c91_a6da_3cbc,
    0x17b1_cac6_e3dd_50a7, 0xee48_3f44_087b_7d5f, 0x0701_710e_650e_f458,
    0x0426_90d2_fe0c_2235, 0x2e58_748a_410e_d709, 0x0814_c2cd_e326_9f5a,
    0xe374_42b4_16b9_2f3e, 0xa32d_279a_5062_32e1, 0x4d8b_48c1_b6a0_32db,
    0x6346_5364_93a8_d53a, 0xe4bf_7099_f306_e5c8, 0x3be4_5cf2_a96f_a2e7,
    0x701e_3682_558b_a400, 0x38e8_57aa_abe0_3040, 0xf24a_a4f3_5c38_9785,
    0xd78f_6dfa_41f5_6225, 0xcf8d_9858_a1c3_2b1d, 0xca0c_c426_40c0_a008,
    0x8f3d_dbfb_dda8_c0a6, 0xe01b_cf9b_4b63_a83c, 0xe72e_34f8_3fe3_41cd,
    0xa8c9_25bd_182e_d34e, 0x3f42_0566_ad87_fec0, 0x470e_481b_5758_034d,
    0x6ddc_f914_9e94_bdc5, 0xbb69_c2f1_5c65_e132, 0x0195_622e_3c14_7943,
    0x139e_0ca3_649c_8a42, 0xe094_2d0e_97b3_1c12, 0x52ce_04c8_e0bb_44b4,
    0x8373_d53c_00f5_5eef, 0x0771_5fab_3f9c_a40b, 0xfcf8_7eb2_a3df_afcc,
    0x6a54_7190_bc38_918c, 0x52d4_dd0b_27aa_143d, 0x5558_7e58_4168_c8d9,
    0x3ad7_0b1d_75db_e11b, 0xfa52_1915_fc41_de48, 0xfc15_fcc4_2756_1a27,
    0x69ba_6276_9b76_85c3, 0x5be8_0249_f7d6_0fde, 0x3a58_ee49_930a_356b,
    0xee6a_aa76_dcde_2b02, 0x2670_5666_0736_ac7c, 0xce2c_6032_a21d_610e,
    0x240a_6fe7_e17b_32cc, 0x61f9_fe4d_f4c3_83f9, 0xe27c_7951_9007_8556,
    0x3f9b_bd5d_3854_49a0, 0xfa2f_8722_7b71_beb2, 0x9907_93c0_3510_5c85,
    0xeaa2_df23_25a8_a10a, 0x1bb6_7ecc_372f_a167, 0x803b_9ed8_1b26_cde0,
    0x04be_5ded_e749_89fb, 0xac79_98ac_639b_4456, 0xb11f_4bca_a92a_b6e9,
    0x861c_fd6e_a6cc_6560, 0x8193_0f37_6026_8d8c, 0xb801_4c8c_f076_2d9f,
    0x5669_2cb6_4498_89a0, 0x2491_c19b_ac91_985b, 0x0be5_ba7f_8eb8_db93,
    0xf781_5f30_c5ba_118a, 0x5be7_fc4b_802b_96eb, 0xd3c7_d9f3_0123_6ee0,
    0xe927_7c78_35f9_a7e5, 0x1bfc_42ea_fd76_e6ec, 0xb5d6_9eb1_655f_f3bb,
    0x9a42_5b80_3ede_2b0d, 0xa4fa_fc9b_9e51_0918, 0x88d1_e1aa_92c1_5e9f,
    0x2c58_6062_11f1_b941, 0xee8b_e1bf_706c_5ab4, 0x7746_ec2a_28c3_ca07,
    0xd73f_4714_ba5d_4037, 0x13cc_7e72_16bc_6785, 0xb9e6_6706_5b6f_aa1a,
    0x8b8f_656e_7494_3192, 0x7687_f1e8_2b6f_eb1d, 0x9460_114c_f050_da82,
    0x184e_8a26_b99e_a580, 0xf281_957a_16f0_62b3, 0xd0e4_9faa_d66a_c4e4,
    0x263e_7cd9_8c25_70c2, 0xa3e6_b0d1_ead9_7676, 0x008e_7b5e_19f4_e97e,
    0x0178_8ae7_651c_e5cc, 0x7094_19d9_2b7d_452f, 0xec10_6dbc_f998_3c3e,
    0x9463_3fb2_ee32_c9b1, 0x2807_4e37_9ee7_f107, 0xb539_7f0f_8312_d645,
    0xa630_9b98_33e9_2f82, 0x38bc_b58b_1f64_b507, 0x97f1_ba00_5868_e5be,
    0x849a_111f_96f1_b04f, 0x2571_6cdc_a923_4d2a, 0x7f24_af48_46f5_22f7,
    0x990d_90e0_808f_4d42, 0x8f8f_5df3_f2b0_3b6d, 0x9415_f86a_3639_5ae3,
    0xb85a_e0bb_47df_e96c, 0x7d1e_ae70_2c61_7b3f, 0xc4eb_b1f5_ad4d_b015,
    0x8cd0_12da_511a_30ca, 0x8b89_44c3_ff8a_386a, 0xc10d_0eb8_8021_9f12,
    0xd48e_1ff4_d27a_7e2a, 0xcb4f_7742_a8b5_a675, 0xbeca_629c_bc3d_2e07,
    0xae52_5417_3dde_ed65, 0x8ab3_82ae_4ac9_0f4e, 0x8c85_1760_63bb_2ded,
    0x663c_e94f_21c3_3733, 0xee66_62c6_6926_1b8f, 0x6d2d_223f_5427_7c24,
    0xfdaa_c737_8658_830b, 0x25a4_15d9_b48e_1266, 0x453c_05d7_1a0f_883d,
    0xfd11_db34_3e79_8c7c, 0x7a91_9fb1_2d39_26ad, 0xcff3_7af0_56bb_c991,
    0x2f25_29ca_a2dc_6cc6, 0xb149_529e_72bb_b1dc, 0x03ff_6be7_24ef_7ec4,
    0xd9cf_5a87_0e8f_e0c0, 0x0fcf_f896_cdf5_e57b, 0x4a2e_3abe_4d14_b51e,
    0xf6bc_813b_c309_0bca, 0xca9a_56d8_df74_3f81, 0x4417_ff81_5794_28d9,
    0xd83f_d9e9_73c8_8922, 0x92df_97d6_00ef_dae6, 0xf409_d80c_ba60_de22,
    0x2bc8_147c_4f3f_cca8, 0x5911_15c9_28c8_d871, 0xd978_2f27_bacd_4bda,
    0xbbad_adda_e030_bb96, 0x91a1_0779_27d5_a242, 0x8ded_0a16_e39d_df0d,
    0xb966_66f9_6e7a_0553, 0x5454_0dfa_c2f5_ceaf, 0xa479_f04d_fd2d_e58b,
    0x336b_22e8_aa66_4bc7, 0x825e_d2a6_2a80_0668, 0x135e_6366_1a8c_ab68,
];
/// FNV fold of the twins' `Metrics::digest`s on [`crate::DEFAULT_SEED`].
const PIN_TWINS: u64 = 0xf1ec_339d_ca33_8302;
