//! `scale-hpl`: the repository's scale scenario (`tests/scale.rs`) at
//! 25,000 ranks. A one-panel HPL skeleton on a 125×200 grid, contiguous
//! groups of 8 under blocking GP, one committed checkpoint wave, then one
//! group crashes and recovers group-locally while the rest of the run
//! continues. Default executor (`Sim::new()`), no shard map.
//!
//! The seed sizes the per-rank checkpoint image within 1 MiB + 0–1 %. The
//! wave time and the crashed group stay fixed: moving either flips the run
//! between modes (the group's position alone changes the downtime by
//! ~80 %, the wave time whether the app finishes before the recovery).
//! Like `tests/scale.rs`, the run skips
//! the O(n²) recovery-line sweep, which at this width would dwarf the
//! simulation; completion, the committed wave and the recovery's own
//! checks still gate every pass.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use gcr_ckpt::{CkptConfig, CkptRuntime, Mode};
use gcr_group::contiguous;
use gcr_mpi::{Rank, WorldOpts};
use gcr_net::{ClusterSpec, StorageTarget};
use gcr_sim::{DetRng, SimDuration, SimTime};
use gcr_workloads::{Hpl, HplConfig};

use crate::churn;
use crate::ladder::{self, Outcome, Pins};
use crate::layers::{exec_timer, stage, timed, Counts, MsgCounter, Rung, Spans};
use crate::report::Run;
use crate::Args;

const P: usize = 125;
const Q: usize = 200;
const RANKS: usize = P * Q;
const GROUP_RANKS: usize = 8;
const GROUPS: usize = RANKS / GROUP_RANKS;

const PINS: Pins = Pins {
    metrics: 0xc8e6_c2d9_d849_59fc,
    sim_stats: 0x2fe6_3dfe_fad6_26d1,
};

/// The group that dies (ranks 9,872..9,880).
const CRASHED_GROUP: usize = 1_234;

/// The per-rank checkpoint image size for a seed.
fn image_bytes(seed: u64) -> u64 {
    let mut rng = DetRng::new(seed).fork("scale-hpl");
    (1 << 20) + rng.range_u64(0, (1 << 20) / 100 + 1)
}

/// One panel on the full grid: real row/column communicators and ring
/// broadcasts at width, with the matrix cut down so traffic dominates.
fn hpl() -> Hpl {
    Hpl::new(HplConfig {
        n_matrix: 120,
        nb: 120,
        p: P,
        q: Q,
        efficiency: 0.75,
        pivot_rounds: 1,
        base_mem_bytes: 1 << 20,
    })
}

fn simulate(image: u64, rung: Rung, traced: bool) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let mut spans = Spans::default();
    let wl = hpl();
    let sink = traced.then(|| Rc::new(MsgCounter::default()));
    let (sim, world) = stage(
        &mut spans,
        ClusterSpec::test(RANKS),
        WorldOpts::default(),
        &wl,
        sink.as_ref(),
        |_| {},
    );
    let rt = (rung != Rung::AppOnly).then(|| {
        let groups = timed(&mut spans.resolve, || Rc::new(contiguous(RANKS, GROUPS)));
        let cfg = CkptConfig::uniform(RANKS, image, StorageTarget::Local).deterministic();
        timed(&mut spans.install, || {
            CkptRuntime::install(&world, groups, Mode::Blocking, cfg)
        })
    });
    let done_at = exec_timer(&sim, &world);
    let outcome: Rc<RefCell<Result<f64, String>>> = Rc::new(RefCell::new(Ok(0.0)));
    let recovery_bytes = Rc::new(std::cell::Cell::new(0u64));
    if let Some(rt) = &rt {
        let (sim2, world, rt) = (sim.clone(), world.clone(), rt.clone());
        let (out, replayed) = (Rc::clone(&outcome), Rc::clone(&recovery_bytes));
        sim.spawn_named("scale-controller", async move {
            if rung == Rung::Full {
                let members = rt.groups().members(CRASHED_GROUP).to_vec();
                let committed = rt.single_checkpoint_at(SimTime::from_millis(2)).await;
                if !committed {
                    *out.borrow_mut() = Err("the checkpoint wave did not commit".into());
                }
                for &m in &members {
                    world.halt(Rank(m));
                }
                while rt.waves_in_flight() > 0 {
                    sim2.sleep(SimDuration::from_micros(200)).await;
                }
                match rt.recover_group(CRASHED_GROUP).await {
                    Ok(st) if st.ranks_restarted != GROUP_RANKS => {
                        *out.borrow_mut() = Err(format!("{} ranks restarted", st.ranks_restarted));
                    }
                    Ok(st) if st.generation.is_none() => {
                        *out.borrow_mut() = Err("restart ignored the committed wave".into());
                    }
                    Ok(st) => {
                        replayed.set(st.replayed_into_group_bytes);
                        if committed {
                            *out.borrow_mut() = Ok(st.downtime.as_secs_f64());
                        }
                    }
                    Err(e) => *out.borrow_mut() = Err(format!("group recovery failed: {e}")),
                }
                for &m in &members {
                    world.resume(Rank(m));
                }
            }
            world.wait_all_ranks().await;
            rt.shutdown();
        });
    }
    timed(&mut spans.run, || sim.run()).map_err(|d| format!("deadlock: {d}"))?;
    if world.ranks_finished() != RANKS {
        return Err(format!("{}/{RANKS} ranks finished", world.ranks_finished()));
    }
    let downtime_s = outcome.replace(Ok(0.0))?;
    let mut counts = Counts::snapshot(&sim, &world, rt.as_ref(), sink.as_deref());
    if rung == Rung::Full {
        counts.recoveries = 1;
        counts.replayed_bytes = recovery_bytes.get();
    }
    let m = rt.as_ref().map(|rt| rt.metrics());
    if rung == Rung::Full && m.map_or(0, |m| m.waves()) != 1 {
        return Err("expected exactly one checkpoint wave".to_string());
    }
    Ok(Outcome {
        wall: t0.elapsed().as_secs_f64(),
        spans,
        exec_s: done_at.get().as_secs_f64(),
        ckpt_s: m.map_or(0.0, |m| m.aggregate_ckpt_time()),
        downtime_s,
        digest: m.map_or(0, |m| m.digest()),
        counts,
    })
}

/// Untraced repeats of the full workload for `--seconds`.
pub fn measure(args: &Args, run: &mut Run) {
    let image = image_bytes(args.seed);
    run.fact("image_bytes", image);
    ladder::measure(args, run, "scale-hpl", &PINS, |rung, traced| {
        simulate(image, rung, traced)
    });
}

/// The traced rung ladder plus the executor-only churn rung.
pub fn traced(args: &Args, run: &mut Run, untraced_wall: f64) {
    let image = image_bytes(args.seed);
    let Some(mut m) = ladder::traced(run, "scale-hpl", untraced_wall, |rung, traced| {
        simulate(image, rung, traced)
    }) else {
        return;
    };
    let Some(c) = run.attempt("executor churn", churn::run) else {
        return;
    };
    run.check_pin("executor churn digest", c.digest, churn::PIN);
    m.insert("sim.churn_events".into(), c.events as f64);
    m.insert(
        "sim.churn_ns_per_event".into(),
        c.run_s * 1e9 / c.events as f64,
    );
    run.push_all(&m);
}
