//! `paper-cg`: the paper's production path. NPB CG class C on 128 ranks of
//! the Gideon-300 model under GP (Algorithm-2 groups of at most 8 from a
//! profiling trace), checkpointing to local disk on a fixed interval, then
//! a quiescent restart of every group — what `gcrsim run --workload cg
//! --procs 128 --proto gp --interval 30 --restart` runs, rebuilt from
//! public calls so each layer's set-up can be timed.
//!
//! The seed moves the checkpoint interval within 30 s ± 0.5 s (whole ms);
//! the cluster's straggler draws use the CLI's fixed model seed, so the
//! simulated costs stay comparable from seed to seed.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use gcr_ckpt::{check_recovery_line, CkptConfig, CkptRuntime, Mode};
use gcr_group::{form_groups, GroupDef};
use gcr_mpi::{World, WorldOpts};
use gcr_net::{Cluster, ClusterSpec, StorageTarget, StragglerSpec};
use gcr_sim::{DetRng, Sim, SimDuration};
use gcr_trace::Tracer;
use gcr_workloads::{Cg, CgConfig, Workload};

use crate::ladder::{self, Outcome, Pins};
use crate::layers::{exec_timer, stage, timed, Counts, MsgCounter, Rung, Spans};
use crate::report::Run;
use crate::Args;

const PROCS: usize = 128;
const MAX_GROUP: usize = 8;
/// The straggler model's seed (`gcrsim run`'s default `--seed`).
const MODEL_SEED: u64 = 0x6f2c_1138;

const PINS: Pins = Pins {
    metrics: 0xc9fc_c497_3e25_b7b0,
    sim_stats: 0x1a01_a2d8_5c75_036a,
};

/// The checkpoint interval a seed selects.
fn interval(seed: u64) -> SimDuration {
    let mut rng = DetRng::new(seed).fork("paper-cg");
    SimDuration::from_millis(29_500 + rng.range_u64(0, 1_001))
}

/// LAM/MPI-era settings shared with the repository's experiment runner.
fn world_opts() -> WorldOpts {
    WorldOpts {
        compute_slice: SimDuration::from_millis(100),
        eager_threshold: 128 * 1024,
        ..WorldOpts::default()
    }
}

/// The paper's preparatory tracing run (a short CG prefix, no
/// stragglers), then Algorithm-2 group formation on its trace.
fn resolve_groups(spans: &mut Spans) -> GroupDef {
    let t = Instant::now();
    let trace = timed(&mut spans.profile, || {
        let wl = Cg::new(CgConfig {
            niter: 1,
            inner: 5,
            ..CgConfig::class_c(PROCS)
        });
        let sim = Sim::new();
        let mut spec = ClusterSpec::gideon300(PROCS);
        spec.straggler = StragglerSpec::disabled();
        let world = World::new(Cluster::new(&sim, spec), world_opts());
        let tracer = Tracer::install(&world, wl.name());
        wl.launch(&world);
        sim.run().map(|()| tracer.take())
    });
    let groups = match trace {
        Ok(trace) => timed(&mut spans.form, || form_groups(&trace, MAX_GROUP)),
        Err(d) => panic!("profiling run deadlocked: {d}"),
    };
    spans.resolve += t.elapsed().as_secs_f64();
    groups
}

fn simulate(iv: SimDuration, rung: Rung, traced: bool) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let mut spans = Spans::default();
    let wl = Cg::new(CgConfig::class_c(PROCS));
    let groups = (rung != Rung::AppOnly).then(|| Rc::new(resolve_groups(&mut spans)));
    let sink = traced.then(|| Rc::new(MsgCounter::default()));
    let (sim, world) = stage(
        &mut spans,
        ClusterSpec::gideon300(PROCS),
        world_opts(),
        &wl,
        sink.as_ref(),
        |_| {},
    );
    let mut cfg = CkptConfig::uniform(PROCS, 0, StorageTarget::Local);
    cfg.image_bytes = wl.image_bytes();
    cfg.seed = MODEL_SEED;
    let window = cfg.gc_retention_gens;
    let rt = groups.as_ref().map(|g| {
        timed(&mut spans.install, || {
            CkptRuntime::install(&world, Rc::clone(g), Mode::Blocking, cfg)
        })
    });
    let done_at = exec_timer(&sim, &world);
    let restart_err: Rc<RefCell<Option<String>>> = Rc::default();
    if let Some(rt) = &rt {
        let (rt, world, err) = (rt.clone(), world.clone(), Rc::clone(&restart_err));
        sim.spawn_named("controller", async move {
            if rung == Rung::Full {
                rt.interval_schedule(iv, iv).await;
            }
            world.wait_all_ranks().await;
            rt.shutdown();
            if rung == Rung::Full {
                if let Err(e) = rt.restart_all().await {
                    *err.borrow_mut() = Some(format!("quiescent restart failed: {e}"));
                }
            }
        });
    }
    timed(&mut spans.run, || sim.run()).map_err(|d| format!("deadlock: {d}"))?;
    if world.ranks_finished() != PROCS {
        return Err(format!("{}/{PROCS} ranks finished", world.ranks_finished()));
    }
    if let Some(e) = restart_err.borrow_mut().take() {
        return Err(e);
    }
    let mut counts = Counts::snapshot(&sim, &world, rt.as_ref(), sink.as_deref());
    if let (Some(rt), Rung::Full) = (&rt, rung) {
        if rt.metrics().waves() == 0 {
            return Err("no checkpoint wave completed".to_string());
        }
        timed(&mut spans.check, || check_recovery_line(&world, rt))
            .map_err(|v| format!("recovery line: {} ({} violation(s))", v[0].0, v.len()))?;
        let store = world.cluster().ckpt_store();
        let groups = rt.groups();
        counts.recoveries = groups.group_count() as u64;
        counts.replayed_bytes = counts.resend_bytes;
        counts.store_fallbacks = (0..groups.group_count())
            .filter(|&g| {
                store.select_restart(g, groups.members(g), window) != store.newest_attempted(g)
            })
            .count() as u64;
    }
    let m = rt.as_ref().map(|rt| rt.metrics());
    Ok(Outcome {
        wall: t0.elapsed().as_secs_f64(),
        spans,
        exec_s: done_at.get().as_secs_f64(),
        ckpt_s: m.map_or(0.0, |m| m.aggregate_ckpt_time()),
        downtime_s: m.map_or(0.0, |m| m.aggregate_restart_time()),
        digest: m.map_or(0, |m| m.digest()),
        counts,
    })
}

/// Untraced repeats of the full workload for `--seconds`.
pub fn measure(args: &Args, run: &mut Run) {
    let iv = interval(args.seed);
    run.fact("checkpoint_interval_ms", iv.as_nanos() / 1_000_000);
    ladder::measure(args, run, "paper-cg", &PINS, |rung, traced| {
        simulate(iv, rung, traced)
    });
}

/// The traced rung ladder.
pub fn traced(args: &Args, run: &mut Run, untraced_wall: f64) {
    let iv = interval(args.seed);
    let Some(mut m) = ladder::traced(run, "paper-cg", untraced_wall, |rung, traced| {
        simulate(iv, rung, traced)
    }) else {
        return;
    };
    m.insert("sim.churn_ns_per_event".into(), 0.0);
    m.insert("sim.churn_events".into(), 0.0);
    run.push_all(&m);
}
