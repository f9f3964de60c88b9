//! The measurement loop and the traced rung ladder shared by the two
//! single-world workloads (`paper-cg`, `scale-hpl`).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::layers::{span_metrics, Counts, Rung, Spans};
use crate::report::Run;
use crate::stats::fnv;
use crate::Args;

/// One simulated scenario and what it measured.
pub struct Outcome {
    /// Host seconds for the whole scenario, set-up included.
    pub wall: f64,
    pub spans: Spans,
    pub counts: Counts,
    /// Simulated application completion time.
    pub exec_s: f64,
    /// Simulated aggregate per-rank checkpoint time.
    pub ckpt_s: f64,
    /// Simulated recovery time (aggregate restart or group downtime).
    pub downtime_s: f64,
    /// `Metrics::digest` (0 without a runtime).
    pub digest: u64,
}

impl Outcome {
    /// Exact facts that must repeat on every run of the same scenario.
    fn fingerprint(&self) -> (u64, Counts, [u64; 3]) {
        let bits = [self.exec_s, self.ckpt_s, self.downtime_s].map(f64::to_bits);
        (self.digest, self.counts.clone(), bits)
    }

    /// FNV fold of the exact executor counts (polls, fired, calls, merges).
    pub fn sim_stats_digest(&self) -> u64 {
        let c = &self.counts;
        fnv([c.polls, c.events_fired, c.calls_run, c.merges])
    }
}

/// Digests pinned on [`crate::DEFAULT_SEED`].
pub struct Pins {
    /// `Metrics::digest` of the full run.
    pub metrics: u64,
    /// [`Outcome::sim_stats_digest`] of the full run.
    pub sim_stats: u64,
}

/// Repeat the full workload, untraced, for `--seconds` (at least three
/// times); every pass must reproduce the first exactly.
pub fn measure(
    args: &Args,
    run: &mut Run,
    name: &str,
    pins: &Pins,
    mut simulate: impl FnMut(Rung, bool) -> Result<Outcome, String>,
) {
    let start = Instant::now();
    let mut first: Option<Outcome> = None;
    let mut passes = 0;
    while args.more(start, passes) {
        passes += 1;
        let Some(o) = run.attempt(name, || simulate(Rung::Full, false)) else {
            break;
        };
        run.record_peak_rss();
        run.push("wall_s", o.wall);
        run.push("setup_s", o.spans.setup());
        run.scenario_ms.push(o.wall * 1e3);
        match &first {
            Some(f) if f.fingerprint() != o.fingerprint() => {
                run.fail(format!("{name} pass {passes}: outcome differs from pass 1"));
            }
            Some(_) => {}
            None => first = Some(o),
        }
    }
    let Some(f) = first else { return };
    run.push("sim_exec_s", f.exec_s);
    run.push("sim_ckpt_s", f.ckpt_s);
    run.push("sim_downtime_s", f.downtime_s);
    run.fact("metrics_digest", format!("{:#018x}", f.digest));
    run.fact(
        "sim_stats_digest",
        format!("{:#018x}", f.sim_stats_digest()),
    );
    if args.pinned() {
        run.check_pin(&format!("{name} metrics digest"), f.digest, pins.metrics);
        run.check_pin(
            &format!("{name} sim stats"),
            f.sim_stats_digest(),
            pins.sim_stats,
        );
    }
}

/// Run the rungs (app only, runtime without a schedule, full) with the
/// counting sink, twice; the counts must agree. Returns the per-layer
/// metrics of the faster repetition, or `None` if a rung failed.
pub fn traced(
    run: &mut Run,
    name: &str,
    untraced_wall: f64,
    mut simulate: impl FnMut(Rung, bool) -> Result<Outcome, String>,
) -> Option<BTreeMap<String, f64>> {
    let mut reps: Vec<Vec<Outcome>> = Vec::new();
    for _ in 0..2 {
        let mut rungs = Vec::new();
        for rung in [Rung::AppOnly, Rung::Hooks, Rung::Full] {
            rungs.push(run.attempt(&format!("{name} traced {rung:?}"), || simulate(rung, true))?);
        }
        reps.push(rungs);
    }
    let prints = |rungs: &[Outcome]| rungs.iter().map(Outcome::fingerprint).collect::<Vec<_>>();
    if prints(&reps[0]) != prints(&reps[1]) {
        run.fail(format!("{name}: two traced runs gave different counts"));
    }
    let best = reps
        .into_iter()
        .min_by(|a, b| a[2].wall.total_cmp(&b[2].wall))
        .expect("two repetitions ran");
    let [app, hooks, full]: [Outcome; 3] =
        best.try_into().ok().expect("three rungs per repetition");
    let mut m = BTreeMap::new();
    full.counts.metrics(&mut m);
    span_metrics(&full.spans, app.spans.run, hooks.spans.run, &mut m);
    // Host cost per executor event and per application message, from the
    // app-only rung, where no checkpoint work mixes in.
    let per = |n: u64| app.spans.run * 1e9 / n.max(1) as f64;
    m.insert("sim.ns_per_event".into(), per(app.counts.events()));
    m.insert("mpi.ns_per_msg".into(), per(app.counts.msgs));
    m.insert("chaos.run_s".into(), 0.0);
    m.insert("chaos.fault_path_s".into(), 0.0);
    m.insert(
        "trace_overhead_pct".into(),
        (full.wall - untraced_wall) / untraced_wall * 100.0,
    );
    Some(m)
}
