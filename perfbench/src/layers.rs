//! Per-layer instruments, all from outside the library: host spans around
//! calls into each crate's public functions, a counting `TraceSink`, and a
//! snapshot of every public counter a finished simulation exposes.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use gcr_ckpt::CkptRuntime;
use gcr_mpi::{Envelope, Rank, TraceSink, World, WorldOpts};
use gcr_net::{Cluster, ClusterSpec};
use gcr_sim::{Sim, SimTime};
use gcr_workloads::Workload;

/// Run `f`, adding its host duration in seconds to `acc`.
pub fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let r = f();
    *acc += t.elapsed().as_secs_f64();
    r
}

/// Host seconds spent in each layer's calls for one or more simulations.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    /// `gcr-trace`: the profiling run under a `Tracer`.
    pub profile: f64,
    /// `gcr-group`: Algorithm-2 formation from the profile.
    pub form: f64,
    /// `gcr-group` (+ `gcr-trace` for GP): the whole group resolution.
    pub resolve: f64,
    /// `gcr-net`: `Sim::new` + `Cluster::new` (+ backend install).
    pub cluster_new: f64,
    /// `gcr-mpi`: `World::new`.
    pub world_new: f64,
    /// `gcr-workloads`: `Workload::launch`.
    pub launch: f64,
    /// `gcr-ckpt`: `CkptRuntime::install`.
    pub install: f64,
    /// `gcr-sim`: `Sim::run`.
    pub run: f64,
    /// `gcr-ckpt`: `check_recovery_line`.
    pub check: f64,
}

impl Spans {
    /// Everything before `Sim::run`: the `setup_s` metric.
    pub fn setup(&self) -> f64 {
        self.resolve + self.cluster_new + self.world_new + self.launch + self.install
    }

    /// Element-wise sum.
    pub fn add(&mut self, o: &Spans) {
        self.profile += o.profile;
        self.form += o.form;
        self.resolve += o.resolve;
        self.cluster_new += o.cluster_new;
        self.world_new += o.world_new;
        self.launch += o.launch;
        self.install += o.install;
        self.run += o.run;
        self.check += o.check;
    }
}

/// Counts application messages and bytes at the MPI trace boundary.
#[derive(Default)]
pub struct MsgCounter {
    msgs: Cell<u64>,
    bytes: Cell<u64>,
}

impl TraceSink for MsgCounter {
    fn trace_send(&self, env: &Envelope) {
        self.msgs.set(self.msgs.get() + 1);
        self.bytes.set(self.bytes.get() + env.bytes);
    }

    fn trace_recv(&self, _env: &Envelope) {}
}

/// Which stripped-down variant of a workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// The application alone: no checkpoint runtime.
    AppOnly,
    /// Runtime installed (hooks, logging) but no checkpoint schedule.
    Hooks,
    /// The whole workload.
    Full,
}

/// Build the simulation up to (not including) `Sim::run`, timing each
/// layer's set-up call. `before_launch` runs between `World::new` and the
/// launch and is charged to the net span (backend installation).
pub fn stage(
    spans: &mut Spans,
    spec: ClusterSpec,
    opts: WorldOpts,
    wl: &dyn Workload,
    sink: Option<&Rc<MsgCounter>>,
    before_launch: impl FnOnce(&Cluster),
) -> (Sim, World) {
    let (sim, cluster) = timed(&mut spans.cluster_new, || {
        let sim = Sim::new();
        let cluster = Cluster::new(&sim, spec);
        (sim, cluster)
    });
    let world = timed(&mut spans.world_new, || World::new(cluster.clone(), opts));
    if let Some(s) = sink {
        world.set_trace(Rc::clone(s) as Rc<dyn TraceSink>);
    }
    timed(&mut spans.cluster_new, || before_launch(&cluster));
    timed(&mut spans.launch, || wl.launch(&world));
    (sim, world)
}

/// Spawn the task that records when the last rank finished.
pub fn exec_timer(sim: &Sim, world: &World) -> Rc<Cell<SimTime>> {
    let done_at = Rc::new(Cell::new(SimTime::ZERO));
    let (world, sim2, t) = (world.clone(), sim.clone(), Rc::clone(&done_at));
    sim.spawn_named("exec-timer", async move {
        world.wait_all_ranks().await;
        t.set(sim2.now());
    });
    done_at
}

/// Exact per-layer counts of one or more finished simulations. Every field
/// repeats bit for bit on a rerun, so two traced runs must compare equal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    pub polls: u64,
    pub events_fired: u64,
    pub calls_run: u64,
    pub merges: u64,
    pub pending_end: u64,
    pub live_end: u64,
    pub nic_busy_ns: u64,
    pub storage_busy_ns: u64,
    pub store_loads: u64,
    pub store_fallbacks: u64,
    pub restore_peer_reads: u64,
    pub restore_fallback_reads: u64,
    pub msgs: u64,
    pub bytes: u64,
    pub unexpected_end: u64,
    pub waves: u64,
    pub ckpt_records: u64,
    /// Summed (lock, coordination, image, finalize) over checkpoint records.
    pub phase_ns: [u64; 4],
    pub logged_bytes: u64,
    pub retained_bytes: u64,
    pub gc_bytes: u64,
    pub resend_bytes: u64,
    pub resend_ops: u64,
    pub skip_bytes: u64,
    pub image_load_ns: u64,
    pub recoveries: u64,
    pub replayed_bytes: u64,
    pub groups: u64,
    pub group_max: u64,
    pub events_applied: u64,
    pub events_skipped: u64,
    pub violations: u64,
}

impl Counts {
    /// Read every public counter of a finished simulation.
    pub fn snapshot(
        sim: &Sim,
        world: &World,
        rt: Option<&CkptRuntime>,
        sink: Option<&MsgCounter>,
    ) -> Counts {
        let st = sim.stats();
        let cluster = world.cluster();
        let net = cluster.network();
        let storage = cluster.storage();
        let mut c = Counts {
            polls: st.polls,
            events_fired: st.events_fired,
            calls_run: st.calls_run,
            merges: st.merges,
            pending_end: sim.pending_events() as u64,
            live_end: sim.live_tasks() as u64,
            nic_busy_ns: (0..net.nodes())
                .map(|n| (net.tx_busy(n) + net.rx_busy(n)).as_nanos())
                .sum(),
            storage_busy_ns: (0..storage.remote_servers())
                .map(|s| storage.remote_busy(s).as_nanos())
                .sum(),
            store_loads: cluster.ckpt_store().loads().len() as u64,
            msgs: sink.map_or(0, |s| s.msgs.get()),
            bytes: sink.map_or(0, |s| s.bytes.get()),
            unexpected_end: (0..world.n() as u32)
                .map(|r| world.unexpected_count(Rank(r)) as u64)
                .sum(),
            ..Counts::default()
        };
        if let Some(rt) = rt {
            let m = rt.metrics();
            c.waves = m.waves();
            let recs = m.ckpt_records();
            c.ckpt_records = recs.len() as u64;
            for r in &recs {
                c.phase_ns[0] += r.phases.lock.as_nanos();
                c.phase_ns[1] += r.phases.coordination.as_nanos();
                c.phase_ns[2] += r.phases.checkpoint.as_nanos();
                c.phase_ns[3] += r.phases.finalize.as_nanos();
            }
            for r in 0..world.n() as u32 {
                let gp = rt.gp_state(r);
                c.logged_bytes += gp.total_logged_bytes();
                c.retained_bytes += gp.retained_log_bytes();
                c.gc_bytes += gp.total_gc_bytes();
            }
            c.resend_bytes = m.total_resend_bytes();
            c.resend_ops = m.total_resend_ops();
            for r in m.restart_records() {
                c.skip_bytes += r.skip_bytes;
                c.image_load_ns += r.image_load.as_nanos();
            }
            let groups = rt.groups();
            c.groups = groups.group_count() as u64;
            c.group_max = groups.max_group_size() as u64;
        }
        c
    }

    /// Field-wise sum (max for the largest group), for many small worlds.
    pub fn add(&mut self, o: &Counts) {
        let Counts {
            polls,
            events_fired,
            calls_run,
            merges,
            pending_end,
            live_end,
            nic_busy_ns,
            storage_busy_ns,
            store_loads,
            store_fallbacks,
            restore_peer_reads,
            restore_fallback_reads,
            msgs,
            bytes,
            unexpected_end,
            waves,
            ckpt_records,
            phase_ns,
            logged_bytes,
            retained_bytes,
            gc_bytes,
            resend_bytes,
            resend_ops,
            skip_bytes,
            image_load_ns,
            recoveries,
            replayed_bytes,
            groups,
            group_max,
            events_applied,
            events_skipped,
            violations,
        } = o;
        self.polls += polls;
        self.events_fired += events_fired;
        self.calls_run += calls_run;
        self.merges += merges;
        self.pending_end += pending_end;
        self.live_end += live_end;
        self.nic_busy_ns += nic_busy_ns;
        self.storage_busy_ns += storage_busy_ns;
        self.store_loads += store_loads;
        self.store_fallbacks += store_fallbacks;
        self.restore_peer_reads += restore_peer_reads;
        self.restore_fallback_reads += restore_fallback_reads;
        self.msgs += msgs;
        self.bytes += bytes;
        self.unexpected_end += unexpected_end;
        self.waves += waves;
        self.ckpt_records += ckpt_records;
        for (a, b) in self.phase_ns.iter_mut().zip(phase_ns) {
            *a += b;
        }
        self.logged_bytes += logged_bytes;
        self.retained_bytes += retained_bytes;
        self.gc_bytes += gc_bytes;
        self.resend_bytes += resend_bytes;
        self.resend_ops += resend_ops;
        self.skip_bytes += skip_bytes;
        self.image_load_ns += image_load_ns;
        self.recoveries += recoveries;
        self.replayed_bytes += replayed_bytes;
        self.groups += groups;
        self.group_max = self.group_max.max(*group_max);
        self.events_applied += events_applied;
        self.events_skipped += events_skipped;
        self.violations += violations;
    }

    /// Executor events: task polls plus heap fires plus scheduled calls.
    pub fn events(&self) -> u64 {
        self.polls + self.events_fired + self.calls_run
    }

    /// The per-layer count metrics, by their declared names.
    pub fn metrics(&self, out: &mut BTreeMap<String, f64>) {
        let ns = |v: u64| v as f64 / 1e9;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let mean_phase = |i: usize| ns(self.phase_ns[i]) / self.ckpt_records.max(1) as f64;
        let pairs: [(&str, f64); 33] = [
            ("sim.polls", self.polls as f64),
            ("sim.events_fired", self.events_fired as f64),
            ("sim.calls_run", self.calls_run as f64),
            ("sim.merges", self.merges as f64),
            ("sim.pending_events_end", self.pending_end as f64),
            ("sim.live_tasks_end", self.live_end as f64),
            ("net.nic_busy_s", ns(self.nic_busy_ns)),
            ("net.storage_busy_s", ns(self.storage_busy_ns)),
            ("net.store_loads", self.store_loads as f64),
            ("net.store_fallbacks", self.store_fallbacks as f64),
            ("net.restore_peer_reads", self.restore_peer_reads as f64),
            (
                "net.restore_fallback_reads",
                self.restore_fallback_reads as f64,
            ),
            (
                "net.restore_peer_read_ratio",
                ratio(
                    self.restore_peer_reads,
                    self.restore_peer_reads + self.restore_fallback_reads,
                ),
            ),
            ("mpi.msgs", self.msgs as f64),
            ("mpi.bytes", self.bytes as f64),
            ("mpi.unexpected_end", self.unexpected_end as f64),
            ("ckpt.waves", self.waves as f64),
            ("ckpt.phase_lock_s", mean_phase(0)),
            ("ckpt.phase_coord_s", mean_phase(1)),
            ("ckpt.phase_image_s", mean_phase(2)),
            ("ckpt.phase_finalize_s", mean_phase(3)),
            ("ckpt.logged_bytes", self.logged_bytes as f64),
            ("ckpt.retained_bytes", self.retained_bytes as f64),
            ("ckpt.gc_bytes", self.gc_bytes as f64),
            ("ckpt.gc_ratio", ratio(self.gc_bytes, self.logged_bytes)),
            ("ckpt.resend_bytes", self.resend_bytes as f64),
            ("ckpt.resend_ops", self.resend_ops as f64),
            ("ckpt.skip_bytes", self.skip_bytes as f64),
            ("ckpt.image_load_s", ns(self.image_load_ns)),
            ("ckpt.recoveries", self.recoveries as f64),
            ("ckpt.replayed_bytes", self.replayed_bytes as f64),
            ("group.count", self.groups as f64),
            ("group.max_size", self.group_max as f64),
        ];
        for (k, v) in pairs {
            out.insert(k.to_string(), v);
        }
        let chaos = [
            ("chaos.events_applied", self.events_applied),
            ("chaos.events_skipped", self.events_skipped),
            ("chaos.violations", self.violations),
        ];
        for (k, v) in chaos {
            out.insert(k.to_string(), v as f64);
        }
        out.insert(
            "chaos.applied_ratio".to_string(),
            ratio(
                self.events_applied,
                self.events_applied + self.events_skipped,
            ),
        );
    }
}

/// The host-span metrics of one traced full run and its rungs.
pub fn span_metrics(full: &Spans, app_run: f64, hooks_run: f64, out: &mut BTreeMap<String, f64>) {
    let pairs = [
        ("sim.run_s", full.run),
        ("net.cluster_new_s", full.cluster_new),
        ("mpi.world_new_s", full.world_new),
        ("workloads.launch_s", full.launch),
        ("ckpt.install_s", full.install),
        ("ckpt.hooks_s", hooks_run - app_run),
        ("ckpt.waves_restart_s", full.run - hooks_run),
        ("ckpt.check_recovery_line_s", full.check),
        ("trace.profile_s", full.profile),
        ("group.form_s", full.form),
        ("group.resolve_s", full.resolve),
    ];
    for (k, v) in pairs {
        out.insert(k.to_string(), v);
    }
}
