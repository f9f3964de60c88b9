//! Blocking coordinated checkpointing, scoped to a group (LAM/MPI-style).
//!
//! With one global group this is the paper's `NORM`; with trace-formed
//! groups it is `GP` (Algorithm 1); with singleton groups, `GP1`. The wave
//! at each rank runs the four phases of the paper's Figure 9:
//!
//! 1. **Lock MPI** — freeze the application (no new sends/receives/compute).
//! 2. **Coordination** — synchronize (flush) message logs, record the
//!    `RR`/`S` snapshots for out-of-group peers, run the bookmark drain so
//!    no intra-group bytes remain in flight, and barrier with the group.
//! 3. **Checkpoint** — write the image through the storage model.
//! 4. **Finalize** — barrier again, then resume execution regardless of
//!    other groups' progress.

use crate::ctrlplane::{bookmark_drain, ctrl_barrier, decide_commit, tags, write_member_image};
use crate::metrics::{CkptRecord, PhaseBreakdown};
use crate::runtime::RankProto;

/// Execute one blocking coordinated checkpoint wave at one rank.
pub(crate) async fn blocking_wave(p: &RankProto, wave: u64) {
    let ctx = &p.ctx;
    let world = ctx.world().clone();
    let sim = world.sim().clone();
    let rank = ctx.rank();
    let storage = world.cluster().storage().clone();
    let started = ctx.now();

    // Phase 1: Lock MPI. The checkpoint signal is handled only when the
    // process is scheduled — the straggler delay happens *before* the
    // freeze, so a delayed rank keeps executing (and sending) while its
    // peers are already locked. This skew is what the coordination drain
    // pays for, and what creates inter-group replay volume.
    if p.cfg.stragglers {
        let d = world.cluster().sample_straggler(&mut p.rng.borrow_mut());
        sim.sleep(d).await;
    }
    world.freeze(rank);
    sim.sleep(p.cfg.lock_overhead).await;
    let t_lock = ctx.now();

    // Phase 2: Coordination.
    // Synchronize message logs (Algorithm 1). Logging streams to disk in
    // the background between checkpoints; here we only wait for the
    // un-synced tail to hit stable storage. The RR/S snapshot goes under
    // the *pending* generation: GC advertisement waits for the commit.
    let mut log_flushed_bytes = p.gp.on_checkpoint(wave);
    if let Some(rb) = &p.rb {
        // Receiver-based logging: the receiver-side log's un-synced
        // tail must also hit the local disk before the image counts.
        log_flushed_bytes += rb.take_recv_flush();
    }
    if log_flushed_bytes > 0 {
        storage.drain_local(rank.idx()).await;
    }
    let members = p.groups.members(p.groups.group_of(rank.0)).to_vec();
    // Checkpoint-side callers may expect(): member sets come straight from
    // the validated group definition, and blocking.rs is outside the
    // D03 recovery-critical set.
    bookmark_drain(ctx, &members, wave)
        .await
        // gcr-lint: allow(D03-T) bookmark payloads are built by our own protocol code — a malformed one is a simulator bug, not an injectable fault
        .expect("bookmark payloads carry byte counters");
    ctrl_barrier(ctx, &members, tags::BARRIER1 + wave)
        .await
        // gcr-lint: allow(D03-T) membership comes from the validated group definition, fixed before any fault fires
        .expect("barrier membership comes from the validated group definition");
    let t_coord = ctx.now();

    // Phase 3: write the checkpoint image as a *pending* generation of
    // the durable store. The rank always reaches the barriers below even
    // when its write fails — a member that bailed out early would hang
    // the rest of the group; the failure is carried in the catalog and
    // decided at commit time.
    let gid = p.groups.group_of(rank.0);
    let store = world.cluster().ckpt_store().clone();
    store.begin(gid, wave);
    // gcr-lint: allow(D03-T) image_bytes is sized to the world when the config is built; the restart side re-reads it with get()+MissingImage
    let image_bytes = p.cfg.image_bytes[rank.idx()];
    let trap = p.crash_trap(gid);
    if write_member_image(p, wave, image_bytes, trap.as_deref()).await {
        store.record_image(gid, wave, rank.0, image_bytes);
    } else {
        store.record_failure(gid, wave, rank.0);
    }
    let t_img = ctx.now();

    // Phase 4: finalize and resume, independent of other groups. After the
    // post-image barrier every member's write outcome is in the catalog;
    // the group coordinator decides commit vs. abort and broadcasts it.
    ctrl_barrier(ctx, &members, tags::BARRIER2 + wave)
        .await
        // gcr-lint: allow(D03-T) membership comes from the validated group definition, fixed before any fault fires
        .expect("barrier membership comes from the validated group definition");
    let committed = decide_commit(p, wave, trap.as_deref(), true).await;
    if committed {
        p.gp.on_commit(wave);
        if let Some(rb) = &p.rb {
            // Receiver-log entries below the committed (retention-
            // lagged) floor can never replay again — drop them.
            rb.on_commit();
        }
    } else {
        p.gp.on_abort(wave);
    }
    sim.sleep(p.cfg.finalize_overhead).await;
    world.thaw(rank);
    let finished = ctx.now();

    p.metrics.push_ckpt(CkptRecord {
        wave,
        rank: rank.0,
        started,
        finished,
        phases: PhaseBreakdown {
            lock: t_lock.saturating_since(started),
            coordination: t_coord.saturating_since(t_lock),
            checkpoint: t_img.saturating_since(t_coord),
            finalize: finished.saturating_since(t_img),
        },
        log_flushed_bytes,
        image_bytes,
        committed,
    });
}
