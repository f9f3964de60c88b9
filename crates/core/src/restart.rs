//! Group-based restart (Algorithm 1, "on restart").
//!
//! Every rank reloads its image, re-initializes the MPI runtime, and then —
//! pairwise with each **out-of-group** process Q — exchanges the volume
//! counters recorded at checkpoint time, replays the logged messages Q is
//! missing, and notes how many bytes of future sends to skip because Q
//! already consumed them. Intra-group channels need nothing: the group's
//! coordinated checkpoint left them empty. Receiver-based logging runs
//! the same exchange; it only changes which mark a restarting rank
//! advertises and replays the bulk of its receive stream locally.
//!
//! Every path here returns [`RecoveryError`] instead of panicking: the
//! chaos harness injects faults mid-recovery, and an abort in the restart
//! protocol would kill the whole scenario sweep rather than surface as a
//! reported violation (gcr-lint rule D03 enforces this statically).

use std::rc::Rc;

use gcr_mpi::{Rank, RankCtx};
use gcr_sim::future::{join2, join_all};

use gcr_net::{ImageOp, StorageTarget};

use crate::ctrlplane::{ctrl_barrier, tags, CTRL_BYTES};
use crate::error::RecoveryError;
use crate::metrics::RestartRecord;
use crate::msglog::LogEntry;
use crate::runtime::RankProto;

/// Execute the restart protocol at one rank, exchanging volumes with the
/// rank's own view of its communication peers. Correct at quiescence
/// (e.g. a full restart after the application finished), where both sides
/// of every channel agree on whether they exchanged data.
///
/// `gen` is the committed generation selected for this rank's group
/// (`None`: restart from the initial state).
pub(crate) async fn restart_rank(
    p: &RankProto,
    gen: Option<u64>,
) -> Result<RestartRecord, RecoveryError> {
    let out = p.gp.comm_peers();
    restart_rank_with_peers(p, &out, gen).await
}

/// Execute the restart protocol at one rank against an explicit peer set.
/// A mid-run recovery must use this: with traffic still in flight toward
/// the failed group, the two ends of a channel can disagree about whether
/// they communicated (the sender counted bytes the halted receiver never
/// consumed), and a one-sided peer choice deadlocks the volume exchange.
/// The recovery coordinator computes a symmetric map and hands each
/// participant its slice.
///
/// Under **receiver-based** logging (Dichev & Nikolopoulos; `p.rb` is
/// `Some` only then) two things change per out-of-group peer `Q`. First,
/// the rank replays `Q`'s stream between the rolled-back `RR_Q` and its
/// receiver log's high-water mark from its own local disk — no network,
/// no load on `Q`. Second, it advertises that logged high-water mark in
/// place of `RR_Q`, so `Q` serves only the unacked tail above it from its
/// ack-trimmed sender log. Ack GC only ever trims below a logged
/// high-water mark, so the retained tail always covers the gap.
pub(crate) async fn restart_rank_with_peers(
    p: &RankProto,
    out: &[u32],
    gen: Option<u64>,
) -> Result<RestartRecord, RecoveryError> {
    let ctx = &p.ctx;
    let world = ctx.world().clone();
    let sim = world.sim().clone();
    let rank = ctx.rank();
    let started = ctx.now();

    // Process re-creation noise: restarts are scripted (mpirun re-spawns
    // everything), so the jitter is bounded — unlike the heavy-tailed
    // coordination stragglers of a running system.
    if p.cfg.stragglers {
        let jitter = p.rng.borrow_mut().uniform(0.0, 0.2);
        sim.sleep(gcr_sim::SimDuration::from_secs_f64(jitter)).await;
    }

    // Load the checkpoint image from the selected committed generation.
    // The load is validated against the catalog (committed state + content
    // digest) and recorded, so the chaos oracle can prove no restart ever
    // consumed an uncommitted or corrupt image. With no usable generation
    // (`gen == None`) the rank restarts from its initial image.
    let gid = p.groups.group_of(rank.0);
    let image_bytes = match gen {
        Some(g) => {
            let store = world.cluster().ckpt_store().clone();
            let bytes = store
                .validate(gid, g, rank.0)
                .map_err(RecoveryError::Storage)?;
            store.record_load(gid, g, rank.0);
            bytes
        }
        None => p
            .cfg
            .image_bytes
            .get(rank.idx())
            .copied()
            .ok_or(RecoveryError::MissingImage { rank: rank.0 })?,
    };
    // The image comes back through the cluster's checkpoint backend: the
    // disk path reads the configured target, the restore path serves the
    // block from the nearest surviving peer replica and only falls back
    // to storage (recording degraded redundancy) when none survives.
    let backend = world.cluster().backend();
    backend
        .read_image(ImageOp {
            node: rank.idx(),
            group: gid,
            gen,
            rank: rank.0,
            bytes: image_bytes,
            target: p.cfg.storage,
            policy: p.cfg.retry,
        })
        .await
        .map_err(RecoveryError::Storage)?;
    let image_loaded = ctx.now();

    // Re-create process spaces / update MPI internal structures.
    sim.sleep(p.cfg.restart_init).await;

    // Pairwise volume exchange + replay — but only with the out-of-group
    // processes this rank communicated with (the paper's "small set of
    // processes" that makes GP restarts cheap relative to GP1).
    // Per-peer request handling is serial work before the exchanges fly.
    if !out.is_empty() {
        sim.sleep(p.cfg.restart_peer_overhead * out.len() as u64)
            .await;
    }
    let mut resend_ops = 0u64;
    let mut resend_bytes = 0u64;
    let mut skip_bytes = 0u64;
    let futs = out.iter().map(|&q| {
        let ctx = ctx.clone();
        let gp = Rc::clone(&p.gp);
        let rb = p.rb.clone();
        async move {
            let peer = Rank(q);
            // The mark I advertise for Q's stream: how much I had
            // received from it at my checkpoint (RR_Q), or, under
            // receiver-based logging, how far my local replay from
            // my own receiver log reaches.
            let mark: u64 = match &rb {
                Some(rb) => {
                    let local = rb.replay_local(q, gp.rr(q));
                    let local_bytes: u64 = local.iter().map(|e| e.bytes).sum();
                    if local_bytes > 0 {
                        let storage = ctx.world().cluster().storage();
                        storage
                            .read(ctx.rank().idx(), local_bytes, StorageTarget::Local)
                            .await?;
                    }
                    rb.logged_end(q)
                }
                None => gp.rr(q),
            };
            // Exchange: Q answers with the same mark about me.
            let (_, env) = join2(
                ctx.ctrl_send(peer, tags::RESTART_VOL, CTRL_BYTES, Some(Rc::new(mark))),
                ctx.ctrl_recv(peer, tags::RESTART_VOL),
            )
            .await;
            let q_received = *env.payload_as::<u64>().ok_or(RecoveryError::BadPayload {
                at: ctx.rank().0,
                from: peer.0,
                what: "volume",
            })?;

            // Replay: messages I sent before my checkpoint that Q had
            // not received at its checkpoint.
            let entries = gp.replay_entries(q, q_received);
            let ops = entries.len() as u64;
            // Replay is per-message: whole log entries go back on the
            // wire (the receiver discards any already-consumed prefix).
            let bytes: u64 = entries.iter().map(|e| e.bytes).sum();
            // Skip: bytes Q already consumed beyond my rolled-back S.
            let skip = q_received.saturating_sub(gp.ss(q));
            stream_replay(&ctx, peer, entries, bytes).await?;
            Ok::<(u64, u64, u64), RecoveryError>((ops, bytes, skip))
        }
    });
    for r in join_all(futs).await {
        let (ops, bytes, skip) = r?;
        resend_ops += ops;
        resend_bytes += bytes;
        skip_bytes += skip;
    }

    // Group members resume together.
    let members = p.groups.members(p.groups.group_of(rank.0)).to_vec();
    ctrl_barrier(ctx, &members, tags::RESTART_BARRIER).await?;
    let finished = ctx.now();

    let rec = RestartRecord {
        rank: rank.0,
        started,
        finished,
        image_load: image_loaded.saturating_since(started),
        resend_ops,
        resend_bytes,
        skip_bytes,
        generation: gen,
    };
    p.metrics.push_restart(rec);
    Ok(rec)
}

/// A live (non-failed) rank's side of a group recovery: serve the volume
/// exchange and replay for each of the given restarting peers. Live ranks
/// do not roll back — they answer with their *current* counters, replay
/// the retained log suffix the restarted peer is missing, and absorb the
/// (empty) replay plan from the peer. Under receiver-based logging the
/// peer advertises its logged high-water mark, so only the unacked tail
/// above it is replayed.
///
/// `restarting` is this rank's slice of the coordinator's symmetric
/// exchange map; it must mirror the peer set each restarting member was
/// given, or the pairwise exchange deadlocks.
///
/// Returns the total bytes replayed toward the restarting peers.
pub(crate) async fn serve_peer_recovery(
    p: &RankProto,
    restarting: &[u32],
) -> Result<u64, RecoveryError> {
    let ctx = &p.ctx;
    let futs = restarting.iter().copied().map(|q| {
        let ctx = ctx.clone();
        let gp = Rc::clone(&p.gp);
        async move {
            let peer = Rank(q);
            // I am live: my "received from q" is current, not a snapshot.
            let my_r = gp.received_from(q);
            let (_, env) = join2(
                ctx.ctrl_send(peer, tags::RESTART_VOL, CTRL_BYTES, Some(Rc::new(my_r))),
                ctx.ctrl_recv(peer, tags::RESTART_VOL),
            )
            .await;
            let q_mark = *env.payload_as::<u64>().ok_or(RecoveryError::BadPayload {
                at: ctx.rank().0,
                from: peer.0,
                what: "volume",
            })?;
            // Replay everything retained beyond the peer's mark — the
            // peer lost all of it in the rollback. GC safety
            // guarantees the retained log still covers [q_mark, S).
            let entries = gp.replay_entries_live(q, q_mark, gp.sent_to(q));
            let bytes: u64 = entries.iter().map(|e| e.bytes).sum();
            stream_replay(&ctx, peer, entries, bytes).await?;
            Ok::<u64, RecoveryError>(bytes)
        }
    });
    let mut total = 0u64;
    for r in join_all(futs).await {
        total += r?;
    }
    Ok(total)
}

/// One side of a pairwise replay: send `peer` this rank's replay plan
/// (the entry count) and the `bytes` of `entries`, read back from the
/// on-disk log first, while concurrently draining the peer's plan and
/// entries. A log-read fault fails the replay as a typed error instead
/// of sending a replay built from nothing.
async fn stream_replay(
    ctx: &RankCtx,
    peer: Rank,
    entries: Vec<LogEntry>,
    bytes: u64,
) -> Result<(), RecoveryError> {
    let send_side = async {
        if bytes > 0 {
            let storage = ctx.world().cluster().storage();
            storage
                .read(ctx.rank().idx(), bytes, StorageTarget::Local)
                .await?;
        }
        ctx.ctrl_send(
            peer,
            tags::RESTART_PLAN,
            CTRL_BYTES,
            Some(Rc::new(entries.len() as u64)),
        )
        .await;
        for e in entries {
            ctx.ctrl_send(peer, tags::RESTART_DATA, e.bytes, None).await;
        }
        Ok::<(), RecoveryError>(())
    };
    let recv_side = async {
        let plan = ctx.ctrl_recv(peer, tags::RESTART_PLAN).await;
        let m = *plan.payload_as::<u64>().ok_or(RecoveryError::BadPayload {
            at: ctx.rank().0,
            from: peer.0,
            what: "plan",
        })?;
        for _ in 0..m {
            ctx.ctrl_recv(peer, tags::RESTART_DATA).await;
        }
        Ok::<(), RecoveryError>(())
    };
    let (sent, drained) = join2(send_side, recv_side).await;
    sent?;
    drained
}
