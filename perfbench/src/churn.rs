//! The ladder's bottom rung: executor-only churn of timers and scheduled
//! calls, with no network, MPI or protocol above it. Sized to the event
//! count of `scale-hpl`'s app-only rung, so its ns/event against that
//! rung's splits executor cost from mpi+net cost.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use gcr_sim::{DetRng, Sim, SimDuration};

use crate::stats::fnv;

/// Tasks (one per `scale-hpl` rank) and sleep/call rounds per task.
const TASKS: u64 = 25_000;
const ROUNDS: u64 = 17;

/// Pinned order digest of the churn (independent of `--seed`).
pub const PIN: u64 = 0x3c06_7255_9626_b4ab;

/// What the churn measured.
pub struct Churn {
    /// FNV fold of `(task, round, fire time)` in call execution order.
    pub digest: u64,
    /// Polls + fired events + calls run.
    pub events: u64,
    /// Host seconds in `Sim::run`.
    pub run_s: f64,
}

/// Every task sleeps a random 1–499 µs, then schedules a call 0–199 µs
/// ahead that folds its identity and fire time into the digest.
pub fn run() -> Result<Churn, String> {
    let sim = Sim::new();
    let acc = Rc::new(Cell::new(fnv([])));
    let root = DetRng::new(0x0063_6875_726e);
    for t in 0..TASKS {
        let (sim2, acc) = (sim.clone(), Rc::clone(&acc));
        let mut rng = root.fork_idx(t);
        sim.spawn(async move {
            for k in 0..ROUNDS {
                sim2.sleep(SimDuration::from_micros(rng.range_u64(1, 500)))
                    .await;
                let at = sim2.now() + SimDuration::from_micros(rng.range_u64(0, 200));
                let (acc, sim3) = (Rc::clone(&acc), sim2.clone());
                sim2.schedule_call(at, move || {
                    let h = acc.get() ^ fnv([t, k, sim3.now().as_nanos()]);
                    acc.set(h.wrapping_mul(0x0000_0100_0000_01b3));
                });
            }
        });
    }
    let t = Instant::now();
    sim.run().map_err(|d| format!("churn deadlocked: {d}"))?;
    let run_s = t.elapsed().as_secs_f64();
    let st = sim.stats();
    Ok(Churn {
        digest: acc.get(),
        events: st.polls + st.events_fired + st.calls_run,
        run_s,
    })
}
