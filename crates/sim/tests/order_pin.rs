//! Tier-1 pin of the executor's event order.
//!
//! A scaled-down churn mixes every way work reaches the ready FIFO: task
//! sleeps polled with the task's own waker, scheduled calls, `yield_now`,
//! a `select2` whose losing sleep is cancelled (its timer still fires and
//! spuriously wakes the task, or nobody once the task has exited), a sleep
//! polled once under a foreign waker, and child tasks spawned into slots
//! freed by exited tasks. The order digest and the four event counters
//! were captured from the mutex-queue executor that preceded the
//! owner-thread FIFO; any change to FIFO order, `(deadline, sequence)`
//! order or the wake dedupe moves them. The two high-water marks were
//! captured after that change (the old executor did not count them).

use std::cell::Cell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Waker};

use gcr_sim::future::select2;
use gcr_sim::{DetRng, Sim, SimDuration, SimStats};

const TASKS: u64 = 2_000;
const ROUNDS: u64 = 8;

/// Pinned FNV fold of `(task, round, now)` in execution order.
const DIGEST: u64 = 0xcb7d_f46b_fffd_9938;

fn fold(acc: &Cell<u64>, words: [u64; 3]) {
    let mut h = acc.get();
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    acc.set(h);
}

/// A deadline on a 10 µs grid, so many events share an instant and the
/// sequence tiebreak decides their order.
fn gap(rng: &mut DetRng, max_ticks: u64) -> SimDuration {
    SimDuration::from_micros(10 * rng.range_u64(0, max_ticks))
}

fn task(
    sim: Sim,
    acc: Rc<Cell<u64>>,
    t: u64,
    mut rng: DetRng,
    child: bool,
) -> Pin<Box<dyn Future<Output = ()>>> {
    Box::pin(async move {
        for k in 0..ROUNDS {
            match rng.range_u64(0, 4) {
                0 => sim.sleep(gap(&mut rng, 30)).await,
                1 => {
                    let at = sim.now() + gap(&mut rng, 20);
                    let (s, a) = (sim.clone(), Rc::clone(&acc));
                    sim.schedule_call(at, move || fold(&a, [t, 100 + k, s.now().as_nanos()]));
                }
                2 => sim.yield_now().await,
                _ => {
                    let short = sim.sleep(gap(&mut rng, 10));
                    let long = sim.sleep(SimDuration::from_micros(10) + gap(&mut rng, 60));
                    let _ = select2(short, long).await;
                }
            }
            fold(&acc, [t, k, sim.now().as_nanos()]);
        }
        if t % 250 == 7 {
            // One sleep registered under a foreign waker, then dropped:
            // its timer fires into `Waker::noop()`.
            let mut foreign = sim.sleep(gap(&mut rng, 40));
            let _ = Pin::new(&mut foreign).poll(&mut Context::from_waker(Waker::noop()));
        }
        if !child && t.is_multiple_of(3) {
            // Spawned after some tasks exited: reuses their slots while
            // their cancelled sleeps are still pending.
            let fork = rng.fork_idx(t);
            sim.spawn(task(sim.clone(), Rc::clone(&acc), TASKS + t, fork, true));
        }
    })
}

fn churn() -> (u64, SimStats) {
    let sim = Sim::new();
    let acc = Rc::new(Cell::new(0xcbf2_9ce4_8422_2325));
    let root = DetRng::new(0x6f72_6465_7270);
    for t in 0..TASKS {
        sim.spawn(task(
            sim.clone(),
            Rc::clone(&acc),
            t,
            root.fork_idx(t),
            false,
        ));
    }
    sim.run().expect("churn finishes");
    (acc.get(), sim.stats())
}

#[test]
fn churn_order_and_counts_match_the_pins() {
    let (digest, stats) = churn();
    assert_eq!(digest, DIGEST, "order digest moved: {digest:#018x}");
    assert_eq!(
        stats,
        SimStats {
            polls: 19_267,
            events_fired: 20_217,
            calls_run: 5_382,
            merges: 260,
            max_pending_events: 4_779,
            max_ready_len: 2_001,
        }
    );
}
