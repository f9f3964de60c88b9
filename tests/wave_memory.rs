//! Memory regression test for the checkpoint control plane: the peak live
//! heap one blocking wave adds on top of the running application and the
//! installed runtime, per rank.
//!
//! A member of a group of 8 exchanges 7 bookmarks and runs two group
//! barriers, so the wave's footprint per rank is a handful of small
//! control-plane futures. A counting global allocator tracks the live
//! heap; the controller resets the peak to the live heap when the wave
//! starts and reads it back when every member has finished the wave.
//!
//! Measured on a 4,096-rank HPL world, contiguous groups of 8 (x86-64,
//! the same in the debug test profile and in release):
//! - 7,603 B/rank when `join_all` re-boxed every child of a collected
//!   `Vec` and a control send awaited the full send state machine
//!   (a 336 B future holding the envelope across its await);
//! - 2,387 B/rank with the children polled in place in one slice, a
//!   72 B control send that holds no envelope across its await, and a
//!   drain future that keeps neither a world clone nor the received
//!   envelope.
//!
//! The bound sits between the two, well clear of both.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

use gcr::ckpt::{CkptConfig, CkptRuntime, Mode};
use gcr::group::contiguous;
use gcr::mpi::{World, WorldOpts};
use gcr::net::{Cluster, ClusterSpec, StorageTarget};
use gcr::sim::{Sim, SimTime};
use gcr::workloads::{Hpl, HplConfig, Workload};

const P: usize = 64;
const Q: usize = 64;
const RANKS: usize = P * Q;
const GROUP_RANKS: usize = 8;
/// Peak heap bytes one wave may add per rank.
const WAVE_BYTES_PER_RANK: usize = 4_000;

/// Live heap bytes, and the most live at once since the last reset.
/// Statistics only: they publish no other data, so `Relaxed` suffices.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to `System` with the caller's own
// arguments; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System` via `alloc`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; `ptr` came from `System` via `alloc`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// One HPL panel on a 64×64 grid, cut down like the scale scenario so
/// traffic dominates.
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

#[test]
fn one_blocking_wave_adds_little_heap_per_rank() {
    let wl = hpl();
    assert_eq!(wl.n(), RANKS);
    let sim = Sim::new();
    let cluster = Cluster::new(&sim, ClusterSpec::test(RANKS));
    let world = World::new(cluster, WorldOpts::default());
    let groups = Rc::new(contiguous(RANKS, RANKS / GROUP_RANKS));
    wl.launch(&world);
    let cfg = CkptConfig::uniform(RANKS, 1 << 20, StorageTarget::Local).deterministic();
    let rt = CkptRuntime::install(&world, groups, Mode::Blocking, cfg);

    let added = Rc::new(Cell::new(0usize));
    {
        let (sim2, world, rt, added) = (sim.clone(), world.clone(), rt.clone(), Rc::clone(&added));
        sim.spawn_named("wave-memory", async move {
            sim2.sleep_until(SimTime::from_millis(2)).await;
            let base = LIVE.load(Ordering::Relaxed);
            PEAK.store(base, Ordering::Relaxed);
            rt.checkpoint_now().await;
            added.set(PEAK.load(Ordering::Relaxed).saturating_sub(base));
            world.wait_all_ranks().await;
            rt.shutdown();
        });
    }
    sim.run().expect("the run completes");
    assert_eq!(world.ranks_finished(), RANKS);
    assert_eq!(rt.metrics().waves(), 1);
    let per_rank = added.get() / RANKS;
    assert!(
        per_rank < WAVE_BYTES_PER_RANK,
        "one wave added {per_rank} B of peak heap per rank (bound {WAVE_BYTES_PER_RANK} B)"
    );
}
