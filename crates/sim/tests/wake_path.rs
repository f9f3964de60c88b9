//! Invariants of the executor's wake path: the ready FIFO belongs to the
//! simulation's thread, and a timer keyed by task never wakes whatever
//! task later occupies the same slot.

use std::cell::{Cell, RefCell};
use std::future::poll_fn;
use std::rc::Rc;
use std::task::{Poll, Waker};

use gcr_sim::future::{select2, Either};
use gcr_sim::{Sim, SimDuration, SimTime, TaskId};

#[test]
fn waking_a_sim_waker_on_another_thread_panics() {
    let sim = Sim::new();
    let stash: Rc<RefCell<Option<Waker>>> = Rc::new(RefCell::new(None));
    let s = Rc::clone(&stash);
    sim.spawn(poll_fn(move |cx| {
        *s.borrow_mut() = Some(cx.waker().clone());
        Poll::Ready(())
    }));
    sim.run().unwrap();
    let waker = stash
        .borrow_mut()
        .take()
        .expect("the task stashed its waker");

    let err = std::thread::spawn(move || waker.wake())
        .join()
        .expect_err("a foreign-thread wake must panic");
    let msg = err
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| err.downcast_ref::<&str>().copied())
        .unwrap_or("");
    assert!(
        msg.contains("woken on another thread"),
        "unexpected panic message: {msg:?}"
    );

    // The FIFO was never touched: the simulation still runs normally.
    let done = Rc::new(Cell::new(false));
    let (s, d) = (sim.clone(), Rc::clone(&done));
    sim.spawn(async move {
        s.sleep(SimDuration::from_millis(1)).await;
        d.set(true);
    });
    sim.run().unwrap();
    assert!(done.get());
}

/// The slot index of a task id (it is only exposed through `Debug`).
fn slot_of(id: TaskId) -> String {
    let dbg = format!("{id:?}");
    dbg.split(',').next().unwrap_or_default().to_string()
}

#[test]
fn a_task_keyed_timer_never_polls_the_next_occupant_of_its_slot() {
    let sim = Sim::new();
    let first: Rc<Cell<Option<TaskId>>> = Rc::new(Cell::new(None));
    let second: Rc<Cell<Option<TaskId>>> = Rc::new(Cell::new(None));
    let woke_at: Rc<Cell<Option<SimTime>>> = Rc::new(Cell::new(None));

    // Task A (2 polls): a 1 ms sleep beats a 10 ms one, which is dropped
    // with its task-keyed timer still pending; then A exits.
    let s = sim.clone();
    first.set(Some(sim.spawn(async move {
        let short = s.sleep(SimDuration::from_millis(1));
        let long = s.sleep(SimDuration::from_millis(10));
        assert!(matches!(select2(short, long).await, Either::Left(())));
    })));

    // Task C (2 polls): after A exits, spawn B into A's freed slot.
    let (s, b_id, w) = (sim.clone(), Rc::clone(&second), Rc::clone(&woke_at));
    sim.spawn(async move {
        s.sleep(SimDuration::from_millis(5)).await;
        let s2 = s.clone();
        b_id.set(Some(s.spawn(async move {
            // Task B (2 polls): one sleep across A's stale 10 ms timer.
            s2.sleep_until(SimTime::from_millis(20)).await;
            w.set(Some(s2.now()));
        })));
    });

    sim.run().unwrap();
    let (a, b) = (first.get().unwrap(), second.get().unwrap());
    assert_ne!(a, b);
    assert_eq!(slot_of(a), slot_of(b), "B must reuse A's slot");
    assert_eq!(woke_at.get(), Some(SimTime::from_millis(20)));
    let st = sim.stats();
    // A's stale timer still fires (4 timers) but polls nobody: 2 polls
    // each for A, B and C.
    assert_eq!(st.events_fired, 4);
    assert_eq!(st.polls, 6);
}
