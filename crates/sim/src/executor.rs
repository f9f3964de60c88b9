//! The deterministic async executor at the heart of the DES.
//!
//! Simulated processes (MPI ranks, protocol daemons, the `mpirun`
//! controller…) are ordinary Rust futures. The executor interleaves them
//! cooperatively and advances a virtual clock: when no task is runnable, the
//! clock jumps to the next scheduled event. There is no real-time blocking
//! anywhere, so a full 128-rank run finishes in milliseconds of wall time.
//!
//! Pending events wait in one timer heap (see [`crate::queue`]) keyed by
//! `(deadline, sequence)`, where the sequence number comes from one global
//! schedule counter.
//!
//! Wake path: the ready FIFO belongs to the thread that created the
//! [`Sim`]. It takes no lock; every access checks the owner thread instead,
//! and a simulation `Waker` woken on any other thread panics before it
//! touches the FIFO. Each task's `Waker` is built once at spawn and lent to
//! every poll. A [`Sleep`] polled with its own task's waker stores the
//! task's [`TaskId`] in its timer rather than a waker clone; at fire time
//! that id goes through the same wake dedupe and generation check as
//! `Waker::wake`.
//!
//! Determinism: tasks are polled in FIFO wake order, events fire in
//! `(deadline, sequence-number)` order, and all randomness is drawn from a
//! seeded [`crate::rng::DetRng`]. Two runs with the same seed produce
//! identical event schedules.

use std::cell::{Cell, RefCell, UnsafeCell};
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use crate::queue::{EventKind, EventQueue, EventSlot, HeapEntry};
use crate::time::{SimDuration, SimTime};

/// Identifies a spawned task. Stable for the lifetime of the task.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TaskId {
    slot: usize,
    generation: u64,
}

/// Error returned by [`Sim::run`] when no task can make progress but live
/// tasks remain — i.e. every remaining task waits on an event that will
/// never fire. The names of the stuck tasks are reported to make protocol
/// deadlocks debuggable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deadlock {
    /// Simulated time at which the simulation stalled.
    pub at: SimTime,
    /// Names of the tasks that were still alive.
    pub stuck: Vec<String>,
}

impl fmt::Display for Deadlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulation deadlocked at {} with {} stuck task(s): ",
            self.at,
            self.stuck.len()
        )?;
        for (i, name) in self.stuck.iter().take(8).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name}")?;
        }
        if self.stuck.len() > 8 {
            write!(f, ", …")?;
        }
        Ok(())
    }
}

impl std::error::Error for Deadlock {}

/// Snapshot of executor counters, for benchmarks and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Task polls performed.
    pub polls: u64,
    /// Events fired off the timer heap (wakes and calls).
    pub events_fired: u64,
    /// Scheduled closures run (arena-allocated in-flight work).
    pub calls_run: u64,
    /// Clock advances: instants at which the heap fired at least one event.
    pub merges: u64,
    /// High-water mark of the timer heap: most events pending at once.
    pub max_pending_events: u64,
    /// High-water mark of the ready FIFO: most work items queued at once.
    pub max_ready_len: u64,
}

/// Outcome of [`Sim::run_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// All tasks completed before the horizon.
    AllDone,
    /// The horizon was reached with tasks still alive.
    HorizonReached,
}

/// Work item on the ready FIFO. Besides woken tasks, the FIFO carries the
/// two-step lifecycle of scheduled calls: `CallInit` assigns the global
/// sequence number at the FIFO position where the old task-per-message
/// scheme performed its first poll (and timer registration), and `CallRun`
/// runs the closure at the position where that task would have been polled
/// after its timer fired. This is what keeps same-instant ordering
/// bit-identical with the task-per-message executor it replaced.
#[derive(Clone, Copy, Debug)]
enum ReadyItem {
    Task(TaskId),
    CallInit(u32),
    CallRun(u32),
}

/// A key unique to the calling thread for the life of the process (keys
/// are never reused, unlike OS thread ids or thread-local addresses).
fn thread_key() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static KEY: Cell<u64> = const { Cell::new(0) };
    }
    KEY.with(|key| {
        if key.get() == 0 {
            key.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        key.get()
    })
}

/// The ready FIFO's contents.
struct ReadyState {
    items: VecDeque<ReadyItem>,
    max_len: usize,
}

/// FIFO of runnable work, owned by the thread that created the [`Sim`].
///
/// Every task `Waker` holds one, and `Waker` is `Send + Sync`, so this
/// type must be `Sync` too. The simulation itself never leaves its thread
/// (`Sim` is `!Send`), so instead of a lock each access checks that it
/// runs on the owner thread and panics otherwise.
struct ReadyQueue {
    owner: u64,
    state: UnsafeCell<ReadyState>,
}

// SAFETY: `owner` is immutable. `state` is reached only by `push`, `pop`
// and `max_len`, each of which first asserts that it runs on the owner
// thread, so no two threads ever access it. Dropping the queue on another
// thread (the last `Waker` may die anywhere) is sound: `ReadyState` is
// `Send`, and `Arc`'s final drop happens-after every earlier use.
unsafe impl Sync for ReadyQueue {}

impl ReadyQueue {
    fn new() -> Self {
        ReadyQueue {
            owner: thread_key(),
            state: UnsafeCell::new(ReadyState {
                items: VecDeque::new(),
                max_len: 0,
            }),
        }
    }

    /// # Panics
    /// Panics unless called on the owner thread.
    fn assert_owner(&self) {
        assert!(
            thread_key() == self.owner,
            "gcr-sim: a simulation waker was woken on another thread; \
             the executor is single-threaded and its wakers must stay on \
             the thread that created the Sim"
        );
    }

    fn push(&self, item: ReadyItem) {
        self.assert_owner();
        // SAFETY: only the owner thread touches `state` (asserted above),
        // and no other reference to it is live: every access is a leaf
        // like this one that calls out to no other code.
        let ready = unsafe { &mut *self.state.get() };
        ready.items.push_back(item);
        ready.max_len = ready.max_len.max(ready.items.len());
    }

    fn pop(&self) -> Option<ReadyItem> {
        self.assert_owner();
        // SAFETY: as in `push`.
        unsafe { &mut *self.state.get() }.items.pop_front()
    }

    fn max_len(&self) -> usize {
        self.assert_owner();
        // SAFETY: as in `push`.
        unsafe { &*self.state.get() }.max_len
    }
}

/// The state behind a task's `Waker`.
struct TaskWaker {
    id: TaskId,
    /// Set while the task sits on the ready FIFO: the wake dedupe. Only
    /// touched on the owner thread, so relaxed loads and stores suffice.
    queued: AtomicBool,
    ready: Arc<ReadyQueue>,
}

impl TaskWaker {
    fn enqueue(&self) {
        // Check before reading `queued`: the load-then-store below is
        // only a correct dedupe on one thread.
        self.ready.assert_owner();
        if !self.queued.load(Ordering::Relaxed) {
            self.queued.store(true, Ordering::Relaxed);
            self.ready.push(ReadyItem::Task(self.id));
        }
    }
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.enqueue();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.enqueue();
    }
}

type BoxFuture = Pin<Box<dyn Future<Output = ()>>>;

struct Task {
    /// The future and the task's one `Waker` (built at spawn). Both are
    /// taken out while the task is being polled.
    body: Option<(BoxFuture, Waker)>,
    name: Rc<str>,
    /// The state behind the task's waker, for task-keyed timers.
    waker: Arc<TaskWaker>,
    generation: u64,
}

/// What to do for an event popped off the heap. Built in global sequence
/// order under the core borrow, executed after it is released.
enum FireOp {
    Wake(Waker),
    WakeTask(TaskId),
    Run(u32),
}

struct Core {
    now: SimTime,
    /// Single global schedule counter — the tiebreak of the total order.
    event_seq: u64,
    queue: EventQueue,
    /// Event arena; the heap and the ready FIFO refer to slots by index.
    events: Vec<EventSlot>,
    free_events: Vec<u32>,
    tasks: Vec<Option<Task>>,
    free_slots: Vec<usize>,
    live_tasks: usize,
    /// Calls scheduled but not yet run (they keep the simulation alive the
    /// way the in-flight tasks they replace did).
    pending_calls: usize,
    next_generation: u64,
    /// The task being polled and its waker's data pointer.
    current: Option<(TaskId, *const ())>,
    polls: u64,
    events_fired: u64,
    calls_run: u64,
    merges: u64,
    /// High-water mark of `queue.len()`.
    max_pending: usize,
    /// Reusable scratch for the fire loop.
    fire_scratch: Vec<FireOp>,
}

impl Core {
    fn alloc_event(&mut self, ev: EventSlot) -> u32 {
        match self.free_events.pop() {
            Some(slot) => {
                self.events[slot as usize] = ev;
                slot
            }
            None => {
                self.events.push(ev);
                (self.events.len() - 1) as u32
            }
        }
    }

    /// Give `slot` the next global sequence number and push it on the heap.
    fn push_event(&mut self, at: SimTime, slot: u32) {
        let seq = self.event_seq;
        self.event_seq += 1;
        self.queue.push(HeapEntry { at, seq, slot });
        self.max_pending = self.max_pending.max(self.queue.len());
    }

    /// Convert a popped heap entry into its fire op. Wake slots are freed
    /// here; Call slots stay allocated until their `CallRun` drains.
    fn op_for(&mut self, slot: u32) -> FireOp {
        let ev = &mut self.events[slot as usize];
        match ev.kind.take() {
            Some(EventKind::Wake(w)) => {
                self.free_events.push(slot);
                FireOp::Wake(w)
            }
            Some(EventKind::WakeTask(id)) => {
                self.free_events.push(slot);
                FireOp::WakeTask(id)
            }
            call => {
                ev.kind = call;
                FireOp::Run(slot)
            }
        }
    }
}

/// A cheaply-cloneable handle to the simulation. All spawned futures
/// typically capture one.
#[derive(Clone)]
pub struct Sim {
    inner: Rc<Inner>,
}

struct Inner {
    core: RefCell<Core>,
    ready: Arc<ReadyQueue>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create an empty simulation with the clock at zero. The calling
    /// thread owns it: the simulation's wakers may only be woken there.
    pub fn new() -> Self {
        Sim {
            inner: Rc::new(Inner {
                core: RefCell::new(Core {
                    now: SimTime::ZERO,
                    event_seq: 0,
                    queue: EventQueue::new(),
                    events: Vec::new(),
                    free_events: Vec::new(),
                    tasks: Vec::new(),
                    free_slots: Vec::new(),
                    live_tasks: 0,
                    pending_calls: 0,
                    next_generation: 0,
                    current: None,
                    polls: 0,
                    events_fired: 0,
                    calls_run: 0,
                    merges: 0,
                    max_pending: 0,
                    fire_scratch: Vec::new(),
                }),
                ready: Arc::new(ReadyQueue::new()),
            }),
        }
    }

    fn core(&self) -> &RefCell<Core> {
        &self.inner.core
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core().borrow().now
    }

    /// Number of tasks that have not yet completed.
    pub fn live_tasks(&self) -> usize {
        self.core().borrow().live_tasks
    }

    /// Total number of task polls performed so far (diagnostic).
    pub fn poll_count(&self) -> u64 {
        self.core().borrow().polls
    }

    /// Number of events currently waiting in the timer heap.
    pub fn pending_events(&self) -> usize {
        self.core().borrow().queue.len()
    }

    /// Snapshot of kernel counters (polls, fired events, clock advances,
    /// high-water marks).
    pub fn stats(&self) -> SimStats {
        let core = self.core().borrow();
        SimStats {
            polls: core.polls,
            events_fired: core.events_fired,
            calls_run: core.calls_run,
            merges: core.merges,
            max_pending_events: core.max_pending as u64,
            max_ready_len: self.inner.ready.max_len() as u64,
        }
    }

    /// Spawn a named task. The name appears in deadlock reports.
    pub fn spawn_named<F>(&self, name: impl Into<String>, fut: F) -> TaskId
    where
        F: Future<Output = ()> + 'static,
    {
        let mut core = self.core().borrow_mut();
        let generation = core.next_generation;
        core.next_generation += 1;
        let slot = core.free_slots.pop().unwrap_or_else(|| {
            core.tasks.push(None);
            core.tasks.len() - 1
        });
        let id = TaskId { slot, generation };
        let waker = Arc::new(TaskWaker {
            id,
            queued: AtomicBool::new(true), // spawned tasks start on the ready queue
            ready: Arc::clone(&self.inner.ready),
        });
        core.tasks[slot] = Some(Task {
            body: Some((Box::pin(fut), Waker::from(Arc::clone(&waker)))),
            name: Rc::from(name.into()),
            waker,
            generation,
        });
        core.live_tasks += 1;
        drop(core);
        self.inner.ready.push(ReadyItem::Task(id));
        id
    }

    /// Spawn an anonymous task.
    pub fn spawn<F>(&self, fut: F) -> TaskId
    where
        F: Future<Output = ()> + 'static,
    {
        self.spawn_named("task", fut)
    }

    /// Schedule `waker` to be invoked at absolute time `at`.
    /// This is the primitive all timed futures are built on. The waker of
    /// the task being polled is not cloned: the timer records the task.
    ///
    /// # Panics
    /// Panics if `at` is in the simulated past.
    pub fn schedule_waker(&self, at: SimTime, waker: &Waker) {
        let mut core = self.core().borrow_mut();
        assert!(
            at >= core.now,
            "cannot schedule a waker in the past ({} < {})",
            at,
            core.now
        );
        let kind = match core.current {
            Some((id, data)) if data == waker.data() => EventKind::WakeTask(id),
            _ => EventKind::Wake(waker.clone()),
        };
        let slot = core.alloc_event(EventSlot {
            at,
            kind: Some(kind),
        });
        core.push_event(at, slot);
    }

    /// Schedule `f` to run on the executor at absolute time `at`. This is
    /// the arena-allocated replacement for spawning a task that sleeps and
    /// then acts: no future, no task slot, no waker — one event slot and
    /// one closure.
    ///
    /// # Panics
    /// Panics if `at` is in the simulated past.
    pub fn schedule_call(&self, at: SimTime, f: impl FnOnce() + 'static) {
        let mut core = self.core().borrow_mut();
        assert!(
            at >= core.now,
            "cannot schedule a call in the past ({} < {})",
            at,
            core.now
        );
        let slot = core.alloc_event(EventSlot {
            at,
            kind: Some(EventKind::Call(Box::new(f))),
        });
        core.pending_calls += 1;
        drop(core);
        // The sequence number is assigned when this drains — the same FIFO
        // position where the task-per-message scheme registered its timer.
        self.inner.ready.push(ReadyItem::CallInit(slot));
    }

    /// A future that completes at absolute simulated time `deadline`.
    /// Completes immediately if `deadline` has already passed.
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            sim: self.clone(),
            deadline,
            registered: false,
        }
    }

    /// A future that completes after `dur` of simulated time.
    pub fn sleep(&self, dur: SimDuration) -> Sleep {
        let deadline = self.now() + dur;
        self.sleep_until(deadline)
    }

    /// Yield to other ready tasks without advancing time.
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { yielded: false }
    }

    /// Run until all tasks complete.
    ///
    /// # Errors
    /// Returns [`Deadlock`] if live tasks remain but no timer or wake can
    /// ever run them again.
    pub fn run(&self) -> Result<(), Deadlock> {
        match self.run_inner(SimTime::MAX) {
            Ok(_) => Ok(()),
            Err(d) => Err(d),
        }
    }

    /// Run until all tasks complete or the clock would pass `horizon`.
    /// Timers at exactly `horizon` still fire.
    ///
    /// # Errors
    /// Returns [`Deadlock`] on a stall before the horizon.
    pub fn run_until(&self, horizon: SimTime) -> Result<RunOutcome, Deadlock> {
        self.run_inner(horizon)
    }

    fn run_inner(&self, horizon: SimTime) -> Result<RunOutcome, Deadlock> {
        let ready = &self.inner.ready;
        loop {
            // Drain the ready FIFO.
            while let Some(item) = ready.pop() {
                match item {
                    ReadyItem::Task(id) => self.poll_task(id),
                    ReadyItem::CallInit(slot) => self.init_call(slot),
                    ReadyItem::CallRun(slot) => self.run_call(slot),
                }
            }
            let mut core = self.core().borrow_mut();
            if core.live_tasks == 0 && core.pending_calls == 0 {
                return Ok(RunOutcome::AllDone);
            }
            // No runnable work: advance the clock to the earliest deadline
            // and fire every event at that instant, in sequence order.
            match core.queue.next_at() {
                Some(at) if at <= horizon => {
                    core.now = at;
                    core.merges += 1;
                    let mut ops = std::mem::take(&mut core.fire_scratch);
                    ops.clear();
                    while let Some(entry) = core.queue.pop_at(at) {
                        let op = core.op_for(entry.slot);
                        ops.push(op);
                    }
                    core.events_fired += ops.len() as u64;
                    drop(core);
                    for op in ops.drain(..) {
                        match op {
                            FireOp::Wake(w) => w.wake(),
                            FireOp::WakeTask(id) => self.wake_task(id),
                            FireOp::Run(slot) => ready.push(ReadyItem::CallRun(slot)),
                        }
                    }
                    self.core().borrow_mut().fire_scratch = ops;
                }
                Some(_) => return Ok(RunOutcome::HorizonReached),
                None => {
                    // Live work but no pending event can ever fire. Calls
                    // always hold a heap entry once initialized (and the
                    // FIFO is drained), so this is a pure task deadlock.
                    let stuck = core
                        .tasks
                        .iter()
                        .flatten()
                        .filter(|t| t.body.is_some())
                        .map(|t| t.name.to_string())
                        .collect();
                    return Err(Deadlock {
                        at: core.now,
                        stuck,
                    });
                }
            }
        }
    }

    /// Fire a task-keyed timer: exactly what waking the task's own waker
    /// does, unless the task has exited (its slot may now hold another).
    fn wake_task(&self, id: TaskId) {
        let core = self.core().borrow();
        if let Some(Some(task)) = core.tasks.get(id.slot) {
            if task.generation == id.generation {
                task.waker.enqueue();
            }
        }
    }

    /// Second half of `schedule_call`: assign the global sequence number
    /// and move the event into the heap.
    fn init_call(&self, slot: u32) {
        let mut core = self.core().borrow_mut();
        let at = match core.events.get(slot as usize) {
            Some(ev) => ev.at,
            None => return,
        };
        core.push_event(at, slot);
    }

    /// Final half of a scheduled call: take the closure, free the slot,
    /// run the closure with the core released.
    fn run_call(&self, slot: u32) {
        let f = {
            let mut core = self.core().borrow_mut();
            let Some(EventKind::Call(f)) = core
                .events
                .get_mut(slot as usize)
                .and_then(|e| e.kind.take())
            else {
                return;
            };
            core.free_events.push(slot);
            core.pending_calls -= 1;
            core.calls_run += 1;
            f
        };
        f();
    }

    fn poll_task(&self, id: TaskId) {
        // Take the future and waker out of the slab so the core is not
        // borrowed while the task body runs (the body will re-borrow it).
        let (mut fut, waker, outer) = {
            let mut core = self.core().borrow_mut();
            let task = match core.tasks.get_mut(id.slot) {
                Some(Some(task)) if task.generation == id.generation => task,
                _ => return, // task already finished; stale wake
            };
            task.waker.queued.store(false, Ordering::Relaxed);
            let Some((fut, waker)) = task.body.take() else {
                return;
            };
            core.polls += 1;
            let outer = core.current.replace((id, waker.data()));
            (fut, waker, outer)
        };
        let poll = fut.as_mut().poll(&mut Context::from_waker(&waker));
        let mut core = self.core().borrow_mut();
        core.current = outer;
        if let Some(Some(task)) = core.tasks.get_mut(id.slot) {
            if task.generation == id.generation {
                if poll.is_pending() {
                    task.body = Some((fut, waker));
                    return;
                }
                core.tasks[id.slot] = None;
                core.free_slots.push(id.slot);
                core.live_tasks -= 1;
            }
        }
        // The finished future drops with the core released: its
        // destructors may wake or spawn.
        drop(core);
        drop(fut);
    }
}

/// Future returned by [`Sim::sleep`] / [`Sim::sleep_until`].
pub struct Sleep {
    sim: Sim,
    deadline: SimTime,
    registered: bool,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.sim.now() >= self.deadline {
            return Poll::Ready(());
        }
        if !self.registered {
            self.registered = true;
            self.sim.schedule_waker(self.deadline, cx.waker());
        }
        Poll::Pending
    }
}

/// Future returned by [`Sim::yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn empty_sim_finishes_immediately() {
        let sim = Sim::new();
        sim.run().unwrap();
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn sleep_advances_clock() {
        let sim = Sim::new();
        let observed = Rc::new(Cell::new(SimTime::ZERO));
        let obs = Rc::clone(&observed);
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_secs(5)).await;
            obs.set(s.now());
        });
        sim.run().unwrap();
        assert_eq!(observed.get(), SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    fn tasks_interleave_in_time_order() {
        let sim = Sim::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for (label, delay_ms) in [("c", 30u64), ("a", 10), ("b", 20)] {
            let s = sim.clone();
            let ord = Rc::clone(&order);
            sim.spawn(async move {
                s.sleep(SimDuration::from_millis(delay_ms)).await;
                ord.borrow_mut().push(label);
            });
        }
        sim.run().unwrap();
        assert_eq!(*order.borrow(), vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_timers_fire_in_schedule_order() {
        let sim = Sim::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for label in 0..10 {
            let s = sim.clone();
            let ord = Rc::clone(&order);
            sim.spawn(async move {
                s.sleep(SimDuration::from_millis(5)).await;
                ord.borrow_mut().push(label);
            });
        }
        sim.run().unwrap();
        assert_eq!(*order.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn scheduled_calls_run_at_their_deadline() {
        let sim = Sim::new();
        let hits = Rc::new(RefCell::new(Vec::new()));
        let s = sim.clone();
        let h = Rc::clone(&hits);
        sim.spawn(async move {
            let at = s.now() + SimDuration::from_millis(5);
            let (s2, h2) = (s.clone(), Rc::clone(&h));
            s.schedule_call(at, move || h2.borrow_mut().push(s2.now()));
            s.sleep(SimDuration::from_millis(10)).await;
            h.borrow_mut().push(s.now());
        });
        sim.run().unwrap();
        assert_eq!(
            *hits.borrow(),
            vec![SimTime::from_millis(5), SimTime::from_millis(10)]
        );
        assert_eq!(sim.stats().calls_run, 1);
    }

    #[test]
    fn calls_and_sleeps_at_same_instant_keep_schedule_order() {
        // Interleave sleeps and scheduled calls with the same deadline:
        // they fire in sequence order. A sleep takes its sequence number
        // when it registers; a call takes it when its CallInit drains from
        // the ready FIFO — after every task queued ahead of it has been
        // polled, as the task-per-message scheme registered its timer.
        let sim = Sim::new();
        let order = Rc::new(RefCell::new(Vec::new()));
        for label in 0..8usize {
            let s = sim.clone();
            let ord = Rc::clone(&order);
            sim.spawn_named(format!("t{label}"), async move {
                let at = s.now() + SimDuration::from_millis(5);
                if label % 2 == 0 {
                    let ord2 = Rc::clone(&ord);
                    s.schedule_call(at, move || ord2.borrow_mut().push(label));
                } else {
                    s.sleep_until(at).await;
                    ord.borrow_mut().push(label);
                }
            });
        }
        sim.run().unwrap();
        assert_eq!(*order.borrow(), vec![1, 3, 5, 7, 0, 2, 4, 6]);
    }

    #[test]
    fn pending_calls_keep_the_sim_alive() {
        let sim = Sim::new();
        let done = Rc::new(Cell::new(false));
        let s = sim.clone();
        let d = Rc::clone(&done);
        sim.spawn(async move {
            let at = s.now() + SimDuration::from_secs(3);
            s.schedule_call(at, move || d.set(true));
            // Task completes immediately; the call alone must keep the
            // run loop going.
        });
        sim.run().unwrap();
        assert!(done.get());
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    #[test]
    fn yield_now_reschedules_without_time() {
        let sim = Sim::new();
        let count = Rc::new(Cell::new(0));
        let c = Rc::clone(&count);
        let s = sim.clone();
        sim.spawn(async move {
            for _ in 0..100 {
                s.yield_now().await;
                c.set(c.get() + 1);
            }
        });
        sim.run().unwrap();
        assert_eq!(count.get(), 100);
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn deadlock_is_reported_with_names() {
        let sim = Sim::new();
        sim.spawn_named("waits-forever", std::future::pending::<()>());
        let err = sim.run().unwrap_err();
        assert_eq!(err.stuck, vec!["waits-forever".to_string()]);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(SimDuration::from_secs(100)).await;
        });
        let outcome = sim.run_until(SimTime::from_secs(10)).unwrap();
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(sim.live_tasks(), 1);
        // Resuming without a horizon finishes the task.
        sim.run().unwrap();
        assert_eq!(sim.now(), SimTime::from_secs(100));
    }

    #[test]
    fn nested_spawns_run() {
        let sim = Sim::new();
        let hits = Rc::new(Cell::new(0));
        let s = sim.clone();
        let h = Rc::clone(&hits);
        sim.spawn(async move {
            for i in 0..5 {
                let s2 = s.clone();
                let h2 = Rc::clone(&h);
                s.spawn(async move {
                    s2.sleep(SimDuration::from_millis(i)).await;
                    h2.set(h2.get() + 1);
                });
            }
        });
        sim.run().unwrap();
        assert_eq!(hits.get(), 5);
    }

    #[test]
    fn sleep_zero_completes_immediately() {
        let sim = Sim::new();
        let s = sim.clone();
        let done = Rc::new(Cell::new(false));
        let d = Rc::clone(&done);
        sim.spawn(async move {
            s.sleep(SimDuration::ZERO).await;
            d.set(true);
        });
        sim.run().unwrap();
        assert!(done.get());
    }

    #[test]
    fn task_slots_are_reused_safely() {
        let sim = Sim::new();
        // First generation of tasks.
        for _ in 0..4 {
            sim.spawn(async {});
        }
        sim.run().unwrap();
        // Second generation reuses slots; stale wakes must not corrupt them.
        let count = Rc::new(Cell::new(0));
        for _ in 0..4 {
            let s = sim.clone();
            let c = Rc::clone(&count);
            sim.spawn(async move {
                s.sleep(SimDuration::from_millis(1)).await;
                c.set(c.get() + 1);
            });
        }
        sim.run().unwrap();
        assert_eq!(count.get(), 4);
    }

    #[test]
    fn event_slots_are_reused() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn(async move {
            for _ in 0..100 {
                s.sleep(SimDuration::from_millis(1)).await;
            }
        });
        sim.run().unwrap();
        // One live sleep at a time: the arena should stay tiny.
        assert!(sim.core().borrow().events.len() <= 2);
        assert_eq!(sim.stats().events_fired, 100);
    }
}
