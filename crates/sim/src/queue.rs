//! The executor's event queue: one timer heap over an event arena.
//!
//! Every event carries a sequence number drawn from one global counter
//! when it is scheduled, so the heap yields the exact total order
//! `(deadline, schedule-sequence)`. That order — together with the
//! executor's FIFO poll order — is what every pinned digest depends on.
//!
//! Events live in an arena owned by the executor core ([`EventSlot`]);
//! the heap stores only 24-byte [`HeapEntry`] keys. Slot lifetime rules
//! are documented on [`EventSlot`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::task::Waker;

use crate::executor::TaskId;
use crate::time::SimTime;

/// What an event does when its deadline is reached.
pub(crate) enum EventKind {
    /// Wake a parked task through a waker that is not its own (classic
    /// timer semantics).
    Wake(Waker),
    /// Wake a task that registered the timer with its own waker: the same
    /// dedupe and generation check as `Waker::wake`, without a waker clone.
    WakeTask(TaskId),
    /// Run a closure on the executor — the arena-allocated replacement for
    /// spawning a short-lived "in-flight" task per message.
    Call(Box<dyn FnOnce()>),
}

/// Arena slot for a scheduled event.
///
/// Lifetime rules:
/// * A slot is allocated when the event is scheduled and holds
///   `kind: Some(_)` until the event is consumed.
/// * `Wake` and `WakeTask` slots are freed at fire time — the payload is
///   extracted while the heap entry is popped.
/// * `Call` slots outlive their heap entry: firing only enqueues the run
///   on the ready FIFO, and the closure is taken (and the slot freed) when
///   that FIFO entry drains. This mirrors the poll-after-wake lifecycle of
///   the task-per-message scheme it replaces, which is what keeps
///   same-instant ordering bit-identical.
/// * Slots are reused only after being freed; each slot has exactly one
///   heap entry and at most one pending ready-FIFO reference at a time, so
///   no generation counter is needed.
pub(crate) struct EventSlot {
    /// Absolute deadline.
    pub(crate) at: SimTime,
    /// Payload; `None` once consumed (slot is free or about to be).
    pub(crate) kind: Option<EventKind>,
}

/// Key stored in the timer heap, ordered by `(at, seq)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct HeapEntry {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) slot: u32,
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The timer heap: a min-heap of pending event keys.
pub(crate) struct EventQueue {
    heap: BinaryHeap<Reverse<HeapEntry>>,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
        }
    }

    /// Deadline of the earliest pending event, if any.
    pub(crate) fn next_at(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    /// Push an entry.
    pub(crate) fn push(&mut self, entry: HeapEntry) {
        self.heap.push(Reverse(entry));
    }

    /// Pop the earliest entry if its deadline is exactly `at`.
    pub(crate) fn pop_at(&mut self, at: SimTime) -> Option<HeapEntry> {
        match self.heap.peek() {
            Some(Reverse(e)) if e.at == at => self.heap.pop().map(|Reverse(e)| e),
            _ => None,
        }
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(at_ms: u64, seq: u64, slot: u32) -> HeapEntry {
        HeapEntry {
            at: SimTime::from_millis(at_ms),
            seq,
            slot,
        }
    }

    #[test]
    fn heap_entries_order_by_time_then_seq() {
        let mut q = EventQueue::new();
        q.push(e(5, 9, 0));
        q.push(e(5, 3, 1));
        q.push(e(2, 7, 2));
        assert_eq!(q.next_at(), Some(SimTime::from_millis(2)));
        assert_eq!(q.pop_at(SimTime::from_millis(2)).map(|x| x.slot), Some(2));
        // Same instant drains in seq order.
        assert_eq!(q.pop_at(SimTime::from_millis(5)).map(|x| x.seq), Some(3));
        assert_eq!(q.pop_at(SimTime::from_millis(5)).map(|x| x.seq), Some(9));
        assert_eq!(q.pop_at(SimTime::from_millis(5)), None);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn pop_at_refuses_other_instants() {
        let mut q = EventQueue::new();
        q.push(e(10, 0, 0));
        assert_eq!(q.pop_at(SimTime::from_millis(9)), None);
        assert_eq!(q.len(), 1);
    }
}
