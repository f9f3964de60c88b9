//! Minimal future combinators (the simulator avoids external async crates).

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

/// Await two futures concurrently, returning both outputs.
pub fn join2<A, B>(a: A, b: B) -> Join2<A, B>
where
    A: Future,
    B: Future,
{
    Join2 {
        a: MaybeDone::Pending(a),
        b: MaybeDone::Pending(b),
    }
}

enum MaybeDone<F: Future> {
    Pending(F),
    Done(Option<F::Output>),
}

impl<F: Future> MaybeDone<F> {
    /// Polls the inner future if still pending; returns true when done.
    /// Safety: structural pinning — we never move the future once polled.
    fn poll_done(self: Pin<&mut Self>, cx: &mut Context<'_>) -> bool {
        // SAFETY: we never move the pinned future out; replacement happens
        // only after it has completed.
        let this = unsafe { self.get_unchecked_mut() };
        match this {
            MaybeDone::Pending(f) => {
                let pinned = unsafe { Pin::new_unchecked(f) };
                match pinned.poll(cx) {
                    Poll::Ready(out) => {
                        *this = MaybeDone::Done(Some(out));
                        true
                    }
                    Poll::Pending => false,
                }
            }
            MaybeDone::Done(_) => true,
        }
    }

    fn take(self: Pin<&mut Self>) -> F::Output {
        let this = unsafe { self.get_unchecked_mut() };
        match this {
            MaybeDone::Done(v) => v.take().expect("output already taken"),
            MaybeDone::Pending(_) => panic!("join2 output taken before completion"),
        }
    }
}

/// Future returned by [`join2`].
pub struct Join2<A: Future, B: Future> {
    a: MaybeDone<A>,
    b: MaybeDone<B>,
}

impl<A: Future, B: Future> Future for Join2<A, B> {
    type Output = (A::Output, B::Output);

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: structural pinning of both fields.
        let this = unsafe { self.get_unchecked_mut() };
        let a_done = unsafe { Pin::new_unchecked(&mut this.a) }.poll_done(cx);
        let b_done = unsafe { Pin::new_unchecked(&mut this.b) }.poll_done(cx);
        if a_done && b_done {
            let a = unsafe { Pin::new_unchecked(&mut this.a) }.take();
            let b = unsafe { Pin::new_unchecked(&mut this.b) }.take();
            Poll::Ready((a, b))
        } else {
            Poll::Pending
        }
    }
}

/// Await a dynamic set of futures, returning outputs in input order.
///
/// The children live in one heap slice and are polled where they lie: no
/// per-child box, and no second copy of a caller's collected `Vec`. Every
/// pending child is re-polled, in index order, on each poll of the join:
/// children share the parent task's waker, so this order is what keeps
/// task-keyed timers and the ready FIFO deterministic.
pub fn join_all<I>(futs: I) -> JoinAll<I::Item>
where
    I: IntoIterator,
    I::Item: Future,
{
    JoinAll {
        futs: futs.into_iter().map(MaybeDone::Pending).collect(),
    }
}

/// Future returned by [`join_all`].
pub struct JoinAll<F: Future> {
    /// Never reallocated, moved out of or shrunk while the join lives:
    /// children are pinned where they lie and only dropped in place.
    futs: Box<[MaybeDone<F>]>,
}

impl<F: Future> Future for JoinAll<F> {
    type Output = Vec<F::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // `JoinAll` is `Unpin` (a `Box` is), but the elements of the
        // slice behind it are pinned: moving the `JoinAll` moves only the
        // pointer, and the slice is never reallocated (see `futs`).
        let this = self.get_mut();
        let mut all_done = true;
        for f in this.futs.iter_mut() {
            // SAFETY: the element stays at this address until it is
            // dropped in place, by `poll_done` on completion or with the
            // slice when the join is dropped.
            if !unsafe { Pin::new_unchecked(f) }.poll_done(cx) {
                all_done = false;
            }
        }
        if all_done {
            Poll::Ready(
                this.futs
                    .iter_mut()
                    // SAFETY: as above; `take` moves only the finished output.
                    .map(|f| unsafe { Pin::new_unchecked(f) }.take())
                    .collect(),
            )
        } else {
            Poll::Pending
        }
    }
}

/// Outcome of [`select2`].
pub enum Either<A, B> {
    /// The first future finished first.
    Left(A),
    /// The second future finished first.
    Right(B),
}

/// Await whichever of two futures completes first; the loser is dropped.
/// Ties (both ready on the same poll) resolve to the left.
pub fn select2<A, B>(a: A, b: B) -> Select2<A, B>
where
    A: Future,
    B: Future,
{
    Select2 { a, b }
}

/// Future returned by [`select2`].
pub struct Select2<A, B> {
    a: A,
    b: B,
}

impl<A: Future, B: Future> Future for Select2<A, B> {
    type Output = Either<A::Output, B::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        // SAFETY: structural pinning; neither field is moved.
        let this = unsafe { self.get_unchecked_mut() };
        if let Poll::Ready(v) = unsafe { Pin::new_unchecked(&mut this.a) }.poll(cx) {
            return Poll::Ready(Either::Left(v));
        }
        if let Poll::Ready(v) = unsafe { Pin::new_unchecked(&mut this.b) }.poll(cx) {
            return Poll::Ready(Either::Right(v));
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::{SimDuration, SimTime};
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    #[test]
    fn join2_runs_concurrently() {
        let sim = Sim::new();
        let s = sim.clone();
        let done = Rc::new(Cell::new(SimTime::ZERO));
        let d = Rc::clone(&done);
        sim.spawn(async move {
            let (a, b) = join2(
                async {
                    s.sleep(SimDuration::from_secs(3)).await;
                    "a"
                },
                async {
                    s.sleep(SimDuration::from_secs(5)).await;
                    "b"
                },
            )
            .await;
            assert_eq!((a, b), ("a", "b"));
            d.set(s.now());
        });
        sim.run().unwrap();
        // Concurrent: max(3, 5), not 8.
        assert_eq!(done.get(), SimTime::from_secs(5));
    }

    #[test]
    fn join_all_preserves_order_and_overlaps() {
        let sim = Sim::new();
        let s = sim.clone();
        let out = Rc::new(Cell::new(SimTime::ZERO));
        let o = Rc::clone(&out);
        sim.spawn(async move {
            let futs: Vec<_> = (0..4u64)
                .map(|i| {
                    let s = s.clone();
                    async move {
                        s.sleep(SimDuration::from_secs(4 - i)).await;
                        i
                    }
                })
                .collect();
            let results = join_all(futs).await;
            assert_eq!(results, vec![0, 1, 2, 3]);
            o.set(s.now());
        });
        sim.run().unwrap();
        assert_eq!(out.get(), SimTime::from_secs(4));
    }

    #[test]
    fn select2_picks_the_faster() {
        let sim = Sim::new();
        let s = sim.clone();
        let winner = Rc::new(Cell::new(0u8));
        let w = Rc::clone(&winner);
        sim.spawn(async move {
            let r = select2(
                async {
                    s.sleep(SimDuration::from_secs(10)).await;
                    1u8
                },
                async {
                    s.sleep(SimDuration::from_secs(2)).await;
                    2u8
                },
            )
            .await;
            match r {
                Either::Left(v) | Either::Right(v) => w.set(v),
            }
        });
        sim.run().unwrap();
        assert_eq!(winner.get(), 2);
        // The losing sleep does not hold the sim at 10 s.
        assert_eq!(sim.now(), SimTime::from_secs(2));
    }

    fn poll_once<F: Future + Unpin>(f: &mut F) -> Poll<F::Output> {
        Pin::new(f).poll(&mut Context::from_waker(std::task::Waker::noop()))
    }

    #[test]
    fn join_all_empty() {
        let mut none = join_all(std::iter::empty::<std::future::Ready<u8>>());
        assert_eq!(poll_once(&mut none), Poll::Ready(Vec::new()));
    }

    /// Pending until it has been polled `left` more times, logging its
    /// index on every poll.
    struct Counted {
        index: usize,
        left: usize,
        log: Rc<RefCell<Vec<usize>>>,
    }

    impl Future for Counted {
        type Output = usize;

        fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<usize> {
            self.log.borrow_mut().push(self.index);
            if self.left == 0 {
                Poll::Ready(self.index)
            } else {
                self.left -= 1;
                Poll::Pending
            }
        }
    }

    #[test]
    fn join_all_repolls_every_pending_child_in_index_order() {
        let log = Rc::new(RefCell::new(Vec::new()));
        // Child i finishes on its (i + 1)-th poll, so the first child
        // drops out of the re-poll set first.
        let mut all = join_all((0..3).map(|index| Counted {
            index,
            left: index,
            log: Rc::clone(&log),
        }));
        assert!(poll_once(&mut all).is_pending());
        assert!(poll_once(&mut all).is_pending());
        assert_eq!(poll_once(&mut all), Poll::Ready(vec![0, 1, 2]));
        assert_eq!(*log.borrow(), [0, 1, 2, 1, 2, 2]);
    }

    #[test]
    fn join_all_completes_self_borrowing_children() {
        let sim = Sim::new();
        let s = sim.clone();
        let out = Rc::new(RefCell::new(Vec::new()));
        let o = Rc::clone(&out);
        sim.spawn(async move {
            let sums = join_all((1..=3u64).map(|i| {
                let s = s.clone();
                // `!Unpin`: `view` borrows `buf`, which lives in the same
                // future, across the await.
                async move {
                    let buf = [i; 8];
                    let view = &buf[2..];
                    s.sleep(SimDuration::from_secs(4 - i)).await;
                    view.iter().sum::<u64>()
                }
            }))
            .await;
            *o.borrow_mut() = sums;
        });
        sim.run().unwrap();
        assert_eq!(*out.borrow(), [6, 12, 18]);
    }

    /// Records the address it was first polled at, and checks on drop
    /// that it never moved after that.
    struct StayPut {
        at: Cell<usize>,
        drops: Rc<Cell<usize>>,
    }

    impl StayPut {
        fn mark(&self) {
            self.at.set(self as *const Self as usize);
        }
    }

    impl Drop for StayPut {
        fn drop(&mut self) {
            assert_eq!(self.at.get(), self as *const Self as usize, "child moved");
            self.drops.set(self.drops.get() + 1);
        }
    }

    #[test]
    fn join_all_cancelled_by_select2_drops_children_in_place() {
        let sim = Sim::new();
        let s = sim.clone();
        let drops = Rc::new(Cell::new(0));
        let d = Rc::clone(&drops);
        sim.spawn(async move {
            let children = join_all((0..5).map(|_| {
                let (s, drops) = (s.clone(), Rc::clone(&d));
                async move {
                    let guard = StayPut {
                        at: Cell::new(0),
                        drops,
                    };
                    guard.mark();
                    s.sleep(SimDuration::from_secs(10)).await;
                }
            }));
            let r = select2(children, s.sleep(SimDuration::from_secs(1))).await;
            assert!(matches!(r, Either::Right(())));
            assert_eq!(d.get(), 5, "the losing join drops every child");
        });
        sim.run().unwrap();
        assert_eq!(drops.get(), 5);
        assert_eq!(sim.now(), SimTime::from_secs(1));
    }
}
