//! In-task fan-out: await many futures of one type inside the calling task.
//!
//! [`join_all`] is what a caller reaches for instead of spawning one joined
//! task per child: the children live in one array owned by the join, are
//! polled in index order with the *caller's* waker, and hand their outputs
//! back in input order. No task, no join state, no slab slot — the child
//! array is the only allocation, and a wake-up of any child is a wake-up of
//! the caller, so a child's progress costs no scheduling hop of its own.
//!
//! Every child still pending is polled on each wake-up of the caller, so
//! children must tolerate spurious polls — every future in this workspace
//! does ([`crate::executor::Sleep`] registers its timer once, the `sync`
//! waiters re-arm in place).

use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::task::Poll;

enum Child<F: Future> {
    Running(F),
    Done(F::Output),
}

/// Run `children` to completion concurrently inside the calling task and
/// yield their outputs in input order.
///
/// On every poll the children still running are polled in index order; a
/// child that has finished is never polled again. The join completes in the
/// poll in which the last child does. Dropping the join drops every child
/// (finished or not) where it stands.
pub async fn join_all<F: Future>(children: impl IntoIterator<Item = F>) -> Outputs<F> {
    let mut slots: Box<[Child<F>]> = children.into_iter().map(Child::Running).collect();
    let base = slots.as_ptr();
    poll_fn(|cx| {
        debug_assert_eq!(slots.as_ptr(), base, "child array moved while pinned");
        let mut pending = false;
        for slot in slots.iter_mut() {
            let Child::Running(child) = slot else {
                continue;
            };
            // SAFETY: `child` is structurally pinned. It sits in the boxed
            // slice `slots`, which is never grown, moved out of or swapped
            // between the first poll and the last: this loop is its only
            // access until every child is `Done`, and it replaces a child
            // only by the assignment below, which drops the finished future
            // in place. Moving the enclosing `async fn` future moves the
            // `Box`, not the heap array it points to, and dropping it
            // mid-wait drops the children in place too.
            match unsafe { Pin::new_unchecked(child) }.poll(cx) {
                Poll::Ready(out) => *slot = Child::Done(out),
                Poll::Pending => pending = true,
            }
        }
        if pending {
            Poll::Pending
        } else {
            Poll::Ready(())
        }
    })
    .await;
    // Every slot is `Done`: no pinned future is left to move.
    Outputs(slots.into_vec().into_iter())
}

/// The outputs of a [`join_all`], in input order: the child array itself,
/// handed over as an iterator so that a caller folding the results (a
/// minimum, a sum) allocates nothing further.
pub struct Outputs<F: Future>(std::vec::IntoIter<Child<F>>);

impl<F: Future> Iterator for Outputs<F> {
    type Item = F::Output;

    fn next(&mut self) -> Option<F::Output> {
        self.0.next().map(|slot| match slot {
            Child::Done(out) => out,
            Child::Running(_) => unreachable!("join_all completed with a child still running"),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::us;
    use crate::{Sim, SimHandle};
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;
    use std::task::Context;

    /// Sleeps `dur`, logs its own completion, returns `tag`.
    async fn child(h: SimHandle, dur: u64, tag: u32, log: Rc<RefCell<Vec<u32>>>) -> u32 {
        h.sleep(dur).await;
        log.borrow_mut().push(tag);
        tag
    }

    #[test]
    fn outputs_come_in_input_order_whatever_the_completion_order() {
        let sim = Sim::new();
        let h = sim.handle();
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        let l2 = Rc::clone(&log);
        let (out, at) = sim.run_to(async move {
            let durs = [us(9), us(2), us(5), us(2)];
            let kids = (0u32..)
                .zip(durs)
                .map(|(i, d)| child(h.clone(), d, i, Rc::clone(&l2)));
            let out: Vec<u32> = join_all(kids).await.collect();
            (out, h.now())
        });
        assert_eq!(out, [0, 1, 2, 3]);
        // Equal deadlines complete in index order.
        assert_eq!(*log.borrow(), [1, 3, 2, 0]);
        assert_eq!(
            at,
            us(9),
            "the join completes at the latest child's instant"
        );
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn no_task_is_spawned_and_only_the_caller_is_polled() {
        let sim = Sim::new();
        let h = sim.handle();
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        sim.run_to(async move {
            let kids = (0..4).map(|i| child(h.clone(), us(3), i, Rc::clone(&log)));
            assert_eq!(join_all(kids).await.count(), 4);
        });
        // Only the root was ever polled: once to start, once when the first
        // of the four equal deadlines fired — that wake-up completes all four
        // children, and `run_to` stops there.
        let c = sim.counters();
        assert_eq!((c.timers_fired, c.polls), (1, 2));
    }

    /// Ready on its `ready_on`-th poll; counts its polls.
    struct Probe {
        ready_on: u32,
        polls: Rc<Cell<u32>>,
    }

    impl Future for Probe {
        type Output = u32;
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u32> {
            self.polls.set(self.polls.get() + 1);
            if self.polls.get() >= self.ready_on {
                Poll::Ready(self.polls.get())
            } else {
                cx.waker().wake_by_ref();
                Poll::Pending
            }
        }
    }

    #[test]
    fn a_child_ready_on_first_poll_is_never_polled_again() {
        let sim = Sim::new();
        let polls: Vec<Rc<Cell<u32>>> = (0..3).map(|_| Rc::default()).collect();
        let kids: Vec<Probe> = [1, 4, 2]
            .iter()
            .zip(&polls)
            .map(|(&ready_on, polls)| Probe {
                ready_on,
                polls: Rc::clone(polls),
            })
            .collect();
        let out: Vec<u32> = sim.run_to(async move { join_all(kids).await.collect() });
        assert_eq!(out, [1, 4, 2]);
        let polled: Vec<u32> = polls.iter().map(|p| p.get()).collect();
        assert_eq!(
            polled,
            [1, 4, 2],
            "each child polled until ready, then left alone"
        );
    }

    #[test]
    fn dropping_the_join_mid_wait_drops_every_child_and_wakes_no_dead_task() {
        let sim = Sim::new();
        let h = sim.handle();
        let drops: Rc<Cell<u32>> = Rc::default();
        let finished: Rc<Cell<u32>> = Rc::default();
        let (d2, f2) = (Rc::clone(&drops), Rc::clone(&finished));
        let hh = h.clone();
        sim.spawn(async move {
            let kids = [us(1), us(50), us(80)].map(|dur| {
                let (h, guard, fin) = (hh.clone(), DropCount(Rc::clone(&d2)), Rc::clone(&f2));
                async move {
                    h.sleep(dur).await;
                    fin.set(fin.get() + 1);
                    drop(guard);
                }
            });
            // The deadline wins at 10 µs: one child done, two mid-sleep.
            let joined = hh.timeout(us(10), Box::pin(join_all(kids))).await;
            assert!(joined.is_err());
        });
        sim.run_until(us(10));
        assert_eq!(finished.get(), 1);
        assert_eq!(drops.get(), 3, "every child dropped with the join");
        assert_eq!(sim.live_tasks(), 0);
        // The two abandoned sleeps still sit in the wheel under the dead
        // task's waker; when they fire nothing is polled.
        let polls = sim.polls();
        sim.run();
        assert_eq!(sim.now(), us(80));
        assert_eq!(sim.polls(), polls, "a stale timer polled something");
        assert_eq!(finished.get(), 1);
    }

    struct DropCount(Rc<Cell<u32>>);

    impl Drop for DropCount {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn zero_and_one_children() {
        let sim = Sim::new();
        let h = sim.handle();
        let (none, one, at) = sim.run_to(async move {
            let none = join_all(Vec::<std::future::Ready<u8>>::new()).await.count();
            let hh = h.clone();
            let one: Vec<u64> = join_all([async move {
                hh.sleep(us(4)).await;
                hh.now()
            }])
            .await
            .collect();
            (none, one, h.now())
        });
        assert_eq!(none, 0, "an empty join is ready at once");
        assert_eq!(one, [us(4)]);
        assert_eq!(at, us(4));
    }
}
