//! In-task fan-out: await many futures of one type inside the calling task.
//!
//! [`SimHandle::join_all`] is what a caller reaches for instead of spawning
//! one joined task per child: the children live in one array owned by the
//! join, are polled in index order with the *caller's* waker, and hand their
//! outputs back in input order. No task, no join state, no slab slot, and a
//! wake-up of any child is a wake-up of the caller, so a child's progress
//! costs no scheduling hop of its own.
//!
//! The child array is on loan from the `Sim`'s store of join arrays, keyed
//! by the future type (the executor's module doc): when the outputs are
//! consumed, or the join is dropped mid-wait, the children are dropped where
//! they stand and the emptied array goes back for the next join of that
//! type. A join allocates only when every array of its type is in use, so
//! a loop of joins allocates once.
//!
//! Every child still pending is polled on each wake-up of the caller, so
//! children must tolerate spurious polls — every future in this workspace
//! does ([`crate::executor::Sleep`] registers its timer once, the `sync`
//! waiters re-arm in place).

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use crate::SimHandle;

enum Child<F: Future> {
    Running(F),
    Done(F::Output),
    /// The output has been handed out by [`Outputs`].
    Taken,
}

impl SimHandle {
    /// Run `children` to completion concurrently inside the calling task and
    /// yield their outputs in input order.
    ///
    /// On every poll the children still running are polled in index order;
    /// a child that has finished is never polled again. The join completes
    /// in the poll in which the last child does. Dropping the join drops
    /// every child (finished or not) where it stands.
    pub fn join_all<F: Future + 'static>(
        &self,
        children: impl IntoIterator<Item = F>,
    ) -> JoinAll<F> {
        let mut array = self.take_array::<Child<F>>();
        array.extend(children.into_iter().map(Child::Running));
        let base = array.as_ptr();
        JoinAll {
            slots: Some(Slots {
                children: array,
                sim: self.clone(),
            }),
            base,
        }
    }
}

/// A join's child array, on loan from its `Sim`'s store.
struct Slots<F: Future + 'static> {
    children: Vec<Child<F>>,
    sim: SimHandle,
}

impl<F: Future + 'static> Drop for Slots<F> {
    fn drop(&mut self) {
        // The children go first, in place, and no borrow of the store is
        // held meanwhile: a child's `Drop` may spawn or start a join.
        self.children.clear();
        self.sim.recycle_array(std::mem::take(&mut self.children));
    }
}

/// Future returned by [`SimHandle::join_all`].
pub struct JoinAll<F: Future + 'static> {
    /// `None` once the outputs have been handed over.
    slots: Option<Slots<F>>,
    /// Where the children sit; checked on every poll in debug builds.
    base: *const Child<F>,
}

// The children are pinned in the heap array, not in the `JoinAll`: moving
// the join moves the `Vec`'s pointer, never the elements it points to.
impl<F: Future + 'static> Unpin for JoinAll<F> {}

impl<F: Future + 'static> Future for JoinAll<F> {
    type Output = Outputs<F>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Outputs<F>> {
        let this = self.get_mut();
        let slots = this
            .slots
            .as_mut()
            .expect("join_all polled after completion");
        debug_assert_eq!(
            slots.children.as_ptr(),
            this.base,
            "child array moved while pinned"
        );
        let mut pending = false;
        for slot in slots.children.iter_mut() {
            let Child::Running(child) = slot else {
                continue;
            };
            // SAFETY: `child` is structurally pinned. It sits in the heap
            // array of `slots.children`, which is filled before the first
            // poll and never grown, moved out of or swapped until it is
            // emptied: this loop is its only access until every child is
            // `Done`, and it replaces a child only by the assignment below,
            // which drops the finished future in place. Moving the `JoinAll`
            // moves the `Vec`, not the array it points to, and dropping it
            // mid-wait drops the children in place (`Slots::drop`) before
            // the array goes back to the store.
            match unsafe { Pin::new_unchecked(child) }.poll(cx) {
                Poll::Ready(out) => *slot = Child::Done(out),
                Poll::Pending => pending = true,
            }
        }
        if pending {
            return Poll::Pending;
        }
        // Every slot is `Done`: no pinned future is left to move.
        let slots = this.slots.take().expect("checked above");
        Poll::Ready(Outputs { slots, next: 0 })
    }
}

/// The outputs of a [`SimHandle::join_all`], in input order: the child array
/// itself, handed over as an iterator so that a caller folding the results
/// (a minimum, a sum) allocates nothing further. Dropping it returns the
/// array to the store.
pub struct Outputs<F: Future + 'static> {
    slots: Slots<F>,
    next: usize,
}

impl<F: Future + 'static> Iterator for Outputs<F> {
    type Item = F::Output;

    fn next(&mut self) -> Option<F::Output> {
        let slot = self.slots.children.get_mut(self.next)?;
        self.next += 1;
        match std::mem::replace(slot, Child::Taken) {
            Child::Done(out) => Some(out),
            _ => unreachable!("join_all completed with a child still running"),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.slots.children.len() - self.next;
        (left, Some(left))
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
            let out: Vec<u32> = h.join_all(kids).await.collect();
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
            assert_eq!(h.join_all(kids).await.count(), 4);
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
        let h = sim.handle();
        let out: Vec<u32> = sim.run_to(async move { h.join_all(kids).await.collect() });
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
            let joined = hh.timeout(us(10), hh.join_all(kids)).await;
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
            let none = h
                .join_all(Vec::<std::future::Ready<u8>>::new())
                .await
                .count();
            let hh = h.clone();
            let one: Vec<u64> = h
                .join_all([async move {
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

    /// What one scripted child did.
    #[derive(Default)]
    struct Track {
        ready: Cell<bool>,
        drops: Cell<u32>,
    }

    /// Ready with `out` on its `ready_on`-th poll; never wakes anyone (the
    /// exhaustive test polls the join by hand). With `reenter`, its `Drop`
    /// starts and drops a join of its own type.
    struct Scripted {
        out: usize,
        ready_on: u32,
        polls: u32,
        track: Rc<Track>,
        reenter: Option<SimHandle>,
    }

    impl Scripted {
        fn new(out: usize, ready_on: u32, track: &Rc<Track>) -> Scripted {
            Scripted {
                out,
                ready_on,
                polls: 0,
                track: Rc::clone(track),
                reenter: None,
            }
        }
    }

    impl Future for Scripted {
        type Output = usize;
        fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<usize> {
            assert!(!self.track.ready.get(), "child polled after Ready");
            self.polls += 1;
            if self.polls < self.ready_on {
                return Poll::Pending;
            }
            self.track.ready.set(true);
            Poll::Ready(self.out)
        }
    }

    impl Drop for Scripted {
        fn drop(&mut self) {
            self.track.drops.set(self.track.drops.get() + 1);
            if let Some(h) = self.reenter.take() {
                let inner = Rc::default();
                drop(h.join_all([Scripted::new(9, 1, &inner)]));
                assert_eq!(inner.drops.get(), 1);
            }
        }
    }

    fn array_of(join: &JoinAll<Scripted>) -> &Vec<Child<Scripted>> {
        &join.slots.as_ref().expect("join pending").children
    }

    /// One case of the exhaustive test: children ready on the polls in
    /// `ready_on`, child 0 starting a join from its `Drop` if `reenter`; the
    /// join is dropped after `stop` polls, or, if it completes first, after
    /// `stop - completion poll` outputs were taken.
    fn pin_case(h: &SimHandle, ready_on: &[u32], reenter: bool, stop: u32) {
        let mut cx = Context::from_waker(std::task::Waker::noop());
        let n = ready_on.len();
        // An empty join is ready on its first poll.
        let finish = ready_on.iter().copied().max().unwrap_or(1);
        let tracks: Vec<Rc<Track>> = (0..n).map(|_| Rc::default()).collect();
        let kids = (0..n).map(|i| {
            let mut kid = Scripted::new(i, ready_on[i], &tracks[i]);
            kid.reenter = (reenter && i == 0).then(|| h.clone());
            kid
        });
        let mut join = h.join_all(kids);
        let base = array_of(&join).as_ptr();
        let mut outputs = None;
        for poll in 1..=stop.min(finish) {
            assert_eq!(array_of(&join).as_ptr(), base, "array moved while pinned");
            match Pin::new(&mut join).poll(&mut cx) {
                Poll::Ready(out) => {
                    assert_eq!(poll, finish, "{ready_on:?}: ready early");
                    outputs = Some(out);
                }
                Poll::Pending => assert!(poll < finish, "{ready_on:?}: ready late"),
            }
            for (t, &r) in tracks.iter().zip(ready_on) {
                assert_eq!(t.ready.get(), r <= poll, "{ready_on:?} after {poll} polls");
            }
        }
        match outputs {
            Some(mut out) => {
                let take = (stop - finish) as usize;
                assert_eq!(out.size_hint(), (n, Some(n)));
                for i in 0..take {
                    assert_eq!(out.next(), Some(i), "outputs in input order");
                }
                if take == n {
                    assert_eq!(out.next(), None);
                }
            }
            None => drop(join),
        }
        for t in &tracks {
            assert_eq!(t.drops.get(), 1, "{ready_on:?}, dropped at {stop}");
        }
        // The next join of the type takes the array back, even an empty one
        // that would not allocate (so its capacity tells the array from a
        // new one at a recycled address); one alive beside it gets another.
        let next = h.join_all(std::iter::empty::<Scripted>());
        let fresh: Vec<Rc<Track>> = (0..n).map(|_| Rc::default()).collect();
        let beside = h.join_all((0..n).map(|i| Scripted::new(i, 1, &fresh[i])));
        if n > 0 {
            assert_eq!(array_of(&next).as_ptr(), base, "array not reused");
            assert!(array_of(&next).capacity() >= n, "array not reused");
            assert_ne!(array_of(&beside).as_ptr(), base, "array lent twice");
        }
        drop((next, beside));
        assert!(fresh.iter().all(|t| t.drops.get() == 1));
    }

    /// The structural pin over the recycled array, exhaustively for
    /// N = 0..=4 children: every assignment of completion polls (so every
    /// completion order, ties included), every drop point — mid-wait after
    /// k polls, or done with k outputs taken — and with or without a child
    /// whose `Drop` starts a join of the same type.
    #[test]
    fn every_completion_order_and_drop_point_up_to_four_children() {
        let sim = Sim::new();
        let h = sim.handle();
        let mut cases = 0;
        for n in 0..=4u32 {
            for code in 0..n.pow(n) {
                let ready_on: Vec<u32> = (0..n).map(|i| code / n.pow(i) % n + 1).collect();
                let finish = ready_on.iter().copied().max().unwrap_or(1);
                for reenter in [false, true] {
                    for stop in 0..=finish + n {
                        pin_case(&h, &ready_on, reenter, stop);
                        cases += 1;
                    }
                }
            }
        }
        // Σ over N of Nᴺ assignments × 2 × (completion poll + N + 1) stops.
        assert_eq!(cases, 4_820);
    }
}
