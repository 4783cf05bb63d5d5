//! Counting semaphore with strict FIFO handoff.
//!
//! The per-node CPU model in `dc-fabric` is a semaphore whose permits are
//! cores: "execute N ns of work" is acquire → sleep(N) → release. FIFO
//! handoff (a released permit goes to the longest-waiting task, never to a
//! barger) is what makes socket-processing delays under load deterministic.
//! On 0 permits it is a wake-up signal (one `release` per item; one nobody
//! waits for is kept), and with `acquire_many` / `release_many` a window of
//! units whose queued head keeps its place until its whole request fits.
//!
//! A `Semaphore` is a value: its owner holds it inline (a node's cores and
//! link sit in the node's cluster slot), and the futures it hands out borrow
//! it, as a [`crate::sync::Rendezvous`]'s do. An owner whose tasks share the
//! semaphore puts it beside the rest of what they share, in one `Rc`.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

struct Waiter {
    ticket: u64,
    need: usize,
    waker: Waker,
}

/// The wait queue is sorted by ticket, and a waiter leaves it only by a
/// grant or by dropping its `Acquire`. So a queued ticket that is absent
/// from `waiters` has been granted its permits: the queue is also the
/// ledger of grants not yet observed.
struct Inner {
    permits: usize,
    waiters: VecDeque<Waiter>,
    next_ticket: u64,
}

impl Inner {
    fn release(&mut self, n: usize) {
        self.permits += n;
        self.grant();
    }

    /// Hand permits to the head of the queue for as long as its request
    /// fits. Arrivals never call this, so a queued task is never passed.
    fn grant(&mut self) {
        while self.waiters.front().is_some_and(|w| w.need <= self.permits) {
            let w = self.waiters.pop_front().expect("the head fits");
            self.permits -= w.need;
            w.waker.wake();
        }
    }

    /// The next queue ticket. Tickets count up and never reach the
    /// sentinels [`UNQUEUED`] and [`DONE`]: one that did would be misread
    /// as a state of its `Acquire`, so the dispenser stops before it.
    fn take_ticket(&mut self) -> u64 {
        let t = self.next_ticket;
        assert!(t < UNQUEUED, "semaphore ticket space exhausted");
        self.next_ticket = t + 1;
        t
    }
}

/// FIFO counting semaphore.
pub struct Semaphore {
    inner: RefCell<Inner>,
}

impl Semaphore {
    /// Create a semaphore with `permits` initially available permits.
    pub fn new(permits: usize) -> Self {
        Semaphore {
            inner: RefCell::new(Inner {
                permits,
                waiters: VecDeque::new(),
                next_ticket: 0,
            }),
        }
    }

    /// A semaphore with only `left` tickets before the sentinels, so a test
    /// can queue across the end of the ticket space.
    #[cfg(test)]
    fn with_tickets_left(permits: usize, left: u64) -> Self {
        let s = Self::new(permits);
        s.inner.borrow_mut().next_ticket = UNQUEUED - left;
        s
    }

    /// Acquire one permit, waiting FIFO behind earlier requesters.
    #[inline]
    pub fn acquire(&self) -> Acquire<'_> {
        self.acquire_many(1)
    }

    /// Acquire `n` permits at once, waiting FIFO behind earlier requesters
    /// (a later, smaller request does not pass this one).
    #[inline]
    pub fn acquire_many(&self, n: usize) -> Acquire<'_> {
        Acquire {
            sem: &self.inner,
            ticket: UNQUEUED,
            need: n,
        }
    }

    /// Acquire returning an RAII guard that releases on drop.
    pub async fn acquire_permit(&self) -> SemaphorePermit<'_> {
        self.acquire().await;
        SemaphorePermit { sem: &self.inner }
    }

    /// Return one permit; hands it directly to the head waiter if any.
    #[inline]
    pub fn release(&self) {
        self.release_many(1);
    }

    /// Return `n` permits, granting queued requests in order while the
    /// head's fits.
    pub fn release_many(&self, n: usize) {
        self.inner.borrow_mut().release(n);
    }

    /// Permits currently available (not counting granted-but-unobserved
    /// handoffs).
    pub fn available(&self) -> usize {
        self.inner.borrow().permits
    }

    /// Number of tasks queued waiting for permits.
    pub fn waiting(&self) -> usize {
        self.inner.borrow().waiters.len()
    }
}

const UNQUEUED: u64 = u64::MAX - 1;
const DONE: u64 = u64::MAX;

/// Future returned by [`Semaphore::acquire`] and
/// [`Semaphore::acquire_many`]. Three words: every CPU charge holds one.
pub struct Acquire<'a> {
    sem: &'a RefCell<Inner>,
    /// [`UNQUEUED`] before the first poll, then the queue ticket, then
    /// [`DONE`] once the caller owns the permits.
    ticket: u64,
    need: usize,
}

impl Future for Acquire<'_> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        let mut i = this.sem.borrow_mut();
        let need = this.need;
        match this.ticket {
            DONE => Poll::Ready(()),
            UNQUEUED if i.permits >= need && i.waiters.is_empty() => {
                i.permits -= need;
                this.ticket = DONE;
                Poll::Ready(())
            }
            UNQUEUED => {
                this.ticket = i.take_ticket();
                i.waiters.push_back(Waiter {
                    ticket: this.ticket,
                    need,
                    waker: cx.waker().clone(),
                });
                Poll::Pending
            }
            t => match i.waiters.binary_search_by_key(&t, |w| w.ticket) {
                Ok(pos) => {
                    // Spurious wake: refresh the stored waker.
                    i.waiters[pos].waker.clone_from(cx.waker());
                    Poll::Pending
                }
                Err(_) => {
                    this.ticket = DONE;
                    Poll::Ready(())
                }
            },
        }
    }
}

impl Drop for Acquire<'_> {
    fn drop(&mut self) {
        // If we were queued but never granted, leave the queue (a waiter
        // behind a departing head may fit now); if we were granted but never
        // observed it, pass the permits on.
        let t = self.ticket;
        if t == UNQUEUED || t == DONE {
            return;
        }
        let mut i = self.sem.borrow_mut();
        match i.waiters.binary_search_by_key(&t, |w| w.ticket) {
            Ok(pos) => {
                i.waiters.remove(pos);
                i.grant();
            }
            Err(_) => i.release(self.need),
        }
    }
}

/// RAII permit from [`Semaphore::acquire_permit`].
pub struct SemaphorePermit<'a> {
    sem: &'a RefCell<Inner>,
}

impl Drop for SemaphorePermit<'_> {
    fn drop(&mut self) {
        self.sem.borrow_mut().release(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::us;
    use crate::Sim;
    use std::rc::Rc;

    #[test]
    fn uncontended_acquire_is_immediate() {
        let sim = Sim::new();
        sim.run_to(async {
            let s = Semaphore::new(2);
            s.acquire().await;
            s.acquire().await;
            assert_eq!(s.available(), 0);
            s.release();
            assert_eq!(s.available(), 1);
        });
    }

    #[test]
    fn fifo_handoff_order() {
        let sim = Sim::new();
        let h = sim.handle();
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        let s = Rc::new(Semaphore::new(1));
        // Task 0 holds the permit for 10us; tasks 1..4 queue up in order.
        for i in 0..5u32 {
            let s = Rc::clone(&s);
            let l = Rc::clone(&log);
            let hh = h.clone();
            sim.spawn(async move {
                hh.sleep(us(i as u64)).await; // stagger arrival
                s.acquire().await;
                l.borrow_mut().push(i);
                hh.sleep(us(10)).await;
                s.release();
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn permit_guard_releases_on_drop() {
        let sim = Sim::new();
        let h = sim.handle();
        let s = Rc::new(Semaphore::new(1));
        let s2 = Rc::clone(&s);
        let hh = h.clone();
        let t = sim.run_to(async move {
            {
                let _p = s2.acquire_permit().await;
                hh.sleep(us(5)).await;
            } // dropped here
            s2.acquire().await; // immediate
            hh.now()
        });
        assert_eq!(t, us(5));
        assert_eq!(s.available(), 0);
    }

    #[test]
    fn no_barging_past_queued_waiters() {
        let sim = Sim::new();
        let h = sim.handle();
        let log: Rc<RefCell<Vec<&str>>> = Rc::default();
        let s = Rc::new(Semaphore::new(1));

        let s0 = Rc::clone(&s);
        let h0 = h.clone();
        sim.spawn(async move {
            s0.acquire().await;
            h0.sleep(us(10)).await;
            s0.release();
        });
        // "early" queues at t=1.
        let s1 = Rc::clone(&s);
        let l1 = Rc::clone(&log);
        let h1 = h.clone();
        sim.spawn(async move {
            h1.sleep(us(1)).await;
            s1.acquire().await;
            l1.borrow_mut().push("early");
            s1.release();
        });
        // "late" tries at t=10 exactly when the holder releases; FIFO means
        // "early" still wins.
        let s2 = Rc::clone(&s);
        let l2 = Rc::clone(&log);
        let h2 = h.clone();
        sim.spawn(async move {
            h2.sleep(us(10)).await;
            s2.acquire().await;
            l2.borrow_mut().push("late");
            s2.release();
        });
        sim.run();
        assert_eq!(*log.borrow(), vec!["early", "late"]);
    }

    #[test]
    fn cancelled_waiter_is_skipped() {
        let sim = Sim::new();
        let h = sim.handle();
        let s = Rc::new(Semaphore::new(1));

        let s0 = Rc::clone(&s);
        let h0 = h.clone();
        sim.spawn(async move {
            s0.acquire().await;
            h0.sleep(us(10)).await;
            s0.release();
        });
        // This waiter gives up (drops the Acquire future) at t=5.
        let s1 = Rc::clone(&s);
        let h1 = h.clone();
        sim.spawn(async move {
            h1.sleep(us(1)).await;
            let mut acq = s1.acquire();
            // Poll once to enqueue, then abandon.
            assert!(poll_once(&mut acq).await.is_pending());
            drop(acq);
        });
        // This waiter should still get the permit at t=10.
        let s2 = Rc::clone(&s);
        let h2 = h.clone();
        let done = sim.spawn(async move {
            h2.sleep(us(2)).await;
            s2.acquire().await;
            h2.now()
        });
        sim.run();
        assert_eq!(done.try_take(), Some(us(10)));
    }

    /// A permit handed to a waiter that is dropped before it observes the
    /// grant goes on to the next queued waiter. The notifier this semaphore
    /// replaced as a wake-up signal (`notify.rs`) turned it into a stored
    /// permit instead: the queued second waiter stayed parked, and a third,
    /// later wait took the permit at once.
    #[test]
    fn granted_then_abandoned_permit_goes_to_the_next_waiter() {
        let sim = Sim::new();
        sim.run_to(async {
            let s = Semaphore::new(0);
            let (mut first, mut second) = (s.acquire(), s.acquire());
            assert!(poll_once(&mut first).await.is_pending());
            assert!(poll_once(&mut second).await.is_pending());
            s.release(); // granted to `first` ...
            drop(first); // ... which never observes it
            assert!(poll_once(&mut second).await.is_ready());
            let mut later = s.acquire();
            assert!(poll_once(&mut later).await.is_pending());
            assert_eq!((s.available(), s.waiting()), (0, 1));
        });
    }

    /// FIFO under `acquire_many`: a one-permit request queued behind a
    /// three-permit head waits even while one permit would fit it.
    #[test]
    fn large_head_request_is_not_passed_by_a_smaller_one() {
        let sim = Sim::new();
        sim.run_to(async {
            let s = Semaphore::new(1);
            let (mut big, mut small) = (s.acquire_many(3), s.acquire());
            assert!(poll_once(&mut big).await.is_pending());
            assert!(poll_once(&mut small).await.is_pending());
            s.release();
            assert!(poll_once(&mut small).await.is_pending());
            s.release();
            assert!(poll_once(&mut big).await.is_ready());
            assert!(poll_once(&mut small).await.is_pending());
            s.release_many(2);
            assert!(poll_once(&mut small).await.is_ready());
            assert_eq!(s.available(), 1);
        });
    }

    /// When a head that does not fit leaves the queue, the waiter behind it
    /// is granted from the permits already there — nobody has to release.
    #[test]
    fn dropped_head_lets_a_fitting_waiter_behind_it_through() {
        let sim = Sim::new();
        sim.run_to(async {
            let s = Semaphore::new(2);
            let (mut big, mut small) = (s.acquire_many(3), s.acquire());
            assert!(poll_once(&mut big).await.is_pending());
            assert!(poll_once(&mut small).await.is_pending());
            drop(big);
            assert!(poll_once(&mut small).await.is_ready());
            assert_eq!((s.available(), s.waiting()), (1, 0));
        });
    }

    /// Queueing runs up to the last ticket below the sentinels: waiters
    /// holding the last three tickets are granted in arrival order, a
    /// dropped one among them passes its grant on, and the wait after them
    /// panics rather than take a ticket that reads as `UNQUEUED`.
    #[test]
    fn tickets_stop_short_of_the_sentinels() {
        let sim = Sim::new();
        sim.run_to(async {
            let s = Semaphore::with_tickets_left(0, 3);
            let mut w: Vec<_> = (0..3).map(|_| s.acquire()).collect();
            for a in &mut w {
                assert!(poll_once(a).await.is_pending());
            }
            assert_eq!(s.waiting(), 3);
            s.release();
            assert!(poll_once(&mut w[0]).await.is_ready());
            assert!(poll_once(&mut w[1]).await.is_pending());
            s.release();
            let last = w.pop().expect("three waiters");
            drop(w.pop()); // granted, never observed: the permit moves on
            let mut last = last;
            assert!(poll_once(&mut last).await.is_ready());
            assert_eq!((s.available(), s.waiting()), (0, 0));
            let mut past = s.acquire();
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut cx = Context::from_waker(Waker::noop());
                let _ = Pin::new(&mut past).poll(&mut cx);
            }))
            .expect_err("a ticket at the sentinels was handed out");
            let msg = panic.downcast_ref::<&str>().expect("a literal panic");
            assert_eq!(*msg, "semaphore ticket space exhausted");
        });
    }

    /// Poll a future exactly once.
    async fn poll_once<F: Future + Unpin>(f: &mut F) -> Poll<F::Output> {
        std::future::poll_fn(|cx| Poll::Ready(Pin::new(&mut *f).poll(cx))).await
    }
}
