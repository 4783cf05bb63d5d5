//! Task wakers through the public API: each wakes its own task of its own
//! `Sim`, nothing once that `Sim` is gone, and a timer wakes the waker it
//! was registered with.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use dc_sim::{us, Sim};

/// A task waker taken out of a run: the one its task registered.
fn task_waker(sim: &Sim) -> Waker {
    let slot: Rc<RefCell<Option<Waker>>> = Rc::default();
    let s = Rc::clone(&slot);
    sim.handle().spawn_detached(std::future::poll_fn(move |cx| {
        *s.borrow_mut() = Some(cx.waker().clone());
        Poll::<()>::Pending
    }));
    sim.run();
    let waker = slot.borrow_mut().take();
    waker.expect("the task registered its waker")
}

#[cfg(debug_assertions)]
#[test]
fn a_task_waker_panics_when_used_off_its_sims_thread() {
    type Misuse = fn(Waker);
    let misuses: [(&str, Misuse); 2] =
        [("wake", |w| w.wake()), ("wake_by_ref", |w| w.wake_by_ref())];
    let sim = Sim::new();
    for (what, misuse) in misuses {
        let crossing = task_waker(&sim);
        let panic = std::thread::spawn(move || misuse(crossing))
            .join()
            .expect_err(what);
        let msg = panic.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "task waker used off its Sim's thread", "{what}");
    }
}

#[test]
fn a_task_waker_wakes_only_its_own_sims_task() {
    fn polls(sims: &[&Sim]) -> Vec<u64> {
        sims.iter()
            .inspect(|s| s.run())
            .map(|s| s.polls())
            .collect()
    }
    // Each `Sim`'s one task has id 0: only the `Sim` tells them apart.
    let (a, b) = (Sim::new(), Sim::new());
    let (wake_a, wake_b) = (task_waker(&a), task_waker(&b));
    wake_a.wake_by_ref();
    assert_eq!(polls(&[&a, &b]), [2, 1]);
    wake_b.wake_by_ref();
    assert_eq!(polls(&[&a, &b]), [2, 2]);
    // A waker kept past its `Sim`'s drop wakes nothing, not even a task of a
    // `Sim` built after it; the new `Sim`'s own waker still works.
    drop(b);
    let c = Sim::new();
    let wake_c = task_waker(&c);
    wake_b.wake();
    assert_eq!(polls(&[&a, &c]), [2, 1]);
    wake_c.wake();
    assert_eq!(polls(&[&c]), [2]);
}

#[test]
fn a_timer_wakes_the_waker_it_was_given_not_the_task_polling_it() {
    let sim = Sim::new();
    let h = sim.handle();
    let parked = task_waker(&sim);
    // A second task polls a sleep with the first task's waker, once.
    let polled = Rc::new(Cell::new(0));
    let p = Rc::clone(&polled);
    let mut sleep = h.sleep(us(5));
    sim.handle().spawn_detached(std::future::poll_fn(move |_| {
        p.set(p.get() + 1);
        let _ = Pin::new(&mut sleep).poll(&mut Context::from_waker(&parked));
        Poll::<()>::Pending
    }));
    sim.run();
    // Polls: the parked task once and again when the timer fired, the
    // sleeping task once.
    assert_eq!((sim.polls(), polled.get()), (3, 1));
    assert_eq!(sim.now(), us(5));
}
