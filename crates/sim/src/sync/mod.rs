//! Deterministic task-coordination primitives for the virtual-time executor.
//!
//! All primitives here are single-threaded (`RefCell`, no locks) and
//! strictly FIFO: waiters are served in the order they first polled, which
//! keeps every simulation reproducible. They are the building blocks the fabric and the
//! services use for completion notification, mailboxes, wake-up signals and
//! resource arbitration (e.g. the per-node CPU model and the stream send
//! windows, both a [`Semaphore`]).

mod mpsc;
mod oneshot;
mod rendezvous;
mod semaphore;

pub use mpsc::{channel, Receiver, RecvError, Sender};
pub use oneshot::{oneshot, OneReceiver, OneSender, RecvClosed};
pub use rendezvous::{Rendezvous, Wait};
pub use semaphore::{Semaphore, SemaphorePermit};
