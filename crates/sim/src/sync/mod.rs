//! Deterministic task-coordination primitives for the virtual-time executor.
//!
//! All primitives here are single-threaded (`Rc`-based) and strictly FIFO:
//! waiters are served in the order they first polled, which keeps every
//! simulation reproducible. They are the building blocks the fabric and the
//! services use for completion notification, mailboxes, and resource
//! arbitration (e.g. the per-node CPU model).

mod mpsc;
mod notify;
mod oneshot;
mod rendezvous;
mod semaphore;

pub use mpsc::{channel, Receiver, RecvError, Sender};
pub use notify::Notify;
pub use oneshot::{oneshot, OneReceiver, OneSender, RecvClosed};
pub use rendezvous::{Rendezvous, Wait};
pub use semaphore::{Semaphore, SemaphorePermit};
