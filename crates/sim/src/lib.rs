//! # dc-sim — deterministic discrete-event simulation core
//!
//! Every experiment in this workspace runs on a *virtual clock*: a
//! single-threaded async executor whose notion of time is a `u64` nanosecond
//! counter that advances only when every runnable task has quiesced. This
//! gives three properties the reproduction depends on:
//!
//! 1. **Determinism** — identical seeds and configurations produce identical
//!    latencies and throughputs, bit for bit, across runs and machines.
//! 2. **Era calibration** — simulated latency constants can be set to the
//!    2007 InfiniBand-cluster values of the paper instead of whatever the
//!    host machine happens to provide.
//! 3. **Speed** — a multi-second data-center experiment runs in milliseconds
//!    of wall time, so benches can sweep wide parameter spaces.
//!
//! Protocol code is written as ordinary `async fn`s; [`Sim::spawn`] schedules
//! them, [`SimHandle::sleep`] advances virtual time, the primitives in
//! [`sync`] (oneshot, rendezvous, mpsc, semaphore) coordinate tasks
//! with FIFO, deterministic wake order, and [`join_all`] fans out inside one
//! task where a spawn per child would only add scheduling hops.
//!
//! ```
//! use dc_sim::{Sim, time::us};
//!
//! let sim = Sim::new();
//! let h = sim.handle();
//! let answer = sim.run_to(async move {
//!     h.sleep(us(5)).await;
//!     h.now()
//! });
//! assert_eq!(answer, us(5));
//! ```

pub mod executor;
pub mod fxhash;
pub mod join;
pub mod rng;
pub mod shard;
pub mod sync;
pub mod time;
mod wheel;

pub use executor::{
    add_thread_totals, thread_totals, Elapsed, JoinHandle, Sim, SimCounters, SimHandle, Timeout,
};
pub use join::join_all;
pub use shard::{run_sharded, ShardCfg, ShardNet, ShardRun, ShardStats, Stamped};
pub use time::{ms, ns, secs, us, SimTime};
