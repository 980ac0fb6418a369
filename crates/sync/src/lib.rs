//! Concurrency substrates shared by every Ilúvatar component.
//!
//! The paper's worker (§5) leans on three low-level building blocks:
//!
//! * a concurrent associative map for the container pool (the original uses
//!   `dashmap`; we build [`ShardedMap`] on `parking_lot` shards),
//! * asynchronous lifecycle handling off the critical path (here: the
//!   [`taskpool::TaskPool`] of named periodic tasks), and
//! * data-driven controllers — the TCP-like AIMD concurrency limit of §4.1
//!   ([`aimd::Aimd`]) and the moving-window function characteristics of §4.2
//!   ([`stats::MovingWindow`], [`stats::Welford`]).
//!
//! Everything here is time-abstracted through the [`clock::Clock`] trait so
//! identical code paths run against wall-clock time (live worker) or virtual
//! time (in-situ simulation, §3.4).

pub mod aimd;
pub mod backoff;
pub mod clock;
pub mod forecast;
pub mod hash;
pub mod loghist;
pub mod ring;
pub mod semaphore;
pub mod shardmap;
pub mod stats;
pub mod storage;
pub mod taskpool;
pub mod tokenbucket;

pub use aimd::Aimd;
pub use backoff::{Backoff, BackoffConfig};
pub use clock::{Clock, ManualClock, SystemClock, TimeMs};
pub use forecast::ArrivalForecaster;
pub use hash::{fnv1a64, splitmix64, Fnv1a, SplitMix64};
pub use loghist::LogHistogram;
pub use ring::KeyedRing;
pub use semaphore::{Semaphore, SemaphorePermit};
pub use shardmap::ShardedMap;
pub use stats::{Histogram, MovingWindow, Welford};
pub use storage::{RealStorage, Storage, StorageFile};
pub use taskpool::TaskPool;
pub use tokenbucket::TokenBucket;
