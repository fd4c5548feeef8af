//! Lock-free concurrency primitives for the Leashed-SGD reproduction.
//!
//! The paper's headline property is lock-freedom *end to end*: the
//! ParameterVector publication protocol is CAS-based, and the buffer
//! free-lists behind it must not reintroduce a lock on the hot
//! allocation/recycle path. This crate provides:
//!
//! * [`SegQueue`] — an unbounded, lock-free, MPMC FIFO queue built as a
//!   Michael–Scott-style linked list of fixed-size segments with
//!   per-segment atomic indices and CAS-only push/pop. Its reclamation
//!   scheme (safe under concurrent poppers) is documented in
//!   [`queue`]'s module docs.
//!
//! Its contended push/pop cost is the repo benchmark's
//! `queue.push_pop_ns.t1` / `queue.push_pop_ns.t2`; its semantics are
//! checked against a `VecDeque` model in `tests/proptest_queue.rs`.
//!
//! This crate depends on nothing but `std` so every other workspace
//! member can build on it.

#![warn(missing_docs)]

pub mod backoff;
pub mod queue;

pub use queue::SegQueue;
