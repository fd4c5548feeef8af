//! Concurrency primitives for the Leashed-SGD reproduction.
//!
//! * [`backoff`] — bounded exponential backoff for contended retry loops
//!   (`lsgd_runtime` waits on claimed tasks with it).
//! * [`SegQueue`] — a FIFO queue behind a mutex. Nothing in the workspace
//!   uses it: the slot pools recycle through free bits. It stays only
//!   because the repo benchmark's `queue.push_pop_ns.*` probe names it,
//!   and it goes with that probe.
//!
//! This crate depends on nothing but `std` and `lsgd_check`'s shims, so
//! every other workspace member can build on it.

#![warn(missing_docs)]

pub mod backoff;

use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};

/// An unbounded MPMC FIFO queue: a `VecDeque` behind a mutex.
pub struct SegQueue<T> {
    items: Mutex<VecDeque<T>>,
}

impl<T> SegQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        SegQueue {
            items: Mutex::new(VecDeque::new()),
        }
    }

    /// Appends `value` at the back.
    pub fn push(&self, value: T) {
        self.items
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(value);
    }

    /// Takes the front value, if any.
    pub fn pop(&self) -> Option<T> {
        self.items
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front()
    }
}

impl<T> Default for SegQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}
