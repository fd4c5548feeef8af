//! Drop-in shims for the std atomics used by the lock-free core.
//!
//! In a normal build every type and function here is a
//! `#[repr(transparent)]` zero-cost wrapper that inlines straight to
//! its `std::sync::atomic` counterpart — the production code pays
//! nothing for being model-checkable. Under `--cfg lsgd_model`, every
//! operation performed by a thread inside a model execution (see
//! [`crate::model`]) is routed through the controlled scheduler in
//! `crate::exec`: the access becomes a schedule point, its declared
//! [`Ordering`] feeds the happens-before model, and the *physical*
//! operation runs `SeqCst` while the thread holds the scheduler lock
//! (exclusivity makes the hardware ordering irrelevant; the declared
//! ordering is what the checker reasons about).
//!
//! Threads with no model context (anything outside [`crate::model`],
//! including under `--cfg lsgd_model`) fall through to plain std
//! behavior, so the shims are safe to use in statics and in code that
//! only sometimes runs under the checker.
//!
//! Two deliberate simplifications, both documented limits of the
//! checker rather than bugs:
//!
//! * `compare_exchange_weak` never fails spuriously under the model —
//!   spurious-failure schedules are not explored.
//! * Atomic values are sequentially consistent (a load observes the
//!   globally latest store); weak-memory *value* outcomes are not
//!   explored. See the soundness discussion in `crate::exec`.

pub use std::sync::atomic::Ordering;

#[cfg(lsgd_model)]
use crate::exec::{ctx, Op};
#[cfg(lsgd_model)]
use std::panic::Location;

/// An atomic fence with the shims' scheduling/happens-before hooks.
#[inline]
#[cfg_attr(lsgd_model, track_caller)]
pub fn fence(order: Ordering) {
    #[cfg(lsgd_model)]
    if let Some(c) = ctx() {
        c.exec.fence_op(c.tid, order);
        return;
    }
    std::sync::atomic::fence(order);
}

macro_rules! shim_rmw {
    ($($(#[$meta:meta])* fn $method:ident($arg:ident: $argty:ty);)*) => {
        $(
            $(#[$meta])*
            #[inline]
            #[cfg_attr(lsgd_model, track_caller)]
            pub fn $method(&self, $arg: $argty, order: Ordering) -> $argty {
                #[cfg(lsgd_model)]
                if let Some(c) = ctx() {
                    let loc = Location::caller();
                    return c.exec.atomic_op(c.tid, self.addr(), loc, || {
                        // ORDERING: model-mode physical op; the thread is
                        // exclusive under the scheduler lock, the declared
                        // `order` drives the happens-before model instead.
                        let prev = self.0.$method($arg, Ordering::SeqCst);
                        (prev, Op::Rmw {
                            success: true,
                            success_order: order,
                            failure_order: order,
                        })
                    });
                }
                self.0.$method($arg, order)
            }
        )*
    };
}

macro_rules! shim_atomic {
    ($(#[$tymeta:meta])* $name:ident, $value:ty $(, { $($extra:tt)* })?) => {
        $(#[$tymeta])*
        ///
        /// Shim over the std atomic of the same name; see the module
        /// docs for model-mode behavior.
        #[repr(transparent)]
        #[derive(Debug, Default)]
        pub struct $name(std::sync::atomic::$name);

        impl $name {
            /// Creates a new atomic (const, like std).
            #[inline]
            pub const fn new(v: $value) -> Self {
                Self(std::sync::atomic::$name::new(v))
            }

            #[cfg(lsgd_model)]
            #[inline]
            fn addr(&self) -> usize {
                self as *const Self as usize
            }

            /// Returns a mutable reference to the value (exclusive
            /// access; never a schedule point).
            #[inline]
            pub fn get_mut(&mut self) -> &mut $value {
                self.0.get_mut()
            }

            /// Consumes the atomic, returning the value.
            #[inline]
            pub fn into_inner(self) -> $value {
                self.0.into_inner()
            }

            /// Atomic load.
            #[inline]
            #[cfg_attr(lsgd_model, track_caller)]
            pub fn load(&self, order: Ordering) -> $value {
                #[cfg(lsgd_model)]
                if let Some(c) = ctx() {
                    let loc = Location::caller();
                    return c.exec.atomic_op(c.tid, self.addr(), loc, || {
                        // ORDERING: model-mode physical op; exclusivity
                        // under the scheduler lock, declared `order` is
                        // modeled logically.
                        (self.0.load(Ordering::SeqCst), Op::Load(order))
                    });
                }
                self.0.load(order)
            }

            /// Atomic store.
            #[inline]
            #[cfg_attr(lsgd_model, track_caller)]
            pub fn store(&self, v: $value, order: Ordering) {
                #[cfg(lsgd_model)]
                if let Some(c) = ctx() {
                    let loc = Location::caller();
                    return c.exec.atomic_op(c.tid, self.addr(), loc, || {
                        // ORDERING: model-mode physical op; exclusivity
                        // under the scheduler lock, declared `order` is
                        // modeled logically.
                        (self.0.store(v, Ordering::SeqCst), Op::Store(order))
                    });
                }
                self.0.store(v, order)
            }

            /// Atomic swap (an RMW with the given ordering).
            #[inline]
            #[cfg_attr(lsgd_model, track_caller)]
            pub fn swap(&self, v: $value, order: Ordering) -> $value {
                #[cfg(lsgd_model)]
                if let Some(c) = ctx() {
                    let loc = Location::caller();
                    return c.exec.atomic_op(c.tid, self.addr(), loc, || {
                        // ORDERING: model-mode physical op; exclusivity
                        // under the scheduler lock, declared `order` is
                        // modeled logically.
                        let prev = self.0.swap(v, Ordering::SeqCst);
                        (prev, Op::Rmw {
                            success: true,
                            success_order: order,
                            failure_order: order,
                        })
                    });
                }
                self.0.swap(v, order)
            }

            /// Atomic compare-exchange.
            #[inline]
            #[cfg_attr(lsgd_model, track_caller)]
            pub fn compare_exchange(
                &self,
                current: $value,
                new: $value,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$value, $value> {
                #[cfg(lsgd_model)]
                if let Some(c) = ctx() {
                    let loc = Location::caller();
                    return c.exec.atomic_op(c.tid, self.addr(), loc, || {
                        // ORDERING: model-mode physical op; exclusivity
                        // under the scheduler lock, declared orderings
                        // are modeled logically.
                        let r = self.0.compare_exchange(
                            current, new, Ordering::SeqCst, Ordering::SeqCst,
                        );
                        (r, Op::Rmw {
                            success: r.is_ok(),
                            success_order: success,
                            failure_order: failure,
                        })
                    });
                }
                self.0.compare_exchange(current, new, success, failure)
            }

            /// Atomic compare-exchange, weak form. Under the model this
            /// never fails spuriously (see the module docs).
            #[inline]
            #[cfg_attr(lsgd_model, track_caller)]
            pub fn compare_exchange_weak(
                &self,
                current: $value,
                new: $value,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$value, $value> {
                #[cfg(lsgd_model)]
                if ctx().is_some() {
                    return self.compare_exchange(current, new, success, failure);
                }
                self.0.compare_exchange_weak(current, new, success, failure)
            }

            $($($extra)*)?
        }
    };
}

shim_atomic!(
    /// A boolean type which can be safely shared between threads.
    AtomicBool, bool, {
        shim_rmw! {
            /// Logical OR with the current value, returning the previous value.
            fn fetch_or(v: bool);
            /// Logical AND with the current value, returning the previous value.
            fn fetch_and(v: bool);
        }
    }
);

macro_rules! shim_int_atomic {
    ($(#[$tymeta:meta])* $name:ident, $value:ty) => {
        shim_atomic!(
            $(#[$tymeta])*
            $name, $value, {
                shim_rmw! {
                    /// Wrapping add, returning the previous value.
                    fn fetch_add(v: $value);
                    /// Wrapping subtract, returning the previous value.
                    fn fetch_sub(v: $value);
                    /// Bitwise OR, returning the previous value.
                    fn fetch_or(v: $value);
                    /// Bitwise AND, returning the previous value.
                    fn fetch_and(v: $value);
                    /// Maximum with the current value, returning the previous value.
                    fn fetch_max(v: $value);
                }
            }
        );
    };
}

shim_int_atomic!(
    /// An integer type which can be safely shared between threads.
    AtomicU32, u32
);
shim_int_atomic!(
    /// An integer type which can be safely shared between threads.
    AtomicU64, u64
);
shim_int_atomic!(
    /// An integer type which can be safely shared between threads.
    AtomicUsize, usize
);

/// A raw pointer type which can be safely shared between threads.
///
/// Shim over [`std::sync::atomic::AtomicPtr`]; see the module docs for
/// model-mode behavior.
#[repr(transparent)]
#[derive(Debug)]
pub struct AtomicPtr<T>(std::sync::atomic::AtomicPtr<T>);

impl<T> Default for AtomicPtr<T> {
    fn default() -> Self {
        Self::new(std::ptr::null_mut())
    }
}

impl<T> AtomicPtr<T> {
    /// Creates a new atomic pointer (const, like std).
    #[inline]
    pub const fn new(p: *mut T) -> Self {
        Self(std::sync::atomic::AtomicPtr::new(p))
    }

    #[cfg(lsgd_model)]
    #[inline]
    fn addr(&self) -> usize {
        self as *const Self as usize
    }

    /// Returns a mutable reference to the pointer (exclusive access;
    /// never a schedule point).
    #[inline]
    pub fn get_mut(&mut self) -> &mut *mut T {
        self.0.get_mut()
    }

    /// Consumes the atomic, returning the pointer.
    #[inline]
    pub fn into_inner(self) -> *mut T {
        self.0.into_inner()
    }

    /// Atomic load.
    #[inline]
    #[cfg_attr(lsgd_model, track_caller)]
    pub fn load(&self, order: Ordering) -> *mut T {
        #[cfg(lsgd_model)]
        if let Some(c) = ctx() {
            let loc = Location::caller();
            return c.exec.atomic_op(c.tid, self.addr(), loc, || {
                // ORDERING: model-mode physical op; exclusivity under
                // the scheduler lock, declared `order` is modeled
                // logically.
                (self.0.load(Ordering::SeqCst), Op::Load(order))
            });
        }
        self.0.load(order)
    }

    /// Atomic store.
    #[inline]
    #[cfg_attr(lsgd_model, track_caller)]
    pub fn store(&self, p: *mut T, order: Ordering) {
        #[cfg(lsgd_model)]
        if let Some(c) = ctx() {
            let loc = Location::caller();
            return c.exec.atomic_op(c.tid, self.addr(), loc, || {
                // ORDERING: model-mode physical op; exclusivity under
                // the scheduler lock, declared `order` is modeled
                // logically.
                (self.0.store(p, Ordering::SeqCst), Op::Store(order))
            });
        }
        self.0.store(p, order)
    }

    /// Atomic swap (an RMW with the given ordering).
    #[inline]
    #[cfg_attr(lsgd_model, track_caller)]
    pub fn swap(&self, p: *mut T, order: Ordering) -> *mut T {
        #[cfg(lsgd_model)]
        if let Some(c) = ctx() {
            let loc = Location::caller();
            return c.exec.atomic_op(c.tid, self.addr(), loc, || {
                // ORDERING: model-mode physical op; exclusivity under
                // the scheduler lock, declared `order` is modeled
                // logically.
                let prev = self.0.swap(p, Ordering::SeqCst);
                (prev, Op::Rmw {
                    success: true,
                    success_order: order,
                    failure_order: order,
                })
            });
        }
        self.0.swap(p, order)
    }

    /// Atomic compare-exchange.
    #[inline]
    #[cfg_attr(lsgd_model, track_caller)]
    pub fn compare_exchange(
        &self,
        current: *mut T,
        new: *mut T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        #[cfg(lsgd_model)]
        if let Some(c) = ctx() {
            let loc = Location::caller();
            return c.exec.atomic_op(c.tid, self.addr(), loc, || {
                // ORDERING: model-mode physical op; exclusivity under
                // the scheduler lock, declared orderings are modeled
                // logically.
                let r = self
                    .0
                    .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst);
                (r, Op::Rmw {
                    success: r.is_ok(),
                    success_order: success,
                    failure_order: failure,
                })
            });
        }
        self.0.compare_exchange(current, new, success, failure)
    }

    /// Atomic compare-exchange, weak form. Under the model this never
    /// fails spuriously (see the module docs).
    #[inline]
    #[cfg_attr(lsgd_model, track_caller)]
    pub fn compare_exchange_weak(
        &self,
        current: *mut T,
        new: *mut T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        #[cfg(lsgd_model)]
        if ctx().is_some() {
            return self.compare_exchange(current, new, success, failure);
        }
        self.0.compare_exchange_weak(current, new, success, failure)
    }
}

/// An `UnsafeCell` whose accesses the model checker can see.
///
/// The closure-based [`with`](UnsafeCell::with) /
/// [`with_mut`](UnsafeCell::with_mut) accessors replace raw `.get()`
/// dereferences in shimmed code: in a normal build they hand the raw
/// pointer straight to the closure (zero cost); under the model each
/// call is recorded as a non-atomic read/write and checked for
/// happens-before data races against every other recorded access to
/// the same cell. The whole cell is one object to the race detector —
/// byte-granular overlap inside a cell is not distinguished.
#[repr(transparent)]
#[derive(Debug, Default)]
pub struct UnsafeCell<T>(std::cell::UnsafeCell<T>);

// SAFETY: unlike `std::cell::UnsafeCell`, the shim is shareable across
// threads — that is its entire purpose (slots of lock-free structures).
// Soundness of concurrent access is the caller's `unsafe` contract at
// each `with`/`with_mut` site, and exactly what the model checker
// verifies per explored schedule.
unsafe impl<T: Send> Sync for UnsafeCell<T> {}

impl<T> UnsafeCell<T> {
    /// Creates a new cell (const, like std).
    #[inline]
    pub const fn new(v: T) -> Self {
        Self(std::cell::UnsafeCell::new(v))
    }

    /// Consumes the cell, returning the value.
    #[inline]
    pub fn into_inner(self) -> T {
        self.0.into_inner()
    }

    /// Runs `f` with a shared (read) pointer to the contents, recording
    /// the access under the model.
    ///
    /// # Safety contract
    ///
    /// Callers uphold the usual `UnsafeCell` aliasing rules; the model
    /// checker verifies (per explored schedule) that they did.
    #[inline]
    #[cfg_attr(lsgd_model, track_caller)]
    pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
        #[cfg(lsgd_model)]
        if let Some(c) = ctx() {
            let loc = Location::caller();
            c.exec
                .data_access(c.tid, self as *const Self as usize, false, loc);
        }
        f(self.0.get())
    }

    /// Runs `f` with an exclusive (write) pointer to the contents,
    /// recording the access under the model.
    ///
    /// # Safety contract
    ///
    /// Callers uphold the usual `UnsafeCell` aliasing rules; the model
    /// checker verifies (per explored schedule) that they did.
    #[inline]
    #[cfg_attr(lsgd_model, track_caller)]
    pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
        #[cfg(lsgd_model)]
        if let Some(c) = ctx() {
            let loc = Location::caller();
            c.exec
                .data_access(c.tid, self as *const Self as usize, true, loc);
        }
        f(self.0.get())
    }

    /// Raw pointer escape hatch, *not* tracked by the model. Only for
    /// sites that have exclusive access by construction (e.g. inside
    /// `&mut self` methods); shared-path accesses must go through
    /// [`with`](UnsafeCell::with) / [`with_mut`](UnsafeCell::with_mut).
    #[inline]
    pub fn get(&self) -> *mut T {
        self.0.get()
    }
}
