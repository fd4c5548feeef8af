//! Annotation hooks that shimmed code plants at memory-lifecycle and
//! raw-buffer access points. All of them compile to nothing in a
//! normal build and to model-checker bookkeeping under
//! `--cfg lsgd_model` (and only inside a model execution).
//!
//! * [`fresh`] / [`retire`] bracket the lifetime of a heap region the
//!   protocol manages manually (queue segments, parameter-vector
//!   headers, pooled gradient buffers). The checker flags double
//!   frees, frees of never-registered regions, frees that are not
//!   happens-after every recorded access to the region
//!   (use-after-free by another thread), later accesses to a retired
//!   region, and — at the end of an execution — regions never retired
//!   (leaks).
//! * [`data_read`] / [`data_write`] record a non-atomic access to a
//!   raw buffer (e.g. the `f32` parameter payload behind
//!   `ParamVec::theta`) so it participates in happens-before race
//!   detection. The address is an opaque key: annotate the buffer's
//!   base address consistently and the whole buffer is treated as one
//!   object — races between disjoint elements of the *same* buffer
//!   are reported too, which is exactly the paper's consistency model
//!   (a reader must be ordered with the whole publication).

/// Registers `[addr, addr + len)` as a freshly allocated region,
/// clearing any tracking state a recycled address range may carry.
#[inline]
pub fn fresh(addr: usize, len: usize) {
    #[cfg(lsgd_model)]
    if let Some(c) = crate::exec::ctx() {
        c.exec.fresh(addr, len);
    }
    #[cfg(not(lsgd_model))]
    {
        let _ = (addr, len);
    }
}

/// Retires (frees) a region previously registered with [`fresh`].
#[inline]
#[cfg_attr(lsgd_model, track_caller)]
pub fn retire(addr: usize, len: usize) {
    #[cfg(lsgd_model)]
    if let Some(c) = crate::exec::ctx() {
        c.exec.retire(c.tid, addr, len, std::panic::Location::caller());
    }
    #[cfg(not(lsgd_model))]
    {
        let _ = (addr, len);
    }
}

/// Records a non-atomic read of the object keyed by `addr`.
#[inline]
#[cfg_attr(lsgd_model, track_caller)]
pub fn data_read(addr: usize) {
    #[cfg(lsgd_model)]
    if let Some(c) = crate::exec::ctx() {
        c.exec
            .data_access(c.tid, addr, false, std::panic::Location::caller());
    }
    #[cfg(not(lsgd_model))]
    {
        let _ = addr;
    }
}

/// Records a non-atomic write of the object keyed by `addr`.
#[inline]
#[cfg_attr(lsgd_model, track_caller)]
pub fn data_write(addr: usize) {
    #[cfg(lsgd_model)]
    if let Some(c) = crate::exec::ctx() {
        c.exec
            .data_access(c.tid, addr, true, std::panic::Location::caller());
    }
    #[cfg(not(lsgd_model))]
    {
        let _ = addr;
    }
}
