//! Thread shims: `std::thread` normally, model-scheduler threads under
//! `--cfg lsgd_model` inside a model execution.
//!
//! Model threads are real OS threads, but they run user code only when
//! the scheduler in `crate::exec` hands them the (single) execution
//! token. `spawn` establishes the usual happens-before edge from the
//! spawning thread to the child's first operation, and `join` from the
//! child's last operation to the joiner.

#[cfg(lsgd_model)]
use crate::exec::{ctx, set_ctx, Ctx, ModelAbort};
#[cfg(lsgd_model)]
use std::sync::Arc;

/// Handle to a spawned (possibly model-scheduled) thread.
pub struct JoinHandle<T> {
    inner: std::thread::JoinHandle<T>,
    #[cfg(lsgd_model)]
    model_tid: Option<usize>,
}

impl<T> JoinHandle<T> {
    /// Waits for the thread to finish, returning its result. Inside a
    /// model execution this is a schedule point and joins the child's
    /// clock into the caller's.
    pub fn join(self) -> std::thread::Result<T> {
        #[cfg(lsgd_model)]
        if let (Some(c), Some(tid)) = (ctx(), self.model_tid) {
            c.exec.join_thread(c.tid, tid);
            let r = self.inner.join();
            if let Err(p) = &r {
                if p.downcast_ref::<ModelAbort>().is_some() {
                    // The execution is aborting: keep unwinding instead
                    // of handing the sentinel payload to user code.
                    std::panic::resume_unwind(Box::new(ModelAbort));
                }
            }
            return r;
        }
        self.inner.join()
    }
}

/// Spawns a thread. Inside a model execution the child is registered
/// with the scheduler and parked until first scheduled; otherwise this
/// is exactly [`std::thread::spawn`].
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    #[cfg(lsgd_model)]
    if let Some(c) = ctx() {
        let tid = c.exec.register_thread(c.tid);
        let exec = Arc::clone(&c.exec);
        let inner = std::thread::spawn(move || {
            set_ctx(Some(Ctx {
                exec: Arc::clone(&exec),
                tid,
            }));
            if !exec.start_gate(tid) {
                // Aborted before ever running; unwind silently.
                exec.finish_thread(tid);
                std::panic::resume_unwind(Box::new(ModelAbort));
            }
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
                Ok(v) => {
                    exec.finish_thread(tid);
                    v
                }
                Err(p) => {
                    if p.downcast_ref::<ModelAbort>().is_none() {
                        exec.fail_nopanic(format!(
                            "panic in model thread {tid}: {}",
                            crate::exec::panic_message(p.as_ref())
                        ));
                    }
                    exec.finish_thread(tid);
                    std::panic::resume_unwind(p)
                }
            }
        });
        return JoinHandle {
            inner,
            model_tid: Some(tid),
        };
    }
    JoinHandle {
        inner: std::thread::spawn(f),
        #[cfg(lsgd_model)]
        model_tid: None,
    }
}

/// Cooperatively yields. Inside a model execution the calling thread is
/// deprioritized until another thread has been scheduled — the escape
/// hatch that keeps spin/backoff loops from generating unbounded
/// schedules (see `crate::exec`).
pub fn yield_now() {
    #[cfg(lsgd_model)]
    if let Some(c) = ctx() {
        c.exec.yield_thread(c.tid);
        return;
    }
    std::thread::yield_now();
}
