//! Vector clocks for happens-before tracking.
//!
//! Every model thread carries a [`VClock`]; component `c[t]` is the
//! number of visible operations thread `t` had performed the last time
//! the owner synchronized with it. Release edges publish the writer's
//! clock on the written object; acquire edges join it into the reader's
//! clock. An access `a` by thread `t` *happens-before* an access `b` by
//! thread `u` iff `t`'s clock component at `a` is `<=` `u`'s view of
//! `t` at `b` — the standard FastTrack-style formulation the race
//! detector in `crate::exec` uses.

/// Maximum number of threads one model execution may register
/// (including the root test thread). Clocks are fixed-size arrays so
/// they can be copied and joined without allocation on every operation.
pub const MAX_THREADS: usize = 8;

/// A fixed-width vector clock over [`MAX_THREADS`] components.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct VClock([u32; MAX_THREADS]);

impl VClock {
    /// The all-zero clock (happens-before everything).
    pub const ZERO: VClock = VClock([0; MAX_THREADS]);

    /// Component `t` of the clock.
    #[inline]
    pub fn get(&self, t: usize) -> u32 {
        self.0[t]
    }

    /// Advances the owner's own component (one visible operation).
    #[inline]
    pub fn tick(&mut self, t: usize) -> u32 {
        self.0[t] += 1;
        self.0[t]
    }

    /// Componentwise maximum: afterwards `self` dominates both inputs.
    #[inline]
    pub fn join(&mut self, other: &VClock) {
        for i in 0..MAX_THREADS {
            self.0[i] = self.0[i].max(other.0[i]);
        }
    }

    /// Whether every component of `self` is `<=` the matching component
    /// of `other` (i.e. `self` happens-before-or-equals `other`).
    #[inline]
    pub fn le(&self, other: &VClock) -> bool {
        (0..MAX_THREADS).all(|i| self.0[i] <= other.0[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_and_le() {
        let mut a = VClock::ZERO;
        let mut b = VClock::ZERO;
        a.tick(0);
        a.tick(0);
        b.tick(1);
        assert!(!a.le(&b));
        assert!(!b.le(&a));
        let mut j = a;
        j.join(&b);
        assert!(a.le(&j));
        assert!(b.le(&j));
        assert_eq!(j.get(0), 2);
        assert_eq!(j.get(1), 1);
    }

    #[test]
    fn tick_is_monotone() {
        let mut a = VClock::ZERO;
        assert_eq!(a.tick(3), 1);
        assert_eq!(a.tick(3), 2);
        assert_eq!(a.get(3), 2);
        assert_eq!(a.get(0), 0);
    }
}
