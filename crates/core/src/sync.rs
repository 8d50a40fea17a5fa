//! Poisonable phase barrier for the search runtimes.
//!
//! The three-phase engine body ([`crate::search::exact::ExecShared`])
//! synchronizes its participants with a cyclic barrier. `std::sync::
//! Barrier` has two problems here:
//!
//! 1. **Unwind safety.** If one participant panics between phases, the
//!    survivors block on `Barrier::wait` forever — a worker panic used
//!    to hang the whole pool (and CI) instead of failing the round. A
//!    [`PhaseBarrier`] can be *poisoned*: every current and future
//!    waiter aborts the round with a clear panic message instead of
//!    deadlocking.
//! 2. **Sanitizer visibility.** `Barrier::wait` is a non-generic std
//!    function, so under `-Zsanitizer=thread` (without `-Zbuild-std`)
//!    its internal synchronization is invisible to ThreadSanitizer and
//!    every barrier-ordered access is reported as a false-positive
//!    race. [`PhaseBarrier`] is compiled into this crate, so its
//!    atomics and monomorphized `Mutex<T>` critical sections are
//!    instrumented and the happens-before edges are visible — the
//!    repo's TSan CI tier depends on this.
//!
//! The barrier is cyclic (generation-counted); the engine's resident
//! pool and each of its dispatch lanes own one.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

/// State protected by the barrier's mutex.
#[derive(Debug)]
struct BarrierState {
    /// Participants currently waiting in this generation.
    count: usize,
    /// Completed-generation counter; bumped by the last arriver.
    generation: u64,
}

/// A cyclic, poisonable `n`-party barrier (see the module docs).
#[derive(Debug)]
pub struct PhaseBarrier {
    state: Mutex<BarrierState>,
    cv: Condvar,
    parties: usize,
    /// Mirror of `BarrierState::generation`, published with `Release`
    /// by the last arriver and re-read with `Acquire` by every leaver:
    /// an explicit instrumented happens-before edge for ThreadSanitizer
    /// (the mutex alone would do for correctness).
    generation: AtomicU64,
    /// Set by [`PhaseBarrier::poison`]; makes every current and future
    /// [`PhaseBarrier::wait`] panic instead of blocking.
    poisoned: AtomicBool,
}

impl PhaseBarrier {
    /// A barrier for `parties` participants (≥ 1).
    pub fn new(parties: usize) -> Self {
        assert!(parties >= 1, "a barrier needs at least one party");
        PhaseBarrier {
            state: Mutex::new(BarrierState {
                count: 0,
                generation: 0,
            }),
            cv: Condvar::new(),
            parties,
            generation: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Number of participants.
    pub fn parties(&self) -> usize {
        self.parties
    }

    /// Blocks until all `parties` participants have called `wait`, then
    /// releases them together (cyclic: the barrier is immediately
    /// reusable for the next phase).
    ///
    /// # Panics
    /// Panics — instead of blocking forever — if the barrier is (or
    /// becomes) poisoned because a sibling worker panicked mid-round.
    pub fn wait(&self) {
        if self.parties == 1 {
            self.check_poison();
            return;
        }
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        self.check_poison();
        let arrived_gen = st.generation;
        st.count += 1;
        if st.count == self.parties {
            st.count = 0;
            st.generation += 1;
            self.generation.store(st.generation, Ordering::Release);
            drop(st);
            self.cv.notify_all();
        } else {
            while st.generation == arrived_gen && !self.poisoned.load(Ordering::Relaxed) {
                st = self
                    .cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            drop(st);
            self.check_poison();
            // Pair with the last arriver's `Release` store so the edge
            // is explicit under ThreadSanitizer.
            let _ = self.generation.load(Ordering::Acquire);
        }
    }

    /// Poisons the barrier: every participant currently blocked in
    /// [`PhaseBarrier::wait`] — and every later caller — panics with a
    /// clear message instead of waiting for a party that will never
    /// arrive. Called by the runtimes when a worker's round body
    /// panics.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        // Take the lock so a waiter cannot re-check the flag and then
        // sleep after our notification (missed-wakeup race).
        drop(self.state.lock().unwrap_or_else(PoisonError::into_inner));
        self.cv.notify_all();
    }

    /// Whether the barrier has been poisoned.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// Clears poison and waiter state so the barrier can serve another
    /// round. Only sound once no thread is inside [`PhaseBarrier::wait`]
    /// — the pool calls it after draining every worker of the failed
    /// job.
    pub fn reset(&self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.count = 0;
        self.poisoned.store(false, Ordering::SeqCst);
    }

    #[inline]
    fn check_poison(&self) {
        assert!(
            !self.poisoned.load(Ordering::SeqCst),
            "phase barrier poisoned: a sibling worker panicked mid-round; \
             the round is aborted instead of deadlocking"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn single_party_barrier_never_blocks() {
        let b = PhaseBarrier::new(1);
        for _ in 0..10 {
            b.wait();
        }
    }

    #[test]
    fn barrier_orders_phases_across_threads() {
        let n = 4;
        let b = PhaseBarrier::new(n);
        let phase1 = AtomicUsize::new(0);
        let phase2 = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..n {
                s.spawn(|| {
                    phase1.fetch_add(1, Ordering::Relaxed);
                    b.wait();
                    // Every participant must observe all phase-1 work.
                    assert_eq!(phase1.load(Ordering::Relaxed), n);
                    phase2.fetch_add(1, Ordering::Relaxed);
                    b.wait();
                    assert_eq!(phase2.load(Ordering::Relaxed), n);
                });
            }
        });
    }

    #[test]
    fn barrier_is_cyclic() {
        let b = PhaseBarrier::new(2);
        let rounds = 50;
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..rounds {
                        b.wait();
                    }
                });
            }
        });
    }

    #[test]
    fn poison_aborts_current_and_future_waiters() {
        let b = PhaseBarrier::new(2);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| catch_unwind(AssertUnwindSafe(|| b.wait())));
            // Give the waiter time to block, then poison instead of
            // arriving (simulating a sibling panic).
            std::thread::sleep(std::time::Duration::from_millis(20));
            b.poison();
            let out = waiter.join().expect("waiter thread itself joined");
            assert!(out.is_err(), "blocked waiter must panic, not hang");
        });
        // Future waiters fail fast too.
        assert!(catch_unwind(AssertUnwindSafe(|| b.wait())).is_err());
        // After a reset the barrier serves again.
        b.reset();
        assert!(!b.is_poisoned());
        let b1 = PhaseBarrier::new(1);
        b1.wait();
    }

    #[test]
    fn reset_restores_service_after_poison() {
        let b = PhaseBarrier::new(2);
        b.poison();
        b.reset();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| b.wait());
            }
        });
    }
}
