//! Global engine liveness counters for the live-telemetry stall
//! watchdog.
//!
//! A stuck sweep cell cannot report on itself — its worker thread is
//! buried inside [`Gpu::execute`](crate::Gpu::execute). This module
//! gives an outside observer (the `gvf_bench::events` watchdog thread)
//! a cheap process-wide liveness signal: cumulative **epochs** advanced
//! by every engine instance, cumulative **simulated cycles** of every
//! finished kernel, and the number of **kernels** completed. Two stall
//! samples with identical counters mean no engine in the process made
//! forward progress between them; growing counters mean the cell is
//! slow, not dead.
//!
//! Cost model: publishing is always on. The engine batches epoch
//! counts locally and publishes every [`EPOCH_PUBLISH_BATCH`] epochs,
//! so the hot loop pays one local increment plus a rare relaxed
//! `fetch_add`, and each finished kernel one more — nothing feeds back
//! into simulated timing, and stdout is untouched.

use std::sync::atomic::{AtomicU64, Ordering};

/// How many locally-counted epochs accumulate before the engine
/// publishes them to the global counter. Large enough that the atomic
/// is off the hot path, small enough that the watchdog sees movement
/// within milliseconds.
pub const EPOCH_PUBLISH_BATCH: u64 = 1024;

static EPOCHS: AtomicU64 = AtomicU64::new(0);
static CYCLES: AtomicU64 = AtomicU64::new(0);
static KERNELS: AtomicU64 = AtomicU64::new(0);

/// Adds a batch of advanced epochs (called by the engine's epoch loops,
/// pre-batched).
pub fn add_epochs(n: u64) {
    EPOCHS.fetch_add(n, Ordering::Relaxed);
}

/// Records one finished kernel and its final simulated cycle count.
pub fn kernel_finished(cycles: u64) {
    CYCLES.fetch_add(cycles, Ordering::Relaxed);
    KERNELS.fetch_add(1, Ordering::Relaxed);
}

/// A consistent-enough read of the counters (each is independently
/// monotone; the watchdog only compares samples for movement).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineProgress {
    /// Cumulative epochs advanced by every engine instance.
    pub epochs: u64,
    /// Cumulative final simulated cycles of finished kernels.
    pub cycles: u64,
    /// Kernels completed.
    pub kernels: u64,
}

/// The current counter values (zeros until an engine runs).
pub fn snapshot() -> EngineProgress {
    EngineProgress {
        epochs: EPOCHS.load(Ordering::Relaxed),
        cycles: CYCLES.load(Ordering::Relaxed),
        kernels: KERNELS.load(Ordering::Relaxed),
    }
}

/// Epoch-batching helper owned by one engine invocation: counts locally
/// and publishes in [`EPOCH_PUBLISH_BATCH`] chunks.
#[derive(Debug)]
pub(crate) struct EpochBatcher {
    pending: u64,
}

impl EpochBatcher {
    pub(crate) fn new() -> Self {
        EpochBatcher { pending: 0 }
    }

    #[inline]
    pub(crate) fn tick(&mut self) {
        self.pending += 1;
        if self.pending >= EPOCH_PUBLISH_BATCH {
            add_epochs(self.pending);
            self.pending = 0;
        }
    }
}

impl Drop for EpochBatcher {
    fn drop(&mut self) {
        if self.pending > 0 {
            add_epochs(self.pending);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Counters are process-global and tests share a process, so every
    // assertion is on deltas.

    #[test]
    fn batcher_publishes_exact_epoch_count() {
        let before = snapshot();
        let n = EPOCH_PUBLISH_BATCH * 2 + 7;
        {
            let mut b = EpochBatcher::new();
            for _ in 0..n {
                b.tick();
            }
        }
        assert_eq!(snapshot().epochs, before.epochs + n);
    }

    #[test]
    fn kernel_finish_accumulates_cycles() {
        let before = snapshot();
        kernel_finished(123);
        kernel_finished(7);
        let after = snapshot();
        assert_eq!(after.kernels, before.kernels + 2);
        assert_eq!(after.cycles, before.cycles + 130);
    }
}
