//! Disk-access statistics.
//!
//! The paper's sole performance metric is the number of disk accesses
//! (Oracle's `physical reads` after a buffer flush). [`AccessStats`]
//! counts every page the buffer pool fetches from or writes back to the
//! underlying store. Measured queries call `reset` after `flush_all` and
//! read a [`StatsSnapshot`] afterwards.

use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// Retries recorded *by this thread*, across all pools. A thread runs
    /// one storage operation at a time, so the delta of
    /// [`thread_retries`] around an operation attributes retry spend
    /// exactly — even when other threads are retrying the same pages
    /// concurrently. Global-counter deltas cannot do this: two workers
    /// each observing the shared counter would both absorb the other's
    /// retries into their own tally.
    static THREAD_RETRIES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };

    /// Page reads (cache misses) recorded *by this thread*, across all
    /// pools. Same attribution argument as [`THREAD_RETRIES`]: a
    /// before/after delta of this counter around an operation counts
    /// exactly the disk accesses that operation caused, no matter how
    /// many other sessions are hitting the same pool concurrently.
    static THREAD_READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Monotone count of retries recorded by the calling thread (see
/// [`AccessStats::record_retry`]). Measure an operation's retry spend as
/// `thread_retries()` before/after — never as a delta of the shared
/// [`StatsSnapshot::retries`], which mixes in other threads' retries.
pub fn thread_retries() -> u64 {
    THREAD_RETRIES.with(|c| c.get())
}

/// Monotone count of page reads recorded by the calling thread (see
/// [`AccessStats::record_read`]). The paper's disk-access metric for *one*
/// operation under concurrency: take this before and after, use the
/// delta. A delta of the shared [`StatsSnapshot::reads`] would absorb
/// every other session's traffic.
pub fn thread_reads() -> u64 {
    THREAD_READS.with(|c| c.get())
}

/// Monotonic counters for page traffic between buffer pool and store.
#[derive(Default, Debug)]
pub struct AccessStats {
    reads: AtomicU64,
    writes: AtomicU64,
    retries: AtomicU64,
}

/// A point-in-time copy of the counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Pages fetched from the store (cache misses) — the paper's
    /// "number of disk accesses".
    pub reads: u64,
    /// Dirty pages written back to the store.
    pub writes: u64,
    /// Re-issued page reads after a retryable failure (transient I/O
    /// error or checksum mismatch). Not part of [`Self::total`]: the
    /// paper's disk-access metric counts logical fetches, and a retry is
    /// the same logical fetch tried again.
    pub retries: u64,
}

impl StatsSnapshot {
    /// Total page traffic.
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }

    /// Counter deltas since an earlier snapshot.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            retries: self.retries - earlier.retries,
        }
    }
}

impl AccessStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Count one page fetched from the store. Also bumps the calling
    /// thread's [`thread_reads`] counter so concurrent operations can
    /// each attribute exactly their own disk accesses.
    #[inline]
    pub fn record_read(&self) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        THREAD_READS.with(|c| c.set(c.get() + 1));
    }

    /// Increment the read counter *without* touching the calling
    /// thread's attribution tally — for per-shard mirror counters, whose
    /// paired global [`Self::record_read`] already bumped
    /// [`thread_reads`].
    #[inline]
    pub(crate) fn mirror_read(&self) {
        self.reads.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn record_write(&self) {
        self.writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one re-issued page read. Also bumps the calling thread's
    /// [`thread_retries`] counter so concurrent operations can each
    /// attribute exactly their own retry spend.
    #[inline]
    pub fn record_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        THREAD_RETRIES.with(|c| c.set(c.get() + 1));
    }

    /// Increment the retry counter *without* touching the calling
    /// thread's attribution tally. Used for per-shard mirror counters,
    /// whose paired global [`Self::record_retry`] call already bumped
    /// [`thread_retries`] — mirroring through `record_retry` would
    /// double-attribute every retry.
    #[inline]
    pub(crate) fn mirror_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
        }
    }

    pub fn reset(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.retries.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_reset() {
        let s = AccessStats::new();
        s.record_read();
        s.record_read();
        s.record_write();
        s.record_retry();
        assert_eq!(
            s.snapshot(),
            StatsSnapshot {
                reads: 2,
                writes: 1,
                retries: 1
            }
        );
        assert_eq!(s.snapshot().total(), 3, "retries are not logical accesses");
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn thread_retries_attribute_to_the_calling_thread() {
        let s = std::sync::Arc::new(AccessStats::new());
        let base_here = thread_retries();
        s.record_retry();
        s.record_retry();
        let s2 = std::sync::Arc::clone(&s);
        let other = std::thread::spawn(move || {
            let base = thread_retries();
            s2.record_retry();
            thread_retries() - base
        })
        .join()
        .unwrap();
        assert_eq!(other, 1, "other thread sees exactly its own retry");
        assert_eq!(
            thread_retries() - base_here,
            2,
            "this thread's tally is untouched by the other thread"
        );
        assert_eq!(s.snapshot().retries, 3, "global counter sees all three");
    }

    #[test]
    fn thread_reads_attribute_to_the_calling_thread() {
        let s = std::sync::Arc::new(AccessStats::new());
        let base_here = thread_reads();
        s.record_read();
        s.record_read();
        s.mirror_read(); // shard mirror: global counter only
        let s2 = std::sync::Arc::clone(&s);
        let other = std::thread::spawn(move || {
            let base = thread_reads();
            s2.record_read();
            thread_reads() - base
        })
        .join()
        .unwrap();
        assert_eq!(other, 1, "other thread sees exactly its own read");
        assert_eq!(
            thread_reads() - base_here,
            2,
            "mirror_read must not inflate the thread-local tally"
        );
        assert_eq!(s.snapshot().reads, 4, "global counter sees all four");
    }

    #[test]
    fn snapshot_delta() {
        let s = AccessStats::new();
        s.record_read();
        let before = s.snapshot();
        s.record_read();
        s.record_write();
        s.record_retry();
        let delta = s.snapshot().since(&before);
        assert_eq!(
            delta,
            StatsSnapshot {
                reads: 1,
                writes: 1,
                retries: 1
            }
        );
    }
}
