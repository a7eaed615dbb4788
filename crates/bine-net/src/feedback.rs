//! Timing feedback types for online adaptation.
//!
//! The serving layer (`bine-tune`'s `ServiceSelector`) closes the loop
//! between the *modelled* cost a decision table committed offline and the
//! cost actually *observed* under traffic: every executed or simulated
//! request can report an [`ObservedTiming`], and the per-entry distribution
//! is accumulated in a [`LogHistogram`] — a fixed-bucket, allocation-free
//! power-of-two histogram cheap enough to update on the hot serving path.
//!
//! The types live here (rather than in `bine-tune`) because they describe
//! *network-time* measurements: the same microsecond scale the cost model
//! and the discrete-event simulator produce, so a simulated makespan and a
//! measured wall time feed one histogram without conversion.

/// Where an observed timing came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingSource {
    /// Measured wall time of a real execution (e.g. an
    /// `ExecutorPool` run behind `ServiceSelector::try_execute_on`).
    Execution,
    /// A discrete-event simulated makespan (e.g. a [`crate::sim::SimRequest`]
    /// run standing in for the network).
    Simulation,
}

/// One observed cost sample for a served pick, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservedTiming {
    /// Provenance of the sample.
    pub source: TimingSource,
    /// The observed time in microseconds.
    pub time_us: f64,
}

impl ObservedTiming {
    /// A measured execution wall time.
    pub fn execution(time_us: f64) -> ObservedTiming {
        ObservedTiming {
            source: TimingSource::Execution,
            time_us,
        }
    }

    /// A simulated makespan.
    pub fn simulation(time_us: f64) -> ObservedTiming {
        ObservedTiming {
            source: TimingSource::Simulation,
            time_us,
        }
    }
}

/// Number of buckets in a [`LogHistogram`]: one per power of two from
/// sub-microsecond up to ~2⁶² µs, which covers every plausible collective
/// time with room to spare.
pub const LOG_HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-bucket power-of-two histogram of microsecond timings.
///
/// Bucket `i` counts samples in `[2^(i-1), 2^i)` µs (bucket 0 collects
/// everything below 1 µs). The struct is a flat array plus two scalars —
/// no heap allocation ever, neither at construction nor on
/// [`LogHistogram::record`] — so it can live under a serving shard's stripe
/// lock and be updated on every request without disturbing the
/// allocation-free warm path (pinned by `bine-tune`'s counting-allocator
/// test).
#[derive(Debug, Clone)]
pub struct LogHistogram {
    buckets: [u64; LOG_HISTOGRAM_BUCKETS],
    count: u64,
    sum_us: f64,
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub const fn new() -> LogHistogram {
        LogHistogram {
            buckets: [0; LOG_HISTOGRAM_BUCKETS],
            count: 0,
            sum_us: 0.0,
        }
    }

    /// Index of the bucket a sample falls into.
    fn bucket_of(time_us: f64) -> usize {
        if time_us.is_nan() || time_us < 1.0 {
            // NaN, negative and sub-microsecond samples all land in the
            // first bucket rather than panicking the serving path.
            return 0;
        }
        let exp = (time_us.log2().floor() as i64).clamp(0, LOG_HISTOGRAM_BUCKETS as i64 - 2);
        (exp + 1) as usize
    }

    /// Records one sample. Allocation-free.
    pub fn record(&mut self, time_us: f64) {
        self.buckets[Self::bucket_of(time_us)] += 1;
        self.count += 1;
        self.sum_us += time_us;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded samples in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us / self.count as f64
        }
    }

    /// The raw bucket counts: bucket `i` holds samples in
    /// `[2^(i-1), 2^i)` µs, bucket 0 everything below 1 µs.
    pub fn buckets(&self) -> &[u64; LOG_HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Drops every sample (the shape an adaptation epoch change uses: the
    /// distribution of the previous pick says nothing about the new one).
    pub fn reset(&mut self) {
        self.buckets = [0; LOG_HISTOGRAM_BUCKETS];
        self.count = 0;
        self.sum_us = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two() {
        let mut h = LogHistogram::new();
        h.record(0.25); // bucket 0
        h.record(1.0); // [1, 2) → bucket 1
        h.record(1.9); // bucket 1
        h.record(2.0); // [2, 4) → bucket 2
        h.record(1000.0); // [512, 1024) → bucket 10
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 2);
        assert_eq!(h.buckets()[2], 1);
        assert_eq!(h.buckets()[10], 1);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn mean_and_reset() {
        let mut h = LogHistogram::new();
        assert_eq!(h.mean_us(), 0.0);
        h.record(10.0);
        h.record(30.0);
        assert!((h.mean_us() - 20.0).abs() < 1e-12);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_us(), 0.0);
    }

    #[test]
    fn pathological_samples_never_panic() {
        let mut h = LogHistogram::new();
        h.record(f64::NAN);
        h.record(-5.0);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 3);
        assert_eq!(h.buckets()[0], 2);
        assert_eq!(h.buckets()[LOG_HISTOGRAM_BUCKETS - 1], 1);
    }

    #[test]
    fn observed_timing_constructors_tag_the_source() {
        assert_eq!(
            ObservedTiming::execution(3.0).source,
            TimingSource::Execution
        );
        assert_eq!(
            ObservedTiming::simulation(3.0).source,
            TimingSource::Simulation
        );
    }
}
