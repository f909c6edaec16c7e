//! Batch arrival processes.
//!
//! Arrivals model the training input pipeline handing batches to the
//! trainers: either a fixed-rate conveyor (a well-tuned, reader-bound
//! pipeline) or a Poisson process (a bursty, shared ingestion tier). What
//! each batch looks up is drawn by
//! [`IterationWorkload`](recshard_memsim::IterationWorkload), the trace
//! workload `recshard_memsim`'s single-iteration simulator shares.

use crate::error::DesError;
use crate::time::SimTime;
use rand::rngs::StdRng;
use rand::Rng;

/// How training batches arrive at the cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// One batch every `interval_ms` milliseconds, exactly.
    FixedRate {
        /// Gap between consecutive batch arrivals.
        interval_ms: f64,
    },
    /// Poisson arrivals with exponentially distributed gaps.
    Poisson {
        /// Mean gap between consecutive batch arrivals.
        mean_interval_ms: f64,
    },
}

impl ArrivalProcess {
    /// Rejects intervals that cannot drive an open-loop schedule: negative
    /// or non-finite means/intervals. (A zero interval is legal — it models
    /// all batches available at time zero — and cannot hang the run because
    /// the simulator schedules exactly `iterations` arrivals, never an
    /// unbounded stream.)
    ///
    /// [`ClusterSimulator::try_new`](crate::ClusterSimulator::try_new) calls
    /// this up front so a poisoned rate surfaces as
    /// [`DesError::InvalidArrival`] instead of degenerate gap draws.
    pub fn validate(&self) -> Result<(), DesError> {
        let (name, value) = match *self {
            ArrivalProcess::FixedRate { interval_ms } => ("interval_ms", interval_ms),
            ArrivalProcess::Poisson { mean_interval_ms } => ("mean_interval_ms", mean_interval_ms),
        };
        if value.is_finite() && value >= 0.0 {
            Ok(())
        } else {
            Err(DesError::InvalidArrival { name, value })
        }
    }

    /// Draws the gap to the next arrival, in nanoseconds.
    ///
    /// Defensive even for configs that skipped [`ArrivalProcess::validate`]:
    /// negative or NaN intervals clamp to a zero gap, and an astronomically
    /// large mean (or an exponential draw deep in its tail) saturates at
    /// `u64::MAX` ns instead of wrapping — the draw can never panic or hang.
    pub fn next_gap_ns(&self, rng: &mut StdRng) -> u64 {
        match *self {
            ArrivalProcess::FixedRate { interval_ms } => {
                SimTime::saturating_ns_from_ms(interval_ms.max(0.0))
            }
            ArrivalProcess::Poisson { mean_interval_ms } => {
                // `u ∈ [0, 1)` so `ln(1 - u)` is finite and ≤ 0; the draw
                // is consumed even for degenerate means so a clamped run
                // replays the same RNG stream as a healthy one.
                let u: f64 = rng.gen();
                let gap_ms = -mean_interval_ms.max(0.0) * (1.0 - u).ln();
                SimTime::saturating_ns_from_ms(gap_ms)
            }
        }
    }

    /// The mean arrival interval in milliseconds.
    pub fn mean_interval_ms(&self) -> f64 {
        match *self {
            ArrivalProcess::FixedRate { interval_ms } => interval_ms,
            ArrivalProcess::Poisson { mean_interval_ms } => mean_interval_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn fixed_rate_gaps_are_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = ArrivalProcess::FixedRate { interval_ms: 2.5 };
        assert_eq!(a.next_gap_ns(&mut rng), 2_500_000);
        assert_eq!(a.next_gap_ns(&mut rng), 2_500_000);
    }

    #[test]
    fn degenerate_rates_clamp_instead_of_panicking() {
        let mut rng = StdRng::seed_from_u64(7);
        for arrival in [
            ArrivalProcess::FixedRate { interval_ms: -4.0 },
            ArrivalProcess::FixedRate {
                interval_ms: f64::NAN,
            },
            ArrivalProcess::Poisson {
                mean_interval_ms: -1.0,
            },
            ArrivalProcess::Poisson {
                mean_interval_ms: f64::NAN,
            },
        ] {
            assert!(arrival.validate().is_err());
            assert_eq!(arrival.next_gap_ns(&mut rng), 0);
        }
        // An absurd but finite mean saturates rather than wrapping.
        let huge = ArrivalProcess::FixedRate { interval_ms: 1e300 };
        assert!(huge.validate().is_ok());
        assert_eq!(huge.next_gap_ns(&mut rng), u64::MAX);
        let inf = ArrivalProcess::Poisson {
            mean_interval_ms: f64::INFINITY,
        };
        assert!(inf.validate().is_err());
    }

    #[test]
    fn clamped_poisson_consumes_the_same_rng_stream() {
        // A degenerate mean must not desynchronise replay: the draw is
        // consumed either way, so downstream randomness is unaffected.
        let healthy = ArrivalProcess::Poisson {
            mean_interval_ms: 2.0,
        };
        let degenerate = ArrivalProcess::Poisson {
            mean_interval_ms: -2.0,
        };
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        let _ = healthy.next_gap_ns(&mut a);
        let _ = degenerate.next_gap_ns(&mut b);
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn poisson_gaps_average_the_mean() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = ArrivalProcess::Poisson {
            mean_interval_ms: 4.0,
        };
        let n = 20_000;
        let total: u64 = (0..n).map(|_| a.next_gap_ns(&mut rng)).sum();
        let mean_ms = total as f64 / n as f64 / 1e6;
        assert!(
            (mean_ms - 4.0).abs() < 0.2,
            "Poisson mean gap {mean_ms} far from 4.0"
        );
    }
}
