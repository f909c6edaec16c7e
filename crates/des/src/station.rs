//! Per-GPU service stations.
//!
//! Each GPU is modelled as a FIFO service station executing its share of the
//! embedding operator one iteration at a time. A station serves each job
//! through two serial channels — the HBM gather and the UVM gather — because
//! mixed-tier reads within one kernel take approximately the *sum* of the two
//! tiers' times (Section 4.2 of the paper, "Key Properties"); the channels
//! are tracked separately so reports can attribute busy time to tiers.

use crate::time::SimTime;
use recshard_stats::LogLinearHistogram;

/// Service demand of one job (one iteration's embedding work on one GPU),
/// split by memory tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceDemand {
    /// Time to gather the job's HBM-resident rows, in nanoseconds.
    pub hbm_ns: u64,
    /// Time to gather the job's UVM-resident rows (including fault/stall
    /// overhead folded into the UVM bandwidth), in nanoseconds.
    pub uvm_ns: u64,
    /// Fixed kernel-launch and pooling overhead, in nanoseconds.
    pub overhead_ns: u64,
}

impl ServiceDemand {
    /// Total serial service time of the job.
    pub fn total_ns(&self) -> u64 {
        self.hbm_ns + self.uvm_ns + self.overhead_ns
    }
}

/// A single-server FIFO station modelling one GPU's embedding engine.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GpuStation {
    /// Virtual time at which the station next becomes idle.
    free_at: SimTime,
    /// Cumulative time spent serving jobs, in total and on UVM gathers.
    busy_ns: u64,
    busy_uvm_ns: u64,
    /// Distribution of how long jobs waited in queue before service, ns.
    queue_wait_ns: LogLinearHistogram,
}

impl GpuStation {
    /// Submits a job arriving at `now`; it starts when the station frees up
    /// (FIFO) and runs for its serial HBM + UVM + overhead service time.
    /// Returns the completion time.
    ///
    /// Callers must submit in nondecreasing arrival order (the discrete-event
    /// loop does, since it submits at pop time); an out-of-order submit is
    /// accepted but records a queue wait measured from *its* `now`.
    pub fn submit(&mut self, now: SimTime, demand: ServiceDemand) -> SimTime {
        let start = self.free_at.max(now);
        self.queue_wait_ns.push(start.since(now));
        let completion = start.after_ns(demand.total_ns());
        self.free_at = completion;
        self.account(demand);
        completion
    }

    /// Blocks the station for `stall_ns` starting no earlier than `now` —
    /// used to charge plan-migration downtime during online re-sharding.
    pub fn stall(&mut self, now: SimTime, stall_ns: u64) {
        self.free_at = self.free_at.max(now).after_ns(stall_ns);
    }

    /// Records a job's busy time without FIFO scheduling — the shared-rate
    /// contention mode times jobs on contended memory links instead of the
    /// station's single-server queue, but tier-attributed busy accounting
    /// still lives here. Under processor sharing, concurrent jobs overlap,
    /// so summed busy time may legitimately exceed the makespan.
    pub fn account(&mut self, demand: ServiceDemand) {
        self.busy_ns += demand.total_ns();
        self.busy_uvm_ns += demand.uvm_ns;
    }

    /// Records how long a shared-rate job was delayed before its gather
    /// started (the contention-mode analogue of FIFO queue wait).
    pub fn record_wait_ns(&mut self, wait_ns: u64) {
        self.queue_wait_ns.push(wait_ns);
    }

    /// Total busy (serving) nanoseconds, excluding migration stalls.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// Busy nanoseconds attributable to UVM gathers.
    pub fn busy_uvm_ns(&self) -> u64 {
        self.busy_uvm_ns
    }

    /// Queue-wait distribution (nanoseconds) of submitted jobs.
    pub fn queue_wait_ns(&self) -> &LogLinearHistogram {
        &self.queue_wait_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(hbm: u64, uvm: u64, overhead: u64) -> ServiceDemand {
        ServiceDemand {
            hbm_ns: hbm,
            uvm_ns: uvm,
            overhead_ns: overhead,
        }
    }

    #[test]
    fn idle_station_serves_immediately() {
        let mut s = GpuStation::default();
        let done = s.submit(SimTime(100), demand(50, 20, 5));
        assert_eq!(done, SimTime(175));
        assert_eq!(s.busy_ns(), 75);
        assert_eq!(s.queue_wait_ns().summary(1.0).max, 0.0);
    }

    #[test]
    fn busy_station_queues_fifo() {
        let mut s = GpuStation::default();
        let first = s.submit(SimTime(0), demand(100, 0, 0));
        assert_eq!(first, SimTime(100));
        // Arrives while busy: waits until 100, finishes at 150.
        let second = s.submit(SimTime(30), demand(50, 0, 0));
        assert_eq!(second, SimTime(150));
        // Queue wait of the second job was 70 ns.
        assert_eq!(s.queue_wait_ns().summary(1.0).max, 70.0);
    }

    #[test]
    fn busy_time_is_sum_of_components() {
        let mut s = GpuStation::default();
        s.submit(SimTime(0), demand(10, 20, 3));
        s.submit(SimTime(0), demand(5, 0, 3));
        assert_eq!(s.busy_uvm_ns(), 20);
        assert_eq!(s.busy_ns(), 41);
    }

    #[test]
    fn stall_pushes_out_free_time_without_counting_busy() {
        let mut s = GpuStation::default();
        s.submit(SimTime(0), demand(100, 0, 0));
        s.stall(SimTime(0), 1_000);
        assert_eq!(s.busy_ns(), 100);
        // Next job starts after the stall.
        assert_eq!(s.submit(SimTime(0), demand(10, 0, 0)), SimTime(1_110));
    }
}
