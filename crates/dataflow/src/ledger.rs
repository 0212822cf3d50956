//! The cost ledger: the simulated clock of the dataflow substrate.
//!
//! Every operator execution charges IO, CPU, network, and fixed-overhead
//! seconds here. The ledger is the "stopwatch" of the reproduction: what
//! the paper measures as training time on its Spark cluster, we read off
//! the ledger after genuinely executing the plan's math.

use serde::{Deserialize, Serialize};

/// Immutable snapshot of accumulated costs, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// Disk/memory page IO plus seeks.
    pub io_s: f64,
    /// Wave-parallel and driver-side compute.
    pub cpu_s: f64,
    /// Bytes moved across the interconnect.
    pub net_s: f64,
    /// Fixed scheduling overheads (job init, stage launch).
    pub overhead_s: f64,
}

impl CostBreakdown {
    /// Total simulated seconds.
    pub fn total_s(&self) -> f64 {
        self.io_s + self.cpu_s + self.net_s + self.overhead_s
    }

    /// Category-wise sum of two breakdowns.
    pub fn plus(&self, other: &CostBreakdown) -> CostBreakdown {
        CostBreakdown {
            io_s: self.io_s + other.io_s,
            cpu_s: self.cpu_s + other.cpu_s,
            net_s: self.net_s + other.net_s,
            overhead_s: self.overhead_s + other.overhead_s,
        }
    }

    /// Every category multiplied by `k` (e.g. per-iteration × iterations).
    pub fn times(&self, k: f64) -> CostBreakdown {
        CostBreakdown {
            io_s: self.io_s * k,
            cpu_s: self.cpu_s * k,
            net_s: self.net_s * k,
            overhead_s: self.overhead_s * k,
        }
    }

    /// Total seconds after applying per-category multiplicative unit-cost
    /// scales `[io, cpu, net, overhead]`.
    ///
    /// Written as `total_s() + Σ catᵢ·(scaleᵢ − 1)` rather than
    /// `Σ catᵢ·scaleᵢ` so that identity scales (all 1.0) reproduce
    /// [`CostBreakdown::total_s`] **bit for bit**: each correction term is
    /// exactly `cat·0.0 = 0.0` and adding `+0.0` to a finite non-negative
    /// float is an identity. Calibration at generation 0 therefore cannot
    /// perturb any decision the static model would make.
    pub fn rescaled_total_s(&self, scales: [f64; 4]) -> f64 {
        self.total_s()
            + self.io_s * (scales[0] - 1.0)
            + self.cpu_s * (scales[1] - 1.0)
            + self.net_s * (scales[2] - 1.0)
            + self.overhead_s * (scales[3] - 1.0)
    }
}

/// Physical usage metered during a run on the simulated-cluster backend:
/// the *measured* counterpart of the modelled cost vector. Ledger seconds
/// follow the logical dataset descriptor; these counters follow the rows
/// this process actually pushed through the backend, so they quantify the
/// work the cluster really performed. Four counters, all accounting: none
/// of them moves the simulated clock or the model.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct UsageMeter {
    /// Data units fed through compute waves and sample draws.
    pub tuples_scanned: u64,
    /// Bytes crossing the simulated interconnect: model broadcast, partial
    /// aggregation, and sample shipping to the driver.
    pub bytes_shuffled: u64,
    /// Busy compute seconds per simulated node (index = node id). Empty on
    /// the local backend, which has no nodes to attribute work to.
    pub node_compute_s: Vec<f64>,
    /// Broadcast/aggregate waves executed.
    pub waves: u64,
}

impl UsageMeter {
    /// Compute seconds of the busiest node — the wave-parallel critical
    /// path of the measured run.
    pub fn busiest_node_s(&self) -> f64 {
        self.node_compute_s.iter().copied().fold(0.0, f64::max)
    }

    /// `true` when nothing was metered (local-backend runs).
    pub fn is_empty(&self) -> bool {
        self.tuples_scanned == 0 && self.bytes_shuffled == 0 && self.node_compute_s.is_empty()
    }
}

/// Accumulates simulated cost. Cheap to copy out via [`CostLedger::snapshot`].
#[derive(Debug, Clone, Default)]
pub struct CostLedger {
    acc: CostBreakdown,
    meter: UsageMeter,
}

impl CostLedger {
    /// A fresh ledger at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge IO seconds.
    pub fn charge_io(&mut self, s: f64) {
        debug_assert!(s >= 0.0, "negative IO charge {s}");
        self.acc.io_s += s;
    }

    /// Charge CPU seconds.
    pub fn charge_cpu(&mut self, s: f64) {
        debug_assert!(s >= 0.0, "negative CPU charge {s}");
        self.acc.cpu_s += s;
    }

    /// Charge network seconds.
    pub fn charge_net(&mut self, s: f64) {
        debug_assert!(s >= 0.0, "negative network charge {s}");
        self.acc.net_s += s;
    }

    /// Charge fixed overhead seconds.
    pub fn charge_overhead(&mut self, s: f64) {
        debug_assert!(s >= 0.0, "negative overhead charge {s}");
        self.acc.overhead_s += s;
    }

    /// Meter `units` data units scanned by the cluster backend.
    pub fn meter_tuples(&mut self, units: u64) {
        self.meter.tuples_scanned += units;
    }

    /// Meter `bytes` moved across the simulated interconnect.
    pub fn meter_shuffle_bytes(&mut self, bytes: u64) {
        self.meter.bytes_shuffled += bytes;
    }

    /// Meter `s` busy compute seconds on simulated node `node`.
    pub fn meter_node_compute(&mut self, node: usize, s: f64) {
        debug_assert!(s >= 0.0, "negative node compute charge {s}");
        if self.meter.node_compute_s.len() <= node {
            self.meter.node_compute_s.resize(node + 1, 0.0);
        }
        self.meter.node_compute_s[node] += s;
    }

    /// Meter one broadcast/aggregate wave.
    pub fn meter_wave(&mut self) {
        self.meter.waves += 1;
    }

    /// Physical usage metered so far.
    pub fn usage(&self) -> &UsageMeter {
        &self.meter
    }

    /// Current accumulated costs.
    pub fn snapshot(&self) -> CostBreakdown {
        self.acc
    }

    /// Total simulated seconds so far.
    pub fn total_s(&self) -> f64 {
        self.acc.total_s()
    }

    /// Seconds elapsed since an earlier snapshot (for per-phase accounting,
    /// e.g. separating speculation overhead from plan execution in
    /// Figure 8).
    pub fn since(&self, earlier: &CostBreakdown) -> CostBreakdown {
        CostBreakdown {
            io_s: self.acc.io_s - earlier.io_s,
            cpu_s: self.acc.cpu_s - earlier.cpu_s,
            net_s: self.acc.net_s - earlier.net_s,
            overhead_s: self.acc.overhead_s - earlier.overhead_s,
        }
    }

    /// Reset to t = 0 and clear the usage meter.
    pub fn reset(&mut self) {
        self.acc = CostBreakdown::default();
        self.meter = UsageMeter::default();
    }

    /// Restore the ledger to a previously captured state — the resume
    /// counterpart of [`CostLedger::snapshot`] / [`CostLedger::usage`].
    /// Charges and metering continue from exactly where the checkpointed
    /// run left off, so a resumed job's totals stay bit-identical to the
    /// uninterrupted run's.
    pub fn restore(&mut self, acc: CostBreakdown, meter: UsageMeter) {
        self.acc = acc;
        self.meter = meter;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_by_category() {
        let mut l = CostLedger::new();
        l.charge_io(1.0);
        l.charge_cpu(2.0);
        l.charge_net(3.0);
        l.charge_overhead(4.0);
        let s = l.snapshot();
        assert_eq!(s.io_s, 1.0);
        assert_eq!(s.cpu_s, 2.0);
        assert_eq!(s.net_s, 3.0);
        assert_eq!(s.overhead_s, 4.0);
        assert_eq!(s.total_s(), 10.0);
    }

    #[test]
    fn since_computes_deltas() {
        let mut l = CostLedger::new();
        l.charge_io(1.0);
        let mark = l.snapshot();
        l.charge_io(2.5);
        l.charge_cpu(0.5);
        let d = l.since(&mark);
        assert_eq!(d.io_s, 2.5);
        assert_eq!(d.cpu_s, 0.5);
        assert_eq!(d.total_s(), 3.0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut l = CostLedger::new();
        l.charge_net(9.0);
        l.meter_tuples(5);
        l.reset();
        assert_eq!(l.total_s(), 0.0);
        assert!(l.usage().is_empty());
    }

    #[test]
    fn meter_accumulates_per_node_compute() {
        let mut l = CostLedger::new();
        l.meter_node_compute(2, 1.5);
        l.meter_node_compute(0, 0.5);
        l.meter_node_compute(2, 0.5);
        let usage = l.usage();
        assert_eq!(usage.node_compute_s, vec![0.5, 0.0, 2.0]);
        assert_eq!(usage.busiest_node_s(), 2.0);
    }

    #[test]
    fn identity_scales_reproduce_total_bit_for_bit() {
        let b = CostBreakdown {
            io_s: 0.1 + 0.2, // deliberately non-representable sums
            cpu_s: 1.0 / 3.0,
            net_s: 2.0 / 7.0,
            overhead_s: 1e-9,
        };
        assert_eq!(
            b.rescaled_total_s([1.0; 4]).to_bits(),
            b.total_s().to_bits(),
            "identity calibration must be invisible at the bit level"
        );
        // Non-identity scales actually rescale.
        let scaled = b.rescaled_total_s([2.0, 1.0, 1.0, 1.0]);
        assert!((scaled - (b.total_s() + b.io_s)).abs() < 1e-15);
    }

    #[test]
    fn plus_and_times_compose_categorywise() {
        let a = CostBreakdown {
            io_s: 1.0,
            cpu_s: 2.0,
            net_s: 3.0,
            overhead_s: 4.0,
        };
        let b = a.times(2.0).plus(&a);
        assert_eq!(b.io_s, 3.0);
        assert_eq!(b.cpu_s, 6.0);
        assert_eq!(b.net_s, 9.0);
        assert_eq!(b.overhead_s, 12.0);
    }

    #[test]
    fn meter_tracks_tuples_bytes_and_waves() {
        let mut l = CostLedger::new();
        assert!(l.usage().is_empty());
        l.meter_tuples(100);
        l.meter_shuffle_bytes(4096);
        l.meter_wave();
        l.meter_wave();
        assert_eq!(l.usage().tuples_scanned, 100);
        assert_eq!(l.usage().bytes_shuffled, 4096);
        assert_eq!(l.usage().waves, 2);
        assert!(!l.usage().is_empty());
        // Metering never moves the simulated clock.
        assert_eq!(l.total_s(), 0.0);
    }
}
