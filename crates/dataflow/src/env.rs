//! The simulation environment: cluster spec + cost ledger, the charging
//! primitives that implement Equations 3–5 of the paper, and the price
//! list built on them: one `charge_*` method per Section 7.1 operator,
//! the only code that composes the primitives for ML4all's operators or
//! reads a `ClusterSpec::cpu_*_s` rate. The executor and the samplers call
//! it on the live environment, the cost model's operator rows on a scratch
//! one, so each price is written once. (The baselines model other systems
//! and compose the primitives themselves.)

use std::sync::Arc;

use ml4all_runtime::Runtime;

use crate::backend::Backend;
use crate::cluster::{ClusterSpec, StorageMedium};
use crate::descriptor::DatasetDescriptor;
use crate::ledger::{CostBreakdown, CostLedger};
use crate::sampling::SamplingMethod;

/// Execution environment handed to operators: charge costs here while the
/// computation itself runs over the physical rows — which it does through
/// the shared [`Runtime`] worker pool, the physical counterpart of the
/// cost model's wave parallelism. A [`Backend`] selects whether runs are
/// additionally metered as a simulated cluster (per-node placement,
/// broadcast/aggregate accounting); charging is backend-invariant.
#[derive(Debug, Clone)]
pub struct SimEnv {
    /// Deployment constants.
    pub spec: ClusterSpec,
    /// Simulated clock.
    pub ledger: CostLedger,
    /// Worker pool physical computation dispatches through.
    runtime: Arc<Runtime>,
    /// Execution backend (selects cluster metering).
    backend: Backend,
}

impl SimEnv {
    /// Fresh environment at t = 0, on the process-wide runtime.
    pub fn new(spec: ClusterSpec) -> Self {
        Self::with_runtime(spec, Runtime::global())
    }

    /// Fresh environment at t = 0 on an explicit runtime (e.g. a
    /// fixed-size pool for determinism tests).
    pub fn with_runtime(spec: ClusterSpec, runtime: Arc<Runtime>) -> Self {
        Self {
            spec,
            ledger: CostLedger::new(),
            runtime,
            backend: Backend::Local,
        }
    }

    /// Route execution through `backend` (builder-style).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// The backend this environment executes on.
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// The worker pool this environment executes on.
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.runtime
    }

    /// Total simulated seconds so far.
    pub fn elapsed_s(&self) -> f64 {
        self.ledger.total_s()
    }

    /// Snapshot for per-phase deltas.
    pub fn snapshot(&self) -> CostBreakdown {
        self.ledger.snapshot()
    }

    /// **Equation 3** — IO cost of scanning dataset `d`: each full wave
    /// costs a seek plus the pages of one partition (partitions within a
    /// wave are read in parallel); the final partial wave costs the pages
    /// one slot actually reads.
    pub fn charge_full_scan_io(&mut self, d: &DatasetDescriptor, medium: StorageMedium) {
        let spec = &self.spec;
        let page_io = spec.page_io_s(medium, d.bytes);
        let seek = spec.seek_io_s(medium, d.bytes);
        let pages_per_partition = spec.partition_bytes.div_ceil(spec.page_bytes);
        let full_waves = d.waves(spec).floor();
        let mut cost = full_waves * (seek + pages_per_partition as f64 * page_io);
        let tail_bytes = d.last_wave_slot_bytes(spec);
        if tail_bytes > 0 {
            let tail_pages = tail_bytes.div_ceil(spec.page_bytes);
            cost += seek + tail_pages as f64 * page_io;
        }
        self.ledger.charge_io(cost);
    }

    /// **Equation 4** — wave-parallel CPU cost of applying a per-unit
    /// operation over all of `d`: each full wave costs `k` units of work
    /// (slots run in parallel); the partial wave costs the units of one
    /// slot.
    pub fn charge_wave_cpu(&mut self, d: &DatasetDescriptor, per_unit_s: f64) {
        let spec = &self.spec;
        let k = d.units_per_partition(spec) as f64;
        let full_waves = d.waves(spec).floor();
        let tail_units = d.last_wave_slot_units(spec) as f64;
        self.ledger
            .charge_cpu((full_waves * k + tail_units) * per_unit_s);
    }

    /// Serial CPU: `units` data units processed on a single slot (driver
    /// side — `Update`, `Converge`, `Loop`, and hybrid-mode `Compute`).
    pub fn charge_serial_cpu(&mut self, units: u64, per_unit_s: f64) {
        self.ledger.charge_cpu(units as f64 * per_unit_s);
    }

    /// **Equation 5** — network cost of moving `bytes` across the
    /// interconnect, rounded up to whole packets.
    pub fn charge_network(&mut self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let packets = bytes.div_ceil(self.spec.packet_bytes);
        let effective = packets * self.spec.packet_bytes;
        self.ledger
            .charge_net(effective as f64 * self.spec.net_byte_s);
    }

    /// Sequential page reads of `bytes` from a dataset of `dataset_bytes`
    /// (cache-aware), without a seek — the shuffled-partition fast path.
    pub fn charge_sequential_read(
        &mut self,
        bytes: u64,
        dataset_bytes: u64,
        medium: StorageMedium,
    ) {
        self.ledger
            .charge_io(self.sequential_read_s(bytes, dataset_bytes, medium));
    }

    fn sequential_read_s(&self, bytes: u64, dataset_bytes: u64, medium: StorageMedium) -> f64 {
        let page_io = self.spec.page_io_s(medium, dataset_bytes);
        // Amortized: sequential cursors touch `bytes / page` pages over
        // time; charge fractionally rather than rounding every 1-unit read
        // up to a full page.
        let pages = bytes as f64 / self.spec.page_bytes as f64;
        pages * page_io
    }

    /// Meter one compute wave on the simulated-cluster backend:
    /// `units[pi]` data units ran on node `pi % nodes` at `per_unit_s`
    /// each, and the `model_bytes`-sized weight vector was broadcast to —
    /// and its partial aggregates gathered from — each of the
    /// `min(partitions, nodes)` active nodes. No-op on the local backend,
    /// where nothing crosses a node boundary. Metering never moves the
    /// simulated clock; the cost charges stay backend-invariant.
    pub fn meter_cluster_wave(&mut self, units: &[u64], per_unit_s: f64, model_bytes: u64) {
        let Backend::SimulatedCluster { nodes } = self.backend else {
            return;
        };
        let nodes = nodes.get();
        let active = units.len().min(nodes) as u64;
        self.ledger.meter_wave();
        self.ledger.meter_shuffle_bytes(2 * model_bytes * active);
        for (pi, &u) in units.iter().enumerate() {
            self.ledger.meter_tuples(u);
            self.ledger
                .meter_node_compute(pi % nodes, u as f64 * per_unit_s);
        }
    }

    /// Meter a hybrid-mode sample fetch on the simulated-cluster backend:
    /// `drawn` units were read on the cluster and shipped to the driver.
    /// No-op on the local backend.
    pub fn meter_cluster_sample(&mut self, drawn: u64, unit_bytes: u64) {
        if !self.backend.is_cluster() {
            return;
        }
        self.ledger.meter_tuples(drawn);
        self.ledger.meter_shuffle_bytes(drawn * unit_bytes);
    }
}

/// The price list: each method charges what one Section 7.1 operator costs
/// on `d`'s logical shape (never the physical rows), adding to each ledger
/// category in one fixed order wherever it is called.
impl SimEnv {
    /// Fixed job-scheduling overhead (Spark job init).
    pub fn charge_job_init(&mut self) {
        let s = self.spec.job_init_s;
        self.ledger.charge_overhead(s);
    }

    /// `Stage` (`cS`): driver-side model and parameter initialization.
    pub fn charge_stage(&mut self, d: &DatasetDescriptor) {
        self.charge_serial_cpu(1, self.spec.cpu_stage_s(d.dims));
    }

    /// `Transform` over the whole dataset (`cT(D)`), also paid by a `Stage`
    /// that needs a full scan: a cold read from disk plus wave-parallel
    /// parse CPU.
    pub fn charge_transform_scan(&mut self, d: &DatasetDescriptor) {
        self.charge_full_scan_io(d, StorageMedium::Disk);
        self.charge_wave_cpu(d, self.spec.cpu_transform_s(d.avg_nnz()));
    }

    /// `Transform` over `units` sampled units at the driver (`cT(mᵢ)`).
    pub fn charge_transform_units(&mut self, d: &DatasetDescriptor, units: u64) {
        self.charge_serial_cpu(units, self.spec.cpu_transform_s(d.avg_nnz()));
    }

    /// `Compute` over the whole dataset (`cC(D)`): a cache-aware scan plus
    /// wave-parallel gradient CPU, after wave-parallel parse CPU when the
    /// units are transformed on the fly (`transform`, a lazy plan's batch
    /// wave). Returns the CPU seconds per unit, what the cluster meter bills.
    pub fn charge_compute_scan(&mut self, d: &DatasetDescriptor, transform: bool) -> f64 {
        self.charge_full_scan_io(d, StorageMedium::Auto);
        let gradient_s = self.spec.cpu_gradient_s(d.avg_nnz());
        let mut per_unit_s = gradient_s;
        if transform {
            let transform_s = self.spec.cpu_transform_s(d.avg_nnz());
            self.charge_wave_cpu(d, transform_s);
            per_unit_s += transform_s;
        }
        self.charge_wave_cpu(d, gradient_s);
        per_unit_s
    }

    /// `Compute` over `units` sampled units (`cC(mᵢ)`): hybrid execution
    /// (Appendix D) ships a distributed sample to the driver, which
    /// computes serially.
    pub fn charge_compute_units(&mut self, d: &DatasetDescriptor, units: u64) {
        if !d.fits_one_partition(&self.spec) {
            self.charge_network(d.unit_bytes().ceil() as u64 * units);
        }
        self.charge_serial_cpu(units, self.spec.cpu_gradient_s(d.avg_nnz()));
    }

    /// `Update` (`cU`): with `aggregate`, every partition of distributed
    /// data ships its partial aggregate (a `d`-vector) to the one node that
    /// applies the step.
    pub fn charge_update(&mut self, d: &DatasetDescriptor, aggregate: bool) {
        if aggregate && !d.fits_one_partition(&self.spec) {
            self.charge_network(d.partitions(&self.spec) * d.dims as u64 * 8);
        }
        self.charge_serial_cpu(1, self.spec.cpu_update_s(d.dims));
    }

    /// `Converge` + `Loop` (`cCV + cL`): one model-vector pass on one node.
    pub fn charge_converge(&mut self, d: &DatasetDescriptor) {
        self.charge_serial_cpu(1, self.spec.cpu_converge_s(d.dims));
    }

    /// `Sample` (`cSP`): one draw of `m` units with `method` (Figure 4).
    /// The Bernoulli sampler charges it again for every empty retry.
    pub fn charge_sample(&mut self, method: SamplingMethod, d: &DatasetDescriptor, m: u64) {
        match method {
            SamplingMethod::Bernoulli => {
                self.charge_full_scan_io(d, StorageMedium::Auto);
                self.charge_wave_cpu(d, self.spec.cpu_sample_test_s());
            }
            SamplingMethod::RandomPartition => {
                // One random unit read per draw: a memory access when the
                // data fits one partition and so lives at the driver
                // (Appendix D), else a cache-aware seek plus one page.
                let read_s = if d.fits_one_partition(&self.spec) {
                    let unit_pages = d.unit_bytes() / self.spec.page_bytes as f64;
                    self.spec.mem_seek_s + unit_pages * self.spec.mem_page_io_s
                } else {
                    self.spec.seek_io_s(StorageMedium::Auto, d.bytes)
                        + self.spec.page_io_s(StorageMedium::Auto, d.bytes)
                };
                for _ in 0..m {
                    self.ledger.charge_io(read_s);
                }
                self.charge_serial_cpu(m, self.spec.cpu_sample_test_s());
            }
            SamplingMethod::ShuffledPartition => {
                // One partition shuffle (seek, sequential read, Fisher–Yates
                // over its k units) serves k draws: charge m/k of it. At
                // logical scale — per physical reshuffle, the price would
                // depend on how many rows this process holds.
                let k = d.units_per_partition(&self.spec).max(1);
                let bytes = self.partition_read_bytes(d);
                let read_s = self.spec.seek_io_s(StorageMedium::Auto, d.bytes)
                    + self.sequential_read_s(bytes, d.bytes, StorageMedium::Auto);
                let shuffle_s = read_s + k as f64 * self.spec.cpu_shuffle_unit_s();
                self.ledger.charge_io(shuffle_s * m as f64 / k as f64);
                let unit_bytes = d.unit_bytes().ceil() as u64;
                self.charge_sequential_read(unit_bytes * m, d.bytes, StorageMedium::Auto);
                self.charge_serial_cpu(m, self.spec.cpu_sample_test_s());
            }
        }
    }

    /// The speculation sample's collection job (Algorithm 1): job init, a
    /// read of one partition's worth of input, and the parse of `units`.
    pub fn charge_sample_collection(&mut self, d: &DatasetDescriptor, units: u64) {
        self.charge_job_init();
        let bytes = self.partition_read_bytes(d);
        self.charge_sequential_read(bytes, d.bytes, StorageMedium::Auto);
        self.charge_transform_units(d, units);
    }

    /// Per-iteration scheduling overhead: a distributed stage launch when
    /// the iteration touches multi-partition data, plus the driver loop
    /// bookkeeping either way.
    pub fn charge_iteration_overhead(&mut self, distributed: bool) {
        let s = if distributed {
            self.spec.stage_launch_s + self.spec.driver_loop_s
        } else {
            self.spec.driver_loop_s
        };
        self.ledger.charge_overhead(s);
    }

    /// Bytes one slot reads to read a whole partition of `d`.
    fn partition_read_bytes(&self, d: &DatasetDescriptor) -> u64 {
        d.bytes
            .div_ceil(d.partitions(&self.spec))
            .min(self.spec.partition_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> SimEnv {
        SimEnv::new(ClusterSpec::paper_testbed())
    }

    fn desc(n: u64, bytes: u64) -> DatasetDescriptor {
        DatasetDescriptor::new("t", n, 100, bytes, 1.0)
    }

    #[test]
    fn scan_io_single_partition_counts_actual_pages() {
        let mut e = env();
        let d = desc(1000, 7 * 1024 * 1024); // 7 MB → 2 pages of 4 MB
        e.charge_full_scan_io(&d, StorageMedium::Disk);
        let expect = e.spec.seek_s + 2.0 * e.spec.disk_page_io_s;
        assert!((e.ledger.snapshot().io_s - expect).abs() < 1e-12);
    }

    #[test]
    fn scan_io_scales_with_waves_not_partitions() {
        let mut e = env();
        // 32 partitions at cap 16 → exactly 2 waves; cost = 2 × one-partition cost.
        let d32 = desc(1_000_000, 32 * 128 * 1024 * 1024);
        e.charge_full_scan_io(&d32, StorageMedium::Disk);
        let two_waves = e.ledger.snapshot().io_s;

        let mut e2 = env();
        let d16 = desc(500_000, 16 * 128 * 1024 * 1024);
        e2.charge_full_scan_io(&d16, StorageMedium::Disk);
        let one_wave = e2.ledger.snapshot().io_s;

        assert!((two_waves - 2.0 * one_wave).abs() < 1e-9);
    }

    #[test]
    fn cached_scan_is_cheaper_than_cold() {
        let d = desc(1_000_000, 16 * 128 * 1024 * 1024);
        let mut cold = env();
        cold.charge_full_scan_io(&d, StorageMedium::Disk);
        let mut warm = env();
        warm.charge_full_scan_io(&d, StorageMedium::Memory);
        assert!(cold.ledger.total_s() > warm.ledger.total_s());
    }

    #[test]
    fn auto_medium_penalizes_datasets_larger_than_cache() {
        let spec = ClusterSpec::paper_testbed();
        let fits = desc(1_000_000, spec.cache_bytes / 2);
        let spills = desc(2_000_000, spec.cache_bytes * 2);
        let mut a = env();
        a.charge_full_scan_io(&fits, StorageMedium::Auto);
        let mut b = env();
        b.charge_full_scan_io(&spills, StorageMedium::Auto);
        // Per-byte cost must be strictly higher for the spilled dataset.
        let per_byte_a = a.ledger.total_s() / fits.bytes as f64;
        let per_byte_b = b.ledger.total_s() / spills.bytes as f64;
        assert!(per_byte_b > 2.0 * per_byte_a);
    }

    #[test]
    fn wave_cpu_equals_serial_cpu_for_one_partition() {
        let d = desc(1000, 1024 * 1024);
        let mut a = env();
        a.charge_wave_cpu(&d, 1e-6);
        let mut b = env();
        b.charge_serial_cpu(1000, 1e-6);
        assert!((a.ledger.total_s() - b.ledger.total_s()).abs() < 1e-12);
    }

    #[test]
    fn wave_cpu_gets_cap_speedup_for_many_partitions() {
        // 64 partitions = 4 waves; CPU time should be n/cap × per-unit.
        let d = desc(640_000, 64 * 128 * 1024 * 1024);
        let mut e = env();
        e.charge_wave_cpu(&d, 1e-6);
        let expect = (640_000.0 / 16.0) * 1e-6;
        assert!((e.ledger.total_s() - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn network_rounds_to_packets() {
        let mut e = env();
        e.charge_network(1); // one byte still costs a packet
        let expect = e.spec.packet_bytes as f64 * e.spec.net_byte_s;
        assert!((e.ledger.snapshot().net_s - expect).abs() < 1e-15);
        let mut e2 = env();
        e2.charge_network(0);
        assert_eq!(e2.ledger.total_s(), 0.0);
    }

    #[test]
    fn sequential_read_is_cheaper_than_random() {
        let mut seq = env();
        seq.charge_sequential_read(1800, 7 * 1024 * 1024, StorageMedium::Memory);
        let mut rnd = env();
        // Several partitions: a draw is a block access, not a driver read.
        rnd.charge_sample(
            SamplingMethod::RandomPartition,
            &desc(1000, 3 * rnd.spec.partition_bytes),
            1,
        );
        assert!(seq.ledger.total_s() < rnd.ledger.total_s());
    }

    #[test]
    fn job_init_charges_overhead() {
        let mut e = env();
        e.charge_job_init();
        assert_eq!(e.ledger.snapshot().overhead_s, e.spec.job_init_s);
    }

    #[test]
    fn cluster_wave_meters_per_node_without_moving_the_clock() {
        let spec = ClusterSpec::paper_testbed();
        let mut e =
            SimEnv::new(spec.clone()).with_backend(crate::Backend::simulated_cluster(&spec));
        // 6 partitions on 4 nodes: nodes 0 and 1 host two partitions each.
        let units = [10u64, 20, 30, 40, 50, 60];
        e.meter_cluster_wave(&units, 1.0, 80);
        let usage = e.ledger.usage();
        assert_eq!(usage.waves, 1);
        assert_eq!(usage.tuples_scanned, 210);
        // Broadcast + aggregate for 4 active nodes.
        assert_eq!(usage.bytes_shuffled, 2 * 80 * 4);
        assert_eq!(usage.node_compute_s, vec![60.0, 80.0, 30.0, 40.0]);
        assert_eq!(usage.busiest_node_s(), 80.0);
        assert_eq!(e.elapsed_s(), 0.0, "metering must not charge the ledger");
    }

    #[test]
    fn local_backend_meters_nothing() {
        let mut e = env();
        assert!(!e.backend().is_cluster());
        e.meter_cluster_wave(&[10, 20], 1.0, 80);
        e.meter_cluster_sample(5, 100);
        assert!(e.ledger.usage().is_empty());
    }

    #[test]
    fn cluster_sample_meters_shipping() {
        let spec = ClusterSpec::paper_testbed();
        let mut e =
            SimEnv::new(spec.clone()).with_backend(crate::Backend::simulated_cluster(&spec));
        e.meter_cluster_sample(100, 64);
        assert_eq!(e.ledger.usage().tuples_scanned, 100);
        assert_eq!(e.ledger.usage().bytes_shuffled, 6400);
        assert!(e.ledger.usage().node_compute_s.is_empty());
    }
}
