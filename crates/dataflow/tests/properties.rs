//! Property-based tests for the dataflow substrate: cost-model
//! monotonicity, partition-geometry invariants, and sampler bounds.

use ml4all_dataflow::{
    ClusterSpec, DatasetDescriptor, PartitionScheme, PartitionedDataset, SamplerState,
    SamplingMethod, SimEnv, StorageMedium,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn spec() -> ClusterSpec {
    ClusterSpec::paper_testbed()
}

fn arb_descriptor() -> impl Strategy<Value = DatasetDescriptor> {
    (
        1u64..100_000_000,
        1usize..10_000,
        1u64..(512u64 * 1024 * 1024 * 1024),
        0.001f64..1.0,
    )
        .prop_map(|(n, dims, bytes, density)| {
            DatasetDescriptor::new("prop", n, dims, bytes, density)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn partition_geometry_is_consistent(desc in arb_descriptor()) {
        let s = spec();
        let p = desc.partitions(&s);
        let full_waves = desc.waves(&s).floor() as u64;
        let lwp = desc.last_wave_partitions(&s);
        // Full waves plus the partial wave account for every partition.
        prop_assert_eq!(full_waves * s.cap() as u64 + lwp, p);
        // Units per partition covers the dataset.
        let k = desc.units_per_partition(&s);
        prop_assert!(k * p >= desc.n);
        // Last-wave slot work is bounded by a full partition.
        prop_assert!(desc.last_wave_slot_bytes(&s) <= s.partition_bytes);
        prop_assert!(desc.last_wave_slot_units(&s) <= k);
    }

    #[test]
    fn scan_io_is_monotone_in_bytes(
        n in 1u64..1_000_000,
        dims in 1usize..1000,
        bytes_a in 1u64..(100u64 * 1024 * 1024 * 1024),
        extra in 1u64..(100u64 * 1024 * 1024 * 1024),
    ) {
        let s = spec();
        let small = DatasetDescriptor::new("a", n, dims, bytes_a, 1.0);
        let large = DatasetDescriptor::new("b", n, dims, bytes_a.saturating_add(extra), 1.0);
        let mut env_small = SimEnv::new(s.clone());
        env_small.charge_full_scan_io(&small, StorageMedium::Disk);
        let mut env_large = SimEnv::new(s);
        env_large.charge_full_scan_io(&large, StorageMedium::Disk);
        prop_assert!(env_large.elapsed_s() >= env_small.elapsed_s() - 1e-12);
    }

    #[test]
    fn auto_medium_is_between_memory_and_disk(desc in arb_descriptor()) {
        let s = spec();
        let mut mem = SimEnv::new(s.clone());
        mem.charge_full_scan_io(&desc, StorageMedium::Memory);
        let mut auto = SimEnv::new(s.clone());
        auto.charge_full_scan_io(&desc, StorageMedium::Auto);
        let mut disk = SimEnv::new(s);
        disk.charge_full_scan_io(&desc, StorageMedium::Disk);
        prop_assert!(mem.elapsed_s() <= auto.elapsed_s() + 1e-12);
        prop_assert!(auto.elapsed_s() <= disk.elapsed_s() + 1e-12);
    }

    #[test]
    fn wave_cpu_never_exceeds_serial_cpu(desc in arb_descriptor(), per_unit in 1e-9f64..1e-5) {
        let s = spec();
        let mut wave = SimEnv::new(s.clone());
        wave.charge_wave_cpu(&desc, per_unit);
        let mut serial = SimEnv::new(s);
        serial.charge_serial_cpu(desc.n, per_unit);
        // Wave scheduling parallelizes across cap slots; allow the ceil
        // slack of one partition's worth of units.
        let slack = desc.units_per_partition(&spec()) as f64 * per_unit + 1e-9;
        prop_assert!(wave.elapsed_s() <= serial.elapsed_s() + slack);
    }

    #[test]
    fn network_cost_is_monotone_and_packet_rounded(a in 0u64..10_000_000, b in 0u64..10_000_000) {
        let s = spec();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let mut env_lo = SimEnv::new(s.clone());
        env_lo.charge_network(lo);
        let mut env_hi = SimEnv::new(s);
        env_hi.charge_network(hi);
        prop_assert!(env_lo.elapsed_s() <= env_hi.elapsed_s() + 1e-15);
    }

    #[test]
    fn ledger_total_is_sum_of_categories(
        io in 0.0f64..100.0, cpu in 0.0f64..100.0, net in 0.0f64..100.0, ovh in 0.0f64..100.0,
    ) {
        let mut env = SimEnv::new(spec());
        env.ledger.charge_io(io);
        env.ledger.charge_cpu(cpu);
        env.ledger.charge_net(net);
        env.ledger.charge_overhead(ovh);
        let s = env.snapshot();
        prop_assert!((s.total_s() - (io + cpu + net + ovh)).abs() < 1e-9);
    }
}

fn tiny_dataset(n: usize, partitions: u64) -> PartitionedDataset {
    let rows = (0..n).map(|i| (1.0, [i as f64])).collect();
    let s = spec();
    let desc = DatasetDescriptor::new("t", n as u64, 1, partitions * s.partition_bytes, 1.0);
    PartitionedDataset::with_descriptor(desc, &rows, PartitionScheme::RoundRobin, &s).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn samplers_return_valid_coordinates(
        n in 10usize..500,
        parts in 1u64..8,
        m in 1usize..64,
        seed in 0u64..1000,
        method_ix in 0usize..3,
    ) {
        let method = [
            SamplingMethod::Bernoulli,
            SamplingMethod::RandomPartition,
            SamplingMethod::ShuffledPartition,
        ][method_ix];
        let data = tiny_dataset(n, parts);
        let mut env = SimEnv::new(spec());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sampler = SamplerState::new(method);
        let coords = sampler.draw(&data, m, &mut env, &mut rng).unwrap();
        // Bernoulli may return any non-empty count; the others exactly m.
        if method != SamplingMethod::Bernoulli {
            prop_assert_eq!(coords.len(), m);
        } else {
            prop_assert!(!coords.is_empty());
        }
        for (pi, oi) in coords {
            prop_assert!(data.view(pi, oi).is_some());
        }
        // Every draw charges something.
        prop_assert!(env.elapsed_s() > 0.0);
    }

    #[test]
    fn physical_partitioning_preserves_every_point(
        n in 1usize..500,
        parts in 1u64..32,
        scheme_ix in 0usize..2,
    ) {
        let scheme = [PartitionScheme::RoundRobin, PartitionScheme::Contiguous][scheme_ix];
        let rows = (0..n).map(|i| (i as f64, [i as f64])).collect();
        let s = spec();
        let desc = DatasetDescriptor::new("t", n as u64, 1, parts * s.partition_bytes, 1.0);
        let data =
            PartitionedDataset::with_descriptor(desc, &rows, scheme, &s).unwrap();
        prop_assert_eq!(data.physical_n(), n);
        let mut labels: Vec<f64> = data.iter_views().map(|v| v.label).collect();
        labels.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expect: Vec<f64> = (0..n).map(|i| i as f64).collect();
        prop_assert_eq!(labels, expect);
    }
}
