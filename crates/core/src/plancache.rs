//! The plan cache: memoized cost-based plan decisions.
//!
//! The optimizer's output for a training request is a pure function of
//! the dataset contents, the lowered [`TrainSpec`], the seed, the
//! speculation settings, the cluster, and the RNG stream layout — so a
//! repeated request can skip the speculative runs of Algorithm 1 entirely
//! and reuse the costed plan table (the Section 8.3 optimization-time
//! argument, amortized across requests the way serving-side cost-based
//! optimizers cache repeated queries). A served report is byte-identical
//! to what a cold optimization would produce, with
//! [`OptimizerReport::cache_hit`] flipped so callers can observe the hit.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use ml4all_dataflow::{ClusterSpec, RNG_STREAM_VERSION};
use serde::{Deserialize, Serialize};

use crate::chooser::OptimizerReport;
use crate::estimator::SpeculationConfig;
use crate::lang::TrainSpec;
use crate::OptimizerError;

/// A fully qualified cache key: everything the optimizer's decision
/// depends on, rendered into one deterministic string.
///
/// The dataset enters via its content fingerprint
/// ([`ml4all_dataflow::PartitionedDataset::fingerprint`]), so two
/// independently resolved but identical datasets share cache entries; the
/// RNG stream version pins the key to the current sampler stream layout
/// (a stream change invalidates every cached speculation outcome).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanCacheKey {
    rendered: String,
    /// Length of the generation-independent prefix of `rendered` (the
    /// [`PlanCacheKey::durable_identity`]).
    base_len: usize,
    generation: u64,
}

impl PlanCacheKey {
    /// Build the key from the decision's inputs. `calibration_generation`
    /// is the engine's monotone calibration counter (0 with calibration
    /// off): every observed job bumps it, so cached choices priced under
    /// older unit costs can never replay.
    pub fn new(
        dataset_fingerprint: u64,
        spec: &TrainSpec,
        seed: u64,
        speculation: &SpeculationConfig,
        cluster: &ClusterSpec,
        calibration_generation: u64,
    ) -> Self {
        // `Debug` of the constituent structs is deterministic (f64 renders
        // via shortest-roundtrip) and covers every field, so the key
        // cannot silently ignore a new knob.
        let base = format!(
            "v{RNG_STREAM_VERSION}|fp{dataset_fingerprint:016x}|seed{seed}|{spec:?}|{speculation:?}|{cluster:?}"
        );
        let base_len = base.len();
        Self {
            rendered: format!("{base}|gen{calibration_generation}"),
            base_len,
            generation: calibration_generation,
        }
    }

    /// The rendered key string (stable across processes — persisted cache
    /// entries carry it).
    pub fn as_str(&self) -> &str {
        &self.rendered
    }

    /// The generation-independent prefix of the key: everything a *job's*
    /// identity depends on, minus the calibration generation. Checkpoints
    /// are named by this — a calibration bump must invalidate cached plan
    /// *decisions*, but never orphan an in-flight job's resume state.
    pub fn durable_identity(&self) -> &str {
        &self.rendered[..self.base_len]
    }

    /// The calibration generation baked into this key.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Rebuild a key from its rendered string plus the generation the
    /// persisted entry recorded (the inverse of [`PlanCacheKey::as_str`],
    /// used when importing persisted entries).
    pub fn from_string(key: String, generation: u64) -> Self {
        let suffix = format!("|gen{generation}");
        let base_len = if key.ends_with(&suffix) {
            key.len() - suffix.len()
        } else {
            key.len()
        };
        Self {
            rendered: key,
            base_len,
            generation,
        }
    }
}

/// One persisted cache entry: the rendered key plus its report. A
/// [`PlanCache`] exports to and imports from a list of these, giving the
/// cache a process-death-surviving on-disk form without tying this crate
/// to a storage location.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanCacheEntry {
    /// Rendered [`PlanCacheKey`] string.
    pub key: String,
    /// Calibration generation the decision was priced under. `None` marks
    /// an entry persisted before calibration-generation keying (or hand
    /// edited); [`PlanCache::import`] refuses such entries with a typed
    /// error instead of replaying a potentially mispriced plan.
    pub calibration_generation: Option<u64>,
    /// The cached optimizer decision.
    pub report: OptimizerReport,
}

/// A concurrent memo of [`OptimizerReport`]s with hit/miss counters for
/// observability. It holds one decision per
/// [`PlanCacheKey::durable_identity`], the newest calibration
/// generation's: every completed calibrated job bumps the generation, so
/// no later lookup can hit an older one.
#[derive(Debug, Default)]
pub struct PlanCache {
    /// Per durable identity, the newest key seen and its decision.
    entries: Mutex<HashMap<String, (PlanCacheKey, OptimizerReport)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look a decision up. It hits only on a decision stored under the
    /// same key, calibration generation included. On a hit, returns a
    /// clone of the cached report with [`OptimizerReport::cache_hit`] set.
    pub fn get(&self, key: &PlanCacheKey) -> Option<OptimizerReport> {
        let entries = self.entries.lock().expect("plan cache");
        match entries.get(key.durable_identity()) {
            Some((stored, report)) if stored == key => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                let mut report = report.clone();
                report.cache_hit = true;
                Some(report)
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store a freshly computed decision, replacing its identity's decision
    /// from an older generation; one from a newer generation stays. The
    /// stored copy is normalized to `cache_hit: false` (the marker
    /// describes how a report was *served*, not how it is stored);
    /// concurrent duplicate computations insert the same value, so
    /// last-write-wins is safe.
    pub fn insert(&self, key: PlanCacheKey, report: &OptimizerReport) {
        self.store(key, report.clone());
    }

    /// Keep `report` under `key`'s identity unless a newer one is there.
    fn store(&self, key: PlanCacheKey, mut report: OptimizerReport) {
        report.cache_hit = false;
        let mut entries = self.entries.lock().expect("plan cache");
        let identity = key.durable_identity();
        if entries
            .get(identity)
            .is_none_or(|(held, _)| held.generation <= key.generation)
        {
            entries.insert(identity.to_string(), (key, report));
        }
    }

    /// Number of cached decisions.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("plan cache").len()
    }

    /// `true` when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Export every entry, sorted by key so the persisted form is
    /// deterministic.
    pub fn export(&self) -> Vec<PlanCacheEntry> {
        let entries = self.entries.lock().expect("plan cache");
        let mut out: Vec<PlanCacheEntry> = entries
            .values()
            .map(|(k, report)| PlanCacheEntry {
                key: k.rendered.clone(),
                calibration_generation: Some(k.generation),
                report: report.clone(),
            })
            .collect();
        out.sort_by(|a, b| a.key.cmp(&b.key));
        out
    }

    /// Import previously exported entries (e.g. read back from disk).
    /// Stored reports are normalized to `cache_hit: false`, exactly as
    /// [`PlanCache::insert`] would; counters are untouched. An identity
    /// imported at several generations keeps the newest.
    ///
    /// An entry without a calibration generation is **refused** with
    /// [`OptimizerError::StalePlanCache`] — it predates generation keying
    /// (or was hand edited) and replaying it could serve a plan priced
    /// under unit costs that no longer exist. Nothing is imported when any
    /// entry is stale, so a damaged file never partially warms the cache.
    pub fn import(&self, entries: Vec<PlanCacheEntry>) -> Result<(), OptimizerError> {
        if let Some(stale) = entries.iter().find(|e| e.calibration_generation.is_none()) {
            return Err(OptimizerError::StalePlanCache {
                key: stale.key.clone(),
            });
        }
        for e in entries {
            let generation = e.calibration_generation.expect("checked above");
            self.store(PlanCacheKey::from_string(e.key, generation), e.report);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chooser::{choose_plan, OptimizerConfig};
    use ml4all_dataflow::{PartitionScheme, PartitionedDataset};
    use ml4all_gd::GradientKind;

    fn dataset(n: usize) -> PartitionedDataset {
        let points = (0..n)
            .map(|i| {
                let x = (i as f64 / n as f64) * 2.0 - 1.0;
                (if x > 0.0 { 1.0 } else { -1.0 }, [x, 1.0])
            })
            .collect();
        PartitionedDataset::from_columns(
            "cache-test",
            &points,
            PartitionScheme::RoundRobin,
            &ClusterSpec::paper_testbed(),
        )
        .unwrap()
    }

    fn key_for(data: &PartitionedDataset, seed: u64, max_iter: Option<u64>) -> PlanCacheKey {
        let mut spec = TrainSpec::new(GradientKind::LogisticRegression);
        spec.max_iter = max_iter;
        PlanCacheKey::new(
            data.fingerprint(),
            &spec,
            seed,
            &SpeculationConfig::default(),
            &ClusterSpec::paper_testbed(),
            0,
        )
    }

    #[test]
    fn hit_returns_the_cold_report_with_the_marker_set() {
        let data = dataset(500);
        let config =
            OptimizerConfig::new(GradientKind::LogisticRegression).with_fixed_iterations(100);
        let cold = choose_plan(&data, &config, &ClusterSpec::paper_testbed()).unwrap();
        assert!(!cold.cache_hit);

        let cache = PlanCache::new();
        let key = key_for(&data, 0, Some(100));
        assert!(cache.get(&key).is_none());
        cache.insert(key.clone(), &cold);
        let served = cache.get(&key).expect("cached");
        assert!(served.cache_hit);
        // Identical decision apart from the marker.
        assert_eq!(
            serde_json::to_string(&served.choices).unwrap(),
            serde_json::to_string(&cold.choices).unwrap()
        );
        assert_eq!(served.speculation_sim_s, cold.speculation_sim_s);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn keys_separate_every_decision_input() {
        let data = dataset(500);
        let other = dataset(501);
        let base = key_for(&data, 0, Some(100));
        assert_eq!(base, key_for(&data, 0, Some(100)));
        assert_ne!(base, key_for(&other, 0, Some(100)), "dataset fingerprint");
        assert_ne!(base, key_for(&data, 1, Some(100)), "seed");
        assert_ne!(base, key_for(&data, 0, Some(200)), "spec");
        let mut spec = TrainSpec::new(GradientKind::LogisticRegression);
        spec.max_iter = Some(100);
        let looser = PlanCacheKey::new(
            data.fingerprint(),
            &spec,
            0,
            &SpeculationConfig {
                sample_size: 9,
                ..SpeculationConfig::default()
            },
            &ClusterSpec::paper_testbed(),
            0,
        );
        assert_ne!(base, looser, "speculation config");
        // A calibration-generation bump invalidates every prior decision.
        let recalibrated = PlanCacheKey::new(
            data.fingerprint(),
            &spec,
            0,
            &SpeculationConfig::default(),
            &ClusterSpec::paper_testbed(),
            1,
        );
        assert_ne!(base, recalibrated, "calibration generation");
        assert_eq!(recalibrated.generation(), 1);
        assert!(recalibrated.as_str().ends_with("|gen1"));
        // The durable identity ignores the generation: a recalibration
        // invalidates cached decisions without orphaning checkpoints.
        assert_eq!(base.durable_identity(), recalibrated.durable_identity());
        assert_ne!(base.durable_identity(), base.as_str());
        // And it survives the persisted-string round trip.
        let round = PlanCacheKey::from_string(recalibrated.as_str().to_string(), 1);
        assert_eq!(round.durable_identity(), recalibrated.durable_identity());
    }

    #[test]
    fn export_import_round_trips_decisions_across_cache_instances() {
        let data = dataset(500);
        let config =
            OptimizerConfig::new(GradientKind::LogisticRegression).with_fixed_iterations(100);
        let cold = choose_plan(&data, &config, &ClusterSpec::paper_testbed()).unwrap();
        let cache = PlanCache::new();
        let key = key_for(&data, 0, Some(100));
        cache.insert(key.clone(), &cold);

        let exported = cache.export();
        assert_eq!(exported.len(), 1);
        assert_eq!(exported[0].key, key.as_str());
        // Through JSON and back into a fresh cache: the served report is
        // identical to what the original cache would serve.
        let json = serde_json::to_string(&exported).unwrap();
        let parsed: Vec<PlanCacheEntry> = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed[0].calibration_generation, Some(0));
        let warmed = PlanCache::new();
        warmed
            .import(parsed)
            .expect("entries carry their generation");
        assert_eq!(warmed.len(), 1);
        let served = warmed.get(&key).expect("imported entry");
        assert!(served.cache_hit);
        assert_eq!(
            serde_json::to_string(&served.choices).unwrap(),
            serde_json::to_string(&cold.choices).unwrap()
        );
    }

    #[test]
    fn entries_without_a_generation_are_refused_typed() {
        let data = dataset(500);
        let config =
            OptimizerConfig::new(GradientKind::LogisticRegression).with_fixed_iterations(100);
        let cold = choose_plan(&data, &config, &ClusterSpec::paper_testbed()).unwrap();
        let cache = PlanCache::new();
        let key = key_for(&data, 0, Some(100));
        cache.insert(key.clone(), &cold);
        let mut exported = cache.export();
        exported[0].calibration_generation = None;

        let warmed = PlanCache::new();
        let err = warmed.import(exported).unwrap_err();
        assert!(
            matches!(&err, OptimizerError::StalePlanCache { key: k } if k == key.as_str()),
            "expected StalePlanCache, got {err:?}"
        );
        // Nothing was imported: the damaged file cannot partially warm.
        assert!(warmed.is_empty());
        assert!(warmed.get(&key).is_none());
    }

    #[test]
    fn a_newer_generation_replaces_its_identity_and_an_older_one_does_not() {
        let data = dataset(500);
        let config =
            OptimizerConfig::new(GradientKind::LogisticRegression).with_fixed_iterations(100);
        let report = choose_plan(&data, &config, &ClusterSpec::paper_testbed()).unwrap();
        let at = |generation| {
            let key = key_for(&data, 0, Some(100));
            PlanCacheKey::from_string(
                format!("{}|gen{generation}", key.durable_identity()),
                generation,
            )
        };
        let cache = PlanCache::new();
        cache.insert(at(0), &report);
        cache.insert(at(2), &report);
        cache.insert(at(1), &report);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&at(0)).is_none() && cache.get(&at(1)).is_none());
        assert!(cache.get(&at(2)).is_some());
        assert_eq!((cache.hits(), cache.misses()), (1, 2));

        // Import keeps the newest generation of an identity, in any order,
        // and exports its rendered key unchanged.
        let entry = |generation| PlanCacheEntry {
            key: at(generation).as_str().to_string(),
            calibration_generation: Some(generation),
            report: report.clone(),
        };
        let warmed = PlanCache::new();
        warmed.import(vec![entry(3), entry(5), entry(4)]).unwrap();
        let exported = warmed.export();
        assert_eq!(exported.len(), 1);
        assert_eq!(exported[0].key, at(5).as_str());
        assert_eq!(exported[0].calibration_generation, Some(5));
    }

    #[test]
    fn identical_content_shares_entries_across_instances() {
        // Two independently built but identical datasets: same fingerprint,
        // same key — a warmed cache serves both.
        let a = dataset(400);
        let b = dataset(400);
        assert_ne!(a.storage_id(), b.storage_id());
        assert_eq!(key_for(&a, 0, Some(50)), key_for(&b, 0, Some(50)));
    }
}
