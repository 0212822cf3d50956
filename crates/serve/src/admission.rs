//! Per-tenant admission control: quotas, typed backpressure, and a
//! deficit-round-robin dispatch policy.
//!
//! The server never drops a request silently. A submit either:
//!
//! - **queues** — the tenant's pending queue has byte room; the job
//!   waits until [`Admission::try_next`] releases it, or
//! - **refuses** with [`Busy`] — the tenant's `max_queued_bytes` quota
//!   is full; the typed error carries a `retry_after_ms` backoff hint.
//!
//! The controller never blocks and owns no thread: the server's reactor
//! calls [`Admission::try_next`] whenever a submit or a job completion
//! may have made room, and dispatches what it returns. The per-tenant
//! queues drain with **deficit round robin** (Shreedhar & Varghese):
//! each rotation credits a visited non-empty lane with `quantum` bytes
//! of deficit, and a lane may dispatch its head job only when its
//! accumulated deficit covers the job's byte cost. Big-frame tenants therefore get proportionally
//! *fewer* dispatches, not proportionally more bytes — a tenant cannot
//! buy throughput by padding frames. Two gates bound concurrency:
//! per-tenant `max_in_flight` and a global capacity. Dispatched jobs
//! land in the runtime's per-tenant fairness lanes
//! ([`ml4all::Runtime`]'s two-tier queue), so fairness holds end to
//! end: once at the runtime, batch wave tasks of *running* jobs still
//! outrank every queued whole job.

use std::cell::RefCell;
use std::collections::VecDeque;

/// Per-tenant admission limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Max jobs dispatched and unfinished at once.
    pub max_in_flight: usize,
    /// Max bytes of queued (admitted, undispatched) request frames.
    pub max_queued_bytes: usize,
}

impl Default for TenantQuota {
    fn default() -> Self {
        Self {
            max_in_flight: 4,
            max_queued_bytes: 256 * 1024,
        }
    }
}

/// Typed backpressure: the submit was refused, retry later.
///
/// The hint is `base + jitter` where `base = min(25ms × (queue+1), 2s)`
/// scales with queue depth and the jitter is uniform over `[0, base/2]`
/// — so the hint always lands in **[base, 1.5×base]**. Without jitter,
/// every client refused in the same busy spike would sleep the same
/// hint and stampede back in lockstep; the spread desynchronizes them.
/// The jitter comes from a seeded xorshift stream (no wall clock, no
/// OS entropy), so a single-threaded test sequence is reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Busy {
    /// Suggested backoff before retrying, scaled by queue depth and
    /// jittered within `[base, 1.5×base]`.
    pub retry_after_ms: u64,
}

/// A dispatched item with the lane it came from.
#[derive(Debug)]
pub struct Dispatch<T> {
    /// The tenant whose lane released the item.
    pub tenant: String,
    /// Byte cost the item was admitted under (the caller returns it via
    /// [`Admission::complete`] accounting only; the deficit already paid
    /// it).
    pub cost: usize,
    /// The item.
    pub item: T,
}

/// A tenant's admission counters at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneStats {
    /// Jobs dispatched and unfinished.
    pub in_flight: usize,
    /// Jobs waiting in the queue.
    pub queued: usize,
    /// Bytes waiting in the queue.
    pub queued_bytes: usize,
    /// The quota in effect for this tenant.
    pub quota: TenantQuota,
    /// Dispatched-and-unfinished jobs across all tenants.
    pub global_in_flight: usize,
    /// The global concurrency cap.
    pub global_capacity: usize,
}

struct Lane<T> {
    tenant: String,
    quota: TenantQuota,
    queue: VecDeque<(usize, T)>,
    queued_bytes: usize,
    in_flight: usize,
    deficit: usize,
}

struct State<T> {
    // Lanes persist once created (tenant counts are small and bounded by
    // configuration in practice), keeping in-flight accounting simple.
    lanes: Vec<Lane<T>>,
    cursor: usize,
    global_in_flight: usize,
    /// xorshift64 state for the busy-hint jitter.
    rng: u64,
}

/// The admission controller, driven from one thread: in the server, the
/// reactor offers submits, polls [`Admission::try_next`] and records
/// finished jobs with [`Admission::complete`]. Its state therefore takes
/// no lock; the controller is not `Sync`, and every call is a plain
/// borrow.
pub struct Admission<T> {
    state: RefCell<State<T>>,
    quantum: usize,
    global_capacity: usize,
    default_quota: TenantQuota,
}

impl<T> Admission<T> {
    /// A controller crediting `quantum` bytes per DRR visit, running at
    /// most `global_capacity` jobs at once, applying `default_quota` to
    /// tenants without an explicit one.
    pub fn new(quantum: usize, global_capacity: usize, default_quota: TenantQuota) -> Self {
        Self {
            state: RefCell::new(State {
                lanes: Vec::new(),
                cursor: 0,
                global_in_flight: 0,
                rng: 0x9E37_79B9_7F4A_7C15,
            }),
            quantum: quantum.max(1),
            global_capacity: global_capacity.max(1),
            default_quota,
        }
    }

    /// Pin `tenant` to a non-default quota. Applies to subsequent offers
    /// (idempotent on an existing lane).
    pub fn set_quota(&self, tenant: &str, quota: TenantQuota) {
        let mut state = self.state.borrow_mut();
        let default_quota = self.default_quota;
        lane_mut(&mut state, tenant, default_quota).quota = quota;
    }

    /// Offer an item costing `cost` bytes for `tenant`. Queues it or
    /// refuses with typed [`Busy`] backpressure when the tenant's byte
    /// quota is full.
    pub fn offer(&self, tenant: &str, cost: usize, item: T) -> Result<(), Busy> {
        let mut state = self.state.borrow_mut();
        let default_quota = self.default_quota;
        let lane = lane_mut(&mut state, tenant, default_quota);
        if lane.queued_bytes + cost > lane.quota.max_queued_bytes {
            // Backoff scaled by how deep the queue already is: a fuller
            // queue suggests a longer wait before room opens up. See
            // [`Busy`] for the jitter band.
            let base = (25 * (lane.queue.len() as u64 + 1)).min(2_000);
            let jitter = xorshift64(&mut state.rng) % (base / 2 + 1);
            return Err(Busy {
                retry_after_ms: base + jitter,
            });
        }
        lane.queue.push_back((cost, item));
        lane.queued_bytes += cost;
        Ok(())
    }

    /// The next dispatchable item — per-tenant and global gates pass and
    /// DRR picks it — or `None` when nothing is dispatchable right now.
    pub fn try_next(&self) -> Option<Dispatch<T>> {
        self.drr_pick(&mut self.state.borrow_mut())
    }

    /// Record a dispatched job as finished, freeing its per-tenant and
    /// global in-flight slots.
    pub fn complete(&self, tenant: &str) {
        let mut state = self.state.borrow_mut();
        if let Some(lane) = state.lanes.iter_mut().find(|l| l.tenant == tenant) {
            lane.in_flight = lane.in_flight.saturating_sub(1);
        }
        state.global_in_flight = state.global_in_flight.saturating_sub(1);
    }

    /// A tenant's counters (creating its lane if this is first contact,
    /// so `stats` on a fresh tenant reports its quota).
    pub fn stats(&self, tenant: &str) -> LaneStats {
        let mut state = self.state.borrow_mut();
        let global_in_flight = state.global_in_flight;
        let default_quota = self.default_quota;
        let lane = lane_mut(&mut state, tenant, default_quota);
        LaneStats {
            in_flight: lane.in_flight,
            queued: lane.queue.len(),
            queued_bytes: lane.queued_bytes,
            quota: lane.quota,
            global_in_flight,
            global_capacity: self.global_capacity,
        }
    }

    /// One DRR pass: rotate lanes from the cursor, crediting visited
    /// non-empty, non-gated lanes with the quantum, until an item's cost
    /// is covered or no lane can make progress. Repeated rotations within
    /// one call grow deficits, so a head item costing several quanta
    /// dispatches after several visits — fairness without deadlock.
    fn drr_pick(&self, state: &mut State<T>) -> Option<Dispatch<T>> {
        loop {
            if state.global_in_flight >= self.global_capacity || state.lanes.is_empty() {
                return None;
            }
            let n = state.lanes.len();
            let mut creditable = false;
            for step in 0..n {
                let idx = (state.cursor + step) % n;
                let lane = &mut state.lanes[idx];
                if lane.queue.is_empty() {
                    // Classic DRR: an idle lane's credit does not
                    // accumulate — fairness is over backlogged lanes.
                    lane.deficit = 0;
                    continue;
                }
                if lane.in_flight >= lane.quota.max_in_flight {
                    continue;
                }
                creditable = true;
                lane.deficit += self.quantum;
                let head_cost = lane.queue.front().expect("non-empty lane").0;
                if head_cost <= lane.deficit {
                    let (cost, item) = lane.queue.pop_front().expect("non-empty lane");
                    lane.deficit -= cost;
                    if lane.queue.is_empty() {
                        lane.deficit = 0;
                    }
                    lane.queued_bytes -= cost;
                    lane.in_flight += 1;
                    let tenant = lane.tenant.clone();
                    state.global_in_flight += 1;
                    state.cursor = (idx + 1) % n;
                    return Some(Dispatch { tenant, cost, item });
                }
            }
            if !creditable {
                return None;
            }
        }
    }
}

/// Marsaglia xorshift64: three shifts, period 2^64−1, no external
/// entropy — enough to decorrelate backoff hints.
fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// The tenant's lane, created on first contact (registration order is
/// the initial DRR visiting order).
fn lane_mut<'a, T>(
    state: &'a mut State<T>,
    tenant: &str,
    default_quota: TenantQuota,
) -> &'a mut Lane<T> {
    if let Some(idx) = state.lanes.iter().position(|l| l.tenant == tenant) {
        return &mut state.lanes[idx];
    }
    state.lanes.push(Lane {
        tenant: tenant.to_string(),
        quota: default_quota,
        queue: VecDeque::new(),
        queued_bytes: 0,
        in_flight: 0,
        deficit: 0,
    });
    state.lanes.last_mut().expect("just pushed")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(capacity: usize) -> Admission<u32> {
        Admission::new(
            100,
            capacity,
            TenantQuota {
                max_in_flight: 4,
                max_queued_bytes: 1_000,
            },
        )
    }

    #[test]
    fn byte_quota_overflow_is_typed_backpressure_not_a_drop() {
        let adm = controller(1);
        for i in 0..10 {
            adm.offer("a", 100, i).unwrap();
        }
        let busy = adm.offer("a", 100, 99).unwrap_err();
        assert!(busy.retry_after_ms > 0);
        // Nothing was lost: all ten admitted items drain in order.
        let mut drained = Vec::new();
        while let Some(d) = adm.try_next() {
            drained.push(d.item);
            adm.complete("a");
        }
        assert_eq!(drained, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn busy_hints_are_jittered_within_the_documented_band() {
        let adm = controller(1);
        // Fill the queue: 10 items of 100 bytes exhaust the 1000-byte
        // quota, so every further offer is refused at queue length 10.
        for i in 0..10 {
            adm.offer("a", 100, i).unwrap();
        }
        let base = 25 * (10 + 1);
        let hints: Vec<u64> = (0..64)
            .map(|_| adm.offer("a", 100, 99).unwrap_err().retry_after_ms)
            .collect();
        for hint in &hints {
            assert!(
                (base..=base + base / 2).contains(hint),
                "hint {hint} outside [{base}, {}]",
                base + base / 2
            );
        }
        // Jitter actually varies: identical refusals must not all carry
        // the same hint (that is the stampede the jitter prevents).
        let distinct: std::collections::HashSet<u64> = hints.iter().copied().collect();
        assert!(distinct.len() >= 2, "no jitter: all hints {hints:?}");
    }

    #[test]
    fn drr_alternates_between_backlogged_tenants() {
        let adm = controller(1);
        for i in 0..4 {
            adm.offer("hog", 100, i).unwrap();
        }
        adm.offer("small", 100, 100).unwrap();
        adm.offer("small", 100, 101).unwrap();
        let mut order = Vec::new();
        while let Some(d) = adm.try_next() {
            order.push(d.tenant.clone());
            adm.complete(&d.tenant);
        }
        // Equal costs, equal quantum: strict alternation while both are
        // backlogged, then the hog drains alone.
        assert_eq!(order, ["hog", "small", "hog", "small", "hog", "hog"]);
    }

    #[test]
    fn big_frames_buy_fewer_dispatches_not_more_bytes() {
        // `wide` submits 500-byte jobs, `narrow` 100-byte jobs, quantum
        // 100: DRR should give narrow ~5 dispatches per wide dispatch.
        let adm = controller(1);
        for i in 0..2 {
            adm.offer("wide", 500, i).unwrap();
        }
        for i in 0..10 {
            adm.offer("narrow", 100, 100 + i).unwrap();
        }
        let mut order = Vec::new();
        while let Some(d) = adm.try_next() {
            order.push((d.tenant.clone(), d.cost));
            adm.complete(&d.tenant);
        }
        assert_eq!(order.len(), 12);
        // In any prefix, narrow's dispatched bytes stay within one
        // quantum+cost of wide's — byte-fair, not dispatch-fair.
        let (mut wide_bytes, mut narrow_bytes) = (0i64, 0i64);
        for (tenant, cost) in &order[..7] {
            if tenant == "wide" {
                wide_bytes += *cost as i64;
            } else {
                narrow_bytes += *cost as i64;
            }
        }
        assert!(
            (wide_bytes - narrow_bytes).abs() <= 600,
            "wide {wide_bytes} vs narrow {narrow_bytes} in {order:?}"
        );
    }

    #[test]
    fn in_flight_quota_gates_dispatch_until_completion() {
        let adm: Admission<u32> = Admission::new(
            100,
            8,
            TenantQuota {
                max_in_flight: 1,
                max_queued_bytes: 1_000,
            },
        );
        adm.offer("a", 100, 0).unwrap();
        adm.offer("a", 100, 1).unwrap();
        assert_eq!(adm.try_next().unwrap().item, 0);
        // Quota 1: the second item must wait for completion.
        assert!(adm.try_next().is_none());
        adm.complete("a");
        assert_eq!(adm.try_next().unwrap().item, 1);
    }

    #[test]
    fn global_capacity_gates_across_tenants() {
        let adm = controller(2);
        adm.offer("a", 100, 0).unwrap();
        adm.offer("b", 100, 1).unwrap();
        adm.offer("c", 100, 2).unwrap();
        assert!(adm.try_next().is_some());
        assert!(adm.try_next().is_some());
        assert!(adm.try_next().is_none());
        adm.complete("a");
        assert!(adm.try_next().is_some());
    }
}
