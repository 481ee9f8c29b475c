//! The distributed hash table — the heart of HipMer (§7 of the paper:
//! "distributed hash tables lie in the heart of HipMer and the main
//! operations on them are irregular lookups").
//!
//! Keys are assigned to an **owner rank** by a placement function over the
//! key's 64-bit hash; each rank's partition is further split into
//! [`SUB_SHARDS_PER_RANK`] independently locked **sub-shards** selected by
//! the hash's high bits, so concurrent OS workers servicing different keys
//! of the same owner do not serialize on one lock (see DESIGN.md §12).
//! Any rank may read or write any key (one-sided semantics): the access is
//! executed directly against the owner's partition, and the *acting* rank's
//! [`CommStats`] records whether it was local, on-node, or off-node —
//! exactly the accounting Tables 1–2 of the paper report. Work that lands
//! in a partition on behalf of other ranks is additionally tallied as
//! `service_ops` against the owner, which is where heavy-hitter load
//! imbalance (Fig. 6) becomes visible.
//!
//! Every sub-shard carries a **mutation sequence number** bumped on each
//! write that touches it. Read-only consumers (the software caches, the
//! merAligner seed index) capture a [`version_stamp`] and validate it
//! unchanged after the read phase — the sequence-validated access that
//! makes the coherence contract of [`crate::lookup`] checkable instead of
//! merely documented.
//!
//! The `try_*` batch variants ([`try_merge_batch`], [`try_fetch_batch`])
//! are the non-blocking sends of the async completion layer
//! ([`crate::comp`]): they fail fast when a sub-shard lock is contended,
//! handing the batch back to the caller to park and retry at drain time
//! instead of stalling the sending worker.
//!
//! [`CommStats`]: crate::stats::CommStats
//! [`version_stamp`]: DistHashMap::version_stamp
//! [`try_merge_batch`]: DistHashMap::try_merge_batch
//! [`try_fetch_batch`]: DistHashMap::try_fetch_batch

use crate::metrics;
use crate::team::RankCtx;
use crate::topology::Topology;
use crate::trace;
use hipmer_dna::KmerBuildHasher;
use hipmer_sketch::MisraGries;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How keys map to owner ranks.
#[derive(Clone)]
pub enum Placement {
    /// Uniform: `owner = hash % ranks`. The default for every table.
    Cyclic,
    /// A custom mapping from key hash to owner rank — the hook the oracle
    /// partitioning of §3.2 plugs into.
    Custom(Arc<dyn Fn(u64) -> usize + Send + Sync>),
}

impl std::fmt::Debug for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Placement::Cyclic => write!(f, "Placement::Cyclic"),
            Placement::Custom(_) => write!(f, "Placement::Custom(..)"),
        }
    }
}

/// Independently locked sub-shards per owner rank (a power of two).
///
/// A phase runs at most `min(os_threads, ranks)` concurrent workers, so
/// `ranks × SUB_SHARDS_PER_RANK` total locks is always ≥ 8× the worker
/// count — the contention headroom the measured-parallelism engine needs.
/// The constant is deliberately **independent of the host's thread count**:
/// sub-shard membership feeds local iteration order, and a host-dependent
/// layout would make output-determinism arguments depend on the machine.
pub const SUB_SHARDS_PER_RANK: usize = 8;

/// Outcome of a non-blocking batch send: `Ok` carries the drained batch
/// buffer back for reuse ([`crate::BufferPool`]); `Err` carries the
/// entries that parked behind a contended sub-shard lock, to be retried
/// at drain time.
pub type TryBatchResult<K, V> = Result<Vec<(K, V)>, Vec<(K, V)>>;

/// One lockable slice of an owner rank's partition.
struct SubShard<K, V> {
    map: Mutex<HashMap<K, V, KmerBuildHasher>>,
    /// Mutation sequence number: bumped once per write batch / write op
    /// that touches this sub-shard. Never reset.
    seq: AtomicU64,
}

impl<K, V> Default for SubShard<K, V> {
    fn default() -> Self {
        SubShard {
            map: Mutex::new(HashMap::default()),
            seq: AtomicU64::new(0),
        }
    }
}

/// Process-global table id source (see [`DistHashMap::table_id`]).
static NEXT_TABLE_ID: AtomicU64 = AtomicU64::new(1);

/// An owner-selection override: hashes a key to a placement-routable
/// value (see [`DistHashMap::with_locality_hash`]).
pub type LocalityHash<K> = Arc<dyn Fn(&K) -> u64 + Send + Sync>;

/// A hash table partitioned across the virtual ranks of a [`Topology`].
pub struct DistHashMap<K, V> {
    topo: Topology,
    placement: Placement,
    /// Optional **locality hash** override for owner selection (see
    /// [`DistHashMap::with_locality_hash`]): when set, the owner rank is
    /// computed from this hash instead of [`key_hash`](Self::key_hash),
    /// while sub-shard selection stays on `key_hash` — so content-aware
    /// placements (minimizer bucketing) still spread one owner's keys over
    /// its sub-shards.
    locality: Option<LocalityHash<K>>,
    /// `ranks * SUB_SHARDS_PER_RANK` sub-shards; index
    /// `owner * SUB_SHARDS_PER_RANK + sub`.
    shards: Vec<SubShard<K, V>>,
    /// Remote-landed updates serviced by each shard's owner.
    service: Vec<AtomicU64>,
    hasher: KmerBuildHasher,
    /// Logical payload bytes per transferred entry (key + value estimate).
    entry_bytes: u64,
    /// Process-unique identity (see [`DistHashMap::table_id`]).
    table_id: u64,
    /// Misra–Gries summary over the key hashes of service operations, for
    /// naming the heavy hitters behind `service_ops` skew. `None` (free)
    /// unless [`trace::hotkey_capacity`] was nonzero at construction or
    /// tracking was requested via [`DistHashMap::with_hot_key_tracking`].
    hot_keys: Option<Mutex<MisraGries<u64>>>,
}

impl<K, V> DistHashMap<K, V>
where
    K: Hash + Eq + Send,
    V: Send,
{
    /// An empty table over `topo` with cyclic placement.
    pub fn new(topo: Topology) -> Self {
        Self::with_placement(topo, Placement::Cyclic)
    }

    /// An empty table with an explicit placement function.
    pub fn with_placement(topo: Topology, placement: Placement) -> Self {
        let ranks = topo.ranks();
        let hot_keys = match trace::hotkey_capacity() {
            0 => None,
            cap => Some(Mutex::new(MisraGries::new(cap))),
        };
        DistHashMap {
            topo,
            placement,
            locality: None,
            shards: (0..ranks * SUB_SHARDS_PER_RANK)
                .map(|_| SubShard::default())
                .collect(),
            service: (0..ranks).map(|_| AtomicU64::new(0)).collect(),
            hasher: KmerBuildHasher::default(),
            entry_bytes: (std::mem::size_of::<K>() + std::mem::size_of::<V>()) as u64,
            table_id: NEXT_TABLE_ID.fetch_add(1, Ordering::Relaxed),
            hot_keys,
        }
    }

    /// Enable hot-key tracking on this table with an explicit Misra–Gries
    /// capacity, regardless of the process-global setting.
    pub fn with_hot_key_tracking(mut self, capacity: usize) -> Self {
        self.hot_keys = Some(Mutex::new(MisraGries::new(capacity)));
        self
    }

    /// Route **owner selection** through `f` instead of the uniform
    /// [`key_hash`](Self::key_hash): the owner becomes
    /// `placement(f(key))` while sub-shard selection keeps using
    /// `key_hash`'s top bits. This is the hook content-aware partitioners
    /// (minimizer bucketing — [`crate::part`]) plug into: keys that share a
    /// locality hash land on one rank without piling into one sub-shard.
    ///
    /// Must be applied before any entry is inserted (a populated table
    /// re-homed under a different owner function would orphan its entries).
    pub fn with_locality_hash(mut self, f: LocalityHash<K>) -> Self {
        assert!(
            self.shards.iter().all(|s| s.map.lock().is_empty()),
            "locality hash must be set before the table is populated"
        );
        self.locality = Some(f);
        self
    }

    /// Whether owner selection uses a locality-hash override.
    #[inline]
    pub fn has_locality_hash(&self) -> bool {
        self.locality.is_some()
    }

    /// A process-unique identity for this table instance. Read-side
    /// consumers that snapshot table contents ([`crate::SoftwareCache`])
    /// bind to this id so a cache filled from one table can never serve
    /// entries to a different table — e.g. one with another partitioner,
    /// where even the owner ranks disagree.
    #[inline]
    pub fn table_id(&self) -> u64 {
        self.table_id
    }

    /// Observe one service operation on `key` in the hot-key summary.
    #[inline]
    fn track_hot_key(&self, key: &K) {
        if let Some(mg) = &self.hot_keys {
            mg.lock().observe(self.key_hash(key));
        }
    }

    /// The `top_k` heaviest key hashes seen by service operations, as
    /// `(key_hash, estimated_count)` sorted by descending count. Empty when
    /// tracking is off. Counts are Misra–Gries lower bounds.
    pub fn hot_keys(&self, top_k: usize) -> Vec<(u64, u64)> {
        match &self.hot_keys {
            None => Vec::new(),
            Some(mg) => {
                let mut all = mg.lock().heavy_hitters(1);
                all.truncate(top_k);
                all
            }
        }
    }

    /// The topology this table is partitioned over.
    #[inline]
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Logical payload bytes accounted per transferred entry (key + value
    /// size estimate). Batched reads and writes charge `n * entry_bytes`
    /// per shipped buffer so bandwidth totals match the fine-grained path.
    #[inline]
    pub fn entry_bytes(&self) -> u64 {
        self.entry_bytes
    }

    /// The 64-bit hash used for placement (stable across ranks and runs).
    #[inline]
    pub fn key_hash(&self, key: &K) -> u64 {
        self.hasher.hash_one(key)
    }

    /// The rank owning the key whose placement hash is `h`: `owner(key) ==
    /// owner_of_hash(h)` where `h` is the locality hash of `key` when one
    /// is installed, else its [`key_hash`](Self::key_hash). Streaming
    /// callers that already hold the placement hash (k-mer analysis rolls
    /// minimizer hashes along each read) use this to skip recomputing it.
    ///
    /// A `Placement::Custom` owner outside `0..ranks` is checked with a
    /// **release-mode** assert: the owner feeds `shard_index`, and an
    /// out-of-range value would silently index (or corrupt) an unrelated
    /// rank's sub-shard — the same rationale as `Topology::chunk`'s release
    /// bounds check.
    #[inline]
    pub fn owner_of_hash(&self, h: u64) -> usize {
        match &self.placement {
            Placement::Cyclic => (h % self.topo.ranks() as u64) as usize,
            Placement::Custom(f) => {
                let r = f(h);
                assert!(
                    r < self.topo.ranks(),
                    "custom placement returned owner {r} for a table of {} ranks",
                    self.topo.ranks()
                );
                r
            }
        }
    }

    /// The hash that drives owner selection: the locality hash when one is
    /// installed ([`with_locality_hash`](Self::with_locality_hash)),
    /// otherwise [`key_hash`](Self::key_hash).
    #[inline]
    fn placement_hash(&self, key: &K) -> u64 {
        match &self.locality {
            Some(f) => f(key),
            None => self.key_hash(key),
        }
    }

    /// The rank owning `key`.
    #[inline]
    pub fn owner(&self, key: &K) -> usize {
        self.owner_of_hash(self.placement_hash(key))
    }

    /// Sub-shard selector: the hash's top bits, independent of the
    /// placement's `hash % ranks` (or custom) owner choice.
    #[inline]
    fn sub_of_hash(h: u64) -> usize {
        (h >> 61) as usize & (SUB_SHARDS_PER_RANK - 1)
    }

    /// Global sub-shard index for a key of `owner` with hash `h`.
    #[inline]
    fn shard_index(owner: usize, h: u64) -> usize {
        owner * SUB_SHARDS_PER_RANK + Self::sub_of_hash(h)
    }

    /// Global sub-shard index holding `key`: owner from the placement
    /// hash, sub-shard from `key_hash`'s top bits.
    #[inline]
    fn shard_of_key(&self, key: &K) -> usize {
        Self::shard_index(self.owner(key), self.key_hash(key))
    }

    /// Record one one-sided access by `ctx.rank` against `owner`'s shard
    /// (subject to fault injection when the rank's team carries a
    /// [`crate::FaultPlan`]).
    #[inline]
    fn account(&self, ctx: &mut RankCtx, owner: usize) {
        ctx.comm(&self.topo, owner, self.entry_bytes);
    }

    /// Take a sub-shard lock. With the metrics registry enabled, a failed
    /// `try_lock` first counts one `pgas/dht/lock_contention` tick before
    /// blocking — the simulator's stand-in for the remote atomics HipMer's
    /// UPC tables contend on. Disabled cost: one relaxed atomic load on top
    /// of the lock itself.
    #[inline]
    fn lock_shard(
        &self,
        idx: usize,
    ) -> parking_lot::MutexGuard<'_, HashMap<K, V, KmerBuildHasher>> {
        let shard = &self.shards[idx];
        if metrics::is_enabled() {
            if let Some(guard) = shard.map.try_lock() {
                return guard;
            }
            metrics::counter_add("pgas/dht/lock_contention", 1);
        }
        shard.map.lock()
    }

    /// Bump a sub-shard's mutation sequence number (call once per write op
    /// or applied write batch).
    #[inline]
    fn bump_seq(&self, idx: usize) {
        self.shards[idx].seq.fetch_add(1, Ordering::Release);
    }

    /// Test-only: hold the lock of the sub-shard owning `key`, to simulate
    /// a contended owner from unit tests in sibling modules.
    #[cfg(test)]
    pub(crate) fn lock_shard_of_key_for_test(
        &self,
        key: &K,
    ) -> parking_lot::MutexGuard<'_, HashMap<K, V, KmerBuildHasher>> {
        self.shards[self.shard_of_key(key)].map.lock()
    }

    /// Sum of all sub-shard mutation sequence numbers — a cheap stamp that
    /// changes whenever any write lands anywhere in the table.
    ///
    /// The sequence-validated read protocol: capture the stamp before a
    /// read-only phase (cached seed lookups, contig-replica reads), and
    /// assert it unchanged afterwards. A changed stamp means some rank
    /// mutated the table while caches assumed immutability — the coherence
    /// contract of [`crate::SoftwareCache`] was violated.
    pub fn version_stamp(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.seq.load(Ordering::Acquire))
            .sum()
    }

    /// Total number of independently locked sub-shards
    /// (`ranks × SUB_SHARDS_PER_RANK`).
    pub fn sub_shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One-sided read. Returns a clone of the value.
    pub fn get(&self, ctx: &mut RankCtx, key: &K) -> Option<V>
    where
        V: Clone,
    {
        let owner = self.owner(key);
        self.account(ctx, owner);
        self.lock_shard(Self::shard_index(owner, self.key_hash(key)))
            .get(key)
            .cloned()
    }

    /// One-sided existence check.
    pub fn contains(&self, ctx: &mut RankCtx, key: &K) -> bool {
        let owner = self.owner(key);
        self.account(ctx, owner);
        self.lock_shard(Self::shard_index(owner, self.key_hash(key)))
            .contains_key(key)
    }

    /// One-sided write; returns the previous value if any. Counts a service
    /// op at the owner.
    pub fn insert(&self, ctx: &mut RankCtx, key: K, value: V) -> Option<V> {
        let owner = self.owner(&key);
        self.account(ctx, owner);
        self.service[owner].fetch_add(1, Ordering::Relaxed);
        self.track_hot_key(&key);
        let idx = Self::shard_index(owner, self.key_hash(&key));
        self.bump_seq(idx);
        self.lock_shard(idx).insert(key, value)
    }

    /// One-sided upsert: create the entry with `default` if absent, then
    /// apply `f`. This is the primitive k-mer counting and link generation
    /// are built on.
    pub fn update<D, F>(&self, ctx: &mut RankCtx, key: K, default: D, f: F)
    where
        D: FnOnce() -> V,
        F: FnOnce(&mut V),
    {
        let owner = self.owner(&key);
        self.account(ctx, owner);
        self.service[owner].fetch_add(1, Ordering::Relaxed);
        self.track_hot_key(&key);
        let idx = Self::shard_index(owner, self.key_hash(&key));
        self.bump_seq(idx);
        let mut shard = self.lock_shard(idx);
        f(shard.entry(key).or_insert_with(default));
    }

    /// One-sided read-modify-write with full access to the slot (present or
    /// not). Used by the traversal's claim protocol.
    pub fn with_mut<T, F>(&self, ctx: &mut RankCtx, key: &K, f: F) -> T
    where
        F: FnOnce(Option<&mut V>) -> T,
    {
        let owner = self.owner(key);
        self.account(ctx, owner);
        let idx = Self::shard_index(owner, self.key_hash(key));
        self.bump_seq(idx);
        let mut shard = self.lock_shard(idx);
        f(shard.get_mut(key))
    }

    /// One-sided removal.
    pub fn remove(&self, ctx: &mut RankCtx, key: &K) -> Option<V> {
        let owner = self.owner(key);
        self.account(ctx, owner);
        let idx = Self::shard_index(owner, self.key_hash(key));
        self.bump_seq(idx);
        self.lock_shard(idx).remove(key)
    }

    /// Answer a batch of lookups that arrived as **one** multi-get message
    /// (see [`crate::LookupBatch`] / [`multi_get`](Self::multi_get)). The
    /// caller has already accounted the message; like
    /// [`get`](Self::get) — and unlike [`merge_batch`](Self::merge_batch) —
    /// this tallies **no** service ops and does not touch the hot-key
    /// summary, so converting a loop of `get`s into one `fetch_batch` leaves
    /// every counter except the message count unchanged.
    ///
    /// Every key must be owned by `dest` (checked in debug builds). Results
    /// come back in key order; each sub-shard lock is taken once for the
    /// whole batch — the read-side analogue of the aggregated-store lock
    /// saving documented in [`crate::agg`].
    pub fn fetch_batch(&self, dest: usize, keys: &[&K]) -> Vec<Option<V>>
    where
        V: Clone,
    {
        let mut out: Vec<Option<V>> = Vec::with_capacity(keys.len());
        out.resize_with(keys.len(), || None);
        let subs: Vec<u8> = keys
            .iter()
            .map(|k| {
                debug_assert_eq!(self.owner(k), dest, "fetch_batch key not owned by dest");
                Self::sub_of_hash(self.key_hash(k)) as u8
            })
            .collect();
        for sub in 0..SUB_SHARDS_PER_RANK {
            if !subs.iter().any(|&s| s as usize == sub) {
                continue;
            }
            let shard = self.lock_shard(dest * SUB_SHARDS_PER_RANK + sub);
            for (i, k) in keys.iter().enumerate() {
                if subs[i] as usize == sub {
                    out[i] = shard.get(*k).cloned();
                }
            }
        }
        out
    }

    /// Non-blocking [`fetch_batch`](Self::fetch_batch): resolve the batch
    /// only if **every** needed sub-shard lock is immediately available
    /// (acquired in ascending index order — the module's lock-ordering
    /// rule). Returns `None` without blocking when any is contended; the
    /// caller parks the request batch and retries at drain time
    /// ([`crate::LookupBatch::drain`]). Each refusal counts one
    /// `pgas/dht/lock_contention` tick (metrics enabled).
    pub fn try_fetch_batch(&self, dest: usize, keys: &[&K]) -> Option<Vec<Option<V>>>
    where
        V: Clone,
    {
        let subs: Vec<u8> = keys
            .iter()
            .map(|k| {
                debug_assert_eq!(self.owner(k), dest, "try_fetch_batch key not owned by dest");
                Self::sub_of_hash(self.key_hash(k)) as u8
            })
            .collect();
        let mut guards: Vec<Option<parking_lot::MutexGuard<'_, _>>> = Vec::new();
        guards.resize_with(SUB_SHARDS_PER_RANK, || None);
        for (sub, slot) in guards.iter_mut().enumerate() {
            if !subs.iter().any(|&s| s as usize == sub) {
                continue;
            }
            match self.shards[dest * SUB_SHARDS_PER_RANK + sub].map.try_lock() {
                Some(guard) => *slot = Some(guard),
                None => {
                    metrics::counter_add("pgas/dht/lock_contention", 1);
                    return None; // guards drop, releasing what was taken
                }
            }
        }
        let mut out: Vec<Option<V>> = Vec::with_capacity(keys.len());
        for (k, &sub) in keys.iter().zip(&subs) {
            let shard = guards[sub as usize].as_ref().expect("locked above");
            out.push(shard.get(*k).cloned());
        }
        Some(out)
    }

    /// Batched one-sided read: group `keys` by owner, ship **one** message
    /// per distinct owner (bytes accounted in full — `group_len *
    /// entry_bytes` — mirroring [`crate::Outbox`] semantics), and return the
    /// values in input-key order.
    ///
    /// Results are byte-identical to `keys.iter().map(|k| self.get(ctx,
    /// k))`; only the accounting differs: per-message latency is divided by
    /// the group size, bandwidth is not saved, and
    /// [`CommStats::lookup_batches`](crate::CommStats::lookup_batches) is
    /// incremented once per shipped group. For streaming call sites that
    /// cannot collect keys up front, use [`crate::LookupBatch`].
    pub fn multi_get(&self, ctx: &mut RankCtx, keys: &[K]) -> Vec<Option<V>>
    where
        V: Clone,
    {
        let ranks = self.topo.ranks();
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); ranks];
        for (i, k) in keys.iter().enumerate() {
            groups[self.owner(k)].push(i);
        }
        let mut out: Vec<Option<V>> = Vec::with_capacity(keys.len());
        out.resize_with(keys.len(), || None);
        for (dest, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            ctx.comm(&self.topo, dest, group.len() as u64 * self.entry_bytes);
            ctx.stats.lookup_batches += 1;
            let batch_keys: Vec<&K> = group.iter().map(|&i| &keys[i]).collect();
            for (i, v) in group.into_iter().zip(self.fetch_batch(dest, &batch_keys)) {
                out[i] = v;
            }
        }
        out
    }

    /// Partition a batch into per-sub-shard buckets, preserving the
    /// relative order of entries within each bucket (equal keys always land
    /// in the same bucket, so same-key merge order is deterministic).
    /// Returns the emptied carrier alongside the buckets for buffer reuse.
    #[allow(clippy::type_complexity)]
    fn bucket_entries(
        &self,
        entries: Vec<(K, V)>,
    ) -> (Vec<(K, V)>, [Vec<(K, V)>; SUB_SHARDS_PER_RANK]) {
        let mut buckets: [Vec<(K, V)>; SUB_SHARDS_PER_RANK] = std::array::from_fn(|_| Vec::new());
        let mut carrier = entries;
        for (k, v) in carrier.drain(..) {
            buckets[Self::sub_of_hash(self.key_hash(&k))].push((k, v));
        }
        (carrier, buckets)
    }

    /// Apply one sub-shard bucket under its lock, tallying service ops and
    /// hot keys for the applied entries.
    fn apply_bucket<M>(
        &self,
        dest: usize,
        sub: usize,
        bucket: Vec<(K, V)>,
        merge: &M,
        existing_only: bool,
    ) where
        M: Fn(&mut V, V),
    {
        self.service[dest].fetch_add(bucket.len() as u64, Ordering::Relaxed);
        if self.hot_keys.is_some() {
            for (k, _) in &bucket {
                self.track_hot_key(k);
            }
        }
        let idx = dest * SUB_SHARDS_PER_RANK + sub;
        self.bump_seq(idx);
        let mut shard = self.lock_shard(idx);
        for (k, v) in bucket {
            if existing_only {
                if let Some(slot) = shard.get_mut(&k) {
                    merge(slot, v);
                }
            } else {
                match shard.entry(k) {
                    std::collections::hash_map::Entry::Occupied(mut e) => merge(e.get_mut(), v),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(v);
                    }
                }
            }
        }
    }

    /// Blocking batch application shared by [`merge_batch`](Self::merge_batch)
    /// and [`merge_batch_existing`](Self::merge_batch_existing); returns the
    /// emptied carrier so aggregators can recycle it through their
    /// [`crate::arena::BufferPool`].
    pub(crate) fn apply_batch<M>(
        &self,
        dest: usize,
        entries: Vec<(K, V)>,
        merge: &M,
        existing_only: bool,
    ) -> Vec<(K, V)>
    where
        M: Fn(&mut V, V),
    {
        let (carrier, buckets) = self.bucket_entries(entries);
        for (sub, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            self.apply_bucket(dest, sub, bucket, merge, existing_only);
        }
        carrier
    }

    /// Non-blocking batch application shared by
    /// [`try_merge_batch`](Self::try_merge_batch) and
    /// [`try_merge_batch_existing`](Self::try_merge_batch_existing).
    pub(crate) fn try_apply_batch<M>(
        &self,
        dest: usize,
        entries: Vec<(K, V)>,
        merge: &M,
        existing_only: bool,
    ) -> TryBatchResult<K, V>
    where
        M: Fn(&mut V, V),
    {
        let (mut carrier, buckets) = self.bucket_entries(entries);
        let mut contended = false;
        for (sub, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            // Peek without blocking; the real lock (with its contention
            // accounting) is taken inside apply_bucket and cannot block
            // because sends of a phase never hold sub-shard locks across
            // calls (the module's lock-ordering rule) — but another worker
            // may still slip in, which is fine: apply_bucket then waits on
            // a lock known to be briefly held, which is not the stall the
            // try path exists to avoid. Keep it truly non-blocking instead:
            // a failed try_lock parks the bucket.
            match self.shards[dest * SUB_SHARDS_PER_RANK + sub].map.try_lock() {
                Some(guard) => {
                    drop(guard);
                    self.apply_bucket(dest, sub, bucket, merge, existing_only);
                }
                None => {
                    metrics::counter_add("pgas/dht/lock_contention", 1);
                    contended = true;
                    carrier.extend(bucket);
                }
            }
        }
        if contended {
            Err(carrier)
        } else {
            Ok(carrier)
        }
    }

    /// Apply a batch of merged updates that arrived as **one** aggregated
    /// message (see [`crate::AggregatingStores`]). The caller has already
    /// accounted the message; this only tallies the owner's service work.
    pub fn merge_batch<M>(&self, dest: usize, entries: Vec<(K, V)>, merge: M)
    where
        M: Fn(&mut V, V),
    {
        let _ = self.apply_batch(dest, entries, &merge, false);
    }

    /// Non-blocking [`merge_batch`](Self::merge_batch): entries whose
    /// sub-shard lock is free are applied immediately; entries behind a
    /// contended lock are handed back as `Err(leftovers)` for the caller to
    /// park and retry at drain time ([`crate::AggregatingStores::drain`]).
    /// `Ok` carries the emptied batch buffer for reuse. Same-key entries
    /// keep their relative order (they share a sub-shard), so deferred
    /// application commutes with the in-order blocking path for any
    /// per-key merge.
    pub fn try_merge_batch<M>(
        &self,
        dest: usize,
        entries: Vec<(K, V)>,
        merge: M,
    ) -> TryBatchResult<K, V>
    where
        M: Fn(&mut V, V),
    {
        self.try_apply_batch(dest, entries, &merge, false)
    }

    /// As [`merge_batch`](Self::merge_batch), but entries whose key is not
    /// already present are **dropped** instead of inserted. This is the
    /// second-pass counting semantics of §3.1: only k-mers the Bloom filter
    /// admitted (seen at least twice) have table entries; votes for
    /// anything else are discarded.
    pub fn merge_batch_existing<M>(&self, dest: usize, entries: Vec<(K, V)>, merge: M)
    where
        M: Fn(&mut V, V),
    {
        let _ = self.apply_batch(dest, entries, &merge, true);
    }

    /// Non-blocking [`merge_batch_existing`](Self::merge_batch_existing);
    /// see [`try_merge_batch`](Self::try_merge_batch) for the contract.
    pub fn try_merge_batch_existing<M>(
        &self,
        dest: usize,
        entries: Vec<(K, V)>,
        merge: M,
    ) -> TryBatchResult<K, V>
    where
        M: Fn(&mut V, V),
    {
        self.try_apply_batch(dest, entries, &merge, true)
    }

    /// Total entries across all shards (collective metadata; not counted).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.map.lock().len()).sum()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.map.lock().is_empty())
    }

    /// Iterate the acting rank's own partition (all its sub-shards, in
    /// sub-shard order), counting one local op per entry (each rank
    /// post-processing its local buckets is a standard phase in the paper:
    /// link assessment, depth summation, ...).
    pub fn fold_local<T, F>(&self, ctx: &mut RankCtx, init: T, mut f: F) -> T
    where
        F: FnMut(T, &K, &V) -> T,
    {
        let mut acc = init;
        for sub in 0..SUB_SHARDS_PER_RANK {
            let shard = self.shards[ctx.rank * SUB_SHARDS_PER_RANK + sub].map.lock();
            ctx.stats.local_ops += shard.len() as u64;
            for (k, v) in shard.iter() {
                acc = f(acc, k, v);
            }
        }
        acc
    }

    /// Snapshot the acting rank's partition as (key, value) pairs, charging
    /// only compute (a linear scan of local memory, not hash lookups).
    /// Used for seed scans where the per-entry cost is a flag check, not a
    /// table operation.
    pub fn snapshot_local(&self, ctx: &mut RankCtx) -> Vec<(K, V)>
    where
        K: Clone,
        V: Clone,
    {
        let mut out = Vec::new();
        for sub in 0..SUB_SHARDS_PER_RANK {
            let shard = self.shards[ctx.rank * SUB_SHARDS_PER_RANK + sub].map.lock();
            ctx.stats.compute(shard.len() as u64);
            out.extend(shard.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        out
    }

    /// Drain the acting rank's partition into a vector (counts local ops).
    pub fn drain_local(&self, ctx: &mut RankCtx) -> Vec<(K, V)> {
        let mut out = Vec::new();
        for sub in 0..SUB_SHARDS_PER_RANK {
            let idx = ctx.rank * SUB_SHARDS_PER_RANK + sub;
            self.bump_seq(idx);
            let mut shard = self.shards[idx].map.lock();
            ctx.stats.local_ops += shard.len() as u64;
            out.extend(shard.drain());
        }
        out
    }

    /// Mutate every entry of the acting rank's partition in place.
    pub fn for_each_local_mut<F>(&self, ctx: &mut RankCtx, mut f: F)
    where
        F: FnMut(&K, &mut V),
    {
        for sub in 0..SUB_SHARDS_PER_RANK {
            let idx = ctx.rank * SUB_SHARDS_PER_RANK + sub;
            self.bump_seq(idx);
            let mut shard = self.shards[idx].map.lock();
            ctx.stats.local_ops += shard.len() as u64;
            for (k, v) in shard.iter_mut() {
                f(k, v);
            }
        }
    }

    /// Retain only entries satisfying the predicate in the acting rank's
    /// partition (used to discard below-threshold k-mers after counting).
    pub fn retain_local<F>(&self, ctx: &mut RankCtx, mut f: F)
    where
        F: FnMut(&K, &mut V) -> bool,
    {
        for sub in 0..SUB_SHARDS_PER_RANK {
            let idx = ctx.rank * SUB_SHARDS_PER_RANK + sub;
            self.bump_seq(idx);
            let mut shard = self.shards[idx].map.lock();
            ctx.stats.local_ops += shard.len() as u64;
            shard.retain(|k, v| f(k, v));
        }
    }

    /// Move each shard owner's accumulated service work into the per-rank
    /// stats vector collected from a finished phase. Resets the counters.
    ///
    /// With the metrics registry enabled, this end-of-phase collective also
    /// publishes table occupancy: the `pgas/dht/entries` gauge keeps the
    /// high-water total entry count across all tables, and
    /// `pgas/dht/load_factor_max` the worst max-rank/mean-rank ratio
    /// observed (1.0 = perfectly balanced placement; the paper's heavy
    /// hitters show up here before they show up in `service_ops` skew).
    pub fn drain_service_into(&self, stats: &mut [crate::CommStats]) {
        assert_eq!(stats.len(), self.topo.ranks());
        for (rank, c) in self.service.iter().enumerate() {
            stats[rank].service_ops += c.swap(0, Ordering::Relaxed);
        }
        if metrics::is_enabled() {
            let sizes = self.shard_sizes();
            let total: usize = sizes.iter().sum();
            metrics::gauge_max("pgas/dht/entries", total as f64);
            if total > 0 {
                let max = sizes.iter().copied().max().unwrap_or(0) as f64;
                let mean = total as f64 / sizes.len().max(1) as f64;
                metrics::gauge_max("pgas/dht/load_factor_max", max / mean);
            }
        }
    }

    /// Clone every entry across all shards, **without** touching any
    /// counters — a collective metadata operation used by the checkpoint
    /// writer, which prices the traffic as checkpoint I/O instead.
    pub fn snapshot_entries(&self) -> Vec<(K, V)>
    where
        K: Clone,
        V: Clone,
    {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.map.lock();
            out.extend(shard.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        out
    }

    /// Bulk-load entries into their owner shards, **without** touching any
    /// counters or service tallies — the checkpoint-restore path, whose I/O
    /// cost is accounted by the resume machinery as a `checkpoint/load-*`
    /// phase instead of as table traffic. Sequence numbers still advance
    /// (a restore is a write).
    pub fn preload(&self, entries: impl IntoIterator<Item = (K, V)>) {
        for (k, v) in entries {
            let idx = self.shard_of_key(&k);
            self.bump_seq(idx);
            self.shards[idx].map.lock().insert(k, v);
        }
    }

    /// Consume the table, yielding every entry (for tests / final output).
    pub fn into_entries(self) -> Vec<(K, V)> {
        let mut out = Vec::new();
        for shard in self.shards {
            out.extend(shard.map.into_inner());
        }
        out
    }

    /// Snapshot of the per-rank partition sizes (load-balance diagnostics);
    /// each rank's size sums its sub-shards.
    pub fn shard_sizes(&self) -> Vec<usize> {
        (0..self.topo.ranks())
            .map(|rank| {
                (0..SUB_SHARDS_PER_RANK)
                    .map(|sub| {
                        self.shards[rank * SUB_SHARDS_PER_RANK + sub]
                            .map
                            .lock()
                            .len()
                    })
                    .sum()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(rank: usize, topo: Topology) -> RankCtx {
        RankCtx::new(rank, topo)
    }

    #[test]
    fn insert_get_roundtrip() {
        let topo = Topology::new(4, 2);
        let dht: DistHashMap<u64, String> = DistHashMap::new(topo);
        let mut c = ctx(0, topo);
        assert_eq!(dht.insert(&mut c, 42, "hello".into()), None);
        assert_eq!(dht.get(&mut c, &42), Some("hello".into()));
        assert_eq!(dht.get(&mut c, &43), None);
        assert!(dht.contains(&mut c, &42));
        assert_eq!(dht.len(), 1);
    }

    #[test]
    fn owner_is_stable_and_in_range() {
        let topo = Topology::new(7, 3);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        for key in 0..1000u64 {
            let o = dht.owner(&key);
            assert!(o < 7);
            assert_eq!(o, dht.owner(&key));
        }
    }

    #[test]
    fn sub_shard_count_gives_contention_headroom() {
        // A phase runs at most min(os_threads, ranks) workers, so the
        // sub-shard count is always >= 8x the worker count.
        let topo = Topology::new(16, 8);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        assert_eq!(dht.sub_shard_count(), 16 * SUB_SHARDS_PER_RANK);
        assert!(dht.sub_shard_count() >= 8 * 16);
        // Keys of one owner spread over that owner's sub-shards.
        let mut c = ctx(0, topo);
        for k in 0..4096u64 {
            dht.insert(&mut c, k, 0);
        }
        let rank0_keys: Vec<u64> = (0..4096).filter(|k| dht.owner(k) == 0).collect();
        let mut subs_used = std::collections::HashSet::new();
        for k in &rank0_keys {
            subs_used.insert(dht.shard_of_key(k));
        }
        assert!(
            subs_used.len() > SUB_SHARDS_PER_RANK / 2,
            "keys should spread over sub-shards, used {}",
            subs_used.len()
        );
    }

    #[test]
    fn comm_accounting_matches_owner_locality() {
        let topo = Topology::new(48, 24);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut c = ctx(0, topo);
        // Find keys owned locally / on node 0 / off node.
        let local_key = (0..).find(|k| dht.owner(k) == 0).unwrap();
        let onnode_key = (0..).find(|k| (1..24).contains(&dht.owner(k))).unwrap();
        let offnode_key = (0..).find(|k| dht.owner(k) >= 24).unwrap();
        dht.insert(&mut c, local_key, 1);
        dht.insert(&mut c, onnode_key, 2);
        dht.insert(&mut c, offnode_key, 3);
        assert_eq!(c.stats.local_ops, 1);
        assert_eq!(c.stats.onnode_msgs, 1);
        assert_eq!(c.stats.offnode_msgs, 1);
    }

    #[test]
    fn update_upserts() {
        let topo = Topology::new(2, 2);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut c = ctx(1, topo);
        dht.update(&mut c, 5, || 0, |v| *v += 10);
        dht.update(&mut c, 5, || 0, |v| *v += 10);
        assert_eq!(dht.get(&mut c, &5), Some(20));
    }

    #[test]
    fn service_ops_attributed_to_owner() {
        let topo = Topology::new(4, 2);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut c = ctx(0, topo);
        // Insert many keys; service ops land at owners, not at rank 0.
        for k in 0..100 {
            dht.insert(&mut c, k, 0);
        }
        let mut stats = vec![crate::CommStats::new(); 4];
        dht.drain_service_into(&mut stats);
        let total: u64 = stats.iter().map(|s| s.service_ops).sum();
        assert_eq!(total, 100);
        // And the counters reset.
        let mut again = vec![crate::CommStats::new(); 4];
        dht.drain_service_into(&mut again);
        assert!(again.iter().all(|s| s.service_ops == 0));
    }

    #[test]
    fn fold_and_drain_local_only_touch_own_shard() {
        let topo = Topology::new(4, 2);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut c0 = ctx(0, topo);
        for k in 0..200 {
            dht.insert(&mut c0, k, 1);
        }
        let mut seen = 0usize;
        for rank in 0..4 {
            let mut c = ctx(rank, topo);
            seen += dht.fold_local(&mut c, 0usize, |acc, _, _| acc + 1);
        }
        assert_eq!(seen, 200);

        let mut c2 = ctx(2, topo);
        let drained = dht.drain_local(&mut c2);
        assert!(drained.iter().all(|(k, _)| dht.owner(k) == 2));
        assert_eq!(dht.len(), 200 - drained.len());
    }

    #[test]
    fn retain_local_filters() {
        let topo = Topology::new(2, 2);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut c = ctx(0, topo);
        for k in 0..100 {
            dht.insert(&mut c, k, (k % 10) as u32);
        }
        for rank in 0..2 {
            let mut cr = ctx(rank, topo);
            dht.retain_local(&mut cr, |_, v| *v >= 5);
        }
        assert_eq!(dht.len(), 50);
    }

    #[test]
    fn custom_placement_is_respected() {
        let topo = Topology::new(4, 2);
        // Everything on rank 3.
        let placement = Placement::Custom(Arc::new(|_h| 3));
        let dht: DistHashMap<u64, u32> = DistHashMap::with_placement(topo, placement);
        let mut c = ctx(0, topo);
        for k in 0..50 {
            dht.insert(&mut c, k, 0);
        }
        assert_eq!(dht.shard_sizes(), vec![0, 0, 0, 50]);
    }

    #[test]
    fn out_of_range_custom_owner_is_rejected_in_release_builds_too() {
        // A bogus owner would index an unrelated rank's sub-shard; the
        // check must be a real assert, not a debug_assert (this test runs
        // under `--release` in the bench/CI configurations as well).
        let topo = Topology::new(4, 2);
        let placement = Placement::Custom(Arc::new(|_h| 7)); // >= ranks
        let dht: DistHashMap<u64, u32> = DistHashMap::with_placement(topo, placement);
        let mut c = ctx(0, topo);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dht.insert(&mut c, 1, 1);
        }))
        .expect_err("out-of-range owner must panic even with debug_asserts off");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
        assert!(
            msg.contains("custom placement returned owner 7"),
            "unexpected panic message: {msg}"
        );
    }

    #[test]
    fn locality_hash_overrides_owner_but_not_sub_shard_spread() {
        let topo = Topology::new(4, 2);
        // All keys share one locality hash => one owner; sub-shard
        // selection must still ride the per-key hash and spread.
        let dht: DistHashMap<u64, u32> =
            DistHashMap::new(topo).with_locality_hash(Arc::new(|_k: &u64| 3));
        assert!(dht.has_locality_hash());
        let mut c = ctx(0, topo);
        for k in 0..256u64 {
            dht.insert(&mut c, k, 0);
        }
        assert_eq!(dht.shard_sizes(), vec![0, 0, 0, 256]);
        let subs: std::collections::HashSet<usize> =
            (0..256u64).map(|k| dht.shard_of_key(&k)).collect();
        assert!(
            subs.len() > SUB_SHARDS_PER_RANK / 2,
            "co-owned keys must spread over the owner's sub-shards, used {}",
            subs.len()
        );
        // Reads, read-modify-writes, batched reads and removal agree with
        // the overridden owner (the locality hash maps every key to 3, and
        // 3 % 4 ranks = 3).
        assert_eq!(dht.owner(&7), dht.owner_of_hash(3));
        assert_eq!(dht.get(&mut c, &7), Some(0));
        assert!(dht.contains(&mut c, &7));
        assert_eq!(dht.with_mut(&mut c, &7, |v| v.map(|v| *v += 1)), Some(()));
        assert_eq!(
            dht.multi_get(&mut c, &[1, 2, 7]),
            vec![Some(0), Some(0), Some(1)]
        );
        assert_eq!(dht.remove(&mut c, &7), Some(1));
        assert!(!dht.contains(&mut c, &7));
    }

    #[test]
    fn locality_hash_keeps_grouped_keys_on_one_owner() {
        // Keys bucketed by key/8: every group of 8 consecutive keys shares
        // an owner — the minimizer-run shape — and preload/drain respect it.
        let topo = Topology::new(8, 4);
        let build = || -> DistHashMap<u64, u32> {
            DistHashMap::new(topo).with_locality_hash(Arc::new(|k: &u64| k / 8))
        };
        let dht = build();
        let mut c = ctx(0, topo);
        for k in 0..640u64 {
            dht.insert(&mut c, k, k as u32);
        }
        for group in 0..80u64 {
            let owners: std::collections::HashSet<usize> =
                (group * 8..group * 8 + 8).map(|k| dht.owner(&k)).collect();
            assert_eq!(owners.len(), 1, "group {group} split across owners");
        }
        // preload places by the same overridden owner function.
        let restored = build();
        restored.preload(dht.snapshot_entries());
        assert_eq!(restored.shard_sizes(), dht.shard_sizes());
        // drain_local returns exactly the rank's own (locality) partition.
        let mut c2 = ctx(2, topo);
        let drained = restored.drain_local(&mut c2);
        assert!(drained.iter().all(|(k, _)| restored.owner(k) == 2));
    }

    #[test]
    #[should_panic(expected = "before the table is populated")]
    fn locality_hash_rejected_on_populated_table() {
        let topo = Topology::new(2, 2);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut c = ctx(0, topo);
        dht.insert(&mut c, 1, 1);
        let _ = dht.with_locality_hash(Arc::new(|_k: &u64| 0));
    }

    #[test]
    fn table_ids_are_unique() {
        let topo = Topology::new(2, 2);
        let a: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let b: DistHashMap<u64, u32> = DistHashMap::new(topo);
        assert_ne!(a.table_id(), b.table_id());
        assert_ne!(a.table_id(), 0);
    }

    #[test]
    fn merge_batch_applies_and_counts_service() {
        let topo = Topology::new(2, 2);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut c = ctx(0, topo);
        dht.insert(&mut c, 1000, 5);
        let dest = dht.owner(&1000);
        dht.merge_batch(dest, vec![(1000, 7)], |a, b| *a += b);
        assert_eq!(dht.get(&mut c, &1000), Some(12));
        let mut stats = vec![crate::CommStats::new(); 2];
        dht.drain_service_into(&mut stats);
        assert_eq!(stats[dest].service_ops, 2); // insert + merged entry
    }

    #[test]
    fn try_merge_batch_applies_when_uncontended() {
        let topo = Topology::new(4, 2);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let dest = dht.owner(&7);
        let entries: Vec<(u64, u32)> = (0..64)
            .filter(|k| dht.owner(k) == dest)
            .map(|k| (k, 1))
            .collect();
        let n = entries.len();
        let carrier = dht
            .try_merge_batch(dest, entries, |a, b| *a += b)
            .expect("uncontended try_merge_batch must apply");
        assert!(carrier.is_empty(), "carrier comes back drained for reuse");
        assert_eq!(dht.len(), n);
        // Service ops match the blocking path.
        let mut stats = vec![crate::CommStats::new(); 4];
        dht.drain_service_into(&mut stats);
        assert_eq!(stats[dest].service_ops, n as u64);
    }

    #[test]
    fn try_merge_batch_parks_contended_entries() {
        let topo = Topology::new(2, 2);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let dest = dht.owner(&3);
        let entries: Vec<(u64, u32)> = (0..200)
            .filter(|k| dht.owner(k) == dest)
            .map(|k| (k, 1))
            .collect();
        let total = entries.len();
        // Hold one sub-shard's lock: entries bound for it must come back.
        let blocked_idx = dht.shard_of_key(&3);
        let held = dht.shards[blocked_idx].map.lock();
        let leftovers = dht
            .try_merge_batch(dest, entries, |a, b| *a += b)
            .expect_err("contended sub-shard must defer its bucket");
        drop(held);
        assert!(!leftovers.is_empty());
        assert!(
            leftovers.len() < total,
            "only the contended bucket defers, not the whole batch"
        );
        assert!(leftovers
            .iter()
            .all(|(k, _)| dht.shard_of_key(k) == blocked_idx));
        // Draining the leftovers through the blocking path converges to the
        // same table state and the same service total.
        let applied = total - leftovers.len();
        dht.merge_batch(dest, leftovers, |a, b| *a += b);
        assert_eq!(dht.len(), total);
        let mut stats = vec![crate::CommStats::new(); 2];
        dht.drain_service_into(&mut stats);
        assert_eq!(stats[dest].service_ops, total as u64);
        let _ = applied;
    }

    #[test]
    fn try_fetch_batch_is_all_or_nothing() {
        let topo = Topology::new(2, 2);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut c = ctx(0, topo);
        let keys: Vec<u64> = (0..100).filter(|k| dht.owner(k) == 0).collect();
        for &k in &keys {
            dht.insert(&mut c, k, k as u32 * 2);
        }
        let refs: Vec<&u64> = keys.iter().collect();
        let vals = dht.try_fetch_batch(0, &refs).expect("uncontended");
        assert_eq!(vals.len(), keys.len());
        for (k, v) in keys.iter().zip(&vals) {
            assert_eq!(*v, Some(*k as u32 * 2));
        }
        // Holding any needed sub-shard lock refuses the whole batch.
        let held = dht.shards[dht.shard_of_key(&keys[0])].map.lock();
        assert!(dht.try_fetch_batch(0, &refs).is_none());
        drop(held);
        assert!(dht.try_fetch_batch(0, &refs).is_some());
    }

    #[test]
    fn version_stamp_advances_on_writes_only() {
        let topo = Topology::new(2, 2);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut c = ctx(0, topo);
        let v0 = dht.version_stamp();
        dht.insert(&mut c, 1, 1);
        let v1 = dht.version_stamp();
        assert!(v1 > v0, "insert must advance the stamp");
        // Reads leave the stamp untouched: the sequence-validated read
        // protocol for caches.
        let _ = dht.get(&mut c, &1);
        let _ = dht.contains(&mut c, &1);
        let _ = dht.multi_get(&mut c, &[1, 2, 3]);
        let _ = dht.snapshot_entries();
        assert_eq!(dht.version_stamp(), v1);
        dht.update(&mut c, 1, || 0, |v| *v += 1);
        assert!(dht.version_stamp() > v1, "update must advance the stamp");
    }

    #[test]
    fn with_mut_sees_missing_and_present() {
        let topo = Topology::new(2, 2);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut c = ctx(0, topo);
        assert!(dht.with_mut(&mut c, &9, |slot| slot.is_none()));
        dht.insert(&mut c, 9, 1);
        dht.with_mut(&mut c, &9, |slot| *slot.unwrap() = 99);
        assert_eq!(dht.get(&mut c, &9), Some(99));
    }

    #[test]
    fn hot_key_tracking_names_the_heavy_hitter() {
        let topo = Topology::new(4, 2);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo).with_hot_key_tracking(16);
        let mut c = ctx(0, topo);
        // One ultra-frequent key among a uniform background.
        for i in 0..500u64 {
            dht.update(&mut c, 7777, || 0, |v| *v += 1);
            dht.update(&mut c, i, || 0, |v| *v += 1);
        }
        let hot = dht.hot_keys(3);
        assert!(!hot.is_empty());
        assert_eq!(hot[0].0, dht.key_hash(&7777));
        assert!(hot[0].1 > 100, "count {} too low", hot[0].1);
        for w in hot.windows(2) {
            assert!(w[0].1 >= w[1].1, "sorted descending");
        }
    }

    #[test]
    fn hot_key_tracking_off_by_default_and_free() {
        let topo = Topology::new(2, 2);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut c = ctx(0, topo);
        for i in 0..100u64 {
            dht.insert(&mut c, i % 3, 0);
        }
        assert!(dht.hot_keys(10).is_empty());
    }

    #[test]
    fn snapshot_and_preload_bypass_counters() {
        let topo = Topology::new(4, 2);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut c = ctx(0, topo);
        for k in 0..100 {
            dht.insert(&mut c, k, (k * 2) as u32);
        }
        let mut entries = dht.snapshot_entries();
        entries.sort_unstable();
        assert_eq!(entries.len(), 100);

        let restored: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut c2 = ctx(1, topo);
        restored.preload(entries.clone());
        // No accesses, no service ops were recorded by either operation.
        assert_eq!(c2.stats.total_accesses(), 0);
        let mut stats = vec![crate::CommStats::new(); 4];
        restored.drain_service_into(&mut stats);
        assert!(stats.iter().all(|s| s.service_ops == 0));
        // But the data round-tripped, landing on the same owners.
        assert_eq!(restored.shard_sizes(), dht.shard_sizes());
        assert_eq!(restored.get(&mut c2, &7), Some(14));
    }

    #[test]
    fn metrics_capture_occupancy_and_contention() {
        let _guard = metrics::TEST_LOCK.lock().unwrap();
        metrics::reset();
        metrics::enable();

        let topo = Topology::new(4, 2);
        // All keys on rank 3: max/mean load factor = 4.0.
        let placement = Placement::Custom(Arc::new(|_h| 3));
        let dht: DistHashMap<u64, u32> = DistHashMap::with_placement(topo, placement);
        let mut c = ctx(0, topo);
        for k in 0..80 {
            dht.insert(&mut c, k, 0);
        }
        let mut stats = vec![crate::CommStats::new(); 4];
        dht.drain_service_into(&mut stats);

        // Contention: hold key 0's sub-shard lock while another thread
        // inserts that key. The insert's try_lock fails and counts
        // contention *before* blocking, so we can wait on the counter and
        // then release.
        let contention = || {
            metrics::snapshot().iter().find_map(|m| match m {
                metrics::MetricSnapshot::Counter(n, v) if n == "pgas/dht/lock_contention" => {
                    Some(*v)
                }
                _ => None,
            })
        };
        let held = dht.shards[dht.shard_of_key(&0)].map.lock();
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut c2 = RankCtx::new(1, topo);
                dht.insert(&mut c2, 0, 9); // blocks until `held` drops
            });
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            while contention().unwrap_or(0) == 0 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "blocked insert never counted contention"
                );
                std::thread::yield_now();
            }
            drop(held);
        });

        let snap = metrics::snapshot();
        let find = |name: &str| snap.iter().find(|m| m.name() == name).cloned();
        match find("pgas/dht/entries") {
            Some(metrics::MetricSnapshot::Gauge(_, v)) => assert_eq!(v, 80.0),
            other => panic!("missing entries gauge: {other:?}"),
        }
        match find("pgas/dht/load_factor_max") {
            Some(metrics::MetricSnapshot::Gauge(_, v)) => {
                assert!((v - 4.0).abs() < 1e-9, "all-on-one-rank placement: {v}")
            }
            other => panic!("missing load factor gauge: {other:?}"),
        }
        match find("pgas/dht/lock_contention") {
            Some(metrics::MetricSnapshot::Counter(_, n)) => {
                assert!(n >= 1, "blocked insert must count contention")
            }
            other => panic!("missing contention counter: {other:?}"),
        }

        metrics::disable();
        metrics::reset();
    }

    #[test]
    fn cyclic_placement_is_roughly_balanced() {
        let topo = Topology::new(16, 8);
        let dht: DistHashMap<u64, ()> = DistHashMap::new(topo);
        let mut c = ctx(0, topo);
        for k in 0..16_000u64 {
            dht.insert(&mut c, k, ());
        }
        let sizes = dht.shard_sizes();
        let expect = 1000.0;
        for (rank, &s) in sizes.iter().enumerate() {
            let dev = (s as f64 - expect).abs() / expect;
            assert!(dev < 0.25, "rank {rank} has {s} entries (expect ~1000)");
        }
    }
}
