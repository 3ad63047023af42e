//! The **matching-reuse execution engine**: a thread-safe [`RulebookCache`]
//! keyed by active-set identity plus flat gather → per-tap dense GEMM →
//! scatter kernels over contiguous `sites × channels` feature matrices.
//!
//! ESCA's premise (§III) is that submanifold sparse convolution preserves
//! the active-site set, so the coordinate-matching work — what the SDMU
//! does per layer in hardware, and what [`crate::rulebook::Rulebook::build`]
//! does in software — is a property of the *geometry*, not of any single
//! layer. Every same-stride Sub-Conv layer of a U-Net pass, and every
//! frame of a static-geometry stream, can therefore share one rulebook.
//! This module builds each rulebook once, keys it by
//! [`esca_tensor::ActiveSetFingerprint`] (which hashes the *ordered*
//! coordinate sequence, because rule indices refer to storage positions),
//! and shares it read-only behind [`Arc`] across layers, frames and
//! worker threads.
//!
//! The same argument covers every other geometry-determined map the
//! network executes — strided and transpose convolutions have fixed
//! in/out site maps per active set too — so the cache stores a
//! [`Rulebook`], [`StridedMap`] or [`TransposeMap`] under a hardened key
//! folding the artifact type, the kernel/stride parameter and (for
//! transpose) the target set's fingerprint alongside the input
//! fingerprint: a downsampled level can never alias a same-coordinate
//! tensor from another level, parameter or op. This per-op cache is the
//! only geometry cache: a repeated frame replays every layer's artifact
//! from it with zero matching work, and the cycle model's
//! matching-residency hints are derived from it
//! ([`RulebookCache::contains_rulebook`]). Artifacts depend only on
//! geometry and kernel size, never on which network asks.
//!
//! The per-tap GEMM at the core of the flat kernels is **pluggable**
//! ([`crate::gemm`]): [`apply_rulebook_flat_with`] and
//! [`apply_rulebook_flat_q_with`] take any [`GemmBackend`]. Through the
//! [`ScalarRef`] reference tier they are proven **bit-identical** to the
//! direct kernels — the float path replays
//! [`crate::conv::submanifold_conv3d`]'s exact per-output-element
//! accumulation order (bias first, then taps in kernel-column order, input
//! channels in order — a submanifold rulebook has at most one pair per
//! `(tap, output)`), and the quantized path is i64-exact like
//! [`crate::quant::submanifold_conv3d_q`]. The default [`FlatEngine`]
//! backend is the blocked throughput tier, whose f32 output is
//! epsilon-bounded (quantized output stays bit-exact on every backend).
//!
//! [`ScalarRef`]: crate::gemm::ScalarRef

use crate::error::SscnError;
use crate::gemm::{GemmBackend, GemmBackendKind};
use crate::plan::{StridedMap, TransposeMap};
use crate::quant::QuantizedWeights;
use crate::rulebook::Rulebook;
use crate::sparse_ops::{strided_conv3d, transpose_conv3d, StridedWeights};
use crate::split::{self, RowSplit};
use crate::weights::ConvWeights;
use crate::Result;
use esca_tensor::{requantize_i64, ActiveSetFingerprint, Coord3, Extent3, SparseTensor, Q16};
use std::any::{Any, TypeId};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// A geometry artifact the cache can hold: immutable, shareable across
/// threads, and priced in heap bytes for the LRU budget.
trait Artifact: Any + Send + Sync {
    fn heap_bytes(&self) -> usize;
}

impl Artifact for Rulebook {
    fn heap_bytes(&self) -> usize {
        Rulebook::heap_bytes(self)
    }
}

impl Artifact for StridedMap {
    fn heap_bytes(&self) -> usize {
        StridedMap::heap_bytes(self)
    }
}

impl Artifact for TransposeMap {
    fn heap_bytes(&self) -> usize {
        TransposeMap::heap_bytes(self)
    }
}

/// Hardened cache key: the artifact type, the kernel/stride parameter,
/// the order-sensitive input active-set identity (which itself folds the
/// grid extent and site count), and — for transpose convolution, whose
/// map also depends on the target set — that set's digest lanes. Two
/// entries can collide only if every one of these agrees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    kind: TypeId,
    param: u32,
    set: ActiveSetFingerprint,
    aux: [u64; 2],
}

impl Key {
    fn of<A: Artifact, T: Copy>(input: &SparseTensor<T>, param: u32, aux: [u64; 2]) -> Key {
        Key {
            kind: TypeId::of::<A>(),
            param,
            set: input.active_fingerprint(),
            aux,
        }
    }
}

/// One cached geometry artifact plus the bookkeeping the LRU budget needs.
#[derive(Debug)]
struct CacheEntry {
    artifact: Arc<dyn Any + Send + Sync>,
    /// Artifact heap bytes at insert time (artifacts are immutable).
    bytes: usize,
    /// Logical timestamp of the last hit/insert; atomic so hits can touch
    /// it under the read lock.
    last_used: AtomicU64,
}

/// The lock-guarded part of the cache: the entry map plus the running
/// byte total of every entry's index lists.
#[derive(Debug, Default)]
struct CacheInner {
    entries: HashMap<Key, CacheEntry>,
    bytes: usize,
}

/// A thread-safe cache of geometry artifacts: submanifold rulebooks,
/// strided-convolution site maps and transpose-convolution gather maps,
/// each under a hardened key.
///
/// Shared behind an [`Arc`], one cache serves all layers of a network
/// pass *and* all frames/workers of a streaming batch: the first request
/// per geometry builds the artifact (a miss), every later request returns
/// the shared [`Arc`] without rebuilding it (a hit). Hit/miss counters
/// are atomic, so rates can be read concurrently with use.
///
/// By default the cache is unbounded. [`with_capacity_bytes`] bounds the
/// total heap bytes its artifacts retain, evicting least-recently-used
/// entries past the budget — modeling a deployment that cannot keep every
/// frame geometry's maps resident. Eviction only affects *when* an
/// artifact must be rebuilt, never what it contains: outputs and cycle
/// stats are byte-identical under any budget (the determinism contract's
/// cache-invariance invariant, tested in
/// `crates/sscn/tests/cache_eviction.rs`).
///
/// [`with_capacity_bytes`]: RulebookCache::with_capacity_bytes
#[derive(Debug, Default)]
pub struct RulebookCache {
    inner: RwLock<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Logical clock behind `CacheEntry::last_used`; `fetch_add` makes
    /// every timestamp unique, so the LRU victim is always unambiguous.
    tick: AtomicU64,
    /// `None` = unbounded (the default).
    cap_bytes: Option<usize>,
}

impl RulebookCache {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        RulebookCache::default()
    }

    /// Creates an empty cache that retains at most `cap` heap bytes of
    /// artifacts (rulebooks and site maps alike), evicting the
    /// least-recently-used entries when an insert exceeds the budget. The
    /// entry being inserted is never evicted, so a single oversized
    /// artifact still works — the cache then simply holds that one entry
    /// over budget until the next insert. With
    /// `StreamingSession::with_rulebook_cache` in `esca` this is the only
    /// way to bound a session's cache memory, so it stays although only
    /// suites call it.
    pub fn with_capacity_bytes(cap: usize) -> Self {
        RulebookCache {
            cap_bytes: Some(cap),
            ..RulebookCache::default()
        }
    }

    /// The lookup/build/insert path every artifact type shares: a
    /// read-locked probe (hit), then an unlocked build and a write-locked
    /// insert (miss). Two concurrent first requests may both build; one
    /// result wins the insert and both callers get structurally equal
    /// artifacts (builds are pure functions of the key).
    fn get_or_insert<A: Artifact, T: Copy>(
        &self,
        input: &SparseTensor<T>,
        param: u32,
        aux: [u64; 2],
        build: impl FnOnce() -> Result<A>,
    ) -> Result<Arc<A>> {
        let key = Key::of::<A, T>(input, param, aux);
        let cached = self
            .inner
            .read()
            .expect("cache lock")
            .entries
            .get(&key)
            .map(|e| {
                e.last_used
                    .store(self.tick.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
                Arc::clone(&e.artifact)
            });
        let artifact = match cached {
            Some(artifact) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                artifact
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.insert(key, Arc::new(build()?))
            }
        };
        Ok(Arc::downcast(artifact).expect("the artifact type is part of the cache key"))
    }

    /// Inserts a freshly built artifact and returns the resident one: a
    /// racing builder that inserted first wins, and the budget is enforced
    /// after a real insert.
    fn insert<A: Artifact>(&self, key: Key, built: Arc<A>) -> Arc<dyn Any + Send + Sync> {
        let mut inner = self.inner.write().expect("cache lock");
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        if let Some(e) = inner.entries.get(&key) {
            e.last_used.store(tick, Ordering::Relaxed);
            return Arc::clone(&e.artifact);
        }
        let bytes = built.heap_bytes();
        inner.entries.insert(
            key,
            CacheEntry {
                artifact: built.clone(),
                bytes,
                last_used: AtomicU64::new(tick),
            },
        );
        inner.bytes += bytes;
        if let Some(cap) = self.cap_bytes {
            self.evict_to_cap(&mut inner, cap, &key);
        }
        built
    }

    /// Whether `input`'s Sub-Conv rulebook under a K×K×K kernel is
    /// resident, **without** counting a hit or miss or touching its LRU
    /// timestamp. This is the probe the cycle-model streaming path derives
    /// deterministic matching-residency hints from — it must not perturb
    /// the host-domain accounting of the golden path.
    pub fn contains_rulebook<T: Copy>(&self, input: &SparseTensor<T>, k: u32) -> bool {
        let key = Key::of::<Rulebook, T>(input, k, [0; 2]);
        let inner = self.inner.read().expect("cache lock");
        inner.entries.contains_key(&key)
    }

    /// Returns the rulebook for `input`'s active set under a K×K×K
    /// submanifold kernel, building and caching it on first use.
    pub fn get_or_build<T: Copy>(&self, input: &SparseTensor<T>, k: u32) -> Arc<Rulebook> {
        self.get_or_insert(input, k, [0; 2], || Ok(Rulebook::build(input, k)))
            .expect("rulebook build is infallible")
    }

    /// Returns the coarse site map for `input`'s active set under stride
    /// `kd`, building and caching it on first use. Every strided
    /// convolution ([`StridedMap::apply`]) over one set and `kd` shares
    /// this entry.
    pub fn strided_map<T: Copy>(&self, input: &SparseTensor<T>, kd: u32) -> Arc<StridedMap> {
        self.get_or_insert(input, kd, [0; 2], || Ok(StridedMap::build(input, kd)))
            .expect("strided map build is infallible")
    }

    /// Returns the transpose-convolution gather map from `input`'s coarse
    /// active set to the `target` fine set under stride `kd`, building and
    /// caching it on first use. The key folds **both** fingerprints: the
    /// coarse input's and the fine target's.
    ///
    /// # Errors
    ///
    /// As [`TransposeMap::build`] (extent mismatch, invalid target set).
    pub fn transpose_map<T: Copy>(
        &self,
        input: &SparseTensor<T>,
        kd: u32,
        fine_extent: Extent3,
        target: &[Coord3],
    ) -> Result<Arc<TransposeMap>> {
        let aux = ActiveSetFingerprint::of_coords(fine_extent, target);
        self.get_or_insert(input, kd, [aux.digest_lo, aux.digest_hi], || {
            TransposeMap::build(input, kd, fine_extent, target)
        })
    }

    /// Evicts least-recently-used entries (never `keep`, the entry just
    /// inserted) until the byte budget is met or only `keep` remains.
    /// Victim choice is deterministic: `last_used` timestamps are unique,
    /// so the minimum is unambiguous regardless of map iteration order.
    fn evict_to_cap(&self, inner: &mut CacheInner, cap: usize, keep: &Key) {
        while inner.bytes > cap && inner.entries.len() > 1 {
            let victim = inner
                .entries
                .iter()
                .filter(|(k, _)| *k != keep)
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            if let Some(e) = inner.entries.remove(&victim) {
                inner.bytes -= e.bytes;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Number of cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of cache misses (artifact builds) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of entries evicted by the byte budget so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Hits over total lookups, in [0, 1]; zero before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// Number of distinct geometry artifacts cached.
    pub fn len(&self) -> usize {
        self.inner.read().expect("cache lock").entries.len()
    }

    /// Whether no artifact is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total heap bytes of every cached artifact currently retained.
    pub fn bytes(&self) -> usize {
        self.inner.read().expect("cache lock").bytes
    }
    /// The byte budget, or `None` for the unbounded default.
    pub fn capacity_bytes(&self) -> Option<usize> {
        self.cap_bytes
    }

    /// Drops every cached artifact and resets the counters.
    pub fn clear(&self) {
        let mut inner = self.inner.write().expect("cache lock");
        inner.entries.clear();
        inner.bytes = 0;
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }
}

/// Reusable scratch for the flat kernels: the quantized i64 accumulator
/// lives across layers instead of being reallocated per layer. (The float
/// accumulator is not scratch — it becomes the output tensor's feature
/// storage and is handed over. Backends read activation rows in place, so
/// no gather copy is staged any more.)
#[derive(Debug, Default)]
pub struct FlatScratch {
    acc_q: Vec<i64>,
}

/// Flat float Sub-Conv: per-tap dense GEMM scatter-accumulated over the
/// rulebook's in-place activation rows, with an optional fused ReLU,
/// through an explicit [`GemmBackend`].
///
/// Through [`crate::gemm::ScalarRef`] the output is **bit-identical** to
/// `relu`-of-[`crate::conv::submanifold_conv3d`]: the scatter
/// accumulates straight into the bias-initialized output row inside the
/// per-tap loop, so every output element sees additions in exactly the
/// reference order. This exactness contract is what the resilience
/// layer's corrupt-rulebook fallback comparisons rely on. The blocked tier
/// is epsilon-bounded (see [`crate::gemm`] for the tier contract).
///
/// # Errors
///
/// Returns [`SscnError::ChannelMismatch`] on a channel mismatch and
/// [`SscnError::InvalidConfig`] when the rulebook does not match the
/// input/layer.
pub fn apply_rulebook_flat_with(
    input: &SparseTensor<f32>,
    rb: &Rulebook,
    weights: &ConvWeights,
    relu: bool,
    backend: &dyn GemmBackend,
) -> Result<SparseTensor<f32>> {
    check_layer(input, rb, weights)?;
    let in_ch = weights.in_ch();
    let out_ch = weights.out_ch();
    let n = input.nnz();
    let taps = (weights.k() * weights.k() * weights.k()) as usize;
    let mut acc = Vec::with_capacity(n * out_ch);
    for _ in 0..n {
        acc.extend_from_slice(weights.bias());
    }
    let feats = input.features();
    for tap in 0..taps {
        let rules = rb.tap(tap);
        if rules.is_empty() {
            continue;
        }
        backend.tap_f32(
            feats,
            rules,
            weights.tap_slice(tap),
            in_ch,
            out_ch,
            &mut acc,
        );
    }
    if relu {
        for v in &mut acc {
            *v = v.max(0.0);
        }
    }
    SparseTensor::from_template(input, out_ch, acc).map_err(SscnError::from)
}

/// The checks of [`apply_rulebook_flat_with`]: the input's channels match
/// the weights, and the rulebook was built over the input with the
/// layer's kernel.
fn check_layer(input: &SparseTensor<f32>, rb: &Rulebook, weights: &ConvWeights) -> Result<()> {
    weights.check_input_channels(input.channels())?;
    if rb.sites() != input.nnz() || rb.k() != weights.k() {
        return Err(SscnError::InvalidConfig {
            reason: "rulebook does not match this input/layer".into(),
        });
    }
    Ok(())
}

/// Flat **quantized** Sub-Conv (i64 accumulation, shared requantization)
/// through an explicit [`GemmBackend`]. Integer accumulation is
/// associative and overflow-free on every shipped backend, so — unlike
/// the float path — the output stays **bit-identical** to
/// [`crate::quant::submanifold_conv3d_q`] regardless of the tier chosen.
/// The i64 accumulator is scratch: unlike the float path it is
/// requantized into a fresh `Q16` vector, so the buffer is reused across
/// layers.
///
/// # Errors
///
/// Returns [`SscnError::ChannelMismatch`] on a channel mismatch and
/// [`SscnError::InvalidConfig`] when the rulebook does not match.
pub fn apply_rulebook_flat_q_with(
    input: &SparseTensor<Q16>,
    rb: &Rulebook,
    weights: &QuantizedWeights,
    relu: bool,
    scratch: &mut FlatScratch,
    backend: &dyn GemmBackend,
) -> Result<SparseTensor<Q16>> {
    if input.channels() != weights.in_ch() {
        return Err(SscnError::ChannelMismatch {
            expected: weights.in_ch(),
            got: input.channels(),
        });
    }
    if rb.sites() != input.nnz() || rb.k() != weights.k() {
        return Err(SscnError::InvalidConfig {
            reason: "rulebook does not match this input/layer".into(),
        });
    }
    let in_ch = weights.in_ch();
    let out_ch = weights.out_ch();
    let n = input.nnz();
    let taps = (weights.k() * weights.k() * weights.k()) as usize;
    let q = weights.quant();
    let acc = &mut scratch.acc_q;
    acc.clear();
    acc.reserve(n * out_ch);
    for _ in 0..n {
        acc.extend_from_slice(weights.bias_acc());
    }
    let feats = input.features();
    for tap in 0..taps {
        let rules = rb.tap(tap);
        if rules.is_empty() {
            continue;
        }
        backend.tap_q(feats, rules, weights.tap_slice(tap), in_ch, out_ch, acc);
    }
    let out_feats: Vec<Q16> = acc
        .iter()
        .map(|&v| {
            let v = if relu { v.max(0) } else { v };
            requantize_i64(v, q.act, q.weight, q.out)
        })
        .collect();
    SparseTensor::from_template(input, out_ch, out_feats).map_err(SscnError::from)
}

/// The matching-reuse Sub-Conv executor: a shared [`RulebookCache`], a
/// selected [`GemmBackend`], per-engine [`FlatScratch`] and a row split
/// over helper threads. One caller drives an engine at a time; many
/// engines share one cache.
///
/// Row split: an f32 Sub-Conv layer of at least 2²¹ MACs
/// ([`FlatEngine::subconv`], which every `forward_engine` layer goes
/// through) has its output rows cut into contiguous chunks that the
/// caller and the engine's helper threads claim from one counter. The
/// engine keeps one long-lived helper per core beyond the caller's (at
/// most three), spawned on its first large layer, parked between layers
/// and joined when the engine drops. The output is byte-identical to the
/// serial kernel on every backend and for any thread count. If a helper
/// dies, the caller recomputes what it left and the engine stays serial.
/// The quantized entry points never split: they run inside the streaming
/// pool's workers, which already occupy the cores.
///
/// Backend selection: [`FlatEngine::new`] resolves the process default
/// ([`GemmBackendKind::from_env`] — the blocked throughput tier unless
/// `ESCA_GEMM_BACKEND` overrides it); [`FlatEngine::with_backend`] /
/// [`FlatEngine::with_cache_and_backend`] pin a tier explicitly. The
/// quantized entry points are bit-exact on every backend; the float entry
/// point is bit-exact only under [`GemmBackendKind::ScalarRef`].
///
/// The engine also keeps deterministic GEMM work counters
/// ([`FlatEngine::gemm_rows`], [`FlatEngine::gemm_macs`]): rows routed
/// through the per-tap GEMM and effective MACs, both pure functions of
/// the rulebooks and layer shapes, so identical across backends.
#[derive(Debug)]
pub struct FlatEngine {
    cache: Arc<RulebookCache>,
    scratch: FlatScratch,
    backend: GemmBackendKind,
    gemm_rows: u64,
    gemm_macs: u64,
    /// The helper threads, once a large layer has spawned them.
    split: Option<RowSplit>,
    /// Helpers to spawn; zero keeps the engine serial.
    helpers: usize,
    /// Smallest layer, in MACs, that is split.
    split_min_macs: u64,
}

impl Default for FlatEngine {
    fn default() -> Self {
        FlatEngine::new()
    }
}

impl FlatEngine {
    /// Creates an engine with its own private cache and the process
    /// default backend ([`GemmBackendKind::from_env`]).
    pub fn new() -> Self {
        FlatEngine::with_backend(GemmBackendKind::from_env())
    }

    /// Creates an engine with its own private cache and an explicit
    /// backend tier.
    pub fn with_backend(backend: GemmBackendKind) -> Self {
        FlatEngine::with_cache_and_backend(Arc::new(RulebookCache::new()), backend)
    }

    /// Creates an engine over a shared cache (cross-layer, cross-frame and
    /// cross-worker reuse) with an explicit backend tier.
    pub fn with_cache_and_backend(cache: Arc<RulebookCache>, backend: GemmBackendKind) -> Self {
        FlatEngine {
            cache,
            scratch: FlatScratch::default(),
            backend,
            gemm_rows: 0,
            gemm_macs: 0,
            split: None,
            helpers: split::default_helpers(),
            split_min_macs: split::MIN_SPLIT_MACS,
        }
    }

    /// An engine with a private cache that splits every non-empty layer
    /// over `helpers` helper threads.
    #[cfg(test)]
    pub(crate) fn with_helpers(backend: GemmBackendKind, helpers: usize) -> Self {
        FlatEngine {
            helpers,
            split_min_macs: 0,
            ..FlatEngine::with_backend(backend)
        }
    }

    /// The engine's row split, if its helpers are running.
    #[cfg(test)]
    pub(crate) fn row_split(&self) -> Option<&RowSplit> {
        self.split.as_ref()
    }

    /// The engine's geometry cache.
    pub fn cache(&self) -> &Arc<RulebookCache> {
        &self.cache
    }

    /// The engine's selected GEMM backend tier.
    pub fn backend(&self) -> GemmBackendKind {
        self.backend
    }

    /// Rulebook rows routed through the per-tap GEMM so far (one row per
    /// (tap, rule-pair); equals the sum of `total_matches` over executed
    /// layers). Deterministic: a pure function of the workload.
    pub fn gemm_rows(&self) -> u64 {
        self.gemm_rows
    }

    /// Effective multiply-accumulates issued to the GEMM backend so far
    /// (`matches × in_ch × out_ch` summed over executed layers).
    pub fn gemm_macs(&self) -> u64 {
        self.gemm_macs
    }

    /// Tallies one executed layer's GEMM work.
    fn note_gemm(&mut self, rb: &Rulebook, in_ch: usize, out_ch: usize) {
        let rows = rb.total_matches();
        self.gemm_rows += rows;
        self.gemm_macs += rows * in_ch as u64 * out_ch as u64;
    }

    /// Tallies one resampling layer's work over `sites` mapped sites.
    fn note_resample(&mut self, sites: usize, w: &StridedWeights) {
        let rows = sites as u64;
        self.gemm_rows += rows;
        self.gemm_macs += rows * w.in_ch() as u64 * w.out_ch() as u64;
    }

    /// One float Sub-Conv layer (ReLU fused when `relu`), through the
    /// cache and the flat kernel on the engine's backend. Bit-identical to
    /// `relu(&submanifold_conv3d(x, w))` under
    /// [`GemmBackendKind::ScalarRef`]; epsilon-bounded (and still
    /// deterministic) under the blocked tier.
    ///
    /// A layer of at least 2²¹ MACs runs on the row split (see
    /// [`FlatEngine`]), which needs its own copy of a borrowed input;
    /// `forward_engine` hands its layers over by value instead.
    ///
    /// # Errors
    ///
    /// As [`apply_rulebook_flat_with`].
    pub fn subconv(
        &mut self,
        x: &SparseTensor<f32>,
        w: &ConvWeights,
        relu: bool,
    ) -> Result<SparseTensor<f32>> {
        self.subconv_cow(Cow::Borrowed(x), w, relu)
    }

    /// [`FlatEngine::subconv`] over a borrowed or owned input: the row
    /// split takes an owned input as it is.
    fn subconv_cow(
        &mut self,
        x: Cow<'_, SparseTensor<f32>>,
        w: &ConvWeights,
        relu: bool,
    ) -> Result<SparseTensor<f32>> {
        let rb = self.cache.get_or_build(&x, w.k());
        let macs = rb.total_matches() * w.in_ch() as u64 * w.out_ch() as u64;
        let backend = self.backend;
        let out = match self.row_split_for(macs) {
            None => apply_rulebook_flat_with(&x, &rb, w, relu, backend.backend())?,
            Some(split) => {
                check_layer(&x, &rb, w)?;
                let layer = split::Layer {
                    input: x.into_owned(),
                    rb: Arc::clone(&rb),
                    w: w.clone(),
                    backend,
                    relu,
                };
                let (out, healthy) = split.run(layer)?;
                if !healthy {
                    // Dropping the split joins the helpers; the engine
                    // stays serial.
                    self.split = None;
                    self.helpers = 0;
                }
                out
            }
        };
        self.note_gemm(&rb, w.in_ch(), w.out_ch());
        Ok(out)
    }

    /// The row split for a layer of `macs` MACs, spawning the helpers on
    /// first use; `None` runs the layer on the caller alone.
    fn row_split_for(&mut self, macs: u64) -> Option<&mut RowSplit> {
        if self.helpers == 0 || macs == 0 || macs < self.split_min_macs {
            return None;
        }
        if self.split.is_none() {
            self.split = RowSplit::spawn(self.helpers);
            if self.split.is_none() {
                self.helpers = 0;
            }
        }
        self.split.as_mut()
    }

    /// One quantized Sub-Conv layer, through the cache and the flat
    /// kernel on the engine's backend. Bit-identical to
    /// [`crate::quant::submanifold_conv3d_q`] on **every** backend (i64
    /// accumulation is associative).
    ///
    /// # Errors
    ///
    /// As [`apply_rulebook_flat_q_with`].
    pub fn subconv_q(
        &mut self,
        x: &SparseTensor<Q16>,
        w: &QuantizedWeights,
        relu: bool,
    ) -> Result<SparseTensor<Q16>> {
        let rb = self.cache.get_or_build(x, w.k());
        let out =
            apply_rulebook_flat_q_with(x, &rb, w, relu, &mut self.scratch, self.backend.backend())?;
        self.note_gemm(&rb, w.in_ch(), w.out_ch());
        Ok(out)
    }

    /// One quantized Sub-Conv layer through an explicitly supplied
    /// rulebook — the **graceful-degradation** entry point. The book is
    /// verified first ([`Rulebook::verify_for_sites`]); when verification
    /// fails (a corrupted cache entry, a book built over different
    /// geometry) the layer falls back to the direct golden kernel
    /// [`crate::quant::submanifold_conv3d_q`], which rebuilds its matching
    /// from the input itself and therefore cannot be poisoned by cache
    /// state. Returns the output plus whether the fallback ran; both
    /// paths produce bit-identical results on a healthy book.
    ///
    /// # Errors
    ///
    /// As [`apply_rulebook_flat_q_with`] on the flat path, as
    /// [`crate::quant::submanifold_conv3d_q`] on the fallback path.
    pub fn subconv_q_with_book(
        &mut self,
        x: &SparseTensor<Q16>,
        w: &QuantizedWeights,
        relu: bool,
        book: &Rulebook,
    ) -> Result<(SparseTensor<Q16>, bool)> {
        if book.verify_for_sites(x.nnz(), w.k()) {
            let out = apply_rulebook_flat_q_with(
                x,
                book,
                w,
                relu,
                &mut self.scratch,
                self.backend.backend(),
            )?;
            self.note_gemm(book, w.in_ch(), w.out_ch());
            Ok((out, false))
        } else {
            Ok((crate::quant::submanifold_conv3d_q(x, w, relu)?, true))
        }
    }

    /// Runs a resident quantized Sub-Conv stack over one frame — the
    /// host-side golden execution of a streaming layer stack. Every layer
    /// shares the frame's single rulebook (submanifold layers preserve
    /// the active set *and* its storage order), so an N-layer stack costs
    /// one matching pass at most, and a repeated frame geometry costs
    /// **zero**: every layer hits the per-op cache.
    ///
    /// # Errors
    ///
    /// As [`apply_rulebook_flat_q_with`], from the first failing layer.
    pub fn run_stack_q(
        &mut self,
        frame: &SparseTensor<Q16>,
        layers: &[(QuantizedWeights, bool)],
    ) -> Result<SparseTensor<Q16>> {
        let mut x = frame.clone();
        for (w, relu) in layers {
            x = self.subconv_q(&x, w, *relu)?;
        }
        Ok(x)
    }
}

/// How the network's one layer walk ([`crate::unet::SsUNet`]) executes
/// its layers. The resampling layers default to the direct kernels; a
/// [`FlatEngine`] runs every layer over its cached geometry instead.
pub(crate) trait LayerExec {
    /// One Sub-Conv layer, ReLU included. The walk hands over the
    /// layers it owns, so an executor that runs a layer on other threads
    /// can take the input without copying it.
    fn subconv(
        &mut self,
        index: usize,
        name: &str,
        w: &ConvWeights,
        x: Cow<'_, SparseTensor<f32>>,
    ) -> Result<SparseTensor<f32>>;

    /// One strided (downsampling) convolution.
    fn strided(&mut self, x: &SparseTensor<f32>, w: &StridedWeights) -> Result<SparseTensor<f32>> {
        strided_conv3d(x, w)
    }

    /// One transpose (upsampling) convolution onto `target`.
    fn transpose(
        &mut self,
        x: &SparseTensor<f32>,
        w: &StridedWeights,
        fine_extent: Extent3,
        target: &[Coord3],
    ) -> Result<SparseTensor<f32>> {
        transpose_conv3d(x, w, fine_extent, target)
    }
}

impl LayerExec for FlatEngine {
    fn subconv(
        &mut self,
        _index: usize,
        _name: &str,
        w: &ConvWeights,
        x: Cow<'_, SparseTensor<f32>>,
    ) -> Result<SparseTensor<f32>> {
        self.subconv_cow(x, w, true)
    }

    /// Through the cached site map — **bit-identical** to
    /// [`strided_conv3d`] on every backend (the map replay accumulates in
    /// the direct kernel's order; the per-tap GEMM seam is not involved).
    fn strided(&mut self, x: &SparseTensor<f32>, w: &StridedWeights) -> Result<SparseTensor<f32>> {
        let map = self.cache.strided_map(x, w.kd());
        let out = map.apply(x, w)?;
        self.note_resample(map.sites(), w);
        Ok(out)
    }

    /// Through the cached gather map — **bit-identical** to
    /// [`transpose_conv3d`].
    fn transpose(
        &mut self,
        x: &SparseTensor<f32>,
        w: &StridedWeights,
        fine_extent: Extent3,
        target: &[Coord3],
    ) -> Result<SparseTensor<f32>> {
        let map = self.cache.transpose_map(x, w.kd(), fine_extent, target)?;
        let out = map.apply(x, w)?;
        self.note_resample(map.sites(), w);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::submanifold_conv3d;
    use crate::gemm::ScalarRef;
    use crate::layer::relu as relu_layer;
    use crate::quant::{quantize_tensor, submanifold_conv3d_q};
    use esca_tensor::{Coord3, Extent3};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    fn random_input(seed: u64, side: u32, ch: usize, n: usize) -> SparseTensor<f32> {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut t = SparseTensor::new(Extent3::cube(side), ch);
        for _ in 0..n {
            let c = Coord3::new(
                rng.gen_range(0..side as i32),
                rng.gen_range(0..side as i32),
                rng.gen_range(0..side as i32),
            );
            let f: Vec<f32> = (0..ch).map(|_| rng.gen_range(-1.0..1.0)).collect();
            t.insert(c, &f).unwrap();
        }
        t.canonicalize();
        t
    }

    #[test]
    fn flat_kernel_is_bitwise_equal_to_direct() {
        for seed in 0..4 {
            let input = random_input(seed, 12, 3, 70);
            let w = ConvWeights::seeded(3, 3, 6, seed + 40);
            let rb = Rulebook::build(&input, 3);
            for relu in [false, true] {
                let flat = apply_rulebook_flat_with(&input, &rb, &w, relu, &ScalarRef).unwrap();
                let direct = submanifold_conv3d(&input, &w).unwrap();
                let direct = if relu { relu_layer(&direct) } else { direct };
                assert_eq!(flat.coords(), direct.coords(), "storage order differs");
                assert_eq!(
                    flat.features(),
                    direct.features(),
                    "values not bitwise equal"
                );
            }
        }
    }

    #[test]
    fn flat_quantized_kernel_is_bitwise_equal_to_golden() {
        for seed in 0..3 {
            let input = random_input(seed + 10, 10, 2, 50);
            let w = ConvWeights::seeded(3, 2, 5, seed + 70);
            let qw = QuantizedWeights::auto(&w, 8, 10).unwrap();
            let qin = quantize_tensor(&input, qw.quant().act);
            let rb = Rulebook::build(&qin, 3);
            let mut scratch = FlatScratch::default();
            for relu in [false, true] {
                let flat =
                    apply_rulebook_flat_q_with(&qin, &rb, &qw, relu, &mut scratch, &ScalarRef)
                        .unwrap();
                let golden = submanifold_conv3d_q(&qin, &qw, relu).unwrap();
                assert_eq!(flat.coords(), golden.coords());
                assert_eq!(flat.features(), golden.features());
            }
        }
    }

    #[test]
    fn cache_hits_on_same_geometry_and_misses_on_new() {
        let cache = RulebookCache::new();
        let a = random_input(1, 10, 1, 30);
        let rb1 = cache.get_or_build(&a, 3);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        // Same geometry, different values/channels: a hit on the same Arc.
        let b = a.map(|v| v * 2.0);
        let rb2 = cache.get_or_build(&b, 3);
        assert!(Arc::ptr_eq(&rb1, &rb2));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // Different kernel: a distinct entry.
        let _ = cache.get_or_build(&a, 5);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);
        assert!((cache.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }

    #[test]
    fn engine_reuses_rulebook_across_layers() {
        let input = random_input(5, 12, 2, 60);
        let w1 = ConvWeights::seeded(3, 2, 4, 80);
        let w2 = ConvWeights::seeded(3, 4, 4, 81);
        // ScalarRef tier: bit-identity against the direct kernels.
        let mut eng = FlatEngine::with_backend(GemmBackendKind::ScalarRef);
        let y1 = eng.subconv(&input, &w1, true).unwrap();
        let y2 = eng.subconv(&y1, &w2, true).unwrap();
        // Sub-Conv preserves geometry and order: layer 2 hits the cache.
        assert_eq!((eng.cache().hits(), eng.cache().misses()), (1, 1));
        let r1 = relu_layer(&submanifold_conv3d(&input, &w1).unwrap());
        let r2 = relu_layer(&submanifold_conv3d(&r1, &w2).unwrap());
        assert_eq!(y2.coords(), r2.coords());
        assert_eq!(y2.features(), r2.features());
        // Blocked tier: same geometry, epsilon-bounded values.
        let mut fast = FlatEngine::with_backend(GemmBackendKind::Blocked);
        let b1 = fast.subconv(&input, &w1, true).unwrap();
        let b2 = fast.subconv(&b1, &w2, true).unwrap();
        assert_eq!(b2.coords(), r2.coords());
        for (x, y) in b2.features().iter().zip(r2.features()) {
            assert!((x - y).abs() <= 1e-4 * y.abs().max(1.0));
        }
    }

    #[test]
    fn engine_counts_gemm_work_on_every_backend() {
        let input = random_input(6, 10, 2, 40);
        let w = ConvWeights::seeded(3, 2, 4, 82);
        let rb = Rulebook::build(&input, 3);
        let want_rows = rb.total_matches();
        let want_macs = want_rows * 2 * 4;
        for kind in GemmBackendKind::ALL {
            let mut eng = FlatEngine::with_backend(kind);
            let _ = eng.subconv(&input, &w, true).unwrap();
            assert_eq!(eng.backend(), kind);
            assert_eq!(eng.gemm_rows(), want_rows);
            assert_eq!(eng.gemm_macs(), want_macs);
        }
    }

    #[test]
    fn engines_share_a_cache_across_threads() {
        let cache = Arc::new(RulebookCache::new());
        let frame = random_input(9, 10, 1, 40);
        let w = ConvWeights::seeded(3, 1, 3, 90);
        let qw = QuantizedWeights::auto(&w, 8, 10).unwrap();
        let qframe = quantize_tensor(&frame, qw.quant().act);
        let golden = submanifold_conv3d_q(&qframe, &qw, true).unwrap();
        crossbeam::scope(|scope| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                let qframe = &qframe;
                let qw = &qw;
                let golden = &golden;
                scope.spawn(move |_| {
                    let mut eng =
                        FlatEngine::with_cache_and_backend(cache, GemmBackendKind::from_env());
                    let out = eng.subconv_q(qframe, qw, true).unwrap();
                    assert_eq!(out.features(), golden.features());
                });
            }
        })
        .expect("threads join");
        // Four threads, one geometry: at most a couple of racing builds,
        // and at least one thread must have hit the shared entry.
        assert_eq!(cache.len(), 1);
        assert!(cache.hits() >= 1);
    }

    #[test]
    fn stack_run_matches_layerwise_golden() {
        let frame = random_input(11, 10, 2, 45);
        let w1 = QuantizedWeights::auto(&ConvWeights::seeded(3, 2, 6, 91), 8, 10).unwrap();
        let w2 = QuantizedWeights::auto(&ConvWeights::seeded(3, 6, 3, 92), 8, 10).unwrap();
        let qframe = quantize_tensor(&frame, w1.quant().act);
        let stack = vec![(w1, true), (w2, false)];
        let mut eng = FlatEngine::new();
        let out = eng.run_stack_q(&qframe, &stack).unwrap();
        let mut x = qframe;
        for (w, relu) in &stack {
            x = submanifold_conv3d_q(&x, w, *relu).unwrap();
        }
        assert_eq!(out.coords(), x.coords());
        assert_eq!(out.features(), x.features());
        assert_eq!(eng.cache().misses(), 1, "stack shares one rulebook");
    }

    #[test]
    fn verified_book_runs_flat_and_corrupted_book_falls_back() {
        let input = random_input(30, 10, 2, 50);
        let w = ConvWeights::seeded(3, 2, 4, 96);
        let qw = QuantizedWeights::auto(&w, 8, 10).unwrap();
        let qin = quantize_tensor(&input, qw.quant().act);
        let golden = submanifold_conv3d_q(&qin, &qw, true).unwrap();
        let book = Rulebook::build(&qin, 3);
        let mut eng = FlatEngine::new();
        // Healthy book: flat path, no fallback, bit-identical.
        let (out, fell_back) = eng.subconv_q_with_book(&qin, &qw, true, &book).unwrap();
        assert!(!fell_back);
        assert_eq!(out.features(), golden.features());
        // Corrupt an index out of range: verification catches it, the
        // direct kernel takes over, and the output is still correct.
        let bad = book.corrupted_copy(u64::MAX);
        assert!(!bad.verify_for_sites(qin.nnz(), 3));
        let (out, fell_back) = eng.subconv_q_with_book(&qin, &qw, true, &bad).unwrap();
        assert!(fell_back);
        assert_eq!(out.features(), golden.features());
    }

    #[test]
    fn mismatched_rulebook_rejected() {
        let a = random_input(20, 8, 1, 10);
        let b = random_input(21, 8, 1, 12);
        let rb = Rulebook::build(&a, 3);
        let w = ConvWeights::seeded(3, 1, 2, 93);
        assert!(matches!(
            apply_rulebook_flat_with(&b, &rb, &w, false, &ScalarRef),
            Err(SscnError::InvalidConfig { .. })
        ));
        let w_bad_ch = ConvWeights::seeded(3, 2, 2, 94);
        assert!(matches!(
            apply_rulebook_flat_with(&a, &rb, &w_bad_ch, false, &ScalarRef),
            Err(SscnError::ChannelMismatch { .. })
        ));
    }

    #[test]
    fn empty_input_flat_conv() {
        let t = SparseTensor::<f32>::new(Extent3::cube(6), 2);
        let w = ConvWeights::seeded(3, 2, 4, 95);
        let mut eng = FlatEngine::new();
        let out = eng.subconv(&t, &w, true).unwrap();
        assert!(out.is_empty());
        assert_eq!(out.channels(), 4);
    }

    /// Collision regression for the hardened key: the same active set
    /// requested as different artifact types, parameters, or transpose
    /// targets must produce distinct entries — and same-coordinate sets on
    /// different grid extents never alias (extent is folded into the
    /// fingerprint).
    #[test]
    fn hardened_key_separates_ops_params_and_targets() {
        use crate::sparse_ops::downsampled_extent;
        let cache = RulebookCache::new();
        let t = random_input(70, 8, 1, 25);
        let _ = cache.get_or_build(&t, 3);
        let _ = cache.strided_map(&t, 3);
        // A rulebook and a site map over one set and parameter: two entries.
        assert_eq!((cache.len(), cache.hits(), cache.misses()), (2, 0, 2));
        // Same artifact, different parameter: a third entry.
        let _ = cache.strided_map(&t, 2);
        assert_eq!(cache.len(), 3);
        // Transpose: same coarse set + stride, different targets.
        let coarse = cache.strided_map(&t, 2).out_coords().to_vec();
        let coarse_t = {
            let mut c = SparseTensor::<f32>::new(downsampled_extent(t.extent(), 2), 1);
            for &q in &coarse {
                c.insert(q, &[1.0]).unwrap();
            }
            c.canonicalize();
            c
        };
        let full = t.coords().to_vec();
        let partial = &full[..full.len() / 2];
        let m1 = cache
            .transpose_map(&coarse_t, 2, t.extent(), &full)
            .unwrap();
        let m2 = cache
            .transpose_map(&coarse_t, 2, t.extent(), partial)
            .unwrap();
        assert!(!Arc::ptr_eq(&m1, &m2), "distinct targets must not alias");
        assert_eq!(
            cache.len(),
            5,
            "strided@2 re-fetch hits; 2 transpose entries"
        );
        // Same coordinates on a larger grid: a distinct fingerprint.
        let mut big = SparseTensor::<f32>::new(Extent3::cube(16), 1);
        for &c in t.coords() {
            big.insert(c, &[1.0]).unwrap();
        }
        big.canonicalize();
        let _ = cache.strided_map(&big, 3);
        assert_eq!(cache.len(), 6, "extent must separate same-coord sets");
    }

    #[test]
    fn engine_geometry_ops_match_direct_kernels() {
        use crate::sparse_ops::{strided_conv3d, transpose_conv3d};
        let fine = random_input(31, 12, 2, 60);
        let down = StridedWeights::seeded(2, 2, 4, 97);
        let up = StridedWeights::seeded(2, 4, 2, 98);
        let mut eng = FlatEngine::new();
        let coarse = eng.strided(&fine, &down).unwrap();
        let coarse_direct = strided_conv3d(&fine, &down).unwrap();
        assert_eq!(coarse.coords(), coarse_direct.coords());
        assert_eq!(coarse.features(), coarse_direct.features());
        let upsampled = eng
            .transpose(&coarse, &up, fine.extent(), fine.coords())
            .unwrap();
        let up_direct = transpose_conv3d(&coarse, &up, fine.extent(), fine.coords()).unwrap();
        assert_eq!(upsampled.coords(), up_direct.coords());
        assert_eq!(upsampled.features(), up_direct.features());
        // Second pass over the same geometry: every map is a cache hit.
        let (m0, h0) = (eng.cache().misses(), eng.cache().hits());
        let _ = eng.strided(&fine, &down).unwrap();
        let _ = eng
            .transpose(&coarse, &up, fine.extent(), fine.coords())
            .unwrap();
        assert_eq!(eng.cache().misses(), m0);
        assert_eq!(eng.cache().hits(), h0 + 2);
    }

    /// A fine geometry whose features look ReLU'd: mostly exact zeros of
    /// both signs, the rest positive.
    fn relud_input() -> impl proptest::strategy::Strategy<Value = SparseTensor<f32>> {
        use proptest::prelude::*;
        let value = (0u8..9, 0.0f32..2.0).prop_map(|(k, v)| match k {
            0..=2 => 0.0,
            3 | 4 => -0.0,
            _ => v,
        });
        let channels = prop::sample::select(vec![1usize, 3, 16]);
        (4u32..14, channels).prop_flat_map(move |(side, ch)| {
            let coord = (0..side as i32, 0..side as i32, 0..side as i32)
                .prop_map(|(x, y, z)| Coord3::new(x, y, z));
            let site = (coord, prop::collection::vec(value.clone(), ch));
            prop::collection::vec(site, 0..60).prop_map(move |entries| {
                let mut t = SparseTensor::new(Extent3::cube(side), ch);
                for (c, f) in entries {
                    t.insert(c, &f).unwrap();
                }
                t.canonicalize();
                t
            })
        })
    }

    /// Seeded weights with a seed-chosen sprinkling of ±∞, ±0 and
    /// negated values.
    fn odd_weights(kd: u32, in_ch: usize, out_ch: usize, seed: u64) -> StridedWeights {
        let mut w = StridedWeights::seeded(kd, in_ch, out_ch, seed);
        let mut s = seed | 1;
        for v in w.as_mut_slice() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v = match s >> 60 {
                0 => f32::INFINITY,
                1 => f32::NEG_INFINITY,
                2 => 0.0,
                3 => -0.0,
                4..=7 => -*v,
                _ => *v,
            };
        }
        w
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The engine's strided and transpose replays give the direct
        /// kernels' bits on both backends: ReLU'd inputs full of ±0,
        /// negative, zero and infinite weights, K_d 2 and 3, and output
        /// widths with (24) and without (16, 48) tail columns.
        #[test]
        fn engine_replays_are_bit_identical_to_direct_kernels(
            fine in relud_input(),
            kd in 2u32..=3,
            out_ch in proptest::sample::select(vec![16usize, 24, 48]),
            seed in 0u64..1_000,
        ) {
            let bits = |t: &SparseTensor<f32>| {
                t.features().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            let down = odd_weights(kd, fine.channels(), out_ch, seed);
            let up = odd_weights(kd, out_ch, fine.channels(), seed + 1);
            let coarse_direct = strided_conv3d(&fine, &down).unwrap();
            // ReLU keeps ±∞ and drops NaN, as the U-Net's does.
            let coarse = coarse_direct.map(|v| v.max(0.0));
            let up_direct = transpose_conv3d(&coarse, &up, fine.extent(), fine.coords()).unwrap();
            for kind in GemmBackendKind::ALL {
                let mut eng = FlatEngine::with_backend(kind);
                let replayed = eng.strided(&fine, &down).unwrap();
                proptest::prop_assert_eq!(replayed.extent(), coarse_direct.extent());
                proptest::prop_assert_eq!(replayed.coords(), coarse_direct.coords());
                proptest::prop_assert_eq!(bits(&replayed), bits(&coarse_direct), "{} strided", kind);
                let upsampled = eng
                    .transpose(&coarse, &up, fine.extent(), fine.coords())
                    .unwrap();
                proptest::prop_assert_eq!(upsampled.coords(), up_direct.coords());
                proptest::prop_assert_eq!(bits(&upsampled), bits(&up_direct), "{} transpose", kind);
            }
        }
    }
}
