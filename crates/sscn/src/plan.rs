//! Whole-network **geometry plans**: cached, replayable forms of every
//! geometry-determined mapping a sparse network performs.
//!
//! PointAcc's observation (PAPERS.md) is that once the MACs are fast,
//! *mapping* operations — neighbor search, rulebook construction, pooling
//! maps — dominate sparse point-cloud inference. The submanifold layers
//! already reuse rulebooks through the [`crate::engine::RulebookCache`];
//! this module extends the same idea to the remaining geometry ops and
//! then aggregates a full network pass into **one** cache entry:
//!
//! * [`StridedMap`] — the in→out site map of
//!   [`crate::sparse_ops::strided_conv3d`] (which fine site feeds which
//!   coarse row through which tap);
//! * [`TransposeMap`] — the out→in gather map of
//!   [`crate::sparse_ops::transpose_conv3d`];
//! * [`PoolMap`] — the in→out reduction map of
//!   [`crate::pool::sparse_max_pool`];
//! * [`GeometryPlan`] — the ordered sequence of every geometry artifact
//!   ([`PlanStep`]) one network forward pass consumes, keyed by
//!   [`PlanKey`] (network-identity digest × frame fingerprint) and shared
//!   through a [`PlanCache`].
//!
//! **Bit-identity contract.** Replaying a cached map reproduces the
//! direct kernel's output *bit for bit*: each map stores canonical
//! (raster-ordered) output coordinates, and the apply kernels visit input
//! sites in storage order, so every output element sees the same
//! floating-point additions in the same order as the direct kernel
//! followed by its trailing `canonicalize()`. The replay hot paths are
//! pure index-array walks — no hash-map iteration or per-site hash
//! probes (lint **L2**) — and the builds hash no coordinate either: they
//! derive the coarse active set by sort-and-dedup and find each site's
//! row by binary search.

use crate::error::SscnError;
use crate::rulebook::Rulebook;
use crate::sparse_ops::{downsampled_extent, StridedWeights};
use crate::Result;
use esca_telemetry::Registry;
use esca_tensor::{ActiveSetFingerprint, Coord3, Extent3, SparseTensor, TensorError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Sentinel in [`TransposeMap::sources`]: the covering coarse site is
/// inactive, so the output row stays zero.
pub const NO_SOURCE: u32 = u32::MAX;

/// The cached geometry of one strided (downsampling) convolution: for
/// every input site (in storage order) the canonical output row it
/// accumulates into and the corner-anchored tap it uses, plus the coarse
/// active set in raster order.
///
/// The map depends only on the input's active set and `kd` — never on
/// feature values or channel counts — so one map serves every layer and
/// frame that shares the geometry.
#[derive(Debug, Clone)]
pub struct StridedMap {
    kd: u32,
    in_extent: Extent3,
    out_extent: Extent3,
    /// Per input site (storage order): canonical coarse output row.
    rows: Vec<u32>,
    /// Per input site (storage order): corner-anchored tap index.
    taps: Vec<u32>,
    /// Coarse active set in raster (canonical) order.
    out_coords: Vec<Coord3>,
}

impl StridedMap {
    /// Builds the map from an input geometry: the coarse active set by
    /// sort-and-dedup, each site's canonical row by binary search.
    pub fn build<T: Copy>(input: &SparseTensor<T>, kd: u32) -> StridedMap {
        assert!(kd > 0, "stride must be nonzero");
        let (out_coords, rows) = coarse_rows(input.extent(), input.coords(), kd);
        let taps = input.coords().iter().map(|&c| corner_tap(c, kd)).collect();
        StridedMap {
            kd,
            in_extent: input.extent(),
            out_extent: downsampled_extent(input.extent(), kd),
            rows,
            taps,
            out_coords,
        }
    }

    /// Replays the map over a concrete input: flat gather → per-tap MAC →
    /// scatter into the canonical output matrix. **Bit-identical** to
    /// [`crate::sparse_ops::strided_conv3d`] on the geometry the map was
    /// built from (per-output-element addition order is input storage
    /// order in both).
    ///
    /// # Errors
    ///
    /// Returns [`SscnError::ChannelMismatch`] on a channel mismatch and
    /// [`SscnError::InvalidConfig`] when the map does not fit the
    /// input/layer.
    pub fn apply(
        &self,
        input: &SparseTensor<f32>,
        w: &StridedWeights,
    ) -> Result<SparseTensor<f32>> {
        if input.channels() != w.in_ch() {
            return Err(SscnError::ChannelMismatch {
                expected: w.in_ch(),
                got: input.channels(),
            });
        }
        if self.kd != w.kd() || self.rows.len() != input.nnz() || self.in_extent != input.extent() {
            return Err(SscnError::InvalidConfig {
                reason: "strided map does not match this input/layer".into(),
            });
        }
        let in_ch = w.in_ch();
        let out_ch = w.out_ch();
        let mut acc = vec![0.0f32; self.out_coords.len() * out_ch];
        for ((f, &row), &tap) in input
            .features()
            .chunks_exact(in_ch)
            .zip(&self.rows)
            .zip(&self.taps)
        {
            let dst = &mut acc[row as usize * out_ch..][..out_ch];
            for (ic, &a) in f.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for (dst, &wv) in dst.iter_mut().zip(w.oc_slice(tap as usize, ic)) {
                    *dst += a * wv;
                }
            }
        }
        // `out_coords` is already raster-sorted, so no canonicalize pass.
        SparseTensor::from_coord_features(self.out_extent, out_ch, self.out_coords.clone(), acc)
            .map_err(SscnError::from)
    }

    /// Stride/window K_d.
    pub fn kd(&self) -> u32 {
        self.kd
    }

    /// Number of input sites the map covers.
    pub fn sites(&self) -> usize {
        self.rows.len()
    }

    /// The coarse (output) active set, raster-ordered.
    pub fn out_coords(&self) -> &[Coord3] {
        &self.out_coords
    }

    /// Per input site (storage order): its row in [`StridedMap::out_coords`].
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// Per input site (storage order): its corner-anchored tap index.
    pub fn taps(&self) -> &[u32] {
        &self.taps
    }

    /// Heap bytes retained by the map's index arrays (the LRU currency).
    pub fn heap_bytes(&self) -> usize {
        self.rows.len() * 4 + self.taps.len() * 4 + self.out_coords.len() * size_of::<Coord3>()
    }
}

/// The cached geometry of one transpose (upsampling) convolution: for
/// every canonical output (fine) site, the coarse storage row it gathers
/// from (or [`NO_SOURCE`]) and the tap it applies.
///
/// The map depends on **both** active sets — the coarse input's and the
/// fine target's — so its cache key carries both fingerprints.
#[derive(Debug, Clone)]
pub struct TransposeMap {
    kd: u32,
    coarse_extent: Extent3,
    fine_extent: Extent3,
    /// Number of coarse input sites the map was built over.
    coarse_sites: usize,
    /// Per canonical output row: coarse storage row, or [`NO_SOURCE`].
    src: Vec<u32>,
    /// Per canonical output row: corner-anchored tap index.
    taps: Vec<u32>,
    /// The fine target active set in raster (canonical) order.
    out_coords: Vec<Coord3>,
}

impl TransposeMap {
    /// Builds the map from a coarse input geometry and an explicit fine
    /// target set (the skip connection's active set).
    ///
    /// # Errors
    ///
    /// Returns [`SscnError::InvalidConfig`] when `fine_extent` does not
    /// downsample to the input's extent, and a tensor error for an
    /// out-of-bounds or duplicated target coordinate — the same contract
    /// as [`crate::sparse_ops::transpose_conv3d`].
    pub fn build<T: Copy>(
        input: &SparseTensor<T>,
        kd: u32,
        fine_extent: Extent3,
        target: &[Coord3],
    ) -> Result<TransposeMap> {
        assert!(kd > 0, "stride must be nonzero");
        if downsampled_extent(fine_extent, kd) != input.extent() {
            return Err(SscnError::InvalidConfig {
                reason: format!(
                    "fine extent {fine_extent} does not downsample to coarse extent {}",
                    input.extent()
                ),
            });
        }
        let out_coords = canonical_targets(fine_extent, target).map_err(SscnError::from)?;
        // Coarse storage rows keyed by raster index, in raster order (no
        // sort on canonical input): a binary search finds the site
        // covering each target.
        let coarse_extent = input.extent();
        let mut by_key: Vec<(usize, u32)> = input
            .coords()
            .iter()
            .map(|&c| coarse_extent.linear_unchecked(c))
            .zip(0u32..)
            .collect();
        if !input.is_canonical() {
            by_key.sort_unstable();
        }
        let mut src = Vec::with_capacity(out_coords.len());
        let mut taps = Vec::with_capacity(out_coords.len());
        for &p in &out_coords {
            let key = coarse_extent.linear_unchecked(parent(p, kd));
            match by_key.binary_search_by_key(&key, |&(k, _)| k) {
                Ok(pos) => {
                    src.push(by_key[pos].1);
                    taps.push(corner_tap(p, kd));
                }
                Err(_) => {
                    src.push(NO_SOURCE);
                    taps.push(0);
                }
            }
        }
        Ok(TransposeMap {
            kd,
            coarse_extent: input.extent(),
            fine_extent,
            coarse_sites: input.nnz(),
            src,
            taps,
            out_coords,
        })
    }

    /// Replays the map: every output row gathers from its (single)
    /// covering coarse site. **Bit-identical** to
    /// [`crate::sparse_ops::transpose_conv3d`] on the geometry the map
    /// was built from — output rows are independent, so computing them in
    /// canonical order reproduces the direct kernel's canonicalized
    /// output exactly.
    ///
    /// # Errors
    ///
    /// Returns [`SscnError::ChannelMismatch`] on a channel mismatch and
    /// [`SscnError::InvalidConfig`] when the map does not fit the
    /// input/layer.
    pub fn apply(
        &self,
        input: &SparseTensor<f32>,
        w: &StridedWeights,
    ) -> Result<SparseTensor<f32>> {
        if input.channels() != w.in_ch() {
            return Err(SscnError::ChannelMismatch {
                expected: w.in_ch(),
                got: input.channels(),
            });
        }
        if self.kd != w.kd()
            || self.coarse_sites != input.nnz()
            || self.coarse_extent != input.extent()
        {
            return Err(SscnError::InvalidConfig {
                reason: "transpose map does not match this input/layer".into(),
            });
        }
        let in_ch = w.in_ch();
        let out_ch = w.out_ch();
        let feats = input.features();
        let mut out = vec![0.0f32; self.out_coords.len() * out_ch];
        for ((&row, &tap), dst) in self
            .src
            .iter()
            .zip(&self.taps)
            .zip(out.chunks_exact_mut(out_ch))
        {
            if row == NO_SOURCE {
                continue;
            }
            let f = &feats[row as usize * in_ch..][..in_ch];
            for (ic, &a) in f.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for (dst, &wv) in dst.iter_mut().zip(w.oc_slice(tap as usize, ic)) {
                    *dst += a * wv;
                }
            }
        }
        SparseTensor::from_coord_features(self.fine_extent, out_ch, self.out_coords.clone(), out)
            .map_err(SscnError::from)
    }

    /// Stride/window K_d.
    pub fn kd(&self) -> u32 {
        self.kd
    }

    /// Number of fine output sites the map produces.
    pub fn sites(&self) -> usize {
        self.out_coords.len()
    }

    /// The fine target active set, raster-ordered.
    pub fn out_coords(&self) -> &[Coord3] {
        &self.out_coords
    }

    /// Per output row: the coarse storage row it gathers from, or
    /// [`NO_SOURCE`].
    pub fn sources(&self) -> &[u32] {
        &self.src
    }

    /// Per output row: its corner-anchored tap index (0 without a source).
    pub fn taps(&self) -> &[u32] {
        &self.taps
    }

    /// Heap bytes retained by the map's index arrays.
    pub fn heap_bytes(&self) -> usize {
        self.src.len() * 4 + self.taps.len() * 4 + self.out_coords.len() * size_of::<Coord3>()
    }
}

/// The cached geometry of one strided max pooling: for every input site
/// (in storage order) the canonical output row it reduces into.
#[derive(Debug, Clone)]
pub struct PoolMap {
    kd: u32,
    in_extent: Extent3,
    out_extent: Extent3,
    /// Per input site (storage order): canonical coarse output row.
    rows: Vec<u32>,
    /// Coarse active set in raster (canonical) order.
    out_coords: Vec<Coord3>,
}

impl PoolMap {
    /// Builds the map from an input geometry, as [`StridedMap::build`]
    /// does.
    pub fn build<T: Copy>(input: &SparseTensor<T>, kd: u32) -> PoolMap {
        assert!(kd > 0, "pool window must be nonzero");
        let (out_coords, rows) = coarse_rows(input.extent(), input.coords(), kd);
        PoolMap {
            kd,
            in_extent: input.extent(),
            out_extent: downsampled_extent(input.extent(), kd),
            rows,
            out_coords,
        }
    }

    /// Replays the map: first touch of an output row copies the feature
    /// vector, later touches take the per-channel maximum — exactly the
    /// occupied/vacant split of [`crate::pool::sparse_max_pool`], so the
    /// output is **bit-identical** on the geometry the map was built from.
    ///
    /// # Errors
    ///
    /// Returns [`SscnError::InvalidConfig`] when the map does not fit the
    /// input.
    pub fn apply(&self, input: &SparseTensor<f32>) -> Result<SparseTensor<f32>> {
        if self.rows.len() != input.nnz() || self.in_extent != input.extent() {
            return Err(SscnError::InvalidConfig {
                reason: "pool map does not match this input".into(),
            });
        }
        let ch = input.channels();
        let mut acc = vec![0.0f32; self.out_coords.len() * ch];
        let mut seen = vec![false; self.out_coords.len()];
        for (f, &row) in input.features().chunks_exact(ch).zip(&self.rows) {
            let r = row as usize;
            let dst = &mut acc[r * ch..][..ch];
            if seen[r] {
                for (dst, &v) in dst.iter_mut().zip(f) {
                    *dst = dst.max(v);
                }
            } else {
                dst.copy_from_slice(f);
                seen[r] = true;
            }
        }
        SparseTensor::from_coord_features(self.out_extent, ch, self.out_coords.clone(), acc)
            .map_err(SscnError::from)
    }

    /// Pool window K_d.
    pub fn kd(&self) -> u32 {
        self.kd
    }

    /// Number of input sites the map covers.
    pub fn sites(&self) -> usize {
        self.rows.len()
    }

    /// The coarse (output) active set, raster-ordered.
    pub fn out_coords(&self) -> &[Coord3] {
        &self.out_coords
    }

    /// Per input site (storage order): its row in [`PoolMap::out_coords`].
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// Heap bytes retained by the map's index arrays.
    pub fn heap_bytes(&self) -> usize {
        self.rows.len() * 4 + self.out_coords.len() * size_of::<Coord3>()
    }
}

/// The coarse site covering fine site `c` under window `kd`.
fn parent(c: Coord3, kd: u32) -> Coord3 {
    let kd = kd as i32;
    Coord3::new(c.x.div_euclid(kd), c.y.div_euclid(kd), c.z.div_euclid(kd))
}

/// The corner-anchored tap (dz fastest) of fine site `c` within its
/// window, as [`StridedWeights::tap`] numbers it.
fn corner_tap(c: Coord3, kd: u32) -> u32 {
    let kd = kd as i32;
    ((c.x.rem_euclid(kd) * kd + c.y.rem_euclid(kd)) * kd + c.z.rem_euclid(kd)) as u32
}

/// The coarse active set of `coords` (sites on `extent`) under window
/// `kd` in raster order, and each site's row in it — the first-touch rows
/// of the direct kernels after their trailing `canonicalize()`, without a
/// hash map. Parents are sorted and searched by their raster index, which
/// orders exactly as the coordinates do.
fn coarse_rows(extent: Extent3, coords: &[Coord3], kd: u32) -> (Vec<Coord3>, Vec<u32>) {
    let coarse_extent = downsampled_extent(extent, kd);
    let keys: Vec<usize> = coords
        .iter()
        .map(|&c| coarse_extent.linear_unchecked(parent(c, kd)))
        .collect();
    let mut coarse = keys.clone();
    coarse.sort_unstable();
    coarse.dedup();
    let rows = keys
        .iter()
        .map(|k| {
            let row = coarse.binary_search(k);
            row.expect("every site's parent is in the coarse set") as u32
        })
        .collect();
    let coarse = coarse
        .into_iter()
        .map(|k| coarse_extent.delinear(k))
        .collect();
    (coarse, rows)
}

/// `target` in raster order, validated as
/// [`SparseTensor::from_coord_features`] validates coordinates: the first
/// failing position in `target` order decides the error, out of bounds
/// before repeated.
fn canonical_targets(extent: Extent3, target: &[Coord3]) -> esca_tensor::Result<Vec<Coord3>> {
    let oob = target.iter().position(|&c| !extent.contains(c));
    if oob.is_none() && target.windows(2).all(|w| w[0] < w[1]) {
        return Ok(target.to_vec());
    }
    // Only positions before the first out-of-bounds one are checked for
    // repeats; a repeat is any position holding an earlier coordinate.
    let checked = &target[..oob.unwrap_or(target.len())];
    let mut sorted: Vec<(Coord3, u32)> = checked.iter().copied().zip(0u32..).collect();
    sorted.sort_unstable();
    let first_repeat = sorted
        .windows(2)
        .filter(|w| w[0].0 == w[1].0)
        .map(|w| w[1].1 as usize)
        .min();
    if let Some(i) = first_repeat {
        return Err(TensorError::DuplicateCoord { coord: target[i] });
    }
    if let Some(i) = oob {
        return Err(TensorError::OutOfBounds {
            coord: target[i],
            extent,
        });
    }
    Ok(sorted.into_iter().map(|(c, _)| c).collect())
}

/// One geometry artifact in a [`GeometryPlan`], in network execution
/// order. Steps hold [`Arc`]s, so a plan shares storage with the
/// per-op geometry cache rather than duplicating rule lists.
#[derive(Debug, Clone)]
pub enum PlanStep {
    /// A submanifold Sub-Conv layer's rulebook.
    SubConv(Arc<Rulebook>),
    /// A strided (downsampling) convolution's site map.
    Strided(Arc<StridedMap>),
    /// A transpose (upsampling) convolution's gather map.
    Transpose(Arc<TransposeMap>),
    /// A strided max pooling's reduction map.
    Pool(Arc<PoolMap>),
}

impl PlanStep {
    /// Heap bytes of the underlying artifact.
    pub fn heap_bytes(&self) -> usize {
        match self {
            PlanStep::SubConv(b) => b.heap_bytes(),
            PlanStep::Strided(m) => m.heap_bytes(),
            PlanStep::Transpose(m) => m.heap_bytes(),
            PlanStep::Pool(m) => m.heap_bytes(),
        }
    }
}

/// A whole-network geometry plan: the ordered sequence of every geometry
/// artifact one forward pass of a fixed network consumes over a fixed
/// frame geometry. Built once on the first pass (through the per-op
/// geometry cache), replayed on every later pass with **zero** matching
/// work and no per-layer cache lookups — one [`PlanCache`] probe covers
/// the whole frame.
#[derive(Debug, Clone, Default)]
pub struct GeometryPlan {
    steps: Vec<PlanStep>,
}

impl GeometryPlan {
    /// Wraps an ordered step sequence.
    pub fn new(steps: Vec<PlanStep>) -> GeometryPlan {
        GeometryPlan { steps }
    }

    /// The steps in network execution order.
    pub fn steps(&self) -> &[PlanStep] {
        &self.steps
    }

    /// Number of geometry steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the plan has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Sum of the steps' heap bytes (the plan-cache LRU currency; shared
    /// `Arc` storage is counted per plan, modeling a deployment that
    /// keeps each plan's artifacts resident).
    pub fn heap_bytes(&self) -> usize {
        self.steps.iter().map(PlanStep::heap_bytes).sum()
    }
}

/// Cache key of a whole-network plan: a network-identity digest (the
/// geometry-relevant architecture parameters, see [`digest_u64s`]) plus
/// the frame's active-set fingerprint. Two frames share a plan exactly
/// when the same network sees the same geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Network-identity digest ([`digest_u64s`] over the architecture
    /// parameters that determine the geometry-op sequence).
    pub network: u64,
    /// The frame's active-set fingerprint.
    pub frame: ActiveSetFingerprint,
}

/// Network-identity digest tag for resident quantized Sub-Conv stacks
/// ([`crate::engine::FlatEngine::run_stack_q`]).
pub const NET_TAG_STACK: u64 = 0x5354_4143_4b30_3031; // "STACK001"-ish
/// Network-identity digest tag for the SS U-Net
/// (`SsUNet::forward_engine`).
pub const NET_TAG_UNET: u64 = 0x554e_4554_3030_3031;
/// Network-identity digest tag for the SSCN classifier
/// (`SscnClassifier::forward_engine`).
pub const NET_TAG_CLASSIFIER: u64 = 0x434c_5346_3030_3031;

/// Stable FNV-1a fold of a `u64` stream under a caller-chosen tag —
/// the helper network types use to derive [`PlanKey::network`] digests.
/// Distinct tags keep different network families (U-Net, classifier,
/// resident stacks) from ever colliding on a digest.
pub fn digest_u64s<I: IntoIterator<Item = u64>>(tag: u64, vals: I) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in std::iter::once(tag).chain(vals) {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// One cached plan plus the bookkeeping the LRU budget needs.
#[derive(Debug)]
struct PlanEntry {
    plan: Arc<GeometryPlan>,
    bytes: usize,
    last_used: AtomicU64,
}

#[derive(Debug, Default)]
struct PlanInner {
    plans: HashMap<PlanKey, PlanEntry>,
    bytes: usize,
}

/// A thread-safe cache of whole-network [`GeometryPlan`]s keyed by
/// [`PlanKey`]. Shared behind an [`Arc`] across frames, sessions and
/// worker threads; the steady state of a static-scene stream is one
/// [`PlanCache::get`] hit per frame and **zero** geometry construction.
///
/// Mirrors [`crate::engine::RulebookCache`]'s behavior: atomic hit/miss/
/// eviction counters readable concurrently with use, an optional byte
/// budget with deterministic unique-timestamp LRU eviction (eviction can
/// only force a rebuild, never change an output), and a division-safe
/// [`PlanCache::hit_rate`].
#[derive(Debug, Default)]
pub struct PlanCache {
    inner: RwLock<PlanInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    tick: AtomicU64,
    cap_bytes: Option<usize>,
}

impl PlanCache {
    /// Creates an empty, unbounded plan cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Creates an empty cache that retains at most `cap` bytes of plan
    /// artifacts (as counted by [`GeometryPlan::heap_bytes`]), evicting
    /// least-recently-used plans past the budget. The plan being inserted
    /// is never evicted.
    pub fn with_capacity_bytes(cap: usize) -> Self {
        PlanCache {
            cap_bytes: Some(cap),
            ..PlanCache::default()
        }
    }

    /// Builds a shared cache from the process environment:
    /// `ESCA_PLAN_CACHE=1|true|on` enables it (optionally bounded by
    /// `ESCA_PLAN_CACHE_BYTES`), anything else returns `None`.
    pub fn from_env() -> Option<Arc<PlanCache>> {
        let enabled = std::env::var("ESCA_PLAN_CACHE")
            .map(|v| matches!(v.trim(), "1" | "true" | "on"))
            .unwrap_or(false);
        if !enabled {
            return None;
        }
        let cache = match std::env::var("ESCA_PLAN_CACHE_BYTES")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            Some(cap) => PlanCache::with_capacity_bytes(cap),
            None => PlanCache::new(),
        };
        Some(Arc::new(cache))
    }

    /// Whether a plan for `key` is resident, **without** counting a hit
    /// or miss or touching its LRU timestamp. This is the probe the
    /// cycle-model streaming path uses to derive deterministic
    /// matching-residency hints — it must not perturb the host-domain
    /// hit/miss accounting of the golden path.
    pub fn contains(&self, key: &PlanKey) -> bool {
        self.inner
            .read()
            .expect("plan cache lock")
            .plans
            .contains_key(key)
    }

    /// Looks the key up, counting a hit or a miss. A miss is expected to
    /// be followed by a build + [`PlanCache::insert`].
    pub fn get(&self, key: &PlanKey) -> Option<Arc<GeometryPlan>> {
        if let Some(entry) = self.inner.read().expect("plan cache lock").plans.get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            entry
                .last_used
                .store(self.tick.fetch_add(1, Ordering::Relaxed), Ordering::Relaxed);
            return Some(Arc::clone(&entry.plan));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Inserts a freshly built plan. Two concurrent first builds may
    /// race; the first insert wins and both callers' plans are
    /// structurally equal (plans are pure functions of the key). Returns
    /// the resident plan.
    pub fn insert(&self, key: PlanKey, plan: GeometryPlan) -> Arc<GeometryPlan> {
        let mut inner = self.inner.write().expect("plan cache lock");
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        match inner.plans.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                e.get().last_used.store(tick, Ordering::Relaxed);
                Arc::clone(&e.get().plan)
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                let bytes = plan.heap_bytes();
                let plan = Arc::clone(
                    &v.insert(PlanEntry {
                        plan: Arc::new(plan),
                        bytes,
                        last_used: AtomicU64::new(tick),
                    })
                    .plan,
                );
                inner.bytes += bytes;
                if let Some(cap) = self.cap_bytes {
                    self.evict_to_cap(&mut inner, cap, &key);
                }
                plan
            }
        }
    }

    /// Evicts least-recently-used plans (never `keep`) until the byte
    /// budget is met or only `keep` remains. Deterministic: `last_used`
    /// timestamps are unique.
    fn evict_to_cap(&self, inner: &mut PlanInner, cap: usize, keep: &PlanKey) {
        while inner.bytes > cap && inner.plans.len() > 1 {
            let victim = inner
                .plans
                .iter()
                .filter(|(k, _)| *k != keep)
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            if let Some(e) = inner.plans.remove(&victim) {
                inner.bytes -= e.bytes;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Number of plan hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of plan misses (whole-network builds) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of plans evicted by the byte budget so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Hits over total lookups, in [0, 1]; zero before any lookup
    /// (division-safe — never NaN).
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// Number of whole-network plans resident.
    pub fn len(&self) -> usize {
        self.inner.read().expect("plan cache lock").plans.len()
    }

    /// Whether no plan is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total plan heap bytes currently retained.
    pub fn bytes(&self) -> usize {
        self.inner.read().expect("plan cache lock").bytes
    }

    /// The byte budget, or `None` for the unbounded default.
    pub fn capacity_bytes(&self) -> Option<usize> {
        self.cap_bytes
    }

    /// Emits the cache's point-in-time totals into a telemetry registry
    /// (`esca_plan_cache_*`). Counters carry lifetime totals — record
    /// into a fresh registry. Like the rulebook-cache series, the
    /// hit/miss split is a host scheduling fact and belongs in a
    /// **host-domain** registry; counter merges are plain sums, so
    /// recording is commutative across caches.
    pub fn record_metrics(&self, reg: &mut Registry) {
        reg.counter_add("esca_plan_cache_hits_total", &[], self.hits());
        reg.counter_add("esca_plan_cache_misses_total", &[], self.misses());
        reg.counter_add("esca_plan_cache_evictions_total", &[], self.evictions());
        reg.gauge_max("esca_plan_cache_resident_bytes", &[], self.bytes() as u64);
        reg.gauge_max("esca_plan_cache_entries", &[], self.len() as u64);
        if let Some(cap) = self.capacity_bytes() {
            reg.gauge_max("esca_plan_cache_capacity_bytes", &[], cap as u64);
        }
    }

    /// Drops every cached plan and resets the counters.
    pub fn clear(&self) {
        let mut inner = self.inner.write().expect("plan cache lock");
        inner.plans.clear();
        inner.bytes = 0;
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::sparse_max_pool;
    use crate::sparse_ops::{strided_conv3d, transpose_conv3d};
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
    fn strided_map_replay_is_bit_identical_to_direct() {
        for seed in 0..4 {
            let input = random_input(seed, 13, 3, 80);
            let w = StridedWeights::seeded(2, 3, 5, seed + 50);
            let direct = strided_conv3d(&input, &w).unwrap();
            let map = StridedMap::build(&input, 2);
            let replay = map.apply(&input, &w).unwrap();
            assert_eq!(replay.coords(), direct.coords(), "storage order differs");
            assert_eq!(replay.features(), direct.features(), "not bitwise equal");
            // The map is value-independent: new features, same geometry.
            let other = input.map(|v| v * -1.5);
            let replay2 = map.apply(&other, &w).unwrap();
            let direct2 = strided_conv3d(&other, &w).unwrap();
            assert_eq!(replay2.features(), direct2.features());
        }
    }

    #[test]
    fn transpose_map_replay_is_bit_identical_to_direct() {
        for seed in 0..4 {
            let fine = random_input(seed + 10, 12, 1, 60);
            let down = StridedWeights::seeded(2, 1, 4, seed + 60);
            let coarse = strided_conv3d(&fine, &down).unwrap();
            let up = StridedWeights::seeded(2, 4, 3, seed + 70);
            let direct = transpose_conv3d(&coarse, &up, fine.extent(), fine.coords()).unwrap();
            let map = TransposeMap::build(&coarse, 2, fine.extent(), fine.coords()).unwrap();
            let replay = map.apply(&coarse, &up).unwrap();
            assert_eq!(replay.coords(), direct.coords(), "storage order differs");
            assert_eq!(replay.features(), direct.features(), "not bitwise equal");
        }
    }

    #[test]
    fn pool_map_replay_is_bit_identical_to_direct() {
        for seed in 0..4 {
            let input = random_input(seed + 20, 11, 4, 70);
            let direct = sparse_max_pool(&input, 2);
            let map = PoolMap::build(&input, 2);
            let replay = map.apply(&input).unwrap();
            assert_eq!(replay.coords(), direct.coords(), "storage order differs");
            assert_eq!(replay.features(), direct.features(), "not bitwise equal");
        }
    }

    #[test]
    fn transpose_map_keeps_direct_error_contract() {
        let coarse = random_input(30, 4, 1, 6);
        // Mismatched fine extent.
        assert!(matches!(
            TransposeMap::build(&coarse, 2, Extent3::cube(16), &[]),
            Err(SscnError::InvalidConfig { .. })
        ));
        // Duplicated target coordinate.
        let dup = [Coord3::new(1, 1, 1), Coord3::new(1, 1, 1)];
        assert!(TransposeMap::build(&coarse, 2, Extent3::cube(8), &dup).is_err());
    }

    #[test]
    fn maps_reject_mismatched_inputs() {
        let a = random_input(40, 10, 2, 30);
        let b = random_input(41, 10, 2, 31);
        let w = StridedWeights::seeded(2, 2, 3, 90);
        let map = StridedMap::build(&a, 2);
        assert!(matches!(
            map.apply(&b, &w),
            Err(SscnError::InvalidConfig { .. })
        ));
        let w_bad = StridedWeights::seeded(2, 3, 3, 91);
        assert!(matches!(
            map.apply(&a, &w_bad),
            Err(SscnError::ChannelMismatch { .. })
        ));
        let pool = PoolMap::build(&a, 2);
        assert!(pool.apply(&b).is_err());
    }

    #[test]
    fn empty_input_maps_work() {
        let t = SparseTensor::<f32>::new(Extent3::cube(8), 2);
        let w = StridedWeights::seeded(2, 2, 3, 92);
        let out = StridedMap::build(&t, 2).apply(&t, &w).unwrap();
        assert!(out.is_empty());
        let pooled = PoolMap::build(&t, 2).apply(&t).unwrap();
        assert!(pooled.is_empty());
    }

    #[test]
    fn plan_cache_counts_hits_misses_and_is_division_safe() {
        let cache = PlanCache::new();
        assert_eq!(cache.hit_rate(), 0.0, "empty cache hit rate must be 0");
        let key = PlanKey {
            network: digest_u64s(1, [3u64]),
            frame: random_input(50, 8, 1, 10).active_fingerprint(),
        };
        assert!(cache.get(&key).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let plan = GeometryPlan::new(vec![PlanStep::Pool(Arc::new(PoolMap::build(
            &random_input(50, 8, 1, 10),
            2,
        )))]);
        let resident = cache.insert(key, plan);
        assert!(!resident.is_empty());
        assert!(cache.bytes() > 0);
        assert!(cache.get(&key).is_some());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }

    #[test]
    fn plan_cache_metrics_record_and_merge_commutatively() {
        let a = PlanCache::new();
        let b = PlanCache::new();
        let key = PlanKey {
            network: 7,
            frame: random_input(51, 8, 1, 12).active_fingerprint(),
        };
        let _ = a.get(&key);
        a.insert(key, GeometryPlan::default());
        let _ = a.get(&key);
        let _ = b.get(&key);
        let mut ab = Registry::new();
        a.record_metrics(&mut ab);
        b.record_metrics(&mut ab);
        let mut ba = Registry::new();
        b.record_metrics(&mut ba);
        a.record_metrics(&mut ba);
        assert_eq!(ab, ba, "record_metrics must merge commutatively");
        assert_eq!(ab.counter("esca_plan_cache_hits_total", &[]), Some(1));
        assert_eq!(ab.counter("esca_plan_cache_misses_total", &[]), Some(2));
    }

    #[test]
    fn plan_cache_lru_evicts_to_budget_and_never_the_insert() {
        let frame_a = random_input(60, 10, 1, 40);
        let frame_b = random_input(61, 10, 1, 40);
        let plan_of = |f: &SparseTensor<f32>| {
            GeometryPlan::new(vec![PlanStep::Strided(Arc::new(StridedMap::build(f, 2)))])
        };
        let one = plan_of(&frame_a)
            .heap_bytes()
            .max(plan_of(&frame_b).heap_bytes());
        let cache = PlanCache::with_capacity_bytes(one);
        let key_a = PlanKey {
            network: 1,
            frame: frame_a.active_fingerprint(),
        };
        let key_b = PlanKey {
            network: 1,
            frame: frame_b.active_fingerprint(),
        };
        cache.insert(key_a, plan_of(&frame_a));
        assert_eq!(cache.len(), 1);
        cache.insert(key_b, plan_of(&frame_b));
        // The older plan was evicted; the fresh insert survived.
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(&key_b).is_some());
        assert!(cache.bytes() <= one);
    }

    #[test]
    fn digests_are_stable_and_tag_separated() {
        let a = digest_u64s(1, [3u64, 2, 1]);
        let b = digest_u64s(1, [3u64, 2, 1]);
        let c = digest_u64s(2, [3u64, 2, 1]);
        let d = digest_u64s(1, [3u64, 2, 2]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn from_env_respects_the_switch() {
        // The test process may or may not define the variable; only the
        // parsing contract is checked here, via explicit construction.
        let unbounded = PlanCache::new();
        assert_eq!(unbounded.capacity_bytes(), None);
        let bounded = PlanCache::with_capacity_bytes(1024);
        assert_eq!(bounded.capacity_bytes(), Some(1024));
    }
}
