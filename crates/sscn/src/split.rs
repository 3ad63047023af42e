//! The row split behind [`crate::engine::FlatEngine`]'s f32 Sub-Conv: a
//! large layer's output rows are cut into contiguous chunks, and the
//! calling thread plus the engine's long-lived helper threads claim them
//! from one atomic counter.
//!
//! **Layout.** The chunk size depends only on the layer's site count
//! ([`chunk_rows`]): at most [`MAX_CHUNKS`] chunks of at least
//! [`MIN_CHUNK_ROWS`] rows.
//!
//! **Exactness.** A rulebook lists each tap's pairs in output storage
//! order with at most one pair per `(tap, output)`, so a chunk's pairs in
//! every tap are one `partition_point` range. A thread runs every tap in
//! tap order over that range, rebased onto the chunk's bias-initialized
//! rows. Each output element therefore sees its additions in the serial
//! kernel's order, and both GEMM backends give per-element arithmetic that
//! does not depend on how a tap's rules are grouped ([`crate::gemm`]): the
//! output is byte-identical to [`crate::engine::apply_rulebook_flat_with`]
//! for every thread count and chunk layout.
//!
//! **Scheduling.** Helpers are spawned once and parked on a channel; a
//! layer wakes them with one token each. The caller computes its chunks
//! straight into the output; a helper computes each chunk it claims into
//! that chunk's own buffer, holding the buffer's lock until it is done.
//! When no chunk is left to claim the caller waits for nobody: it copies
//! each finished helper chunk and computes any chunk whose buffer is still
//! locked or empty itself. So a helper that wakes late, runs slowly or is
//! descheduled by the host costs at most the chunks it held, never a
//! stall, and a helper that died costs nothing more. The layer's input,
//! rulebook and weights reach the helpers by move and by reference count,
//! with no copy, and in steady state nothing allocates but the output.
//!
//! **Failure.** A helper that died (a panic, or a closed channel) is
//! noticed at the end of the layer; the engine then drops the split,
//! joining the helpers, and stays serial.

use crate::gemm::GemmBackendKind;
use crate::rulebook::{Rulebook, TapRules};
use crate::weights::ConvWeights;
use crate::{Result, SscnError};
use esca_tensor::SparseTensor;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::{self, JoinHandle};

/// Most chunks one layer is cut into; the chunks a caller computed fit
/// one `u64` mask.
const MAX_CHUNKS: usize = 16;

/// Fewest rows in a chunk, so small layers do not pay the per-chunk tap
/// searches for a handful of rows.
const MIN_CHUNK_ROWS: usize = 16;

/// Smallest layer, in MACs, that is split. On the 2-vCPU reference host
/// a split costs about 20 µs on a tiny layer (waking the helper, chunk
/// boundaries, copying the helper's rows) and breaks even between 0.5
/// and 1 M MACs; from 2²¹ MACs on it saved 12-27 % per layer. The margin
/// covers a second core that is busy elsewhere. In the benchmark U-Net
/// this leaves only the stem (0.47 M MACs) serial.
pub(crate) const MIN_SPLIT_MACS: u64 = 1 << 21;

/// Most helper threads one engine keeps, however many cores the host has.
const MAX_HELPERS: usize = 3;

/// Helper threads an engine keeps by default: one per core beyond the
/// caller's, capped at [`MAX_HELPERS`]. Read once per process.
pub(crate) fn default_helpers() -> usize {
    static SPARE: OnceLock<usize> = OnceLock::new();
    *SPARE.get_or_init(|| {
        thread::available_parallelism()
            .map_or(0, |n| n.get() - 1)
            .min(MAX_HELPERS)
    })
}

/// Rows per chunk of a layer over `sites` sites.
fn chunk_rows(sites: usize) -> usize {
    sites.div_ceil(MAX_CHUNKS).max(MIN_CHUNK_ROWS)
}

/// One f32 Sub-Conv layer, owned by the split while its chunks run.
#[derive(Debug)]
pub(crate) struct Layer {
    /// The layer input (moved in; the output shares its active set).
    pub(crate) input: SparseTensor<f32>,
    /// The input's rulebook.
    pub(crate) rb: Arc<Rulebook>,
    /// The layer weights (a clone shares their storage).
    pub(crate) w: ConvWeights,
    /// The GEMM backend every thread runs.
    pub(crate) backend: GemmBackendKind,
    /// Whether the output is ReLU'd.
    pub(crate) relu: bool,
}

impl Layer {
    /// Number of chunks the layer is cut into.
    fn chunks(&self) -> usize {
        self.input.nnz().div_ceil(chunk_rows(self.input.nnz()))
    }

    /// The output rows `lo..hi` of chunk `c`.
    fn rows(&self, c: usize) -> (usize, usize) {
        let n = self.input.nnz();
        let rows = chunk_rows(n);
        (c * rows, ((c + 1) * rows).min(n))
    }

    /// Number of kernel taps.
    fn taps(&self) -> usize {
        (self.w.k() as usize).pow(3)
    }

    /// Fills `bounds` with every tap's chunk boundaries: entry
    /// `tap * (chunks + 1) + c` is the tap's first pair whose output lies
    /// in chunk `c` or later (the tap's pair count for `c = chunks`).
    fn chunk_bounds(&self, bounds: &mut Vec<usize>) {
        let chunks = self.chunks();
        bounds.clear();
        for tap in 0..self.taps() {
            let out = &self.rb.tap(tap).output;
            let mut a = 0;
            for c in 0..chunks {
                let lo = self.rows(c).0;
                a += out[a..].partition_point(|&o| (o as usize) < lo);
                bounds.push(a);
            }
            bounds.push(out.len());
        }
    }

    /// Accumulates chunk `c` into `acc`, the chunk's bias-initialized
    /// rows: every tap in tap order over the tap's pairs whose output lies
    /// in the chunk (`bounds` from [`Layer::chunk_bounds`]), rebased onto
    /// the chunk through `rules`.
    fn accumulate(&self, c: usize, bounds: &[usize], rules: &mut TapRules, acc: &mut [f32]) {
        let lo = self.rows(c).0 as u32;
        let (in_ch, out_ch) = (self.w.in_ch(), self.w.out_ch());
        let feats = self.input.features();
        let backend = self.backend.backend();
        let stride = self.chunks() + 1;
        for tap in 0..self.taps() {
            let t = self.rb.tap(tap);
            let (a, b) = (bounds[tap * stride + c], bounds[tap * stride + c + 1]);
            if a == b {
                continue;
            }
            rules.input.clear();
            rules.input.extend_from_slice(&t.input[a..b]);
            rules.output.clear();
            rules.output.extend(t.output[a..b].iter().map(|&o| o - lo));
            backend.tap_f32(feats, rules, self.w.tap_slice(tap), in_ch, out_ch, acc);
        }
    }

    /// The output rows of chunk `c` as a range of feature values.
    fn span(&self, c: usize) -> std::ops::Range<usize> {
        let (lo, hi) = self.rows(c);
        lo * self.w.out_ch()..hi * self.w.out_ch()
    }
}

/// A helper's result for one chunk: its rows before ReLU, valid once
/// `done`.
#[derive(Debug, Default)]
struct ChunkResult {
    acc: Vec<f32>,
    done: bool,
}

/// One layer as the helpers see it. Published behind an [`Arc`]; the
/// caller only rewrites a slot no helper still holds.
#[derive(Debug, Default)]
struct Slot {
    layer: Option<Layer>,
    /// [`Layer::chunk_bounds`].
    bounds: Vec<usize>,
    /// The next unclaimed chunk.
    next: AtomicUsize,
    /// One buffer per chunk; a helper locks it while computing.
    results: Vec<Mutex<ChunkResult>>,
}

impl Slot {
    /// Claims chunks until none is left, computing each into its buffer.
    fn help(&self, rules: &mut TapRules) {
        let Some(layer) = &self.layer else {
            return;
        };
        let chunks = layer.chunks();
        loop {
            let c = self.next.fetch_add(1, Ordering::Relaxed);
            if c >= chunks {
                return;
            }
            let mut r = self.results[c]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let (lo, hi) = layer.rows(c);
            r.acc.clear();
            for _ in lo..hi {
                r.acc.extend_from_slice(layer.w.bias());
            }
            layer.accumulate(c, &self.bounds, rules, &mut r.acc);
            r.done = true;
        }
    }
}

/// What the caller and its helpers share for the engine's lifetime: the
/// slot of the running layer, if any.
#[derive(Debug, Default)]
struct Shared {
    current: Mutex<Option<Arc<Slot>>>,
    /// Test hook: a failure the next woken helper injects.
    #[cfg(test)]
    fail: std::sync::atomic::AtomicU8,
}

impl Shared {
    /// A helper thread's life: park on the wake channel, help with the
    /// layer it is woken for, and return when the channel closes.
    fn serve(&self, wake: Receiver<()>) {
        let mut rules = TapRules::default();
        while wake.recv().is_ok() {
            let slot = self
                .current
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone();
            #[cfg(test)]
            self.fail_point(slot.as_deref());
            if let Some(slot) = slot {
                slot.help(&mut rules);
            }
        }
    }

    /// Test hook: [`FAIL_ON_WAKE`] panics a woken helper;
    /// [`FAIL_AFTER_CLAIM`] panics it while it holds a claimed chunk.
    #[cfg(test)]
    fn fail_point(&self, slot: Option<&Slot>) {
        match self.fail.load(Ordering::Relaxed) {
            FAIL_ON_WAKE => panic!("helper failure injected on wake"),
            FAIL_AFTER_CLAIM => {
                let c = slot.map_or(usize::MAX, |s| s.next.fetch_add(1, Ordering::Relaxed));
                let _held = slot.and_then(|s| s.results.get(c)).map(Mutex::lock);
                panic!("helper failure injected after a claim");
            }
            _ => {}
        }
    }
}

#[cfg(test)]
const FAIL_ON_WAKE: u8 = 1;
#[cfg(test)]
const FAIL_AFTER_CLAIM: u8 = 2;

/// One parked helper thread and its wake channel.
#[derive(Debug)]
struct Helper {
    wake: SyncSender<()>,
    thread: JoinHandle<()>,
}

/// An engine's row split: the helper threads, the layer slots and the
/// caller's rebased rules. Dropping it closes every wake channel and joins
/// every helper.
#[derive(Debug)]
pub(crate) struct RowSplit {
    shared: Arc<Shared>,
    helpers: Vec<Helper>,
    /// Slots for published layers; one more is added only while a late
    /// helper still holds every existing one.
    slots: Vec<Arc<Slot>>,
    rules: TapRules,
}

impl RowSplit {
    /// Spawns `helpers` parked helper threads; `None` when one cannot be
    /// spawned (the engine then stays serial).
    pub(crate) fn spawn(helpers: usize) -> Option<RowSplit> {
        let mut split = RowSplit {
            shared: Arc::new(Shared::default()),
            helpers: Vec::with_capacity(helpers),
            slots: Vec::new(),
            rules: TapRules::default(),
        };
        for _ in 0..helpers {
            let (wake, parked) = sync_channel(1);
            let shared = Arc::clone(&split.shared);
            let thread = thread::Builder::new()
                .name("esca-gemm".into())
                .spawn(move || shared.serve(parked))
                .ok()?;
            split.helpers.push(Helper { wake, thread });
        }
        Some(split)
    }

    /// Runs `layer` over the caller and the helpers. Returns the layer
    /// output, plus whether every helper is still alive; on `false` the
    /// engine should drop the split.
    ///
    /// # Errors
    ///
    /// Only if the output cannot take the input's active set, which a
    /// Sub-Conv output always can.
    pub(crate) fn run(&mut self, layer: Layer) -> Result<(SparseTensor<f32>, bool)> {
        let at = self.publish(layer);
        let mut healthy = true;
        for h in &self.helpers {
            // A full channel already holds a wake-up for this helper.
            healthy &= !matches!(h.wake.try_send(()), Err(TrySendError::Disconnected(())));
        }
        let out = self.finish(at)?;
        healthy &= !self.helpers.iter().any(|h| h.thread.is_finished());
        Ok((out, healthy))
    }

    /// Puts `layer` into a slot no helper holds and makes it current;
    /// returns the slot's index. Every other slot no helper holds drops
    /// its layer, so a slot a late helper once held keeps no old input
    /// alive until it is reused.
    fn publish(&mut self, layer: Layer) -> usize {
        let mut free = None;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Some(slot) = Arc::get_mut(slot) {
                slot.layer = None;
                free.get_or_insert(i);
            }
        }
        let at = free.unwrap_or_else(|| {
            self.slots.push(Arc::default());
            self.slots.len() - 1
        });
        if let Some(slot) = Arc::get_mut(&mut self.slots[at]) {
            let chunks = layer.chunks();
            layer.chunk_bounds(&mut slot.bounds);
            slot.layer = Some(layer);
            *slot.next.get_mut() = 0;
            if slot.results.len() < chunks {
                slot.results.resize_with(chunks, Mutex::default);
            }
            for r in &mut slot.results {
                r.clear_poison();
                r.get_mut().unwrap_or_else(PoisonError::into_inner).done = false;
            }
        }
        *self
            .shared
            .current
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(Arc::clone(&self.slots[at]));
        at
    }

    /// The caller's half of the layer in slot `at`: claims and computes
    /// chunks straight into the output, then takes every other chunk from
    /// its helper buffer if it is finished and unlocked, computing it
    /// otherwise. Never waits for a helper.
    fn finish(&mut self, at: usize) -> Result<SparseTensor<f32>> {
        let slot = Arc::clone(&self.slots[at]);
        let Some(layer) = &slot.layer else {
            return Err(SscnError::InvalidConfig {
                reason: "row split published no layer".into(),
            });
        };
        let chunks = layer.chunks();
        let mut acc = Vec::with_capacity(layer.input.nnz() * layer.w.out_ch());
        for _ in 0..layer.input.nnz() {
            acc.extend_from_slice(layer.w.bias());
        }
        let mut mine = 0u64;
        loop {
            let c = slot.next.fetch_add(1, Ordering::Relaxed);
            if c >= chunks {
                break;
            }
            let span = layer.span(c);
            layer.accumulate(c, &slot.bounds, &mut self.rules, &mut acc[span]);
            mine |= 1 << c;
        }
        // Every chunk is claimed: no helper that wakes from now on can
        // help with this layer.
        *self
            .shared
            .current
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = None;
        for c in (0..chunks).filter(|c| mine & (1 << c) == 0) {
            let span = layer.span(c);
            match slot.results[c].try_lock() {
                Ok(r) if r.done => acc[span].copy_from_slice(&r.acc),
                _ => layer.accumulate(c, &slot.bounds, &mut self.rules, &mut acc[span]),
            }
        }
        if layer.relu {
            for v in &mut acc {
                *v = v.max(0.0);
            }
        }
        let out = SparseTensor::from_template(&layer.input, layer.w.out_ch(), acc);
        drop(slot);
        // Free the input now unless a late helper still holds the slot.
        if let Some(slot) = Arc::get_mut(&mut self.slots[at]) {
            slot.layer = None;
        }
        out.map_err(SscnError::from)
    }
}

impl Drop for RowSplit {
    fn drop(&mut self) {
        for Helper { wake, thread } in self.helpers.drain(..) {
            // Closing the channel ends the helper's loop; a helper that
            // panicked has already ended, and its join error says so.
            drop(wake);
            thread.join().ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{apply_rulebook_flat_with, FlatEngine};
    use esca_tensor::{Coord3, Extent3};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    /// Random sites in insertion (not raster) storage order.
    fn shuffled_input(seed: u64, side: u32, ch: usize, n: usize) -> SparseTensor<f32> {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut t = SparseTensor::new(Extent3::cube(side), ch);
        while t.nnz() < n {
            let c = Coord3::new(
                rng.gen_range(0..side as i32),
                rng.gen_range(0..side as i32),
                rng.gen_range(0..side as i32),
            );
            let f: Vec<f32> = (0..ch).map(|_| rng.gen_range(-1.0..1.0)).collect();
            t.insert(c, &f).unwrap();
        }
        t
    }

    fn bits(t: &SparseTensor<f32>) -> Vec<u32> {
        t.features().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn chunk_layout_depends_only_on_sites() {
        assert_eq!(chunk_rows(1), MIN_CHUNK_ROWS);
        assert_eq!(
            chunk_rows(MAX_CHUNKS * MIN_CHUNK_ROWS + 1),
            MIN_CHUNK_ROWS + 1
        );
        for n in [1usize, 15, 16, 17, 500, 511, 512, 513, 40_000] {
            let chunks = n.div_ceil(chunk_rows(n));
            assert!(
                (1..=MAX_CHUNKS).contains(&chunks),
                "{n} sites, {chunks} chunks"
            );
        }
    }

    /// The row split gives the serial kernel's bytes on 1, 2 and 3
    /// threads, on both backends, over shuffled storage order, K ∈ {3, 5}
    /// and a tail output width (24), with and without ReLU.
    #[test]
    fn row_split_is_byte_identical_across_thread_counts() {
        for k in [3u32, 5] {
            let input = shuffled_input(40 + u64::from(k), 12, 3, 500);
            let w1 = ConvWeights::seeded(k, 3, 24, 7);
            let w2 = ConvWeights::seeded(k, 24, 16, 8);
            for kind in GemmBackendKind::ALL {
                let run = |helpers: usize| {
                    let mut eng = FlatEngine::with_helpers(kind, helpers);
                    let y1 = eng.subconv(&input, &w1, true).unwrap();
                    let y2 = eng.subconv(&y1, &w2, false).unwrap();
                    assert_eq!(eng.row_split().is_some(), helpers > 0);
                    assert_eq!(y2.coords(), input.coords());
                    (bits(&y1), bits(&y2))
                };
                let serial = run(0);
                for helpers in [1, 2] {
                    assert_eq!(run(helpers), serial, "K={k} {kind} {helpers} helpers");
                }
            }
        }
    }

    /// Chunks a helper claimed but never finished (it died, or is still
    /// running) are computed by the caller, with unchanged output.
    #[test]
    fn chunks_a_helper_claimed_but_never_finished_are_computed_by_the_caller() {
        let input = shuffled_input(3, 14, 5, 300);
        for kind in GemmBackendKind::ALL {
            let layer = Layer {
                rb: Arc::new(Rulebook::build(&input, 3)),
                input: input.clone(),
                w: ConvWeights::seeded(3, 5, 24, 4),
                backend: kind,
                relu: true,
            };
            let want = apply_rulebook_flat_with(&input, &layer.rb, &layer.w, true, kind.backend());
            let mut split = RowSplit::spawn(0).unwrap();
            let at = split.publish(layer);
            let slot = Arc::clone(&split.slots[at]);
            assert!(slot.layer.as_ref().unwrap().chunks() > 3);
            // Chunk 0: claimed, never started. Chunk 1: claimed, still
            // held. Chunk 2: finished by a helper.
            slot.next.store(3, Ordering::Relaxed);
            let held = slot.results[1].lock().unwrap();
            {
                let mut r = slot.results[2].lock().unwrap();
                let layer = slot.layer.as_ref().unwrap();
                r.acc = (0..layer.span(2).len() / 24)
                    .flat_map(|_| layer.w.bias().to_vec())
                    .collect();
                layer.accumulate(2, &slot.bounds, &mut TapRules::default(), &mut r.acc);
                r.done = true;
            }
            let out = split.finish(at).unwrap();
            drop(held);
            assert_eq!(bits(&out), bits(&want.unwrap()), "{kind}");
        }
    }

    /// A slot that a late helper held past the end of its layer drops that
    /// layer at the next publish, though the new layer goes to another
    /// slot.
    #[test]
    fn publish_drops_the_layers_of_released_slots() {
        let input = shuffled_input(52, 10, 2, 200);
        let layer = || Layer {
            rb: Arc::new(Rulebook::build(&input, 3)),
            input: input.clone(),
            w: ConvWeights::seeded(3, 2, 16, 11),
            backend: GemmBackendKind::Blocked,
            relu: false,
        };
        let mut split = RowSplit::spawn(0).unwrap();
        let mut late = Vec::new();
        for want in 0..2 {
            let at = split.publish(layer());
            assert_eq!(at, want);
            late.push(Arc::clone(&split.slots[at]));
            split.finish(at).unwrap();
        }
        assert!(
            late.iter().all(|s| s.layer.is_some()),
            "held slots keep their layer"
        );
        drop(late);
        assert_eq!(split.publish(layer()), 0);
        assert!(
            split.slots[1].layer.is_none(),
            "a released slot kept its layer"
        );
    }

    /// A helper that dies on waking, or after claiming a chunk, changes no
    /// output: the caller computes what it left, notices the death within
    /// a few layers, drops the split and stays serial.
    #[test]
    fn a_dead_helper_leaves_outputs_unchanged_and_the_engine_serial() {
        let input = shuffled_input(50, 12, 4, 400);
        let w = ConvWeights::seeded(3, 4, 16, 9);
        for mode in [FAIL_ON_WAKE, FAIL_AFTER_CLAIM] {
            let mut eng = FlatEngine::with_helpers(GemmBackendKind::Blocked, 1);
            let want = bits(&eng.subconv(&input, &w, true).unwrap());
            let split = eng.row_split().unwrap();
            assert_eq!(split.helpers.len(), 1);
            split.shared.fail.store(mode, Ordering::Relaxed);
            let mut layers = 0;
            while eng.row_split().is_some() {
                assert_eq!(bits(&eng.subconv(&input, &w, true).unwrap()), want);
                layers += 1;
                assert!(layers < 100_000, "the engine never noticed its dead helper");
            }
            assert_eq!(bits(&eng.subconv(&input, &w, true).unwrap()), want);
            assert!(eng.row_split().is_none(), "the engine respawned helpers");
        }
    }

    /// Dropping an engine closes its helpers' channels and joins them: no
    /// helper still holds the shared state afterwards.
    #[test]
    fn dropping_an_engine_joins_its_helpers() {
        let input = shuffled_input(51, 10, 2, 200);
        let w = ConvWeights::seeded(3, 2, 16, 10);
        let mut eng = FlatEngine::with_helpers(GemmBackendKind::ScalarRef, 2);
        eng.subconv(&input, &w, true).unwrap();
        let split = eng.row_split().unwrap();
        assert!(split.helpers.iter().all(|h| !h.thread.is_finished()));
        let watch = Arc::downgrade(&split.shared);
        drop(eng);
        assert!(watch.upgrade().is_none(), "a helper outlived its engine");
    }
}
