//! Model persistence for serving: everything a serving process needs to
//! rehydrate a trained DeepMVI model without the training pipeline.
//!
//! [`ServeSnapshot`] bundles the weights with the configuration they were
//! trained under, the dataset geometry (trained, live and retained lengths,
//! the pinned window width, the retention ring) and the trained std-dev, so a
//! snapshot cannot silently be restored against the wrong tenant's data. An
//! optional **warm-cache section** (retained observed values and mask, the
//! imputation cache, per-window freshness, write watermarks) restores
//! straight into an engine ([`crate::ImputationEngine::from_snapshot`]) that
//! answers every previously-cached query with **zero forward passes**.
//!
//! Two encodings carry a snapshot:
//!
//! * the **binary file** of [`crate::durable`] — what [`ServeSnapshot::to_path`]
//!   and every durable path (registry eviction, warm restarts) write;
//! * **JSON, version 4** ([`ServeSnapshot::to_json`] /
//!   [`ServeSnapshot::from_json`]): f64 buffers as base64 little-endian
//!   bytes, boolean buffers bit-packed (LSB-first) then base64'd, and a
//!   CRC-32 per packed section over its raw bytes. No transport carries it;
//!   it is kept for test and example fixtures and the benchmark's snapshot
//!   encode/decode spans.
//!
//! Both decoders verify every checksum first — a mismatch is the typed
//! [`ServeError::Corrupt`] naming the section — then build the snapshot and
//! run one shared validation step. Restore also refuses NaN/±inf
//! weights ([`ServeError::NonFiniteWeights`]): such a model would silently
//! answer every query with NaN.

use crate::engine::ServeError;
use deepmvi::{DeepMviConfig, DeepMviModel, FrozenModel};
use mvi_autograd::params::StoreSnapshot;
use mvi_data::dataset::{DimSpec, ObservedDataset};
use mvi_tensor::{Mask, Tensor};
use serde::{Deserialize, Serialize};

/// Wire-format version written by [`ServeSnapshot::to_json`].
pub(crate) const SNAPSHOT_VERSION: u32 = 4;

/// A complete, self-describing dump of a trained model for serving.
#[derive(Clone, Debug)]
pub struct ServeSnapshot {
    /// Configuration the model was trained under (window rule, module
    /// switches, sizes — everything needed to rebuild identical parameters).
    pub config: DeepMviConfig,
    /// Non-time dimensions of the training dataset.
    pub dims: Vec<DimSpec>,
    /// Series length the model was *trained* for.
    pub t_len: usize,
    /// Live series length of the serving state the snapshot captured — equal
    /// to `t_len` right after training, larger once streaming appends have
    /// grown the series.
    pub live_t_len: usize,
    /// Resolved window width `w` the model was built with, pinned so restore
    /// does not re-derive it from post-growth missing statistics (`0` leaves
    /// the width to the config's window rule).
    pub window: usize,
    /// Oldest retained time position of the captured serving state (the
    /// retention-ring origin; `0` on unbounded engines). The retained span
    /// `[retained_start, live_t_len)` is what physical storage — and the
    /// cache section, if present — covers.
    pub retained_start: usize,
    /// The retention window the engine was configured with, if any (`None`
    /// for unbounded engines).
    pub retention: Option<usize>,
    /// Trained shared imputation std-dev (§4), if training captured one.
    pub shared_std: Option<f64>,
    /// The weights.
    pub params: StoreSnapshot,
    /// Optional warm-cache section ([`CacheSnapshot`]): present when the
    /// snapshot was taken from a live engine with
    /// [`crate::ImputationEngine::snapshot`], absent from model-only captures
    /// ([`ServeSnapshot::capture`]).
    pub cache: Option<CacheSnapshot>,
}

/// The serving engine's warm state over the retained span
/// `[retained_start, live_t_len)`: everything
/// [`crate::ImputationEngine::from_snapshot`] needs to resume serving without
/// recomputing a single window. All tensors are in physical (ring-relative)
/// layout — time position `0` is `retained_start`.
#[derive(Clone, Debug)]
pub struct CacheSnapshot {
    /// Dataset name of the serving state.
    pub name: String,
    /// Observed values over the retained span (missing entries zero).
    pub values: Tensor,
    /// Availability mask over the retained span.
    pub available: Mask,
    /// The imputation cache: observed values + latest imputations.
    pub imputed: Tensor,
    /// Per-series window freshness, indexed by storage slot.
    pub fresh: Vec<Vec<bool>>,
    /// Per-series write watermarks (logical time).
    pub watermark: Vec<usize>,
}

/// Version-4 JSON layout: the scalar fields plus every packed section with
/// its CRC-32 (over the raw bytes before base64).
#[derive(Serialize, Deserialize)]
struct WireSnapshot {
    version: u32,
    config: DeepMviConfig,
    dims: Vec<DimSpec>,
    t_len: usize,
    live_t_len: usize,
    window: usize,
    retained_start: usize,
    retention: Option<usize>,
    shared_std: Option<f64>,
    params: Vec<WireParam>,
    cache: Option<WireCache>,
}

/// One packed weight tensor with its integrity checksum.
#[derive(Serialize, Deserialize)]
struct WireParam {
    name: String,
    shape: Vec<usize>,
    data: String,
    crc32: u32,
}

/// JSON form of [`CacheSnapshot`] with one checksum per packed buffer.
/// Buffer shapes are implied by the snapshot geometry (`dims × retained
/// span`, freshness `series × retained windows`) and validated on decode.
#[derive(Serialize, Deserialize)]
struct WireCache {
    name: String,
    values: String,
    values_crc32: u32,
    available: String,
    available_crc32: u32,
    imputed: String,
    imputed_crc32: u32,
    fresh: String,
    fresh_crc32: u32,
    watermark: Vec<usize>,
}

impl ServeSnapshot {
    /// Captures a trained model together with the geometry of the serving
    /// state it serves. `obs` may be longer than the trained length (a grown
    /// serving state); both lengths are persisted and checked on restore.
    ///
    /// # Panics
    /// Panics if `obs` is shorter than the model's trained length.
    pub fn capture(model: &DeepMviModel, obs: &ObservedDataset) -> Self {
        assert!(
            obs.t_len() >= model.t_len(),
            "capture: dataset length {} is shorter than the trained length {}",
            obs.t_len(),
            model.t_len()
        );
        Self {
            config: model.config().clone(),
            dims: obs.dims.clone(),
            t_len: model.t_len(),
            live_t_len: obs.t_len(),
            window: model.window(),
            retained_start: 0,
            retention: None,
            shared_std: model.shared_std(),
            params: model.export_params(),
            cache: None,
        }
    }

    /// The retained span `live_t_len - retained_start` — the series length a
    /// dataset handed to [`ServeSnapshot::restore`] must have, and the time
    /// extent of the cache section if one is present.
    pub(crate) fn retained_len(&self) -> usize {
        self.live_t_len - self.retained_start
    }

    /// Rehydrates a frozen model against `obs`, validating that the dataset
    /// geometry matches what the snapshot describes: same dimensions, and a
    /// length equal to the captured *retained span* (the full live length
    /// unless the serving state ran under a retention ring). The model itself
    /// is rebuilt at the *trained* length (with the pinned window width), so
    /// a snapshot of a grown deployment restores with the exact
    /// rolling-horizon behaviour it was serving.
    ///
    /// # Errors
    /// [`ServeError::Geometry`] on a dimension/length mismatch or a weight
    /// snapshot that does not fit the rebuilt parameter layout;
    /// [`ServeError::NonFiniteWeights`] when any weight is NaN/±inf.
    pub fn restore(&self, obs: &ObservedDataset) -> Result<FrozenModel, ServeError> {
        self.check_lengths()?;
        if obs.dims != self.dims {
            return Err(ServeError::Geometry(format!(
                "dataset dims {:?} do not match snapshot dims {:?}",
                obs.dims.iter().map(|d| (d.name.as_str(), d.len())).collect::<Vec<_>>(),
                self.dims.iter().map(|d| (d.name.as_str(), d.len())).collect::<Vec<_>>(),
            )));
        }
        if obs.t_len() != self.retained_len() {
            return Err(ServeError::Geometry(format!(
                "dataset t_len {} does not match snapshot retained span {} (live length {}, \
                 retained from {}, trained length {})",
                obs.t_len(),
                self.retained_len(),
                self.live_t_len,
                self.retained_start,
                self.t_len
            )));
        }
        self.rebuild_model(self.params.clone(), obs)
    }

    /// Internal sanity of the persisted lengths (shared by every restore
    /// path and by decoding).
    fn check_lengths(&self) -> Result<(), ServeError> {
        // An *unbounded* serving state never shrinks below the trained
        // length; a bounded engine may legitimately have been built over a
        // retained window shorter than the trained span, so the check only
        // applies without retention.
        if self.retention.is_none() && self.live_t_len < self.t_len {
            return Err(ServeError::Snapshot(format!(
                "snapshot live length {} is shorter than its trained length {} — an unbounded \
                 serving state never shrinks, so the snapshot is corrupt",
                self.live_t_len, self.t_len
            )));
        }
        if self.retained_start >= self.live_t_len {
            return Err(ServeError::Snapshot(format!(
                "snapshot retained start {} leaves no retained span (live length {})",
                self.retained_start, self.live_t_len
            )));
        }
        if self.window > 0 && !self.retained_start.is_multiple_of(self.window) {
            return Err(ServeError::Snapshot(format!(
                "snapshot retained start {} is not aligned to the window width {}",
                self.retained_start, self.window
            )));
        }
        Ok(())
    }

    /// The cache geometry the snapshot implies: the physical tensor shape
    /// (`dims × retained span`), the series count and the retained windows
    /// per series.
    fn cache_geometry(&self) -> Result<(Vec<usize>, usize, usize), ServeError> {
        if self.window == 0 {
            return Err(ServeError::Snapshot(
                "cache section requires a pinned window width".into(),
            ));
        }
        let mut shape: Vec<usize> = self.dims.iter().map(DimSpec::len).collect();
        let n_series = shape.iter().product();
        shape.push(self.retained_len());
        let n_windows = self.live_t_len.div_ceil(self.window) - self.retained_start / self.window;
        Ok((shape, n_series, n_windows))
    }

    /// Rebuilds the frozen model from `params` (moved in, not copied),
    /// taking dataset geometry (dims, series shape) from `geometry_source`,
    /// whose time extent may be anything — the model is rebuilt at the
    /// trained length: the truncated prefix view when the source is longer
    /// (a grown state), an all-missing extension when shorter (a retention
    /// ring smaller than the trained span; only shapes matter because the
    /// window width is pinned).
    fn rebuild_model(
        &self,
        params: StoreSnapshot,
        geometry_source: &ObservedDataset,
    ) -> Result<FrozenModel, ServeError> {
        for (name, tensor) in &params.params {
            if !tensor.all_finite() {
                return Err(ServeError::NonFiniteWeights { param: name.clone() });
            }
        }
        // Rebuild at trained geometry, with the window width pinned so
        // post-growth block statistics cannot flip the §4.3 window rule and
        // break the layout.
        let trained_view;
        let geometry = if geometry_source.t_len() == self.t_len {
            geometry_source
        } else if geometry_source.t_len() > self.t_len {
            trained_view = geometry_source.truncated(self.t_len);
            &trained_view
        } else {
            let mut extended = geometry_source.clone();
            extended.extend_time(self.t_len);
            trained_view = extended;
            &trained_view
        };
        let config = if self.window > 0 {
            DeepMviConfig { window: Some(self.window), ..self.config.clone() }
        } else {
            self.config.clone()
        };
        FrozenModel::from_snapshot(&config, geometry, params, self.shared_std)
            .map_err(ServeError::Geometry)
    }

    /// Serializes to version-4 JSON (weights — and the cache section, if
    /// present — packed, each packed section checksummed; see the module docs
    /// for the layout). Disk writes use the binary layout instead
    /// ([`ServeSnapshot::to_path`]).
    pub fn to_json(&self) -> String {
        let packed = |fill: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = Vec::new();
            fill(&mut bytes);
            (base64_encode(&bytes), crate::durable::crc32(&bytes))
        };
        let params = self
            .params
            .params
            .iter()
            .map(|(name, tensor)| {
                let (data, crc32) = packed(&|o| put_f64s(o, tensor.data()));
                WireParam { name: name.clone(), shape: tensor.shape().to_vec(), data, crc32 }
            })
            .collect();
        let cache = self.cache.as_ref().map(|c| {
            let (values, values_crc32) = packed(&|o| put_f64s(o, c.values.data()));
            let (available, available_crc32) = packed(&|o| put_bits(o, c.available.data()));
            let (imputed, imputed_crc32) = packed(&|o| put_f64s(o, c.imputed.data()));
            let (fresh, fresh_crc32) = packed(&|o| put_bits(o, c.fresh.iter().flatten()));
            WireCache {
                name: c.name.clone(),
                values,
                values_crc32,
                available,
                available_crc32,
                imputed,
                imputed_crc32,
                fresh,
                fresh_crc32,
                watermark: c.watermark.clone(),
            }
        });
        let wire = WireSnapshot {
            version: SNAPSHOT_VERSION,
            config: self.config.clone(),
            dims: self.dims.clone(),
            t_len: self.t_len,
            live_t_len: self.live_t_len,
            window: self.window,
            retained_start: self.retained_start,
            retention: self.retention,
            shared_std: self.shared_std,
            params,
            cache,
        };
        #[expect(
            clippy::expect_used,
            reason = "the vendored serializer is infallible (it returns Ok unconditionally)"
        )]
        let json = serde_json::to_string(&wire).expect("snapshot serialization cannot fail");
        json
    }

    /// Parses a snapshot serialized with [`ServeSnapshot::to_json`].
    ///
    /// # Errors
    /// [`ServeError::Snapshot`] when the text is not a version-4 snapshot or
    /// its contents are inconsistent with the snapshot geometry;
    /// [`ServeError::Corrupt`] when a packed section fails its checksum (the
    /// error names the section).
    pub fn from_json(json: &str) -> Result<Self, ServeError> {
        let wire = serde_json::from_str::<WireSnapshot>(json).map_err(|e| {
            ServeError::Snapshot(format!("not a v{SNAPSHOT_VERSION} snapshot: {e:?}"))
        })?;
        if wire.version != SNAPSHOT_VERSION {
            return Err(ServeError::Snapshot(format!(
                "unsupported snapshot version {} (this build reads {SNAPSHOT_VERSION})",
                wire.version
            )));
        }
        let checked = |data: &str, section: &str, recorded: u32| -> Result<Vec<u8>, ServeError> {
            let corrupt = |detail| ServeError::Corrupt { section: section.to_string(), detail };
            let bytes = base64_decode(data).map_err(corrupt)?;
            let actual = crate::durable::crc32(&bytes);
            if actual != recorded {
                return Err(corrupt(format!(
                    "crc32 {actual:08x} does not match recorded {recorded:08x}"
                )));
            }
            Ok(bytes)
        };
        let mut params = Vec::with_capacity(wire.params.len());
        for p in wire.params {
            let bytes = checked(&p.data, &format!("params/{}", p.name), p.crc32)?;
            let tensor = f64_tensor(&bytes, p.shape, &format!("parameter `{}`", p.name))?;
            params.push((p.name, tensor));
        }
        let mut snap = Self {
            config: wire.config,
            dims: wire.dims,
            t_len: wire.t_len,
            live_t_len: wire.live_t_len,
            window: wire.window,
            retained_start: wire.retained_start,
            retention: wire.retention,
            shared_std: wire.shared_std,
            params: StoreSnapshot { params },
            cache: None,
        };
        if let Some(c) = wire.cache {
            // The JSON layout leaves cache shapes to the geometry.
            snap.check_lengths()?;
            let (shape, n_series, n_windows) = snap.cache_geometry()?;
            let values = checked(&c.values, "cache.values", c.values_crc32)?;
            let available = checked(&c.available, "cache.available", c.available_crc32)?;
            let imputed = checked(&c.imputed, "cache.imputed", c.imputed_crc32)?;
            let fresh = checked(&c.fresh, "cache.fresh", c.fresh_crc32)?;
            snap.cache = Some(CacheSnapshot {
                name: c.name,
                values: f64_tensor(&values, shape.clone(), "cache.values")?,
                available: bit_mask(&available, shape.clone(), "cache.available")?,
                imputed: f64_tensor(&imputed, shape, "cache.imputed")?,
                fresh: bit_rows(&fresh, &[n_series, n_windows], "cache.fresh")?,
                watermark: c.watermark,
            });
        }
        snap.validate()?;
        Ok(snap)
    }

    /// The validation every decoded snapshot passes, whichever encoding it
    /// came from (JSON here, the binary file in [`crate::durable`]), and
    /// every warm restore repeats: consistent lengths, and a cache section
    /// whose tensors, freshness and watermarks fit the snapshot geometry and
    /// whose cached values are all finite.
    ///
    /// # Errors
    /// [`ServeError::Snapshot`] naming the first inconsistency.
    pub(crate) fn validate(&self) -> Result<(), ServeError> {
        self.check_lengths()?;
        let Some(cache) = &self.cache else {
            return Ok(());
        };
        let (shape, n_series, n_windows) = self.cache_geometry()?;
        if cache.values.shape() != shape
            || cache.available.shape() != shape
            || cache.imputed.shape() != shape
        {
            return Err(ServeError::Snapshot(format!(
                "cache tensors do not match the snapshot geometry {shape:?}"
            )));
        }
        if cache.fresh.len() != n_series
            || cache.fresh.iter().any(|f| f.len() != n_windows)
            || cache.watermark.len() != n_series
        {
            return Err(ServeError::Snapshot(format!(
                "cache freshness/watermarks do not match {n_series} series x {n_windows} windows"
            )));
        }
        for (s, &wm) in cache.watermark.iter().enumerate() {
            if wm < self.retained_start || wm > self.live_t_len {
                return Err(ServeError::Snapshot(format!(
                    "cache.watermark[{s}] = {wm} outside the retained span [{}, {}]",
                    self.retained_start, self.live_t_len
                )));
            }
        }
        if !cache.values.all_finite() || !cache.imputed.all_finite() {
            return Err(ServeError::Snapshot("cache section carries non-finite values".into()));
        }
        Ok(())
    }
}

/// The element count of `shape`, `None` on overflow.
fn cells(shape: &[usize]) -> Option<usize> {
    shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d))
}

/// Decodes a little-endian f64 buffer that must exactly fill `shape`.
pub(crate) fn f64_tensor(
    bytes: &[u8],
    shape: Vec<usize>,
    what: &str,
) -> Result<Tensor, ServeError> {
    if cells(&shape).and_then(|n| n.checked_mul(8)) != Some(bytes.len()) {
        return Err(ServeError::Snapshot(format!(
            "{what}: {} bytes do not fill shape {shape:?}",
            bytes.len()
        )));
    }
    let (words, _) = bytes.as_chunks::<8>();
    Ok(Tensor::from_vec(shape, words.iter().map(|w| f64::from_le_bytes(*w)).collect()))
}

/// Unpacks an LSB-first bit buffer that must hold exactly `shape`'s element
/// count: a mask, or `[series, windows]` freshness flags, returned as rows
/// of the last axis.
pub(crate) fn bit_rows(
    bytes: &[u8],
    shape: &[usize],
    what: &str,
) -> Result<Vec<Vec<bool>>, ServeError> {
    let Some(n) = cells(shape).filter(|n| n.div_ceil(8) == bytes.len()) else {
        return Err(ServeError::Snapshot(format!(
            "{what}: {} bytes do not hold shape {shape:?}",
            bytes.len()
        )));
    };
    let bits: Vec<bool> =
        (0..n).map(|i| bytes.get(i / 8).is_some_and(|b| b & (1 << (i % 8)) != 0)).collect();
    Ok(bits.chunks(shape.last().copied().unwrap_or(1).max(1)).map(<[bool]>::to_vec).collect())
}

/// A mask from [`bit_rows`].
pub(crate) fn bit_mask(bytes: &[u8], shape: Vec<usize>, what: &str) -> Result<Mask, ServeError> {
    Ok(Mask::from_vec(shape.clone(), bit_rows(bytes, &shape, what)?.concat()))
}

impl crate::ImputationEngine {
    /// Captures the engine's complete serving state as a snapshot **with the
    /// warm-cache section**: weights, ring geometry, retained observed data,
    /// the imputation cache, window freshness and watermarks. Restoring it
    /// with [`crate::ImputationEngine::from_snapshot`] resumes serving
    /// exactly where this engine stood — cached queries replay with zero
    /// forward passes.
    ///
    /// For a model-only artifact (smaller, no serving state), use
    /// [`ServeSnapshot::capture`] instead.
    ///
    /// ```
    /// use deepmvi::{DeepMviConfig, DeepMviModel};
    /// use mvi_data::generators::{generate_with_shape, DatasetName};
    /// use mvi_data::scenarios::Scenario;
    /// use mvi_serve::{ImputationEngine, ServeSnapshot};
    ///
    /// let ds = generate_with_shape(DatasetName::Gas, &[2], 60, 4);
    /// let obs = Scenario::mcar(1.0).apply(&ds, 1).observed();
    /// let cfg = DeepMviConfig { max_steps: 2, ..DeepMviConfig::tiny() };
    /// let mut model = DeepMviModel::new(&cfg, &obs);
    /// model.fit(&obs);
    /// let engine = ImputationEngine::new(model.freeze(), obs).unwrap();
    /// engine.warm_up(); // cache every window, then persist the warm state
    ///
    /// let json = engine.snapshot().to_json();
    /// // … process restarts …
    /// let snap = ServeSnapshot::from_json(&json).unwrap();
    /// let restarted = ImputationEngine::from_snapshot(&snap).unwrap();
    /// restarted.query(0, 0, 60).unwrap();
    /// assert_eq!(restarted.stats().windows_computed, 0); // zero forward passes
    /// ```
    pub fn snapshot(&self) -> ServeSnapshot {
        let model = self.model().model();
        let (cache, dims, live_t_len, retained_start) = self.cache_snapshot();
        ServeSnapshot {
            config: model.config().clone(),
            dims,
            t_len: model.t_len(),
            live_t_len,
            window: model.window(),
            retained_start,
            retention: self.retention(),
            shared_std: model.shared_std(),
            params: model.export_params(),
            cache: Some(cache),
        }
    }

    /// Rebuilds a serving engine from a warm snapshot
    /// ([`crate::ImputationEngine::snapshot`]): the observed state, the
    /// imputation cache, freshness and watermarks all restore in place, so a
    /// restarted process answers every query its predecessor had cached
    /// **without a single forward pass** (watch
    /// [`crate::EngineStats::windows_computed`] stay at zero). The ring
    /// origin and retention configuration carry over — a bounded engine
    /// restarts bounded, at the same logical stream position.
    ///
    /// # Errors
    /// [`ServeError::Snapshot`] when the snapshot has no cache section or its
    /// cache is inconsistent with the snapshot geometry or carries
    /// non-finite values;
    /// [`ServeError::Geometry`] / [`ServeError::NonFiniteWeights`] from the
    /// model rebuild, as in [`ServeSnapshot::restore`].
    pub fn from_snapshot(snap: &ServeSnapshot) -> Result<Self, ServeError> {
        Self::from_owned_snapshot(snap.clone())
    }

    /// [`crate::ImputationEngine::from_snapshot`] consuming the snapshot:
    /// its weights and cache tensors move into the engine uncopied (the
    /// durable read path, which owns what it decoded).
    pub(crate) fn from_owned_snapshot(mut snap: ServeSnapshot) -> Result<Self, ServeError> {
        snap.validate()?;
        let cache = snap.cache.take().ok_or_else(|| {
            ServeError::Snapshot(
                "snapshot has no warm-cache section; restore the model with \
                 ServeSnapshot::restore and build a cold engine with ImputationEngine::new"
                    .into(),
            )
        })?;
        let obs = ObservedDataset {
            name: cache.name,
            dims: snap.dims.clone(),
            values: cache.values,
            available: cache.available,
        };
        let params = StoreSnapshot { params: std::mem::take(&mut snap.params.params) };
        let frozen = snap.rebuild_model(params, &obs)?;
        if frozen.grid().window_len() != snap.window {
            return Err(ServeError::Snapshot(format!(
                "rebuilt model window {} does not match the pinned width {}",
                frozen.grid().window_len(),
                snap.window
            )));
        }
        Ok(Self::from_parts(
            frozen,
            crate::engine::RestoredParts {
                obs,
                imputed: cache.imputed,
                fresh: cache.fresh,
                watermark: cache.watermark,
                retained_start: snap.retained_start,
                live_t_len: snap.live_t_len,
                retention: snap.retention,
            },
        ))
    }
}

// ---------------------------------------------------------------------------
// Buffer packing, shared by both encodings: f64 buffers as little-endian
// bytes, boolean buffers 8-to-a-byte LSB-first. The JSON encoding then
// base64s them (RFC 4648 standard alphabet, padded; hand-rolled because the
// offline workspace vendors no base64 crate). Round-trips are bit-exact, so
// NaN payloads survive into the finite check.
// ---------------------------------------------------------------------------

/// Appends `values` to `out` as little-endian bytes.
pub(crate) fn put_f64s(out: &mut Vec<u8>, values: &[f64]) {
    out.reserve(8 * values.len());
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Appends `bits` to `out`, packed 8-to-a-byte, LSB-first.
pub(crate) fn put_bits<'a>(out: &mut Vec<u8>, bits: impl IntoIterator<Item = &'a bool>) {
    let (mut byte, mut n) = (0u8, 0usize);
    for &b in bits {
        byte |= u8::from(b) << (n % 8);
        n += 1;
        if n.is_multiple_of(8) {
            out.push(byte);
            byte = 0;
        }
    }
    if !n.is_multiple_of(8) {
        out.push(byte);
    }
}

const B64_ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

fn base64_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b1 = chunk[0] as u32;
        let b2 = chunk.get(1).copied().unwrap_or(0) as u32;
        let b3 = chunk.get(2).copied().unwrap_or(0) as u32;
        let n = (b1 << 16) | (b2 << 8) | b3;
        out.push(B64_ALPHABET[(n >> 18) as usize & 63] as char);
        out.push(B64_ALPHABET[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 { B64_ALPHABET[(n >> 6) as usize & 63] as char } else { '=' });
        out.push(if chunk.len() > 2 { B64_ALPHABET[n as usize & 63] as char } else { '=' });
    }
    out
}

fn base64_decode(s: &str) -> Result<Vec<u8>, String> {
    fn sextet(c: u8) -> Result<u32, String> {
        match c {
            b'A'..=b'Z' => Ok((c - b'A') as u32),
            b'a'..=b'z' => Ok((c - b'a' + 26) as u32),
            b'0'..=b'9' => Ok((c - b'0' + 52) as u32),
            b'+' => Ok(62),
            b'/' => Ok(63),
            _ => Err(format!("invalid base64 byte `{}`", c as char)),
        }
    }
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return Err(format!("base64 length {} is not a multiple of 4", bytes.len()));
    }
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    let n_groups = bytes.len() / 4;
    for (g, chunk) in bytes.chunks_exact(4).enumerate() {
        let pad = chunk.iter().rev().take_while(|&&c| c == b'=').count();
        if pad > 2 || (pad > 0 && g + 1 != n_groups) {
            return Err("misplaced base64 padding".into());
        }
        let mut n = 0u32;
        for (i, &c) in chunk.iter().enumerate() {
            let v = if c == b'=' {
                if i < 4 - pad {
                    return Err("misplaced base64 padding".into());
                }
                0
            } else {
                sextet(c)?
            };
            n = (n << 6) | v;
        }
        out.push((n >> 16) as u8);
        if pad < 2 {
            out.push((n >> 8) as u8);
        }
        if pad < 1 {
            out.push(n as u8);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvi_data::generators::{generate_with_shape, DatasetName};
    use mvi_data::scenarios::Scenario;

    fn trained() -> (ObservedDataset, DeepMviModel) {
        let ds = generate_with_shape(DatasetName::Gas, &[3], 120, 4);
        let inst = Scenario::mcar(1.0).apply(&ds, 1);
        let obs = inst.observed();
        let cfg = DeepMviConfig { max_steps: 5, ..DeepMviConfig::tiny() };
        let mut model = DeepMviModel::new(&cfg, &obs);
        model.fit(&obs);
        (obs, model)
    }

    #[test]
    fn base64_roundtrips_arbitrary_buffers() {
        for len in 0..12 {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let enc = base64_encode(&bytes);
            assert_eq!(enc.len() % 4, 0);
            assert_eq!(base64_decode(&enc).unwrap(), bytes, "len {len}");
        }
        // Known vector (RFC 4648): "foobar".
        assert_eq!(base64_encode(b"foobar"), "Zm9vYmFy");
        assert_eq!(base64_encode(b"foob"), "Zm9vYg==");
        assert!(base64_decode("Zm9=YQ==").is_err(), "misplaced padding must fail");
        assert!(base64_decode("abc").is_err(), "truncated group must fail");
        assert!(base64_decode("ab!d").is_err(), "bad alphabet must fail");
    }

    #[test]
    fn packed_floats_roundtrip_bit_exactly() {
        let vals = [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE, -1e300];
        let mut bytes = Vec::new();
        put_f64s(&mut bytes, &vals);
        let back = f64_tensor(&bytes, vec![vals.len()], "test").unwrap();
        for (a, b) in vals.iter().zip(back.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn snapshot_roundtrips_through_json_and_validates_geometry() {
        let (obs, model) = trained();
        let expected = model.impute(&obs);

        let snap = ServeSnapshot::capture(&model, &obs);
        assert_eq!(snap.t_len, snap.live_t_len, "fresh capture has not grown");
        assert_eq!(snap.window, model.window());
        let back = ServeSnapshot::from_json(&snap.to_json()).unwrap();
        let frozen = back.restore(&obs).unwrap();
        assert_eq!(frozen.impute(&obs), expected);

        // Wrong geometry is rejected.
        let other = generate_with_shape(DatasetName::Gas, &[4], 120, 4);
        let other_obs = Scenario::mcar(1.0).apply(&other, 1).observed();
        assert!(matches!(back.restore(&other_obs), Err(ServeError::Geometry(_))));

        let shorter = generate_with_shape(DatasetName::Gas, &[3], 80, 4);
        let shorter_obs = Scenario::mcar(1.0).apply(&shorter, 1).observed();
        assert!(matches!(back.restore(&shorter_obs), Err(ServeError::Geometry(_))));
    }

    #[test]
    fn checksum_mismatch_is_a_typed_corrupt_error_naming_the_section() {
        let (obs, model) = trained();
        let engine = crate::ImputationEngine::new(model.freeze(), obs).unwrap();
        engine.warm_up();
        let json = engine.snapshot().to_json();
        // Baseline sanity: the untouched artifact parses.
        ServeSnapshot::from_json(&json).expect("pristine v4 parses");

        // Flip one recorded checksum: the named section is reported. (The
        // vendored serde_json has no Value API, so tamper textually.)
        let key = "\"values_crc32\":";
        let i = json.find(key).expect("cache checksum field present") + key.len();
        let end = i + json[i..].find(|c: char| !c.is_ascii_digit()).unwrap();
        let crc: u32 = json[i..end].parse().unwrap();
        let tampered = json.replacen(&format!("{key}{crc}"), &format!("{key}{}", crc ^ 1), 1);
        let err = ServeSnapshot::from_json(&tampered).unwrap_err();
        match err {
            ServeError::Corrupt { section, .. } => assert_eq!(section, "cache.values"),
            other => panic!("expected Corrupt, got {other}"),
        }

        // Swap two payload characters inside the first packed weight buffer
        // (base64 stays valid, bytes change): the per-param checksum catches
        // it. Field order in the wire struct puts params before the cache,
        // so the first "name"/"data" pair after "params" is params[0].
        let pstart = json.find("\"params\":[").unwrap();
        let nkey = "\"name\":\"";
        let ni = pstart + json[pstart..].find(nkey).unwrap() + nkey.len();
        let name = &json[ni..ni + json[ni..].find('"').unwrap()];
        let dkey = "\"data\":\"";
        let di = pstart + json[pstart..].find(dkey).unwrap() + dkey.len();
        let dend = di + json[di..].find('"').unwrap();
        let bytes = json.as_bytes();
        let other = (di + 1..dend)
            .find(|&k| bytes[k] != bytes[di] && bytes[k] != b'=')
            .expect("weight payload is not uniform");
        let mut swapped = json.clone().into_bytes();
        swapped.swap(di, other);
        let err = ServeSnapshot::from_json(&String::from_utf8(swapped).unwrap()).unwrap_err();
        match err {
            ServeError::Corrupt { section, .. } => assert_eq!(section, format!("params/{name}")),
            other => panic!("expected Corrupt, got {other}"),
        }
    }

    #[test]
    fn bit_packing_roundtrips() {
        for n in 0..40usize {
            let bits: Vec<bool> = (0..n).map(|i| (i * 7 + 3) % 5 < 2).collect();
            let mut bytes = Vec::new();
            put_bits(&mut bytes, &bits);
            assert_eq!(bytes.len(), n.div_ceil(8));
            assert_eq!(bit_rows(&bytes, &[n], "test").unwrap().concat(), bits, "n = {n}");
        }
    }

    #[test]
    fn future_versions_and_garbled_payloads_are_rejected() {
        let (obs, model) = trained();
        let snap = ServeSnapshot::capture(&model, &obs);
        let json = snap.to_json();
        let future = json.replacen("\"version\":4", "\"version\":99", 1);
        assert!(matches!(
            ServeSnapshot::from_json(&future),
            Err(ServeError::Snapshot(msg)) if msg.contains("version 99")
        ));
        // Corrupt one packed buffer: in v4 the per-section checksum catches
        // it before the shape/byte-count check would.
        let garbled = json.replacen("\"data\":\"", "\"data\":\"AAAA", 1);
        assert!(matches!(ServeSnapshot::from_json(&garbled), Err(ServeError::Corrupt { .. })));
        // An inverted length pair (live < trained) is a typed error on
        // restore, not a panic inside the trained-view truncation.
        let mut inverted = snap.clone();
        inverted.live_t_len = snap.t_len - 20;
        let short_obs = obs.truncated(inverted.live_t_len);
        assert!(matches!(inverted.restore(&short_obs), Err(ServeError::Snapshot(_))));
    }

    #[test]
    fn non_finite_weights_are_rejected_on_restore() {
        let (obs, model) = trained();
        let mut snap = ServeSnapshot::capture(&model, &obs);
        // Poison one weight; base64 packing preserves the NaN bits, so the
        // JSON roundtrip hands the finite check exactly what was written.
        snap.params.params[1].1.data_mut()[0] = f64::NAN;
        let back = ServeSnapshot::from_json(&snap.to_json()).unwrap();
        let poisoned = &back.params.params[1];
        assert!(poisoned.1.data()[0].is_nan(), "NaN lost in the packed roundtrip");
        let err = back.restore(&obs).err().expect("poisoned snapshot must not restore");
        assert_eq!(err, ServeError::NonFiniteWeights { param: poisoned.0.clone() });

        // An infinity is caught too, not just NaN.
        let mut inf = ServeSnapshot::capture(&model, &obs);
        inf.params.params[0].1.data_mut()[2] = f64::INFINITY;
        assert!(matches!(inf.restore(&obs), Err(ServeError::NonFiniteWeights { .. })));
    }

    #[test]
    fn malformed_json_is_a_snapshot_error() {
        assert!(matches!(ServeSnapshot::from_json("{nope"), Err(ServeError::Snapshot(_))));
    }

    #[test]
    fn bounded_engine_over_a_short_history_snapshots_and_restores() {
        // `with_retention` explicitly accepts a dataset *shorter* than the
        // trained length (a retained window of history); its snapshot must
        // round-trip even though live < trained — only unbounded states are
        // held to the never-shrinks rule.
        let (obs, model) = trained();
        let trained_len = obs.t_len();
        let short = obs.truncated(trained_len - 40);
        let engine = crate::ImputationEngine::with_retention(model.freeze(), short.clone(), 30)
            .expect("short bounded engine");
        engine.warm_up();
        let (base, live) = (engine.retained_start(), engine.live_len());
        let served: Vec<Vec<f64>> =
            (0..short.n_series()).map(|s| engine.query(s, base, live).unwrap()).collect();

        let snap = ServeSnapshot::from_json(&engine.snapshot().to_json()).expect("parses");
        assert!(snap.live_t_len < snap.t_len, "fixture must exercise live < trained");
        assert_eq!(snap.retention, Some(30));
        // Model-only restore works against the retained span...
        snap.restore(&engine.observed()).expect("model-only restore of a short bounded state");
        // ...and the warm restart serves identically with zero recompute.
        let restored = crate::ImputationEngine::from_snapshot(&snap).expect("warm restart");
        for (s, expect) in served.iter().enumerate() {
            assert_eq!(&restored.query(s, base, live).unwrap(), expect, "series {s}");
        }
        assert_eq!(restored.stats().windows_computed, 0);
    }

    #[test]
    fn appends_truncated_by_eviction_count_only_recorded_values() {
        let (obs, model) = trained();
        let engine = crate::ImputationEngine::with_retention(model.freeze(), obs.clone(), 10)
            .expect("ring engine");
        let w = engine.grid().window_len();
        let cap = engine.ring_capacity().unwrap();
        // One appended chunk far larger than the whole ring: only its newest
        // retained tail is recorded, and the stats must say so.
        let before = engine.stats().values_appended;
        let huge = vec![1.25; 3 * cap];
        let report = engine.append(0, &huge).unwrap();
        let recorded = report.recorded.1 - report.recorded.0;
        assert!(recorded < huge.len(), "eviction must have dropped a prefix");
        assert!(recorded >= cap - w, "the retained tail of the append survives");
        assert_eq!(
            engine.stats().values_appended - before,
            recorded as u64,
            "values_appended must count recorded values, not the dropped prefix"
        );
    }

    #[test]
    fn warm_cache_snapshot_restores_an_engine_that_recomputes_nothing() {
        let (obs, model) = trained();
        let engine = crate::ImputationEngine::new(model.freeze(), obs.clone()).expect("engine");
        engine.warm_up();
        engine.query(0, 0, obs.t_len()).unwrap();
        let served: Vec<Vec<f64>> =
            (0..obs.n_series()).map(|s| engine.query(s, 0, obs.t_len()).unwrap()).collect();

        // Snapshot with cache → JSON → restored engine.
        let snap = engine.snapshot();
        assert!(snap.cache.is_some());
        let json = snap.to_json();
        let back = ServeSnapshot::from_json(&json).expect("v4 parses");
        let restored = crate::ImputationEngine::from_snapshot(&back).expect("warm restart");

        // Every query answers from the restored cache: zero forward passes.
        for (s, expect) in served.iter().enumerate() {
            assert_eq!(&restored.query(s, 0, obs.t_len()).unwrap(), expect, "series {s}");
        }
        assert_eq!(
            restored.stats().windows_computed,
            0,
            "warm restart recomputed windows it had cached"
        );
        assert_eq!(restored.live_len(), engine.live_len());
        for s in 0..obs.n_series() {
            assert_eq!(restored.watermark(s).unwrap(), engine.watermark(s).unwrap());
        }

        // A model-only capture has no cache section and refuses warm restart.
        let cold =
            ServeSnapshot::from_json(&ServeSnapshot::capture(model_of(&engine), &obs).to_json())
                .unwrap();
        assert!(cold.cache.is_none());
        assert!(matches!(
            crate::ImputationEngine::from_snapshot(&cold),
            Err(ServeError::Snapshot(_))
        ));
    }

    /// Borrow helper: the wrapped trained model of an engine.
    fn model_of(engine: &crate::ImputationEngine) -> &DeepMviModel {
        engine.model().model()
    }
}
