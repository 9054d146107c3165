//! Deterministic media-fault model: wear-coupled bit errors, ECC
//! classification, bounded read-retry, patrol scrubbing, and graceful line
//! retirement.
//!
//! Real NVM cells fail with wear: retention/drift errors grow with the
//! accumulated write count, worn-out cells stick, and occasional transient
//! read errors clear on retry. This module models that failure ladder as a
//! *pure function* of `(seed, line, wear, attempt)`:
//!
//! 1. **Stuck-at** — a line whose wear exceeds its (hash-varied) endurance
//!    cutoff has permanently stuck cells; retries never help.
//! 2. **Drift** — wear-coupled raw bit errors whose probability scales
//!    linearly with the line's effective wear (wear minus the credit of the
//!    last scrub rewrite — a rewrite restores the cell margins, but not the
//!    endurance damage).
//! 3. **Transient** — rare read noise, salted by the retry attempt, so a
//!    bounded re-read takes a fresh draw.
//!
//! An ECC layer correcting up to `ecc_t` flips classifies every line read
//! as clean, corrected (CE) or uncorrectable (UE). Above that sit the
//! robustness mechanisms: bounded read-retry for transient errors, periodic
//! patrol scrubbing that rewrites correctable lines before they decay into
//! UEs and retires uncorrectable ones, and a finite spare pool for
//! retirement remapping — once spares run out, degradation stops being
//! graceful and UE lines stay faulty.
//!
//! Because classification never consults mutable per-read state, the fault
//! schedule is **identity-seeded and independent of read order**: the
//! same `(seed, line, wear)` always classifies identically, no matter which
//! line is read first. The only mutable state is commutative (atomic
//! counters, set insertions) or updated exclusively on serial paths
//! (scrubbing, retirement). Like a detached `simcore::persist::Probe`, a
//! detached [`MediaModel`] is a single `None` branch — default runs stay
//! byte-identical and pay nothing.
//!
//! The durable [`PersistentStore`](crate::PersistentStore) always holds the
//! true bytes; [`MediaModel::read_span_checked`] deterministically corrupts
//! the *caller's buffer* on a UE and reports the failure as a typed
//! [`MediaError`]. An honest engine checks the health and re-derives the
//! data or declares a classified loss; an engine that ignores the error
//! consumes garbage — which is exactly how the crashtest UE-blind fixture
//! gets convicted.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use simcore::addr::{lines_covering, Line};
use simcore::config::MediaConfig;
use simcore::PAddr;

use crate::store::PersistentStore;
use crate::wearlevel::EnduranceMap;

/// Bit draws per line read for the wear-coupled drift component.
const DRIFT_DRAWS: u32 = 8;
/// Bit draws per read attempt for the transient component.
const TRANSIENT_DRAWS: u32 = 2;
/// Cap on modeled stuck bits per line (beyond ECC reach anyway).
const STUCK_CAP: u64 = 8;

// Domain-separation salts for the schedule hash.
const SALT_CUTOFF: u64 = 0x1;
const SALT_DRIFT: u64 = 0x2;
const SALT_TRANSIENT: u64 = 0x3;
const SALT_CORRUPT: u64 = 0x4;

/// ECC verdict for one line read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadHealth {
    /// No raw bit errors.
    Clean,
    /// Raw bit errors present but within ECC reach; the returned data is
    /// correct.
    Corrected {
        /// Raw flips corrected on the successful attempt.
        flips: u32,
        /// Re-read attempts spent before the correctable read (0 = first
        /// try).
        retries: u32,
    },
    /// More raw errors than the code corrects, on every retry attempt: the
    /// data is lost at the media layer.
    Uncorrectable,
}

impl ReadHealth {
    /// True unless the read was uncorrectable.
    pub fn is_ok(self) -> bool {
        !matches!(self, ReadHealth::Uncorrectable)
    }

    /// Merges two verdicts, keeping the worse one (for multi-line spans).
    pub fn worst(self, other: ReadHealth) -> ReadHealth {
        match (self, other) {
            (ReadHealth::Uncorrectable, _) | (_, ReadHealth::Uncorrectable) => {
                ReadHealth::Uncorrectable
            }
            (ReadHealth::Clean, o) => o,
            (s, ReadHealth::Clean) => s,
            (
                ReadHealth::Corrected {
                    flips: a,
                    retries: x,
                },
                ReadHealth::Corrected {
                    flips: b,
                    retries: y,
                },
            ) => ReadHealth::Corrected {
                flips: a + b,
                retries: x.max(y),
            },
        }
    }
}

/// Typed error for an uncorrectable media read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MediaError {
    /// First uncorrectable line of the failed span.
    pub line: Line,
    /// The line's wear (write count) when the read failed.
    pub wear: u64,
}

impl std::fmt::Display for MediaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "uncorrectable media error at line {} (wear {})",
            self.line.0, self.wear
        )
    }
}

impl std::error::Error for MediaError {}

/// Aggregate media-fault counters (all commutative sums / set sizes, so the
/// summary does not depend on the order reads happen in).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MediaSummary {
    /// Line reads classified.
    pub reads: u64,
    /// Reads that needed ECC correction (CE).
    pub corrected: u64,
    /// Reads that stayed uncorrectable after retry (UE).
    pub uncorrectable: u64,
    /// Re-read attempts spent (bounded by `max_retries` per read).
    pub retries: u64,
    /// Lines rewritten by patrol scrubbing before decaying into UEs.
    pub scrub_rewrites: u64,
    /// Lines retired and remapped to spares.
    pub retired: u64,
    /// Retirement attempts dropped because the spare pool was exhausted.
    pub spare_exhausted: u64,
    /// Classified data-loss declarations from engine read/recovery paths.
    pub data_loss: u64,
}

impl MediaSummary {
    /// True when the run saw correctable degradation (CEs, retries, scrub
    /// activity or retirements) but no surfaced loss — the
    /// `degraded_but_correct` verdict input.
    pub fn degraded(&self) -> bool {
        self.corrected > 0 || self.retries > 0 || self.scrub_rewrites > 0 || self.retired > 0
    }
}

/// One patrol-scrub pass result.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScrubPass {
    /// Lines examined this pass.
    pub examined: u64,
    /// Correctable lines rewritten (drift credit reset).
    pub rewrites: u64,
    /// Lines retired (surfaced UEs plus scrub-detected UEs).
    pub retired: u64,
    /// The rewritten lines, ascending in scan order — the caller accounts
    /// one line write of scrub traffic against each.
    pub rewritten: Vec<Line>,
}

/// Mutable tables, touched only under the mutex. Retirement and refresh
/// credits mutate exclusively on serial paths (patrol scrub); read paths
/// only insert into the pending/surfaced sets, which is commutative.
#[derive(Debug, Default)]
struct MediaTables {
    /// Wear credit granted by the last scrub rewrite: drift probability
    /// scales with `wear - credit`.
    refresh: BTreeMap<u64, u64>,
    /// Retired lines, remapped to fresh spares (reads come back clean).
    retired: BTreeSet<u64>,
    /// UE lines surfaced by read paths, awaiting retirement at the next
    /// serial scrub point.
    pending_ue: BTreeSet<u64>,
    /// Every line that ever surfaced a UE to a caller (never drained; the
    /// crashtest oracle uses it for `ue_data_loss` attribution).
    surfaced: BTreeSet<u64>,
    /// Lines whose data an engine declared lost (classified loss).
    loss_lines: BTreeSet<u64>,
    /// Spares consumed by retirement.
    spares_used: u64,
    /// Resume point for the round-robin patrol scan (last line examined).
    scrub_cursor: u64,
}

#[derive(Debug)]
struct MediaState {
    cfg: MediaConfig,
    reads: AtomicU64,
    corrected: AtomicU64,
    uncorrectable: AtomicU64,
    retries: AtomicU64,
    scrub_rewrites: AtomicU64,
    retired: AtomicU64,
    spare_exhausted: AtomicU64,
    data_loss: AtomicU64,
    // lint:shard-serial — classification is a pure (seed, line, wear) hash;
    // this lock guards only commutative set-inserts on read paths and the
    // serial scrub phase, and each cell owns its model, so cells run
    // concurrently under `--jobs` never share it.
    tables: Mutex<MediaTables>,
}

/// Handle to the media-fault model. Detached by default (a single `None`
/// branch, zero overhead); clones share the same state, like
/// `simcore::persist::Probe`.
#[derive(Clone, Debug, Default)]
pub struct MediaModel(Option<Arc<MediaState>>);

/// SplitMix64-style finalizer: the schedule hash. Statistically independent
/// outputs for distinct inputs, bit-reproducible everywhere. This is a
/// *seeded* deterministic source (same family as `simcore::SimRng`), not a
/// wall-clock-like one — `lintpass`'s det-taint rule whitelists it.
fn media_hash(seed: u64, line: u64, salt: u64, draw: u64) -> u64 {
    let mut z = seed
        ^ line.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ salt.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ draw.wrapping_mul(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Raw flip counts of one read attempt, before ECC.
#[derive(Clone, Copy, Debug, Default)]
struct RawFlips {
    stuck: u32,
    drift: u32,
    transient: u32,
}

impl RawFlips {
    fn total(self) -> u32 {
        self.stuck + self.drift + self.transient
    }
}

impl MediaState {
    /// Per-line endurance cutoff: the configured mean, hash-varied by up to
    /// ±25 % so lines wear out staggered rather than in lockstep.
    fn cutoff_of(&self, line: u64) -> u64 {
        let c = self.cfg.endurance_cutoff.max(1);
        let spread = c / 2;
        if spread == 0 {
            return c;
        }
        let v = media_hash(self.cfg.seed, line, SALT_CUTOFF, 0) % (spread + 1);
        c - spread / 2 + v
    }

    /// Stuck bits once wear passes the line's cutoff (permanent; grows with
    /// the overshoot).
    fn stuck_bits(&self, line: u64, wear: u64) -> u32 {
        let cutoff = self.cutoff_of(line);
        if wear < cutoff {
            0
        } else {
            (1 + (wear - cutoff)).min(STUCK_CAP) as u32
        }
    }

    /// Wear-coupled drift flips: `DRIFT_DRAWS` Bernoulli draws at a
    /// probability linear in the effective wear (fixed-point, out of 2³²).
    fn drift_flips(&self, line: u64, wear_eff: u64) -> u32 {
        if self.cfg.wear_flip_p32 == 0 || wear_eff == 0 {
            return 0;
        }
        let p = (u64::from(self.cfg.wear_flip_p32))
            .saturating_mul(wear_eff)
            .checked_div(self.cfg.wear_scale.max(1))
            .unwrap_or(0)
            .min(u64::from(u32::MAX));
        let mut flips = 0;
        for i in 0..DRIFT_DRAWS {
            let h = media_hash(
                self.cfg.seed,
                line,
                SALT_DRIFT ^ (wear_eff << 8),
                u64::from(i),
            );
            if (h & 0xFFFF_FFFF) < p {
                flips += 1;
            }
        }
        flips
    }

    /// Transient flips for one attempt (fresh draws per attempt, so retry
    /// clears them; salted by wear so the schedule evolves with the line).
    fn transient_flips(&self, line: u64, wear: u64, attempt: u32) -> u32 {
        if self.cfg.transient_p32 == 0 {
            return 0;
        }
        let p = u64::from(self.cfg.transient_p32);
        let mut flips = 0;
        for i in 0..TRANSIENT_DRAWS {
            let salt = SALT_TRANSIENT ^ (wear << 16) ^ (u64::from(attempt) << 8);
            let h = media_hash(self.cfg.seed, line, salt, u64::from(i));
            if (h & 0xFFFF_FFFF) < p {
                flips += 1;
            }
        }
        flips
    }

    /// Raw flips of one attempt — the pure schedule function.
    fn raw_flips(&self, line: u64, wear: u64, wear_eff: u64, attempt: u32) -> RawFlips {
        RawFlips {
            stuck: self.stuck_bits(line, wear),
            drift: self.drift_flips(line, wear_eff),
            transient: self.transient_flips(line, wear, attempt),
        }
    }

    /// Classifies a read without touching counters (scrub probes).
    fn classify_quiet(&self, line: u64, wear: u64, wear_eff: u64) -> (ReadHealth, u32) {
        let mut retries = 0;
        loop {
            let flips = self.raw_flips(line, wear, wear_eff, retries).total();
            if flips == 0 {
                return (ReadHealth::Clean, retries);
            }
            if flips <= self.cfg.ecc_t {
                return (ReadHealth::Corrected { flips, retries }, retries);
            }
            if retries >= self.cfg.max_retries {
                return (ReadHealth::Uncorrectable, retries);
            }
            retries += 1;
        }
    }
}

impl MediaModel {
    /// A detached model: every read classifies clean at the cost of one
    /// branch.
    pub fn detached() -> Self {
        MediaModel(None)
    }

    /// Builds the model from the configuration; disabled configs yield a
    /// detached handle.
    pub fn new(cfg: MediaConfig) -> Self {
        if !cfg.enabled {
            return MediaModel(None);
        }
        MediaModel(Some(Arc::new(MediaState {
            cfg,
            reads: AtomicU64::new(0),
            corrected: AtomicU64::new(0),
            uncorrectable: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            scrub_rewrites: AtomicU64::new(0),
            retired: AtomicU64::new(0),
            spare_exhausted: AtomicU64::new(0),
            data_loss: AtomicU64::new(0),
            tables: Mutex::new(MediaTables::default()),
        })))
    }

    /// True when a live model is attached.
    #[inline(always)]
    pub fn is_attached(&self) -> bool {
        self.0.is_some()
    }

    /// The model's configuration, when attached.
    pub fn config(&self) -> Option<MediaConfig> {
        self.0.as_ref().map(|s| s.cfg)
    }

    /// Classifies one line read at the given wear, running the bounded
    /// retry ladder and updating counters. Detached models always return
    /// [`ReadHealth::Clean`].
    pub fn read_line(&self, line: Line, wear: u64) -> ReadHealth {
        let Some(st) = &self.0 else {
            return ReadHealth::Clean;
        };
        st.reads.fetch_add(1, Ordering::Relaxed);
        let (retired, credit) = {
            let t = st.tables.lock().expect("media tables poisoned");
            (
                t.retired.contains(&line.0),
                t.refresh.get(&line.0).copied().unwrap_or(0),
            )
        };
        if retired {
            // Remapped to a fresh spare: reads come back clean.
            return ReadHealth::Clean;
        }
        let wear_eff = wear.saturating_sub(credit);
        let (health, retries) = st.classify_quiet(line.0, wear, wear_eff);
        st.retries.fetch_add(u64::from(retries), Ordering::Relaxed);
        match health {
            ReadHealth::Clean => {}
            ReadHealth::Corrected { .. } => {
                st.corrected.fetch_add(1, Ordering::Relaxed);
            }
            ReadHealth::Uncorrectable => {
                st.uncorrectable.fetch_add(1, Ordering::Relaxed);
                let mut t = st.tables.lock().expect("media tables poisoned");
                t.pending_ue.insert(line.0);
                t.surfaced.insert(line.0);
            }
        }
        health
    }

    /// Classifies every line covering `[addr, addr+bytes)`, merging the
    /// worst verdict; the first uncorrectable line fails the span.
    pub fn classify_span(
        &self,
        addr: PAddr,
        bytes: u64,
        endurance: Option<&EnduranceMap>,
    ) -> Result<ReadHealth, MediaError> {
        if self.0.is_none() {
            return Ok(ReadHealth::Clean);
        }
        let mut health = ReadHealth::Clean;
        for line in lines_covering(addr, bytes) {
            let wear = endurance.map(|e| e.writes(line)).unwrap_or(0);
            match self.read_line(line, wear) {
                ReadHealth::Uncorrectable => return Err(MediaError { line, wear }),
                h => health = health.worst(h),
            }
        }
        Ok(health)
    }

    /// The checked media read: copies the span's true bytes from `store`
    /// into `buf`, classifies it, and on an uncorrectable error overwrites
    /// `buf` with deterministic garbage before returning the typed error —
    /// a caller that ignores the verdict consumes corrupted data, it never
    /// silently gets the truth.
    pub fn read_span_checked(
        &self,
        store: &PersistentStore,
        addr: PAddr,
        buf: &mut [u8],
        endurance: Option<&EnduranceMap>,
    ) -> Result<ReadHealth, MediaError> {
        store.read_bytes(addr, buf);
        match self.classify_span(addr, buf.len() as u64, endurance) {
            Ok(h) => Ok(h),
            Err(e) => {
                self.corrupt(e.line, e.wear, buf);
                Err(e)
            }
        }
    }

    /// Deterministically corrupts `buf` (the UE garbage a blind consumer
    /// sees). XORs hash-derived nonzero words, so the result always differs
    /// from the true bytes.
    pub fn corrupt(&self, line: Line, wear: u64, buf: &mut [u8]) {
        let Some(st) = &self.0 else { return };
        for (i, chunk) in buf.chunks_mut(8).enumerate() {
            let h = media_hash(st.cfg.seed, line.0, SALT_CORRUPT ^ (wear << 8), i as u64) | 1;
            for (b, g) in chunk.iter_mut().zip(h.to_le_bytes()) {
                *b ^= g;
            }
        }
    }

    /// Records a classified data-loss declaration from an engine that could
    /// not re-derive a line lost to a UE.
    pub fn note_loss(&self, line: Line) {
        let Some(st) = &self.0 else { return };
        st.data_loss.fetch_add(1, Ordering::Relaxed);
        let mut t = st.tables.lock().expect("media tables poisoned");
        t.loss_lines.insert(line.0);
        t.surfaced.insert(line.0);
    }

    /// One patrol-scrub pass (serial paths only — engine `tick`). Retires
    /// every pending surfaced UE, then probes the next `scrub_batch` tracked
    /// lines in ascending line order: uncorrectable probes retire the line,
    /// correctable-with-errors probes rewrite it (resetting its drift
    /// credit to the current wear).
    pub fn scrub(&self, endurance: &EnduranceMap) -> ScrubPass {
        let Some(st) = &self.0 else {
            return ScrubPass::default();
        };
        let mut pass = ScrubPass::default();
        let mut t = st.tables.lock().expect("media tables poisoned");
        let pending: Vec<u64> = t.pending_ue.iter().copied().collect();
        t.pending_ue.clear();
        for line in pending {
            Self::retire_locked(st, &mut t, line, &mut pass);
        }
        if st.cfg.scrub_batch == 0 {
            return pass;
        }
        let lines = endurance.lines_sorted();
        if lines.is_empty() {
            return pass;
        }
        // Round-robin: resume after the cursor, wrapping once.
        let start = lines.partition_point(|l| l.0 <= t.scrub_cursor);
        let n = lines.len();
        let batch = (st.cfg.scrub_batch as usize).min(n);
        for k in 0..batch {
            let line = lines[(start + k) % n];
            pass.examined += 1;
            t.scrub_cursor = line.0;
            if t.retired.contains(&line.0) {
                continue;
            }
            let wear = endurance.writes(line);
            let credit = t.refresh.get(&line.0).copied().unwrap_or(0);
            let (health, _) = st.classify_quiet(line.0, wear, wear.saturating_sub(credit));
            match health {
                ReadHealth::Clean => {}
                ReadHealth::Corrected { .. } => {
                    t.refresh.insert(line.0, wear);
                    st.scrub_rewrites.fetch_add(1, Ordering::Relaxed);
                    pass.rewrites += 1;
                    pass.rewritten.push(line);
                }
                ReadHealth::Uncorrectable => {
                    Self::retire_locked(st, &mut t, line.0, &mut pass);
                }
            }
        }
        pass
    }

    fn retire_locked(st: &MediaState, t: &mut MediaTables, line: u64, pass: &mut ScrubPass) {
        if t.retired.contains(&line) {
            return;
        }
        if t.spares_used < st.cfg.spare_lines {
            t.spares_used += 1;
            t.retired.insert(line);
            st.retired.fetch_add(1, Ordering::Relaxed);
            pass.retired += 1;
        } else {
            st.spare_exhausted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counter snapshot.
    pub fn summary(&self) -> MediaSummary {
        let Some(st) = &self.0 else {
            return MediaSummary::default();
        };
        MediaSummary {
            reads: st.reads.load(Ordering::Relaxed),
            corrected: st.corrected.load(Ordering::Relaxed),
            uncorrectable: st.uncorrectable.load(Ordering::Relaxed),
            retries: st.retries.load(Ordering::Relaxed),
            scrub_rewrites: st.scrub_rewrites.load(Ordering::Relaxed),
            retired: st.retired.load(Ordering::Relaxed),
            spare_exhausted: st.spare_exhausted.load(Ordering::Relaxed),
            data_loss: st.data_loss.load(Ordering::Relaxed),
        }
    }

    /// Every line that surfaced a UE or a declared loss, in ascending
    /// order — the oracle's attribution set for `ue_data_loss`.
    pub fn fault_lines(&self) -> BTreeSet<u64> {
        let Some(st) = &self.0 else {
            return BTreeSet::new();
        };
        let t = st.tables.lock().expect("media tables poisoned");
        t.surfaced.union(&t.loss_lines).copied().collect()
    }

    /// Lines currently retired and remapped to spares, ascending.
    pub fn retired_lines(&self) -> Vec<u64> {
        let Some(st) = &self.0 else { return Vec::new() };
        let t = st.tables.lock().expect("media tables poisoned");
        t.retired.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::config::MediaConfig;

    fn model(cfg: MediaConfig) -> MediaModel {
        MediaModel::new(MediaConfig {
            enabled: true,
            ..cfg
        })
    }

    #[test]
    fn detached_model_is_always_clean() {
        let m = MediaModel::detached();
        assert!(!m.is_attached());
        assert_eq!(m.read_line(Line(3), u64::MAX), ReadHealth::Clean);
        assert_eq!(m.summary(), MediaSummary::default());
    }

    #[test]
    fn disabled_config_stays_detached() {
        assert!(!MediaModel::new(MediaConfig::mild(1)).is_attached());
        assert!(MediaModel::new(MediaConfig::enabled(1)).is_attached());
    }

    #[test]
    fn fresh_lines_read_clean_under_mild_schedule() {
        let m = model(MediaConfig::mild(42));
        for l in 0..64 {
            assert_eq!(m.read_line(Line(l), 0), ReadHealth::Clean, "line {l}");
        }
    }

    #[test]
    fn classification_is_a_pure_function_of_seed_line_wear() {
        let a = model(MediaConfig::mild(7));
        let b = model(MediaConfig::mild(7));
        // Read in different orders: identical verdicts.
        let fwd: Vec<ReadHealth> = (0..512).map(|l| a.read_line(Line(l), l * 31)).collect();
        let rev: Vec<ReadHealth> = (0..512)
            .rev()
            .map(|l| b.read_line(Line(l), l * 31))
            .collect();
        let rev_fwd: Vec<ReadHealth> = rev.into_iter().rev().collect();
        assert_eq!(fwd, rev_fwd);
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn wear_past_cutoff_is_uncorrectable_and_retry_does_not_help() {
        let m = model(MediaConfig::harsh(9));
        let h = m.read_line(Line(5), 1);
        assert_eq!(h, ReadHealth::Uncorrectable);
        assert!(m.fault_lines().contains(&5));
        // Unworn lines still read clean even under the harsh schedule.
        assert_eq!(m.read_line(Line(6), 0), ReadHealth::Clean);
    }

    #[test]
    fn drift_grows_with_wear_and_ecc_corrects_moderate_wear() {
        let cfg = MediaConfig::mild(3);
        let m = model(cfg);
        let mut ce = [0u64; 2];
        for (bucket, wear) in [(0, 50u64), (1, 800u64)] {
            for l in 0..2000u64 {
                if let ReadHealth::Corrected { .. } = m.read_line(Line(l), wear) {
                    ce[bucket] += 1;
                }
            }
        }
        assert!(
            ce[1] > ce[0] * 2,
            "drift must grow with wear: {} vs {}",
            ce[1],
            ce[0]
        );
        assert_eq!(m.summary().uncorrectable, 0, "mild schedule must stay CE");
    }

    #[test]
    fn transient_errors_clear_on_retry() {
        // Heavy transient noise, no wear coupling: retries must rescue most
        // reads (UE requires failing every attempt).
        let cfg = MediaConfig {
            wear_flip_p32: 0,
            transient_p32: u32::MAX / 4, // 25 % per draw
            ecc_t: 0,
            max_retries: 4,
            ..MediaConfig::mild(11)
        };
        let m = model(cfg);
        let mut ue = 0;
        for l in 0..4000u64 {
            if m.read_line(Line(l), 10) == ReadHealth::Uncorrectable {
                ue += 1;
            }
        }
        let s = m.summary();
        assert!(s.retries > 0, "retries must be exercised");
        // P(attempt fails) ≈ 1-(0.75)² ≈ 0.44; five attempts ≈ 1.6 % UE.
        assert!(ue < 400, "retry must rescue transient noise, ue={ue}");
    }

    #[test]
    fn scrub_rewrites_reset_drift_and_retire_ues() {
        let cfg = MediaConfig {
            endurance_cutoff: 100_000,
            ..MediaConfig::mild(13)
        };
        let m = model(cfg);
        let mut e = EnduranceMap::new();
        for l in 0..256u64 {
            e.record(Line(l), 3000); // heavy drift territory
        }
        let before: u64 = (0..256)
            .filter(|&l| m.read_line(Line(l), 3000) != ReadHealth::Clean)
            .count() as u64;
        assert!(before > 0, "heavy wear must show CEs");
        let mut pass = ScrubPass::default();
        for _ in 0..2 {
            let p = m.scrub(&e);
            pass.rewrites += p.rewrites;
            pass.examined += p.examined;
        }
        assert!(pass.rewrites > 0, "scrub must rewrite correctable lines");
        let after: u64 = (0..256)
            .filter(|&l| m.read_line(Line(l), 3000) != ReadHealth::Clean)
            .count() as u64;
        assert!(
            after < before,
            "rewrites must clear drift: {before} -> {after}"
        );
    }

    #[test]
    fn retirement_remaps_to_spares_until_exhaustion() {
        let cfg = MediaConfig {
            endurance_cutoff: 1,
            ecc_t: 0,
            max_retries: 0,
            wear_flip_p32: 0,
            transient_p32: 0,
            spare_lines: 2,
            ..MediaConfig::mild(17)
        };
        let m = model(cfg);
        let mut e = EnduranceMap::new();
        for l in 0..4u64 {
            e.record(Line(l), 5);
            assert_eq!(m.read_line(Line(l), 5), ReadHealth::Uncorrectable);
        }
        let pass = m.scrub(&e);
        assert_eq!(pass.retired, 2, "only two spares available");
        let s = m.summary();
        assert_eq!(s.retired, 2);
        assert!(s.spare_exhausted >= 2, "exhaustion must be counted");
        // Retired lines read clean now; unretired worn lines stay UE.
        let healths: Vec<bool> = (0..4)
            .map(|l| m.read_line(Line(l), 5) == ReadHealth::Clean)
            .collect();
        assert_eq!(healths.iter().filter(|&&ok| ok).count(), 2);
    }

    #[test]
    fn checked_read_corrupts_buffer_on_ue_and_reports_typed_error() {
        let m = model(MediaConfig::harsh(23));
        let mut store = PersistentStore::new();
        store.write_bytes(PAddr(0), &[0xAB; 64]);
        let mut e = EnduranceMap::new();
        e.record(Line(0), 3);
        let mut buf = [0u8; 64];
        let err = m
            .read_span_checked(&store, PAddr(0), &mut buf, Some(&e))
            .expect_err("worn line must fail");
        assert_eq!(err.line, Line(0));
        assert_ne!(buf, [0xAB; 64], "blind consumer must see garbage");
        // The store itself still holds the truth.
        let mut truth = [0u8; 64];
        store.read_bytes(PAddr(0), &mut truth);
        assert_eq!(truth, [0xAB; 64]);
        // And the same UE corrupts identically on a second read.
        let mut buf2 = [0u8; 64];
        let _ = m.read_span_checked(&store, PAddr(0), &mut buf2, Some(&e));
        assert_eq!(buf, buf2, "corruption must be deterministic");
    }

    #[test]
    fn loss_declarations_feed_the_attribution_set() {
        let m = model(MediaConfig::mild(29));
        m.note_loss(Line(77));
        assert!(m.fault_lines().contains(&77));
        assert_eq!(m.summary().data_loss, 1);
    }
}
