//! Set-associative cache model: write-back, write-allocate.

use crate::assoc::{AssocArray, InsertOutcome, Reserved, FLAG_DIRTY, FLAG_PREFETCHED, FLAG_VALID};
use crate::replacement::ReplacementPolicy;
use crate::stats::LevelStats;
use serde::{Deserialize, Serialize};

/// Geometry and policy of one cache level.
///
/// # Example
///
/// ```
/// use membound_sim::{CacheConfig, ReplacementPolicy};
///
/// // The XuanTie C906 L1 D-cache from §3.1 of the paper:
/// let l1 = CacheConfig::new("L1D", 32 * 1024, 4, 64)
///     .policy(ReplacementPolicy::Lru)
///     .latency(4)
///     .bytes_per_cycle(4.0);
/// assert_eq!(l1.sets(), 128);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Display name ("L1D", "L2", ...).
    pub name: String,
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u16,
    /// Line size in bytes (a power of two).
    pub line_bytes: u32,
    /// Replacement policy.
    pub replacement: ReplacementPolicy,
    /// Load-to-use latency of a hit, in core cycles.
    pub latency_cycles: u32,
    /// Sustained fill bandwidth this level can *supply* to the level above,
    /// in bytes per core cycle.
    pub bytes_per_cycle: f64,
    /// Whether this level is shared between cores. Shared levels are
    /// capacity-partitioned between active cores during parallel simulation
    /// (see `Machine`), and their supply bandwidth is shared.
    pub shared: bool,
}

impl CacheConfig {
    /// A cache level with the given name, capacity, associativity and line
    /// size; LRU, 4-cycle latency, 8 B/cycle, private by default.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (zero sizes, non-power-of-two
    /// line size, capacity not divisible by `ways * line_bytes`).
    #[must_use]
    pub fn new(name: &str, size_bytes: u64, ways: u16, line_bytes: u32) -> Self {
        assert!(size_bytes > 0, "cache size must be nonzero");
        assert!(ways > 0, "cache must have at least one way");
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert_eq!(
            size_bytes % (u64::from(ways) * u64::from(line_bytes)),
            0,
            "capacity must divide evenly into ways x lines"
        );
        let cfg = Self {
            name: name.to_owned(),
            size_bytes,
            ways,
            line_bytes,
            replacement: ReplacementPolicy::Lru,
            latency_cycles: 4,
            bytes_per_cycle: 8.0,
            shared: false,
        };
        assert!(cfg.sets() > 0, "cache must have at least one set");
        cfg
    }

    /// Set the replacement policy.
    #[must_use]
    pub fn policy(mut self, policy: ReplacementPolicy) -> Self {
        self.replacement = policy;
        self
    }

    /// Set the hit latency in cycles.
    #[must_use]
    pub fn latency(mut self, cycles: u32) -> Self {
        self.latency_cycles = cycles;
        self
    }

    /// Set the supply bandwidth in bytes per core cycle.
    ///
    /// # Panics
    ///
    /// Panics if `bpc` is not finite and positive.
    #[must_use]
    pub fn bytes_per_cycle(mut self, bpc: f64) -> Self {
        assert!(bpc.is_finite() && bpc > 0.0, "bandwidth must be positive");
        self.bytes_per_cycle = bpc;
        self
    }

    /// Mark the level as shared between cores.
    #[must_use]
    pub fn shared(mut self) -> Self {
        self.shared = true;
        self
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u64 {
        self.size_bytes / (u64::from(self.ways) * u64::from(self.line_bytes))
    }

    /// A copy of this config with capacity divided by `n` (used to
    /// partition shared levels between active cores). Associativity is
    /// kept; capacity never drops below one set row (`ways ×
    /// line_bytes`).
    ///
    /// Two edges of the arithmetic are deliberate and digest-stable:
    ///
    /// * When `n` exceeds the set count, the per-core share is clamped
    ///   *up* to one full set row, so the partitions jointly model more
    ///   capacity than the physical level. That over-approximation is
    ///   preferred to a degenerate zero-set cache; a one-time warning is
    ///   emitted on stderr so surveys over many-core what-if devices
    ///   don't silently rely on it.
    /// * The quotient set count need not stay a power of two (e.g. 128
    ///   sets split 3 ways gives 42). [`crate::Cache`] handles this: its
    ///   set indexing uses the fast mask only for power-of-two set
    ///   counts and falls back to modulo otherwise, at a small host-time
    ///   (never simulated-result) cost.
    #[must_use]
    pub fn partitioned(&self, n: u64) -> Self {
        let mut cfg = self.clone();
        if n <= 1 {
            return cfg;
        }
        let min_size = u64::from(cfg.ways) * u64::from(cfg.line_bytes);
        if cfg.size_bytes / n < min_size {
            static CLAMPED: std::sync::Once = std::sync::Once::new();
            CLAMPED.call_once(|| {
                eprintln!(
                    "warning: partitioning cache {:?} ({} B, {} ways) across {} cores \
                     clamps each share up to one {} B set row; the partitions jointly \
                     model more capacity than the level has",
                    cfg.name, cfg.size_bytes, cfg.ways, n, min_size
                );
            });
        }
        let target = (cfg.size_bytes / n).max(min_size);
        let rows = (target / min_size).max(1);
        cfg.size_bytes = rows * min_size;
        cfg
    }
}

/// What happened on a cache lookup-with-fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccessResult {
    /// The access hit (data present before the access).
    pub hit: bool,
    /// The hit was served by a line the prefetcher brought in (first demand
    /// touch after a prefetch fill).
    pub prefetch_hit: bool,
    /// A dirty line had to be written back; contains its line address.
    pub writeback: Option<u64>,
}

/// A set-associative cache with write-back + write-allocate semantics.
///
/// The cache stores *line addresses* (byte address >> line shift); callers
/// split byte accesses into lines (see `membound_trace::MemAccess::lines`).
///
/// # Example
///
/// ```
/// use membound_sim::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::new("L1D", 1024, 2, 64));
/// assert!(!c.access(0, false).hit); // cold miss
/// c.fill(0, false, false);          // fetch from the level below
/// assert!(c.access(0, false).hit);  // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    array: AssocArray,
    stats: LevelStats,
    line_shift: u32,
}

impl Cache {
    /// Build a cache from its configuration.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let array = AssocArray::new(
            config.sets() as usize,
            config.ways as usize,
            config.replacement,
            0x243f_6a88_85a3_08d3,
        );
        Self {
            array,
            stats: LevelStats::default(),
            line_shift: config.line_bytes.trailing_zeros(),
            config,
        }
    }

    /// The configuration this cache was built from.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> LevelStats {
        self.stats
    }

    /// Mutable counter access (the analytic executor's exact scaled
    /// advance writes counters back after fast-forwarding).
    pub(crate) fn stats_mut(&mut self) -> &mut LevelStats {
        &mut self.stats
    }

    /// Compare the *state* (not counters) against `base` under the
    /// line-address isomorphism `map`. See `AssocArray::ff_shift_eq`.
    pub(crate) fn ff_shift_eq<F: Fn(u64) -> u64>(&self, base: &Cache, map: F) -> bool {
        self.config == base.config && self.array.ff_shift_eq(&base.array, map)
    }

    /// Apply the line-address isomorphism `map` to every resident line.
    pub(crate) fn ff_shift_lines<F: Fn(u64) -> u64>(&mut self, map: F) {
        self.array.ff_shift_tags(map);
    }

    /// Does `ok` hold for every resident line address?
    pub(crate) fn ff_all_lines<F: FnMut(u64) -> bool>(&self, ok: F) -> bool {
        self.array.ff_all_tags(ok)
    }

    /// Line size in bytes.
    #[must_use]
    pub fn line_bytes(&self) -> u32 {
        self.config.line_bytes
    }

    /// Convert a byte address to this cache's line address.
    #[must_use]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Whether `line_addr` is currently resident (no state change).
    #[must_use]
    #[inline]
    pub fn contains(&self, line_addr: u64) -> bool {
        self.array.peek(line_addr).is_some()
    }

    /// Demand access to `line_addr`. On a miss the line is *not* filled —
    /// call [`Cache::fill`] after fetching from below, mirroring the
    /// request/response flow of a real hierarchy.
    ///
    /// `is_write` marks the resident line dirty on a hit.
    #[inline]
    pub fn access(&mut self, line_addr: u64, is_write: bool) -> CacheAccessResult {
        if let Some((_, prefetch_hit)) = self.array.access_demand(line_addr, is_write) {
            if prefetch_hit {
                self.stats.prefetch_hits += 1;
            }
            self.stats.hits += 1;
            CacheAccessResult {
                hit: true,
                prefetch_hit,
                writeback: None,
            }
        } else {
            self.stats.misses += 1;
            CacheAccessResult {
                hit: false,
                prefetch_hit: false,
                writeback: None,
            }
        }
    }

    /// [`Cache::access`] fused with victim preselection: on a miss, also
    /// return the slot the follow-up [`Cache::fill_reserved`] of this line
    /// will use, so the miss scan is not repeated. The slot is only valid
    /// while nothing else touches *this* cache level (other levels and
    /// DRAM accounting are fine).
    ///
    /// On a hit the third value reports where the line sits and whether
    /// it is dirty after this access — exactly what a follow-up
    /// [`Cache::probe_for_repeat`] of the line would return (the demand
    /// touch consumed any prefetched flag), so repeat fast paths can arm
    /// without rescanning.
    #[inline]
    pub(crate) fn access_reserving(
        &mut self,
        line_addr: u64,
        is_write: bool,
    ) -> (
        CacheAccessResult,
        Option<Reserved>,
        Option<(usize, u32, bool)>,
    ) {
        let (hit, reserved) = self.array.access_demand_reserving(line_addr, is_write);
        if let Some((way, prefetch_hit, dirty)) = hit {
            if prefetch_hit {
                self.stats.prefetch_hits += 1;
            }
            self.stats.hits += 1;
            let set = self.array.set_of(line_addr);
            return (
                CacheAccessResult {
                    hit: true,
                    prefetch_hit,
                    writeback: None,
                },
                None,
                Some((set, way, dirty)),
            );
        }
        self.stats.misses += 1;
        (
            CacheAccessResult {
                hit: false,
                prefetch_hit: false,
                writeback: None,
            },
            reserved,
            None,
        )
    }

    /// Install `line_addr` (after fetching it from the level below),
    /// evicting a victim if the set is full. Returns the line address of a
    /// dirty victim that must be written back, if any.
    ///
    /// `is_write` marks the new line dirty (write-allocate store miss);
    /// `prefetched` tags it as a prefetch fill for accuracy accounting.
    #[inline]
    pub fn fill(&mut self, line_addr: u64, is_write: bool, prefetched: bool) -> Option<u64> {
        let outcome = self
            .array
            .insert(line_addr, Self::fill_flags(is_write, prefetched));
        self.account_fill(outcome, prefetched)
    }

    /// [`Cache::fill`] through a slot remembered by
    /// [`Cache::access_reserving`] (same line, nothing touched this level
    /// in between), skipping the redundant placement scan. Falls back to a
    /// plain fill when the miss could not reserve a slot.
    ///
    /// Returns the dirty victim (if any) and the way the line was
    /// installed at — `(set_of_line(..), way)` is the slot a follow-up
    /// [`Cache::probe_for_repeat`] would locate, letting callers arm
    /// repeat fast paths without rescanning.
    #[inline]
    pub(crate) fn fill_reserved(
        &mut self,
        line_addr: u64,
        is_write: bool,
        reserved: Option<Reserved>,
    ) -> (Option<u64>, u32) {
        let flags = Self::fill_flags(is_write, false);
        let outcome = match reserved {
            Some(r) => self.array.install_reserved(line_addr, flags, r),
            None => self.array.insert(line_addr, flags),
        };
        let way = match outcome {
            InsertOutcome::AlreadyPresent(w)
            | InsertOutcome::Installed(w)
            | InsertOutcome::Evicted { way: w, .. } => w,
        };
        (self.account_fill(outcome, false), way)
    }

    /// Set index of a line address (for pairing with the way returned by
    /// [`Cache::fill_reserved`]).
    #[inline]
    pub(crate) fn set_of_line(&self, line_addr: u64) -> usize {
        self.array.set_of(line_addr)
    }

    #[inline]
    fn fill_flags(is_write: bool, prefetched: bool) -> u8 {
        let mut flags = 0u8;
        if is_write {
            flags |= FLAG_DIRTY;
        }
        if prefetched {
            flags |= FLAG_PREFETCHED;
        }
        flags
    }

    #[inline]
    fn account_fill(&mut self, outcome: InsertOutcome, prefetched: bool) -> Option<u64> {
        match outcome {
            InsertOutcome::AlreadyPresent(_) => None,
            outcome => {
                if prefetched {
                    self.stats.prefetches_issued += 1;
                }
                self.stats.fill_bytes += u64::from(self.config.line_bytes);
                match outcome {
                    InsertOutcome::Evicted {
                        old_tag, old_flags, ..
                    } => {
                        self.stats.evictions += 1;
                        if old_flags & FLAG_DIRTY != 0 {
                            self.stats.writebacks += 1;
                            self.stats.writeback_bytes += u64::from(self.config.line_bytes);
                            Some(old_tag)
                        } else {
                            None
                        }
                    }
                    _ => None,
                }
            }
        }
    }

    /// Locate `line_addr` for the pipeline's repeat-line fast path without
    /// changing any state: `Some((set, way, dirty))` when the line is
    /// resident *and* a repeat demand touch of it would be a plain hit —
    /// i.e. its prefetched flag has already been consumed, so
    /// [`Cache::repeat_hit`] reproduces [`Cache::access`] exactly. The
    /// last-hit hint usually resolves this in one comparison (a demand hit
    /// or demand fill of the line leaves the hint on its way).
    #[inline]
    pub(crate) fn probe_for_repeat(&self, line_addr: u64) -> Option<(usize, u32, bool)> {
        let set = self.array.set_of(line_addr);
        let hinted = self.array.hint_of(set);
        let way = if self.array.flags_of(set, hinted) & FLAG_VALID != 0
            && self.array.tag_of(set, hinted) == line_addr
        {
            hinted
        } else {
            self.array.peek(line_addr)?
        };
        let flags = self.array.flags_of(set, way);
        if flags & FLAG_PREFETCHED != 0 {
            // A repeat touch would consume the flag and count a prefetch
            // hit — not a bare hit, so the fast path must not arm on it.
            return None;
        }
        Some((set, way, flags & FLAG_DIRTY != 0))
    }

    /// Whether `(set, way)` currently holds exactly `line_addr` as a
    /// plain resident line — valid and not awaiting its first
    /// post-prefetch demand touch — so a demand read of it is a bare hit
    /// that [`Cache::repeat_hit`] reproduces exactly.
    #[inline]
    pub(crate) fn holds_plain(&self, set: usize, way: u32, line_addr: u64) -> bool {
        self.array.flags_of(set, way) & (FLAG_VALID | FLAG_PREFETCHED) == FLAG_VALID
            && self.array.tag_of(set, way) == line_addr
    }

    /// Account a repeat demand hit of a line located via
    /// [`Cache::probe_for_repeat`]. Bit-identical to [`Cache::access`] of
    /// a resident line with its prefetched flag clear: the hit counter
    /// moves and the way's recency (and last-hit hint) are re-touched —
    /// only the tag scan is skipped. The write half (dirty flag) is
    /// [`Cache::mark_dirty`].
    #[inline]
    pub(crate) fn repeat_hit(&mut self, set: usize, way: u32) {
        self.stats.hits += 1;
        self.array.retouch(set, way);
    }

    /// Mark `(set, way)` dirty — the store half of a repeat hit.
    #[inline]
    pub(crate) fn mark_dirty(&mut self, set: usize, way: u32) {
        self.array.set_flags(set, way, FLAG_DIRTY);
    }

    /// Number of valid lines currently resident (test/diagnostic helper).
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.array.valid_entries()
    }

    /// Invalidate everything (state and dirty bits are dropped; counters
    /// are kept).
    pub fn flush(&mut self) {
        self.array.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64B lines = 256 B.
        Cache::new(CacheConfig::new("t", 256, 2, 64))
    }

    #[test]
    fn cold_miss_then_hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(7, false).hit);
        assert_eq!(c.fill(7, false, false), None);
        let r = c.access(7, false);
        assert!(r.hit);
        assert!(!r.prefetch_hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn conflict_eviction_within_a_set() {
        let mut c = tiny(); // lines mapping to set 0: even line addresses
        c.fill(0, false, false);
        c.fill(2, false, false);
        assert_eq!(c.resident_lines(), 2);
        // Third even line forces an eviction in set 0.
        assert_eq!(c.fill(4, false, false), None); // clean victim
        assert_eq!(c.resident_lines(), 2);
        assert_eq!(c.stats().evictions, 1);
        // LRU: line 0 was oldest and must be gone.
        assert!(!c.contains(0));
        assert!(c.contains(2));
        assert!(c.contains(4));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.fill(0, true, false); // dirty fill
        c.fill(2, false, false);
        let wb = c.fill(4, false, false);
        assert_eq!(wb, Some(0), "dirty line 0 must be written back");
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.stats().writeback_bytes, 64);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.fill(0, false, false);
        c.access(0, true); // dirty it via store hit
        c.fill(2, false, false);
        let wb = c.fill(4, false, false);
        assert_eq!(wb, Some(0));
    }

    #[test]
    fn prefetch_hit_detected_once() {
        let mut c = tiny();
        c.fill(0, false, true); // prefetch fill
        let r1 = c.access(0, false);
        assert!(r1.hit && r1.prefetch_hit);
        let r2 = c.access(0, false);
        assert!(r2.hit && !r2.prefetch_hit, "flag clears after first touch");
        assert_eq!(c.stats().prefetches_issued, 1);
        assert_eq!(c.stats().prefetch_hits, 1);
    }

    #[test]
    fn fill_of_resident_line_does_not_duplicate() {
        let mut c = tiny();
        c.fill(0, false, false);
        c.fill(0, true, false);
        assert_eq!(c.resident_lines(), 1);
        // And the duplicate fill dirtied it.
        c.fill(2, false, false);
        assert_eq!(c.fill(4, false, false), Some(0));
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = tiny();
        for l in 0..100 {
            c.fill(l, false, false);
        }
        assert!(c.resident_lines() <= 4);
    }

    #[test]
    fn lru_within_set_respects_touch_order() {
        let mut c = tiny();
        c.fill(0, false, false);
        c.fill(2, false, false);
        c.access(0, false); // 0 is now MRU; 2 is the LRU victim
        c.fill(4, false, false);
        assert!(c.contains(0));
        assert!(!c.contains(2));
    }

    #[test]
    fn flush_clears_state_but_not_counters() {
        let mut c = tiny();
        c.fill(0, false, false);
        c.access(0, false);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.stats().hits, 1);
        assert!(!c.access(0, false).hit);
    }

    #[test]
    fn sets_geometry() {
        let cfg = CacheConfig::new("L1", 32 * 1024, 4, 64);
        assert_eq!(cfg.sets(), 128);
        let c = Cache::new(cfg);
        assert_eq!(c.line_of(0x1000), 0x40);
    }

    #[test]
    fn partitioned_halves_capacity_and_keeps_geometry_valid() {
        let cfg = CacheConfig::new("L2", 1024 * 1024, 16, 64).shared();
        let half = cfg.partitioned(2);
        assert_eq!(half.size_bytes, 512 * 1024);
        assert_eq!(half.ways, 16);
        assert!(half.sets() > 0);
        // Partitioning by more cores than way-rows clamps to one set row.
        let tiny = CacheConfig::new("x", 2048, 2, 64).partitioned(1000);
        assert_eq!(tiny.size_bytes, 128);
    }

    #[test]
    fn partitioned_by_one_is_identity() {
        let cfg = CacheConfig::new("L2", 128 * 1024, 8, 64);
        assert_eq!(cfg.partitioned(1), cfg);
    }

    #[test]
    fn partitioned_beyond_set_count_clamps_to_one_row_per_core() {
        // 2048 B / (2 ways × 64 B) = 16 sets; asking for 64 partitions
        // would leave a fraction of a row, so each core gets the one-row
        // floor — jointly over-modelling capacity, per the documented
        // approximation (and warned about once on stderr).
        let cfg = CacheConfig::new("L2", 2048, 2, 64).shared();
        let share = cfg.partitioned(64);
        assert_eq!(share.size_bytes, 128, "one 2-way × 64 B set row");
        assert_eq!(share.sets(), 1);
        assert_eq!(share.ways, cfg.ways, "associativity preserved");
        // The clamp floor is also reproducible: same input, same share.
        assert_eq!(share, cfg.partitioned(64));
    }

    #[test]
    fn partitioned_may_produce_non_power_of_two_sets() {
        // 64 KiB / (8 ways × 64 B) = 128 sets; a 5-way split yields 25
        // sets. The cache must stay fully functional on the modulo
        // set-index fallback (the fast mask needs a power of two).
        let cfg = CacheConfig::new("L2", 64 * 1024, 8, 64).shared();
        let share = cfg.partitioned(5);
        assert_eq!(share.sets(), 25);
        assert!(!share.sets().is_power_of_two());
        let mut c = Cache::new(share);
        // Lines that collide under mod-25 indexing still behave like a
        // set-associative cache: fill, re-hit, and evict coherently.
        for line in 0..400u64 {
            if !c.access(line, false).hit {
                c.fill(line, false, false);
            }
        }
        for line in 0..400u64 {
            let _ = c.access(line, false);
        }
        let s = c.stats();
        assert_eq!(s.accesses(), 800);
        assert!(s.hits > 0 && s.misses > 0, "{s:?}");
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn bad_geometry_rejected() {
        let _ = CacheConfig::new("bad", 1000, 3, 64);
    }

    #[test]
    fn random_policy_cache_stays_within_capacity() {
        let mut c =
            Cache::new(CacheConfig::new("r", 4096, 4, 64).policy(ReplacementPolicy::Random));
        for l in 0..10_000u64 {
            c.access(l % 97, true);
            c.fill(l % 97, true, false);
        }
        assert!(c.resident_lines() <= 64);
    }

    #[test]
    fn repeated_hits_use_the_hint_path_consistently() {
        let mut c = tiny();
        c.fill(0, false, false);
        c.fill(2, false, false);
        for _ in 0..100 {
            assert!(c.access(0, false).hit);
            assert!(c.access(0, false).hit);
            assert!(c.access(2, false).hit);
        }
        assert_eq!(c.stats().hits, 300);
        assert_eq!(c.stats().misses, 0);
    }
}
