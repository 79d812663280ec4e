//! TLB models and the Sv39-style page-walk cost.
//!
//! The paper's §3.1 lists, per device, an L1 TLB (the C906 calls it a
//! "uTLB", fully associative) and an L2 TLB ("jTLB" on the C906, 2-way;
//! direct-mapped 512-entry on the U74). We model both levels as
//! set-associative structures over virtual page numbers, plus a
//! three-level Sv39 page walk whose PTE loads the hierarchy replays
//! through the data caches.

use crate::assoc::{AssocArray, InsertOutcome, Reserved};
use crate::replacement::ReplacementPolicy;
use crate::stats::LevelStats;
use serde::{Deserialize, Serialize};

/// Geometry of one TLB level.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbConfig {
    /// Display name ("DTLB", "jTLB", ...).
    pub name: String,
    /// Number of entries.
    pub entries: u32,
    /// Ways per set; use `entries` for fully associative, `1` for
    /// direct-mapped.
    pub ways: u16,
    /// Page size in bytes (4 KiB for Sv39 base pages).
    pub page_bytes: u64,
    /// Extra cycles charged when the lookup has to come from this level
    /// (0 for a first-level TLB hit).
    pub latency_cycles: u32,
    /// Replacement policy between entries of a set.
    pub replacement: ReplacementPolicy,
}

impl TlbConfig {
    /// Fully associative TLB with `entries` entries over 4 KiB pages, LRU.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or exceeds `u16::MAX` (fully associative
    /// sets are capped by the way-index width).
    #[must_use]
    pub fn fully_associative(name: &str, entries: u32) -> Self {
        assert!(entries > 0, "TLB needs at least one entry");
        assert!(
            entries <= u64::from(u16::MAX) as u32,
            "fully associative TLB too large"
        );
        Self {
            name: name.to_owned(),
            entries,
            ways: entries as u16,
            page_bytes: 4096,
            latency_cycles: 0,
            replacement: ReplacementPolicy::Lru,
        }
    }

    /// Set-associative TLB with `entries` entries in sets of `ways`.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or does not divide `entries`.
    #[must_use]
    pub fn set_associative(name: &str, entries: u32, ways: u16) -> Self {
        assert!(ways > 0, "TLB needs at least one way");
        assert_eq!(
            entries % u32::from(ways),
            0,
            "entries must divide into sets"
        );
        Self {
            ways,
            ..Self::fully_associative_unchecked(name, entries)
        }
    }

    fn fully_associative_unchecked(name: &str, entries: u32) -> Self {
        Self {
            name: name.to_owned(),
            entries,
            ways: 1,
            page_bytes: 4096,
            latency_cycles: 0,
            replacement: ReplacementPolicy::Lru,
        }
    }

    /// Direct-mapped TLB (one way per set).
    #[must_use]
    pub fn direct_mapped(name: &str, entries: u32) -> Self {
        Self::set_associative(name, entries, 1)
    }

    /// Override the lookup latency.
    #[must_use]
    pub fn latency(mut self, cycles: u32) -> Self {
        self.latency_cycles = cycles;
        self
    }

    /// Override the page size.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not a power of two.
    #[must_use]
    pub fn page_size(mut self, bytes: u64) -> Self {
        assert!(bytes.is_power_of_two(), "page size must be a power of two");
        self.page_bytes = bytes;
        self
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u32 {
        self.entries / u32::from(self.ways)
    }

    /// Address reach in bytes (entries × page size).
    #[must_use]
    pub fn reach_bytes(&self) -> u64 {
        u64::from(self.entries) * self.page_bytes
    }
}

/// One TLB level.
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    array: AssocArray,
    stats: LevelStats,
    page_shift: u32,
}

impl Tlb {
    /// Build a TLB from its configuration.
    #[must_use]
    pub fn new(config: TlbConfig) -> Self {
        let array = AssocArray::new(
            config.sets() as usize,
            usize::from(config.ways),
            config.replacement,
            0x1319_8a2e_0370_7344,
        );
        Self {
            array,
            stats: LevelStats::default(),
            page_shift: config.page_bytes.trailing_zeros(),
            config,
        }
    }

    /// The configuration this TLB was built from.
    #[must_use]
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> LevelStats {
        self.stats
    }

    /// Virtual page number of a byte address.
    #[must_use]
    #[inline]
    pub fn vpn_of(&self, addr: u64) -> u64 {
        addr >> self.page_shift
    }

    /// Look up a virtual page number; returns `true` on a hit. Misses do
    /// not insert — call [`Tlb::fill`].
    pub fn lookup(&mut self, vpn: u64) -> bool {
        if self.array.lookup(vpn).is_some() {
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    /// Account a repeat hit of the most recently translated page without
    /// re-scanning the array. Equivalent to [`Tlb::lookup`] of a resident
    /// MRU entry: the hit counter moves and the recency re-touch is a
    /// no-op (the entry is already the most recent).
    #[inline]
    pub(crate) fn note_repeat_hit(&mut self) {
        self.stats.hits += 1;
    }

    /// Insert a translation for `vpn`, evicting per policy if needed.
    pub fn fill(&mut self, vpn: u64) {
        if let InsertOutcome::Evicted { .. } = self.array.insert(vpn, 0) {
            self.stats.evictions += 1;
        }
    }

    /// [`Tlb::lookup`] fused with fill-slot preselection: a miss also
    /// reports where the post-walk [`Tlb::fill_reserved`] of this `vpn`
    /// will install, so the set is scanned once instead of twice. The
    /// slot stays valid across the walk because page walks touch the data
    /// caches, never this TLB.
    #[inline]
    pub(crate) fn lookup_reserving(&mut self, vpn: u64) -> (bool, Option<Reserved>) {
        let (hit, reserved) = self.array.access_demand_reserving(vpn, false);
        if hit.is_some() {
            self.stats.hits += 1;
            (true, None)
        } else {
            self.stats.misses += 1;
            (false, reserved)
        }
    }

    /// [`Tlb::fill`] through a slot remembered by
    /// [`Tlb::lookup_reserving`] for the same `vpn`.
    #[inline]
    pub(crate) fn fill_reserved(&mut self, vpn: u64, reserved: Option<Reserved>) {
        let outcome = match reserved {
            Some(r) => self.array.install_reserved(vpn, 0, r),
            None => self.array.insert(vpn, 0),
        };
        if let InsertOutcome::Evicted { .. } = outcome {
            self.stats.evictions += 1;
        }
    }

    /// Number of valid entries (diagnostic).
    #[must_use]
    pub fn resident_entries(&self) -> usize {
        self.array.valid_entries()
    }
}

/// The Sv39 page-walk model: radix depth and the synthetic page-table
/// addresses whose loads are replayed through the data-cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageWalk {
    /// Number of radix levels walked on a last-level TLB miss (Sv39: 3).
    pub levels: u32,
    /// Fixed control overhead per walk, in cycles, on top of the PTE loads.
    pub overhead_cycles: u32,
}

impl PageWalk {
    /// The Sv39 walk used by both RISC-V devices in the paper.
    #[must_use]
    pub fn sv39() -> Self {
        Self {
            levels: 3,
            overhead_cycles: 8,
        }
    }

    /// Synthetic PTE byte addresses for walking `vpn`, placed in a
    /// dedicated high address region so they never alias user data.
    ///
    /// Consecutive pages share upper-level PTEs (consecutive VPNs map to
    /// the same level-1/level-2 PTE lines), so walk locality is realistic:
    /// a sequential sweep's walks mostly hit in the data caches.
    #[must_use]
    pub fn pte_addresses(&self, vpn: u64) -> Vec<u64> {
        (0..self.levels).map(|i| self.pte_address(vpn, i)).collect()
    }

    /// The `i`-th PTE byte address of a walk of `vpn` (`i == 0` is the
    /// root level, `i == levels - 1` the leaf). Walks are hot — a thrashed
    /// TLB walks on nearly every reference — so the simulation loop
    /// iterates this directly instead of materializing
    /// [`PageWalk::pte_addresses`].
    ///
    /// # Panics
    ///
    /// Panics (in debug builds, via arithmetic underflow) if
    /// `i >= self.levels`.
    #[must_use]
    pub fn pte_address(&self, vpn: u64, i: u32) -> u64 {
        const PT_BASE: u64 = 0x7f00_0000_0000;
        // Level k index: bits of the VPN, 9 bits per level (512-entry
        // nodes), highest level first. Each PTE is 8 bytes.
        let k = self.levels - 1 - i;
        let idx = (vpn >> (9 * k)) & 0x1ff;
        let node = vpn >> (9 * (k + 1)); // which table node at this level
        let node_hash = node.wrapping_mul(0x9e37_79b9).wrapping_add(u64::from(k));
        PT_BASE + (node_hash % (1 << 20)) * 4096 + idx * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_associative_hits_anywhere() {
        let mut t = Tlb::new(TlbConfig::fully_associative("uTLB", 4));
        for vpn in [1u64, 100, 7_000, 12] {
            assert!(!t.lookup(vpn));
            t.fill(vpn);
        }
        for vpn in [1u64, 100, 7_000, 12] {
            assert!(t.lookup(vpn));
        }
        assert_eq!(t.resident_entries(), 4);
    }

    #[test]
    fn lru_eviction_in_fully_associative() {
        let mut t = Tlb::new(TlbConfig::fully_associative("uTLB", 2));
        t.fill(1);
        t.fill(2);
        assert!(t.lookup(1)); // 2 becomes LRU
        t.fill(3);
        assert!(t.lookup(1));
        assert!(!t.lookup(2), "LRU entry must have been evicted");
    }

    #[test]
    fn direct_mapped_conflicts_on_same_set() {
        let mut t = Tlb::new(TlbConfig::direct_mapped("L2TLB", 16));
        t.fill(0);
        t.fill(16); // same set (0 % 16 == 16 % 16)
        assert!(!t.lookup(0), "direct-mapped conflict must evict");
        assert!(t.lookup(16));
    }

    #[test]
    fn set_associative_geometry() {
        let cfg = TlbConfig::set_associative("jTLB", 128, 2);
        assert_eq!(cfg.sets(), 64);
        assert_eq!(cfg.reach_bytes(), 128 * 4096);
    }

    #[test]
    fn duplicate_fill_is_idempotent() {
        let mut t = Tlb::new(TlbConfig::fully_associative("t", 4));
        t.fill(9);
        t.fill(9);
        assert_eq!(t.resident_entries(), 1);
    }

    #[test]
    fn vpn_uses_page_shift() {
        let t = Tlb::new(TlbConfig::fully_associative("t", 4));
        assert_eq!(t.vpn_of(4096 * 3 + 17), 3);
        let big = Tlb::new(TlbConfig::fully_associative("t", 4).page_size(2 * 1024 * 1024));
        assert_eq!(big.vpn_of(2 * 1024 * 1024), 1);
    }

    #[test]
    fn reach_matches_paper_geometries() {
        // C906: 10 D-uTLB entries over 4K pages => 40 KiB reach.
        let utlb = TlbConfig::fully_associative("D-uTLB", 10);
        assert_eq!(utlb.reach_bytes(), 40 * 1024);
        // U74 L2 TLB: 512 direct-mapped entries => 2 MiB reach.
        let l2 = TlbConfig::direct_mapped("L2TLB", 512);
        assert_eq!(l2.reach_bytes(), 2 * 1024 * 1024);
    }

    #[test]
    fn sv39_walk_has_three_levels_and_stable_addresses() {
        let w = PageWalk::sv39();
        let a = w.pte_addresses(12345);
        let b = w.pte_addresses(12345);
        assert_eq!(a.len(), 3);
        assert_eq!(a, b);
        // All in the reserved page-table region.
        assert!(a.iter().all(|&x| x >= 0x7f00_0000_0000));
    }

    #[test]
    fn adjacent_pages_share_upper_level_ptes() {
        let w = PageWalk::sv39();
        let a = w.pte_addresses(1000);
        let b = w.pte_addresses(1001);
        // Top two levels identical, leaf level adjacent (8 bytes apart).
        assert_eq!(a[0], b[0]);
        assert_eq!(a[1], b[1]);
        assert_eq!(b[2], a[2] + 8);
    }

    #[test]
    fn leaf_ptes_wrap_within_node() {
        let w = PageWalk::sv39();
        // VPN 511 and 512 differ in the level-1 index; leaf nodes differ.
        let a = w.pte_addresses(511);
        let b = w.pte_addresses(512);
        assert_ne!(a[2], b[2]);
        assert_ne!(a[1], b[1]);
    }

    #[test]
    #[should_panic(expected = "divide into sets")]
    fn bad_set_geometry_rejected() {
        let _ = TlbConfig::set_associative("bad", 100, 3);
    }
}
