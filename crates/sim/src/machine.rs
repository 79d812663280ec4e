//! The whole-device model: cores, shared levels, DRAM contention.

use crate::cache::CacheConfig;
use crate::core::CoreConfig;
use crate::dram::DramConfig;
use crate::hierarchy::{CoreOutcome, CorePipeline, PhaseAccum, PipelineConfig};
use crate::prefetch::PrefetcherConfig;
use crate::stats::{CycleBreakdown, DramStats, LevelStats};
use crate::tlb::{PageWalk, TlbConfig};
use membound_parallel::{JobBudget, Pool, Task};
use serde::{Deserialize, Serialize};

/// The analytic-execution default a fresh [`Machine`] picks up: the
/// `MEMBOUND_ANALYTIC` environment variable (`0`/`off`/`false`/`no`
/// disable), else on.
#[must_use]
pub fn analytic_default() -> bool {
    std::env::var("MEMBOUND_ANALYTIC")
        .map(|v| {
            !matches!(
                v.to_ascii_lowercase().as_str(),
                "0" | "off" | "false" | "no"
            )
        })
        .unwrap_or(true)
}

/// Full static description of a device (one of the paper's four boards, or
/// a custom configuration).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Marketing name ("Mango Pi MQ-Pro (Allwinner D1)").
    pub name: String,
    /// Instruction-set architecture ("RV64IMAFDCV", "ARMv8-A", ...).
    pub isa: String,
    /// Number of cores available to software.
    pub cores: u32,
    /// Core pipeline model (shared by all cores).
    pub core: CoreConfig,
    /// Cache levels, L1 data cache first.
    pub caches: Vec<CacheConfig>,
    /// One prefetcher per cache level ([`PrefetcherConfig::None`] to
    /// disable).
    pub prefetchers: Vec<PrefetcherConfig>,
    /// First-level data TLB.
    pub dtlb: TlbConfig,
    /// Unified second-level TLB, if present.
    pub l2tlb: Option<TlbConfig>,
    /// Page-walk model.
    pub walk: PageWalk,
    /// DRAM channel model.
    pub dram: DramConfig,
    /// Total DRAM capacity in bytes — workloads that do not fit are
    /// rejected, reproducing the paper's missing Mango Pi bars at 16384².
    pub dram_capacity_bytes: u64,
    /// Whether address translation is simulated (on by default; the
    /// ablation benches turn it off to isolate TLB effects).
    pub tlb_enabled: bool,
}

impl DeviceSpec {
    /// Peak DRAM bandwidth in GB/s implied by the model.
    #[must_use]
    pub fn dram_gbps(&self) -> f64 {
        self.dram.gbps_at(self.core.freq_ghz)
    }

    /// Whether a workload of `bytes` fits in device memory (leaving ~15%
    /// headroom for the OS, as on the real 1 GB Mango Pi).
    #[must_use]
    pub fn fits_in_memory(&self, bytes: u64) -> bool {
        (bytes as f64) <= self.dram_capacity_bytes as f64 * 0.85
    }

    /// Disable all hardware prefetchers (ablation helper).
    #[must_use]
    pub fn without_prefetchers(mut self) -> Self {
        for p in &mut self.prefetchers {
            *p = PrefetcherConfig::None;
        }
        self
    }

    /// Disable TLB/page-walk simulation (ablation helper).
    #[must_use]
    pub fn without_tlb(mut self) -> Self {
        self.tlb_enabled = false;
        self
    }
}

/// What limited a phase's duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Bottleneck {
    /// A core's issue + stall cycles dominated (compute/latency bound).
    Core,
    /// A shared cache level's supply bandwidth dominated.
    SharedCache {
        /// Index of the limiting level (0 = L1, though L1 is never shared
        /// in the presets).
        level: usize,
    },
    /// Aggregate DRAM channel bandwidth dominated.
    Dram,
}

impl std::fmt::Display for Bottleneck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bottleneck::Core => write!(f, "core (issue/latency)"),
            Bottleneck::SharedCache { level } => write!(f, "shared L{} bandwidth", level + 1),
            Bottleneck::Dram => write!(f, "DRAM bandwidth"),
        }
    }
}

/// Timing and accounting of one simulated phase across all cores.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseReport {
    /// Duration of the phase in core cycles (the max over the competing
    /// constraints).
    pub cycles: f64,
    /// What the limiting constraint was.
    pub bottleneck: Bottleneck,
    /// Slowest core's own cycle count (issue + stall + private bandwidth).
    pub slowest_core_cycles: f64,
    /// DRAM occupancy of the phase in cycles.
    pub dram_occupancy_cycles: f64,
}

/// Result of simulating one kernel run on a device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Device name the run was simulated on.
    pub device: String,
    /// Number of software threads (= simulated cores used).
    pub threads: u32,
    /// Total simulated duration in core cycles.
    pub cycles: f64,
    /// Total simulated duration in seconds.
    pub seconds: f64,
    /// Per-phase timing (one entry when the kernel has no barriers).
    pub phases: Vec<PhaseReport>,
    /// Cache statistics per level, summed over cores.
    pub cache_stats: Vec<LevelStats>,
    /// First-level TLB statistics, summed over cores.
    pub dtlb_stats: LevelStats,
    /// Second-level TLB statistics, summed over cores.
    pub l2tlb_stats: Option<LevelStats>,
    /// DRAM traffic, summed over cores.
    pub dram: DramStats,
    /// Issue/stall totals summed over cores (diagnostic; wall-clock comes
    /// from `cycles`).
    pub core_cycles_total: CycleBreakdown,
    /// Host worker threads that replayed the simulated cores (1 when the
    /// replay ran serially). A host-side diagnostic like wall time: it
    /// depends on the [`membound_parallel::JobBudget`] and is excluded
    /// from [`SimReport::stats_digest`].
    pub host_workers: u32,
    /// Constant-stride batches the cores received through
    /// [`membound_trace::TraceSink::access_strided`] /
    /// [`membound_trace::TraceSink::access_strided_rmw`], summed over
    /// cores. A diagnostic of how much of the reference stream took the
    /// bulk path; like `host_workers` it describes *how* the replay ran,
    /// not what it simulated, and is excluded from
    /// [`SimReport::stats_digest`].
    pub strided_batches: u64,
    /// Elements the analytic executor advanced by steady-state
    /// multiplication instead of replaying (0 when analytic execution is
    /// off). Like `host_workers`, a diagnostic of *how* the replay ran —
    /// analytic fast-forward is digest-preserving by construction (see
    /// DESIGN.md §15) — so it is excluded from
    /// [`SimReport::stats_digest`].
    #[serde(default)]
    pub analytic_ops: u64,
    /// Elements an armed analytic executor replayed raw: ops that are
    /// not loops, loops it refused, and the warm-up and remainder of the
    /// loops it fast-forwarded (0 when no core armed). With
    /// `analytic_ops` it sums to every expanded element an armed core was
    /// handed (DESIGN.md §15). Digest-excluded, like `analytic_ops`.
    #[serde(default)]
    pub replay_fallback_ops: u64,
}

impl SimReport {
    /// Achieved bandwidth for moving `nominal_bytes` of algorithmically
    /// required data, in GB/s — the numerator of the paper's §3.3 metric.
    #[must_use]
    pub fn achieved_gbps(&self, nominal_bytes: u64) -> f64 {
        if self.seconds <= 0.0 {
            0.0
        } else {
            nominal_bytes as f64 / self.seconds / 1e9
        }
    }

    /// The §3.3 relative memory-bandwidth-utilization metric:
    /// `(nominal_bytes / seconds) / stream_bandwidth`.
    ///
    /// `stream_gbps` is the DRAM bandwidth measured by the STREAM
    /// experiment on the same device.
    #[must_use]
    pub fn bandwidth_utilization(&self, nominal_bytes: u64, stream_gbps: f64) -> f64 {
        if stream_gbps <= 0.0 {
            0.0
        } else {
            self.achieved_gbps(nominal_bytes) / stream_gbps
        }
    }

    /// An FNV-1a digest over every *simulated* quantity in the report
    /// (cycles, per-level counters, DRAM traffic, phase structure) —
    /// everything host-independent. Replay-side diagnostics (wall time,
    /// which the report does not carry,
    /// [`host_workers`](SimReport::host_workers) and
    /// [`strided_batches`](SimReport::strided_batches)) are excluded: the
    /// digest must not change with the job budget or with how the
    /// reference stream was batched.
    ///
    /// The digest is *order-sensitive*: FNV-1a is fed the fields in one
    /// fixed, documented sequence, so it pins both the values and their
    /// arrangement (two reports with swapped counter values hash
    /// differently). The simulator is deterministic, so two runs of the
    /// same cell must produce the same digest no matter how the
    /// experiment engine scheduled them; the engine's serial-vs-parallel
    /// equivalence checks compare exactly this value. The core cycle
    /// totals are hashed as their exact u64 subcycle counters (DESIGN.md
    /// §13), so the digest pins a physical quantity rather than a
    /// summation order; the remaining floats (phase timings derived from
    /// those integers) are hashed by bit pattern (`f64::to_bits`), so
    /// even ULP-level divergence is caught.
    #[must_use]
    pub fn stats_digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.str(&self.device);
        h.u64(u64::from(self.threads));
        h.f64(self.cycles);
        h.f64(self.seconds);
        h.u64(self.phases.len() as u64);
        for phase in &self.phases {
            h.f64(phase.cycles);
            match phase.bottleneck {
                Bottleneck::Core => h.u64(0),
                Bottleneck::SharedCache { level } => {
                    h.u64(1);
                    h.u64(level as u64);
                }
                Bottleneck::Dram => h.u64(2),
            }
            h.f64(phase.slowest_core_cycles);
            h.f64(phase.dram_occupancy_cycles);
        }
        h.u64(self.cache_stats.len() as u64);
        for level in &self.cache_stats {
            h.level(level);
        }
        h.level(&self.dtlb_stats);
        match &self.l2tlb_stats {
            Some(l2) => {
                h.u64(1);
                h.level(l2);
            }
            None => h.u64(0),
        }
        h.u64(self.dram.bytes_read);
        h.u64(self.dram.bytes_written);
        h.u64(self.dram.reads);
        h.u64(self.dram.writes);
        h.u64(self.core_cycles_total.issue_subcycles);
        h.u64(self.core_cycles_total.stall_subcycles);
        h.finish()
    }
}

/// Minimal FNV-1a accumulator for [`SimReport::stats_digest`].
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for byte in s.bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn level(&mut self, level: &LevelStats) {
        self.u64(level.hits);
        self.u64(level.misses);
        self.u64(level.evictions);
        self.u64(level.writebacks);
        self.u64(level.prefetches_issued);
        self.u64(level.prefetch_hits);
        self.u64(level.fill_bytes);
        self.u64(level.writeback_bytes);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A device instance ready to run simulations.
///
/// # Example
///
/// ```
/// use membound_sim::{Device, Machine};
/// use membound_trace::TraceSink;
///
/// let machine = Machine::new(Device::StarFiveVisionFive.spec());
/// let report = machine.simulate(2, |tid, sink| {
///     // Each simulated core streams over its own half of an array.
///     let base = tid as u64 * (1 << 20);
///     for i in 0..4096u64 {
///         sink.load(base + i * 8, 8);
///     }
/// });
/// assert_eq!(report.threads, 2);
/// assert!(report.cycles > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    spec: DeviceSpec,
    fastpath: bool,
    analytic: bool,
    budget: JobBudget,
}

impl Machine {
    /// Wrap a device description.
    ///
    /// # Panics
    ///
    /// Panics if the spec is structurally inconsistent (no cache levels,
    /// prefetcher count mismatch, zero cores).
    #[must_use]
    pub fn new(spec: DeviceSpec) -> Self {
        assert!(spec.cores > 0, "device needs at least one core");
        assert!(!spec.caches.is_empty(), "device needs at least an L1 cache");
        assert_eq!(
            spec.caches.len(),
            spec.prefetchers.len(),
            "one prefetcher slot per cache level"
        );
        Self {
            spec,
            fastpath: true,
            analytic: analytic_default(),
            budget: JobBudget::serial(),
        }
    }

    /// Disable the repeat-line fast path, forcing every reference through
    /// the full translate-and-probe flow.
    ///
    /// The fast path is digest-preserving by construction; this reference
    /// build exists so tests can *prove* it, by comparing
    /// [`SimReport::stats_digest`] of the same trace through both
    /// machines (see `tests/prop_fastpath.rs`). It is a property of the
    /// machine, not the device: [`DeviceSpec`] serialization is
    /// unaffected.
    #[must_use]
    pub fn without_fastpath(mut self) -> Self {
        self.fastpath = false;
        self
    }

    /// Enable or disable analytic (trace-IR fast-forward) execution on
    /// this machine, overriding [`analytic_default`]. Analytic execution
    /// is digest-preserving: `tests/prop_analytic.rs` proves
    /// [`SimReport::stats_digest`] identical with it on, off, and against
    /// the [`Machine::without_fastpath`] reference. The reference build
    /// never uses it (it requires the fast path).
    #[must_use]
    pub fn with_analytic(mut self, on: bool) -> Self {
        self.analytic = on;
        self
    }

    /// Attach a [`JobBudget`] so [`Machine::simulate`] may replay
    /// simulated cores on extra host workers leased from it.
    ///
    /// The default budget is [`JobBudget::serial`]: standalone machines
    /// replay every core on the caller's thread, exactly as before. The
    /// experiment engine passes its shared `--jobs` budget here so the
    /// per-cell and per-core parallel layers stay jointly bounded. The
    /// budget affects host wall time only — simulated results and
    /// [`SimReport::stats_digest`] are bit-identical for any budget.
    #[must_use]
    pub fn with_budget(mut self, budget: JobBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The wrapped device description.
    #[must_use]
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Simulate a parallel region: `trace(tid, sink)` is called once per
    /// simulated core — concurrently on host workers leased from the
    /// machine's [`JobBudget`] when it grants any, on the calling thread
    /// otherwise — and must emit that core's references.
    ///
    /// Each simulated core replays into its own independent
    /// [`CorePipeline`], so the per-core replays never share mutable
    /// state; `trace` therefore only needs `Fn + Sync`, which every
    /// closure capturing its inputs by shared reference satisfies. The
    /// per-core outcomes are collected *in tid order* regardless of
    /// which host worker produced them and merged by one deterministic
    /// combine step, so [`SimReport::stats_digest`] is bit-identical
    /// between serial and fanned-out replay (see DESIGN.md §9).
    ///
    /// Shared cache levels are capacity-partitioned between the `threads`
    /// active cores (an approximation documented in DESIGN.md: the kernels
    /// under study share almost no data between threads). Phase boundaries
    /// (barriers) are aligned across cores; each phase lasts as long as its
    /// slowest core or its most contended shared resource.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero or exceeds the device's core count,
    /// or if `trace` panics (the panic message is forwarded once every
    /// in-flight core replay has finished).
    pub fn simulate<F>(&self, threads: u32, trace: F) -> SimReport
    where
        F: Fn(u32, &mut CorePipeline) + Sync,
    {
        assert!(threads > 0, "need at least one thread");
        assert!(
            threads <= self.spec.cores,
            "device {} has only {} cores (asked for {})",
            self.spec.name,
            self.spec.cores,
            threads
        );

        let caches: Vec<CacheConfig> = self
            .spec
            .caches
            .iter()
            .map(|c| {
                if c.shared {
                    c.partitioned(u64::from(threads))
                } else {
                    c.clone()
                }
            })
            .collect();

        let run_core = |tid: u32| -> CoreOutcome {
            let mut pipeline = CorePipeline::new(PipelineConfig {
                core: self.spec.core.clone(),
                caches: caches.clone(),
                prefetchers: self.spec.prefetchers.clone(),
                dtlb: self.spec.dtlb.clone(),
                l2tlb: self.spec.l2tlb.clone(),
                walk: self.spec.walk,
                dram: self.spec.dram,
                tlb_enabled: self.spec.tlb_enabled,
                fastpath: self.fastpath,
                analytic: self.analytic,
            });
            trace(tid, &mut pipeline);
            pipeline.finish()
        };

        // Lease extra workers beyond the calling thread; a dry budget
        // (or a single-core region) degrades to the serial loop.
        let lease = if threads > 1 {
            Some(self.budget.lease(threads - 1))
        } else {
            None
        };
        let workers = 1 + lease.as_ref().map_or(0, |l| l.granted());

        let (outcomes, host_workers) = if workers > 1 {
            let run_core = &run_core;
            let tasks: Vec<Task<'_, CoreOutcome>> = (0..threads)
                .map(|tid| {
                    let b: Task<'_, CoreOutcome> = Box::new(move || run_core(tid));
                    b
                })
                .collect();
            // `run_tasks` slots each outcome at its task's index, so the
            // collected vector is in tid order for any worker count. A
            // panicking core replay is contained per task; forward the
            // first message so callers observe the same panic they would
            // have seen from the serial loop.
            let outcomes = Pool::new(workers)
                .run_tasks(tasks)
                .into_iter()
                .map(|r| r.unwrap_or_else(|p| panic!("{}", p.message)))
                .collect();
            (outcomes, workers)
        } else {
            ((0..threads).map(run_core).collect(), 1)
        };
        drop(lease);

        let mut report = self.combine(threads, outcomes);
        report.host_workers = host_workers;
        report
    }

    fn combine(&self, threads: u32, outcomes: Vec<CoreOutcome>) -> SimReport {
        let n_levels = self.spec.caches.len();
        let n_phases = outcomes
            .iter()
            .map(|o| o.phases.len())
            .max()
            .unwrap_or(0)
            .max(1);
        let empty = PhaseAccum::new(n_levels);

        let mut phases = Vec::with_capacity(n_phases);
        let mut total_cycles = 0.0_f64;
        let n_channels = if self.spec.dram.contended {
            self.spec.dram.channels as usize
        } else {
            0
        };
        for p in 0..n_phases {
            let mut slowest_core = 0.0_f64;
            let mut shared_bytes = vec![0u64; n_levels + 1];
            let mut dram_bytes = 0u64;
            let mut channel_bytes = vec![0u64; n_channels];
            for o in &outcomes {
                let acc = o.phases.get(p).unwrap_or(&empty);
                // A core's own serial time: issue + stall, but no less than
                // the occupancy of its *private* buses. The f64 math here
                // is derived from the per-phase integer totals (exact for
                // sums below 2^53 subcycles), so it is independent of how
                // the phase's contributions were batched or reordered.
                let mut core_time = acc.cycles.total();
                for (j, &bytes) in acc.supply_bytes.iter().enumerate().skip(1) {
                    if j < n_levels && !self.spec.caches[j].shared {
                        let occ = bytes as f64 / self.spec.caches[j].bytes_per_cycle;
                        core_time = core_time.max(acc.cycles.issue_cycles() + occ);
                    } else if j < n_levels {
                        shared_bytes[j] += bytes;
                    }
                }
                dram_bytes += acc.dram.bytes_total();
                for (agg, &b) in channel_bytes.iter_mut().zip(&acc.channel_bytes) {
                    *agg += b;
                }
                slowest_core = slowest_core.max(core_time);
            }

            let mut phase_cycles = slowest_core;
            let mut bottleneck = Bottleneck::Core;
            for (j, &bytes) in shared_bytes.iter().enumerate() {
                if j < n_levels && bytes > 0 {
                    let occ = bytes as f64 / self.spec.caches[j].bytes_per_cycle;
                    if occ > phase_cycles {
                        phase_cycles = occ;
                        bottleneck = Bottleneck::SharedCache { level: j };
                    }
                }
            }
            // Contended devices are paced by their hottest channel; the
            // aggregate model (every paper board) is untouched.
            let dram_occ = if n_channels > 0 {
                self.spec.dram.channel_occupancy_cycles(&channel_bytes)
            } else {
                self.spec.dram.occupancy_cycles(dram_bytes)
            };
            if dram_occ > phase_cycles {
                phase_cycles = dram_occ;
                bottleneck = Bottleneck::Dram;
            }

            total_cycles += phase_cycles;
            phases.push(PhaseReport {
                cycles: phase_cycles,
                bottleneck,
                slowest_core_cycles: slowest_core,
                dram_occupancy_cycles: dram_occ,
            });
        }

        // Aggregate statistics.
        let mut cache_stats = vec![LevelStats::default(); n_levels];
        let mut dtlb_stats = LevelStats::default();
        let mut l2tlb_stats: Option<LevelStats> =
            self.spec.l2tlb.as_ref().map(|_| LevelStats::default());
        let mut dram = DramStats::default();
        let mut core_cycles_total = CycleBreakdown::default();
        let mut strided_batches = 0u64;
        let mut analytic_ops = 0u64;
        let mut replay_fallback_ops = 0u64;
        for o in &outcomes {
            strided_batches += o.strided_batches;
            analytic_ops = analytic_ops.saturating_add(o.analytic_ops);
            replay_fallback_ops = replay_fallback_ops.saturating_add(o.replay_fallback_ops);
            for (agg, s) in cache_stats.iter_mut().zip(&o.cache_stats) {
                agg.merge(s);
            }
            dtlb_stats.merge(&o.dtlb_stats);
            if let (Some(agg), Some(s)) = (l2tlb_stats.as_mut(), o.l2tlb_stats.as_ref()) {
                agg.merge(s);
            }
            for ph in &o.phases {
                dram.merge(&ph.dram);
                core_cycles_total.merge(&ph.cycles);
            }
        }

        SimReport {
            device: self.spec.name.clone(),
            threads,
            cycles: total_cycles,
            seconds: self.spec.core.cycles_to_seconds(total_cycles),
            phases,
            cache_stats,
            dtlb_stats,
            l2tlb_stats,
            dram,
            core_cycles_total,
            host_workers: 1,
            strided_batches,
            analytic_ops,
            replay_fallback_ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::Device;
    use membound_trace::TraceSink;

    fn sweep(sink: &mut CorePipeline, base: u64, lines: u64) {
        for i in 0..lines {
            sink.load(base + i * 64, 64);
        }
    }

    #[test]
    fn single_core_report_is_positive_and_consistent() {
        let m = Machine::new(Device::MangoPiMqPro.spec());
        let r = m.simulate(1, |_, s| sweep(s, 0, 4096));
        assert!(r.cycles > 0.0);
        assert!(r.seconds > 0.0);
        assert_eq!(r.phases.len(), 1);
        assert!(r.dram.bytes_read >= 4096 * 64);
    }

    #[test]
    fn stats_digest_is_deterministic_and_sensitive() {
        let m = Machine::new(Device::MangoPiMqPro.spec());
        let a = m.simulate(1, |_, s| sweep(s, 0, 4096));
        let b = m.simulate(1, |_, s| sweep(s, 0, 4096));
        assert_eq!(a.stats_digest(), b.stats_digest());

        let mut tweaked = a.clone();
        tweaked.dram.bytes_read += 1;
        assert_ne!(a.stats_digest(), tweaked.stats_digest());

        let mut tweaked = a.clone();
        tweaked.cycles += 1.0;
        assert_ne!(a.stats_digest(), tweaked.stats_digest());
    }

    #[test]
    #[should_panic(expected = "has only")]
    fn oversubscription_rejected() {
        let m = Machine::new(Device::MangoPiMqPro.spec());
        let _ = m.simulate(2, |_, _| {});
    }

    /// Prefetch-defeating large-stride walk: latency-bound, core-limited.
    fn strided(sink: &mut CorePipeline, base: u64, count: u64) {
        for i in 0..count {
            sink.load(base + i * 8192, 8);
        }
    }

    #[test]
    fn bandwidth_bound_sweep_does_not_scale_with_cores() {
        // On the VisionFive a pure streaming sweep saturates the narrow
        // DRAM channel already at one core — exactly the §4.3 observation
        // that parallel speedup is limited by memory channels.
        let m = Machine::new(Device::StarFiveVisionFive.spec());
        let one = m.simulate(1, |_, s| sweep(s, 0, 1 << 16));
        let two = m.simulate(2, |tid, s| {
            sweep(s, u64::from(tid) * (1 << 30), 1 << 15);
        });
        let ratio = one.cycles / two.cycles;
        assert!(
            (0.8..1.6).contains(&ratio),
            "DRAM-bound work must not scale: ratio {ratio}"
        );
    }

    #[test]
    fn compute_bound_work_scales_with_cores() {
        use membound_trace::IterCost;
        let m = Machine::new(Device::RaspberryPi4.spec());
        let cost = IterCost::new(4, 2).mem(1, 0);
        let one = m.simulate(1, |_, s| {
            sweep(s, 0, 64);
            s.compute(cost, 1 << 20);
        });
        let four = m.simulate(4, |tid, s| {
            sweep(s, u64::from(tid) << 32, 16);
            s.compute(cost, 1 << 18);
        });
        let speedup = one.cycles / four.cycles;
        assert!(
            speedup > 3.0,
            "compute-bound work should scale with cores: speedup {speedup}"
        );
        assert_eq!(four.phases[0].bottleneck, Bottleneck::Core);
    }

    #[test]
    fn dram_bound_sweep_reports_dram_bottleneck() {
        let m = Machine::new(Device::StarFiveVisionFive.spec());
        let r = m.simulate(2, |tid, s| {
            sweep(s, u64::from(tid) * (1 << 30), 1 << 15);
        });
        assert_eq!(r.phases[0].bottleneck, Bottleneck::Dram, "{r:?}");
    }

    #[test]
    fn phases_align_across_cores() {
        let m = Machine::new(Device::RaspberryPi4.spec());
        let r = m.simulate(4, |tid, s| {
            sweep(s, u64::from(tid) << 30, 256);
            s.barrier();
            sweep(s, (u64::from(tid) + 16) << 30, 256);
        });
        // Two populated phases plus the (possibly empty) trailing one.
        assert!(r.phases.len() >= 2);
        assert!(r.phases[0].cycles > 0.0);
        assert!(r.phases[1].cycles > 0.0);
    }

    #[test]
    fn imbalanced_work_sets_the_pace() {
        let m = Machine::new(Device::RaspberryPi4.spec());
        let balanced = m.simulate(2, |tid, s| strided(s, u64::from(tid) << 32, 2048));
        let imbalanced = m.simulate(2, |tid, s| {
            let count = if tid == 0 { 4096 } else { 0 };
            strided(s, u64::from(tid) << 32, count);
        });
        assert!(
            imbalanced.cycles > balanced.cycles * 1.5,
            "all work on one core must be slower: {} vs {}",
            imbalanced.cycles,
            balanced.cycles
        );
    }

    #[test]
    fn report_bandwidth_metrics() {
        let m = Machine::new(Device::IntelXeon4310T.spec());
        let r = m.simulate(1, |_, s| sweep(s, 0, 1 << 16));
        let nominal = (1u64 << 16) * 64;
        let gbps = r.achieved_gbps(nominal);
        assert!(gbps > 0.0);
        let util = r.bandwidth_utilization(nominal, gbps);
        assert!((util - 1.0).abs() < 1e-9);
    }

    #[test]
    fn memory_capacity_check() {
        let spec = Device::MangoPiMqPro.spec();
        assert!(spec.fits_in_memory(512 << 20));
        assert!(
            !spec.fits_in_memory(16384u64 * 16384 * 8),
            "16384^2 doubles must not fit on the 1 GB Mango Pi"
        );
    }

    #[test]
    fn sim_report_serializes_and_round_trips() {
        let m = Machine::new(Device::MangoPiMqPro.spec());
        let r = m.simulate(1, |_, s| sweep(s, 0, 128));
        let json = serde_json::to_string(&r).expect("reports serialize");
        let back: SimReport = serde_json::from_str(&json).expect("reports deserialize");
        assert_eq!(r, back);
        assert!(json.contains("bottleneck"));
    }

    #[test]
    fn device_spec_serializes_and_round_trips() {
        for d in Device::all() {
            let spec = d.spec();
            let json = serde_json::to_string(&spec).expect("specs serialize");
            let back: DeviceSpec = serde_json::from_str(&json).expect("specs deserialize");
            assert_eq!(spec, back, "{d}");
        }
    }

    #[test]
    fn bottleneck_display_is_informative() {
        assert!(Bottleneck::Dram.to_string().contains("DRAM"));
        assert!(Bottleneck::Core.to_string().contains("core"));
        assert!(Bottleneck::SharedCache { level: 2 }
            .to_string()
            .contains("L3"));
    }

    #[test]
    fn budgeted_fanout_matches_serial_digest_and_reports_workers() {
        let m = Machine::new(Device::RaspberryPi4.spec());
        let serial = m.simulate(4, |tid, s| {
            sweep(s, u64::from(tid) << 30, 2048);
            s.barrier();
            strided(s, (u64::from(tid) + 8) << 30, 512);
        });
        assert_eq!(serial.host_workers, 1);

        let budget = JobBudget::new(4);
        let parallel = m.clone().with_budget(budget.clone()).simulate(4, |tid, s| {
            sweep(s, u64::from(tid) << 30, 2048);
            s.barrier();
            strided(s, (u64::from(tid) + 8) << 30, 512);
        });
        assert_eq!(parallel.host_workers, 4, "own thread + 3 leased");
        assert_eq!(serial.stats_digest(), parallel.stats_digest());
        assert_eq!(
            budget.available(),
            4,
            "leased workers must return to the budget"
        );
    }

    #[test]
    fn dry_budget_degrades_to_serial_replay() {
        let m = Machine::new(Device::StarFiveVisionFive.spec()).with_budget(JobBudget::serial());
        let r = m.simulate(2, |tid, s| sweep(s, u64::from(tid) << 30, 64));
        assert_eq!(r.host_workers, 1);
    }

    #[test]
    fn single_core_region_never_leases_workers() {
        let budget = JobBudget::new(8);
        let m = Machine::new(Device::MangoPiMqPro.spec()).with_budget(budget.clone());
        let r = m.simulate(1, |_, s| sweep(s, 0, 64));
        assert_eq!(r.host_workers, 1);
        assert_eq!(budget.available(), 8);
    }

    #[test]
    fn core_panic_is_forwarded_from_the_fanout() {
        let m = Machine::new(Device::RaspberryPi4.spec()).with_budget(JobBudget::new(4));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.simulate(4, |tid, s| {
                sweep(s, u64::from(tid) << 30, 16);
                assert!(tid != 2, "core 2 exploded");
            })
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("core 2 exploded"), "{msg:?}");
    }

    #[test]
    fn channel_contention_paces_by_the_hottest_channel() {
        let aggregate = Device::StarFiveVisionFive.spec();
        let mut contended = aggregate.clone();
        contended.dram = contended.dram.with_channel_contention();
        let run = |spec: &DeviceSpec, line_stride: u64| {
            Machine::new(spec.clone()).simulate(2, |tid, s| {
                let base = u64::from(tid) << 30;
                for i in 0..(1u64 << 13) {
                    s.load(base + i * 64 * line_stride, 64);
                }
            })
        };

        // Consecutive lines interleave evenly over the two channels:
        // the contended model agrees with the aggregate one.
        let a = run(&aggregate, 1);
        let c = run(&contended, 1);
        let ratio = c.phases[0].dram_occupancy_cycles / a.phases[0].dram_occupancy_cycles;
        assert!(
            (ratio - 1.0).abs() < 0.01,
            "even traffic must not be penalized: ratio {ratio}"
        );

        // A stride of two lines lands everything on one channel: the
        // hottest channel holds half the bandwidth, so occupancy doubles.
        let a = run(&aggregate, 2);
        let c = run(&contended, 2);
        let ratio = c.phases[0].dram_occupancy_cycles / a.phases[0].dram_occupancy_cycles;
        assert!(
            ratio > 1.9,
            "single-channel traffic must pay the per-channel bandwidth: ratio {ratio}"
        );
    }

    #[test]
    fn ablation_helpers_strip_features() {
        let spec = Device::StarFiveVisionFive
            .spec()
            .without_prefetchers()
            .without_tlb();
        assert!(spec
            .prefetchers
            .iter()
            .all(|p| *p == PrefetcherConfig::None));
        assert!(!spec.tlb_enabled);
    }
}
