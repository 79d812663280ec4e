//! The traced-kernel contract and the one replay entry point.
//!
//! Every kernel family of the reproduction — transpose, blur, fused
//! blur, STREAM, gbmv — reaches the simulator the same way: check that
//! its workload fits the device, decide how many simulated cores it
//! occupies, split its outer iterations across those cores, and emit
//! each core's references into that core's pipeline. [`TracedKernel`]
//! is that contract and [`simulate`] the only place it is replayed, so
//! the fits/threads/plan/emit logic of each kernel exists once and every
//! machine configuration (serial or budgeted, fast path or reference,
//! analytic on or off) replays it identically.

use membound_sim::{DeviceSpec, Machine, SimReport};
use membound_trace::TraceSink;
use std::ops::Range;

/// Per-core outer-iteration ranges: `plan[tid]` is the ordered list of
/// ranges simulated core `tid` executes (`Schedule::plan`'s shape).
pub type CorePlan = Vec<Vec<Range<u64>>>;

/// A kernel variant the simulator can replay.
///
/// Emission is generic over the sink, so a replay monomorphizes into the
/// simulator's per-core pipeline (no dynamic dispatch per reference) and
/// the same kernel can be recorded into any other [`TraceSink`] — e.g.
/// `membound_trace::RecordingSink` to inspect its trace IR.
pub trait TracedKernel: Sync {
    /// How the work is split across simulated cores, computed once per
    /// replay and shared by every core's emission.
    type Plan: Sync;

    /// Bytes the workload must hold in device memory, or `None` when it
    /// is sized to the device and always fits.
    fn footprint_bytes(&self) -> Option<u64>;

    /// Simulated cores the kernel occupies on `spec`.
    fn threads(&self, spec: &DeviceSpec) -> u32;

    /// Split the work across `threads` simulated cores of `spec`.
    fn plan(&self, spec: &DeviceSpec, threads: u32) -> Self::Plan;

    /// Emit simulated core `tid`'s references into `sink`.
    fn emit<S: TraceSink + ?Sized>(&self, plan: &Self::Plan, tid: u32, sink: &mut S);

    /// Whether the workload fits `spec`'s memory.
    fn fits(&self, spec: &DeviceSpec) -> bool {
        self.footprint_bytes()
            .map_or(true, |bytes| spec.fits_in_memory(bytes))
    }
}

/// Replay `kernel` on `machine`.
///
/// Returns `None` when the workload does not fit in device memory —
/// exactly the missing Mango Pi bars in the 16384² panel of Fig. 2. The
/// machine's own settings ([`Machine::with_budget`],
/// [`Machine::without_fastpath`], [`Machine::with_analytic`]) change
/// host wall time only: the report's `stats_digest` is identical under
/// all of them.
///
/// # Example
///
/// ```
/// use membound_core::{simulate, TransposeConfig, TransposeKernel, TransposeVariant};
/// use membound_sim::{Device, Machine};
///
/// let kernel = TransposeKernel::new(TransposeVariant::Blocking, TransposeConfig::new(256));
/// let machine = Machine::new(Device::MangoPiMqPro.spec());
/// let fast = simulate(&machine, &kernel).expect("256x256 fits in 1 GB");
/// let reference = simulate(&machine.clone().without_fastpath(), &kernel).unwrap();
/// assert_eq!(fast.stats_digest(), reference.stats_digest());
/// ```
#[must_use]
pub fn simulate(machine: &Machine, kernel: &impl TracedKernel) -> Option<SimReport> {
    let spec = machine.spec();
    if !kernel.fits(spec) {
        return None;
    }
    let threads = kernel.threads(spec);
    let plan = kernel.plan(spec, threads);
    Some(machine.simulate(threads, |tid, sink| kernel.emit(&plan, tid, sink)))
}
