//! The traced-kernel contract.
//!
//! A kernel defined in this file — outside `membound-core` — replays
//! through `simulate` exactly like the built-in families, and no machine
//! configuration can change what a replay reports: serial, fanned out
//! over a job budget, per-element reference, and forced full replay all
//! produce the same statistics digest for every kernel.

use membound_core::{
    simulate, BlurConfig, BlurKernel, BlurVariant, CorePlan, FusedBlurKernel, GbmvConfig,
    GbmvKernel, GbmvVariant, StreamKernel, StreamOp, TracedKernel, TransposeConfig,
    TransposeKernel, TransposeVariant,
};
use membound_parallel::{JobBudget, Schedule};
use membound_sim::{Device, DeviceSpec, Machine};
use membound_trace::{IterCost, TraceSink};

/// Base address of the toy kernel's matrix.
const MATRIX: u64 = 0x4000_0000_0000;
/// Base address of the toy kernel's column sums.
const SUMS: u64 = 0x4800_0000_0000;

/// A toy kernel: each simulated core sums its static share of the
/// columns of an `n`×`n` row-major matrix (one constant-stride walk per
/// column), then, after a barrier, stores its partial sums.
struct ColumnSums {
    n: u64,
}

impl TracedKernel for ColumnSums {
    type Plan = CorePlan;

    fn footprint_bytes(&self) -> Option<u64> {
        Some(self.n * self.n * 8)
    }

    fn threads(&self, spec: &DeviceSpec) -> u32 {
        spec.cores
    }

    fn plan(&self, _spec: &DeviceSpec, threads: u32) -> CorePlan {
        Schedule::Static.plan(self.n, threads, |_| 1.0)
    }

    fn emit<S: TraceSink + ?Sized>(&self, plan: &CorePlan, tid: u32, sink: &mut S) {
        let cols = &plan[tid as usize];
        for range in cols {
            for j in range.clone() {
                sink.access_strided(MATRIX + j * 8, (self.n * 8) as i64, self.n, 8, false);
            }
            let elements = (range.end - range.start) * self.n;
            sink.compute(IterCost::new(1, 1).mem(1, 0).elem_bytes(8), elements);
        }
        sink.barrier();
        for range in cols {
            sink.store_range(SUMS + range.start * 8, (range.end - range.start) * 8);
        }
    }
}

/// Replay `kernel` on `spec` under every machine configuration and
/// require one digest; the fanned-out replay must really fan out when
/// the kernel spans several cores.
fn assert_machine_invariant(spec: &DeviceSpec, kernel: &impl TracedKernel, what: &str) {
    let serial = Machine::new(spec.clone());
    let machines = [
        ("budgeted", serial.clone().with_budget(JobBudget::new(4))),
        ("reference", serial.clone().without_fastpath()),
        ("replay", serial.clone().with_analytic(false)),
    ];
    let want = simulate(&serial, kernel).unwrap_or_else(|| panic!("{what} fits"));
    for (name, machine) in machines {
        let got = simulate(&machine, kernel).unwrap_or_else(|| panic!("{what} fits"));
        assert_eq!(
            got.stats_digest(),
            want.stats_digest(),
            "{what}: the {name} machine diverged from serial"
        );
        if name == "budgeted" && want.threads > 1 {
            assert!(got.host_workers > 1, "{what}: spare budget must be used");
        }
    }
}

#[test]
fn a_kernel_defined_outside_the_crate_replays_on_every_machine() {
    let spec = Device::RaspberryPi4.spec();
    let kernel = ColumnSums { n: 256 };
    assert_machine_invariant(&spec, &kernel, "column sums");
    let report = simulate(&Machine::new(spec), &kernel).unwrap();
    assert_eq!(report.threads, 4);
    assert!(report.phases.len() >= 2, "the barrier splits the phases");
}

#[test]
fn a_kernel_that_does_not_fit_is_not_replayed() {
    // 65536² doubles = 32 GiB, far past the Mango Pi's 1 GB.
    let machine = Machine::new(Device::MangoPiMqPro.spec());
    assert!(simulate(&machine, &ColumnSums { n: 1 << 16 }).is_none());
}

/// Every built-in kernel family, every variant: the machine settings
/// are host-side optimizations only.
#[test]
fn every_kernel_family_is_digest_invariant_across_machines() {
    let pi4 = Device::RaspberryPi4.spec();
    let visionfive = Device::StarFiveVisionFive.spec();
    let transpose = TransposeConfig::with_block(512, 32);
    // The naïve anti-diagonal walk is the widest constant stride any
    // kernel feeds the bulk executors.
    let gbmv = GbmvConfig::with_bands(1024, 16, 16, 128);
    let blur = BlurConfig::small(96, 96);
    for v in TransposeVariant::all() {
        let kernel = TransposeKernel::new(v, transpose);
        assert_machine_invariant(&pi4, &kernel, &format!("transpose {v}"));
    }
    for v in GbmvVariant::all() {
        let kernel = GbmvKernel::new(v, gbmv);
        assert_machine_invariant(&visionfive, &kernel, &format!("gbmv {v}"));
    }
    for v in BlurVariant::all() {
        let kernel = BlurKernel::new(v, blur);
        assert_machine_invariant(&pi4, &kernel, &format!("blur {v}"));
    }
    assert_machine_invariant(&pi4, &FusedBlurKernel::new(blur, 4), "fused blur");
    for level in [Some(0), None] {
        let kernel = StreamKernel::new(StreamOp::Triad, level);
        assert_machine_invariant(&pi4, &kernel, &format!("triad at {level:?}"));
    }
}
