//! WHAT-IF: vectorization on the RISC-V boards.
//!
//! §3.1 notes the C906 implements 512-bit vector operations (RVV 0.7.1),
//! but the paper's GCC 12 binaries are scalar — §4.2 remarks that the
//! transposition "does not use vector instructions, which in many cases
//! can speed up calculations". This projection enables an ideal
//! RVV-autovectorizing compiler in the core model and re-runs the blur
//! ladder: how much of the Xeon's vectorization advantage would RVV
//! codegen recover?

use membound_bench::{scale_banner, Args};
use membound_core::experiment::simulate_blur;
use membound_core::report::{fmt_seconds, fmt_speedup, to_json, TextTable};
use membound_core::{figures, BlurVariant};
use membound_sim::{future, Device};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    device: String,
    vector_bits: u32,
    variant: String,
    seconds: f64,
    speedup_vs_scalar: f64,
}

fn main() {
    let args = Args::parse("whatif_rvv");
    args.reject_engine_flags();
    let cfg = figures::paper_blur(args.full);
    println!("WHAT-IF: RVV vectorization on the RISC-V boards (blur ladder)");
    println!("{}\n", scale_banner(args.full));

    let mut table = TextTable::new(
        [
            "device",
            "vector",
            "1D_kernels",
            "Memory",
            "Memory speedup vs scalar",
        ]
        .map(String::from)
        .to_vec(),
    );
    let mut rows = Vec::new();
    for device in [Device::MangoPiMqPro, Device::StarFiveVisionFive] {
        // The C906 documents a 512-bit vector unit; the U74 has none, so
        // we model a hypothetical 128-bit upgrade there.
        let widths: &[u32] = match device {
            Device::MangoPiMqPro => &[0, 64],
            _ => &[0, 16],
        };
        let mut scalar_memory = f64::NAN;
        for &vb in widths {
            let spec = future::with_vectorization(device.spec(), vb);
            let onedim = simulate_blur(&spec, BlurVariant::OneDimKernels, cfg).seconds;
            let memory = simulate_blur(&spec, BlurVariant::Memory, cfg).seconds;
            if vb == 0 {
                scalar_memory = memory;
            }
            table.row(vec![
                device.label().into(),
                if vb == 0 {
                    "scalar (as measured)".into()
                } else {
                    format!("{}-bit RVV", vb * 8)
                },
                fmt_seconds(onedim),
                fmt_seconds(memory),
                fmt_speedup(scalar_memory / memory),
            ]);
            for (variant, seconds) in [
                (BlurVariant::OneDimKernels, onedim),
                (BlurVariant::Memory, memory),
            ] {
                rows.push(Row {
                    device: device.label().into(),
                    vector_bits: vb * 8,
                    variant: variant.label().into(),
                    seconds,
                    speedup_vs_scalar: if variant == BlurVariant::Memory {
                        scalar_memory / seconds
                    } else {
                        f64::NAN
                    },
                });
            }
        }
    }
    println!("{}", table.render());
    println!(
        "reading: only the Memory variant is vectorizable (the paper's Xeon\n\
         x19 came from exactly this loop), so RVV codegen accelerates the\n\
         final ladder step until DRAM bandwidth binds — on the\n\
         bandwidth-starved StarFive the vector gain is smaller than on the\n\
         D1, mirroring the Unit-stride story."
    );
    args.write_json(&to_json(&rows));
}
