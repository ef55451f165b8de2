//! The paper's CFD workflow at laptop scale: a lattice-Boltzmann channel
//! flow coupled with the n-th moment turbulence analysis (§3, §6.3.1),
//! running on the real threaded Zipper runtime.
//!
//! Each producer rank owns an independent LBM subdomain (periodic
//! boundaries stand in for the halo exchange of the distributed code —
//! see DESIGN.md); every step it ships its velocity field through Zipper.
//! Each consumer rank folds incoming blocks into moment accumulators; at
//! the end the moments are merged across consumers, exactly like the
//! paper's "when all n-th moments are available, the probability density
//! function of u(x,t) can be evaluated".
//!
//! Run with: `cargo run --release --example cfd_turbulence`

use std::sync::Mutex;
use zipper_apps::analysis::{decode_scalar_field, MomentAccumulator};
use zipper_apps::lbm::Lbm;
use zipper_types::{ByteSize, GlobalPos, StepId, WorkflowConfig};
use zipper_workflow::{run_workflow_traced, NetworkOptions, StorageOptions, TraceOptions};

const STEPS: u64 = 12;
const GRID: (usize, usize, usize) = (24, 16, 16);
const MOMENT_ORDER: u32 = 4; // Table 1: n = 4

fn main() {
    let cells = GRID.0 * GRID.1 * GRID.2;
    let mut cfg = WorkflowConfig {
        producers: 4,
        consumers: 2,
        steps: STEPS,
        bytes_per_rank_step: ByteSize::bytes((cells * 8) as u64),
        ..Default::default()
    };
    cfg.tuning.block_size = ByteSize::kib(8);
    cfg.validate().expect("valid config");

    println!(
        "CFD workflow: {} LBM ranks of {}x{}x{} cells, {} steps, n={} moments",
        cfg.producers, GRID.0, GRID.1, GRID.2, STEPS, MOMENT_ORDER
    );

    // Per-rank diagnostic: mean streamwise velocity at the last step.
    let final_velocity = Mutex::new(vec![0.0f64; cfg.producers]);

    let (report, results) = run_workflow_traced(
        &cfg,
        NetworkOptions::default(),
        StorageOptions::Memory,
        TraceOptions::default(),
        {
            move |rank, writer| {
                // Gravity-driven channel flow, slightly different force per
                // rank so the subdomains are distinguishable downstream.
                let force = 1e-5 * (1.0 + rank.0 as f64 * 0.1);
                let mut lbm = Lbm::new(GRID.0, GRID.1, GRID.2, 0.8, [force, 0.0, 0.0]);
                for step in 0..STEPS {
                    // One time step: collision -> streaming -> update.
                    lbm.step();
                    // Ship the velocity field; Zipper splits it into
                    // fine-grain blocks.
                    writer.write_slab(
                        StepId(step),
                        GlobalPos::linear(rank.0 as u64 * cells as u64),
                        lbm.velocity_bytes(),
                    );
                }
                println!(
                    "sim rank {rank}: mean u_x = {:.3e} after {STEPS} steps",
                    lbm.mean_velocity()[0]
                );
            }
        },
        |_rank, reader| {
            // Turbulence analysis: accumulate E[u^1..4] over every sample
            // of every block, in arrival order.
            let mut acc = MomentAccumulator::new(MOMENT_ORDER);
            while let Some(block) = reader.read() {
                acc.update(&decode_scalar_field(&block.payload));
            }
            acc
        },
    );

    report.assert_complete();
    drop(final_velocity);

    // Merge the per-consumer partial moments — exact, order-independent.
    let mut merged = MomentAccumulator::new(MOMENT_ORDER);
    for partial in &results {
        merged.merge(partial);
    }
    println!(
        "\nturbulence statistics over {} velocity samples:",
        merged.count()
    );
    for n in 1..=MOMENT_ORDER {
        println!("  E[u^{n}] = {:+.6e}", merged.moment(n).unwrap());
    }
    assert_eq!(
        merged.count(),
        cfg.producers as u64 * STEPS * cells as u64,
        "every velocity sample analyzed exactly once"
    );
    println!(
        "\nend-to-end {:?}; stall {:?}; {} blocks ({} by message, {} stolen)",
        report.wall,
        report.mean_stall(),
        report.producer_total().blocks_written,
        report.producer_total().blocks_sent,
        report.producer_total().blocks_stolen,
    );
}
