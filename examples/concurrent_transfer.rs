//! The concurrent message+file dual-channel optimization (§4.3) on the
//! real threaded runtime: run the same producer-bound workflow twice —
//! message-passing-only vs concurrent — over a deliberately slow message
//! channel, and watch Algorithm 1's work-stealing writer cut the
//! producer's stall time.
//!
//! Run with: `cargo run --release --example concurrent_transfer`

use bytes::Bytes;
use std::time::Duration;
use zipper_types::{ByteSize, GlobalPos, StepId, WorkflowConfig};
use zipper_workflow::{
    run_workflow_traced, NetworkOptions, StorageOptions, TraceOptions, WorkflowReport,
};

fn run(concurrent: bool) -> WorkflowReport {
    let mut cfg = WorkflowConfig {
        producers: 2,
        consumers: 1,
        steps: 6,
        bytes_per_rank_step: ByteSize::mib(1),
        ..Default::default()
    };
    cfg.tuning.block_size = ByteSize::kib(64);
    cfg.tuning.producer_slots = 8;
    cfg.tuning.high_water_mark = 4;
    cfg.tuning.concurrent_transfer = concurrent;

    // The "HPC network": 4 MB/s aggregate — far below the producers'
    // generation rate, like the paper's O(n) app (56 GB/s per node against
    // a 10.2 GB/s port). The "PFS": 40 MB/s with 1 ms ops.
    let net = NetworkOptions::throttled(2, 4e6, Duration::from_micros(200));
    let storage = StorageOptions::ThrottledMemory(40e6, Duration::from_millis(1));

    let (report, _) = run_workflow_traced(
        &cfg,
        net,
        storage,
        TraceOptions::default(),
        move |rank, writer| {
            for step in 0..6u64 {
                let slab = vec![rank.0 as u8 ^ step as u8; 1 << 20];
                writer.write_slab(StepId(step), GlobalPos::default(), Bytes::from(slab));
            }
        },
        |_rank, reader| while reader.read().is_some() {},
    );
    report.assert_complete();
    report
}

fn main() {
    println!("running message-passing-only...");
    let message_only = run(false);
    println!("running with the concurrent transfer optimization...");
    let concurrent = run(true);

    let fmt = |r: &WorkflowReport, name: &str| {
        let t = r.producer_total();
        println!(
            "{name:>14}: wall {:>6.2?}  stall/rank {:>6.2?}  stolen {:>4.1}%  ({} msg / {} file blocks)",
            r.wall,
            r.mean_stall(),
            r.steal_fraction() * 100.0,
            t.blocks_sent,
            t.blocks_stolen,
        );
    };
    println!();
    fmt(&message_only, "message-only");
    fmt(&concurrent, "concurrent");

    assert_eq!(message_only.steal_fraction(), 0.0);
    assert!(
        concurrent.steal_fraction() > 0.0,
        "the slow channel should trigger stealing"
    );
    let gain = 1.0
        - concurrent.mean_stall().as_secs_f64() / message_only.mean_stall().as_secs_f64().max(1e-9);
    println!(
        "\nstall-time reduction from the dual channel: {:.0}% \
         (paper Fig. 14a: 16-32% wall-clock reduction for the O(n) app)",
        gain * 100.0
    );
}
