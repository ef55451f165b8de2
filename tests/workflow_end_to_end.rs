//! Cross-crate integration tests of the real (threaded) Zipper runtime:
//! application → workflow driver → producer/consumer modules → transport
//! and storage, verified end to end.

use bytes::Bytes;
use std::collections::HashSet;
use std::time::Duration;
use zipper_types::block::deterministic_payload;
use zipper_types::{
    Block, BlockId, ByteSize, GlobalPos, PreserveMode, Rank, StepId, WorkflowConfig,
};
use zipper_workflow::{run_workflow_traced, NetworkOptions, StorageOptions, TraceOptions};

fn base_cfg() -> WorkflowConfig {
    let mut cfg = WorkflowConfig {
        producers: 4,
        consumers: 2,
        steps: 6,
        bytes_per_rank_step: ByteSize::kib(96),
        ..Default::default()
    };
    cfg.tuning.block_size = ByteSize::kib(16);
    cfg.tuning.producer_slots = 8;
    cfg.tuning.high_water_mark = 5;
    cfg
}

/// Producer emitting deterministic, verifiable blocks.
fn verifiable_producer(
    cfg: &WorkflowConfig,
) -> impl Fn(Rank, &zipper_core::ZipperWriter) + Send + Sync {
    let steps = cfg.steps;
    let block = cfg.tuning.block_size.as_u64() as usize;
    let per_step = cfg.blocks_per_rank_step() as u32;
    move |rank, writer| {
        for s in 0..steps {
            for i in 0..per_step {
                let id = BlockId::new(rank, StepId(s), i);
                writer.write(Block::from_payload(
                    rank,
                    StepId(s),
                    i,
                    per_step,
                    GlobalPos::linear((i as u64) * block as u64),
                    deterministic_payload(id, block),
                ));
            }
        }
    }
}

#[test]
fn every_block_arrives_exactly_once_with_intact_payload() {
    let cfg = base_cfg();
    let (report, ids) = run_workflow_traced(
        &cfg,
        NetworkOptions::default(),
        StorageOptions::Memory,
        TraceOptions::default(),
        verifiable_producer(&cfg),
        |_rank, reader| {
            let mut seen = Vec::new();
            while let Some(b) = reader.read() {
                // Payload must match what the producer generated for this id.
                assert_eq!(
                    b.payload,
                    deterministic_payload(b.id(), b.payload.len()),
                    "corrupted payload for {:?}",
                    b.id()
                );
                seen.push(b.id());
            }
            seen
        },
    );
    report.assert_complete();
    let all: Vec<BlockId> = ids.into_iter().flatten().collect();
    let unique: HashSet<_> = all.iter().copied().collect();
    assert_eq!(all.len() as u64, cfg.total_blocks());
    assert_eq!(unique.len() as u64, cfg.total_blocks(), "duplicates seen");
}

#[test]
fn dual_channel_delivery_is_complete_under_throttled_network() {
    let mut cfg = base_cfg();
    cfg.tuning.producer_slots = 4;
    cfg.tuning.high_water_mark = 2;
    let (report, ids) = run_workflow_traced(
        &cfg,
        NetworkOptions::throttled(1, 1.5e6, Duration::from_micros(100)),
        StorageOptions::Memory,
        TraceOptions::default(),
        verifiable_producer(&cfg),
        |_rank, reader| {
            let mut seen = Vec::new();
            while let Some(b) = reader.read() {
                assert_eq!(b.payload, deterministic_payload(b.id(), b.payload.len()));
                seen.push(b.id());
            }
            seen
        },
    );
    report.assert_complete();
    assert!(
        report.steal_fraction() > 0.0,
        "slow channel must engage the writer thread"
    );
    let all: HashSet<BlockId> = ids.into_iter().flatten().collect();
    assert_eq!(all.len() as u64, cfg.total_blocks());
}

#[test]
fn preserve_mode_persists_every_block_once() {
    let mut cfg = base_cfg();
    cfg.tuning.preserve = PreserveMode::Preserve;
    let (report, _) = run_workflow_traced(
        &cfg,
        NetworkOptions::throttled(2, 8e6, Duration::ZERO),
        StorageOptions::Memory,
        TraceOptions::default(),
        verifiable_producer(&cfg),
        |_r, reader| while reader.read().is_some() {},
    );
    report.assert_complete();
    assert_eq!(report.pfs_blocks as u64, cfg.total_blocks());
    // Each block is stored exactly once: writer-stolen blocks by the
    // producer side, the rest by the consumer's output thread.
    let t = report.producer_total();
    let c = report.consumer_total();
    assert_eq!(t.blocks_stolen + c.blocks_stored, cfg.total_blocks());
}

#[test]
fn real_disk_backend_round_trips_stolen_blocks() {
    let dir = std::env::temp_dir().join(format!("zipper-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let storage = std::sync::Arc::new(zipper_pfs::DiskFs::new(&dir).unwrap());

    // Drive the producer/consumer modules directly on a real disk store.
    let mesh = zipper_core::ChannelMesh::new(1, 1).with_throttle(1e6, Duration::ZERO);
    let tuning = {
        let mut t = base_cfg().tuning;
        t.producer_slots = 4;
        t.high_water_mark = 1;
        t
    };
    let mut consumer = zipper_core::Consumer::spawn(
        Rank(0),
        tuning,
        1,
        mesh.take_receiver(Rank(0)).unwrap(),
        storage.clone(),
    );
    let reader = consumer.reader();
    let mut producer =
        zipper_core::Producer::spawn(Rank(0), tuning, mesh.sender(), storage.clone());
    let writer = producer.writer(1 << 14);

    let feeder = std::thread::spawn(move || {
        for s in 0..4u64 {
            writer.write_slab(
                StepId(s),
                GlobalPos::default(),
                Bytes::from(vec![7u8; 1 << 16]),
            );
        }
        writer.finish();
    });
    let mut n = 0;
    while let Some(b) = reader.read() {
        assert_eq!(b.payload.len(), 1 << 14);
        n += 1;
    }
    feeder.join().unwrap();
    let pm = producer.join();
    let cm = consumer.join();
    assert_eq!(n, 16);
    assert!(pm.errors.is_empty(), "{:?}", pm.errors);
    assert!(cm.errors.is_empty(), "{:?}", cm.errors);
    assert!(pm.blocks_stolen > 0, "expected disk-path traffic");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn round_robin_routing_balances_consumers() {
    let mut cfg = base_cfg();
    cfg.producers = 3;
    cfg.consumers = 2;
    cfg.tuning.routing = zipper_types::RoutingPolicy::RoundRobin;
    // Message path only: the writer thread rotates independently, which
    // would make the exact 50/50 split racy.
    cfg.tuning.concurrent_transfer = false;
    let (report, counts) = run_workflow_traced(
        &cfg,
        NetworkOptions::default(),
        StorageOptions::Memory,
        TraceOptions::default(),
        verifiable_producer(&cfg),
        |_r, reader| {
            let mut n = 0u64;
            while reader.read().is_some() {
                n += 1;
            }
            n
        },
    );
    report.assert_complete();
    let total: u64 = counts.iter().sum();
    assert_eq!(total, cfg.total_blocks());
    // Round robin per producer: each consumer gets an equal share.
    assert_eq!(counts[0], counts[1]);
}

#[test]
fn stall_time_is_reported_when_consumer_is_slow() {
    let mut cfg = base_cfg();
    cfg.producers = 1;
    cfg.consumers = 1;
    cfg.tuning.producer_slots = 2;
    cfg.tuning.high_water_mark = 1;
    cfg.tuning.concurrent_transfer = false;
    let (report, _) = run_workflow_traced(
        &cfg,
        NetworkOptions::unthrottled(1),
        StorageOptions::Memory,
        TraceOptions::default(),
        verifiable_producer(&cfg),
        |_r, reader| {
            while reader.read().is_some() {
                // Deliberately slow consumer to exercise real backpressure.
                #[allow(clippy::disallowed_methods)]
                std::thread::sleep(Duration::from_millis(2));
            }
        },
    );
    report.assert_complete();
    assert!(
        report.mean_stall() > Duration::ZERO,
        "a slow consumer with tiny buffers must stall the producer"
    );
}

#[test]
fn many_rank_stress_run_stays_consistent() {
    let mut cfg = base_cfg();
    cfg.producers = 8;
    cfg.consumers = 4;
    cfg.steps = 10;
    cfg.bytes_per_rank_step = ByteSize::kib(64);
    cfg.tuning.block_size = ByteSize::kib(4);
    let (report, counts) = run_workflow_traced(
        &cfg,
        NetworkOptions::throttled(4, 20e6, Duration::ZERO),
        StorageOptions::ThrottledMemory(50e6, Duration::from_micros(50)),
        TraceOptions::default(),
        verifiable_producer(&cfg),
        |_r, reader| {
            let mut n = 0u64;
            while reader.read().is_some() {
                n += 1;
            }
            n
        },
    );
    report.assert_complete();
    assert_eq!(counts.iter().sum::<u64>(), cfg.total_blocks());
}

/// Regression: the sender must not flush pending disk-IDs and announce
/// EOS while the writer thread is still storing its final stolen block —
/// that block's ID would never be announced and the block would be lost.
/// Slow per-op storage latency keeps the writer mid-`put` when the stream
/// closes; repeated runs widen the race window.
#[test]
fn shutdown_race_loses_no_stolen_blocks() {
    for trial in 0..20 {
        let mut cfg = base_cfg();
        cfg.producers = 2;
        cfg.consumers = 1;
        cfg.steps = 4;
        cfg.tuning.producer_slots = 4;
        cfg.tuning.high_water_mark = 1;
        let (report, counts) = run_workflow_traced(
            &cfg,
            // Slow channel so stealing engages right up to the end...
            NetworkOptions::throttled(1, 3e6, Duration::ZERO),
            // ...and slow storage ops so the writer is busy at close time.
            StorageOptions::ThrottledMemory(50e6, Duration::from_millis(3)),
            TraceOptions::default(),
            verifiable_producer(&cfg),
            |_r, reader| {
                let mut n = 0u64;
                while reader.read().is_some() {
                    n += 1;
                }
                n
            },
        );
        report.assert_complete();
        assert_eq!(
            counts.iter().sum::<u64>(),
            cfg.total_blocks(),
            "trial {trial}: lost blocks at shutdown"
        );
    }
}
