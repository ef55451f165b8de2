//! Benchmarks of the real (threaded) Zipper runtime: end-to-end block
//! throughput and the ablations DESIGN.md calls out (block size,
//! dual-channel switch, buffer depth).

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;
use zipper_types::{ByteSize, GlobalPos, StepId, WorkflowConfig};
use zipper_workflow::{run_workflow_traced, NetworkOptions, StorageOptions, TraceOptions};

fn run_once(cfg: &WorkflowConfig, net: NetworkOptions) {
    let steps = cfg.steps;
    let slab = cfg.bytes_per_rank_step.as_u64() as usize;
    let (report, _) = run_workflow_traced(
        cfg,
        net,
        StorageOptions::Memory,
        TraceOptions::default(),
        move |rank, writer| {
            for s in 0..steps {
                writer.write_slab(
                    StepId(s),
                    GlobalPos::default(),
                    Bytes::from(vec![rank.0 as u8; slab]),
                );
            }
        },
        |_r, reader| while reader.read().is_some() {},
    );
    report.assert_complete();
}

/// Ablation 1: fine-grain block size sweep on the threaded runtime.
fn block_size_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime_block_size");
    let total = ByteSize::mib(4);
    for block_kib in [16u64, 64, 256, 1024] {
        g.throughput(Throughput::Bytes(total.as_u64() * 2));
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{block_kib}KiB")),
            &block_kib,
            |b, &kib| {
                let mut cfg = WorkflowConfig {
                    producers: 2,
                    consumers: 1,
                    steps: 4,
                    bytes_per_rank_step: ByteSize::mib(1),
                    ..Default::default()
                };
                cfg.tuning.block_size = ByteSize::kib(kib);
                b.iter(|| run_once(&cfg, NetworkOptions::default()));
            },
        );
    }
    g.finish();
}

/// Ablation 3: dual channel on/off over a constrained channel.
fn dual_channel_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime_dual_channel");
    g.sample_size(10);
    for concurrent in [false, true] {
        let name = if concurrent {
            "concurrent"
        } else {
            "message-only"
        };
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            let mut cfg = WorkflowConfig {
                producers: 2,
                consumers: 1,
                steps: 3,
                bytes_per_rank_step: ByteSize::kib(512),
                ..Default::default()
            };
            cfg.tuning.block_size = ByteSize::kib(64);
            cfg.tuning.producer_slots = 4;
            cfg.tuning.high_water_mark = 2;
            cfg.tuning.concurrent_transfer = concurrent;
            // 40 MB/s channel: producer-bound, so stealing matters.
            let net = NetworkOptions::throttled(2, 40e6, Duration::ZERO);
            b.iter(|| run_once(&cfg, net.clone()));
        });
    }
    g.finish();
}

/// Instrumentation overhead: the same block-size workload with tracing
/// off, lane-totals only, full span capture (+ wire lanes), and full
/// capture plus the telemetry registry and its background sampler. The
/// acceptance bar is that `off` tracks the untraced baseline within
/// noise (< 5%): an inert recorder never reads the clock and never takes
/// a lock, and a disabled telemetry handle is a no-op branch, so disabled
/// instrumentation must be free (the inertness itself is asserted by
/// `telemetry_off_report_is_inert` in zipper-workflow — this bench
/// measures the cost side of the same bar).
fn instrumentation_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime_instrumentation");
    g.sample_size(10);
    let workload = || {
        let mut cfg = WorkflowConfig {
            producers: 2,
            consumers: 1,
            steps: 4,
            bytes_per_rank_step: ByteSize::mib(1),
            ..Default::default()
        };
        cfg.tuning.block_size = ByteSize::kib(64);
        cfg
    };
    let run_traced = |cfg: &WorkflowConfig, trace: TraceOptions| {
        let steps = cfg.steps;
        let slab = cfg.bytes_per_rank_step.as_u64() as usize;
        let (report, _) = run_workflow_traced(
            cfg,
            NetworkOptions::default(),
            StorageOptions::Memory,
            trace,
            move |rank, writer| {
                for s in 0..steps {
                    writer.write_slab(
                        StepId(s),
                        GlobalPos::default(),
                        Bytes::from(vec![rank.0 as u8; slab]),
                    );
                }
            },
            |_r, reader| while reader.read().is_some() {},
        );
        report.assert_complete();
    };
    g.bench_function(BenchmarkId::from_parameter("untraced"), |b| {
        let cfg = workload();
        b.iter(|| run_once(&cfg, NetworkOptions::default()));
    });
    // `off` holds the bar for the causal layer too: the edge-recording
    // call sites (wire joins, queue push/pop, steal, gate, EOS) are
    // compiled in unconditionally, so `off` ≈ `untraced` proves a
    // disabled `CausalSink` costs a branch and nothing more.
    // `full+causal` prices the enabled engine against plain `full`.
    for (name, trace) in [
        ("off", TraceOptions::off()),
        ("totals", TraceOptions::default()),
        ("full", TraceOptions::full()),
        (
            "full+telemetry",
            TraceOptions::full().with_telemetry(Duration::from_millis(1)),
        ),
        ("full+causal", TraceOptions::full().with_causal()),
    ] {
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            let cfg = workload();
            b.iter(|| run_traced(&cfg, trace));
        });
    }
    g.finish();
}

/// Ablation 5: producer buffer depth.
fn buffer_depth(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime_buffer_depth");
    g.sample_size(10);
    for slots in [2usize, 8, 32] {
        g.bench_with_input(BenchmarkId::from_parameter(slots), &slots, |b, &slots| {
            let mut cfg = WorkflowConfig {
                producers: 2,
                consumers: 1,
                steps: 3,
                bytes_per_rank_step: ByteSize::kib(512),
                ..Default::default()
            };
            cfg.tuning.block_size = ByteSize::kib(64);
            cfg.tuning.producer_slots = slots;
            cfg.tuning.high_water_mark = slots.saturating_sub(1).max(1).min(slots - 1).max(1);
            cfg.tuning.high_water_mark = (slots * 3 / 4).max(1).min(slots - 1);
            let net = NetworkOptions::throttled(2, 80e6, Duration::ZERO);
            b.iter(|| run_once(&cfg, net.clone()));
        });
    }
    g.finish();
}

criterion_group! {
    name = runtime;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(1)).warm_up_time(std::time::Duration::from_millis(200));
    targets = block_size_sweep, dual_channel_ablation, instrumentation_overhead, buffer_depth
}
criterion_main!(runtime);
