//! The two threaded-runtime workloads: one producer app thread generating
//! real synthetic data and one consumer app thread running the 4-moment
//! analysis, coupled over the in-process mesh (`run_workflow`, with work
//! stealing into the in-memory PFS) or over loopback TCP (message only).

use crate::spans::{checksum, TimingSender, TimingStorage, Tracer};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use zipper_apps::analysis::MomentAccumulator;
use zipper_apps::synthetic::{decode_block, generate_block, Complexity};
use zipper_core::{
    listen_consumers, listen_consumers_traced, Consumer, Producer, TcpSender, WireSender,
    ZipperReader, ZipperWriter,
};
use zipper_pfs::{MemFs, Storage};
use zipper_trace::{TraceMode, TraceSink};
use zipper_types::{
    BlockId, ByteSize, GlobalPos, PreserveMode, Rank, RoutingPolicy, StepId, WorkflowConfig,
    ZipperTuning,
};
use zipper_workflow::{run_workflow_traced, NetworkOptions, StorageOptions, TraceOptions};

/// One step's output slab per producer.
pub const SLAB_BYTES: usize = 4 << 20;
/// Fine-grain block size the runtime splits each slab into.
pub const BLOCK_BYTES: usize = 64 << 10;
const BLOCKS_PER_SLAB: u32 = (SLAB_BYTES / BLOCK_BYTES) as u32;
/// Highest moment the analysis tracks.
const MOMENTS: u32 = 4;
/// Largest relative difference allowed between a moment from the pipeline
/// and from the single-threaded reference. Both sum the same positive
/// terms, only in a different block order (stolen blocks arrive late):
/// rounding differences of such a reordering are of order
/// sqrt(n)·eps ≈ 1e-12 for the ~6.7e7 samples of an iteration, far below
/// this.
pub const MOMENT_RTOL: f64 = 1e-9;

/// Which threaded substrate a workload couples the two apps over.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Coupling {
    /// `run_workflow` over the in-process `ChannelMesh`, concurrent
    /// transfer on: blocks past the high-water mark are stolen into the
    /// in-memory PFS.
    MeshSteal,
    /// `listen_consumers` + `TcpSender` + `Producer::spawn` +
    /// `Consumer::spawn` over loopback TCP, message only.
    Tcp,
}

/// The program's own trace detail for a run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Detail {
    /// What the entry points do by default (per-lane totals).
    Default,
    /// `TraceOptions::full()` / a full-mode `TraceSink`.
    Full,
    /// `TraceOptions::off()` / `TraceSink::off()`.
    Off,
}

/// Steps of one iteration: `STEPS × SLAB_BYTES` = 512 MiB of payload.
pub const STEPS: u64 = 128;

/// Runtime tuning. On the mesh, buffers a quarter of a slab deep with the
/// high-water mark at half the producer buffer: every slab's burst of
/// blocks crosses the mark, so most blocks are stolen whatever the thread
/// schedule (about 0.8 of them, steady within a few points), where a
/// buffer as deep as a slab made the stolen share swing with the schedule
/// between about 0.07 and 0.15 from one iteration to the next. Over TCP
/// (message only) the buffers only set backpressure.
fn tuning(coupling: Coupling) -> ZipperTuning {
    let mesh = coupling == Coupling::MeshSteal;
    let (producer_slots, high_water_mark, consumer_slots) =
        if mesh { (16, 8, 16) } else { (64, 48, 64) };
    ZipperTuning {
        block_size: ByteSize::bytes(BLOCK_BYTES as u64),
        producer_slots,
        high_water_mark,
        consumer_slots,
        concurrent_transfer: mesh,
        preserve: PreserveMode::NoPreserve,
        routing: RoutingPolicy::SourceAffine,
        eos_timeout: Some(Duration::from_secs(30)),
        recovery: Default::default(),
    }
}

/// Message-channel inbox depth of the mesh, in messages.
const MESH_INBOX: usize = 4;

fn slab_seed(seed: u64, step: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ step
}

fn block_key(step: u64, idx: u32) -> u64 {
    BlockId::new(Rank(0), StepId(step), idx).as_u64()
}

/// Raw moments `E[x^n]`, n = 1..=4, computed here rather than by
/// `zipper-apps`, so a defect in the analysis kernels shows as a mismatch.
#[derive(Default)]
pub struct RefMoments {
    sums: [f64; MOMENTS as usize],
    count: u64,
}

impl RefMoments {
    /// Fold a block of little-endian `f64`s.
    fn add(&mut self, block: &[u8]) {
        for word in block.chunks_exact(8) {
            let x = f64::from_le_bytes(word.try_into().expect("8-byte chunk"));
            let mut p = 1.0;
            for sum in &mut self.sums {
                p *= x;
                *sum += p;
            }
        }
        self.count += (block.len() / 8) as u64;
    }
}

/// The single-threaded reference over one iteration's inputs: per-block
/// checksums, the moments, and the time of a plain generate-and-analyse
/// loop through `zipper-apps`.
pub struct Reference {
    pub checksums: HashMap<u64, u64>,
    pub moments: RefMoments,
    pub bytes: u64,
    pub generate: Duration,
    pub analysis: Duration,
}

impl Reference {
    pub fn compute(seed: u64, steps: u64) -> Reference {
        let mut r = Reference {
            checksums: HashMap::new(),
            moments: RefMoments::default(),
            bytes: 0,
            generate: Duration::ZERO,
            analysis: Duration::ZERO,
        };
        let mut inline = MomentAccumulator::new(MOMENTS);
        for step in 0..steps {
            let t = Instant::now();
            let slab = generate_block(Complexity::Linear, SLAB_BYTES, slab_seed(seed, step));
            r.generate += t.elapsed();
            for (idx, chunk) in slab.chunks(BLOCK_BYTES).enumerate() {
                let t = Instant::now();
                inline.update(&decode_block(chunk));
                r.analysis += t.elapsed();
                r.checksums
                    .insert(block_key(step, idx as u32), checksum(chunk));
                r.moments.add(chunk);
            }
            r.bytes += slab.len() as u64;
        }
        std::hint::black_box(inline);
        r
    }

    /// Throughput of the plain single-threaded loop, GB/s.
    pub fn inline_gb_per_s(&self) -> f64 {
        self.bytes as f64 / 1e9 / (self.generate + self.analysis).as_secs_f64()
    }
}

/// What the consumer app saw.
struct Delivered {
    moments: MomentAccumulator,
    /// (block key, payload checksum) per delivered block.
    seen: Vec<(u64, u64)>,
    bytes: u64,
}

impl Delivered {
    fn new() -> Self {
        Delivered {
            moments: MomentAccumulator::new(MOMENTS),
            seen: Vec::new(),
            bytes: 0,
        }
    }
}

/// One iteration's outcome.
#[derive(Debug)]
pub struct PipeRun {
    pub setup: Duration,
    pub wall: Duration,
    pub delivered_bytes: u64,
    pub blocks_expected: u64,
    /// Expected blocks not delivered exactly once with a matching checksum,
    /// plus unexpected deliveries.
    pub blocks_bad: u64,
    /// Failures the runtime reported (app-thread failures and rank errors).
    pub runtime_failures: u64,
    /// Largest relative moment difference from the reference.
    pub moment_rel_err: f64,
    pub blocks_written: u64,
    pub blocks_stolen: u64,
    pub blocks_from_pfs: u64,
    /// Messages over the message channel (mesh counter; on TCP, the sends
    /// counted by the traced run's timing sender).
    pub net_messages: u64,
}

/// The producer app: generate each step's slab and hand it to the runtime.
fn produce(writer: &ZipperWriter, seed: u64, steps: u64, tracer: &Tracer, parent: Option<u32>) {
    tracer.span("perfbench.producer", parent, None, 0, |pid| {
        for step in 0..steps {
            let trace = Some(block_key(step, 0));
            let slab = tracer.span(
                "zipper-apps.generate_block",
                pid,
                trace,
                SLAB_BYTES as u64,
                |_| generate_block(Complexity::Linear, SLAB_BYTES, slab_seed(seed, step)),
            );
            tracer.span(
                "zipper-core.write_slab",
                pid,
                trace,
                SLAB_BYTES as u64,
                |_| writer.write_slab(StepId(step), GlobalPos::default(), slab),
            );
        }
    })
}

/// The consumer app: read until end of stream, checksum and analyse each
/// block.
fn consume(reader: &ZipperReader, tracer: &Tracer, parent: Option<u32>) -> Delivered {
    let mut d = Delivered::new();
    tracer.span("perfbench.consumer", parent, None, 0, |cid| loop {
        let open = tracer.open();
        let Some(block) = reader.read() else {
            tracer.close(open, "zipper-core.read", cid, None, 0);
            break;
        };
        let (id, len) = (block.id().as_u64(), block.payload.len() as u64);
        tracer.close(open, "zipper-core.read", cid, Some(id), len);
        let sum = tracer.span("perfbench.checksum", cid, Some(id), len, |_| {
            checksum(&block.payload)
        });
        tracer.span("zipper-apps.analysis", cid, Some(id), len, |aid| {
            let v = tracer.span("zipper-apps.decode_block", aid, Some(id), len, |_| {
                decode_block(&block.payload)
            });
            tracer.span("zipper-apps.moments_update", aid, Some(id), len, |_| {
                d.moments.update(&v)
            });
        });
        d.seen.push((id, sum));
        d.bytes += len;
    });
    d
}

/// Run one iteration. `tracer` records the benchmark's spans (and wraps
/// the sender and storage in the timing wrappers) when on; `detail` picks
/// the program's own trace detail.
pub fn iteration(
    coupling: Coupling,
    seed: u64,
    reference: &Reference,
    tracer: &Tracer,
    detail: Detail,
) -> PipeRun {
    let root = tracer.open();
    let (delivered, mut run) = couple(coupling, seed, STEPS, tracer, root.id, detail);
    tracer.close(root, "perfbench.iteration", None, None, delivered.bytes);
    run.delivered_bytes = delivered.bytes;
    run.blocks_expected = STEPS * BLOCKS_PER_SLAB as u64;
    run.blocks_bad = bad_blocks(&reference.checksums, &delivered.seen);
    run.moment_rel_err = moment_rel_err(&reference.moments, &delivered.moments);
    run
}

/// Set up the runtime exactly as an iteration does, with a producer app
/// that writes nothing; returns the set-up time and the failures the
/// runtime reported.
pub fn setup_only(coupling: Coupling, seed: u64) -> (Duration, u64) {
    let (_, run) = couple(coupling, seed, 0, &Tracer::off(), None, Detail::Default);
    (run.setup, run.runtime_failures)
}

/// Couple the two apps; the producer writes `writes` steps.
fn couple(
    coupling: Coupling,
    seed: u64,
    writes: u64,
    tracer: &Tracer,
    root: Option<u32>,
    detail: Detail,
) -> (Delivered, PipeRun) {
    let t0 = Instant::now();
    let started = Arc::new(OnceLock::new());
    let (delivered, mut run) = match coupling {
        Coupling::MeshSteal => mesh(seed, writes, tracer, root, detail, &started),
        Coupling::Tcp => tcp(seed, writes, tracer, root, detail, &started),
    };
    let end = Instant::now();
    let first = *started.get().expect("the producer app ran");
    run.setup = first - t0;
    run.wall = end - first;
    (delivered, run)
}

fn bad_blocks(expected: &HashMap<u64, u64>, seen: &[(u64, u64)]) -> u64 {
    let mut hits: HashMap<u64, u32> = HashMap::with_capacity(seen.len());
    let mut bad = 0;
    for &(id, sum) in seen {
        *hits.entry(id).or_default() += 1;
        if expected.get(&id) != Some(&sum) {
            bad += 1; // unexpected block, or payload mismatch
        }
    }
    for id in expected.keys() {
        match hits.get(id) {
            Some(1) => {}
            Some(n) => bad += u64::from(*n - 1), // duplicates
            None => bad += 1,                    // lost
        }
    }
    bad
}

fn moment_rel_err(reference: &RefMoments, got: &MomentAccumulator) -> f64 {
    if reference.count != got.count() {
        return f64::INFINITY;
    }
    (1..=MOMENTS)
        .map(|n| {
            let a = reference.sums[n as usize - 1] / reference.count as f64;
            let b = got.moment(n).unwrap_or(0.0);
            (a - b).abs() / a.abs().max(f64::MIN_POSITIVE)
        })
        .fold(0.0, f64::max)
}

fn empty_run() -> PipeRun {
    PipeRun {
        setup: Duration::ZERO,
        wall: Duration::ZERO,
        delivered_bytes: 0,
        blocks_expected: 0,
        blocks_bad: 0,
        runtime_failures: 0,
        moment_rel_err: 0.0,
        blocks_written: 0,
        blocks_stolen: 0,
        blocks_from_pfs: 0,
        net_messages: 0,
    }
}

fn mesh(
    seed: u64,
    writes: u64,
    tracer: &Tracer,
    root: Option<u32>,
    detail: Detail,
    started: &Arc<OnceLock<Instant>>,
) -> (Delivered, PipeRun) {
    let cfg = WorkflowConfig {
        producers: 1,
        consumers: 1,
        steps: STEPS,
        bytes_per_rank_step: ByteSize::bytes(SLAB_BYTES as u64),
        tuning: tuning(Coupling::MeshSteal),
    };
    let storage = if tracer.enabled() {
        let timed = TimingStorage::new(MemFs::new(), tracer.clone(), root);
        StorageOptions::Custom(Arc::new(timed))
    } else {
        StorageOptions::Memory
    };
    let trace = match detail {
        Detail::Default => TraceOptions::default(),
        Detail::Full => TraceOptions::full(),
        Detail::Off => TraceOptions::off(),
    };
    let (pt, ct, started) = (tracer.clone(), tracer.clone(), started.clone());
    let (report, mut results) = run_workflow_traced(
        &cfg,
        NetworkOptions::unthrottled(MESH_INBOX),
        storage,
        trace,
        move |_rank, writer| {
            let _ = started.set(Instant::now());
            produce(writer, seed, writes, &pt, root);
        },
        move |_rank, reader| consume(reader, &ct, root),
    );
    let delivered = results.pop().unwrap_or_else(Delivered::new);
    let (p, c) = (report.producer_total(), report.consumer_total());
    let mut run = empty_run();
    run.runtime_failures = report.errors().len() as u64;
    run.blocks_written = p.blocks_written;
    run.blocks_stolen = p.blocks_stolen;
    run.blocks_from_pfs = c.blocks_disk;
    run.net_messages = report.net_messages;
    (delivered, run)
}

fn tcp(
    seed: u64,
    writes: u64,
    tracer: &Tracer,
    root: Option<u32>,
    detail: Detail,
    started: &OnceLock<Instant>,
) -> (Delivered, PipeRun) {
    let sink = match detail {
        Detail::Default => None,
        Detail::Full => Some(TraceSink::wall(TraceMode::Full)),
        Detail::Off => Some(TraceSink::off()),
    };
    let (addrs, mut receivers) = match &sink {
        None => listen_consumers(1, 1),
        Some(sink) => listen_consumers_traced(1, 1, sink),
    }
    .expect("bind a loopback listener");
    let sender = TcpSender::connect(&addrs).expect("connect over loopback");
    let storage: Arc<dyn Storage> = if tracer.enabled() {
        Arc::new(TimingStorage::new(MemFs::new(), tracer.clone(), root))
    } else {
        Arc::new(MemFs::new())
    };
    let tuning = tuning(Coupling::Tcp);
    let mut producer = if tracer.enabled() {
        spawn_producer(
            TimingSender::new(sender, tracer.clone(), root),
            tuning,
            &storage,
            &sink,
        )
    } else {
        spawn_producer(sender, tuning, &storage, &sink)
    };
    let rx = receivers.pop().expect("one receiver per consumer");
    let mut consumer = match &sink {
        None => Consumer::spawn(Rank(0), tuning, 1, rx, storage.clone()),
        Some(sink) => Consumer::spawn_traced(Rank(0), tuning, 1, rx, storage, sink.clone()),
    };
    let writer = producer.writer(BLOCK_BYTES);
    let reader = consumer.reader();
    let (produced, delivered) = std::thread::scope(|s| {
        let p = s.spawn(move || {
            let _ = started.set(Instant::now());
            produce(&writer, seed, writes, tracer, root);
            writer.finish();
        });
        let c = s.spawn(move || consume(&reader, tracer, root));
        (p.join(), c.join())
    });
    let (pm, cm) = (producer.join(), consumer.join());
    let mut run = empty_run();
    run.runtime_failures = (pm.errors.len() + cm.errors.len()) as u64
        + u64::from(produced.is_err())
        + u64::from(delivered.is_err());
    run.blocks_written = pm.blocks_written;
    run.blocks_stolen = pm.blocks_stolen;
    run.blocks_from_pfs = cm.blocks_disk;
    let delivered = delivered.unwrap_or_else(|_| Delivered::new());
    (delivered, run)
}

fn spawn_producer<S: WireSender + 'static>(
    sender: S,
    tuning: ZipperTuning,
    storage: &Arc<dyn Storage>,
    sink: &Option<TraceSink>,
) -> Producer {
    match sink {
        None => Producer::spawn(Rank(0), tuning, sender, storage.clone()),
        Some(sink) => {
            Producer::spawn_traced(Rank(0), tuning, sender, storage.clone(), sink.clone())
        }
    }
}
