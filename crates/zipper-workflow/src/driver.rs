//! The rank-spawning driver.

use crate::report::{WorkflowPolicies, WorkflowReport};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use zipper_core::{
    ChannelMesh, ChaosSender, Consumer, Producer, RetryingSender, TracedSender, WireSender,
    ZipperReader, ZipperWriter,
};
use zipper_pfs::{ChaosFs, MemFs, RetryingFs, Storage, ThrottledFs};
use zipper_policy::{ConsumerPolicy, ProducerPolicy};
use zipper_trace::{SampleSeries, Sampler, Telemetry, TraceMode, TraceSink};
use zipper_types::{
    panic_detail, BackpressureScript, ChaosEntity, ChaosPlan, Rank, RetryPolicy, RuntimeError,
    SenderGate, WorkflowConfig,
};

/// Message-channel options for a run.
#[derive(Clone, Debug)]
pub struct NetworkOptions {
    /// Per-consumer inbox capacity in messages (backpressure depth).
    pub inbox_capacity: usize,
    /// Optional aggregate bandwidth (bytes/s) and per-message latency.
    pub throttle: Option<(f64, Duration)>,
    /// Optional transient-failure retry for every producer's sender: each
    /// failed send is re-attempted with exponential backoff, recorded as
    /// `Retry` spans on lane `net/p{rank}/retry` and counted in
    /// [`WorkflowReport::net_retries`].
    pub retry: Option<RetryPolicy>,
    /// Scripted faults, empty by default: each entity the plan names gets
    /// its injection wrapper (see [`run_workflow_traced`]). Sender faults
    /// sit at the wire, under the retry layer, so `FailSend` faults are
    /// retried while `CorruptWire`/`DropEos` reach the consumer's fault
    /// handling. Periodic faults are plan events too
    /// ([`ChaosPlan::every`]).
    pub chaos: ChaosPlan,
    /// Optional scripted backpressure: each producer whose rank the script
    /// names gets a [`SenderGate`] that its sender thread passes before
    /// each data wire, holding the scripted ordinals until their gate
    /// opens (a fixed hold, or a cumulative writer-steal credit target).
    /// Held time is charged to `net.backpressure_ns`. The script is
    /// validated against the run's block count before any rank spawns.
    pub backpressure: Option<BackpressureScript>,
}

impl Default for NetworkOptions {
    fn default() -> Self {
        NetworkOptions {
            inbox_capacity: 64,
            throttle: None,
            retry: None,
            chaos: ChaosPlan::new(),
            backpressure: None,
        }
    }
}

impl NetworkOptions {
    /// Unthrottled mesh with a given inbox depth.
    pub fn unthrottled(inbox_capacity: usize) -> Self {
        NetworkOptions {
            inbox_capacity,
            ..Default::default()
        }
    }

    /// Throttled mesh: shared aggregate bandwidth + per-message latency.
    pub fn throttled(inbox_capacity: usize, bytes_per_sec: f64, latency: Duration) -> Self {
        NetworkOptions {
            inbox_capacity,
            throttle: Some((bytes_per_sec, latency)),
            ..Default::default()
        }
    }

    /// Retry failed sends under `policy`.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Inject the faults `plan` scripts (see [`NetworkOptions::chaos`]).
    pub fn with_chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = plan;
        self
    }

    /// Hold scripted data wires under `script` (see
    /// [`NetworkOptions::backpressure`]).
    pub fn with_backpressure(mut self, script: BackpressureScript) -> Self {
        self.backpressure = Some(script);
        self
    }
}

/// Storage options for a run.
#[derive(Clone, Default)]
pub enum StorageOptions {
    /// Unthrottled in-memory store.
    #[default]
    Memory,
    /// In-memory store behind a shared aggregate bandwidth (bytes/s) and
    /// per-op latency — the laptop stand-in for a contended Lustre.
    ThrottledMemory(f64, Duration),
    /// Any caller-provided backend (real disk, fault injection, …).
    Custom(Arc<dyn Storage>),
    /// Any of the above behind a transient-failure retry layer: failed
    /// `put`/`get` operations are re-attempted with exponential backoff,
    /// recorded as `Retry` spans on lane `pfs/retry` and counted in
    /// [`WorkflowReport::pfs_retries`].
    Retrying(Box<StorageOptions>, RetryPolicy),
}

impl StorageOptions {
    /// Wrap this backend in a retry layer (see [`StorageOptions::Retrying`]).
    pub fn with_retry(self, policy: RetryPolicy) -> Self {
        StorageOptions::Retrying(Box::new(self), policy)
    }

    fn build(self, sink: &TraceSink) -> Arc<dyn Storage> {
        match self {
            StorageOptions::Memory => Arc::new(MemFs::new()),
            StorageOptions::ThrottledMemory(bw, lat) => Arc::new(
                ThrottledFs::new(MemFs::new(), bw, lat).with_telemetry(sink.telemetry().clone()),
            ),
            StorageOptions::Custom(storage) => storage,
            StorageOptions::Retrying(inner, policy) => {
                let inner = inner.build(sink);
                Arc::new(RetryingFs::traced(inner, policy, sink, "pfs/retry"))
            }
        }
    }
}

/// Trace fidelity of a run.
#[derive(Clone, Copy, Debug)]
pub struct TraceOptions {
    /// How much the shared sink records (default: per-lane totals, which
    /// is what the derived metrics need and costs O(lanes) memory).
    pub mode: TraceMode,
    /// Also record wire-level `net/p{rank}` lanes (each producer's mesh
    /// endpoint wrapped in a [`TracedSender`]). Only meaningful when the
    /// mode keeps spans — it exists to put wire time on the timeline.
    pub wire_lanes: bool,
    /// Collect congestion metrics (stall counters, queue-depth gauges,
    /// size histograms) and sample them periodically into
    /// [`WorkflowReport::samples`]. Independent of `mode`: metrics work
    /// even with span recording off.
    pub telemetry: bool,
    /// Period of the background sampler thread when `telemetry` is on.
    pub sample_period: Duration,
    /// Record every rank's policy-kernel decisions and inject them as
    /// `policy/p{rank}` / `policy/q{rank}` lanes of zero-duration
    /// [`zipper_trace::SpanKind::Policy`] markers into
    /// [`WorkflowReport::trace`]. Independent of `mode`. The recorded
    /// kernels themselves land in [`WorkflowReport::policies`].
    pub policy: bool,
    /// Record cross-entity causal edges (wire ship→receive, queue
    /// push→pop, steal announce, gate open, PFS fetch, EOS fan-out) into
    /// [`WorkflowReport::causal`], enabling
    /// [`WorkflowReport::critical_path`] and the what-if sensitivity
    /// sweep. Needs span recording on (`mode` enabled); inert otherwise.
    pub causal: bool,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions {
            mode: TraceMode::Totals,
            wire_lanes: false,
            telemetry: false,
            sample_period: Duration::from_millis(10),
            policy: false,
            causal: false,
        }
    }
}

impl TraceOptions {
    /// No tracing at all: recorders are inert, metrics time fields are
    /// zero, counters still work.
    pub fn off() -> Self {
        TraceOptions {
            mode: TraceMode::Off,
            ..Default::default()
        }
    }

    /// Full-fidelity tracing: raw spans plus wire lanes — everything the
    /// timeline and window statistics need.
    pub fn full() -> Self {
        TraceOptions {
            mode: TraceMode::Full,
            wire_lanes: true,
            ..Default::default()
        }
    }

    /// Turn on metric collection, sampled every `period`.
    pub fn with_telemetry(mut self, period: Duration) -> Self {
        self.telemetry = true;
        self.sample_period = period;
        self
    }

    /// Turn on policy-kernel decision recording (see
    /// [`TraceOptions::policy`]).
    pub fn with_policy(mut self) -> Self {
        self.policy = true;
        self
    }

    /// Turn on causal-edge recording (see [`TraceOptions::causal`]).
    pub fn with_causal(mut self) -> Self {
        self.causal = true;
        self
    }
}

/// Run a coupled workflow: `cfg.producers` simulation ranks each driving
/// `produce(rank, &writer)`, and `cfg.consumers` analysis ranks each
/// driving `consume(rank, &reader)` to completion. Every rank's runtime
/// lanes record into one shared wall-clock [`TraceSink`] at the fidelity
/// `trace` picks; the merged log lands in [`WorkflowReport::trace`] and
/// the ranks' policy kernels in [`WorkflowReport::policies`].
///
/// Contracts:
/// * `produce` must return only after its last `write`; the driver calls
///   `finish()` afterwards.
/// * `consume` must drain its reader (read until `None`) — the pipeline is
///   data-availability-driven, and an undrained reader would block the
///   runtime threads.
///
/// Panics when `cfg` or the [`NetworkOptions::backpressure`] script is
/// invalid ([`BackpressureScript::validate`] against this run's block
/// count), as the DES rejects the same spec.
///
/// Returns the report plus the results of the consumers that completed,
/// in rank order. A producer or consumer app that panics does not abort
/// the run: the panic is caught, the rank's runtime is torn down through
/// its drop guards, and the failure lands in
/// [`WorkflowReport::failures`] (so a dead consumer contributes no result
/// but the rest of the workflow still drains and reports).
///
/// The faults scripted in [`NetworkOptions::chaos`] are interpreted per
/// entity — the same plan the DES interprets in virtual time:
///
/// * `Sender(r)` — producer `r`'s mesh endpoint is wrapped innermost in a
///   [`ChaosSender`] striking the scripted wire ordinals; a
///   `DetachSender` event spawns that producer with its sender detached
///   from the data path (every block drains through the work-stealing
///   writer).
/// * `Writer(r)` — producer `r`'s storage handle is wrapped in a
///   [`ChaosFs`] failing the scripted `put` ordinals; the writer thread
///   retires on the fault and the policy kernel may revive it per
///   `cfg.tuning.recovery`.
/// * `Output(q)` — consumer `q`'s storage handle is wrapped likewise, so
///   scripted Preserve-store puts are lost.
/// * `Analysis(q)` — consumer `q`'s reader runs under a restart
///   supervisor: scripted read ordinals panic inside `read`, the panic is
///   caught, and (budget permitting, `cfg.tuning.recovery`) the delivered
///   backlog is replayed from the Preserve store before a fresh reader
///   re-runs the `consume` closure. With the budget exhausted the rank is
///   abandoned fail-soft and reported in [`WorkflowReport::failures`].
///   The supervisor also guards every consumer when
///   `max_consumer_restarts > 0`, so organic panics are healed too.
///
/// An entity the plan does not name runs the plain stack (bar the restart
/// budget above). Restart replay requires Preserve mode to have made the
/// backlog durable. [`preflight_workflow`] verifies the same plan
/// statically; a caller that must not run a provably broken plan checks
/// its report first.
pub fn run_workflow_traced<R, P, C>(
    cfg: &WorkflowConfig,
    net: NetworkOptions,
    storage_opts: StorageOptions,
    trace: TraceOptions,
    produce: P,
    consume: C,
) -> (WorkflowReport, Vec<R>)
where
    R: Send + 'static,
    P: Fn(Rank, &ZipperWriter) + Send + Sync + 'static,
    C: Fn(Rank, &ZipperReader) -> R + Send + Sync + 'static,
{
    cfg.validate().expect("invalid workflow config");
    if let Some(script) = &net.backpressure {
        script
            .validate(Some(cfg.steps * cfg.blocks_per_rank_step()))
            .expect("invalid backpressure script");
    }
    let telemetry = if trace.telemetry {
        Telemetry::on()
    } else {
        Telemetry::off()
    };
    let mut sink = TraceSink::wall(trace.mode).with_telemetry(telemetry.clone());
    if trace.causal {
        sink = sink.with_causal();
    }
    let storage = storage_opts.build(&sink);
    let mut mesh =
        ChannelMesh::new(cfg.consumers, net.inbox_capacity).with_telemetry(telemetry.clone());
    if let Some((bw, lat)) = net.throttle {
        mesh = mesh.with_throttle(bw, lat);
    }
    let sampler = trace
        .telemetry
        .then(|| Sampler::spawn(telemetry.clone(), sink.clock(), trace.sample_period));

    let produce = Arc::new(produce);
    let consume = Arc::new(consume);
    let mut policies = WorkflowPolicies {
        producers: Vec::with_capacity(cfg.producers),
        consumers: Vec::with_capacity(cfg.consumers),
    };
    // Failures observed by the driver itself (an app thread panicking, a
    // thread that could not be spawned) — merged into the report alongside
    // the per-rank runtime errors.
    let mut failures: Vec<RuntimeError> = Vec::new();
    // Wall-clock run timing for the report; the DES driver uses virtual time.
    #[allow(clippy::disallowed_methods)]
    let t0 = Instant::now();

    // Spawn consumer runtimes + application threads first so inboxes exist
    // before any producer sends. Each app thread catches its own unwind:
    // the handle moves into the closure, so on a panic its drop guard
    // closes the rank's queue and the rest of the workflow keeps draining.
    let mut consumer_apps = Vec::with_capacity(cfg.consumers);
    let mut consumer_runtimes = Vec::with_capacity(cfg.consumers);
    for q in 0..cfg.consumers {
        let rank = Rank(q as u32);
        let rx = match mesh.take_receiver(rank) {
            Ok(rx) => rx,
            Err(_) => {
                // Unreachable with a driver-built mesh; recorded, not fatal.
                failures.push(RuntimeError::ChannelDisconnected {
                    rank,
                    context: "mesh receiver unavailable",
                });
                continue;
            }
        };
        let mut cp = ConsumerPolicy::from_tuning(rank, cfg.producers, &cfg.tuning);
        if trace.policy {
            cp = cp.recorded();
        }
        let policy = Arc::new(Mutex::new(cp));
        policies.consumers.push(policy.clone());
        // Scripted Preserve-store faults hit this rank's output thread.
        let consumer_storage = entity_storage(&storage, &net.chaos, ChaosEntity::Output(rank));
        let app_policy = policy.clone();
        let mut c = Consumer::spawn_with_policy(
            rank,
            cfg.tuning,
            cfg.producers,
            rx,
            consumer_storage,
            sink.clone(),
            policy,
        );
        let consume = consume.clone();
        let analysis_scope = net.chaos.scope(ChaosEntity::Analysis(rank));
        let supervised =
            !analysis_scope.is_empty() || cfg.tuning.recovery.max_consumer_restarts > 0;
        let app: Box<dyn FnOnce() -> Result<R, RuntimeError> + Send> = if !supervised {
            let reader = c.reader();
            Box::new(
                move || match catch_unwind(AssertUnwindSafe(|| consume(rank, &reader))) {
                    Ok(r) => Ok(r),
                    Err(payload) => {
                        // Explicit for the reader: the drop guard closes the
                        // queue and records the abandoned stream.
                        drop(reader);
                        Err(RuntimeError::AppPanicked {
                            rank,
                            role: "consumer app",
                            detail: panic_detail(payload.as_ref()),
                        })
                    }
                },
            )
        } else {
            // Restart supervisor: scripted CrashApp ordinals (and any
            // organic panic) are caught, the policy kernel arbitrates
            // the restart budget, and the delivered backlog is
            // replayed from the Preserve store before a fresh reader
            // re-runs the closure — the decision sequence
            // (reader_abandoned / consumer_restarted) mirrors the DES
            // analysis proc exactly.
            let recovery = c.recovery(Some(Arc::new(analysis_scope)));
            let replay_storage = storage.clone();
            Box::new(move || loop {
                let reader = recovery.fresh_reader();
                let run = catch_unwind(AssertUnwindSafe(|| consume(rank, &reader)));
                drop(reader);
                let payload = match run {
                    Ok(r) => break Ok(r),
                    Err(payload) => payload,
                };
                let may_restart = {
                    let mut p = app_policy.lock();
                    p.reader_abandoned();
                    p.may_restart()
                };
                if !may_restart {
                    recovery.abandon();
                    break Err(RuntimeError::AppPanicked {
                        rank,
                        role: "consumer app",
                        detail: panic_detail(payload.as_ref()),
                    });
                }
                match recovery.replay_from(&replay_storage, Duration::from_secs(5)) {
                    Ok(replayed) => app_policy.lock().consumer_restarted(replayed),
                    Err(e) => {
                        recovery.abandon();
                        break Err(RuntimeError::AppPanicked {
                            rank,
                            role: "consumer app",
                            detail: format!("backlog replay after a crash failed: {e}"),
                        });
                    }
                }
            })
        };
        consumer_runtimes.push(c);
        let spawned = std::thread::Builder::new()
            .name(format!("ana-rank-{q}"))
            .spawn(app);
        match spawned {
            Ok(h) => consumer_apps.push((rank, h)),
            Err(e) => failures.push(RuntimeError::AppPanicked {
                rank,
                role: "consumer app",
                detail: format!("could not spawn app thread: {e}"),
            }),
        }
    }

    // Spawn producer runtimes + application threads.
    let mut producer_apps = Vec::with_capacity(cfg.producers);
    let mut producer_runtimes = Vec::with_capacity(cfg.producers);
    let mut retry_counters: Vec<Arc<AtomicU64>> = Vec::new();
    for p in 0..cfg.producers {
        let rank = Rank(p as u32);
        // Compose innermost-out: fault injection sits at the wire (as a
        // lossy network would), tracing observes it, retry rides over it.
        let sender_scope = net.chaos.scope(ChaosEntity::Sender(rank));
        let detach_sender = sender_scope.detached();
        let base: Box<dyn WireSender> = if sender_scope.is_empty() {
            Box::new(mesh.sender())
        } else {
            Box::new(ChaosSender::new(mesh.sender(), Arc::new(sender_scope)))
        };
        let traced: Box<dyn WireSender> = if trace.wire_lanes && trace.mode.enabled() {
            Box::new(TracedSender::new(base, &sink, format!("net/p{p}")))
        } else {
            base
        };
        let retried: Box<dyn WireSender> = match net.retry {
            Some(policy) => {
                let r =
                    RetryingSender::new(traced, policy).traced(&sink, format!("net/p{p}/retry"));
                retry_counters.push(r.retry_counter());
                Box::new(r)
            }
            None => traced,
        };
        let gate = net
            .backpressure
            .as_ref()
            .map(|s| s.windows_for(rank))
            .filter(|w| !w.is_empty())
            .map(|w| Arc::new(SenderGate::new(w)));
        let mut pp = ProducerPolicy::from_tuning(rank, cfg.consumers, &cfg.tuning);
        if trace.policy {
            pp = pp.recorded();
        }
        let policy = Arc::new(Mutex::new(pp));
        policies.producers.push(policy.clone());
        // Scripted PFS faults hit this rank's writer thread.
        let producer_storage = entity_storage(&storage, &net.chaos, ChaosEntity::Writer(rank));
        let mut prod = Producer::spawn_with_policy_gated(
            rank,
            cfg.tuning,
            retried,
            producer_storage,
            sink.clone(),
            policy,
            detach_sender,
            gate,
        );
        let writer = prod.writer(cfg.tuning.block_size.as_u64() as usize);
        producer_runtimes.push(prod);
        let produce = produce.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("sim-rank-{p}"))
            .spawn(
                move || match catch_unwind(AssertUnwindSafe(|| produce(rank, &writer))) {
                    Ok(()) => {
                        writer.finish();
                        Ok(())
                    }
                    Err(payload) => {
                        // Drop guard closes the queue: the sender thread still
                        // flushes EOS, so consumers terminate normally.
                        drop(writer);
                        Err(RuntimeError::AppPanicked {
                            rank,
                            role: "producer app",
                            detail: panic_detail(payload.as_ref()),
                        })
                    }
                },
            );
        match spawned {
            Ok(h) => producer_apps.push((rank, h)),
            Err(e) => failures.push(RuntimeError::AppPanicked {
                rank,
                role: "producer app",
                detail: format!("could not spawn app thread: {e}"),
            }),
        }
    }

    // Join in dependency order: producer apps → producer runtimes (EOS
    // flows to consumers) → consumer apps → consumer runtimes. Every join
    // is absorbed into the failure list instead of propagating a panic —
    // the report is produced no matter which ranks died.
    for (rank, h) in producer_apps {
        match h.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => failures.push(e),
            Err(payload) => failures.push(RuntimeError::AppPanicked {
                rank,
                role: "producer app",
                detail: panic_detail(payload.as_ref()),
            }),
        }
    }
    let producers: Vec<_> = producer_runtimes.into_iter().map(|p| p.join()).collect();
    let mut results: Vec<R> = Vec::with_capacity(consumer_apps.len());
    for (rank, h) in consumer_apps {
        match h.join() {
            Ok(Ok(r)) => results.push(r),
            Ok(Err(e)) => failures.push(e),
            Err(payload) => failures.push(RuntimeError::AppPanicked {
                rank,
                role: "consumer app",
                detail: panic_detail(payload.as_ref()),
            }),
        }
    }
    let consumers: Vec<_> = consumer_runtimes.into_iter().map(|c| c.join()).collect();

    // Stop sampling before the snapshot so the final sample sees the fully
    // merged state of every rank.
    let samples = sampler
        .map(Sampler::stop)
        .unwrap_or_else(SampleSeries::default);

    // Read the storage totals, then release the driver's handle: every
    // rank's clone died at join, so this drop is what lets a retry
    // decorator flush its buffered `pfs/retry` lane into the sink before
    // the snapshot below.
    let pfs_blocks = storage.len();
    let pfs_bytes_written = storage.bytes_written();
    let pfs_retries = storage.retries();
    drop(storage);

    // Every runtime thread has joined, so the policy locks are free; lay
    // each rank's decision sequence down as a policy lane of the report.
    let mut trace_log = sink.snapshot();
    if trace.policy {
        for (p, policy) in policies.producers.iter().enumerate() {
            zipper_trace::policy::inject(&mut trace_log, &format!("p{p}"), policy.lock().trace());
        }
        for (q, policy) in policies.consumers.iter().enumerate() {
            zipper_trace::policy::inject(&mut trace_log, &format!("q{q}"), policy.lock().trace());
        }
    }

    let report = WorkflowReport {
        wall: t0.elapsed(),
        producers,
        consumers,
        failures,
        net_bytes: mesh.bytes_sent(),
        net_messages: mesh.messages_sent(),
        net_backpressure: mesh.backpressure(),
        net_retries: retry_counters
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum(),
        pfs_blocks,
        pfs_bytes_written,
        pfs_retries,
        trace: trace_log,
        causal: sink.causal().snapshot(),
        metrics: telemetry.snapshot(),
        samples,
        policies,
    };
    (report, results)
}

/// Statically verify the plan a threaded run would interpret — the
/// workflow config plus the chaos plan and scripted backpressure riding in
/// `net` — without spawning a thread. A plan with any error-severity
/// diagnostic (a provable deadlock, a dead chaos ordinal, an unhealable
/// crash) is [`zipper_policy::PreflightReport::is_rejected`]. The DES-side
/// twin is `WorkflowSpec::preflight` in `zipper-transports`.
pub fn preflight_workflow(
    cfg: &WorkflowConfig,
    net: &NetworkOptions,
) -> zipper_policy::PreflightReport {
    let mut input = zipper_policy::PreflightInput::from_config(cfg);
    input.chaos = Some(net.chaos.clone());
    input.backpressure = net.backpressure.clone();
    zipper_policy::Preflight::check(&input)
}

/// `storage` as `entity` sees it: behind a [`ChaosFs`] when the plan
/// scripts faults for it, the shared store itself otherwise.
fn entity_storage(
    storage: &Arc<dyn Storage>,
    plan: &ChaosPlan,
    entity: ChaosEntity,
) -> Arc<dyn Storage> {
    let scope = plan.scope(entity);
    if scope.is_empty() {
        storage.clone()
    } else {
        Arc::new(ChaosFs::new(storage.clone(), Arc::new(scope)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use zipper_types::{ByteSize, GlobalPos, PreserveMode, StepId};

    fn cfg(producers: usize, consumers: usize, steps: u64) -> WorkflowConfig {
        let mut c = WorkflowConfig {
            producers,
            consumers,
            steps,
            bytes_per_rank_step: ByteSize::kib(64),
            ..Default::default()
        };
        c.tuning.block_size = ByteSize::kib(16);
        c.tuning.producer_slots = 8;
        c.tuning.high_water_mark = 4;
        c
    }

    /// A producer that emits `steps` slabs of the configured size.
    fn slab_producer(cfg: &WorkflowConfig) -> impl Fn(Rank, &ZipperWriter) + Send + Sync {
        let steps = cfg.steps;
        let slab_len = cfg.bytes_per_rank_step.as_u64() as usize;
        move |rank, writer| {
            for s in 0..steps {
                let payload = vec![(rank.0 as u8).wrapping_add(s as u8); slab_len];
                writer.write_slab(StepId(s), GlobalPos::default(), Bytes::from(payload));
            }
        }
    }

    #[test]
    fn counts_blocks_end_to_end() {
        let c = cfg(3, 2, 4);
        let expected_blocks = c.total_blocks();
        let (report, counts) = run_workflow_traced(
            &c,
            NetworkOptions::default(),
            StorageOptions::Memory,
            TraceOptions::default(),
            slab_producer(&c),
            |_rank, reader| {
                let mut n = 0u64;
                while let Some(_b) = reader.read() {
                    n += 1;
                }
                n
            },
        );
        report.assert_complete();
        let delivered: u64 = counts.iter().sum();
        assert_eq!(delivered, expected_blocks);
        assert_eq!(report.producer_total().blocks_written, expected_blocks);
        assert!(report.wall > Duration::ZERO);
    }

    #[test]
    fn preserve_mode_lands_everything_on_storage() {
        let mut c = cfg(2, 1, 3);
        c.tuning.preserve = PreserveMode::Preserve;
        let (report, _) = run_workflow_traced(
            &c,
            NetworkOptions::default(),
            StorageOptions::Memory,
            TraceOptions::default(),
            slab_producer(&c),
            |_, reader| while reader.read().is_some() {},
        );
        report.assert_complete();
        assert_eq!(report.pfs_blocks as u64, c.total_blocks());
    }

    #[test]
    fn throttled_network_engages_dual_channel() {
        let mut c = cfg(2, 1, 6);
        c.tuning.producer_slots = 4;
        c.tuning.high_water_mark = 1;
        let (report, _) = run_workflow_traced(
            &c,
            NetworkOptions::throttled(1, 2e6, Duration::ZERO),
            StorageOptions::Memory,
            TraceOptions::default(),
            slab_producer(&c),
            |_, reader| while reader.read().is_some() {},
        );
        report.assert_complete();
        assert!(
            report.steal_fraction() > 0.0,
            "slow network should trigger the writer thread"
        );
        let total = report.consumer_total();
        assert_eq!(
            total.blocks_net + total.blocks_disk,
            c.total_blocks(),
            "both channels together deliver everything"
        );
    }

    #[test]
    fn recorded_run_returns_policies_and_injects_policy_lanes() {
        use zipper_trace::SpanKind;
        let c = cfg(2, 2, 3);
        let (report, _) = run_workflow_traced(
            &c,
            NetworkOptions::default(),
            StorageOptions::Memory,
            TraceOptions::default().with_policy(),
            slab_producer(&c),
            |_, reader| while reader.read().is_some() {},
        );
        report.assert_complete();
        let policies = &report.policies;
        assert_eq!(policies.producers.len(), 2);
        assert_eq!(policies.consumers.len(), 2);
        // Every producer routed all of its blocks and announced EOS to
        // both consumers on both channels.
        for p in &policies.producers {
            let t = p.lock().trace().canonical();
            assert_eq!(t.routes.len() as u64, c.total_blocks() / 2);
            assert_eq!(t.eos_announced.len(), 4);
        }
        for q in &policies.consumers {
            assert_eq!(q.lock().trace().canonical().completions, 1);
        }
        // The decision sequences also landed as policy lanes.
        for label in ["policy/p0", "policy/p1", "policy/q0", "policy/q1"] {
            let lane = report
                .trace
                .lane_by_label(label)
                .unwrap_or_else(|| panic!("missing lane {label}"));
            assert!(report
                .trace
                .lane_spans(lane)
                .iter()
                .all(|s| s.kind == SpanKind::Policy));
        }
    }

    #[test]
    fn full_trace_produces_a_renderable_timeline() {
        use zipper_trace::SpanKind;
        let c = cfg(2, 2, 3);
        let (report, _) = run_workflow_traced(
            &c,
            NetworkOptions::default(),
            StorageOptions::Memory,
            TraceOptions::full(),
            slab_producer(&c),
            |_, reader| while reader.read().is_some() {},
        );
        report.assert_complete();
        // Every rank's lanes made it into the merged log, including the
        // wire lanes.
        let labels: Vec<String> = report
            .trace
            .lanes()
            .map(|l| report.trace.lane_label(l).to_string())
            .collect();
        for needed in [
            "sim/p0/app",
            "sim/p1/send",
            "net/p0",
            "ana/q0/recv",
            "ana/q1/app",
        ] {
            assert!(
                labels.iter().any(|l| l == needed),
                "missing lane {needed}: {labels:?}"
            );
        }
        // The metrics are views over the same log: aggregate compute time
        // in the trace equals the metrics' derived compute total.
        let p = report.producer_total();
        let trace_compute =
            zipper_trace::stats::kind_time_filtered(&report.trace, SpanKind::Compute, |l| {
                l.starts_with("sim/") && l.ends_with("/app")
            });
        assert_eq!(p.compute(), Duration::from_nanos(trace_compute.as_nanos()));
        // And the timeline renders with step-marked compute on it.
        let t = report.timeline(60);
        assert!(t.contains("sim/p0/app"), "{t}");
        assert!(
            report
                .window(zipper_types::SimTime::ZERO, report.trace.horizon())
                .steps_per_lane
                > 0.0
        );
    }

    #[test]
    fn causal_trace_extracts_a_critical_path() {
        use zipper_trace::{Bucket, CriticalPath};
        let c = cfg(2, 2, 3);
        let (report, _) = run_workflow_traced(
            &c,
            NetworkOptions::default(),
            StorageOptions::Memory,
            TraceOptions::full().with_causal(),
            slab_producer(&c),
            |_, reader| while reader.read().is_some() {},
        );
        report.assert_complete();
        assert!(!report.causal.is_empty(), "edges were recorded");
        let graph = report.causal_graph();
        let path = CriticalPath::extract(&graph).expect("path exists");
        // The path telescopes: bucket attribution sums to the makespan
        // within 1% (wall-clock jitter between lane clock reads).
        let total = path.attribution.total().as_nanos() as f64;
        let makespan = graph.makespan().as_nanos() as f64;
        assert!(
            (total - makespan).abs() / makespan < 0.01,
            "attribution {total} vs makespan {makespan}"
        );
        // It ends in analysis and crossed the wire to get there.
        let sig = path.signature(&graph);
        assert!(
            sig.iter()
                .any(|s| s.starts_with("wire:") || s.starts_with("steal:")),
            "path crosses a substrate edge: {sig:?}"
        );
        // …ending on an analysis lane before the virtual-sink pad hop.
        assert_eq!(sig.last().map(String::as_str), Some("·"), "{sig:?}");
        assert_eq!(
            sig.get(sig.len().saturating_sub(2)).map(String::as_str),
            Some("ana/app"),
            "{sig:?}"
        );
        // The sensitivity sweep is sane: scaling a bucket by 1× is the
        // identity, and no 2× sweep predicts a speedup.
        for o in graph.what_if_sweep() {
            assert!(o.delta_ns() >= 0.0, "{o}");
        }
        assert_eq!(
            graph.what_if(Bucket::Comp, 1.0).predicted_ns,
            makespan,
            "identity reproduces the measured makespan"
        );
        // And the rendered artifacts carry the verdict.
        let t = report.timeline_critical(60);
        assert!(t.contains("critical path (verdict:"), "{t}");
        assert!(
            report.summary().contains("causal: verdict"),
            "{}",
            report.summary()
        );
    }

    #[test]
    fn causal_off_records_nothing() {
        let c = cfg(1, 1, 2);
        let (report, _) = run_workflow_traced(
            &c,
            NetworkOptions::default(),
            StorageOptions::Memory,
            TraceOptions::full(),
            slab_producer(&c),
            |_, reader| while reader.read().is_some() {},
        );
        report.assert_complete();
        assert!(report.causal.is_empty());
        assert_eq!(report.causal.unjoined(), 0);
        assert!(
            !report.summary().contains("causal:"),
            "{}",
            report.summary()
        );
    }

    #[test]
    fn trace_off_still_counts_blocks() {
        let c = cfg(1, 1, 2);
        let (report, _) = run_workflow_traced(
            &c,
            NetworkOptions::default(),
            StorageOptions::Memory,
            TraceOptions::off(),
            slab_producer(&c),
            |_, reader| while reader.read().is_some() {},
        );
        report.assert_complete();
        assert_eq!(report.producer_total().blocks_written, c.total_blocks());
        assert_eq!(report.producer_total().compute(), Duration::ZERO);
        assert_eq!(report.trace.lane_count(), 0);
    }

    #[test]
    fn telemetry_populates_metrics_and_samples() {
        use zipper_trace::{CounterId, GaugeId, HistogramId};
        let c = cfg(2, 1, 4);
        let (report, _) = run_workflow_traced(
            &c,
            NetworkOptions::default(),
            StorageOptions::Memory,
            TraceOptions::default().with_telemetry(Duration::from_micros(100)),
            slab_producer(&c),
            |_, reader| while reader.read().is_some() {},
        );
        report.assert_complete();
        assert!(report.metrics.is_enabled());
        assert!(report.metrics.counter(CounterId::NetBytes) > 0);
        assert!(report.metrics.counter(CounterId::NetMessages) > 0);
        let h = report.metrics.histogram(HistogramId::SendBytes);
        assert!(h.count > 0);
        assert!(report.samples.is_monotone());
        assert!(!report.samples.is_empty());
        // Every message was drained: the inbox-depth gauge closes at zero.
        let last = report.samples.points.last().unwrap();
        assert_eq!(last.gauge(GaugeId::InboxDepth), 0);
        assert!(
            report.summary().contains("net.bytes"),
            "{}",
            report.summary()
        );
    }

    #[test]
    fn telemetry_off_report_is_inert() {
        let c = cfg(1, 1, 2);
        let (report, _) = run_workflow_traced(
            &c,
            NetworkOptions::default(),
            StorageOptions::Memory,
            TraceOptions::default(),
            slab_producer(&c),
            |_, reader| while reader.read().is_some() {},
        );
        report.assert_complete();
        assert!(!report.metrics.is_enabled());
        assert!(report.samples.is_empty());
    }

    #[test]
    fn chaos_consumer_crash_recovers_via_preserve_replay() {
        use zipper_types::{ChaosFault, RecoveryPolicy};
        // Acceptance scenario: a consumer killed mid-stream recovers by
        // Preserve-store replay, and the final analysis output equals the
        // fault-free run's.
        let mut c = cfg(2, 2, 4);
        c.tuning.preserve = PreserveMode::Preserve;
        c.tuning.recovery = RecoveryPolicy {
            max_consumer_restarts: 1,
            ..Default::default()
        };
        let digest = |_rank: Rank, reader: &ZipperReader| {
            let mut ids: Vec<u64> = reader.iter().map(|b| b.id().as_u64()).collect();
            ids.sort_unstable();
            ids
        };
        let (clean_report, clean) = run_workflow_traced(
            &c,
            NetworkOptions::default(),
            StorageOptions::Memory,
            TraceOptions::default(),
            slab_producer(&c),
            digest,
        );
        clean_report.assert_complete();

        let plan = ChaosPlan::new().with(ChaosEntity::Analysis(Rank(1)), 3, ChaosFault::CrashApp);
        let (report, got) = run_workflow_traced(
            &c,
            NetworkOptions::default().with_chaos(plan),
            StorageOptions::Memory,
            TraceOptions::default().with_policy(),
            slab_producer(&c),
            digest,
        );
        let policies = &report.policies;
        // The injected crash is reported (ReaderAbandoned on the replayed
        // rank) but recovered: no app-level failure, full output.
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(got, clean, "recovered output must equal the fault-free run");
        let t1 = policies.consumers[1].lock().trace().canonical();
        assert!(t1.abandoned, "the crash was accounted");
        assert_eq!(t1.restarts, vec![2], "read #3 crashed with 2 delivered");
        assert_eq!(t1.completions, 1, "the restarted pass drained to EOS");
        let t0 = policies.consumers[0].lock().trace().canonical();
        assert!(!t0.abandoned);
        assert_eq!(t0.restarts, Vec::<usize>::new());
    }

    #[test]
    fn chaos_crash_without_budget_fails_soft() {
        use zipper_types::ChaosFault;
        let mut c = cfg(1, 2, 3);
        c.tuning.preserve = PreserveMode::Preserve;
        // Default recovery: zero restart budget.
        let plan = ChaosPlan::new().with(ChaosEntity::Analysis(Rank(0)), 2, ChaosFault::CrashApp);
        let (report, counts) = run_workflow_traced(
            &c,
            NetworkOptions::default().with_chaos(plan),
            StorageOptions::Memory,
            TraceOptions::default(),
            slab_producer(&c),
            |_, reader| {
                let mut n = 0u64;
                while reader.read().is_some() {
                    n += 1;
                }
                n
            },
        );
        // The run terminates (no deadlock), the dead rank is reported, and
        // the surviving rank still drains its share.
        assert_eq!(counts.len(), 1);
        assert!(
            report
                .failures
                .iter()
                .any(|e| matches!(e, RuntimeError::AppPanicked { rank, .. } if *rank == Rank(0))),
            "unrecovered crash lands in failures: {:?}",
            report.failures
        );
    }

    #[test]
    fn chaos_writer_fault_revives_and_detached_sender_drains_by_disk() {
        use zipper_types::{ChaosFault, RecoveryPolicy, RoutingPolicy};
        let mut c = cfg(2, 1, 4);
        c.tuning.preserve = PreserveMode::Preserve;
        c.tuning.high_water_mark = 0;
        c.tuning.routing = RoutingPolicy::RoundRobin;
        c.tuning.recovery = RecoveryPolicy {
            writer_cooldown: Duration::ZERO,
            max_writer_revivals: 1,
            max_consumer_restarts: 0,
        };
        let mut plan =
            ChaosPlan::new().with(ChaosEntity::Writer(Rank(0)), 2, ChaosFault::PfsWriteFail);
        for p in 0..2 {
            plan = plan.with(ChaosEntity::Sender(Rank(p)), 1, ChaosFault::DetachSender);
        }
        let expected = c.total_blocks();
        let (report, counts) = run_workflow_traced(
            &c,
            NetworkOptions::default().with_chaos(plan),
            StorageOptions::Memory,
            TraceOptions::default().with_policy(),
            slab_producer(&c),
            |_, reader| {
                let mut n = 0u64;
                while reader.read().is_some() {
                    n += 1;
                }
                n
            },
        );
        // The injected PFS fault is reported (WriterRetired) but healed by
        // the revival: nothing app-level failed and nothing was lost.
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert!(
            report
                .errors()
                .iter()
                .any(|e| matches!(e, RuntimeError::WriterRetired { .. })),
            "the fault is still visible in the report: {:?}",
            report.errors()
        );
        assert_eq!(counts.iter().sum::<u64>(), expected, "no block lost");
        let t0 = report.policies.producers[0].lock().trace().canonical();
        assert_eq!(t0.revivals, 1, "the faulted writer was revived");
        assert!(
            t0.retires.len() >= 2,
            "fault retire then drained retire: {:?}",
            t0.retires
        );
        assert_eq!(
            report.consumer_total().blocks_net,
            0,
            "detached senders carry no data"
        );
    }

    #[test]
    fn message_only_mode_never_steals() {
        let mut c = cfg(2, 1, 4);
        c.tuning.concurrent_transfer = false;
        let (report, _) = run_workflow_traced(
            &c,
            NetworkOptions::throttled(1, 2e6, Duration::ZERO),
            StorageOptions::Memory,
            TraceOptions::default(),
            slab_producer(&c),
            |_, reader| while reader.read().is_some() {},
        );
        report.assert_complete();
        assert_eq!(report.steal_fraction(), 0.0);
        assert_eq!(report.pfs_blocks, 0);
    }

    /// A window scripted twice on one wire would be consumed once and
    /// then block every later window (wire 4's `Hold` would pass
    /// unheld), so the runner rejects the script up front, as the DES
    /// spec does.
    #[test]
    #[should_panic(expected = "invalid backpressure script")]
    fn duplicate_gate_wire_is_rejected_before_spawning() {
        use zipper_types::GateRule::{Hold, OpenAfterSteals};
        let c = cfg(1, 1, 2);
        let script = BackpressureScript::new()
            .with(Rank(0), 2, OpenAfterSteals(1))
            .with(Rank(0), 2, OpenAfterSteals(2))
            .with(Rank(0), 4, Hold(Duration::from_millis(1)));
        let net = NetworkOptions {
            backpressure: Some(script),
            ..Default::default()
        };
        let trace = TraceOptions::default();
        let _ = run_workflow_traced(&c, net, StorageOptions::Memory, trace, |_, _| {}, |_, _| {});
    }
}
