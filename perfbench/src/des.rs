//! The two discrete-event-simulator workloads: one iteration builds and
//! runs each transport of the workload once, from the crates' public
//! entry points, timing set-up and the event loop separately.

use crate::spans::Tracer;
use hpcsim::Simulator;
use std::time::{Duration, Instant};
use zipper_apps::Complexity;
use zipper_transports::spec::{sim_config, ClusterLayout};
use zipper_transports::{
    dataspaces, decaf, dimes, flexpath, mpiio, zipper, TransportKind, WorkflowSpec,
};
use zipper_types::{ByteSize, SimTime};

/// Virtual-clock telemetry period of a detailed run (the value
/// `zipper_transports::run_with_detail` uses).
const SAMPLE_PERIOD: SimTime = SimTime::from_millis(50);

/// One DES workload: the spec every transport runs, which transports, and
/// whether the program's own trace detail is on (as in the figure harness
/// the workload mirrors).
pub struct DesWorkload {
    pub spec: WorkflowSpec,
    pub kinds: Vec<TransportKind>,
    pub detail: bool,
}

/// The Fig. 12 rank count (1,568 sim + 784 analysis) with synthetic O(n)
/// producers, 1 MiB blocks and 16 MiB per rank: the cost that grows with
/// rank count (the 2·p·q EOS wires) dominates. Totals-only trace detail,
/// as `experiments fig12` runs it.
pub fn scaleout(seed: u64) -> DesWorkload {
    let mut spec = WorkflowSpec::synthetic(
        Complexity::Linear,
        1568,
        784,
        ByteSize::mib(16).as_u64(),
        ByteSize::mib(1).as_u64(),
    );
    spec.seed = seed;
    DesWorkload {
        spec,
        kinds: vec![TransportKind::Zipper],
        detail: false,
    }
}

/// The Fig. 2 CFD workflow at paper scale (256 sim + 128 analysis ranks,
/// 16 per node, 100 steps) under all eight transports, with totals-only
/// trace detail so the event engine, not trace recording, dominates.
pub fn fig2(seed: u64) -> DesWorkload {
    let mut spec = WorkflowSpec::cfd(256, 128, 100);
    spec.ranks_per_node = 16;
    spec.seed = seed;
    DesWorkload {
        spec,
        kinds: TransportKind::ALL.to_vec(),
        detail: false,
    }
}

/// Everything measured about one transport's run.
#[derive(Clone, Debug)]
pub struct KindRun {
    pub kind: TransportKind,
    /// Validate, preflight, layout, `Simulator::new` and the model build.
    pub setup: Duration,
    pub preflight: Duration,
    /// `ClusterLayout`, `Simulator::new` and the model build.
    pub build: Duration,
    /// `Simulator::run`, reading the results and dropping the simulator.
    pub run: Duration,
    /// Time inside `Simulator::run` alone.
    pub engine: Duration,
    pub preflight_accepted: bool,
    pub clean: bool,
    pub events: u64,
    pub end_to_end: SimTime,
    pub xmit_wait_sim: u64,
}

impl KindRun {
    /// The fields that must repeat exactly for the same spec.
    pub fn fingerprint(&self) -> (u64, SimTime, u64) {
        (self.events, self.end_to_end, self.xmit_wait_sim)
    }
}

/// Staging/link processes each transport adds (mirrors the runner's
/// private placement rule).
fn extra_staging_procs(kind: TransportKind, spec: &WorkflowSpec) -> usize {
    match kind {
        TransportKind::MpiIo | TransportKind::Zipper | TransportKind::Flexpath => 0,
        TransportKind::DataSpacesNative
        | TransportKind::DataSpacesAdios
        | TransportKind::DimesNative
        | TransportKind::DimesAdios => spec.staging_servers,
        TransportKind::Decaf => spec.decaf_links.min(spec.sim_ranks),
    }
}

fn build(kind: TransportKind, sim: &mut Simulator, spec: &WorkflowSpec, layout: &ClusterLayout) {
    match kind {
        TransportKind::MpiIo => mpiio::build(sim, spec, layout),
        TransportKind::DataSpacesNative => dataspaces::build(sim, spec, layout, false),
        TransportKind::DataSpacesAdios => dataspaces::build(sim, spec, layout, true),
        TransportKind::DimesNative => dimes::build(sim, spec, layout, false),
        TransportKind::DimesAdios => dimes::build(sim, spec, layout, true),
        TransportKind::Flexpath => flexpath::build(sim, spec, layout),
        TransportKind::Decaf => decaf::build(sim, spec, layout),
        TransportKind::Zipper => zipper::build(sim, spec, layout),
    }
}

/// Short metric-name form of a transport.
pub fn slug(kind: TransportKind) -> &'static str {
    match kind {
        TransportKind::MpiIo => "mpiio",
        TransportKind::DataSpacesNative => "dataspaces-native",
        TransportKind::DataSpacesAdios => "dataspaces-adios",
        TransportKind::DimesNative => "dimes-native",
        TransportKind::DimesAdios => "dimes-adios",
        TransportKind::Flexpath => "flexpath",
        TransportKind::Decaf => "decaf",
        TransportKind::Zipper => "zipper",
    }
}

/// A simulator set up for one transport, with the set-up timings.
struct Prepared {
    sim: Simulator,
    layout: ClusterLayout,
    setup: Duration,
    preflight: Duration,
    build: Duration,
    accepted: bool,
}

/// The set-up steps of `zipper_transports::run_with_detail`, plus the
/// preflight, each timed: validate, preflight, `ClusterLayout`,
/// `Simulator::new` and the model build.
fn prepare(
    kind: TransportKind,
    spec: &WorkflowSpec,
    detail: bool,
    tracer: &Tracer,
    parent: Option<u32>,
) -> Prepared {
    let t0 = Instant::now();
    tracer.span("zipper-transports.validate", parent, None, 0, |_| {
        spec.validate().expect("workload spec is valid")
    });
    let tp = Instant::now();
    let accepted = tracer.span("zipper-policy.preflight", parent, None, 0, |_| {
        !spec.preflight().is_rejected()
    });
    let preflight = tp.elapsed();
    let tb = Instant::now();
    let (sim, layout) = tracer.span("hpcsim.build", parent, None, 0, |_| {
        let layout = ClusterLayout::new(spec, extra_staging_procs(kind, spec));
        let mut sim = Simulator::new(sim_config(spec, &layout));
        sim.set_trace_detail(detail);
        if detail {
            sim.enable_telemetry(SAMPLE_PERIOD);
            if kind == TransportKind::Zipper {
                sim.enable_causal();
            }
        }
        build(kind, &mut sim, spec, &layout);
        (sim, layout)
    });
    Prepared {
        sim,
        layout,
        setup: t0.elapsed(),
        preflight,
        build: tb.elapsed(),
        accepted,
    }
}

/// Set up one transport as a run does, without running it; returns the
/// set-up time.
pub fn setup_only(kind: TransportKind, spec: &WorkflowSpec, detail: bool) -> Duration {
    prepare(kind, spec, detail, &Tracer::off(), None).setup
}

/// Set up and run one transport.
pub fn run_kind(
    kind: TransportKind,
    spec: &WorkflowSpec,
    detail: bool,
    tracer: &Tracer,
    parent: Option<u32>,
) -> KindRun {
    let Prepared {
        mut sim,
        layout,
        setup,
        preflight,
        build,
        accepted,
    } = prepare(kind, spec, detail, tracer, parent);
    let tr = Instant::now();
    let report = tracer.span("hpcsim.run", parent, None, 0, |_| sim.run());
    let engine = tr.elapsed();
    // Read the results the way the runner's `finish` does.
    if let Some(mut causal) = sim.take_causal() {
        zipper::reclassify_causal(&mut causal);
        std::hint::black_box(&causal);
    }
    std::hint::black_box(sim.finish_telemetry());
    std::hint::black_box(sim.telemetry().snapshot());
    let xmit_wait_sim = sim.network().xmit_wait_sum(layout.sim_node_range());
    std::hint::black_box((sim.pfs().requests(), sim.pfs().drain_time()));
    drop(std::hint::black_box(sim.into_trace()));
    let run = tr.elapsed();
    KindRun {
        kind,
        setup,
        preflight,
        build,
        run,
        engine,
        preflight_accepted: accepted,
        clean: report.is_clean(),
        events: report.events,
        end_to_end: report.end,
        xmit_wait_sim,
    }
}

/// Payload bytes the workflow delivers to analysis in one run of a
/// transport (every block of every rank and step, for a clean run).
pub fn payload_bytes(spec: &WorkflowSpec) -> u64 {
    spec.bytes_per_rank_step * spec.sim_ranks as u64 * spec.steps
}
