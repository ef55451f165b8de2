//! # zipper-transports
//!
//! Behavioural models, on the [`hpcsim`] discrete-event simulator, of the
//! seven I/O transport methods the paper benchmarks (§2–§3) plus the
//! Zipper runtime itself (§4). Each model encodes the *coordination
//! structure* that the paper's trace analysis identifies as that
//! transport's performance signature:
//!
//! | model | signature (paper evidence) |
//! |---|---|
//! | [`mpiio`] | collective per-step file I/O through a metadata server + shared, variable-load PFS (§3: "longest and most variational") |
//! | [`dataspaces`] | dedicated staging servers, lock service round trips; the ADIOS wrapper adds a coarse global lock (§3: native locks give 1.3× over ADIOS) |
//! | [`dimes`] | data parked in producer-node RDMA buffers, metadata server, collective type-2 locks over a circular slot queue → producer stalls ≈ one step when analysis lags (Fig. 4) |
//! | [`flexpath`] | per-step fetch/response over sockets, marshalling cost, staging traffic interfering with `MPI_Sendrecv` (Fig. 5), segfault ≥ 6,528 cores (§6.3) |
//! | [`decaf`] | link nodes + `MPI_Waitall` interlock → per-step producer stalls (Fig. 6), i32 overflow crash on large CFD runs (Fig. 16) |
//! | [`zipper`] | fine-grain blocks, per-rank compute/sender/writer processes sharing a bounded buffer, high-water-mark work stealing to the PFS, data-availability-driven consumers (Figs. 8–9, Algorithm 1) |
//!
//! [`runner`] provides the single entry point used by the experiment
//! harnesses: build a [`spec::WorkflowSpec`], pick a
//! [`runner::TransportKind`], get a [`runner::TransportResult`] with the
//! end-to-end time, the trace, and the derived metrics each figure needs.

pub mod common;
pub mod dataspaces;
pub mod decaf;
pub mod dimes;
pub mod flexpath;
pub mod mpiio;
pub mod runner;
pub mod spec;
pub mod zipper;

pub use runner::{
    run, run_analysis_only, run_sim_only, run_sim_only_with_detail, run_with_detail, TransportKind,
    TransportResult,
};
pub use spec::WorkflowSpec;
