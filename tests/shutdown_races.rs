//! Shutdown races: the teardown orderings that used to hang or abort the
//! runtime. Every scenario here must end with the failure *typed* in the
//! [`WorkflowReport`] (or a `Result` at the queue layer) — never a hang,
//! which is why each workflow runs under a hard test-level deadline.

use bytes::Bytes;
use std::sync::mpsc;
use std::time::Duration;
use zipper_core::BlockQueue;
use zipper_types::block::deterministic_payload;
use zipper_types::{
    Block, BlockId, ByteSize, GlobalPos, Rank, RuntimeError, StepId, WorkflowConfig,
};
use zipper_workflow::{
    run_workflow_traced, NetworkOptions, StorageOptions, TraceOptions, WorkflowReport,
};

/// Run `f` on its own thread and panic if it does not finish within
/// `deadline` — the "never hang" half of every assertion in this file.
fn with_deadline<T: Send + 'static>(
    deadline: Duration,
    name: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    let thread = std::thread::Builder::new()
        .name(format!("deadline-{name}"))
        .spawn(move || {
            let _ = tx.send(f());
        })
        .expect("spawn deadline thread");
    let out = rx
        .recv_timeout(deadline)
        .unwrap_or_else(|_| panic!("{name}: runtime hung past {deadline:?}"));
    thread.join().expect("deadline thread itself panicked");
    out
}

fn cfg() -> WorkflowConfig {
    let mut cfg = WorkflowConfig {
        producers: 2,
        consumers: 1,
        steps: 6,
        bytes_per_rank_step: ByteSize::kib(64),
        ..Default::default()
    };
    cfg.tuning.block_size = ByteSize::kib(8);
    cfg.tuning.producer_slots = 4;
    cfg.tuning.high_water_mark = 2;
    // Back-stop for anything this suite gets wrong: a leaked stream trips
    // the watchdog long before the test deadline.
    cfg.tuning.eos_timeout = Some(Duration::from_secs(5));
    cfg
}

/// Pushing into a closed queue is a typed error, not a panic — the
/// shutdown race where a runtime thread is mid-`push` while the consumer
/// side tears the queue down.
#[test]
fn push_after_close_is_an_error_not_a_panic() {
    let q = BlockQueue::new(4);
    let id = BlockId::new(Rank(0), StepId(0), 0);
    let block = Block::from_payload(
        Rank(0),
        StepId(0),
        0,
        1,
        GlobalPos::default(),
        deterministic_payload(id, 64),
    );
    q.push(block.clone()).unwrap();
    q.close();
    assert!(q.push(block).is_err(), "push after close must refuse");
    // The block accepted before the close still drains.
    assert!(q.pop().0.is_some());
    assert!(q.pop().0.is_none());
}

/// A producer application that dies mid-step: the panic is caught, the
/// rank's runtime tears down through its drop guards (the sender still
/// flushes EOS, so consumers terminate normally), and the report carries
/// the typed panic. The surviving producer's data all arrives.
#[test]
fn producer_app_panic_mid_step_is_reported_not_fatal() {
    let cfg = cfg();
    let healthy = cfg.steps * cfg.blocks_per_rank_step();
    let total = cfg.total_blocks();
    let (report, counts): (WorkflowReport, Vec<u64>) =
        with_deadline(Duration::from_secs(60), "producer-panic", move || {
            run_workflow_traced(
                &cfg,
                NetworkOptions::default(),
                StorageOptions::Memory,
                TraceOptions::default(),
                |rank, writer| {
                    let steps = 6u64;
                    let slab = 64 << 10;
                    for s in 0..steps {
                        if rank == Rank(0) && s == 2 {
                            panic!("injected producer death at step {s}");
                        }
                        writer.write_slab(
                            StepId(s),
                            GlobalPos::default(),
                            Bytes::from(vec![rank.0 as u8; slab]),
                        );
                    }
                },
                |_r, reader| {
                    let mut n = 0u64;
                    while reader.read().is_some() {
                        n += 1;
                    }
                    n
                },
            )
        });
    let errors = report.errors();
    assert!(
        errors.iter().any(|e| matches!(
            e,
            RuntimeError::AppPanicked {
                rank: Rank(0),
                role: "producer app",
                ..
            }
        )),
        "expected the caught producer panic, got {errors:?}"
    );
    // The healthy producer's full output arrived; the dead one delivered
    // at least its pre-panic steps.
    let delivered: u64 = counts.iter().sum();
    assert!(
        delivered >= healthy,
        "surviving producer lost data: {delivered} < {healthy}"
    );
    assert!(delivered < total, "dead producer cannot have finished");
}

/// A consumer application that dies mid-stream: its reader's drop guard
/// closes the queue, the receiver switches to discarding (so producers
/// never block on the dead rank's full inbox), and the report carries both
/// the typed panic and the abandoned stream. Producers still finish their
/// entire output under the deadline.
#[test]
fn consumer_dropped_mid_stream_is_reported_and_producers_finish() {
    let cfg = cfg();
    let total = cfg.total_blocks();
    let (report, results): (WorkflowReport, Vec<u64>) =
        with_deadline(Duration::from_secs(60), "consumer-death", move || {
            run_workflow_traced(
                &cfg,
                // Tiny inbox: without the receiver's discard path, the
                // producers would wedge on the dead consumer's backpressure.
                NetworkOptions::unthrottled(2),
                StorageOptions::Memory,
                TraceOptions::default(),
                |rank, writer| {
                    for s in 0..6u64 {
                        writer.write_slab(
                            StepId(s),
                            GlobalPos::default(),
                            Bytes::from(vec![rank.0 as u8; 64 << 10]),
                        );
                    }
                },
                |_r, reader| {
                    let mut n = 0u64;
                    while reader.read().is_some() {
                        n += 1;
                        if n == 3 {
                            panic!("injected consumer death after {n} blocks");
                        }
                    }
                    n
                },
            )
        });
    // The dead consumer produced no result…
    assert!(
        results.is_empty(),
        "a dead consumer must not yield a result"
    );
    // …but every producer still flushed its entire stream.
    assert_eq!(report.producer_total().blocks_written, total);
    let errors = report.errors();
    assert!(
        errors.iter().any(|e| matches!(
            e,
            RuntimeError::AppPanicked {
                role: "consumer app",
                ..
            }
        )),
        "expected the caught consumer panic, got {errors:?}"
    );
    assert!(
        errors
            .iter()
            .any(|e| matches!(e, RuntimeError::ReaderAbandoned { .. })),
        "expected the abandoned-stream report, got {errors:?}"
    );
}

/// Both shutdown races at once under repetition: a producer and a consumer
/// die in the same run, over several trials to widen the race windows. The
/// run must always terminate with typed errors — never hang, never abort.
#[test]
fn combined_producer_and_consumer_death_always_terminates() {
    for trial in 0..5 {
        let cfg = cfg();
        let (report, _results): (WorkflowReport, Vec<u64>) =
            with_deadline(Duration::from_secs(60), "combined-death", move || {
                run_workflow_traced(
                    &cfg,
                    NetworkOptions::unthrottled(2),
                    StorageOptions::Memory,
                    TraceOptions::default(),
                    move |rank, writer| {
                        for s in 0..6u64 {
                            if rank == Rank(1) && s == 3 {
                                panic!("injected producer death (trial {trial})");
                            }
                            writer.write_slab(
                                StepId(s),
                                GlobalPos::default(),
                                Bytes::from(vec![rank.0 as u8; 64 << 10]),
                            );
                        }
                    },
                    |_r, reader| {
                        let mut n = 0u64;
                        while reader.read().is_some() {
                            n += 1;
                            if n == 2 {
                                panic!("injected consumer death");
                            }
                        }
                        n
                    },
                )
            });
        let errors = report.errors();
        let producer_panics = errors
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    RuntimeError::AppPanicked {
                        role: "producer app",
                        ..
                    }
                )
            })
            .count();
        let consumer_panics = errors
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    RuntimeError::AppPanicked {
                        role: "consumer app",
                        ..
                    }
                )
            })
            .count();
        assert_eq!(producer_panics, 1, "trial {trial}: {errors:?}");
        assert_eq!(consumer_panics, 1, "trial {trial}: {errors:?}");
    }
}
