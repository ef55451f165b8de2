//! The benchmark's own tracing: spans recorded from the benchmark's code
//! around its calls into each crate's public functions, kept in memory and
//! written out as JSON lines when the run ends. Nothing inside the crates is
//! instrumented; the two wrappers below time the calls the runtime makes
//! into a [`WireSender`] and a [`Storage`] from the outside.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use zipper_core::{Wire, WireSender};
use zipper_pfs::Storage;
use zipper_policy::Channel;
use zipper_types::{Block, BlockId, Rank, Result, RuntimeError};

/// One recorded interval. `parent` names the span that caused it (`None`
/// for a root); `trace` is the [`BlockId`] the work belongs to, when it
/// belongs to one block.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub trace: Option<u64>,
    /// Payload bytes the spanned call handled (0 when not applicable).
    pub bytes: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Inner {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// A cheap-clone handle to the run's span store; inert when off, so the
/// untraced path costs one branch per call site.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<Inner>>);

/// A span that has started and not yet ended.
#[derive(Clone, Copy)]
pub struct Open {
    pub id: Option<u32>,
    start: Option<Instant>,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer(None)
    }

    pub fn on() -> Self {
        Tracer(Some(Arc::new(Inner {
            origin: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        })))
    }

    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    pub fn open(&self) -> Open {
        match &self.0 {
            None => Open {
                id: None,
                start: None,
            },
            Some(inner) => Open {
                id: Some(inner.next_id.fetch_add(1, Ordering::Relaxed)),
                start: Some(Instant::now()),
            },
        }
    }

    pub fn close(
        &self,
        open: Open,
        name: &'static str,
        parent: Option<u32>,
        trace: Option<u64>,
        bytes: u64,
    ) {
        let (Some(inner), Some(id), Some(start)) = (&self.0, open.id, open.start) else {
            return;
        };
        let end = Instant::now();
        let ns = |t: Instant| t.saturating_duration_since(inner.origin).as_nanos() as u64;
        inner.spans.lock().expect("span store poisoned").push(Span {
            id,
            parent,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            trace,
            bytes,
        });
    }

    /// Run `f` inside a span; `f` receives the span's id so nested calls
    /// can name it as their parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u32>,
        trace: Option<u64>,
        bytes: u64,
        f: impl FnOnce(Option<u32>) -> T,
    ) -> T {
        let open = self.open();
        let out = f(open.id);
        self.close(open, name, parent, trace, bytes);
        out
    }

    /// Every span recorded so far, by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = match &self.0 {
            None => Vec::new(),
            Some(inner) => inner.spans.lock().expect("span store poisoned").clone(),
        };
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Totals of one span name within a set of spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Span time not covered by the span's own children.
    pub self_ns: u64,
    pub bytes: u64,
}

/// Per-name totals of every span that descends from `root` (the root
/// included). A span's self time is its duration minus the part of its
/// interval covered by the union of its children.
pub fn totals_under(spans: &[Span], root: u32) -> HashMap<&'static str, NameTotals> {
    let mut children: HashMap<u32, Vec<&Span>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let mut out: HashMap<&'static str, NameTotals> = HashMap::new();
    let mut stack: Vec<&Span> = spans.iter().filter(|s| s.id == root).collect();
    while let Some(s) = stack.pop() {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns() - covered_ns(s, kids);
        t.bytes += s.bytes;
        stack.extend(kids.iter().copied());
    }
    out
}

/// Length of the union of `kids`' intervals, clipped to `parent`'s.
fn covered_ns(parent: &Span, kids: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = kids
        .iter()
        .map(|k| {
            (
                k.start_ns.clamp(parent.start_ns, parent.end_ns),
                k.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let (mut covered, mut cur) = (0u64, None::<(u64, u64)>);
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    covered + cur.map_or(0, |(a, b)| b - a)
}

/// All spans as JSON lines: `id`, `parent`, `name`, `start_ns`, `end_ns`,
/// `trace` (the block id as `src/step/idx`, or null) and `bytes`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 112);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let trace = s.trace.map_or("null".to_string(), |t| {
            let b = BlockId::from_u64(t);
            format!("\"{}/{}/{}\"", b.src.0, b.step.0, b.idx)
        });
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"trace\":{trace},\"bytes\":{}}}",
            s.id, s.name, s.start_ns, s.end_ns, s.bytes
        );
    }
    out
}

/// A [`WireSender`] that records a `zipper-core.tcp.send` span around every
/// data wire the runtime ships through the inner sender.
pub struct TimingSender<S> {
    inner: S,
    tracer: Tracer,
    parent: Option<u32>,
}

impl<S: WireSender> TimingSender<S> {
    pub fn new(inner: S, tracer: Tracer, parent: Option<u32>) -> Self {
        TimingSender {
            inner,
            tracer,
            parent,
        }
    }
}

impl<S: WireSender> WireSender for TimingSender<S> {
    fn send(&self, to: Rank, wire: Wire) -> Result<()> {
        let (trace, bytes) = match &wire {
            Wire::Msg(m) => (
                m.data.as_ref().map(|b| b.id().as_u64()),
                m.data.as_ref().map_or(0, |b| b.payload.len() as u64),
            ),
            Wire::Eos(..) => (None, 0),
        };
        self.tracer
            .span("zipper-core.tcp.send", self.parent, trace, bytes, |_| {
                self.inner.send(to, wire)
            })
    }

    fn consumers(&self) -> usize {
        self.inner.consumers()
    }

    fn send_fault(&self, to: Rank, fault: RuntimeError) -> Result<()> {
        self.inner.send_fault(to, fault)
    }

    fn send_eos(&self, rank: Rank, channel: Channel, targets: &[Rank]) -> Result<()> {
        self.tracer
            .span("zipper-core.tcp.send", self.parent, None, 0, |_| {
                self.inner.send_eos(rank, channel, targets)
            })
    }
}

/// A [`Storage`] that records `zipper-pfs.put` / `zipper-pfs.get` spans
/// around every call the runtime makes into the inner store.
pub struct TimingStorage<S> {
    inner: S,
    tracer: Tracer,
    parent: Option<u32>,
}

impl<S: Storage> TimingStorage<S> {
    pub fn new(inner: S, tracer: Tracer, parent: Option<u32>) -> Self {
        TimingStorage {
            inner,
            tracer,
            parent,
        }
    }
}

impl<S: Storage> Storage for TimingStorage<S> {
    fn put(&self, block: &Block) -> Result<()> {
        let (id, len) = (block.id().as_u64(), block.payload.len() as u64);
        self.tracer
            .span("zipper-pfs.put", self.parent, Some(id), len, |_| {
                self.inner.put(block)
            })
    }

    fn get(&self, id: BlockId) -> Result<Block> {
        let open = self.tracer.open();
        let out = self.inner.get(id);
        let len = out.as_ref().map_or(0, |b| b.payload.len() as u64);
        self.tracer
            .close(open, "zipper-pfs.get", self.parent, Some(id.as_u64()), len);
        out
    }

    fn contains(&self, id: BlockId) -> bool {
        self.inner.contains(id)
    }

    fn delete(&self, id: BlockId) -> Result<()> {
        self.inner.delete(id)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn retries(&self) -> u64 {
        self.inner.retries()
    }
}

/// Order-sensitive 64-bit checksum of a payload (FNV-1a over 8-byte words,
/// then the tail bytes): cheap next to the analysis, and any changed,
/// missing or reordered word changes it.
pub fn checksum(payload: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut words = payload.chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
            .wrapping_mul(0x0100_0000_01b3);
    }
    for &b in words.remainder() {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h ^ payload.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: if parent.is_none() { "root" } else { "child" },
            start_ns,
            end_ns,
            trace: None,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root [0, 100); children [10, 30), [20, 50) overlap, [90, 120)
        // runs past the root's end and is clipped to [90, 100).
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50),
            span(3, Some(0), 90, 120),
        ];
        let t = totals_under(&spans, 0);
        assert_eq!(t["root"].self_ns, 100 - 40 - 10);
        assert_eq!(t["child"].count, 3);
        assert_eq!(t["child"].total_ns, 20 + 30 + 30);
        assert_eq!(t["child"].self_ns, 80);
    }

    #[test]
    fn checksum_sees_order_and_length() {
        let a: Vec<u8> = (1..=16).collect();
        let mut swapped = a.clone();
        swapped.swap(0, 8);
        assert_ne!(checksum(&a), checksum(&swapped));
        assert_ne!(checksum(&a), checksum(&a[..15]));
    }
}
