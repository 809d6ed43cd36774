//! Outside-in measurement of one pass: every world the workload runs goes
//! through [`Recorder::world`], which times the public entry point
//! (`MpiWorld::run`, `run_with_checkpoints`, `restore`) and, when traced,
//! wraps each rank body in a future that times every poll.
//!
//! Per world the spans are: `world` (the whole call), `setup` (call to the
//! first rank-body poll: fabric, QP and MR bootstrap, connect, pre-post),
//! one `rank_poll` per rank (the body's own code: MPI calls plus app
//! arithmetic, summed over its polls), `sched` (time inside the run
//! between the first poll and the last rank-body poll that no body poll
//! covers: `ibsim` dispatch plus `ibfabric` event handlers, and the
//! `MPI_Finalize` drain of ranks that finished early) and `teardown` (last
//! rank-body poll to the call's return). Checkpoint legs that are not
//! worlds (`encode`, `decode`) carry the id of the world whose snapshot
//! they handle. Untraced passes keep only `world` and `setup`.

use crate::counters::Counters;
use mpib::{FlowControlScheme, MpiRunError, MpiRunOutput};
use nasbench::Kernel;
use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::future::{poll_fn, Future};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::pin;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Host-time record of one rank's body within one world.
#[derive(Clone, Copy, Debug, Default)]
struct RankTime {
    busy: Duration,
    polls: u64,
    last_end: Option<Instant>,
}

/// Shared between a world's call site and its rank bodies.
#[derive(Debug)]
pub struct WorldProbe {
    traced: bool,
    first_poll: Cell<Option<Instant>>,
    ranks: RefCell<Vec<RankTime>>,
}

impl WorldProbe {
    fn mark_first_poll(&self, at: impl FnOnce() -> Instant) {
        if self.first_poll.get().is_none() {
            self.first_poll.set(Some(at()));
        }
    }
}

/// Runs one rank's body under `probe`. Untraced, it only notes the
/// world's first rank-body poll (one clock read per world); traced, it
/// times every poll of `body` and sums them per rank.
pub async fn instrument<R>(probe: &WorldProbe, rank: usize, body: impl Future<Output = R>) -> R {
    if !probe.traced {
        probe.mark_first_poll(Instant::now);
        return body.await;
    }
    let mut body = pin!(body);
    poll_fn(|cx| {
        let t0 = Instant::now();
        probe.mark_first_poll(|| t0);
        let out = body.as_mut().poll(cx);
        let t1 = Instant::now();
        let mut ranks = probe.ranks.borrow_mut();
        if ranks.len() <= rank {
            ranks.resize(rank + 1, RankTime::default());
        }
        let r = &mut ranks[rank];
        r.busy += t1 - t0;
        r.polls += 1;
        r.last_end = Some(t1);
        out
    })
    .await
}

/// What a span measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    World,
    Setup,
    RankPoll,
    Sched,
    Teardown,
    Encode,
    Decode,
}

impl SpanKind {
    fn name(self) -> &'static str {
        match self {
            SpanKind::World => "world",
            SpanKind::Setup => "setup",
            SpanKind::RankPoll => "rank_poll",
            SpanKind::Sched => "sched",
            SpanKind::Teardown => "teardown",
            SpanKind::Encode => "encode",
            SpanKind::Decode => "decode",
        }
    }
}

/// One aggregated span. Rank polls are summed per (world, rank), never
/// kept per poll.
#[derive(Clone, Debug)]
pub struct Span {
    pub world: u32,
    pub kind: SpanKind,
    pub rank: Option<u32>,
    pub secs: f64,
    /// Polls summed into a `rank_poll` span; 0 elsewhere.
    pub polls: u64,
}

/// Which checkpoint leg a world is; `Plain` outside the ckpt ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Leg {
    Plain,
    Golden,
    Snapshot,
    Resume,
    Replace,
    Chaos,
}

/// What the workload says about a world before running it.
#[derive(Clone, Debug)]
pub struct WorldMeta {
    /// Unique within a pass; the key the determinism check compares by.
    pub label: String,
    pub scheme: FlowControlScheme,
    pub kernel: Option<Kernel>,
    pub leg: Leg,
}

impl WorldMeta {
    pub fn new(label: String, scheme: FlowControlScheme) -> WorldMeta {
        WorldMeta {
            label,
            scheme,
            kernel: None,
            leg: Leg::Plain,
        }
    }

    /// Whether this world's exact counters depend on the workload seed
    /// (the ckpt chaos leg's fault plan); all others must agree across
    /// seeds.
    pub fn seeded(&self) -> bool {
        self.leg == Leg::Chaos
    }
}

/// A world of this pass: its metadata and, once it ran, its counters.
#[derive(Clone, Debug)]
pub struct WorldRecord {
    pub id: u32,
    pub meta: WorldMeta,
    pub counters: Option<Counters>,
}

/// Everything one pass measured.
#[derive(Debug)]
pub struct Recorder {
    traced: bool,
    pub worlds: Vec<WorldRecord>,
    pub spans: Vec<Span>,
    /// Worlds that failed, with the reason.
    pub failures: Vec<(u32, String)>,
    /// Virtual-time results (deterministic; compared across passes).
    pub sim: Vec<(String, f64)>,
}

impl Recorder {
    pub fn new(traced: bool) -> Recorder {
        Recorder {
            traced,
            worlds: Vec::new(),
            spans: Vec::new(),
            failures: Vec::new(),
            sim: Vec::new(),
        }
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Runs one world through `call` and records its spans. Returns the
    /// world id and the call's value, or `None` after recording the
    /// error or panic as this world's failure.
    pub fn world<T>(
        &mut self,
        meta: WorldMeta,
        call: impl FnOnce(&Rc<WorldProbe>) -> Result<T, MpiRunError>,
    ) -> Option<(u32, T)> {
        let id = self.worlds.len() as u32;
        self.worlds.push(WorldRecord {
            id,
            meta,
            counters: None,
        });
        let probe = Rc::new(WorldProbe {
            traced: self.traced,
            first_poll: Cell::new(None),
            ranks: RefCell::new(Vec::new()),
        });
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| call(&probe)));
        let t1 = Instant::now();

        let first = probe.first_poll.get().unwrap_or(t1);
        self.span(id, SpanKind::World, (t1 - t0).as_secs_f64());
        self.span(id, SpanKind::Setup, (first - t0).as_secs_f64());
        if self.traced {
            let ranks = probe.ranks.take();
            let last = ranks
                .iter()
                .filter_map(|r| r.last_end)
                .max()
                .unwrap_or(first);
            let busy: Duration = ranks.iter().map(|r| r.busy).sum();
            for (rank, r) in ranks.iter().enumerate() {
                self.spans.push(Span {
                    world: id,
                    kind: SpanKind::RankPoll,
                    rank: Some(rank as u32),
                    secs: r.busy.as_secs_f64(),
                    polls: r.polls,
                });
            }
            let sched = (last - first).saturating_sub(busy);
            self.span(id, SpanKind::Sched, sched.as_secs_f64());
            self.span(id, SpanKind::Teardown, (t1 - last).as_secs_f64());
        }

        match out {
            Ok(Ok(v)) => Some((id, v)),
            Ok(Err(e)) => {
                self.fail(id, format!("run failed: {e}"));
                None
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic payload");
                self.fail(id, format!("panicked: {msg}"));
                None
            }
        }
    }

    /// Records the checks every completed world must pass and its exact
    /// counters: `results` is a digest of the application's outputs.
    pub fn finish<R>(&mut self, id: u32, out: &MpiRunOutput<R>, results: u64) {
        if !out.stats.all_ledgers_conserved() {
            self.fail(id, "a credit ledger leaked".to_string());
        }
        self.worlds[id as usize].counters = Some(Counters::of(out, results));
    }

    /// Times `f` as a span of kind `kind` belonging to world `id`.
    pub fn time<T>(&mut self, id: u32, kind: SpanKind, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let v = f();
        self.span(id, kind, t0.elapsed().as_secs_f64());
        v
    }

    fn span(&mut self, world: u32, kind: SpanKind, secs: f64) {
        self.spans.push(Span {
            world,
            kind,
            rank: None,
            secs,
            polls: 0,
        });
    }

    pub fn fail(&mut self, id: u32, why: String) {
        let label = &self.worlds[id as usize].meta.label;
        self.failures.push((id, format!("{label}: {why}")));
    }

    /// Records a virtual-time result.
    pub fn sim(&mut self, name: impl Into<String>, value: f64) {
        self.sim.push((name.into(), value));
    }

    /// Distinct failed worlds.
    pub fn failed_worlds(&self) -> usize {
        self.failures
            .iter()
            .map(|(id, _)| *id)
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Total seconds of spans of `kind` over worlds matching `pick`.
    pub fn total(&self, kind: SpanKind, pick: impl Fn(&WorldMeta) -> bool) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.kind == kind && pick(&self.worlds[s.world as usize].meta))
            .fold(0.0, |acc, s| acc + s.secs)
    }

    /// Rank-body polls in this pass (traced passes only).
    pub fn polls(&self) -> u64 {
        self.spans.iter().map(|s| s.polls).sum()
    }

    /// The pass's spans as JSON lines, tagged with `pass`.
    pub fn spans_jsonl(&self, pass: usize) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let rank = s.rank.map_or("null".to_string(), |r| r.to_string());
            out.push_str(&format!(
                "{{\"pass\": {pass}, \"world\": {}, \"label\": \"{}\", \"span\": \"{}\", \
                 \"rank\": {rank}, \"secs\": {}, \"polls\": {}}}\n",
                s.world,
                self.worlds[s.world as usize].meta.label,
                s.kind.name(),
                s.secs,
                s.polls
            ));
        }
        out
    }
}
