//! `ckpt_ladder`: 4-rank Test-class CG under the five schemes. Per scheme:
//! golden run, snapshot leg (stop at epoch 1), IBCK encode and decode,
//! resume, kill-and-replace, and a chaos soak resumed into a lossy fabric.
//! The time goes to the `mpib`/`ibfabric` state capture and restore, not
//! to traffic. The workload seed drives the chaos leg's fault plan, so
//! only that leg's counters may differ between seeds.

use crate::counters::{fnv, fnv_u64, fnv_words, Counters, FNV_OFFSET};
use crate::trace::{instrument, Leg, Recorder, SpanKind, WorldMeta};
use crate::SCHEMES;
use ibfabric::{FabricParams, FaultPlan};
use ibsim::SimDuration;
use mpib::{
    CkptRun, FlowControlScheme, MpiConfig, MpiRunOutput, MpiWorld, RestoreOptions, Snapshot,
};
use nasbench::{cg, KernelOutput, NasClass};
use std::rc::Rc;

const NPROCS: usize = 4;
const PREPOST: u32 = 4;
const SNAP_EPOCH: u64 = 1;

/// Everything byte identity covers, in one digest: virtual end time,
/// event count, per-rank kernel outputs, and every per-rank and fabric
/// statistic (the ledger snapshots included).
fn run_digest(out: &MpiRunOutput<KernelOutput>) -> u64 {
    let mut h = fnv_u64(fnv_u64(FNV_OFFSET, out.end_time.as_nanos()), out.events);
    for r in &out.results {
        h = fnv_u64(h, r.checksum.to_bits());
        h = fnv_u64(h, r.time.as_nanos());
        h = fnv_u64(h, u64::from(r.verified));
    }
    h = fnv(h, format!("{:?}", out.stats.ranks).as_bytes());
    fnv(h, format!("{:?}", out.fabric.stats).as_bytes())
}

/// Runs one ckpt-aware CG world: fresh when `snap` is `None`, restored
/// from it otherwise.
fn leg(
    rec: &mut Recorder,
    scheme: FlowControlScheme,
    which: Leg,
    cfg: MpiConfig,
    snap: Option<(&Snapshot, RestoreOptions)>,
) -> Option<(u32, CkptRun<KernelOutput>)> {
    let label = format!("ckpt/{}/{which:?}", scheme.label()).to_ascii_lowercase();
    let mut meta = WorldMeta::new(label, scheme);
    meta.leg = which;
    rec.world(meta, |probe| {
        let probe = Rc::clone(probe);
        let body = async move |mpi: &mut mpib::MpiRank, start: mpib::CkptStart| {
            let rank = mpi.rank();
            instrument(&probe, rank, cg::run_with_ckpt(mpi, NasClass::Test, start)).await
        };
        let params = FabricParams::mt23108();
        match snap {
            None => {
                let stop = (which == Leg::Snapshot).then_some(SNAP_EPOCH);
                MpiWorld::run_with_checkpoints(NPROCS, cfg, params, Default::default(), stop, body)
            }
            Some((s, opts)) => MpiWorld::restore(s, cfg, params, Default::default(), opts, body),
        }
    })
}

/// A leg that must run to completion.
fn completed(
    rec: &mut Recorder,
    run: Option<(u32, CkptRun<KernelOutput>)>,
) -> Option<(u32, MpiRunOutput<KernelOutput>)> {
    match run? {
        (id, CkptRun::Completed(out)) => Some((id, *out)),
        (id, CkptRun::Snapshot(s)) => {
            rec.fail(
                id,
                format!("stopped at epoch {} instead of completing", s.epoch),
            );
            None
        }
    }
}

/// One pass: the whole ladder for every scheme.
pub fn pass(rec: &mut Recorder, seed: u64) {
    for scheme in SCHEMES {
        ladder(rec, seed, scheme);
    }
}

fn ladder(rec: &mut Recorder, seed: u64, scheme: FlowControlScheme) {
    let cfg = || MpiConfig::scheme(scheme, PREPOST);

    let run = leg(rec, scheme, Leg::Golden, cfg(), None);
    let Some((gid, golden)) = completed(rec, run) else {
        return;
    };
    if !golden.results.iter().all(|r| r.verified) {
        rec.fail(gid, "golden CG failed verification".to_string());
    }
    let golden_digest = run_digest(&golden);
    let checksum = golden.results[0].checksum.to_bits();
    rec.finish(gid, &golden, golden_digest);

    let (sid, snap) = match leg(rec, scheme, Leg::Snapshot, cfg(), None) {
        Some((id, CkptRun::Snapshot(s))) => (id, s),
        Some((id, CkptRun::Completed(_))) => {
            rec.fail(id, format!("completed before epoch {SNAP_EPOCH}"));
            return;
        }
        None => return,
    };
    let bytes = rec.time(sid, SpanKind::Encode, || snap.to_bytes());
    let decoded = rec.time(sid, SpanKind::Decode, || Snapshot::from_bytes(&bytes));
    let snap = match decoded {
        Ok(s) => s,
        Err(e) => {
            rec.fail(sid, format!("snapshot bytes did not round-trip: {e}"));
            return;
        }
    };
    if scheme == FlowControlScheme::UserDynamic {
        rec.sim("snap_mb", bytes.len() as f64 / 1e6);
    }
    // The snapshot leg has no completed output; its counters are the
    // image itself.
    let image = fnv_words(FNV_OFFSET, &bytes);
    rec.worlds[sid as usize].counters = Some(Counters {
        fields: vec![
            ("results", image),
            ("mpib.ckpt.snapshot_bytes", bytes.len() as u64),
            ("mpib.conns", (NPROCS * (NPROCS - 1)) as u64),
        ],
    });

    let replay = [
        (Leg::Resume, RestoreOptions::default()),
        (
            Leg::Replace,
            RestoreOptions {
                replace: Some(NPROCS - 1),
                snapshot_epoch: None,
            },
        ),
    ];
    for (which, opts) in replay {
        let run = leg(rec, scheme, which, cfg(), Some((&snap, opts)));
        let Some((id, out)) = completed(rec, run) else {
            continue;
        };
        let digest = run_digest(&out);
        if digest != golden_digest {
            rec.fail(id, "drifted from the golden run".to_string());
        }
        if which == Leg::Replace && out.stats.rejoined_ranks != 1 {
            rec.fail(
                id,
                format!("{} ranks rejoined, expected 1", out.stats.rejoined_ranks),
            );
        }
        rec.finish(id, &out, digest);
    }

    let chaos_cfg = MpiConfig {
        fault_plan: Some(
            FaultPlan::new(seed)
                .with_drop(0.008)
                .with_corrupt(0.004)
                .with_ack_delay(0.01, SimDuration::micros(40)),
        ),
        ..cfg()
    };
    let run = leg(
        rec,
        scheme,
        Leg::Chaos,
        chaos_cfg,
        Some((&snap, RestoreOptions::default())),
    );
    let Some((id, chaos)) = completed(rec, run) else {
        return;
    };
    if !chaos
        .results
        .iter()
        .all(|r| r.verified && r.checksum.to_bits() == checksum)
    {
        rec.fail(id, "chaos soak lost the golden checksum".to_string());
    }
    if chaos.stats.total_faults() != 0 {
        rec.fail(id, "infinite retry budgets let a fault through".to_string());
    }
    rec.finish(id, &chaos, run_digest(&chaos));
}
