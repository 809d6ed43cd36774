//! `eager_stream`: 2 ranks, all five schemes, 4-byte payloads.
//!
//! Each scheme runs a ping-pong at pre-post 100 (Fig 2's point) and a long
//! non-blocking stream of windows of 100 at pre-post 10 (Fig 6's stress
//! point). Pre-post below the window is where the schemes diverge: static
//! starves, dynamic grows, and the RDMA channel hits its ring cliff. The
//! payloads are tiny, so `mpib` progress and credits, per-packet
//! `ibfabric` work and `ibsim` dispatch carry the time; host copies, NAS
//! arithmetic and setup carry almost none. Closed loop: the sender waits
//! for each window's reply before the next window.

use crate::counters::{fnv_u64, FNV_OFFSET};
use crate::trace::{instrument, Recorder, WorldMeta};
use crate::SCHEMES;
use ibfabric::FabricParams;
use ibsim::rng::{det_rng, DetRng};
use mpib::{FlowControlScheme, MpiConfig, MpiRank, MpiWorld};

const MSG: usize = 4;
const PING_PREPOST: u32 = 100;
const PING_WARMUP: u32 = 4;
const PING_ITERS: u32 = 400;
const WINDOW: u32 = 100;
const STREAM_PREPOST: u32 = 10;
const STREAM_WARMUP: u32 = 4;
const STREAM_WINDOWS: u32 = 200;

/// What one rank saw: virtual nanoseconds over the measured iterations
/// (rank 0), messages and bytes received, and payloads that differed
/// from what the seeded generator says was sent.
#[derive(Clone, Copy, Debug, Default)]
struct Seen {
    measured_ns: u64,
    msgs: u64,
    bytes: u64,
    bad: u64,
}

impl Seen {
    fn check(&mut self, got: &[u8], want: [u8; MSG]) {
        self.msgs += 1;
        self.bytes += got.len() as u64;
        if got != want {
            self.bad += 1;
        }
    }
}

fn word(rng: &mut DetRng) -> [u8; MSG] {
    (rng.gen_u64() as u32).to_le_bytes()
}

/// One pass: every scheme's ping-pong and stream.
pub fn pass(rec: &mut Recorder, seed: u64) {
    for scheme in SCHEMES {
        ping_pong(rec, seed, scheme);
        stream(rec, seed, scheme);
    }
}

fn run_two(
    rec: &mut Recorder,
    label: String,
    scheme: FlowControlScheme,
    prepost: u32,
    body: impl AsyncFn(&mut MpiRank) -> Seen + 'static,
) -> Option<(u32, [Seen; 2])> {
    let meta = WorldMeta::new(label, scheme);
    let (id, out) = rec.world(meta, |probe| {
        let probe = probe.clone();
        MpiWorld::run(
            2,
            MpiConfig::scheme(scheme, prepost),
            FabricParams::mt23108(),
            async move |mpi| {
                let rank = mpi.rank();
                instrument(&probe, rank, body(mpi)).await
            },
        )
    })?;
    let seen = [out.results[0], out.results[1]];
    let digest = seen.iter().fold(FNV_OFFSET, |h, s| {
        [s.measured_ns, s.msgs, s.bytes, s.bad]
            .into_iter()
            .fold(h, fnv_u64)
    });
    rec.finish(id, &out, digest);
    Some((id, seen))
}

fn ping_pong(rec: &mut Recorder, seed: u64, scheme: FlowControlScheme) {
    let label = format!("pingpong/{}", scheme.label());
    let Some((id, seen)) = run_two(rec, label, scheme, PING_PREPOST, async move |mpi| {
        let me = mpi.rank();
        let peer = 1 - me;
        let (mut ping, mut pong) = (det_rng(seed, 1), det_rng(seed, 2));
        let mut buf = [0u8; MSG];
        let mut seen = Seen::default();
        for it in 0..PING_WARMUP + PING_ITERS {
            let t0 = mpi.now();
            let (a, b) = (word(&mut ping), word(&mut pong));
            if me == 0 {
                mpi.send(&a, peer, 1).await;
                let st = mpi.recv_into(&mut buf, Some(peer), Some(1)).await;
                seen.check(&buf[..st.len], b);
            } else {
                let st = mpi.recv_into(&mut buf, Some(peer), Some(1)).await;
                seen.check(&buf[..st.len], a);
                mpi.send(&b, peer, 1).await;
            }
            if it >= PING_WARMUP {
                seen.measured_ns += mpi.now().since(t0).as_nanos();
            }
        }
        seen
    }) else {
        return;
    };
    let msgs = u64::from(PING_WARMUP + PING_ITERS);
    expect_delivery(rec, id, &seen, [msgs, msgs]);
    if scheme == FlowControlScheme::UserDynamic {
        // One-way latency: round trip / 2, averaged (rank 0's clock).
        let us = seen[0].measured_ns as f64 / (2.0 * f64::from(PING_ITERS)) / 1e3;
        rec.sim("sim_lat_us", us);
    }
}

fn stream(rec: &mut Recorder, seed: u64, scheme: FlowControlScheme) {
    let label = format!("stream/{}", scheme.label());
    let Some((id, seen)) = run_two(rec, label, scheme, STREAM_PREPOST, async move |mpi| {
        let me = mpi.rank();
        let peer = 1 - me;
        let (mut data, mut acks) = (det_rng(seed, 3), det_rng(seed, 4));
        let mut seen = Seen::default();
        for it in 0..STREAM_WARMUP + STREAM_WINDOWS {
            let t0 = mpi.now();
            let ack = word(&mut acks);
            if me == 0 {
                let reqs: Vec<_> = (0..WINDOW)
                    .map(|_| mpi.isend(&word(&mut data), peer, 2))
                    .collect();
                mpi.waitall(&reqs).await;
                let (_, reply) = mpi.recv(Some(peer), Some(3)).await;
                seen.check(&reply, ack);
            } else {
                let reqs: Vec<_> = (0..WINDOW)
                    .map(|_| mpi.irecv(Some(peer), Some(2)))
                    .collect();
                for req in reqs {
                    let (_, got) = mpi.wait_recv(req).await;
                    seen.check(&got, word(&mut data));
                }
                mpi.send(&ack, peer, 3).await;
            }
            if it >= STREAM_WARMUP {
                seen.measured_ns += mpi.now().since(t0).as_nanos();
            }
        }
        seen
    }) else {
        return;
    };
    let windows = u64::from(STREAM_WARMUP + STREAM_WINDOWS);
    expect_delivery(rec, id, &seen, [windows, windows * u64::from(WINDOW)]);
    let bytes = f64::from(STREAM_WINDOWS * WINDOW) * MSG as f64;
    let mbps = bytes / (seen[0].measured_ns as f64 / 1e9) / 1e6;
    rec.sim(format!("mpib.{}.sim_bw_mbps", scheme.label()), mbps);
    if scheme == FlowControlScheme::UserDynamic {
        rec.sim("sim_bw_mbps", mbps);
    }
}

/// Every rank received exactly `msgs[rank]` messages of `MSG` bytes, each
/// equal to what was sent.
fn expect_delivery(rec: &mut Recorder, id: u32, seen: &[Seen; 2], msgs: [u64; 2]) {
    for (rank, (s, want)) in seen.iter().zip(msgs).enumerate() {
        if s.msgs != want || s.bytes != want * MSG as u64 || s.bad != 0 {
            rec.fail(
                id,
                format!(
                    "rank {rank} received {} messages / {} bytes ({} wrong), expected {want} / {}",
                    s.msgs,
                    s.bytes,
                    s.bad,
                    want * MSG as u64
                ),
            );
        }
    }
}
