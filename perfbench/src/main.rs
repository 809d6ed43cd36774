//! The repository benchmark: one process, one thread, worlds run one after
//! another on the calling thread.
//!
//! ```text
//! perfbench --workload <eager_stream|nas_w|ckpt_ladder> --seed <n> --seconds <s> --trace <0|1>
//!           [--trace-out <file>]
//! ```
//!
//! `BENCHMARK.json` lists `nas_w` and `ckpt_ladder`; `eager_stream` stays
//! runnable by name (see NOTES.md for why it is not listed).
//!
//! A run makes one warm-up pass with a second seed derived from `--seed`,
//! then repeats passes of the workload with `--seed` until `--seconds` is
//! spent. Every pass must reproduce the first pass's exact counters and
//! virtual-time results, and the warm-up must match them on everything
//! the seed does not drive; a mismatch fails the world it shows in.
//!
//! `--trace 0` prints the end-to-end metrics (`wall_s`, `setup_s`,
//! `peak_rss_mb`). `--trace 1` alternates untraced and traced passes and
//! prints the per-layer metrics, with both walls as the tracing overhead;
//! `--trace-out` writes the traced run's spans as JSON lines. The last
//! line of standard output is the JSON result either way.

mod ckpt;
mod counters;
mod eager;
mod metrics;
mod nas;
mod stats;
mod trace;

use counters::Counters;
use metrics::{layer_metric, result_json, Metric};
use mpib::FlowControlScheme;
use nasbench::Kernel;
use stats::{median, quartiles, ratio, tail};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::{Leg, Recorder, SpanKind};

/// The five flow control schemes every workload runs.
pub const SCHEMES: [FlowControlScheme; 5] = [
    FlowControlScheme::Hardware,
    FlowControlScheme::UserStatic,
    FlowControlScheme::UserDynamic,
    FlowControlScheme::RdmaChannel,
    FlowControlScheme::RdmaChannelDyn,
];

/// Virtual-time results: deterministic, so they are per-layer metrics
/// checked by the determinism self-check rather than bounded end-to-end
/// timings. Units say the time is simulated. `eager_stream`'s own results
/// (`sim_lat_us`, `sim_bw_mbps`, `mpib.<scheme>.sim_bw_mbps`) are on its
/// summary lines only, because no workload `BENCHMARK.json` lists produces
/// them.
const SIM_METRICS: [(&str, &str); 2] = [("sim_nas_ms", "sim_ms"), ("snap_mb", "MB")];

/// Exact counters reported as per-layer metrics, with their units.
const COUNTER_METRICS: [&str; 19] = [
    "ibsim.events",
    "ibfabric.msgs_delivered",
    "ibfabric.bytes_delivered",
    "ibfabric.cqes",
    "ibfabric.rnr_naks",
    "ibfabric.retransmissions",
    "ibfabric.msgs_dropped",
    "ibfabric.msgs_corrupted",
    "mpib.msgs_sent",
    "mpib.eager_sent",
    "mpib.ring_sent",
    "mpib.rndz_sent",
    "mpib.ecm_sent",
    "mpib.backlogged",
    "mpib.max_posted",
    "mpib.growth_events",
    "mpib.ring_growth_events",
    "mpib.msgs_received",
    "mpib.unexpected_msgs",
];

/// Passes a run makes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    EagerStream,
    NasW,
    CkptLadder,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::EagerStream, Workload::NasW, Workload::CkptLadder];

    fn name(self) -> &'static str {
        match self {
            Workload::EagerStream => "eager_stream",
            Workload::NasW => "nas_w",
            Workload::CkptLadder => "ckpt_ladder",
        }
    }

    fn pass(self, rec: &mut Recorder, seed: u64) {
        match self {
            Workload::EagerStream => eager::pass(rec, seed),
            Workload::NasW => nas::pass(rec),
            Workload::CkptLadder => ckpt::pass(rec, seed),
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds {s} outside (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        trace_out,
    })
}

/// One pass of a workload and its host wall time.
struct Pass {
    seed: u64,
    wall: f64,
    rec: Recorder,
}

fn run_pass(workload: Workload, seed: u64, traced: bool) -> Pass {
    let mut rec = Recorder::new(traced);
    let t0 = Instant::now();
    workload.pass(&mut rec, seed);
    Pass {
        seed,
        wall: t0.elapsed().as_secs_f64(),
        rec,
    }
}

/// Fails every world of `pass` whose counters differ from the same world
/// in `reference`, and reports virtual-time results that differ. Worlds
/// whose counters the seed drives are compared only when `seeded`.
fn check_same(reference: &Recorder, pass: &mut Recorder, seeded: bool, what: &str) -> Vec<String> {
    let want: BTreeMap<&str, &Counters> = reference
        .worlds
        .iter()
        .filter_map(|w| Some((w.meta.label.as_str(), w.counters.as_ref()?)))
        .collect();
    let mut diffs = Vec::new();
    for w in &pass.worlds {
        if w.meta.seeded() && !seeded {
            continue;
        }
        if let (Some(got), Some(want)) = (&w.counters, want.get(w.meta.label.as_str())) {
            if let Some((name, a)) = got
                .fields
                .iter()
                .zip(&want.fields)
                .find_map(|(g, r)| (g != r).then(|| (g.0, format!("{} vs {}", g.1, r.1))))
            {
                diffs.push((w.id, format!("{name} differs from the {what}: {a}")));
            }
        }
    }
    for (id, why) in diffs {
        pass.fail(id, why);
    }
    let mut sim_diffs = Vec::new();
    for ((name, a), (_, b)) in pass.sim.iter().zip(&reference.sim) {
        if a.to_bits() != b.to_bits() {
            sim_diffs.push(format!("{name} differs from the {what}: {a} vs {b}"));
        }
    }
    sim_diffs
}

/// `VmHWM` of this process in MB (10^6 bytes); `None` where the kernel
/// does not report it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse::<f64>()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Host nanoseconds per event of an engine-only chain through the public
/// `Sim` API: each closure event schedules the next, with no process and
/// no fabric. Median of five chains.
fn dispatch_floor_ns() -> f64 {
    use ibsim::{Ctx, Sim, SimConfig, SimDuration, SimTime};
    const EVENTS: u64 = 200_000;
    fn tick(c: &mut Ctx<'_, u64>) {
        *c.world += 1;
        if *c.world < EVENTS {
            c.schedule_after(SimDuration::nanos(1), tick);
        }
    }
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let mut sim: Sim<u64> = Sim::new(0, SimConfig::default());
            sim.with_world(|ctx| ctx.schedule_at(SimTime::ZERO, tick));
            let t0 = Instant::now();
            let events = sim.run().map_or(0, |r| r.events_processed);
            t0.elapsed().as_nanos() as f64 / events.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// The end-to-end metrics of the untraced passes.
fn end_to_end(untraced: &[&Pass], peak_rss_mb: f64) -> Vec<Metric> {
    let walls: Vec<f64> = untraced.iter().map(|p| p.wall).collect();
    vec![
        Metric::new("wall_s", "s", median(&walls)),
        Metric::new("setup_s", "s", median(&setups(untraced))),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb),
    ]
}

/// Host seconds each pass spent from world calls to first rank polls.
fn setups(passes: &[&Pass]) -> Vec<f64> {
    passes
        .iter()
        .map(|p| p.rec.total(SpanKind::Setup, |_| true))
        .collect()
}

/// The per-layer metrics of the traced passes; `floor_ns` is the
/// engine-only dispatch cost per event.
fn layer_metrics(
    traced: &[&Pass],
    untraced_wall: f64,
    traced_wall: f64,
    floor_ns: f64,
) -> Vec<Metric> {
    let med = |f: &dyn Fn(&Recorder) -> f64| {
        median(&traced.iter().map(|p| f(&p.rec)).collect::<Vec<_>>())
    };
    let all = |_: &trace::WorldMeta| true;
    let first = &traced[0].rec;
    let c = Counters::total(first.worlds.iter().filter_map(|w| w.counters.as_ref()));
    let n = |name: &str| c.get(name).copied().unwrap_or(0) as f64;
    let sim: BTreeMap<&str, f64> = first.sim.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let sim_of = |name: &str| sim.get(name).copied().unwrap_or(0.0);

    let mut out = Vec::new();
    for (name, unit) in SIM_METRICS {
        out.push(Metric::new(name, unit, sim_of(name)));
    }

    let sched = med(&|r| r.total(SpanKind::Sched, all));
    let events = n("ibsim.events");
    out.extend([
        Metric::new("ibsim.events", "count", events),
        Metric::new("ibsim.polls", "count", first.polls() as f64),
        Metric::new("ibsim.sim_s", "sim_s", n("ibsim.end_ns") / 1e9),
        Metric::new("ibsim.sched_s", "s", sched),
        Metric::new("ibsim.ns_per_event", "ns", ratio(sched * 1e9, events)),
        Metric::new("ibsim.dispatch_floor_ns", "ns", floor_ns),
        Metric::new(
            "ibsim.dispatch_share",
            "ratio",
            ratio(events * floor_ns, sched * 1e9),
        ),
    ]);
    for name in COUNTER_METRICS
        .iter()
        .filter(|m| m.starts_with("ibfabric."))
    {
        out.push(Metric::new(*name, "count", n(name)));
    }
    out.extend([
        Metric::new(
            "ibfabric.retx_ratio",
            "ratio",
            ratio(n("ibfabric.retransmissions"), n("ibfabric.msgs_delivered")),
        ),
        Metric::new(
            "ibfabric.mb_per_host_s",
            "MB/s",
            ratio(n("ibfabric.bytes_delivered") / 1e6, untraced_wall),
        ),
    ]);

    let setup = med(&|r| r.total(SpanKind::Setup, all));
    out.extend([
        Metric::new(
            "mpib.rank_poll_s",
            "s",
            med(&|r| r.total(SpanKind::RankPoll, all)),
        ),
        Metric::new(
            "mpib.teardown_s",
            "s",
            med(&|r| r.total(SpanKind::Teardown, all)),
        ),
        Metric::new(
            "mpib.setup_us_per_conn",
            "us",
            ratio(setup * 1e6, n("mpib.conns")),
        ),
    ]);
    for name in COUNTER_METRICS.iter().filter(|m| m.starts_with("mpib.")) {
        out.push(Metric::new(*name, "count", n(name)));
    }
    out.extend([
        Metric::new(
            "mpib.ecm_ratio",
            "ratio",
            ratio(n("mpib.ecm_sent"), n("mpib.msgs_sent")),
        ),
        Metric::new(
            "mpib.unexpected_ratio",
            "ratio",
            ratio(n("mpib.unexpected_msgs"), n("mpib.msgs_received")),
        ),
        Metric::new(
            "mpib.regcache_hit_ratio",
            "ratio",
            ratio(
                n("mpib.regcache_hits"),
                n("mpib.regcache_hits") + n("mpib.regcache_misses"),
            ),
        ),
    ]);
    for s in SCHEMES {
        let wall = med(&|r| r.total(SpanKind::World, |m| m.scheme == s));
        out.push(Metric::new(
            layer_metric(&format!("mpib.{}", s.label()), "wall_s"),
            "s",
            wall,
        ));
    }
    for k in Kernel::ALL {
        let layer = format!("nasbench.{}", nas::kernel_key(k));
        let wall = med(&|r| r.total(SpanKind::World, |m| m.kernel == Some(k)));
        out.push(Metric::new(layer_metric(&layer, "wall_s"), "s", wall));
    }
    for k in Kernel::ALL {
        let name = layer_metric(&format!("nasbench.{}", nas::kernel_key(k)), "sim_ms");
        let v = sim_of(&name);
        out.push(Metric::new(name, "sim_ms", v));
    }

    let leg = |legs: &'static [Leg]| med(&|r| r.total(SpanKind::World, |m| legs.contains(&m.leg)));
    let encode = med(&|r| r.total(SpanKind::Encode, all));
    out.extend([
        Metric::new("mpib.ckpt.snapshot_leg_s", "s", leg(&[Leg::Snapshot])),
        Metric::new("mpib.ckpt.encode_s", "s", encode),
        Metric::new(
            "mpib.ckpt.decode_s",
            "s",
            med(&|r| r.total(SpanKind::Decode, all)),
        ),
        Metric::new(
            "mpib.ckpt.restore_s",
            "s",
            leg(&[Leg::Resume, Leg::Replace]),
        ),
        Metric::new("mpib.ckpt.chaos_s", "s", leg(&[Leg::Chaos])),
        Metric::new(
            "mpib.ckpt.encode_mb_per_s",
            "MB/s",
            ratio(n("mpib.ckpt.snapshot_bytes") / 1e6, encode),
        ),
        Metric::new("trace.wall_s_untraced", "s", untraced_wall),
        Metric::new("trace.wall_s_traced", "s", traced_wall),
        Metric::new(
            "trace.overhead_frac",
            "ratio",
            ratio(traced_wall, untraced_wall) - 1.0,
        ),
    ]);
    out
}

/// Median, quartiles and tail of `xs`, for the human-readable summary.
fn describe(name: &str, unit: &str, xs: &[f64]) -> String {
    let mut s = format!("  {name:<12} median {:.6} {unit}", median(xs));
    if let Some([q1, _, q3]) = quartiles(xs) {
        s += &format!("  IQR/median {:.4}", ratio(q3 - q1, median(xs)));
    }
    match tail(xs, 10) {
        Some((p, v)) if p > 50 => s += &format!("  p{p} {v:.6} {unit}"),
        _ => s += "  (no percentile above the median has 10 samples beyond it)",
    }
    s + &format!("  n={}", xs.len())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <eager_stream|nas_w|ckpt_ladder> --seed <n> \
                 --seconds <s> --trace <0|1> [--trace-out <file>]"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let warm_seed = args.seed ^ 0x9E37_79B9_7F4A_7C15;

    let warm = run_pass(w, warm_seed, false);
    let mut passes: Vec<Pass> = Vec::new();
    let mut sim_diffs = Vec::new();
    let t0 = Instant::now();
    loop {
        let traced = args.trace && passes.len() % 2 == 1;
        let mut p = run_pass(w, args.seed, traced);
        let reference = passes.first().map_or(&warm.rec, |f| &f.rec);
        let seeded = !passes.is_empty();
        let what = if seeded {
            "first pass"
        } else {
            "warm-up pass with another seed"
        };
        sim_diffs.extend(check_same(reference, &mut p.rec, seeded, what));
        passes.push(p);
        let spent = t0.elapsed().as_secs_f64();
        if passes.len() >= MIN_PASSES && spent * (1.0 + 1.0 / passes.len() as f64) > args.seconds {
            break;
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();

    let all_passes = || std::iter::once(&warm).chain(&passes);
    let attempted: usize = all_passes().map(|p| p.rec.worlds.len()).sum();
    let failed = all_passes().map(|p| p.rec.failed_worlds()).sum::<usize>() + sim_diffs.len();
    let correct = failed == 0;

    let (untraced, traced): (Vec<&Pass>, Vec<&Pass>) = passes.iter().partition(|p| !p.rec.traced());
    let walls = |ps: &[&Pass]| ps.iter().map(|p| p.wall).collect::<Vec<_>>();
    let rss = peak_rss_mb().unwrap_or(0.0);

    println!(
        "perfbench {} seed={} trace={}: {} passes in {elapsed:.1} s after one warm-up pass (seed {})",
        w.name(),
        args.seed,
        u8::from(args.trace),
        passes.len(),
        warm.seed
    );
    println!("{}", describe("wall_s", "s", &walls(&untraced)));
    println!("{}", describe("setup_s", "s", &setups(&untraced)));
    println!("  peak_rss_mb  {rss:.3} MB");
    println!(
        "  failed_frac  {failed}/{attempted} worlds = {}",
        ratio(failed as f64, attempted as f64)
    );
    for (name, v) in &passes[0].rec.sim {
        println!("  {name} = {v} (virtual time; identical in every pass and for every seed)");
    }
    for msg in all_passes()
        .flat_map(|p| p.rec.failures.iter().map(|(_, m)| m))
        .chain(&sim_diffs)
        .take(20)
    {
        println!("  FAILED {msg}");
    }

    let metrics = if args.trace {
        let (u, t) = (median(&walls(&untraced)), median(&walls(&traced)));
        println!(
            "  tracing overhead: wall_s {u:.6} s untraced vs {t:.6} s traced ({:+.1}%)",
            (ratio(t, u) - 1.0) * 100.0
        );
        if let Some(path) = &args.trace_out {
            let mut lines = String::new();
            for (i, p) in passes.iter().enumerate() {
                lines += &format!(
                    "{{\"pass\": {i}, \"span\": \"pass\", \"seed\": {}, \"traced\": {}, \"secs\": {}}}\n",
                    p.seed,
                    p.rec.traced(),
                    p.wall
                );
                lines += &p.rec.spans_jsonl(i);
            }
            let written = path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(path, lines));
            if let Err(e) = written {
                eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
            }
        }
        layer_metrics(&traced, u, t, dispatch_floor_ns())
    } else {
        end_to_end(&untraced, rss)
    };
    println!(
        "{}",
        result_json(correct, attempted as u64, failed as u64, &metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload nas_w --seed 7 --seconds 30 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::NasW);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 30.0, true));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload nas_w --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload nas_w --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload nas_w --seconds 1").is_err());
    }

    /// `(name, unit)` of every entry in one metric list of
    /// `BENCHMARK.json`, in file order.
    fn spec(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..start + json[start..].find(']').expect("list closes")];
        let field = |entry: &str, key: &str| {
            let from = entry.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5;
            entry[from..from + entry[from..].find('"').expect("string closes")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    }

    fn printed(metrics: Vec<Metric>) -> Vec<(String, String)> {
        metrics
            .into_iter()
            .map(|m| (m.name, m.unit.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let pass = Pass {
            seed: 0,
            wall: 1.0,
            rec: Recorder::new(true),
        };
        let layers = printed(layer_metrics(&[&pass], 1.0, 1.0, 1.0));
        assert_eq!(spec("per_layer"), layers);
        assert_eq!(spec("end_to_end"), printed(end_to_end(&[&pass], 1.0)));
        let unique: std::collections::BTreeSet<_> = layers.iter().map(|(n, _)| n).collect();
        assert_eq!(unique.len(), layers.len());
    }
}
