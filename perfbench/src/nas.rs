//! `nas_w`: the user-facing battery. Class W, the 7 kernels × 5 schemes ×
//! pre-post {100, 1}: 70 worlds of 8 or 16 ranks, in a fixed order.
//! Rank-side work carries the time (NAS arithmetic plus payload copies),
//! and bootstrap of the 16-rank BT/SP worlds, which grows with the n(n−1)
//! connections, is a visible share. NAS inputs are fixed by the class, so
//! the pass takes no seed.

use crate::counters::{fnv_u64, FNV_OFFSET};
use crate::trace::{instrument, Recorder, WorldMeta};
use crate::SCHEMES;
use ibfabric::FabricParams;
use mpib::{FlowControlScheme, MpiConfig, MpiWorld};
use nasbench::{run_kernel, Kernel, NasClass};
use std::collections::BTreeMap;

const PREPOSTS: [u32; 2] = [100, 1];

/// Fig 10's setting: the runtimes `sim_nas_ms` sums.
const HEADLINE: (FlowControlScheme, u32) = (FlowControlScheme::UserDynamic, 1);

/// The metric-name form of a kernel (`is`, `ft`, ...).
pub fn kernel_key(k: Kernel) -> String {
    k.name().to_ascii_lowercase()
}

/// One pass: all 70 worlds.
pub fn pass(rec: &mut Recorder) {
    let jobs = Kernel::ALL.into_iter().flat_map(|k| {
        SCHEMES
            .into_iter()
            .flat_map(move |s| PREPOSTS.map(|pp| (k, s, pp)))
    });

    let mut checksums: BTreeMap<&str, (u64, String)> = BTreeMap::new();
    let mut headline_ms: BTreeMap<&str, f64> = BTreeMap::new();
    for (kernel, scheme, prepost) in jobs {
        let label = format!("nas/{}/{}/pp{prepost}", kernel.name(), scheme.label());
        let mut meta = WorldMeta::new(label.clone(), scheme);
        meta.kernel = Some(kernel);
        let Some((id, out)) = rec.world(meta, |probe| {
            let probe = probe.clone();
            MpiWorld::run(
                kernel.paper_procs(),
                MpiConfig::scheme(scheme, prepost),
                FabricParams::mt23108(),
                async move |mpi| {
                    let rank = mpi.rank();
                    instrument(&probe, rank, run_kernel(mpi, kernel, NasClass::W)).await
                },
            )
        }) else {
            continue;
        };

        let bits = out.results[0].checksum.to_bits();
        if !out.results.iter().all(|r| r.verified) {
            rec.fail(id, "failed verification".to_string());
        }
        if out.results.iter().any(|r| r.checksum.to_bits() != bits) {
            rec.fail(id, "ranks disagree on the checksum".to_string());
        }
        match checksums.get(kernel.name()) {
            Some((first, other)) if *first != bits => rec.fail(
                id,
                format!("checksum {bits:016x} differs from {other}'s {first:016x}"),
            ),
            Some(_) => {}
            None => {
                checksums.insert(kernel.name(), (bits, label));
            }
        }
        let sim_ns = out
            .results
            .iter()
            .map(|r| r.time.as_nanos())
            .max()
            .unwrap_or(0);
        if (scheme, prepost) == HEADLINE {
            headline_ms.insert(kernel.name(), sim_ns as f64 / 1e6);
        }
        rec.finish(id, &out, fnv_u64(fnv_u64(FNV_OFFSET, bits), sim_ns));
    }

    let mut total = 0.0;
    for k in Kernel::ALL {
        let ms = headline_ms.get(k.name()).copied().unwrap_or(0.0);
        rec.sim(format!("nasbench.{}.sim_ms", kernel_key(k)), ms);
        total += ms;
    }
    rec.sim("sim_nas_ms", total);
}
