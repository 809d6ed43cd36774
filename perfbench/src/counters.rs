//! The exact, deterministic counters a completed world returns: event
//! count and virtual end time from the run, `FabricStats` from the
//! fabric, and `RankStats`/`ConnStats` summed over the world. Every pass
//! must reproduce them bit for bit.

use mpib::MpiRunOutput;
use std::collections::BTreeMap;

/// One world's counters, named by the per-layer metric they feed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counters {
    /// `(metric name, value)` in a fixed order.
    pub fields: Vec<(&'static str, u64)>,
}

/// Counters folded by maximum rather than sum across worlds.
const MAX_FIELDS: [&str; 1] = ["mpib.max_posted"];

impl Counters {
    /// Extracts the counters of `out`; `results` is the caller's digest
    /// of the application outputs, compared like any other counter.
    pub fn of<R>(out: &MpiRunOutput<R>, results: u64) -> Counters {
        let f = &out.fabric.stats;
        let ranks = &out.stats.ranks;
        let conn = |pick: fn(&mpib::ConnStats) -> u64| -> u64 {
            ranks.iter().flat_map(|r| &r.conns).map(pick).sum()
        };
        let rank = |pick: fn(&mpib::RankStats) -> u64| -> u64 { ranks.iter().map(pick).sum() };
        let n = ranks.len() as u64;
        Counters {
            fields: vec![
                ("results", results),
                ("ibsim.events", out.events),
                ("ibsim.end_ns", out.end_time.as_nanos()),
                ("ibfabric.msgs_delivered", f.msgs_delivered.get()),
                ("ibfabric.bytes_delivered", f.bytes_delivered.get()),
                ("ibfabric.cqes", f.cqes.get()),
                ("ibfabric.rnr_naks", f.rnr_naks.get()),
                ("ibfabric.retransmissions", f.retransmissions.get()),
                ("ibfabric.msgs_dropped", f.msgs_dropped.get()),
                ("ibfabric.msgs_corrupted", f.msgs_corrupted.get()),
                ("mpib.conns", n * n.saturating_sub(1)),
                ("mpib.msgs_sent", conn(|c| c.msgs_sent.get())),
                ("mpib.eager_sent", conn(|c| c.eager_sent.get())),
                ("mpib.ring_sent", conn(|c| c.ring_sent.get())),
                ("mpib.rndz_sent", conn(|c| c.rndz_sent.get())),
                ("mpib.ecm_sent", conn(|c| c.ecm_sent.get())),
                ("mpib.backlogged", conn(|c| c.backlogged.get())),
                ("mpib.growth_events", conn(|c| c.growth_events.get())),
                (
                    "mpib.ring_growth_events",
                    conn(|c| c.ring_growth_events.get()),
                ),
                ("mpib.msgs_received", rank(|r| r.msgs_received.get())),
                ("mpib.unexpected_msgs", rank(|r| r.unexpected_msgs.get())),
                ("mpib.regcache_hits", rank(|r| r.regcache_hits.get())),
                ("mpib.regcache_misses", rank(|r| r.regcache_misses.get())),
                ("mpib.max_posted", out.stats.max_posted_buffers()),
            ],
        }
    }

    /// Folds `worlds` into one total per counter (sum, or max for peaks).
    pub fn total<'a>(
        worlds: impl IntoIterator<Item = &'a Counters>,
    ) -> BTreeMap<&'static str, u64> {
        let mut acc = BTreeMap::new();
        for c in worlds {
            for &(name, v) in &c.fields {
                let slot = acc.entry(name).or_insert(0);
                *slot = if MAX_FIELDS.contains(&name) {
                    (*slot).max(v)
                } else {
                    *slot + v
                };
            }
        }
        acc
    }
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over bytes: the order-sensitive digest the workloads fold
/// application outputs into.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// The same fold over 8-byte little-endian words, then the tail bytes and
/// the length: for multi-megabyte images, where the byte-wise fold would
/// cost more host time than the work being measured.
pub fn fnv_words(h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let h = words.by_ref().fold(h, |h, w| {
        let w = u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes"));
        (h ^ w).wrapping_mul(FNV_PRIME)
    });
    fnv_u64(fnv(h, words.remainder()), bytes.len() as u64)
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Folds a `u64` into an FNV digest.
pub fn fnv_u64(h: u64, v: u64) -> u64 {
    fnv(h, &v.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_counts_and_keep_peaks() {
        let a = Counters {
            fields: vec![("ibsim.events", 10), ("mpib.max_posted", 7)],
        };
        let b = Counters {
            fields: vec![("ibsim.events", 5), ("mpib.max_posted", 3)],
        };
        let t = Counters::total([&a, &b]);
        assert_eq!(t["ibsim.events"], 15);
        assert_eq!(t["mpib.max_posted"], 7);
    }

    #[test]
    fn digest_is_order_sensitive() {
        assert_ne!(fnv(FNV_OFFSET, &[1, 2]), fnv(FNV_OFFSET, &[2, 1]));
        let image: Vec<u8> = (0..21).collect();
        let mut swapped = image.clone();
        swapped.swap(3, 11);
        assert_ne!(
            fnv_words(FNV_OFFSET, &image),
            fnv_words(FNV_OFFSET, &swapped)
        );
        // The tail past the last whole word and the length count too.
        assert_ne!(
            fnv_words(FNV_OFFSET, &image),
            fnv_words(FNV_OFFSET, &image[..20])
        );
        assert_ne!(
            fnv_words(FNV_OFFSET, &[0; 8]),
            fnv_words(FNV_OFFSET, &[0; 16])
        );
    }
}
