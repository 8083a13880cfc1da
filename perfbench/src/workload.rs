//! The named workloads and the seeded schedules they run.
//!
//! Every input is a pure function of `(workload, seed, seconds)`, built
//! with the `fresca-workload` generators; the server only ever sees the
//! wire operations.

use bytes::Bytes;
use fresca_net::payload;
use fresca_sim::{RngFactory, SimDuration, SimTime};
use fresca_workload::dist::{Exp, LogNormal, SampleF64, Zipf};
use fresca_workload::gen::SizeModel;
use fresca_workload::{PoissonZipfConfig, ReplayConfig, TimedOp, WireOp, WorkloadGen};
use rand::Rng;
use std::time::Duration;

/// Cache shards every workload's server runs with (the `serve` default).
pub const SHARDS: usize = 16;

/// First key id; keys are `KEY_BASE..KEY_BASE + keys`.
pub const KEY_BASE: u64 = 1;

/// Seed of what must not vary between runs: value sizes by popularity
/// rank, and the store's write popularity against the read popularity.
const FIXED_SEED: u64 = 0x5EED_F12E;

/// Operations in the closed-loop schedule, replayed cyclically.
const CLOSED_OPS: usize = 1 << 18;

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name on the command line.
    pub name: &'static str,
    /// `serve --event-loops`.
    pub event_loops: usize,
    /// Whether `serve` refetches through an origin hosted here, with a
    /// store pushing writes beside the reads.
    pub origin: bool,
    /// Keys in the read keyspace.
    pub keys: u64,
    /// Zipf exponent of key popularity.
    pub zipf: f64,
    /// `serve --capacity-entries`.
    pub capacity: usize,
    /// Share of client operations that are bounded gets (the rest are
    /// puts).
    pub read_ratio: f64,
    /// Value sizes, one per key.
    pub size: SizeModel,
    /// Staleness bound every get carries.
    pub bound: SimDuration,
    /// Requests in flight in the closed-loop phase (one connection).
    pub depth: usize,
    /// Offered rate of the open-loop phase, ops/s.
    pub open_rate: f64,
    /// Store writes per second (0: no store side).
    pub store_write_rate: f64,
    /// Store flush interval.
    pub flush_every: Duration,
}

const HOT_GET: Spec = Spec {
    name: "hot-get",
    event_loops: 1,
    origin: false,
    keys: 8192,
    zipf: 0.99,
    capacity: 65_536,
    read_ratio: 0.95,
    size: SizeModel::LogNormal {
        median: 24.0,
        sigma: 0.6,
        max: 64,
    },
    bound: SimDuration::from_secs(60),
    depth: 16,
    open_rate: 30_000.0,
    store_write_rate: 0.0,
    flush_every: Duration::from_millis(10),
};

/// Every workload, in the order the benchmark documents them.
pub const ALL: [Spec; 3] = [
    HOT_GET,
    Spec {
        name: "hot-get-2loop",
        event_loops: 2,
        ..HOT_GET
    },
    Spec {
        name: "freshness-loop",
        event_loops: 1,
        origin: true,
        keys: 2048,
        zipf: 0.99,
        capacity: 512,
        read_ratio: 0.85,
        size: SizeModel::LogNormal {
            median: 200.0,
            sigma: 1.0,
            max: 4096,
        },
        bound: SimDuration::from_millis(100),
        depth: 16,
        open_rate: 15_000.0,
        store_write_rate: 2_000.0,
        flush_every: Duration::from_millis(10),
    },
];

/// The workload named `name`.
pub fn find(name: &str) -> Option<Spec> {
    ALL.iter().copied().find(|s| s.name == name)
}

/// A store write: due time, key, value size.
pub type StoreWrite = (SimTime, u64, u32);

/// Everything a run sends, built before the first timed operation.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Closed-loop operations, replayed cyclically.
    pub closed: Vec<WireOp>,
    /// Open-loop operations with due times from the phase start.
    pub open: Vec<TimedOp>,
    /// Store writes with due times from the start of measurement.
    pub store_writes: Vec<StoreWrite>,
    /// The value every put of a key carries (`KEY_BASE`-relative
    /// index): the key's deterministic pattern at its size.
    pub values: Vec<Bytes>,
}

impl Schedule {
    /// Build the schedule of `spec` for `seed`: an open-loop phase of
    /// `open_secs` and store writes covering `total_secs`.
    pub fn build(spec: &Spec, seed: u64, open_secs: f64, total_secs: f64) -> Schedule {
        let base = PoissonZipfConfig {
            rate: 100_000.0,
            num_keys: spec.keys,
            zipf_exponent: spec.zipf,
            read_ratio: spec.read_ratio,
            horizon: SimDuration::from_secs_f64(CLOSED_OPS as f64 / 100_000.0),
            size: spec.size,
            key_base: KEY_BASE,
        };
        let replay = ReplayConfig {
            ttl: None,
            max_staleness: Some(spec.bound),
            time_scale: 1.0,
        };
        // Both client phases use one seed, so they share the key
        // permutation.
        let closed: Vec<WireOp> = replay
            .map_trace(&base.generate(seed))
            .into_iter()
            .map(|t| t.op)
            .collect();
        let open_cfg = PoissonZipfConfig {
            rate: spec.open_rate,
            horizon: SimDuration::from_secs_f64(open_secs.max(0.001)),
            ..base
        };
        let open = replay.map_trace(&open_cfg.generate(seed));
        // Keys by read popularity, hottest first, as the closed schedule
        // shows it.
        let n = spec.keys as usize;
        let mut reads = vec![0u32; n];
        for op in &closed {
            reads[(op.key() - KEY_BASE) as usize] += 1;
        }
        let mut by_rank: Vec<usize> = (0..n).collect();
        by_rank.sort_by_key(|&i| (std::cmp::Reverse(reads[i]), i));
        // Everything tied to popularity rank is the same for every seed:
        // the key id at each rank (so the hot keys' shards and event loops
        // do not move), its value size, and the read rank each store-write
        // rank lands on. A seed changes the order and timing of
        // operations, not how the load spreads over the server.
        let mut fixed = RngFactory::new(FIXED_SEED).stream("perfbench.ranks");
        let key_at_rank = shuffled(n, &mut fixed);
        let write_to_read_rank = shuffled(n, &mut fixed);
        let mut rank_of = vec![0usize; n];
        for (rank, &i) in by_rank.iter().enumerate() {
            rank_of[i] = rank;
        }
        let rekey = |key: u64| KEY_BASE + key_at_rank[rank_of[(key - KEY_BASE) as usize]] as u64;
        let closed = closed
            .into_iter()
            .map(|op| with_key(op, rekey(op.key())))
            .collect();
        let open = open
            .into_iter()
            .map(|t| TimedOp {
                at: t.at,
                op: with_key(t.op, rekey(t.op.key())),
            })
            .collect();
        let mut sizes = vec![0u32; n];
        for rank in 0..n {
            sizes[key_at_rank[rank]] = draw_size(spec.size, &mut fixed);
        }
        let mut store_writes = Vec::new();
        if spec.store_write_rate > 0.0 {
            let mut rng = RngFactory::new(seed).stream("perfbench.store_writes");
            let zipf = Zipf::new(spec.keys, spec.zipf);
            let gap = Exp::new(spec.store_write_rate);
            let mut t = 0.0;
            loop {
                t += gap.sample(&mut rng);
                if t > total_secs {
                    break;
                }
                let rank = write_to_read_rank[(zipf.sample_rank(&mut rng) - 1) as usize];
                let i = key_at_rank[rank];
                store_writes.push((SimTime::from_secs_f64(t), KEY_BASE + i as u64, sizes[i]));
            }
        }
        let values = sizes
            .iter()
            .enumerate()
            .map(|(i, &len)| payload::pattern(KEY_BASE + i as u64, len as usize))
            .collect();
        Schedule {
            closed,
            open,
            store_writes,
            values,
        }
    }

    /// The value puts of `key` carry.
    pub fn value(&self, key: u64) -> &Bytes {
        &self.values[(key - KEY_BASE) as usize]
    }
}

/// A permutation of `0..n` drawn from `rng`.
fn shuffled(n: usize, rng: &mut impl Rng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
    v
}

/// `op` aimed at `key`.
fn with_key(op: WireOp, key: u64) -> WireOp {
    match op {
        WireOp::Get { max_staleness, .. } => WireOp::Get { key, max_staleness },
        WireOp::Put {
            value_size, ttl, ..
        } => WireOp::Put {
            key,
            value_size,
            ttl,
        },
    }
}

/// One value size from `model`, at least one byte.
fn draw_size(model: SizeModel, rng: &mut impl Rng) -> u32 {
    match model {
        SizeModel::Fixed(s) => s.max(1),
        SizeModel::LogNormal { median, sigma, max } => {
            let v = LogNormal::from_median(median, sigma).sample(rng);
            (v.round() as u64).clamp(1, u64::from(max)) as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_a_function_of_the_seed() {
        let spec = find("freshness-loop").unwrap();
        let a = Schedule::build(&spec, 7, 0.5, 1.0);
        let b = Schedule::build(&spec, 7, 0.5, 1.0);
        let c = Schedule::build(&spec, 8, 0.5, 1.0);
        assert_eq!(a.closed, b.closed);
        assert_eq!(a.open, b.open);
        assert_eq!(a.store_writes, b.store_writes);
        assert_ne!(a.open, c.open);
    }

    #[test]
    fn open_phase_offers_the_stated_rate_and_mix() {
        let spec = find("hot-get").unwrap();
        let s = Schedule::build(&spec, 1, 2.0, 2.0);
        let n = s.open.len() as f64;
        assert!(
            (n / 2.0 - spec.open_rate).abs() < 0.02 * spec.open_rate,
            "{n} ops in 2 s"
        );
        let gets = s.open.iter().filter(|t| t.op.is_get()).count() as f64;
        assert!((gets / n - spec.read_ratio).abs() < 0.01);
        assert!(
            s.open.windows(2).all(|w| w[0].at <= w[1].at),
            "due times ascend"
        );
        assert!(
            s.values.iter().all(|v| (1..=64).contains(&v.len())),
            "small values only"
        );
        assert!(s.store_writes.is_empty());
    }

    #[test]
    fn load_by_popularity_rank_does_not_depend_on_the_seed() {
        let spec = find("freshness-loop").unwrap();
        let by_popularity = |seed| {
            let s = Schedule::build(&spec, seed, 0.1, 0.1);
            let mut reads = std::collections::HashMap::new();
            for op in &s.closed {
                *reads.entry(op.key()).or_insert(0u32) += 1;
            }
            let mut keys: Vec<u64> = reads.keys().copied().collect();
            keys.sort_by_key(|k| (std::cmp::Reverse(reads[k]), *k));
            keys.iter()
                .take(20)
                .map(|&k| s.value(k).len())
                .collect::<Vec<_>>()
        };
        assert_eq!(by_popularity(1), by_popularity(2));
        let hottest = |seed| {
            let s = Schedule::build(&spec, seed, 0.1, 0.1);
            let mut reads = std::collections::HashMap::new();
            for op in &s.closed {
                *reads.entry(op.key()).or_insert(0u32) += 1;
            }
            reads
                .into_iter()
                .max_by_key(|&(k, n)| (n, std::cmp::Reverse(k)))
                .unwrap()
                .0
        };
        assert_eq!(
            hottest(1),
            hottest(2),
            "the hottest key keeps its id, shard and loop"
        );
    }

    #[test]
    fn store_writes_cover_the_run_at_their_rate() {
        let spec = find("freshness-loop").unwrap();
        let s = Schedule::build(&spec, 3, 1.0, 4.0);
        let n = s.store_writes.len() as f64;
        assert!((n / 4.0 - spec.store_write_rate).abs() < 0.05 * spec.store_write_rate);
        assert!(s.values.iter().all(|v| (1..=4096).contains(&v.len())));
    }
}
