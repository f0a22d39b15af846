//! Seeded inputs, generated in full before anything is measured: the
//! closed-loop request sequences, the paced fleet schedule, the Zipf
//! draws and the upstream publish waves.

use std::time::Duration;

use tsr_crypto::drbg::HmacDrbg;
use tsr_crypto::{hex, Sha256};

use crate::args::{Workload, CONNS};

/// Page size of every package-listing request.
pub const PAGE_LIMIT: u32 = 20;
/// Offered rate of the paced fleet connection in `update`, requests/s.
/// At a few hundred per second the server's threads go idle between
/// requests, and the wake-up time of an idle vCPU on a shared host, not
/// the program, sets the fleet's median.
pub const PACED_RATE: f64 = 2000.0;
/// Zipf exponent of package popularity.
const ZIPF_S: f64 = 1.0;
/// Ops generated per closed-loop connection (replayed cyclically).
const CLOSED_OPS: usize = 1 << 15;
/// Wave sizes of one round of the measured phase, in packages: mostly
/// 1–3 with one large wave. Every round carries this multiset, so the
/// rounds of a run are alike; the order within a round is seeded.
pub const WAVE_SIZES: [usize; 5] = [1, 2, 1, 3, 6];
/// Label of the generator that groups packages into waves (seed-free).
const GROUPS_LABEL: &[u8] = b"tsrbench:wave-groups";

/// The kinds of read request the fleet sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    /// `GET /v1/healthz`.
    Health,
    /// Conditional index GET (`If-None-Match`).
    IndexCond,
    /// Full signed-index GET.
    Index,
    /// One page of the package listing.
    Page,
    /// One sanitized package body.
    Package,
}

impl OpKind {
    /// Every kind, in metric order.
    pub const ALL: [OpKind; 5] = [
        OpKind::Health,
        OpKind::IndexCond,
        OpKind::Index,
        OpKind::Page,
        OpKind::Package,
    ];

    /// The metric-name suffix of this kind.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Health => "health",
            OpKind::IndexCond => "index_cond",
            OpKind::Index => "index",
            OpKind::Page => "page",
            OpKind::Package => "package",
        }
    }
}

/// One read request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOp {
    /// Health probe.
    Health,
    /// Conditional index GET with the connection's last ETag.
    IndexCond,
    /// Full index GET.
    Index,
    /// Package listing from `offset` (taken modulo the package count).
    Page {
        /// First entry of the page.
        offset: u32,
    },
    /// The package of popularity rank `rank` (0 is the most popular).
    Package {
        /// Zipf rank.
        rank: u32,
    },
}

impl ReadOp {
    /// The op's kind.
    pub fn kind(self) -> OpKind {
        match self {
            ReadOp::Health => OpKind::Health,
            ReadOp::IndexCond => OpKind::IndexCond,
            ReadOp::Index => OpKind::Index,
            ReadOp::Page { .. } => OpKind::Page,
            ReadOp::Package { .. } => OpKind::Package,
        }
    }
}

/// One upstream publish followed by the operator's refresh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Wave {
    /// When the publish is due, from the start of the wave phase
    /// (`update` paces by it; the other workloads run waves back to back).
    pub due: Duration,
    /// Indices into the list of packages the sanitizer accepts.
    pub picks: Vec<usize>,
    /// Salt of the new package contents.
    pub salt: u64,
}

/// Everything a run replays.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Per closed-loop connection, the op sequence (cycled).
    pub closed: Vec<Vec<ReadOp>>,
    /// The paced fleet schedule of `update`: (due offset, op).
    pub paced: Vec<(Duration, ReadOp)>,
    /// The publish waves.
    pub waves: Vec<Wave>,
}

/// Sizes of the generated inputs.
#[derive(Debug, Clone, Copy)]
pub struct PlanShape {
    /// Packages in the served index (Zipf domain, page offsets).
    pub served: usize,
    /// Packages the sanitizer accepts (wave picks).
    pub supported: usize,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Rounds of the measured phase.
    pub rounds: usize,
}

fn unit(rng: &mut HmacDrbg) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Inverse-CDF sampler over Zipf ranks.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Self {
        let weights: Vec<f64> = (1..=n.max(1))
            .map(|k| 1.0 / (k as f64).powf(ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    fn draw(&self, rng: &mut HmacDrbg) -> u32 {
        let u = unit(rng);
        let i = self.cdf.partition_point(|&c| c < u);
        i.min(self.cdf.len() - 1) as u32
    }
}

fn poll_op(rng: &mut HmacDrbg, served: usize) -> ReadOp {
    let u = unit(rng);
    if u < 0.6 {
        ReadOp::IndexCond
    } else if u < 0.8 {
        ReadOp::Page {
            offset: rng.gen_range(served.max(1) as u64) as u32,
        }
    } else if u < 0.9 {
        ReadOp::Health
    } else {
        ReadOp::Index
    }
}

fn fetch_op(rng: &mut HmacDrbg, zipf: &Zipf) -> ReadOp {
    if unit(rng) < 0.9 {
        ReadOp::Package {
            rank: zipf.draw(rng),
        }
    } else {
        ReadOp::Index
    }
}

/// Deals `size` distinct packages (at most all `supported`) from `deck`, refilling it
/// with a shuffle of every package when it runs out; returns them sorted.
fn deal(rng: &mut HmacDrbg, deck: &mut Vec<usize>, size: usize, supported: usize) -> Vec<usize> {
    let mut picks = Vec::new();
    let mut deferred = Vec::new();
    while picks.len() < size.min(supported) {
        if deck.is_empty() {
            *deck = (0..supported).collect();
            for k in (1..deck.len()).rev() {
                let j = rng.gen_range(k as u64 + 1) as usize;
                deck.swap(k, j);
            }
        }
        let p = deck.pop().expect("deck refilled above");
        if picks.contains(&p) {
            deferred.push(p);
        } else {
            picks.push(p);
        }
    }
    deck.extend(deferred);
    picks.sort_unstable();
    picks
}

/// Generates the plan of one run from `seed`.
pub fn generate(workload: Workload, seed: u64, shape: PlanShape) -> Plan {
    let label = format!("tsrbench:{}:{seed}", workload.name());
    let mut rng = HmacDrbg::new(label.as_bytes());
    let zipf = Zipf::new(shape.served);

    let closed = match workload {
        Workload::Update => Vec::new(),
        Workload::Poll | Workload::Fetch => (0..CONNS)
            .map(|_| {
                (0..CLOSED_OPS)
                    .map(|_| match workload {
                        Workload::Poll => poll_op(&mut rng, shape.served),
                        _ => fetch_op(&mut rng, &zipf),
                    })
                    .collect()
            })
            .collect(),
    };

    let span = Duration::from_secs_f64(shape.seconds);
    let waves = shape.rounds * WAVE_SIZES.len();
    let cadence = span / waves as u32;
    let paced = match workload {
        Workload::Update => {
            // Poisson arrivals: independent package managers.
            let mut out = Vec::new();
            let mut t = 0.0f64;
            loop {
                t += -(1.0 - unit(&mut rng)).ln() / PACED_RATE;
                // Runs past the last wave's due time by two cadences, so
                // the fleet still reads while the last refresh runs.
                if t > shape.seconds + 2.0 * cadence.as_secs_f64() {
                    break;
                }
                // The poll and fetch mixes, interleaved.
                let op = if unit(&mut rng) < 0.6 {
                    poll_op(&mut rng, shape.served)
                } else {
                    fetch_op(&mut rng, &zipf)
                };
                out.push((Duration::from_secs_f64(t), op));
            }
            out
        }
        Workload::Poll | Workload::Fetch => Vec::new(),
    };

    // The packages of each wave come from a generator that does not
    // depend on the seed: a refresh's cost depends mostly on which
    // packages it sanitizes (one package alone takes 40 to 115 ms on a
    // 2-vCPU VM),
    // so every run republishes the same groups, and only their order
    // within each round, the new contents and the read traffic are seeded.
    // Groups are dealt from shuffles of every accepted package, so each
    // package is republished about equally often.
    let mut dealer = HmacDrbg::new(GROUPS_LABEL);
    let mut deck: Vec<usize> = Vec::new();
    let mut groups = Vec::with_capacity(waves);
    for _ in 0..shape.rounds {
        let mut round: Vec<Vec<usize>> = WAVE_SIZES
            .iter()
            .map(|&size| deal(&mut dealer, &mut deck, size, shape.supported))
            .collect();
        for i in (1..round.len()).rev() {
            let j = rng.gen_range(i as u64 + 1) as usize;
            round.swap(i, j);
        }
        groups.extend(round);
    }
    let waves = groups
        .into_iter()
        .enumerate()
        .map(|(i, picks)| Wave {
            due: cadence * i as u32,
            picks,
            salt: rng.next_u64(),
        })
        .collect();

    Plan {
        closed,
        paced,
        waves,
    }
}

impl Plan {
    /// SHA-256 over the generated inputs, plus `world` (a digest of the
    /// package population they address).
    pub fn digest(&self, world: &str) -> String {
        let mut h = Sha256::new();
        h.update(world.as_bytes());
        h.update(format!("{:?}", self.closed).as_bytes());
        h.update(format!("{:?}", self.paced).as_bytes());
        h.update(format!("{:?}", self.waves).as_bytes());
        hex::to_hex(&h.finalize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> PlanShape {
        PlanShape {
            served: 20,
            supported: 18,
            seconds: 5.0,
            rounds: 4,
        }
    }

    #[test]
    fn same_seed_same_plan_other_seed_other_plan() {
        let a = generate(Workload::Update, 1, shape());
        let b = generate(Workload::Update, 1, shape());
        let c = generate(Workload::Update, 2, shape());
        assert_eq!(a.digest("w"), b.digest("w"));
        assert_ne!(a.digest("w"), c.digest("w"));
        assert_eq!(a.waves.len(), 4 * WAVE_SIZES.len());
        // The wave-size multiset is fixed; only its order is seeded.
        let mut sa: Vec<usize> = a.waves.iter().map(|w| w.picks.len()).collect();
        let mut sc: Vec<usize> = c.waves.iter().map(|w| w.picks.len()).collect();
        sa.sort_unstable();
        sc.sort_unstable();
        assert_eq!(sa, sc);
        // So are the groups of each round; the seed orders them and salts
        // the new contents.
        let groups = |p: &Plan| -> Vec<Vec<Vec<usize>>> {
            p.waves
                .chunks(WAVE_SIZES.len())
                .map(|round| {
                    let mut g: Vec<Vec<usize>> = round.iter().map(|w| w.picks.clone()).collect();
                    g.sort();
                    g
                })
                .collect()
        };
        assert_eq!(groups(&a), groups(&c));
        assert_ne!(
            a.waves.iter().map(|w| w.salt).collect::<Vec<_>>(),
            c.waves.iter().map(|w| w.salt).collect::<Vec<_>>()
        );
        // Every accepted package is republished about equally often.
        let mut times = vec![0usize; 18];
        for w in &a.waves {
            for &p in &w.picks {
                times[p] += 1;
            }
        }
        let (lo, hi) = (times.iter().min(), times.iter().max());
        assert!(hi.zip(lo).is_some_and(|(h, l)| h - l <= 2), "{times:?}");
    }

    #[test]
    fn mixes_have_the_stated_shares() {
        let p = generate(Workload::Poll, 3, shape());
        let ops = &p.closed[0];
        let share =
            |k: OpKind| ops.iter().filter(|o| o.kind() == k).count() as f64 / ops.len() as f64;
        assert!((share(OpKind::IndexCond) - 0.6).abs() < 0.02);
        assert!((share(OpKind::Page) - 0.2).abs() < 0.02);
        let f = generate(Workload::Fetch, 3, shape());
        let top = f.closed[0]
            .iter()
            .filter(|o| matches!(o, ReadOp::Package { rank: 0 }))
            .count();
        let last = f.closed[0]
            .iter()
            .filter(|o| matches!(o, ReadOp::Package { rank: 19 }))
            .count();
        assert!(top > 10 * last, "rank 0 must dominate rank 19");
    }
}
