//! The four workloads, their seeded query scripts, and the correctness
//! oracle every harvested result is checked against.
//!
//! Dataset, shift and GPU count are fixed per workload; the workload seed
//! picks the query sources and the order of the mix. WORKLOADS.md records
//! why each workload exists.

use crate::stats;
use mgpu_bench::Primitive;
use mgpu_graph::Csr;
use mgpu_primitives::reference;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// How a workload's queries reach the executors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// One closed-loop client: build, enact and harvest each query in turn.
    Direct,
    /// Closed-loop batches, one per round of the mix, admitted and run by
    /// `mgpu_core::Service`.
    Service,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Dataset analog (see `mgpu_gen::Dataset`).
    pub dataset: &'static str,
    /// Scale-down shift applied to the dataset.
    pub shift: u32,
    /// Simulated GPUs.
    pub gpus: usize,
    /// Queries per round, by primitive.
    pub mix: &'static [(Primitive, usize)],
    /// Rounds per session; each round is the mix in its own seeded order.
    pub rounds: usize,
    /// Set-ups per session in an untraced run: the session's own, plus
    /// `setups - 1` more outside its clock, so that the `setup_s` median of
    /// a workload whose set-up is short rests on many samples.
    pub setups: usize,
    /// How queries are driven.
    pub dispatch: Dispatch,
}

use Primitive::{Bc, Bfs, Cc, Dobfs, Pr, Sssp};

/// Every workload the benchmark knows.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "ingest-rmat",
        dataset: "rmat_2Mv_128Me",
        shift: 6,
        gpus: 4,
        mix: &[(Bfs, 16), (Dobfs, 46), (Sssp, 1), (Bc, 1), (Cc, 1), (Pr, 1)],
        rounds: 1,
        setups: 1,
        dispatch: Dispatch::Direct,
    },
    Workload {
        name: "soc-queries",
        dataset: "soc-orkut",
        shift: 8,
        gpus: 4,
        mix: &[(Dobfs, 6), (Cc, 2), (Bfs, 18), (Bc, 4), (Sssp, 8), (Pr, 2)],
        rounds: 1,
        setups: 2,
        dispatch: Dispatch::Direct,
    },
    Workload {
        name: "road-deep",
        dataset: "road-analog",
        shift: 8,
        gpus: 4,
        mix: &[(Bfs, 32), (Dobfs, 6), (Sssp, 2)],
        rounds: 1,
        setups: 4,
        dispatch: Dispatch::Direct,
    },
    Workload {
        name: "service-mix",
        dataset: "soc-orkut",
        shift: 8,
        gpus: 4,
        mix: &[(Dobfs, 3), (Cc, 1), (Bfs, 7), (Bc, 1), (Pr, 1), (Sssp, 3)],
        rounds: 2,
        setups: 2,
        dispatch: Dispatch::Service,
    },
];

/// Sessions a run makes at least, whatever `--seconds` says: four set-ups
/// for the `setup_s` median, and enough sessions after the warm-up one that
/// `query_p90_ms` has [`stats::MIN_BEYOND`] samples beyond it.
pub fn min_sessions(w: &Workload) -> usize {
    let per_session = (w.rounds * w.mix.iter().map(|m| m.1).sum::<usize>()).max(1);
    (4..)
        .find(|&k| stats::beyond(0.9, (k - 1) * per_session) >= stats::MIN_BEYOND)
        .expect("samples beyond p90 grow with the session count")
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Lower-case primitive label used as a metric suffix.
pub fn suffix(p: Primitive) -> &'static str {
    match p {
        Bfs => "bfs",
        Dobfs => "dobfs",
        Sssp => "sssp",
        Bc => "bc",
        Cc => "cc",
        Pr => "pr",
    }
}

/// One query of a script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// Primitive to run.
    pub prim: Primitive,
    /// Global source vertex, for primitives that take one.
    pub source: Option<u32>,
}

/// Shuffle `v` in place (Fisher-Yates).
fn shuffle<T>(v: &mut [T], rng: &mut ChaCha8Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// `k` distinct seeded sources from `members` (ascending vertex ids), one
/// from each of `k` equal strata of the id range, in seeded order.
///
/// Stratifying keeps the mix of source positions the same from seed to
/// seed — on the row-major road grid, one source per band of rows; on the
/// R-MAT and power-law analogs, one per band of degree ranks — so the seed
/// changes which vertices are queried, not how far their traversals reach
/// on average. `used` carries the sources other primitives already took.
fn stratified(members: &[u32], k: usize, used: &mut Vec<u32>, rng: &mut ChaCha8Rng) -> Vec<u32> {
    let n = members.len();
    let mut picks: Vec<u32> = (0..k)
        .map(|s| {
            let (lo, hi) = (s * n / k, ((s + 1) * n / k).max(s * n / k + 1).min(n));
            // A few tries inside the stratum, then any unused member.
            let v = (0..8)
                .map(|_| members[rng.gen_range(lo..hi)])
                .find(|v| !used.contains(v))
                .or_else(|| members.iter().copied().find(|v| !used.contains(v)))
                .unwrap_or(members[lo]);
            used.push(v);
            v
        })
        .collect();
    shuffle(&mut picks, rng);
    picks
}

/// The per-session query list: `rounds` copies of the workload's mix, each
/// in its own seeded order. Every source is a distinct vertex of the
/// largest connected component, so every traversal does real work; each
/// primitive's sources are drawn one per stratum (see [`stratified`]).
pub fn script(w: &Workload, g: &Csr<u32, u64>, seed: u64) -> Vec<Query> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let comp = reference::cc(g);
    let mut size = vec![0usize; comp.len()];
    for &c in &comp {
        size[c] += 1;
    }
    let giant = (0..size.len()).max_by_key(|&c| (size[c], std::cmp::Reverse(c))).unwrap_or(0);
    let members: Vec<u32> =
        (0..comp.len()).filter(|&v| comp[v] == giant).map(|v| v as u32).collect();
    let mut used: Vec<u32> = Vec::new();
    let mut rounds: Vec<Vec<Query>> = vec![Vec::new(); w.rounds];
    for &(prim, count) in w.mix {
        let sources = if prim.needs_source() {
            stratified(&members, count * w.rounds, &mut used, &mut rng)
        } else {
            Vec::new()
        };
        for (r, round) in rounds.iter_mut().enumerate() {
            round.extend(
                (0..count).map(|i| Query { prim, source: sources.get(r * count + i).copied() }),
            );
        }
    }
    for round in &mut rounds {
        shuffle(round, &mut rng);
    }
    rounds.concat()
}

/// A reference answer for one (primitive, source).
#[derive(Debug, Clone)]
pub enum Expected {
    /// BFS/DOBFS depths or SSSP distances: exact.
    Exact(Vec<u32>),
    /// Component labels (smallest member id): exact.
    Components(Vec<usize>),
    /// PageRank: relative tolerance.
    Ranks(Vec<f64>),
    /// Betweenness dependencies: tolerance scaled by `1 + b`.
    Scores(Vec<f64>),
}

/// PageRank settings every PR query uses (the bench bridge's fixed 20
/// iterations, no early exit).
pub const PR_ITERS: usize = 20;

/// Compute the reference answer on the host.
pub fn reference_for(q: Query, g: &Csr<u32, u64>) -> Expected {
    let src = q.source.unwrap_or(0);
    match q.prim {
        Bfs | Dobfs => Expected::Exact(reference::bfs(g, src)),
        Sssp => Expected::Exact(reference::sssp(g, src)),
        Cc => Expected::Components(reference::cc(g)),
        Pr => Expected::Ranks(reference::pagerank(g, 0.85, PR_ITERS)),
        Bc => Expected::Scores(reference::bc(g, src)),
    }
}

/// Check harvested result words against `expected`, with the tolerances
/// the cross-primitive integration tests use for PR and BC.
pub fn check(expected: &Expected, words: &[u64]) -> Result<(), String> {
    let n = match expected {
        Expected::Exact(v) => v.len(),
        Expected::Components(v) => v.len(),
        Expected::Ranks(v) | Expected::Scores(v) => v.len(),
    };
    if words.len() != n {
        return Err(format!("harvested {} words for {n} vertices", words.len()));
    }
    let f32_at = |v: usize| f32::from_bits(words[v] as u32) as f64;
    for v in 0..n {
        let ok = match expected {
            Expected::Exact(e) => words[v] == u64::from(e[v]),
            Expected::Components(e) => words[v] == e[v] as u64,
            Expected::Ranks(e) => (f32_at(v) - e[v]).abs() < 1e-3 * (e[v] + 1e-12),
            Expected::Scores(e) => (f32_at(v) - e[v]).abs() < 1e-3 * (1.0 + e[v]),
        };
        if !ok {
            let want = match expected {
                Expected::Exact(e) => e[v].to_string(),
                Expected::Components(e) => e[v].to_string(),
                Expected::Ranks(e) | Expected::Scores(e) => e[v].to_string(),
            };
            let got = match expected {
                Expected::Ranks(_) | Expected::Scores(_) => f32_at(v).to_string(),
                _ => words[v].to_string(),
            };
            return Err(format!("vertex {v}: harvested {got}, reference {want}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_gen::preferential_attachment;
    use mgpu_graph::GraphBuilder;

    fn graph() -> Csr<u32, u64> {
        GraphBuilder::undirected(&preferential_attachment(200, 4, 3))
    }

    #[test]
    fn script_is_a_function_of_the_seed() {
        let g = graph();
        let w = by_name("soc-queries").unwrap();
        let a = script(w, &g, 7);
        assert_eq!(a, script(w, &g, 7));
        assert_ne!(a, script(w, &g, 8));
        let total: usize = w.rounds * w.mix.iter().map(|m| m.1).sum::<usize>();
        assert_eq!(a.len(), total);
        for q in &a {
            assert_eq!(q.source.is_some(), q.prim.needs_source());
        }
        let mut sources: Vec<u32> = a.iter().filter_map(|q| q.source).collect();
        let n = sources.len();
        sources.sort_unstable();
        sources.dedup();
        assert_eq!(sources.len(), n, "sources are distinct");
    }

    #[test]
    fn sources_take_one_vertex_per_stratum() {
        let members: Vec<u32> = (0..100).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut used = vec![0, 1, 2];
        let mut picks = stratified(&members, 10, &mut used, &mut rng);
        assert_eq!(used.len(), 13);
        picks.sort_unstable();
        for (s, v) in picks.iter().enumerate() {
            assert_eq!(*v as usize / 10, s, "pick {v} lies in stratum {s}");
        }
        // More strata than members still yields distinct sources.
        let mut used = Vec::new();
        let mut picks = stratified(&members[..5], 5, &mut used, &mut rng);
        picks.sort_unstable();
        assert_eq!(picks, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn minimum_sessions_carry_a_p90() {
        for w in WORKLOADS {
            let per_session = w.rounds * w.mix.iter().map(|m| m.1).sum::<usize>();
            let k = min_sessions(w);
            assert!(k >= 4);
            assert!(stats::beyond(0.9, (k - 1) * per_session) >= stats::MIN_BEYOND, "{}", w.name);
        }
        assert_eq!(min_sessions(by_name("ingest-rmat").unwrap()), 4);
        assert_eq!(min_sessions(by_name("service-mix").unwrap()), 5);
    }

    #[test]
    fn oracle_flags_a_wrong_word() {
        let g = graph();
        let q = Query { prim: Bfs, source: Some(0) };
        let e = reference_for(q, &g);
        let Expected::Exact(d) = &e else { panic!("bfs is exact") };
        let mut words: Vec<u64> = d.iter().map(|&x| u64::from(x)).collect();
        assert!(check(&e, &words).is_ok());
        words[5] += 1;
        assert!(check(&e, &words).is_err());
        assert!(check(&e, &words[1..]).is_err());
    }
}
