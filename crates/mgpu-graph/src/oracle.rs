//! Test oracle: the comparison-sort ingest pipeline that the counting-sort
//! builder and the direct-scatter transpose replaced. The new code must
//! produce byte-equal CSRs (offsets, columns, weights) for every input.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::builder::BuildOptions;
use crate::coo::Coo;
use crate::csr::Csr;
use crate::ids::Id;

type Triple = (u32, u32, u32);

/// The preprocessed edge list: every edge, then every edge reversed when
/// symmetrizing; self-loops dropped; stable sort by `(src, dst)`; first of
/// each duplicate run kept.
pub(crate) fn preprocess(coo: &Coo<u32>, options: BuildOptions) -> Vec<Triple> {
    let mut triples: Vec<Triple> = coo.iter_weighted().collect();
    if options.symmetrize {
        let rev: Vec<Triple> = triples.iter().map(|&(s, d, w)| (d, s, w)).collect();
        triples.extend(rev);
    }
    if options.remove_self_loops {
        triples.retain(|&(s, d, _)| s != d);
    }
    if options.dedup || options.sort_rows {
        triples.sort_by_key(|&(s, d, _)| (s, d));
    }
    if options.dedup {
        triples.dedup_by_key(|&mut (s, d, _)| (s, d));
    }
    triples
}

/// CSR rows from triples, keeping their list order within each row.
pub(crate) fn csr_from_triples<O: Id>(
    n: usize,
    mut triples: Vec<Triple>,
    weighted: bool,
) -> Csr<u32, O> {
    triples.sort_by_key(|&(s, _, _)| s);
    let mut offsets = vec![0usize; n + 1];
    for &(s, _, _) in &triples {
        offsets[s as usize + 1] += 1;
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    Csr::from_parts(
        offsets.into_iter().map(O::from_usize).collect(),
        triples.iter().map(|&(_, d, _)| d).collect(),
        weighted.then(|| triples.iter().map(|&(_, _, w)| w).collect()),
    )
}

/// `GraphBuilder::build` as it was.
pub(crate) fn build<O: Id>(coo: &Coo<u32>, options: BuildOptions) -> Csr<u32, O> {
    csr_from_triples(coo.n_vertices, preprocess(coo, options), coo.weights.is_some())
}

/// `Csr::transpose` as it was: list the reversed edges row by row, then
/// build rows from them.
pub(crate) fn transpose<O: Id>(g: &Csr<u32, O>) -> Csr<u32, O> {
    let mut triples = Vec::with_capacity(g.n_edges());
    for v in 0..g.n_vertices() as u32 {
        for e in g.edge_range(v) {
            triples.push((g.col_indices()[e], v, g.edge_weight(e)));
        }
    }
    csr_from_triples(g.n_vertices(), triples, g.is_weighted())
}

/// A random edge list over at most `n_max` vertices with at most `m_max`
/// edges: repeated pairs (each with its own weight when weighted),
/// self-loops, and vertices with no edges.
pub(crate) fn random_coo(seed: u64, n_max: usize, m_max: usize, weighted: bool) -> Coo<u32> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = rng.gen_range(1..=n_max);
    // Endpoints come from a prefix, so the tail vertices have empty rows.
    let hot = rng.gen_range(1..=n);
    let m = rng.gen_range(0..=m_max);
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(m);
    for _ in 0..m {
        let e = match rng.gen_range(0..10) {
            0 if !edges.is_empty() => edges[rng.gen_range(0..edges.len())],
            1 => {
                let v = rng.gen_range(0..hot as u32);
                (v, v)
            }
            _ => (rng.gen_range(0..hot as u32), rng.gen_range(0..hot as u32)),
        };
        edges.push(e);
    }
    // Distinct weights, so keeping the wrong duplicate shows.
    let weights = weighted.then(|| (0..m as u32).map(|i| i * 3 + 1).collect());
    Coo::from_edges(n, edges, weights)
}

/// All sixteen combinations of the four preprocessing switches.
pub(crate) fn all_options() -> impl Iterator<Item = BuildOptions> {
    (0..16u32).map(|b| BuildOptions {
        symmetrize: b & 1 != 0,
        remove_self_loops: b & 2 != 0,
        dedup: b & 4 != 0,
        sort_rows: b & 8 != 0,
    })
}
