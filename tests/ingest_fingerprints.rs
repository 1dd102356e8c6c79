//! Pinned generator and builder output.
//!
//! Every committed simulation baseline, golden trace and benchmark result
//! rests on the graphs `Dataset::generate` + `add_paper_weights` produce and
//! on the CSR `GraphBuilder::undirected` builds from them. These
//! fingerprints were recorded before the ingest path was rewritten (wide
//! ChaCha8 refill, branchless R-MAT quadrant pick, counting-sort CSR); any
//! change to the RNG stream, the generators or the preprocessing order
//! fails here first.

use mgpu_graph_analytics::gen::{weights::add_paper_weights, Dataset};
use mgpu_graph_analytics::graph::{Csr, GraphBuilder};

/// The seeds the end-to-end benchmark uses.
const DATASET_SEED: u64 = 42;
const SHIFT: u32 = 10;

/// FNV-1a over the little-endian bytes of a word stream.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(edges, weights, csr)` fingerprints of one dataset at [`SHIFT`].
fn fingerprints(name: &str) -> [u64; 3] {
    let ds = Dataset::by_name(name).expect("dataset in the catalog");
    let mut coo = ds.generate(SHIFT, DATASET_SEED);
    add_paper_weights(&mut coo, DATASET_SEED ^ 0x77);
    let edges = fnv(coo.edges.iter().flat_map(|&(s, d)| [s as u64, d as u64]));
    let weights = fnv(coo.weights.as_ref().expect("weighted").iter().map(|&w| w as u64));
    let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
    let csr = fnv(g
        .row_offsets()
        .iter()
        .copied()
        .chain(g.col_indices().iter().map(|&c| c as u64))
        .chain((0..g.n_edges()).map(|e| g.edge_weight(e) as u64)));
    [edges, weights, csr]
}

fn check(name: &str, expected: [u64; 3]) {
    let got = fingerprints(name);
    assert_eq!(
        got, expected,
        "{name}: ingest output changed; got [{:#018x}, {:#018x}, {:#018x}]",
        got[0], got[1], got[2]
    );
}

#[test]
fn rmat_output_is_pinned() {
    check("rmat_2Mv_128Me", [0xa0f9_c892_9d6f_1b81, 0xb4a3_bb8e_ae98_c2cc, 0x1914_e1ee_98b4_fe7b]);
}

#[test]
fn soc_output_is_pinned() {
    check("soc-orkut", [0xb66e_cfb7_5fc4_c77c, 0xcbce_888a_5e2a_c855, 0xd3e7_5adc_f697_c235]);
}

#[test]
fn road_output_is_pinned() {
    check("road-analog", [0x8a96_7c7b_6879_6865, 0xdc8e_da3d_89c4_2593, 0xa795_e6bf_de99_ea3a]);
}
