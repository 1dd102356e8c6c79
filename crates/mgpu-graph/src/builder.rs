//! The preprocessing builder: COO → canonical CSR.
//!
//! The paper's experimental setup (§VII-A): "all graphs we use are converted
//! to undirected graphs. Self-loops and duplicated edges are removed." The
//! builder implements exactly that pipeline as linear counting-sort passes
//! written straight into the CSR arrays.
//!
//! The output is defined by a simple (slow) pipeline: list every edge, then
//! (when symmetrizing) every edge reversed; drop self-loops; stable-sort by
//! `(src, dst)`; keep the first of each run of equal pairs. The passes below
//! produce exactly that. A stable counting sort by `dst` followed by a
//! stable counting sort by `src` is a stable sort by `(src, dst)` (LSD
//! order), so each row comes out sorted with parallel edges in list order,
//! and the dedup keeps the first-listed weight.

use crate::coo::Coo;
use crate::csr::{check_widths, Csr, CsrError, RowScatter};
use crate::ids::Id;

/// Preprocessing switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildOptions {
    /// Add the reverse of every edge (undirected conversion).
    pub symmetrize: bool,
    /// Drop `v → v` edges.
    pub remove_self_loops: bool,
    /// Drop duplicate `(src, dst)` pairs (keeping the first weight).
    pub dedup: bool,
    /// Sort each adjacency row by destination id (canonical order).
    pub sort_rows: bool,
}

impl Default for BuildOptions {
    /// The paper's preprocessing: undirected, no self-loops, no duplicates.
    fn default() -> Self {
        BuildOptions { symmetrize: true, remove_self_loops: true, dedup: true, sort_rows: true }
    }
}

impl BuildOptions {
    /// Keep the graph directed but still clean it.
    pub fn directed() -> Self {
        BuildOptions { symmetrize: false, ..Default::default() }
    }

    /// No preprocessing at all (trust the input).
    pub fn raw() -> Self {
        BuildOptions { symmetrize: false, remove_self_loops: false, dedup: false, sort_rows: false }
    }
}

/// A CSR at whichever offset width the graph needs: the narrow (u32) layout
/// when the final edge count fits 32 bits — the paper's fast path, whose
/// per-device cost model rewards the halved index bandwidth — widened to
/// u64 offsets otherwise. Built by [`GraphBuilder::build_auto`]; the check
/// is on the *post-preprocessing* edge count, and overflow always widens,
/// never truncates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsrAuto<V: Id> {
    /// `Csr<V, u32>` — edge count fits 32-bit offsets.
    Narrow(Csr<V, u32>),
    /// `Csr<V, u64>` — the checked widening fallback.
    Wide(Csr<V, u64>),
}

impl<V: Id> CsrAuto<V> {
    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        match self {
            CsrAuto::Narrow(g) => g.n_vertices(),
            CsrAuto::Wide(g) => g.n_vertices(),
        }
    }

    /// Number of directed edges.
    pub fn n_edges(&self) -> usize {
        match self {
            CsrAuto::Narrow(g) => g.n_edges(),
            CsrAuto::Wide(g) => g.n_edges(),
        }
    }

    /// Bytes per edge offset in the chosen layout.
    pub fn offset_bytes(&self) -> usize {
        match self {
            CsrAuto::Narrow(_) => 4,
            CsrAuto::Wide(_) => 8,
        }
    }

    /// Short label for reports ("u32" / "u64").
    pub fn label(&self) -> &'static str {
        match self {
            CsrAuto::Narrow(_) => "u32",
            CsrAuto::Wide(_) => "u64",
        }
    }

    /// The narrow graph, if that is what was built.
    pub fn narrow(&self) -> Option<&Csr<V, u32>> {
        match self {
            CsrAuto::Narrow(g) => Some(g),
            CsrAuto::Wide(_) => None,
        }
    }

    /// The wide graph, if the fallback engaged.
    pub fn wide(&self) -> Option<&Csr<V, u64>> {
        match self {
            CsrAuto::Wide(g) => Some(g),
            CsrAuto::Narrow(_) => None,
        }
    }
}

/// Feed `f` the edge list in pipeline order as `(row, col, weight)`: every
/// edge, then every edge reversed when symmetrizing, self-loops dropped
/// when asked.
fn for_each_entry<V: Id>(coo: &Coo<V>, options: BuildOptions, mut f: impl FnMut(V, V, u32)) {
    let kept = || coo.iter_weighted().filter(|&(s, d, _)| !(options.remove_self_loops && s == d));
    kept().for_each(|(s, d, w)| f(s, d, w));
    if options.symmetrize {
        kept().for_each(|(s, d, w)| f(d, s, w));
    }
}

/// Preprocessed rows with `usize` offsets, before the offset width is
/// chosen.
struct Adjacency<V> {
    offsets: Vec<usize>,
    cols: Vec<V>,
    weights: Option<Vec<u32>>,
}

impl<V: Id> Adjacency<V> {
    fn n_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Keep the first of each run of equal columns in every row (rows are
    /// sorted, so that drops every duplicate), compacting in place.
    fn dedup_sorted_rows(&mut self) {
        let mut kept = 0usize;
        let mut start = 0usize;
        for v in 0..self.n_vertices() {
            let end = self.offsets[v + 1];
            let mut prev = None;
            for e in start..end {
                let c = self.cols[e];
                if prev != Some(c) {
                    prev = Some(c);
                    self.cols[kept] = c;
                    if let Some(ws) = &mut self.weights {
                        ws[kept] = ws[e];
                    }
                    kept += 1;
                }
            }
            start = end;
            self.offsets[v + 1] = kept;
        }
        self.cols.truncate(kept);
        self.cols.shrink_to_fit();
        if let Some(ws) = &mut self.weights {
            ws.truncate(kept);
            ws.shrink_to_fit();
        }
    }

    fn into_csr<O: Id>(self) -> Result<Csr<V, O>, CsrError> {
        check_widths::<V, O>(self.n_vertices(), self.cols.len())?;
        Ok(Csr::from_usize_offsets(&self.offsets, self.cols, self.weights))
    }
}

/// Stateless builder entry points.
pub struct GraphBuilder;

impl GraphBuilder {
    /// The shared preprocessing pipeline: symmetrize / clean / sort / dedup
    /// into CSR arrays with `usize` offsets.
    fn preprocess<V: Id>(coo: &Coo<V>, options: BuildOptions) -> Adjacency<V> {
        let n = coo.n_vertices;
        let weighted = coo.weights.is_some();
        let mut out_degree = vec![0usize; n];
        let mut in_degree = vec![0usize; n];
        for_each_entry(coo, options, |s, d, _| {
            out_degree[s.idx()] += 1;
            in_degree[d.idx()] += 1;
        });

        let mut rows = RowScatter::new(&out_degree, weighted);
        if options.sort_rows || options.dedup {
            // Stable pass by destination, then the stable pass by source
            // below: together a stable sort by (src, dst).
            let mut by_dst = RowScatter::new(&in_degree, weighted);
            for_each_entry(coo, options, |s, d, w| by_dst.push(d.idx(), s, w));
            let (offsets, srcs, ws) = by_dst.finish();
            for d in 0..n {
                let dst = V::from_usize(d);
                for e in offsets[d]..offsets[d + 1] {
                    rows.push(srcs[e].idx(), dst, ws.as_ref().map_or(1, |ws| ws[e]));
                }
            }
        } else {
            for_each_entry(coo, options, |s, d, w| rows.push(s.idx(), d, w));
        }
        let (offsets, cols, weights) = rows.finish();
        let mut adj = Adjacency { offsets, cols, weights };
        if options.dedup {
            adj.dedup_sorted_rows();
        }
        adj
    }

    /// Apply `options` to `coo` and produce a CSR graph.
    pub fn build<V: Id, O: Id>(coo: &Coo<V>, options: BuildOptions) -> Csr<V, O> {
        Self::preprocess(coo, options).into_csr().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The paper's default preprocessing.
    pub fn undirected<V: Id, O: Id>(coo: &Coo<V>) -> Csr<V, O> {
        Self::build(coo, BuildOptions::default())
    }

    /// [`GraphBuilder::build_auto`] generic over the narrow offset type `N`
    /// so tests can exercise the fallback with `u16` (a genuine u32 overflow
    /// would need a >4-billion-edge graph). `Ok` is the narrow build, `Err`
    /// the u64 fallback; the check is on the preprocessed edge count. A
    /// vertex-width overflow is not recoverable by widening offsets and
    /// panics with the typed error's message.
    fn narrow_or_widen<V: Id, N: Id>(
        coo: &Coo<V>,
        options: BuildOptions,
    ) -> Result<Csr<V, N>, Csr<V, u64>> {
        let clean = Self::preprocess(coo, options);
        match check_widths::<V, N>(clean.n_vertices(), clean.cols.len()) {
            Ok(()) => Ok(clean.into_csr().expect("widths checked above")),
            Err(CsrError::OffsetOverflow { .. }) => {
                Err(clean.into_csr().unwrap_or_else(|e| panic!("{e}")))
            }
            Err(e @ CsrError::VertexOverflow { .. }) => panic!("{e}"),
        }
    }

    /// [`GraphBuilder::build`] at the automatically chosen offset width:
    /// narrow (u32) when the preprocessed edge count fits, else the checked
    /// u64 fallback.
    pub fn build_auto<V: Id>(coo: &Coo<V>, options: BuildOptions) -> CsrAuto<V> {
        match Self::narrow_or_widen::<V, u32>(coo, options) {
            Ok(g) => CsrAuto::Narrow(g),
            Err(g) => CsrAuto::Wide(g),
        }
    }

    /// [`GraphBuilder::undirected`] at the automatically chosen offset width.
    pub fn undirected_auto<V: Id>(coo: &Coo<V>) -> CsrAuto<V> {
        Self::build_auto(coo, BuildOptions::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn messy() -> Coo<u32> {
        // duplicates, a self loop, directed edges
        Coo::from_edges(4, vec![(0, 1), (0, 1), (1, 1), (2, 3), (3, 2)], None)
    }

    #[test]
    fn default_build_symmetrizes_dedups_and_removes_loops() {
        let g: Csr<u32, u64> = GraphBuilder::undirected(&messy());
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(2), &[3]);
        assert_eq!(g.neighbors(3), &[2]);
        assert_eq!(g.n_edges(), 4);
    }

    #[test]
    fn directed_build_keeps_direction() {
        let g: Csr<u32, u64> = GraphBuilder::build(&messy(), BuildOptions::directed());
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[] as &[u32], "self-loop removed, no reverse edge added");
        assert_eq!(g.n_edges(), 3);
    }

    #[test]
    fn raw_build_preserves_everything() {
        let g: Csr<u32, u64> = GraphBuilder::build(&messy(), BuildOptions::raw());
        assert_eq!(g.n_edges(), 5);
        assert_eq!(g.neighbors(1), &[1]);
    }

    #[test]
    fn dedup_keeps_first_weight() {
        let coo = Coo::from_edges(2, vec![(0, 1), (0, 1)], Some(vec![7, 9]));
        let g: Csr<u32, u64> =
            GraphBuilder::build(&coo, BuildOptions { symmetrize: false, ..Default::default() });
        let w: Vec<_> = g.neighbors_weighted(0).collect();
        assert_eq!(w, vec![(1, 7)]);
    }

    #[test]
    fn symmetrized_weights_mirror() {
        let coo = Coo::from_edges(3, vec![(0, 1), (1, 2)], Some(vec![5, 6]));
        let g: Csr<u32, u64> = GraphBuilder::undirected(&coo);
        assert_eq!(g.neighbors_weighted(1).collect::<Vec<_>>(), vec![(0, 5), (2, 6)]);
    }

    #[test]
    fn rows_are_sorted() {
        let coo = Coo::from_edges(5, vec![(0, 4), (0, 2), (0, 3), (0, 1)], None);
        let g: Csr<u32, u64> =
            GraphBuilder::build(&coo, BuildOptions { symmetrize: false, ..Default::default() });
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn auto_build_is_narrow_when_edges_fit() {
        let auto = GraphBuilder::undirected_auto(&messy());
        let expected: Csr<u32, u32> = GraphBuilder::undirected(&messy());
        assert_eq!(auto.label(), "u32");
        assert_eq!(auto.offset_bytes(), 4);
        assert_eq!(auto.n_vertices(), 4);
        assert_eq!(auto.n_edges(), 4);
        assert_eq!(auto.narrow(), Some(&expected));
        assert!(auto.wide().is_none());
    }

    #[test]
    fn widening_fallback_preserves_every_edge() {
        // A star too big for u16 offsets exercises the fallback arm; the
        // widened build must match a direct u64 build edge for edge — the
        // overflow may never truncate.
        let edges: Vec<(u32, u32)> = (1..=70_000).map(|d| (0, d)).collect();
        let coo = Coo::from_edges(70_001, edges, None);
        assert!(matches!(
            Csr::<u32, u16>::try_from_coo(&coo),
            Err(CsrError::OffsetOverflow { edges: 70_000, .. })
        ));
        let wide = GraphBuilder::narrow_or_widen::<u32, u16>(&coo, BuildOptions::raw())
            .expect_err("70k edges must not fit u16 offsets");
        let direct: Csr<u32, u64> = Csr::from_coo(&coo);
        assert_eq!(wide, direct);
        assert_eq!(wide.n_edges(), 70_000);
        assert_eq!(wide.degree(0), 70_000);
    }

    #[test]
    fn counting_sort_build_matches_the_comparison_sort_oracle() {
        for seed in 0..150 {
            for weighted in [false, true] {
                let coo = oracle::random_coo(seed, 24, 120, weighted);
                for options in oracle::all_options() {
                    let got: Csr<u32, u64> = GraphBuilder::build(&coo, options);
                    let want: Csr<u32, u64> = oracle::build(&coo, options);
                    assert_eq!(got, want, "seed {seed}, weighted {weighted}, {options:?}");
                    let got: Csr<u32, u32> = GraphBuilder::build(&coo, options);
                    assert_eq!(got, oracle::build(&coo, options), "u32 offsets, seed {seed}");
                }
            }
        }
    }

    #[test]
    fn auto_build_at_u16_matches_the_oracle_on_both_arms() {
        // ~50k raw edges over 400 vertices: directed builds fit u16 offsets,
        // symmetrized ones overflow them, so both arms are compared.
        let (mut narrow, mut wide) = (0, 0);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let edges: Vec<(u32, u32)> =
            (0..50_000).map(|_| (rng.gen_range(0..400), rng.gen_range(0..400))).collect();
        for weighted in [false, true] {
            let weights = weighted.then(|| (0..50_000).collect());
            let coo = Coo::from_edges(400, edges.clone(), weights);
            for options in oracle::all_options() {
                let clean = oracle::preprocess(&coo, options);
                match GraphBuilder::narrow_or_widen::<u32, u16>(&coo, options) {
                    Ok(g) => {
                        narrow += 1;
                        assert!(clean.len() <= u16::MAX as usize);
                        assert_eq!(
                            g,
                            oracle::csr_from_triples(400, clean, weighted),
                            "{options:?}"
                        );
                    }
                    Err(g) => {
                        wide += 1;
                        assert!(clean.len() > u16::MAX as usize);
                        assert_eq!(
                            g,
                            oracle::csr_from_triples(400, clean, weighted),
                            "{options:?}"
                        );
                    }
                }
            }
        }
        assert!(narrow > 0 && wide > 0, "narrow {narrow}, wide {wide}");
    }

    #[test]
    #[should_panic(expected = "vertex count")]
    fn vertex_overflow_panics_rather_than_widening() {
        // 70k vertices cannot be addressed by u16 ids; widening the offset
        // type cannot fix that, so the builder refuses loudly.
        let coo = Coo::<u16>::from_edges(70_000, vec![], None);
        let _ = GraphBuilder::narrow_or_widen::<u16, u16>(&coo, BuildOptions::raw());
    }
}
