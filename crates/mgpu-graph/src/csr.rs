//! Compressed sparse row adjacency — the device-resident graph format.

use crate::coo::Coo;
use crate::ids::Id;

/// Why a graph cannot be represented at the requested index widths. The
/// narrow (u32) CSR is the paper's fast path (Table V: 64-bit ids "double
/// bandwidth requirements and our performance drops accordingly"); when a
/// graph exceeds the 32-bit range the builder must *widen*, never silently
/// truncate — these errors are how the checked fallback is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsrError {
    /// The edge count does not fit the offset type `O`.
    OffsetOverflow {
        /// Edges the graph has.
        edges: usize,
        /// Largest count the offset type can address.
        max: usize,
    },
    /// The vertex count does not fit the vertex-id type `V` (the last vertex
    /// id would be unaddressable). Widening the *offset* type cannot fix
    /// this; the vertex type itself is too narrow.
    VertexOverflow {
        /// Vertices the graph has.
        vertices: usize,
        /// Largest vertex count the id type can address.
        max: usize,
    },
}

impl std::fmt::Display for CsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsrError::OffsetOverflow { edges, max } => {
                write!(f, "edge count {edges} does not fit in the offset type (max {max})")
            }
            CsrError::VertexOverflow { vertices, max } => {
                write!(f, "vertex count {vertices} does not fit in the vertex id type (max {max})")
            }
        }
    }
}

impl std::error::Error for CsrError {}

/// Errors unless `n_vertices` ids fit `V` and `n_edges` offsets fit `O`.
pub(crate) fn check_widths<V: Id, O: Id>(
    n_vertices: usize,
    n_edges: usize,
) -> Result<(), CsrError> {
    if n_edges > O::MAX_AS_USIZE {
        return Err(CsrError::OffsetOverflow { edges: n_edges, max: O::MAX_AS_USIZE });
    }
    // ids run 0..n, so the largest id is n-1; MAX_AS_USIZE+1 vertices fit
    if n_vertices > 0 && n_vertices - 1 > V::MAX_AS_USIZE {
        return Err(CsrError::VertexOverflow {
            vertices: n_vertices,
            max: V::MAX_AS_USIZE.saturating_add(1),
        });
    }
    Ok(())
}

/// A stable counting sort into CSR rows: with every row's degree known up
/// front, each pushed entry lands at the next free slot of its row, so a
/// row lists its entries in push order. `O(|V| + |E|)`.
pub(crate) struct RowScatter<V> {
    /// `next[r + 1]` is the next free slot of row `r`; once every entry is
    /// pushed it is the end of row `r`, and `next` is the offsets array.
    next: Vec<usize>,
    cols: Vec<V>,
    weights: Option<Vec<u32>>,
}

impl<V: Id> RowScatter<V> {
    /// Room for `degree[r]` entries in each row `r`.
    pub(crate) fn new(degree: &[usize], weighted: bool) -> Self {
        let mut next = vec![0usize; degree.len() + 1];
        let mut acc = 0usize;
        for (slot, &d) in next[1..].iter_mut().zip(degree) {
            *slot = acc;
            acc += d;
        }
        RowScatter { next, cols: vec![V::default(); acc], weights: weighted.then(|| vec![0; acc]) }
    }

    /// Append `(col, w)` to row `row`; `w` is dropped when unweighted.
    #[inline]
    pub(crate) fn push(&mut self, row: usize, col: V, w: u32) {
        let at = self.next[row + 1];
        self.next[row + 1] = at + 1;
        self.cols[at] = col;
        if let Some(ws) = &mut self.weights {
            ws[at] = w;
        }
    }

    /// `(offsets, cols, weights)`; every row must be full.
    pub(crate) fn finish(self) -> (Vec<usize>, Vec<V>, Option<Vec<u32>>) {
        debug_assert_eq!(self.next.last().copied(), Some(self.cols.len()), "rows not full");
        (self.next, self.cols, self.weights)
    }
}

/// A CSR graph with vertex ids of type `V` and edge offsets of type `O`.
///
/// `O` must be wide enough for `n_edges`; the builder checks this. The
/// paper's "32bit eID / 64bit eID / 64bit vID" variants of Table V are
/// `Csr<u32, u32>`, `Csr<u32, u64>` and `Csr<u64, u64>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr<V: Id = u32, O: Id = u64> {
    row_offsets: Vec<O>,
    col_indices: Vec<V>,
    weights: Option<Vec<u32>>,
}

impl<V: Id, O: Id> Csr<V, O> {
    /// Build directly from parts (offsets must be monotonically
    /// non-decreasing, starting at 0 and ending at `col_indices.len()`).
    pub fn from_parts(row_offsets: Vec<O>, col_indices: Vec<V>, weights: Option<Vec<u32>>) -> Self {
        assert!(!row_offsets.is_empty(), "row offsets need at least the terminating entry");
        assert_eq!(row_offsets[0].idx(), 0, "offsets start at 0");
        assert_eq!(
            row_offsets.last().unwrap().idx(),
            col_indices.len(),
            "offsets must end at the edge count"
        );
        debug_assert!(row_offsets.windows(2).all(|w| w[0] <= w[1]), "offsets non-decreasing");
        if let Some(w) = &weights {
            assert_eq!(w.len(), col_indices.len(), "one weight per edge");
        }
        Csr { row_offsets, col_indices, weights }
    }

    /// An edgeless graph over `n` vertices.
    pub fn empty(n: usize) -> Self {
        Csr { row_offsets: vec![O::zero(); n + 1], col_indices: Vec::new(), weights: None }
    }

    /// Build from an edge list by counting sort (stable: preserves the input
    /// order of parallel edges within a row). `O(|V| + |E|)`. Panics on
    /// index-width overflow; [`Csr::try_from_coo`] is the checked variant
    /// the auto-widening builder uses.
    pub fn from_coo(coo: &Coo<V>) -> Self {
        Self::try_from_coo(coo).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Csr::from_coo`] with a typed width check: errors (never truncates)
    /// when the edge count overflows `O` or the vertex count overflows `V`.
    pub fn try_from_coo(coo: &Coo<V>) -> Result<Self, CsrError> {
        check_widths::<V, O>(coo.n_vertices, coo.n_edges())?;
        let mut degree = vec![0usize; coo.n_vertices];
        for &(s, _) in &coo.edges {
            degree[s.idx()] += 1;
        }
        let mut rows = RowScatter::new(&degree, coo.weights.is_some());
        for (s, d, w) in coo.iter_weighted() {
            rows.push(s.idx(), d, w);
        }
        let (offsets, cols, weights) = rows.finish();
        Ok(Self::from_usize_offsets(&offsets, cols, weights))
    }

    /// Narrow `usize` offsets to `O`. The caller has checked the widths.
    pub(crate) fn from_usize_offsets(
        offsets: &[usize],
        cols: Vec<V>,
        weights: Option<Vec<u32>>,
    ) -> Self {
        Self::from_parts(offsets.iter().map(|&o| O::from_usize(o)).collect(), cols, weights)
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// Number of directed edges.
    pub fn n_edges(&self) -> usize {
        self.col_indices.len()
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: V) -> usize {
        self.row_offsets[v.idx() + 1].idx() - self.row_offsets[v.idx()].idx()
    }

    /// The edge-id range of `v`'s out-edges.
    pub fn edge_range(&self, v: V) -> std::ops::Range<usize> {
        self.row_offsets[v.idx()].idx()..self.row_offsets[v.idx() + 1].idx()
    }

    /// Out-neighbors of `v`.
    pub fn neighbors(&self, v: V) -> &[V] {
        &self.col_indices[self.edge_range(v)]
    }

    /// Out-neighbors of `v` with weights (1 if unweighted).
    pub fn neighbors_weighted(&self, v: V) -> impl Iterator<Item = (V, u32)> + '_ {
        let r = self.edge_range(v);
        let cols = &self.col_indices[r.clone()];
        let ws = self.weights.as_deref();
        let start = r.start;
        cols.iter().enumerate().map(move |(i, &d)| (d, ws.map_or(1, |w| w[start + i])))
    }

    /// The weight of edge id `e` (1 if unweighted).
    pub fn edge_weight(&self, e: usize) -> u32 {
        self.weights.as_ref().map_or(1, |w| w[e])
    }

    /// Whether the graph carries edge weights.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Raw row offsets (length `n_vertices + 1`).
    pub fn row_offsets(&self) -> &[O] {
        &self.row_offsets
    }

    /// Raw column indices (length `n_edges`).
    pub fn col_indices(&self) -> &[V] {
        &self.col_indices
    }

    /// Raw edge weights (length `n_edges`), if weighted.
    pub fn weights(&self) -> Option<&[u32]> {
        self.weights.as_deref()
    }

    /// The transpose (reverse graph): the CSC view used by pull-mode
    /// traversal. Weights follow their edges; each reversed row lists its
    /// sources in increasing order.
    pub fn transpose(&self) -> Csr<V, O> {
        let n = self.n_vertices();
        let mut degree = vec![0usize; n];
        for &d in &self.col_indices {
            degree[d.idx()] += 1;
        }
        let mut rows = RowScatter::new(&degree, self.is_weighted());
        for v in 0..n {
            let src = V::from_usize(v);
            for e in self.edge_range(src) {
                rows.push(self.col_indices[e].idx(), src, self.edge_weight(e));
            }
        }
        let (offsets, cols, weights) = rows.finish();
        Csr::from_usize_offsets(&offsets, cols, weights)
    }

    /// In-memory footprint in bytes: what storing this graph costs a device
    /// (offsets + columns + weights). This is what partition subgraphs charge
    /// against device memory pools.
    pub fn bytes(&self) -> u64 {
        (self.row_offsets.len() * O::BYTES
            + self.col_indices.len() * V::BYTES
            + self.weights.as_ref().map_or(0, |w| w.len() * 4)) as u64
    }

    /// Sum of out-degrees of the given frontier — the advance workload size.
    pub fn frontier_out_degree(&self, frontier: &[V]) -> usize {
        frontier.iter().map(|&v| self.degree(v)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{oracle, GraphBuilder};

    fn diamond() -> Csr<u32, u64> {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let coo = Coo::from_edges(4, vec![(0, 1), (0, 2), (1, 3), (2, 3)], None);
        Csr::from_coo(&coo)
    }

    #[test]
    fn from_coo_builds_correct_adjacency() {
        let g = diamond();
        assert_eq!(g.n_vertices(), 4);
        assert_eq!(g.n_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[3]);
        assert_eq!(g.neighbors(3), &[] as &[u32]);
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn counting_sort_is_stable_for_parallel_edges() {
        let coo = Coo::from_edges(2, vec![(0, 1), (0, 0), (0, 1)], Some(vec![10, 20, 30]));
        let g: Csr<u32, u64> = Csr::from_coo(&coo);
        assert_eq!(g.neighbors(0), &[1, 0, 1]);
        let ws: Vec<u32> = g.neighbors_weighted(0).map(|(_, w)| w).collect();
        assert_eq!(ws, vec![10, 20, 30]);
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = diamond();
        let t = g.transpose();
        assert_eq!(t.neighbors(3), &[1, 2]);
        assert_eq!(t.neighbors(0), &[] as &[u32]);
        assert_eq!(t.transpose(), g, "transpose is an involution on canonical order");
    }

    #[test]
    fn transpose_carries_weights() {
        let coo = Coo::from_edges(3, vec![(0, 1), (1, 2)], Some(vec![5, 6]));
        let g: Csr<u32, u64> = Csr::from_coo(&coo);
        let t = g.transpose();
        let w: Vec<_> = t.neighbors_weighted(2).collect();
        assert_eq!(w, vec![(1, 6)]);
    }

    #[test]
    fn transpose_matches_the_coo_oracle() {
        for seed in 0..150 {
            for weighted in [false, true] {
                let coo = oracle::random_coo(seed, 24, 120, weighted);
                let g: Csr<u32, u64> = Csr::from_coo(&coo);
                assert_eq!(g.transpose(), oracle::transpose(&g), "seed {seed}");
                let g: Csr<u32, u32> = GraphBuilder::undirected(&coo);
                assert_eq!(g.transpose(), oracle::transpose(&g), "seed {seed}, undirected");
            }
        }
    }

    #[test]
    fn bytes_accounts_offsets_columns_weights() {
        let g = diamond();
        assert_eq!(g.bytes(), (5 * 8 + 4 * 4) as u64);
        let coo = Coo::from_edges(2, vec![(0, 1)], Some(vec![1]));
        let gw: Csr<u32, u32> = Csr::from_coo(&coo);
        assert_eq!(gw.bytes(), (3 * 4 + 4 + 4) as u64);
    }

    #[test]
    fn frontier_out_degree_sums() {
        let g = diamond();
        assert_eq!(g.frontier_out_degree(&[0, 1]), 3);
        assert_eq!(g.frontier_out_degree(&[]), 0);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::<u32, u64>::empty(3);
        assert_eq!(g.n_vertices(), 3);
        assert_eq!(g.n_edges(), 0);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn offset_overflow_is_typed() {
        let edges: Vec<(u32, u32)> = (1..=70_000).map(|d| (0, d)).collect();
        let coo = Coo::from_edges(70_001, edges, None);
        match Csr::<u32, u16>::try_from_coo(&coo) {
            Err(CsrError::OffsetOverflow { edges, max }) => {
                assert_eq!(edges, 70_000);
                assert_eq!(max, u16::MAX as usize);
            }
            other => panic!("expected OffsetOverflow, got {other:?}"),
        }
    }

    #[test]
    fn vertex_overflow_is_typed() {
        let coo = Coo::<u16>::from_edges(70_000, vec![], None);
        match Csr::<u16, u64>::try_from_coo(&coo) {
            Err(CsrError::VertexOverflow { vertices, max }) => {
                assert_eq!(vertices, 70_000);
                assert_eq!(max, 65_536);
            }
            other => panic!("expected VertexOverflow, got {other:?}"),
        }
    }

    #[test]
    fn width_boundaries_fit_exactly() {
        // 65535 edges is the largest count u16 offsets can terminate.
        let edges: Vec<(u32, u32)> = (1..=65_535).map(|d| (0, d)).collect();
        let g = Csr::<u32, u16>::try_from_coo(&Coo::from_edges(65_536, edges, None)).unwrap();
        assert_eq!(g.n_edges(), 65_535);
        assert_eq!(g.degree(0), 65_535);
        // 65536 vertices is the largest population u16 ids can address.
        let coo = Coo::<u16>::from_edges(65_536, vec![(0, 65_535)], None);
        assert!(Csr::<u16, u64>::try_from_coo(&coo).is_ok());
    }

    #[test]
    #[should_panic(expected = "does not fit in the offset type")]
    fn from_coo_panics_with_typed_message_on_overflow() {
        let edges: Vec<(u32, u32)> = (1..=70_000).map(|d| (0, d)).collect();
        let _ = Csr::<u32, u16>::from_coo(&Coo::from_edges(70_001, edges, None));
    }

    #[test]
    fn u64_ids_work() {
        let coo = Coo::<u64>::from_edges(3, vec![(0, 2), (2, 1)], None);
        let g: Csr<u64, u64> = Csr::from_coo(&coo);
        assert_eq!(g.neighbors(0), &[2]);
        assert_eq!(g.bytes(), (4 * 8 + 2 * 8) as u64);
    }
}
