//! Task-level execution of a tiled QR factorization.
//!
//! [`FactorState`] owns the tiled matrix plus the accumulated reflector
//! factors and runs one DAG task at a time, in three phases so a parallel
//! runtime keeps its critical sections to a few pointer swaps:
//!
//! 1. [`FactorState::stage`] — move the written tiles out of the state
//!    (pointer swap against a shared zero placeholder) and hand read tiles
//!    / `T` factors to the task as `Arc` clones — **no `O(b²)` copies**,
//! 2. [`StagedTask::compute_with`] — no shared state: run the kernel on owned
//!    (written) and `Arc`-shared (read) data,
//! 3. [`FactorState::commit`] — put results back (pointer swaps again).
//!
//! Every tile and `T` factor sits in a plain slot, dense-indexed by tile: a
//! `GEQRT` factor by its panel tile `(i, k)`, an elimination factor by its
//! eliminated tile `(i, k)`, which fixes the pivot `p` (stored alongside),
//! and `−V₂ᵀ` while its updates run (DESIGN §13). Staging and commit take
//! `&mut self`: a parallel runtime calls them inside its own critical
//! section, and only the kernel — with a fenced stage's tile copies — runs
//! outside it (DESIGN §9). [`apply_qt_dense`] / [`apply_q_dense`] replay the
//! factor kernels over a dense right-hand side in program order, so `Q`
//! does not depend on the (nondeterministic) parallel schedule.
//! Every door to a factorization plans through [`FactorState::plan`] and
//! answers through [`FactorState::apply`] / [`FactorState::solve`].

use crate::factor::store_neg_transpose;
use crate::geqrt::pair_update;
use crate::workspace::Workspace;
use crate::{geqrt_apply_ws, geqrt_ws, tsqrt_ws, ttqrt_ws, ApplySide};
use std::sync::Arc;
use tileqr_dag::{EliminationTree, TaskGraph, TaskKind, TileCoord, TreePolicy};
use tileqr_matrix::{Matrix, MatrixError, Result, Scalar, TiledMatrix};

/// Write access to a written tile once [`StagedTask::compute_with`] has
/// copied any shared one, or to a spare: the task holds its only handle
/// until commit.
fn owned<T: Scalar>(a: &mut Tile<T>) -> &mut Matrix<T> {
    Arc::get_mut(a).expect("a staged tile has one handle")
}

/// A tile's handle: shared to read, unique to write.
type Tile<T> = Arc<Matrix<T>>;

/// An elimination `T` factor, its pivot row and, for a factor with two or
/// more trailing updates, `−V₂ᵀ` until the `pending` ones have committed.
#[derive(Debug, Clone)]
struct ElimFactor<T: Scalar> {
    p: usize,
    tfac: Tile<T>,
    vt: Option<Tile<T>>,
    pending: usize,
}

/// One trailing update of the factor in `slot` committed: the last one takes
/// `−V₂ᵀ` out.
fn settle<T: Scalar>(slot: &mut Option<ElimFactor<T>>) -> Option<Tile<T>> {
    let e = slot.as_mut()?;
    e.pending = e.pending.saturating_sub(1);
    e.vt.take_if(|_| e.pending == 0)
}

/// Mutable factorization state: the tiled matrix plus reflector factors,
/// each in its own slot. Staging and commit are pointer swaps and `Arc`
/// clones — `O(1)`, never `O(b²)` — so a runtime that serializes them
/// under its own lock holds it for a few stores per task.
#[derive(Debug)]
pub struct FactorState<T: Scalar> {
    /// The geometry: every tile is the placeholder (`tiles` holds them).
    grid: TiledMatrix<T>,
    /// Shared all-zero placeholder swapped in when a tile is staged out.
    empty: Tile<T>,
    /// Every tile, by `i*nt+j`.
    tiles: Vec<Tile<T>>,
    /// `T` factors of `GEQRT`, by the factored tile.
    geqrt_t: Vec<Option<Tile<T>>>,
    /// `T` factors of `TSQRT`/`TTQRT`, by the *eliminated* tile (which
    /// determines the pivot `p`, stored alongside).
    elim_t: Vec<Option<ElimFactor<T>>>,
    /// Tiles a fenced commit displaced and spent `−V₂ᵀ` blocks that nothing
    /// else holds: staged copies, `T` outputs and new blocks reuse these.
    spare: Vec<Tile<T>>,
    /// Copy-on-write fallback counter: written tiles staged while a handle
    /// that should have been gone still shared them.
    cow: u64,
    /// Scratch arena for `execute`; a runtime's workers bring their own.
    ws: Workspace<T>,
}

/// The copy shares every tile and factor (its first write to a tile takes
/// a counted copy-on-write clone), starts from the original's counts and
/// holds no spare.
impl<T: Scalar> Clone for FactorState<T> {
    fn clone(&self) -> Self {
        FactorState {
            grid: self.grid.clone(),
            empty: Arc::clone(&self.empty),
            tiles: self.tiles.clone(),
            geqrt_t: self.geqrt_t.clone(),
            elim_t: self.elim_t.clone(),
            spare: Vec::new(),
            cow: self.cow,
            ws: self.ws.clone(),
        }
    }
}

/// A task whose inputs have been extracted and which is ready to compute
/// without touching the shared state.
pub struct StagedTask<T: Scalar> {
    task: TaskKind,
    tiles: Tiles<T>,
    /// Per written tile (in [`Tiles::written`] order), the spare a fenced
    /// stage copies it into before the kernel runs.
    copy_into: [Option<Tile<T>>; 2],
}

/// A finished task, ready to be committed back into the state.
pub struct CompletedTask<T: Scalar> {
    task: TaskKind,
    tiles: Tiles<T>,
}

/// A task's tiles, from staging through commit: the ones it writes (taken
/// or copied), the `Arc`-shared ones it reads, and the spare tiles its `T`
/// and `−V₂ᵀ` outputs go into. Written tiles travel back as the handles they
/// were staged with, so commit is a pointer store: it allocates nothing.
enum Tiles<T: Scalar> {
    /// GEQRT: the tile to factor, a tile for `T`.
    Factor { tile: Tile<T>, tfac: Tile<T> },
    /// UNMQR: the factored tile and its `T` factor, plus the target.
    Update {
        vr: Tile<T>,
        tfac: Tile<T>,
        c: Tile<T>,
    },
    /// TSQRT/TTQRT: pivot and eliminated tiles, tiles for `T` and `−V₂ᵀ`.
    Elim {
        r1: Tile<T>,
        a2: Tile<T>,
        tfac: Tile<T>,
        vt: Option<Tile<T>>,
    },
    /// TSMQR/TTMQR: `V₂`, its `T` factor and `−V₂ᵀ`, both targets.
    PairUpdate {
        v2: Tile<T>,
        tfac: Tile<T>,
        vt: Option<Tile<T>>,
        a1: Tile<T>,
        a2: Tile<T>,
    },
}

impl<T: Scalar> Tiles<T> {
    /// The tiles the task writes, first the one staging took first: in
    /// [`TaskKind::writes`] order.
    fn written(&mut self) -> [Option<&mut Tile<T>>; 2] {
        match self {
            Tiles::Factor { tile, .. } => [Some(tile), None],
            Tiles::Update { c, .. } => [Some(c), None],
            Tiles::Elim { r1, a2, .. } | Tiles::PairUpdate { a1: r1, a2, .. } => {
                [Some(r1), Some(a2)]
            }
        }
    }

    /// Two pairs: the written tiles, as [`written`](Self::written) orders
    /// them, then the `T` factor a factor kind computed and the `−V₂ᵀ`
    /// handle the task holds. Read inputs are dropped.
    fn into_outputs(self) -> [[Option<Tile<T>>; 2]; 2] {
        match self {
            Tiles::Factor { tile, tfac } => [[Some(tile), None], [Some(tfac), None]],
            Tiles::Update { c, .. } => [[Some(c), None], [None, None]],
            Tiles::Elim { r1, a2, tfac, vt } => [[Some(r1), Some(a2)], [Some(tfac), vt]],
            Tiles::PairUpdate { a1, a2, vt, .. } => [[Some(a1), Some(a2)], [None, vt]],
        }
    }
}

fn missing_factor_err() -> MatrixError {
    MatrixError::DimensionMismatch {
        op: "reflector factor missing (DAG order violated)",
        lhs: (0, 0),
        rhs: (0, 0),
    }
}

impl<T: Scalar> FactorState<T> {
    /// Wrap a tiled matrix for factorization.
    pub fn new(mut grid: TiledMatrix<T>) -> Self {
        let (mt, nt, b) = (grid.tile_rows(), grid.tile_cols(), grid.tile_size());
        let empty = Arc::new(Matrix::zeros(b, b));
        let tiles = (0..mt * nt)
            .map(|t| grid.swap_tile_shared(t / nt, t % nt, Arc::clone(&empty)))
            .collect();
        FactorState {
            grid,
            empty,
            tiles,
            geqrt_t: vec![None; mt * nt],
            elim_t: vec![None; mt * nt],
            spare: Vec::new(),
            cow: 0,
            ws: Workspace::new(b, b),
        }
    }

    /// The way in: refuse a wide `a`, tile it at `b`, resolve `tree` for
    /// the grid, refuse a plateau of zero-row domains, and build the graph
    /// the state is to run.
    pub fn plan(a: &Matrix<T>, b: usize, tree: TreePolicy) -> Result<(Self, TaskGraph)> {
        let (rows, cols) = a.dims();
        if rows < cols {
            return Err(MatrixError::DimensionMismatch {
                op: "tiled QR (needs rows >= cols)",
                lhs: (rows, cols),
                rhs: (cols, cols),
            });
        }
        let tiled = TiledMatrix::from_matrix(a, b)?;
        let (mt, nt) = (tiled.tile_rows(), tiled.tile_cols());
        let tree = tree.resolve(mt, nt);
        if tree == EliminationTree::Plateau(0) {
            return Err(MatrixError::DimensionMismatch {
                op: "tiled QR (a plateau domain needs >= 1 tile row)",
                lhs: (mt, nt),
                rhs: (0, nt),
            });
        }
        Ok((Self::new(tiled), TaskGraph::build_tree(mt, nt, tree)))
    }

    fn idx(&self, i: usize, j: usize) -> usize {
        i * self.grid.tile_cols() + j
    }

    /// A snapshot of the (partially) factored tiles: `Arc` clones of the
    /// slots' tiles, no tile data copied. A snapshot still held when a task
    /// stages one of its tiles for writing costs that task one counted
    /// copy-on-write clone ([`cow_clones`](Self::cow_clones)).
    pub fn tiles(&self) -> TiledMatrix<T> {
        let mut tiles = self.grid.clone();
        let nt = tiles.tile_cols();
        for (t, tile) in self.tiles.iter().enumerate() {
            tiles.set_tile_shared(t / nt, t % nt, Arc::clone(tile));
        }
        tiles
    }

    /// Tile `(i, j)`, shared.
    fn tile(&self, i: usize, j: usize) -> Tile<T> {
        Arc::clone(&self.tiles[self.idx(i, j)])
    }

    /// Tile side `b`.
    pub fn tile_size(&self) -> usize {
        self.grid.tile_size()
    }

    /// `(rows, cols)` of the matrix before padding.
    pub fn dense_dims(&self) -> (usize, usize) {
        self.grid.dense_dims()
    }

    /// `(rows, cols)` of the padded tile grid.
    pub fn padded_dims(&self) -> (usize, usize) {
        self.grid.padded_dims()
    }

    /// How many copy-on-write fallback clones staging took. Single-owner
    /// execution (sequential, or the pool's move-based staging) keeps this
    /// at 0; every increment is a full `O(b²)` tile copy that should not
    /// have happened.
    pub fn cow_clones(&self) -> u64 {
        self.cow
    }

    /// Bytes held by the sequential-path scratch arena.
    pub fn workspace_bytes(&self) -> usize {
        self.ws.bytes()
    }

    /// Scratch-arena growths since construction (0 in steady state).
    pub fn workspace_resizes(&self) -> u64 {
        self.ws.resizes()
    }

    /// Close a staged run: drop the spare tiles its commits left, so a
    /// finished state holds none.
    pub fn end_run(&mut self) {
        self.spare.clear();
    }

    /// `T` factor of `GEQRT` on tile `(i, k)`, if computed.
    pub fn geqrt_factor(&self, i: usize, k: usize) -> Option<Arc<Matrix<T>>> {
        self.geqrt_t[self.idx(i, k)].clone()
    }

    /// `T` factor of the elimination `(p, i, k)`, if computed.
    pub fn elim_factor(&self, p: usize, i: usize, k: usize) -> Option<Arc<Matrix<T>>> {
        self.elim_factor_any(i, k)
            .and_then(|(q, t)| (q == p).then_some(t))
    }

    /// Elimination factor of eliminated tile `(i, k)` with its pivot row,
    /// whatever the pivot was (used by bit-identity sweeps that compare
    /// every stored factor).
    pub fn elim_factor_any(&self, i: usize, k: usize) -> Option<(usize, Arc<Matrix<T>>)> {
        let e = self.elim_t[self.idx(i, k)].as_ref()?;
        Some((e.p, Arc::clone(&e.tfac)))
    }

    /// A spare tile, or a fresh one. Every user overwrites it whole.
    fn spare_tile(&mut self) -> Tile<T> {
        let (b, tile) = (self.tile_size(), self.spare.pop());
        tile.unwrap_or_else(|| Arc::new(Matrix::zeros(b, b)))
    }

    /// Keep `tile` as a spare if no other handle holds it (out of its slot,
    /// it gains none).
    fn recycle(&mut self, tile: Option<Tile<T>>) {
        if let Some(tile) = tile.filter(|t| Arc::strong_count(t) == 1) {
            self.spare.push(tile);
        }
    }

    /// Tile `(i, j)` for a task to write. Taken, it is a pointer swap
    /// against the placeholder, and the handle that comes out is normally
    /// unique: the task writes it in place. Kept, the slot keeps the
    /// pre-task value and the task gets a shared handle plus a spare in
    /// `copy_into`. Either way a still-shared handle is copied by
    /// [`StagedTask::compute_with`], not here — for a taken tile that is
    /// the counted copy-on-write fallback.
    fn written(
        &mut self,
        (i, j): (usize, usize),
        keep: bool,
        copy_into: &mut Option<Tile<T>>,
    ) -> Tile<T> {
        let slot = self.idx(i, j);
        if keep {
            *copy_into = self.spare.pop();
            return Arc::clone(&self.tiles[slot]);
        }
        let tile = std::mem::replace(&mut self.tiles[slot], Arc::clone(&self.empty));
        self.cow += u64::from(Arc::strong_count(&tile) > 1);
        tile
    }

    /// The one stage body: take (or keep) the tiles `task` writes, share
    /// the ones it reads, and hand it a spare for its `T` and `−V₂ᵀ`
    /// outputs. A missing reflector factor fails before any slot changes.
    fn stage_tiles(&mut self, task: TaskKind, keep: bool) -> Result<StagedTask<T>> {
        let mut into = [None, None];
        let [first, second] = &mut into;
        let tiles = match task {
            TaskKind::Geqrt { i, k } => Tiles::Factor {
                tile: self.written((i, k), keep, first),
                tfac: self.spare_tile(),
            },
            TaskKind::Unmqr { i, j, k } => {
                let tfac = self.geqrt_factor(i, k).ok_or_else(missing_factor_err)?;
                Tiles::Update {
                    vr: self.tile(i, k),
                    tfac,
                    c: self.written((i, j), keep, first),
                }
            }
            TaskKind::Tsqrt { p, i, k } | TaskKind::Ttqrt { p, i, k } => Tiles::Elim {
                r1: self.written((p, k), keep, first),
                a2: self.written((i, k), keep, second),
                tfac: self.spare_tile(),
                vt: (k + 2 < self.grid.tile_cols()).then(|| self.spare_tile()),
            },
            TaskKind::Tsmqr { p, i, j, k } | TaskKind::Ttmqr { p, i, j, k } => {
                let (tfac, vt) = match &self.elim_t[self.idx(i, k)] {
                    Some(e) if e.p == p => (Arc::clone(&e.tfac), e.vt.clone()),
                    _ => return Err(missing_factor_err()),
                };
                Tiles::PairUpdate {
                    v2: self.tile(i, k),
                    tfac,
                    vt,
                    a1: self.written((p, j), keep, first),
                    a2: self.written((i, j), keep, second),
                }
            }
        };
        Ok(StagedTask {
            task,
            tiles,
            copy_into: into,
        })
    }

    /// Phase 1: extract this task's inputs — take written tiles, share
    /// read tiles. Fails if a required reflector factor is missing — i.e.
    /// the caller violated the DAG order.
    pub fn stage(&mut self, task: TaskKind) -> Result<StagedTask<T>> {
        self.stage_tiles(task, false)
    }

    /// Non-destructive variant of [`stage`](Self::stage): the state is left
    /// exactly as it was, and each written tile is *copied* — into a spare
    /// tile when a commit left one — by [`StagedTask::compute_with`], so
    /// the copy runs wherever the kernel does. An attempt staged this way
    /// can panic, stall, or fail mid-kernel and the task remains retryable
    /// — nothing is lost until [`commit`](Self::commit) swaps the outputs
    /// in. The fast path keeps the zero-copy [`stage`](Self::stage); this
    /// one trades an `O(b²)` copy per written tile (small next to the
    /// `O(b³)` kernel) for idempotent re-execution.
    pub fn stage_preserving(&mut self, task: TaskKind) -> Result<StagedTask<T>> {
        self.stage_tiles(task, true)
    }

    /// Store `tile` in slot `(i, j)`. The tile it displaces becomes a spare
    /// if nothing else holds it (a fenced commit; an unfenced one displaces
    /// the shared placeholder, and a straggler's handle keeps its tile out).
    fn put(&mut self, (i, j): (usize, usize), tile: Tile<T>) {
        let slot = self.idx(i, j);
        let old = std::mem::replace(&mut self.tiles[slot], tile);
        self.recycle(Some(old));
    }

    /// Phase 3: write a completed task's outputs back (pointer swaps):
    /// each written tile into the slot [`TaskKind::writes`] names for it,
    /// then its factors.
    pub fn commit(&mut self, done: CompletedTask<T>) {
        let (task, [written, [tfac, vt]]) = (done.task, done.tiles.into_outputs());
        for (&at, tile) in task.writes().iter().zip(written.into_iter().flatten()) {
            self.put(at, tile);
        }
        match task {
            TaskKind::Geqrt { i, k } => {
                let slot = self.idx(i, k);
                self.geqrt_t[slot] = tfac;
            }
            TaskKind::Unmqr { .. } => {}
            TaskKind::Tsqrt { p, i, k } | TaskKind::Ttqrt { p, i, k } => {
                let (slot, pending) = (self.idx(i, k), self.grid.tile_cols() - 1 - k);
                self.elim_t[slot] = tfac.map(|tfac| ElimFactor {
                    p,
                    tfac,
                    vt,
                    pending,
                });
            }
            TaskKind::Tsmqr { i, k, .. } | TaskKind::Ttmqr { i, k, .. } => {
                // The task's own handle goes first, so the last update's
                // settle finds the block unshared and recycles it.
                drop(vt);
                let slot = self.idx(i, k);
                let spent = settle(&mut self.elim_t[slot]);
                self.recycle(spent);
            }
        }
    }

    /// Run one task start to finish (sequential convenience): the same
    /// stage and commit bodies. Kernels borrow scratch from the state-owned
    /// arena, so the steady state performs no heap allocation beyond a
    /// `T`-factor output no spare tile was free for.
    pub fn execute(&mut self, task: TaskKind) -> Result<()> {
        let staged = self.stage(task)?;
        let done = staged.compute_with(&mut self.ws)?;
        self.commit(done);
        Ok(())
    }

    /// Run every task of `graph` in program order (which is topological
    /// for the built-in builders) — the sequential tiled QR driver.
    pub fn run_all(&mut self, graph: &TaskGraph) -> Result<()> {
        for &task in graph.tasks() {
            self.execute(task)?;
        }
        Ok(())
    }

    /// Assembled `R` factor: the upper-triangular result, dense, with the
    /// original (unpadded) dimensions.
    pub fn r_matrix(&self) -> Matrix<T> {
        self.r_rows(self.dense_dims().0)
    }

    /// The first `m` rows of [`r_matrix`](Self::r_matrix), a dense copy for
    /// callers that multiply by `R`, by column runs out of the tiles on and
    /// above the diagonal, each tile's slot read once.
    pub fn r_rows(&self, m: usize) -> Matrix<T> {
        let (b, n) = (self.tile_size(), self.dense_dims().1);
        let mut r = Matrix::zeros(m, n);
        for j0 in (0..n).step_by(b) {
            for i0 in (0..m.min(j0 + b)).step_by(b) {
                let tile = self.tile(i0 / b, j0 / b);
                for j in j0..n.min(j0 + b) {
                    let len = (j + 1).min(m).saturating_sub(i0).min(b);
                    r.col_mut(j)[i0..i0 + len].copy_from_slice(&tile.col(j - j0)[..len]);
                }
            }
        }
        r
    }

    /// The way out for `Q c` / `Qᵀ c`: `c` has the matrix's rows, is padded
    /// to the grid's, has the factor kernels of `graph` replayed over it
    /// and is cut back.
    pub fn apply(&self, graph: &TaskGraph, c: &Matrix<T>, side: ApplySide) -> Result<Matrix<T>> {
        self.padded_apply(graph, c, side)?
            .submatrix(0, 0, c.rows(), c.cols())
    }

    /// `c` (the matrix's rows) padded to the grid's, with `graph`'s factor kernels replayed.
    fn padded_apply(&self, graph: &TaskGraph, c: &Matrix<T>, side: ApplySide) -> Result<Matrix<T>> {
        let rows = self.dense_dims().0;
        if c.rows() != rows {
            return Err(MatrixError::DimensionMismatch {
                op: "apply / solve (row count)",
                lhs: (rows, 0),
                rhs: c.dims(),
            });
        }
        let mut work = Matrix::zeros(self.padded_dims().0, c.cols());
        work.set_submatrix(0, 0, c)?;
        match side {
            ApplySide::Transpose => apply_qt_dense(self, graph, &mut work)?,
            ApplySide::NoTranspose => apply_q_dense(self, graph, &mut work)?,
        }
        Ok(work)
    }

    /// The way out for a solve: `X = R⁻¹ (Qᵀ B)₁..ₙ` column by column (paper
    /// Eqs. 2–3) — `A X = B` for a square matrix, `min ‖A X − B‖₂` for a
    /// tall one — `Qᵀ B` replayed into one padded block, solved on `R`'s tiles.
    pub fn solve(&self, graph: &TaskGraph, b: &Matrix<T>) -> Result<Matrix<T>> {
        let cols = self.dense_dims().1;
        let mut work = self.padded_apply(graph, b, ApplySide::Transpose)?;
        for j in 0..b.cols() {
            self.back_substitute(&mut work.col_mut(j)[..cols])?;
        }
        work.submatrix(0, 0, cols, b.cols())
    }

    /// `x ← R⁻¹ x` (`x` has `cols` rows) on `R`'s tiles, tile columns last to
    /// first: a column-oriented solve on the diagonal tile's first columns,
    /// then an axpy per column into each tile above. The first exact zero on
    /// the diagonal from the bottom is [`MatrixError::Singular`].
    fn back_substitute(&self, x: &mut [T]) -> Result<()> {
        let (b, n) = (self.tile_size(), x.len());
        for j0 in (0..n).step_by(b).rev() {
            let (above, xk) = x[..n.min(j0 + b)].split_at_mut(j0);
            for jj in (0..xk.len()).rev() {
                let col = self.tiles[self.idx(j0 / b, j0 / b)].col(jj);
                if col[jj] == T::ZERO {
                    return Err(MatrixError::Singular { index: j0 + jj });
                }
                xk[jj] /= col[jj];
                let xj = xk[jj];
                for (y, &r) in xk[..jj].iter_mut().zip(col) {
                    *y -= r * xj;
                }
            }
            for (i, xi) in above.chunks_mut(b).enumerate() {
                let tile = &self.tiles[self.idx(i, j0 / b)];
                for (jj, &xj) in xk.iter().enumerate() {
                    for (y, &r) in xi.iter_mut().zip(tile.col(jj)) {
                        *y -= r * xj;
                    }
                }
            }
        }
        Ok(())
    }
}

impl<T: Scalar> StagedTask<T> {
    /// Give each written tile still shared — every one a fenced stage kept,
    /// or a taken one a handle outside the state holds — a copy of its own:
    /// the spare staging set aside, or a fresh tile.
    fn fill(&mut self) {
        let written = self.tiles.written().into_iter().flatten();
        for (tile, into) in written.zip(&mut self.copy_into) {
            if Arc::get_mut(tile).is_none() {
                *tile = match into.take() {
                    Some(mut copy) => {
                        owned(&mut copy)
                            .as_mut_slice()
                            .copy_from_slice(tile.as_slice());
                        copy
                    }
                    None => Arc::new((**tile).clone()),
                };
            }
        }
    }

    /// Phase 2: a fenced stage's tile copies, then the actual kernel, on
    /// owned/shared data — it runs without any lock. All scratch is
    /// borrowed from `ws`, and every output tile was handed over by
    /// staging, so once the arena has warmed up to the tile size the kernel
    /// allocates nothing. The factor kernels zero the `T` tile before they
    /// write it.
    pub fn compute_with(mut self, ws: &mut Workspace<T>) -> Result<CompletedTask<T>> {
        self.fill();
        let tt = matches!(self.task, TaskKind::Ttqrt { .. } | TaskKind::Ttmqr { .. });
        match &mut self.tiles {
            Tiles::Factor { tile, tfac } => geqrt_ws(owned(tile), owned(tfac), ws)?,
            Tiles::Update { vr, tfac, c } => {
                geqrt_apply_ws(vr, tfac, owned(c), ApplySide::Transpose, ws)?
            }
            Tiles::Elim { r1, a2, tfac, vt } => {
                let (top, v2) = (owned(r1), owned(a2));
                let factor = if tt { ttqrt_ws } else { tsqrt_ws };
                factor(top, v2, owned(tfac), ws)?;
                vt.iter_mut()
                    .for_each(|vt| store_neg_transpose(v2, tt, owned(vt)));
            }
            Tiles::PairUpdate {
                v2,
                tfac,
                vt,
                a1,
                a2,
            } => {
                let (c1, c2, side) = (owned(a1), owned(a2), ApplySide::Transpose);
                pair_update(v2, vt.as_deref(), tfac, c1, c2, side, tt, ws)?;
            }
        }
        let StagedTask { task, tiles, .. } = self;
        Ok(CompletedTask { task, tiles })
    }
}

impl<T: Scalar> CompletedTask<T> {
    /// Scan every output (written tiles *and* reflector `T` factors) for
    /// non-finite values and return the grid coordinates of the first
    /// poisoned tile — by [`TaskKind::writes`], a dirty `T` factor counting
    /// against the last written tile — or `None` when the outputs are
    /// clean. A runtime can call this at its commit fence *before* the
    /// outputs touch shared state, so a NaN/Inf produced by one task never
    /// propagates into downstream tiles.
    pub fn first_non_finite(&mut self) -> Option<TileCoord> {
        let dirty = |m: &Matrix<T>| !m.all_finite();
        let writes = self.task.writes();
        let written = self.tiles.written().into_iter().flatten();
        let first = writes.iter().zip(written).find(|(_, tile)| dirty(tile));
        first.map(|(&at, _)| at).or_else(|| match &self.tiles {
            Tiles::Factor { tfac, .. } | Tiles::Elim { tfac, .. } if dirty(tfac) => {
                writes.last().copied()
            }
            _ => None,
        })
    }

    /// Test seam: overwrite the first element of this task's first output
    /// tile with NaN, as if the kernel had numerically broken down. Used
    /// by fault injectors to exercise commit-fence poison detection.
    pub fn poison(&mut self) {
        if let [Some(target), _] = self.tiles.written() {
            if let Some(v) = owned(target).as_mut_slice().first_mut() {
                *v = T::from_f64(f64::NAN);
            }
        }
    }
}

/// Copy row block `i` of `c` into `block` (`b x cols`), or back with `back`.
fn copy_rows<T: Scalar>(c: &mut Matrix<T>, block: &mut Matrix<T>, i: usize, back: bool) {
    let b = block.rows();
    for j in 0..c.cols() {
        let (rows, blk) = (&mut c.col_mut(j)[i * b..(i + 1) * b], block.col_mut(j));
        let (dst, src) = if back { (rows, blk) } else { (blk, rows) };
        dst.copy_from_slice(src);
    }
}

/// Apply `Qᵀ` of a completed factorization to a dense `c` whose row count
/// equals the *padded* row dimension of the factored matrix.
///
/// Replays the factor kernels in the canonical program order of `graph`.
pub fn apply_qt_dense<T: Scalar>(
    state: &FactorState<T>,
    graph: &TaskGraph,
    c: &mut Matrix<T>,
) -> Result<()> {
    replay(state, graph.tasks().iter(), c, ApplySide::Transpose)
}

/// Apply `Q` (not transposed) of a completed factorization to a dense `c`:
/// the factor kernels replay in *reverse* program order with untransposed
/// block reflectors.
pub fn apply_q_dense<T: Scalar>(
    state: &FactorState<T>,
    graph: &TaskGraph,
    c: &mut Matrix<T>,
) -> Result<()> {
    replay(state, graph.tasks().iter().rev(), c, ApplySide::NoTranspose)
}

fn replay<'g, T: Scalar>(
    state: &FactorState<T>,
    tasks: impl Iterator<Item = &'g TaskKind>,
    c: &mut Matrix<T>,
    side: ApplySide,
) -> Result<()> {
    let (pm, _) = state.padded_dims();
    if c.rows() != pm {
        return Err(MatrixError::DimensionMismatch {
            op: "apply_q (C rows must equal padded rows)",
            lhs: (pm, 0),
            rhs: c.dims(),
        });
    }
    let b = state.tile_size();
    let mut ws = Workspace::new(b, b);
    let (mut a1, mut a2) = (Matrix::zeros(b, c.cols()), Matrix::zeros(b, c.cols()));
    for &task in tasks {
        match task {
            TaskKind::Geqrt { i, k } => {
                let tfac = state.geqrt_factor(i, k).ok_or_else(missing_factor_err)?;
                copy_rows(c, &mut a1, i, false);
                geqrt_apply_ws(&state.tile(i, k), &tfac, &mut a1, side, &mut ws)?;
                copy_rows(c, &mut a1, i, true);
            }
            TaskKind::Tsqrt { p, i, k } | TaskKind::Ttqrt { p, i, k } => {
                let tfac = state.elim_factor(p, i, k).ok_or_else(missing_factor_err)?;
                copy_rows(c, &mut a1, p, false);
                copy_rows(c, &mut a2, i, false);
                let (tt, v2) = (matches!(task, TaskKind::Ttqrt { .. }), state.tile(i, k));
                pair_update(&v2, None, &tfac, &mut a1, &mut a2, side, tt, &mut ws)?;
                copy_rows(c, &mut a1, p, true);
                copy_rows(c, &mut a2, i, true);
            }
            // Update kernels touch only the factored matrix, not C.
            TaskKind::Unmqr { .. } | TaskKind::Tsmqr { .. } | TaskKind::Ttmqr { .. } => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_dag::EliminationTree;
    use tileqr_matrix::gen::random_matrix;
    use tileqr_matrix::ops::{matmul, orthogonality_defect};

    fn factor(
        n: usize,
        b: usize,
        order: EliminationTree,
    ) -> (Matrix<f64>, FactorState<f64>, TaskGraph) {
        let a = random_matrix::<f64>(n, n, 42);
        let tiled = TiledMatrix::from_matrix(&a, b).unwrap();
        let g = TaskGraph::build_tree(tiled.tile_rows(), tiled.tile_cols(), order);
        let mut st = FactorState::new(tiled);
        st.run_all(&g).unwrap();
        (a, st, g)
    }

    fn form_q(st: &FactorState<f64>, g: &TaskGraph) -> Matrix<f64> {
        let (pm, _) = st.tiles().padded_dims();
        let mut q = Matrix::identity(pm);
        apply_q_dense(st, g, &mut q).unwrap();
        q
    }

    #[test]
    fn tiled_qr_reconstructs_exact_grid() {
        let (a, st, g) = factor(12, 4, EliminationTree::Flat);
        let q = form_q(&st, &g);
        let r_full = {
            // R on the padded grid.
            let full = st.tiles().to_matrix();
            Matrix::from_fn(12, 12, |i, j| if i <= j { full[(i, j)] } else { 0.0 })
        };
        let qr = matmul(&q, &r_full).unwrap();
        assert!(qr.approx_eq(&a, 1e-11), "QR != A");
        assert!(orthogonality_defect(&q).unwrap() < 1e-12);
    }

    #[test]
    fn tiled_qr_reconstructs_padded_grid() {
        // 10x10 with tile 4 -> padded to 12x12 with unit-diagonal padding.
        let a = random_matrix::<f64>(10, 10, 7);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let g = TaskGraph::build_tree(3, 3, EliminationTree::Flat);
        let mut st = FactorState::new(tiled);
        st.run_all(&g).unwrap();
        let q = form_q(&st, &g);
        let full = st.tiles().to_matrix(); // 10x10 view
        let r = Matrix::from_fn(10, 10, |i, j| if i <= j { full[(i, j)] } else { 0.0 });
        // Compare on the unpadded block: Q's top-left 10x12 times padded R.
        let padded_r = {
            let mut pr = Matrix::zeros(12, 12);
            let tiles = st.tiles();
            for j in 0..12 {
                for i in 0..=j {
                    // reconstruct from tiles directly
                    let tile = tiles.tile(i / 4, j / 4);
                    pr[(i, j)] = tile[(i % 4, j % 4)];
                }
            }
            pr
        };
        let qr = matmul(&q, &padded_r).unwrap();
        for i in 0..10 {
            for j in 0..10 {
                assert!((qr[(i, j)] - a[(i, j)]).abs() < 1e-11, "({i},{j})");
            }
        }
        let _ = r;
    }

    #[test]
    fn tt_orders_also_factorize() {
        for order in [EliminationTree::FlatTt, EliminationTree::Binary] {
            let (a, st, g) = factor(16, 4, order);
            let q = form_q(&st, &g);
            let r = st.r_matrix();
            let qr = matmul(&q, &r).unwrap();
            assert!(qr.approx_eq(&a, 1e-11), "{order:?} failed");
        }
    }

    #[test]
    fn r_matches_reference_up_to_signs() {
        let (a, st, g) = factor(12, 4, EliminationTree::Flat);
        let _ = g;
        let r_tiled = st.r_matrix();
        let (_, r_ref) = crate::reference::householder_qr(&a).unwrap();
        for j in 0..12 {
            for i in 0..=j {
                assert!(
                    (r_tiled[(i, j)].abs() - r_ref[(i, j)].abs()).abs() < 1e-10,
                    "|R| mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn apply_qt_then_q_round_trips() {
        let (_, st, g) = factor(12, 4, EliminationTree::Flat);
        let c0 = random_matrix::<f64>(12, 3, 5);
        let mut c = c0.clone();
        apply_qt_dense(&st, &g, &mut c).unwrap();
        apply_q_dense(&st, &g, &mut c).unwrap();
        assert!(c.approx_eq(&c0, 1e-11));
    }

    #[test]
    fn qt_a_gives_r() {
        let (a, st, g) = factor(12, 4, EliminationTree::Flat);
        let mut c = a.clone();
        apply_qt_dense(&st, &g, &mut c).unwrap();
        let r = st.r_matrix();
        assert!(c.approx_eq(&r, 1e-11));
    }

    #[test]
    fn stage_rejects_missing_factor() {
        let a = random_matrix::<f64>(8, 8, 1);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let mut st = FactorState::new(tiled);
        // UNMQR before its GEQRT: must fail cleanly.
        assert!(st.stage(TaskKind::Unmqr { i: 0, j: 1, k: 0 }).is_err());
    }

    #[test]
    fn apply_rejects_wrong_row_count() {
        let (_, st, g) = factor(12, 4, EliminationTree::Flat);
        let mut c = Matrix::<f64>::zeros(9, 2);
        assert!(apply_qt_dense(&st, &g, &mut c).is_err());
    }

    #[test]
    fn staged_compute_outside_state_matches_execute() {
        let a = random_matrix::<f64>(8, 8, 3);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let g = TaskGraph::build_tree(2, 2, EliminationTree::Flat);

        let mut st1 = FactorState::new(tiled.clone());
        st1.run_all(&g).unwrap();

        let mut st2 = FactorState::new(tiled);
        for &t in g.tasks() {
            let staged = st2.stage(t).unwrap();
            let done = staged.compute_with(&mut Workspace::new(4, 4)).unwrap();
            st2.commit(done);
        }
        assert_eq!(st1.tiles().to_matrix(), st2.tiles().to_matrix());
    }

    #[test]
    fn stage_shares_read_inputs_without_copy() {
        // The acceptance-criterion test: staging an update task must hand
        // the read tile and T factor out as pointer clones of the ones the
        // state holds — never deep copies.
        let a = random_matrix::<f64>(8, 8, 5);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let mut st = FactorState::new(tiled);
        st.execute(TaskKind::Geqrt { i: 0, k: 0 }).unwrap();

        let staged = st.stage(TaskKind::Unmqr { i: 0, j: 1, k: 0 }).unwrap();
        match &staged.tiles {
            Tiles::Update { vr, tfac, .. } => {
                assert!(
                    Arc::ptr_eq(vr, &st.tiles().tile_shared(0, 0)),
                    "read tile must be Arc-shared, not copied"
                );
                let held = st.geqrt_factor(0, 0).unwrap();
                assert!(
                    Arc::ptr_eq(tfac, &held),
                    "T factor must be Arc-shared, not copied"
                );
            }
            _ => panic!("UNMQR staged wrong input kind"),
        }
        // Finish the task so the state stays consistent.
        let done = staged.compute_with(&mut Workspace::new(4, 4)).unwrap();
        st.commit(done);
    }

    #[test]
    fn take_tile_is_a_move_when_unshared() {
        // After all readers drop their handles, staging a written tile must
        // move the unique Arc payload, not clone it: the tile the writer
        // receives is the same allocation the state held.
        let a = random_matrix::<f64>(8, 8, 6);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let mut st = FactorState::new(tiled);
        let before = st.tiles().tile(0, 0).as_slice().as_ptr() as usize;
        let staged = st.stage(TaskKind::Geqrt { i: 0, k: 0 }).unwrap();
        match &staged.tiles {
            Tiles::Factor { tile, .. } => {
                // Same heap buffer: the payload was moved out of the unique
                // Arc, not cloned.
                assert_eq!(tile.as_slice().as_ptr() as usize, before);
            }
            _ => panic!("GEQRT staged wrong input kind"),
        }
        let done = staged.compute_with(&mut Workspace::new(4, 4)).unwrap();
        st.commit(done);
    }

    #[test]
    fn shared_state_matches_sequential() {
        for order in [
            EliminationTree::Flat,
            EliminationTree::FlatTt,
            EliminationTree::Binary,
        ] {
            let a = random_matrix::<f64>(16, 16, 9);
            let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
            let g = TaskGraph::build_tree(4, 4, order);

            let mut seq = FactorState::new(tiled.clone());
            seq.run_all(&g).unwrap();

            // Staged, computed apart and committed, as a runtime's workers do.
            let mut st = FactorState::new(tiled);
            for &t in g.tasks() {
                let staged = st.stage(t).unwrap();
                let done = staged.compute_with(&mut Workspace::new(4, 4)).unwrap();
                st.commit(done);
            }
            assert_eq!(seq.tiles().to_matrix(), st.tiles().to_matrix());
            assert_eq!(seq.r_matrix(), st.r_matrix());
            for (i, k) in [(0, 0), (3, 3)] {
                assert_eq!(st.geqrt_factor(i, k), seq.geqrt_factor(i, k));
            }
            for k in 0..3 {
                assert_eq!(st.elim_factor_any(3, k), seq.elim_factor_any(3, k));
            }
        }
    }

    #[test]
    fn sequential_run_takes_no_cow_clones_and_no_resizes() {
        // The single-owner guarantee the PR is built on: a sequential
        // `run_all` never hits the copy-on-write fallback, and the arena
        // sized at construction never grows.
        for order in [
            EliminationTree::Flat,
            EliminationTree::FlatTt,
            EliminationTree::Binary,
        ] {
            let (_, st, _) = factor(16, 4, order);
            assert_eq!(st.cow_clones(), 0, "{order:?} hit the COW slow path");
            assert_eq!(st.workspace_resizes(), 0, "{order:?} grew the arena");
            assert!(st.workspace_bytes() > 0);
        }
    }

    #[test]
    fn external_handle_forces_counted_cow_clone() {
        let a = random_matrix::<f64>(8, 8, 11);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let mut st = FactorState::new(tiled);
        // Keep an external Arc alive across a staging of the same tile:
        // the writer can no longer move the payload and must copy.
        let external = st.tiles().tile_shared(0, 0);
        let staged = st.stage(TaskKind::Geqrt { i: 0, k: 0 }).unwrap();
        assert_eq!(st.cow_clones(), 1, "external handle must force a clone");
        drop(external);
        let done = staged.compute_with(&mut Workspace::new(4, 4)).unwrap();
        st.commit(done);
        // No further slow-path hits once the handle is gone.
        st.execute(TaskKind::Unmqr { i: 0, j: 1, k: 0 }).unwrap();
        assert_eq!(st.cow_clones(), 1);
    }

    #[test]
    fn recursive_panel_factorization_reconstructs() {
        // b = 20: every factor kernel splits its tile 12 + 8 and the 12
        // again, so the stored `T`s are merged ones; exact 2 x 2 grid, TS
        // and TT eliminations.
        for order in [EliminationTree::Flat, EliminationTree::Binary] {
            let (a, st, g) = factor(40, 20, order);
            let t = st.geqrt_factor(0, 0).expect("GEQRT(0,0) ran");
            assert_eq!(t.dims(), (20, 20));
            assert!(t[(18, 0)] != 0.0, "Tᵀ's off-diagonal blocks are filled");
            let q = form_q(&st, &g);
            let qr = matmul(&q, &st.r_matrix()).unwrap();
            assert!(qr.approx_eq(&a, 1e-11), "{order:?}: QR != A");
            assert!(orthogonality_defect(&q).unwrap() < 1e-12, "{order:?}");
            assert_eq!(st.cow_clones(), 0);
            assert_eq!(st.workspace_resizes(), 0);
        }
    }

    #[test]
    fn shared_state_counts_cow_and_round_trips_counters() {
        let a = random_matrix::<f64>(8, 8, 17);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let g = TaskGraph::build_tree(2, 2, EliminationTree::Flat);
        let mut st = FactorState::new(tiled);
        for &t in g.tasks() {
            let staged = st.stage(t).unwrap();
            let done = staged.compute_with(&mut Workspace::new(4, 4)).unwrap();
            st.commit(done);
        }
        assert_eq!(st.cow_clones(), 0);
        // A snapshot held across a staging costs one counted clone, and
        // closing the run keeps the count.
        let snapshot = st.tiles();
        st.execute(TaskKind::Geqrt { i: 1, k: 1 }).unwrap();
        assert_eq!(st.cow_clones(), 1);
        drop(snapshot);
        st.end_run();
        assert_eq!(st.cow_clones(), 1);
    }

    #[test]
    fn fenced_commit_recycles_only_unshared_tiles() {
        let a = random_matrix::<f64>(8, 8, 29);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let mut shared = FactorState::new(tiled);
        let mut ws = Workspace::new(4, 4);
        let run = |shared: &mut FactorState<f64>, task, ws: &mut Workspace<f64>| {
            let staged = shared.stage_preserving(task).unwrap();
            shared.commit(staged.compute_with(ws).unwrap());
        };
        // A straggler's handle keeps the displaced tile out of the list.
        let straggler = shared.tile(0, 0);
        run(&mut shared, TaskKind::Geqrt { i: 0, k: 0 }, &mut ws);
        assert_eq!(spares(&shared), 0);
        drop(straggler);
        // An unshared one goes in, and the next preserving copy lands in it.
        let displaced = Arc::as_ptr(&shared.tile(0, 1));
        run(&mut shared, TaskKind::Unmqr { i: 0, j: 1, k: 0 }, &mut ws);
        assert_eq!(spares(&shared), 1);
        let mut staged = shared
            .stage_preserving(TaskKind::Tsqrt { p: 0, i: 1, k: 0 })
            .unwrap();
        // The copy runs with the kernel, outside the caller's lock.
        staged.fill();
        match &staged.tiles {
            Tiles::Elim { r1, .. } => {
                assert_eq!(Arc::as_ptr(r1), displaced);
                assert_eq!(**r1, *shared.tile(0, 0));
            }
            _ => panic!("TSQRT staged wrong input kind"),
        }
        assert_eq!(spares(&shared), 0);
    }

    /// The scan names a NaN by the tile `TaskKind::writes` gives the
    /// written tile it landed in, and one in a `T` factor by the last
    /// written tile, for each of the six kinds; clean outputs read `None`.
    #[test]
    fn the_scan_names_the_written_tile_a_nan_landed_in() {
        let nan = |m: &mut Tile<f64>| owned(m).as_mut_slice()[5] = f64::NAN;
        let mut kinds = std::collections::HashSet::new();
        for tree in [EliminationTree::Flat, EliminationTree::Binary] {
            let tiled = TiledMatrix::from_matrix(&random_matrix::<f64>(12, 12, 37), 4).unwrap();
            let g = TaskGraph::build_tree(3, 3, tree);
            let (mut st, mut ws) = (FactorState::new(tiled), Workspace::new(4, 4));
            for &task in g.tasks() {
                kinds.insert(std::mem::discriminant(&task));
                let mut run = || {
                    st.stage_preserving(task)
                        .unwrap()
                        .compute_with(&mut ws)
                        .unwrap()
                };
                let writes = task.writes();
                for n in 0..writes.len() {
                    let mut done = run();
                    if let Some(tile) = done.tiles.written().into_iter().nth(n).flatten() {
                        nan(tile);
                    }
                    assert_eq!(done.first_non_finite(), Some(writes[n]), "{task:?}");
                }
                let mut done = run();
                if let Tiles::Factor { tfac, .. } | Tiles::Elim { tfac, .. } = &mut done.tiles {
                    nan(tfac);
                    assert_eq!(done.first_non_finite(), writes.last().copied(), "{task:?}");
                }
                let mut clean = run();
                assert_eq!(clean.first_non_finite(), None, "{task:?}");
                st.commit(clean);
            }
        }
        assert_eq!(kinds.len(), 6);
    }

    /// A factor task's `T` output is a spare tile when one is free, however
    /// stale its contents, and the factor is the one a fresh tile gives:
    /// GEQRT, TSQRT and TTQRT.
    #[test]
    fn factor_output_reuses_a_spare_tile() {
        let a = random_matrix::<f64>(8, 8, 31);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let (p, i, k) = (0, 1, 0);
        let elim = [TaskKind::Tsqrt { p, i, k }, TaskKind::Ttqrt { p, i, k }];
        for (tt, elim) in elim.into_iter().enumerate() {
            let mut tasks = vec![TaskKind::Geqrt { i: 0, k }];
            tasks.extend((tt == 1).then_some(TaskKind::Geqrt { i, k }));
            tasks.push(elim);
            let mut seq = FactorState::new(tiled.clone());
            let mut st = FactorState::new(tiled.clone());
            for (n, &task) in tasks.iter().enumerate() {
                seq.execute(task).unwrap();
                let stale = Arc::new(Matrix::from_fn(4, 4, |r, c| (n + r * 4 + c) as f64));
                let at = Arc::as_ptr(&stale);
                st.spare.push(stale);
                let staged = st.stage(task).unwrap();
                match &staged.tiles {
                    Tiles::Factor { tfac, .. } | Tiles::Elim { tfac, .. } => {
                        assert_eq!(Arc::as_ptr(tfac), at, "{task:?}: T is not the spare")
                    }
                    _ => panic!("{task:?} staged wrong input kind"),
                }
                st.commit(staged.compute_with(&mut Workspace::new(4, 4)).unwrap());
            }
            for i in 0..=tt {
                assert_eq!(st.geqrt_factor(i, k), seq.geqrt_factor(i, k), "{elim:?}");
            }
            assert_eq!(
                st.elim_factor_any(i, k),
                seq.elim_factor_any(i, k),
                "{elim:?}"
            );
            assert_eq!(spares(&st), 0);
        }
    }

    /// Elimination factors that still hold `−V₂ᵀ`.
    fn live_blocks<T: Scalar>(st: &FactorState<T>) -> usize {
        let held = |e: &&Option<ElimFactor<T>>| e.as_ref().is_some_and(|e| e.vt.is_some());
        st.elim_t.iter().filter(held).count()
    }

    fn spares<T: Scalar>(st: &FactorState<T>) -> usize {
        st.spare.len()
    }

    /// Trees whose eliminations are TS, TT and both on a 5 x 4 grid, plus
    /// the TSQR tree on a two-column grid, where every elimination has
    /// one trailing update and so stores no block.
    fn block_cases() -> Vec<(TiledMatrix<f64>, TaskGraph)> {
        let trees = [
            EliminationTree::Flat,
            EliminationTree::FlatTt,
            EliminationTree::Binary,
            EliminationTree::Greedy,
            EliminationTree::Plateau(2),
        ];
        let grids = trees.map(|t| (40, 32, t)).into_iter();
        grids
            .chain([(96, 16, EliminationTree::Plateau(3))])
            .map(|(m, n, tree)| {
                let a = random_matrix::<f64>(m, n, 12);
                let t = TiledMatrix::from_matrix(&a, 8).unwrap();
                let g = TaskGraph::build_tree(t.tile_rows(), t.tile_cols(), tree);
                (t, g)
            })
            .collect()
    }

    /// Every factor task of `g` before any update that is ready with it:
    /// a topological order that keeps as many blocks alive as it can.
    fn factors_first(g: &TaskGraph) -> Vec<TaskKind> {
        let is_update = |id| {
            let t = g.task(id);
            matches!(t, TaskKind::Unmqr { .. } | TaskKind::Tsmqr { .. })
                || matches!(t, TaskKind::Ttmqr { .. })
        };
        let mut indeg = g.indegrees();
        let mut ready: std::collections::BTreeSet<_> = g
            .sources()
            .into_iter()
            .map(|id| (is_update(id), id))
            .collect();
        let mut order = Vec::with_capacity(g.len());
        while let Some((_, id)) = ready.pop_first() {
            order.push(g.task(id));
            for &s in g.succs(id) {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.insert((is_update(s), s));
                }
            }
        }
        assert_eq!(order.len(), g.len());
        order
    }

    /// A factor task with two trailing updates stores exactly `−V₂ᵀ` (for
    /// TT lower triangular, zeros stored); the first update forms `W` from
    /// it and leaves it, the second recycles it.
    fn stored_block_is_exact<T: Scalar>() {
        let (p, i, k) = (0, 1, 0);
        for b in [1, 7, 16, 17, 64] {
            let a = random_matrix::<T>(2 * b, 3 * b, 50 + b as u64);
            let r1 = a.submatrix(0, 0, b, b).unwrap().upper_triangular();
            for tt in [false, true] {
                let mut tiles = TiledMatrix::from_matrix(&a, b).unwrap();
                tiles.set_tile_shared(0, 0, Arc::new(r1.clone()));
                let mut st = FactorState::new(tiles);
                let factor = match tt {
                    true => TaskKind::Ttqrt { p, i, k },
                    false => TaskKind::Tsqrt { p, i, k },
                };
                let update = |j| match tt {
                    true => TaskKind::Ttmqr { p, i, j, k },
                    false => TaskKind::Tsmqr { p, i, j, k },
                };
                st.execute(factor).unwrap();
                let v2 = st.tiles().tile(i, k).clone();
                let vt = st.elim_t[st.idx(i, k)].clone().unwrap().vt;
                let vt = vt.expect("a factor with two updates stores −V₂ᵀ");
                for r in 0..b {
                    for c in 0..b {
                        let want = if tt && c > r { T::ZERO } else { -v2[(c, r)] };
                        let (got, want) = (vt[(r, c)].to_f64(), want.to_f64());
                        assert_eq!(got.to_bits(), want.to_bits(), "b={b} tt={tt} [{r},{c}]");
                    }
                }
                // The update forms `W` from exactly this block.
                let (mut top, mut bot) =
                    (st.tiles().tile(p, 1).clone(), st.tiles().tile(i, 1).clone());
                let tfac = st.elim_factor(p, i, k).unwrap();
                let ws = &mut Workspace::new(b, b);
                let side = ApplySide::Transpose;
                pair_update(&v2, Some(&vt), &tfac, &mut top, &mut bot, side, tt, ws).unwrap();
                drop(vt);
                st.execute(update(1)).unwrap();
                let bits = |m: &Matrix<T>| {
                    m.as_slice()
                        .iter()
                        .map(|x| x.to_f64().to_bits())
                        .collect::<Vec<_>>()
                };
                assert_eq!(
                    bits(st.tiles().tile(p, 1)),
                    bits(&top),
                    "b={b} tt={tt}: top"
                );
                assert_eq!(
                    bits(st.tiles().tile(i, 1)),
                    bits(&bot),
                    "b={b} tt={tt}: bottom"
                );
                assert_eq!(live_blocks(&st), 1, "b={b} tt={tt}: one update pending");
                st.execute(update(2)).unwrap();
                assert_eq!(
                    live_blocks(&st),
                    0,
                    "b={b} tt={tt}: block outlived its updates"
                );
                assert_eq!(spares(&st), 1, "b={b} tt={tt}: not recycled");
            }
        }
    }

    #[test]
    fn stored_block_is_exactly_the_negated_transpose() {
        stored_block_is_exact::<f64>();
        stored_block_is_exact::<f32>();
    }

    #[test]
    fn program_order_keeps_at_most_one_block_alive() {
        for (t, g) in block_cases() {
            let tree = g.tree();
            let mut st = FactorState::new(t);
            let mut most = 0;
            for &task in g.tasks() {
                st.execute(task).unwrap();
                most = most.max(live_blocks(&st));
            }
            let want = usize::from(g.tile_cols() > 2);
            assert_eq!(most, want, "{tree:?}: blocks alive at once");
            assert_eq!(live_blocks(&st), 0, "{tree:?}: run_all left a block");
        }
    }

    /// Shared runs in an order that keeps many blocks alive at once, with
    /// direct staging and with preserving staging where every task's first
    /// attempt is computed and then rejected: each block is recycled by the
    /// last update to commit, and the bits are the sequential run's.
    #[test]
    fn shared_runs_recycle_every_block() {
        for (t, g) in block_cases() {
            let tree = g.tree();
            let mut seq = FactorState::new(t.clone());
            seq.run_all(&g).unwrap();
            for fenced in [false, true] {
                let mut shared = FactorState::new(t.clone());
                let mut ws = Workspace::new(8, 8);
                let mut most = 0;
                for task in factors_first(&g) {
                    let stage = |st: &mut FactorState<f64>, task| match fenced {
                        true => st.stage_preserving(task).unwrap(),
                        false => st.stage(task).unwrap(),
                    };
                    if fenced {
                        drop(stage(&mut shared, task).compute_with(&mut ws).unwrap());
                    }
                    let done = stage(&mut shared, task).compute_with(&mut ws).unwrap();
                    shared.commit(done);
                    most = most.max(live_blocks(&shared));
                }
                let ctx = format!("{tree:?} fenced={fenced}");
                assert_eq!(live_blocks(&shared), 0, "{ctx}: a block outlived its run");
                assert!(g.tile_cols() <= 2 || most > 1, "{ctx}: order held {most}");
                assert_eq!(shared.tiles().to_matrix(), seq.tiles().to_matrix(), "{ctx}");
                // Fenced commits displace tiles that nothing holds; closing
                // the run releases them.
                assert!(!fenced || spares(&shared) > 0, "{ctx}: nothing recycled");
                shared.end_run();
                assert_eq!(spares(&shared), 0, "{ctx}: spares outlived the run");
            }
        }
    }

    /// The dense oracle for a solve: the same `Qᵀ B`, cut to `cols` rows and
    /// back-substituted row by row over `r_rows(cols)`.
    fn dense_solve(st: &FactorState<f64>, g: &TaskGraph, rhs: &Matrix<f64>) -> Result<Matrix<f64>> {
        let cols = st.dense_dims().1;
        let (r, qtb) = (st.r_rows(cols), st.apply(g, rhs, ApplySide::Transpose)?);
        let mut x = Matrix::zeros(cols, rhs.cols());
        for j in 0..rhs.cols() {
            let xj = tileqr_matrix::ops::solve_upper_triangular(&r, &qtb.col(j)[..cols])?;
            x.col_mut(j).copy_from_slice(&xj);
        }
        Ok(x)
    }

    #[test]
    fn tile_solve_matches_dense_back_substitution() {
        use tileqr_matrix::ops::triangular_condition_est;
        for b in [1, 7, 16, 17, 64] {
            for cols in [1, b - 1, b, b + 1, 2 * b + 3]
                .into_iter()
                .filter(|&c| c > 0)
            {
                for rows in [cols, 3 * cols + 5] {
                    let a = random_matrix::<f64>(rows, cols, (b * 1000 + cols * 10 + rows) as u64);
                    let mut trees = vec![TreePolicy::Fixed(EliminationTree::Flat)];
                    trees.extend((rows > cols).then_some(TreePolicy::Auto));
                    for tree in trees {
                        let (mut st, g) = FactorState::plan(&a, b, tree).unwrap();
                        st.run_all(&g).unwrap();
                        let kappa = triangular_condition_est(&st.r_rows(cols), 30).unwrap();
                        for nrhs in [1, 3] {
                            let rhs = random_matrix::<f64>(rows, nrhs, rows as u64);
                            let (x, want) = (
                                st.solve(&g, &rhs).unwrap(),
                                dense_solve(&st, &g, &rhs).unwrap(),
                            );
                            let scale = want.max_abs().max(1.0);
                            let dev = x.sub(&want).unwrap().max_abs() / scale;
                            let budget = 100.0 * f64::EPSILON * kappa * cols as f64;
                            let ctx = format!("b={b} {rows}x{cols} {tree:?} nrhs={nrhs}");
                            assert!(dev <= budget, "{ctx}: deviation {dev:e} over {budget:e}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zero_column_is_singular_at_the_parents_index() {
        // 37 columns at b = 8: the last tile column holds 32..37.
        for zero in [34, 5] {
            let mut a = random_matrix::<f64>(37, 37, 9);
            a.col_mut(zero).fill(0.0);
            let (mut st, g) = FactorState::plan(&a, 8, TreePolicy::default()).unwrap();
            st.run_all(&g).unwrap();
            let rhs = random_matrix::<f64>(37, 2, 10);
            let want = Err(MatrixError::Singular { index: zero });
            assert_eq!(
                dense_solve(&st, &g, &rhs),
                want,
                "oracle, zero column {zero}"
            );
            assert_eq!(st.solve(&g, &rhs), want, "tile solve, zero column {zero}");
        }
    }
}
