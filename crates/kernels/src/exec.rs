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
//! Every tile and `T` factor sits in its own mutex slot, dense-indexed by
//! tile: a `GEQRT` factor by its panel tile `(i, k)`, an elimination factor
//! by its eliminated tile `(i, k)`, which fixes the pivot `p` (stored
//! alongside), and `−V₂ᵀ` while its updates run (DESIGN §13). One stage
//! body and one commit body reach the slots two ways (DESIGN §9): under
//! `&mut self` (`execute`, `run_all`) through `Mutex::get_mut`, with no
//! lock; under `&self` (a parallel runtime's workers) by locking only the
//! slots the task touches. [`apply_qt_dense`] / [`apply_q_dense`] replay the
//! factor kernels over a dense right-hand side in program order, so `Q`
//! does not depend on the (nondeterministic) parallel schedule.

use crate::factor::store_neg_transpose;
use crate::geqrt::pair_update;
use crate::workspace::Workspace;
use crate::{geqrt_apply_ws, geqrt_ws, tsqrt_ws, ttqrt_ws, ApplySide};
use std::ops::DerefMut;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tileqr_dag::{TaskGraph, TaskKind};
use tileqr_matrix::{Matrix, MatrixError, Result, Scalar, TiledMatrix};

/// Make a staged tile's handle the only one, so the task can write through
/// it and commit can put the same allocation back. The DAG's WAR/WAW edges
/// guarantee the handle is unique when a writer stages a tile (all readers
/// have committed and dropped their clones), so this is normally a no-op;
/// the clone fallback only fires if an external handle is still alive, and
/// every such full-tile copy is counted — it is the copy-on-write slow
/// path the runtime surfaces as `RunReport::cow_clones`.
fn unique<T: Scalar>(mut a: Tile<T>, cow: &AtomicU64) -> Tile<T> {
    if Arc::get_mut(&mut a).is_none() {
        cow.fetch_add(1, Ordering::Relaxed);
        a = Arc::new((*a).clone());
    }
    a
}

/// Write access to a tile staged by [`unique`] (or freshly cloned by
/// `stage_preserving`, or a spare): the task holds its only handle until
/// commit.
fn owned<T: Scalar>(a: &mut Tile<T>) -> &mut Matrix<T> {
    Arc::get_mut(a).expect("a staged tile has one handle")
}

/// A tile's handle: shared to read, unique to write.
type Tile<T> = Arc<Matrix<T>>;

/// Lock a slot for a body run under `&self`. The uncontended fast path
/// reads no clock; only a lock that blocks is timed, into `wait_ns`.
fn lock_slot<'a, X>(slot: &'a Mutex<X>, wait_ns: &AtomicU64) -> MutexGuard<'a, X> {
    if let Ok(guard) = slot.try_lock() {
        return guard;
    }
    let t0 = Instant::now();
    let guard = slot.lock().expect("slot poisoned");
    wait_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    guard
}

/// A slot's value, read under its lock outside any stage or commit.
fn read<X: Clone>(slot: &Mutex<X>) -> X {
    slot.lock().expect("slot poisoned").clone()
}

/// A slot under `&mut`: no lock, no atomic.
fn exclusive<X>(slot: &mut Mutex<X>) -> &mut X {
    slot.get_mut().expect("slot poisoned")
}

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

/// Every tile and factor in its own slot, dense-indexed by tile `i*nt+j`,
/// and the spare list.
#[derive(Debug)]
struct Slots<T: Scalar> {
    tiles: Vec<Mutex<Tile<T>>>,
    /// `T` factors of `GEQRT`, by the factored tile.
    geqrt_t: Vec<Mutex<Option<Tile<T>>>>,
    /// `T` factors of `TSQRT`/`TTQRT`, by the *eliminated* tile (which
    /// determines the pivot `p`, stored alongside).
    elim_t: Vec<Mutex<Option<ElimFactor<T>>>>,
    /// Tiles a fenced commit displaced and spent `−V₂ᵀ` blocks that nothing
    /// else holds: staged copies, `T` outputs and new blocks reuse these.
    spare: Mutex<Vec<Tile<T>>>,
}

/// How the stage and commit bodies reach a slot: [`Slots`] itself under
/// `&mut` (no lock), or [`Locked`].
trait Road<T: Scalar> {
    fn tile(&mut self, idx: usize) -> impl DerefMut<Target = Tile<T>> + '_;
    fn geqrt(&mut self, idx: usize) -> impl DerefMut<Target = Option<Tile<T>>> + '_;
    fn elim(&mut self, idx: usize) -> impl DerefMut<Target = Option<ElimFactor<T>>> + '_;
    fn spare(&mut self) -> impl DerefMut<Target = Vec<Tile<T>>> + '_;
}

impl<T: Scalar> Road<T> for Slots<T> {
    fn tile(&mut self, idx: usize) -> impl DerefMut<Target = Tile<T>> + '_ {
        exclusive(&mut self.tiles[idx])
    }
    fn geqrt(&mut self, idx: usize) -> impl DerefMut<Target = Option<Tile<T>>> + '_ {
        exclusive(&mut self.geqrt_t[idx])
    }
    fn elim(&mut self, idx: usize) -> impl DerefMut<Target = Option<ElimFactor<T>>> + '_ {
        exclusive(&mut self.elim_t[idx])
    }
    fn spare(&mut self) -> impl DerefMut<Target = Vec<Tile<T>>> + '_ {
        exclusive(&mut self.spare)
    }
}

/// The slots under `&self`: each one locked on its own, a lock that blocks
/// timed into the counter.
struct Locked<'a, T: Scalar>(&'a Slots<T>, &'a AtomicU64);

impl<T: Scalar> Road<T> for Locked<'_, T> {
    fn tile(&mut self, idx: usize) -> impl DerefMut<Target = Tile<T>> + '_ {
        lock_slot(&self.0.tiles[idx], self.1)
    }
    fn geqrt(&mut self, idx: usize) -> impl DerefMut<Target = Option<Tile<T>>> + '_ {
        lock_slot(&self.0.geqrt_t[idx], self.1)
    }
    fn elim(&mut self, idx: usize) -> impl DerefMut<Target = Option<ElimFactor<T>>> + '_ {
        lock_slot(&self.0.elim_t[idx], self.1)
    }
    fn spare(&mut self) -> impl DerefMut<Target = Vec<Tile<T>>> + '_ {
        self.0.spare.lock().expect("spare tiles poisoned")
    }
}

/// Keep `tile` as a spare if no other handle holds it (out of its slot, it gains none).
fn recycle<T: Scalar>(road: &mut impl Road<T>, tile: Option<Tile<T>>) {
    if let Some(tile) = tile.filter(|t| Arc::strong_count(t) == 1) {
        road.spare().push(tile);
    }
}

/// What the stage and commit bodies read and never replace.
#[derive(Debug)]
struct Frame<T: Scalar> {
    /// The geometry: every tile is the placeholder (`tiles` fills them in).
    grid: TiledMatrix<T>,
    /// Shared all-zero placeholder swapped in when a tile is staged out.
    empty: Tile<T>,
    /// Copy-on-write fallback counter: full-tile clones taken because an
    /// `Arc` that should have been unique was still shared.
    cow: AtomicU64,
    /// Nanoseconds blocked on contended slot locks, staging and committing.
    stage_wait_ns: AtomicU64,
    commit_wait_ns: AtomicU64,
}

impl<T: Scalar> Frame<T> {
    fn idx(&self, i: usize, j: usize) -> usize {
        i * self.grid.tile_cols() + j
    }

    /// A spare tile, or a fresh one. Every user overwrites it whole.
    fn spare_tile(&self, road: &mut impl Road<T>) -> Tile<T> {
        let tile = road.spare().pop();
        tile.unwrap_or_else(|| Arc::new(Matrix::zeros(self.empty.rows(), self.empty.cols())))
    }

    /// Tile `(i, j)` for a task to read: its slot is held for an `Arc` clone.
    fn read_tile(&self, road: &mut impl Road<T>, (i, j): (usize, usize)) -> Tile<T> {
        Arc::clone(&road.tile(self.idx(i, j)))
    }

    /// Tile `(i, j)` for a task to write. Taken, it is a pointer swap
    /// against the placeholder and the handle that comes out is (normally)
    /// unique. Kept, it is an `O(b²)` copy into a spare tile and the slot
    /// keeps the pre-task value.
    fn written(&self, road: &mut impl Road<T>, (i, j): (usize, usize), keep: bool) -> Tile<T> {
        let slot = self.idx(i, j);
        if !keep {
            let arc = std::mem::replace(&mut *road.tile(slot), Arc::clone(&self.empty));
            return unique(arc, &self.cow);
        }
        let src = self.read_tile(road, (i, j));
        let mut tile = self.spare_tile(road);
        let copy = owned(&mut tile).as_mut_slice();
        copy.copy_from_slice(src.as_slice());
        tile
    }

    /// The one stage body: take (or keep and copy) the tiles `task` writes,
    /// share the ones it reads, and hand it a spare for its `T` and `−V₂ᵀ`
    /// outputs. A missing reflector factor fails before any slot changes.
    fn stage(&self, road: &mut impl Road<T>, task: TaskKind, keep: bool) -> Result<StagedTask<T>> {
        let tiles = match task {
            TaskKind::Geqrt { i, k } => Tiles::Factor {
                tile: self.written(road, (i, k), keep),
                tfac: self.spare_tile(road),
            },
            TaskKind::Unmqr { i, j, k } => {
                let tfac = road.geqrt(self.idx(i, k)).clone();
                let tfac = tfac.ok_or_else(missing_factor_err)?;
                Tiles::Update {
                    vr: self.read_tile(road, (i, k)),
                    tfac,
                    c: self.written(road, (i, j), keep),
                }
            }
            TaskKind::Tsqrt { p, i, k } | TaskKind::Ttqrt { p, i, k } => Tiles::Elim {
                r1: self.written(road, (p, k), keep),
                a2: self.written(road, (i, k), keep),
                tfac: self.spare_tile(road),
                vt: (k + 2 < self.grid.tile_cols()).then(|| self.spare_tile(road)),
            },
            TaskKind::Tsmqr { p, i, j, k } | TaskKind::Ttmqr { p, i, j, k } => {
                let (tfac, vt) = match &*road.elim(self.idx(i, k)) {
                    Some(e) if e.p == p => (Arc::clone(&e.tfac), e.vt.clone()),
                    _ => return Err(missing_factor_err()),
                };
                Tiles::PairUpdate {
                    v2: self.read_tile(road, (i, k)),
                    tfac,
                    vt,
                    a1: self.written(road, (p, j), keep),
                    a2: self.written(road, (i, j), keep),
                }
            }
        };
        Ok(StagedTask { task, tiles })
    }

    /// Store `tile` in slot `(i, j)`. The tile it displaces becomes a spare
    /// if nothing else holds it (a fenced commit; an unfenced one displaces
    /// the shared placeholder, and a straggler's handle keeps its tile out).
    fn put(&self, road: &mut impl Road<T>, (i, j): (usize, usize), tile: Tile<T>) {
        let old = std::mem::replace(&mut *road.tile(self.idx(i, j)), tile);
        recycle(road, Some(old));
    }

    /// The one commit body: write a completed task's outputs back.
    fn commit(&self, road: &mut impl Road<T>, done: CompletedTask<T>) {
        match (done.task, done.tiles) {
            (TaskKind::Geqrt { i, k }, Tiles::Factor { tile, tfac }) => {
                self.put(road, (i, k), tile);
                *road.geqrt(self.idx(i, k)) = Some(tfac);
            }
            (TaskKind::Unmqr { i, j, .. }, Tiles::Update { c, .. }) => self.put(road, (i, j), c),
            (
                TaskKind::Tsqrt { p, i, k } | TaskKind::Ttqrt { p, i, k },
                Tiles::Elim { r1, a2, tfac, vt },
            ) => {
                self.put(road, (p, k), r1);
                self.put(road, (i, k), a2);
                let pending = self.grid.tile_cols() - 1 - k;
                *road.elim(self.idx(i, k)) = Some(ElimFactor {
                    p,
                    tfac,
                    vt,
                    pending,
                });
            }
            (
                TaskKind::Tsmqr { p, i, j, k } | TaskKind::Ttmqr { p, i, j, k },
                Tiles::PairUpdate { a1, a2, vt, .. },
            ) => {
                // The task's own handle goes first, so the last update's
                // settle finds the block unshared and recycles it.
                drop(vt);
                self.put(road, (p, j), a1);
                self.put(road, (i, j), a2);
                let spent = settle(&mut road.elim(self.idx(i, k)));
                recycle(road, spent);
            }
            _ => unreachable!("task/output kind mismatch"),
        }
    }
}

/// Mutable factorization state: the tiled matrix plus reflector factors,
/// every one in its own slot. Through `&mut self` a task reaches its slots
/// with no lock; through `&self` independent tasks stage and commit
/// concurrently, each critical section a pointer swap or `Arc` clone —
/// `O(1)`, never `O(b²)` — and no lock held across a kernel or while
/// another slot is locked.
#[derive(Debug)]
pub struct FactorState<T: Scalar> {
    frame: Frame<T>,
    slots: Slots<T>,
    /// Scratch arena for `execute`; a runtime's workers bring their own.
    ws: Workspace<T>,
}

/// The copy shares every tile and factor (its first write to a tile takes
/// a counted copy-on-write clone) and starts from the original's counts.
impl<T: Scalar> Clone for FactorState<T> {
    fn clone(&self) -> Self {
        fn copied<X: Clone>(slots: &[Mutex<X>]) -> Vec<Mutex<X>> {
            slots.iter().map(|s| Mutex::new(read(s))).collect()
        }
        let mut copy = FactorState::new(self.tiles());
        copy.slots.geqrt_t = copied(&self.slots.geqrt_t);
        copy.slots.elim_t = copied(&self.slots.elim_t);
        *copy.frame.cow.get_mut() = self.cow_clones();
        copy.ws = self.ws.clone();
        copy
    }
}

/// A task whose inputs have been extracted and which is ready to compute
/// without touching the shared state.
pub struct StagedTask<T: Scalar> {
    task: TaskKind,
    tiles: Tiles<T>,
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
            .map(|t| Mutex::new(grid.swap_tile_shared(t / nt, t % nt, Arc::clone(&empty))))
            .collect();
        let count = AtomicU64::new;
        FactorState {
            frame: Frame {
                grid,
                empty,
                cow: count(0),
                stage_wait_ns: count(0),
                commit_wait_ns: count(0),
            },
            slots: Slots {
                tiles,
                geqrt_t: (0..mt * nt).map(|_| Mutex::new(None)).collect(),
                elim_t: (0..mt * nt).map(|_| Mutex::new(None)).collect(),
                spare: Mutex::default(),
            },
            ws: Workspace::new(b, b),
        }
    }

    /// A snapshot of the (partially) factored tiles: `Arc` clones of the
    /// slots' tiles, no tile data copied. A snapshot still held when a task
    /// stages one of its tiles for writing costs that task one counted
    /// copy-on-write clone ([`cow_clones`](Self::cow_clones)).
    pub fn tiles(&self) -> TiledMatrix<T> {
        let mut tiles = self.frame.grid.clone();
        let nt = tiles.tile_cols();
        for (t, slot) in self.slots.tiles.iter().enumerate() {
            tiles.set_tile_shared(t / nt, t % nt, read(slot));
        }
        tiles
    }

    /// Tile `(i, j)`, shared.
    fn tile(&self, i: usize, j: usize) -> Tile<T> {
        read(&self.slots.tiles[self.frame.idx(i, j)])
    }

    /// Tile side `b`.
    pub fn tile_size(&self) -> usize {
        self.frame.grid.tile_size()
    }

    /// `(rows, cols)` of the matrix before padding.
    pub fn dense_dims(&self) -> (usize, usize) {
        self.frame.grid.dense_dims()
    }

    /// `(rows, cols)` of the padded tile grid.
    pub fn padded_dims(&self) -> (usize, usize) {
        self.frame.grid.padded_dims()
    }

    /// How many copy-on-write fallback clones [`unique`] took.
    /// Single-owner execution (sequential, or the pool's move-based
    /// staging) keeps this at 0; every increment is a full `O(b²)` tile
    /// copy that should not have happened.
    pub fn cow_clones(&self) -> u64 {
        self.frame.cow.load(Ordering::Relaxed)
    }

    /// Bytes held by the sequential-path scratch arena.
    pub fn workspace_bytes(&self) -> usize {
        self.ws.bytes()
    }

    /// Scratch-arena growths since construction (0 in steady state).
    pub fn workspace_resizes(&self) -> u64 {
        self.ws.resizes()
    }

    /// Close a run driven through `&self`: drop the spare tiles its commits
    /// left, so a finished state holds none, and return the time its slot
    /// locks blocked, `(stage, commit)` — zero when none had to wait —
    /// restarting both counts.
    pub fn end_run(&mut self) -> (Duration, Duration) {
        exclusive(&mut self.slots.spare).clear();
        let f = &mut self.frame;
        let [stage, commit] = [&mut f.stage_wait_ns, &mut f.commit_wait_ns]
            .map(|ns| Duration::from_nanos(std::mem::take(ns.get_mut())));
        (stage, commit)
    }

    /// `T` factor of `GEQRT` on tile `(i, k)`, if computed.
    pub fn geqrt_factor(&self, i: usize, k: usize) -> Option<Arc<Matrix<T>>> {
        read(&self.slots.geqrt_t[self.frame.idx(i, k)])
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
        read(&self.slots.elim_t[self.frame.idx(i, k)]).map(|e| (e.p, e.tfac))
    }

    /// Phase 1: extract this task's inputs (take written tiles, share read
    /// tiles), locking only the slots it touches, so independent tasks
    /// stage concurrently. Fails if a required reflector factor is missing
    /// — i.e. the caller violated the DAG order.
    pub fn stage(&self, task: TaskKind) -> Result<StagedTask<T>> {
        let road = &mut Locked(&self.slots, &self.frame.stage_wait_ns);
        self.frame.stage(road, task, false)
    }

    /// Non-destructive variant of [`stage`](Self::stage): written tiles are
    /// *copied* out instead of swapped out (into a spare tile when a commit
    /// left one), so the state is left exactly as it was. An attempt staged
    /// this way can panic, stall, or fail mid-kernel and the task remains
    /// retryable — nothing is lost until [`commit`](Self::commit) swaps the
    /// outputs in. The fast path keeps the zero-copy [`stage`](Self::stage);
    /// this one trades an `O(b²)` copy per written tile (small next to the
    /// `O(b³)` kernel) for idempotent re-execution.
    pub fn stage_preserving(&self, task: TaskKind) -> Result<StagedTask<T>> {
        let road = &mut Locked(&self.slots, &self.frame.stage_wait_ns);
        self.frame.stage(road, task, true)
    }

    /// Phase 3: write a completed task's outputs back (pointer swaps under
    /// per-slot locks).
    pub fn commit(&self, done: CompletedTask<T>) {
        let road = &mut Locked(&self.slots, &self.frame.commit_wait_ns);
        self.frame.commit(road, done);
    }

    /// Run one task start to finish (sequential convenience): the same
    /// stage and commit bodies, reaching the slots without a lock. Kernels
    /// borrow scratch from the state-owned arena, so the steady state
    /// performs no heap allocation beyond a `T`-factor output no spare
    /// tile was free for.
    pub fn execute(&mut self, task: TaskKind) -> Result<()> {
        let staged = self.frame.stage(&mut self.slots, task, false)?;
        let done = staged.compute_with(&mut self.ws)?;
        self.frame.commit(&mut self.slots, done);
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

    /// The first `m` rows of [`r_matrix`](Self::r_matrix) (a solve reads
    /// `cols`), by column runs out of the tiles on and above the diagonal,
    /// each tile's slot read once.
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
}

impl<T: Scalar> StagedTask<T> {
    /// Phase 2: the actual kernel, on owned/shared data — runs without any
    /// lock. All scratch is borrowed from `ws`, and every output tile was
    /// handed over by staging, so once the arena has warmed up to the tile
    /// size the kernel allocates nothing. The factor kernels zero the `T`
    /// tile before they write it.
    pub fn compute_with(mut self, ws: &mut Workspace<T>) -> Result<CompletedTask<T>> {
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
        let StagedTask { task, tiles } = self;
        Ok(CompletedTask { task, tiles })
    }
}

impl<T: Scalar> CompletedTask<T> {
    /// Scan every output (written tiles *and* reflector `T` factors) for
    /// non-finite values and return the grid coordinates of the first
    /// poisoned tile, or `None` when the outputs are clean. A runtime can
    /// call this at its commit fence *before* the outputs touch shared
    /// state, so a NaN/Inf produced by one task never propagates into
    /// downstream tiles.
    pub fn first_non_finite(&self) -> Option<(usize, usize)> {
        let dirty = |m: &Matrix<T>| !m.all_finite();
        match (&self.task, &self.tiles) {
            (TaskKind::Geqrt { i, k }, Tiles::Factor { tile, tfac }) => {
                (dirty(tile) || dirty(tfac)).then_some((*i, *k))
            }
            (TaskKind::Unmqr { i, j, .. }, Tiles::Update { c, .. }) => dirty(c).then_some((*i, *j)),
            (
                TaskKind::Tsqrt { p, i, k } | TaskKind::Ttqrt { p, i, k },
                Tiles::Elim { r1, a2, tfac, .. },
            ) => dirty(r1)
                .then_some((*p, *k))
                .or((dirty(a2) || dirty(tfac)).then_some((*i, *k))),
            (
                TaskKind::Tsmqr { p, i, j, .. } | TaskKind::Ttmqr { p, i, j, .. },
                Tiles::PairUpdate { a1, a2, .. },
            ) => dirty(a1)
                .then_some((*p, *j))
                .or(dirty(a2).then_some((*i, *j))),
            _ => unreachable!("task/output kind mismatch"),
        }
    }

    /// Test seam: overwrite the first element of this task's first output
    /// tile with NaN, as if the kernel had numerically broken down. Used
    /// by fault injectors to exercise commit-fence poison detection.
    pub fn poison(&mut self) {
        let nan = T::from_f64(f64::NAN);
        let target = match &mut self.tiles {
            Tiles::Factor { tile, .. } => tile,
            Tiles::Update { c, .. } => c,
            Tiles::Elim { r1, .. } => r1,
            Tiles::PairUpdate { a1, .. } => a1,
        };
        if let Some(v) = owned(target).as_mut_slice().first_mut() {
            *v = nan;
        }
    }
}

/// Extract row-block `i` (a `b x cols` matrix) of a dense `c`.
fn row_block<T: Scalar>(c: &Matrix<T>, i: usize, b: usize) -> Matrix<T> {
    c.submatrix(i * b, 0, b, c.cols())
        .expect("row block in range")
}

fn set_row_block<T: Scalar>(c: &mut Matrix<T>, i: usize, block: &Matrix<T>) {
    let b = block.rows();
    c.set_submatrix(i * b, 0, block)
        .expect("row block in range");
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
    for &task in tasks {
        apply_factor_task(state, task, c, side, &mut ws)?;
    }
    Ok(())
}

fn apply_factor_task<T: Scalar>(
    state: &FactorState<T>,
    task: TaskKind,
    c: &mut Matrix<T>,
    side: ApplySide,
    ws: &mut Workspace<T>,
) -> Result<()> {
    let b = state.tile_size();
    match task {
        TaskKind::Geqrt { i, k } => {
            let tfac = state.geqrt_factor(i, k).ok_or_else(missing_factor_err)?;
            let mut block = row_block(c, i, b);
            geqrt_apply_ws(&state.tile(i, k), &tfac, &mut block, side, ws)?;
            set_row_block(c, i, &block);
        }
        TaskKind::Tsqrt { p, i, k } | TaskKind::Ttqrt { p, i, k } => {
            let v2 = state.tile(i, k);
            let tfac = state.elim_factor(p, i, k).ok_or_else(missing_factor_err)?;
            let mut a1 = row_block(c, p, b);
            let mut a2 = row_block(c, i, b);
            let tt = matches!(task, TaskKind::Ttqrt { .. });
            pair_update(&v2, None, &tfac, &mut a1, &mut a2, side, tt, ws)?;
            set_row_block(c, p, &a1);
            set_row_block(c, i, &a2);
        }
        // Update kernels touch only the factored matrix, not C.
        TaskKind::Unmqr { .. } | TaskKind::Tsmqr { .. } | TaskKind::Ttmqr { .. } => {}
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
        let st = FactorState::new(tiled);
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

        let st2 = FactorState::new(tiled);
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
        let st = FactorState::new(tiled);
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

            // The same state driven through `&self`, as a runtime's workers do.
            let st = FactorState::new(tiled);
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
    fn contended_slot_lock_is_timed_into_stage() {
        use std::sync::atomic::AtomicBool;
        let a = random_matrix::<f64>(8, 8, 19);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let mut shared = FactorState::new(tiled);
        let held = shared.slots.tiles[0].lock().unwrap();
        let started = AtomicBool::new(false);
        std::thread::scope(|s| {
            let stager = s.spawn(|| {
                started.store(true, Ordering::Release);
                shared.stage(TaskKind::Geqrt { i: 0, k: 0 }).is_ok()
            });
            while !started.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            // Long past the stager's next step: its `try_lock` fails and
            // it blocks for most of this.
            std::thread::sleep(Duration::from_millis(25));
            drop(held);
            assert!(stager.join().unwrap());
        });
        let (stage, commit) = shared.end_run();
        assert!(stage >= Duration::from_millis(5), "stage wait {stage:?}");
        assert_eq!(commit, Duration::ZERO);
        assert_eq!(shared.end_run(), (Duration::ZERO, Duration::ZERO));
    }

    #[test]
    fn uncontended_replay_times_no_lock_wait() {
        // Both stagings over a whole 8 x 8 graph on one thread: every lock
        // takes the fast path, so neither counter moves, and the preserving
        // replay (which copies into recycled tiles) is bit-identical.
        let a = random_matrix::<f64>(32, 32, 23);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let g = TaskGraph::build_tree(8, 8, EliminationTree::Flat);
        let mut seq = FactorState::new(tiled.clone());
        seq.run_all(&g).unwrap();
        for stage in [FactorState::stage, FactorState::stage_preserving] {
            let mut shared = FactorState::new(tiled.clone());
            let mut ws = Workspace::new(4, 4);
            for &t in g.tasks() {
                let staged = stage(&shared, t).unwrap();
                shared.commit(staged.compute_with(&mut ws).unwrap());
            }
            assert_eq!(shared.end_run(), (Duration::ZERO, Duration::ZERO));
            assert_eq!(shared.tiles().to_matrix(), seq.tiles().to_matrix());
        }
    }

    #[test]
    fn fenced_commit_recycles_only_unshared_tiles() {
        let a = random_matrix::<f64>(8, 8, 29);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let shared = FactorState::new(tiled);
        let spares = || shared.slots.spare.lock().unwrap().len();
        let mut ws = Workspace::new(4, 4);
        let run = |task, ws: &mut Workspace<f64>| {
            let staged = shared.stage_preserving(task).unwrap();
            shared.commit(staged.compute_with(ws).unwrap());
        };
        // A straggler's handle keeps the displaced tile out of the list.
        let straggler = shared.tile(0, 0);
        run(TaskKind::Geqrt { i: 0, k: 0 }, &mut ws);
        assert_eq!(spares(), 0);
        drop(straggler);
        // An unshared one goes in, and the next preserving copy lands in it.
        let displaced = Arc::as_ptr(&shared.tile(0, 1));
        run(TaskKind::Unmqr { i: 0, j: 1, k: 0 }, &mut ws);
        assert_eq!(spares(), 1);
        let staged = shared
            .stage_preserving(TaskKind::Tsqrt { p: 0, i: 1, k: 0 })
            .unwrap();
        match &staged.tiles {
            Tiles::Elim { r1, .. } => {
                assert_eq!(Arc::as_ptr(r1), displaced);
                assert_eq!(**r1, *shared.tile(0, 0));
            }
            _ => panic!("TSQRT staged wrong input kind"),
        }
        assert_eq!(spares(), 0);
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
                exclusive(&mut st.slots.spare).push(stale);
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
        let held = |s: &Mutex<Option<ElimFactor<T>>>| read(s).is_some_and(|e| e.vt.is_some());
        st.slots.elim_t.iter().filter(|s| held(s)).count()
    }

    fn spares<T: Scalar>(st: &FactorState<T>) -> usize {
        st.slots.spare.lock().unwrap().len()
    }

    /// Trees whose eliminations are TS, TT and both on a 5 x 4 grid, plus
    /// the TSQR fast path on a two-column grid, where every elimination has
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
            .chain([(96, 16, EliminationTree::Tsqr(3))])
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
                let vt = read(&st.slots.elim_t[st.frame.idx(i, k)]).unwrap().vt;
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
                    let stage = |task| match fenced {
                        true => shared.stage_preserving(task).unwrap(),
                        false => shared.stage(task).unwrap(),
                    };
                    if fenced {
                        drop(stage(task).compute_with(&mut ws).unwrap());
                    }
                    shared.commit(stage(task).compute_with(&mut ws).unwrap());
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
}
