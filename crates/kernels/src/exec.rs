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
//! `T` factors live in dense `Vec`s indexed by tile: a `GEQRT` factor by its
//! panel tile `(i, k)`, an elimination factor by its eliminated tile
//! `(i, k)`, which fixes the pivot `p` (stored alongside: row `i` is
//! eliminated once per panel in every elimination order), and `−V₂ᵀ` while
//! its updates run (DESIGN §13).
//!
//! [`SharedFactorState`] is the parallel counterpart: the same data behind
//! *per-slot* mutexes so independent tasks stage and commit concurrently.
//! [`FactorState::execute`] chains the phases for sequential use. After a
//! [`TaskGraph`] has run, [`apply_qt_dense`] / [`apply_q_dense`] replay the
//! factor kernels over a dense right-hand side in program order, so `Q`
//! does not depend on the (nondeterministic) parallel schedule.

use crate::factor::store_neg_transpose;
use crate::geqrt::pair_update;
use crate::workspace::Workspace;
use crate::{geqrt_apply_ws, geqrt_ws, tsqrt_ws, ttqrt_ws, ApplySide};
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
fn unique<T: Scalar>(mut a: Arc<Matrix<T>>, cow: &AtomicU64) -> Arc<Matrix<T>> {
    if Arc::get_mut(&mut a).is_none() {
        cow.fetch_add(1, Ordering::Relaxed);
        a = Arc::new((*a).clone());
    }
    a
}

/// Write access to a tile staged by [`unique`] (or freshly cloned by
/// `stage_preserving`): the task holds its only handle until commit.
fn owned<T: Scalar>(a: &mut Arc<Matrix<T>>) -> &mut Matrix<T> {
    Arc::get_mut(a).expect("a staged tile has one handle")
}

/// Tiles a fenced commit displaced and spent `−V₂ᵀ` blocks, kept while
/// nothing else holds them: staged copies and new blocks reuse these.
type Spares<T> = Mutex<Vec<Arc<Matrix<T>>>>;

/// A spare tile, or a fresh copy of the all-zero placeholder.
fn spare_tile<T: Scalar>(spare: &Spares<T>, empty: &Matrix<T>) -> Arc<Matrix<T>> {
    let tile = spare.lock().expect("spare tiles poisoned").pop();
    tile.unwrap_or_else(|| Arc::new(empty.clone()))
}

/// Keep `tile` as a spare if no other handle holds it (out of its slot, it gains none).
fn recycle<T: Scalar>(spare: &Spares<T>, tile: Option<Arc<Matrix<T>>>) {
    if let Some(tile) = tile.filter(|t| Arc::strong_count(t) == 1) {
        spare.lock().expect("spare tiles poisoned").push(tile);
    }
}

/// Lock a slot of a [`SharedFactorState`]. The uncontended fast path reads
/// no clock; only a lock that blocks is timed, into `wait_ns`.
fn lock_slot<'a, X>(slot: &'a Mutex<X>, wait_ns: &AtomicU64) -> MutexGuard<'a, X> {
    if let Ok(guard) = slot.try_lock() {
        return guard;
    }
    let t0 = Instant::now();
    let guard = slot.lock().expect("slot poisoned");
    wait_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    guard
}

/// The value of a slot no thread can hold any more.
fn inner<X>(slot: Mutex<X>) -> X {
    slot.into_inner().expect("no poisoned slots")
}

/// An elimination `T` factor, its pivot row and, for a factor with two or
/// more trailing updates, `−V₂ᵀ` until the `pending` ones have committed.
#[derive(Debug, Clone)]
struct ElimFactor<T: Scalar> {
    p: usize,
    tfac: Arc<Matrix<T>>,
    vt: Option<Arc<Matrix<T>>>,
    pending: usize,
}

impl<T: Scalar> ElimFactor<T> {
    /// One trailing update committed: the last one takes `−V₂ᵀ` out.
    fn settle(&mut self) -> Option<Arc<Matrix<T>>> {
        self.pending = self.pending.saturating_sub(1);
        self.vt.take_if(|_| self.pending == 0)
    }
}

/// Mutable factorization state: the tiled matrix plus reflector factors.
#[derive(Debug)]
pub struct FactorState<T: Scalar> {
    tiles: TiledMatrix<T>,
    nt: usize,
    /// `T` factors of `GEQRT`, dense-indexed by the factored tile `i*nt+k`.
    geqrt_t: Vec<Option<Arc<Matrix<T>>>>,
    /// `T` factors of `TSQRT`/`TTQRT`, dense-indexed by the *eliminated*
    /// tile `i*nt+k` (which determines the pivot `p`, stored alongside).
    elim_t: Vec<Option<ElimFactor<T>>>,
    /// Shared all-zero placeholder swapped in when a tile is staged out.
    empty: Arc<Matrix<T>>,
    /// Copy-on-write fallback counter: full-tile clones taken because an
    /// `Arc` that should have been unique was still shared.
    cow: Arc<AtomicU64>,
    /// Recycled `−V₂ᵀ` blocks: the next elimination writes into one.
    spare: Spares<T>,
    /// Scratch arena for the sequential execution path.
    ws: Workspace<T>,
}

impl<T: Scalar> Clone for FactorState<T> {
    fn clone(&self) -> Self {
        FactorState {
            tiles: self.tiles.clone(),
            nt: self.nt,
            geqrt_t: self.geqrt_t.clone(),
            elim_t: self.elim_t.clone(),
            empty: Arc::clone(&self.empty),
            // The clone gets its own counter (seeded with the current
            // value) so two states never alias their slow-path accounting.
            cow: Arc::new(AtomicU64::new(self.cow.load(Ordering::Relaxed))),
            spare: Spares::default(),
            ws: self.ws.clone(),
        }
    }
}

/// A task whose inputs have been extracted and which is ready to compute
/// without touching the shared state.
pub struct StagedTask<T: Scalar> {
    task: TaskKind,
    inputs: Inputs<T>,
}

enum Inputs<T: Scalar> {
    /// GEQRT: the tile to factor (taken).
    Factor { tile: Arc<Matrix<T>> },
    /// UNMQR: shared factored tile + its T factor, plus the target (taken).
    Update {
        vr: Arc<Matrix<T>>,
        tfac: Arc<Matrix<T>>,
        c: Arc<Matrix<T>>,
    },
    /// TSQRT/TTQRT: pivot and eliminated tiles (taken), a tile for `−V₂ᵀ`.
    Elim {
        r1: Arc<Matrix<T>>,
        a2: Arc<Matrix<T>>,
        vt: Option<Arc<Matrix<T>>>,
    },
    /// TSMQR/TTMQR: shared V2, T factor and `−V₂ᵀ`, both targets (taken).
    PairUpdate {
        v2: Arc<Matrix<T>>,
        tfac: Arc<Matrix<T>>,
        vt: Option<Arc<Matrix<T>>>,
        a1: Arc<Matrix<T>>,
        a2: Arc<Matrix<T>>,
    },
}

/// A finished task, ready to be committed back into the state.
pub struct CompletedTask<T: Scalar> {
    task: TaskKind,
    outputs: Outputs<T>,
}

/// Written tiles travel as the handles they were staged with, so commit is
/// a pointer store: the update tasks allocate nothing.
enum Outputs<T: Scalar> {
    Factor {
        tile: Arc<Matrix<T>>,
        tfac: Matrix<T>,
    },
    Update {
        c: Arc<Matrix<T>>,
    },
    Elim {
        r1: Arc<Matrix<T>>,
        a2: Arc<Matrix<T>>,
        tfac: Matrix<T>,
        vt: Option<Arc<Matrix<T>>>,
    },
    PairUpdate {
        a1: Arc<Matrix<T>>,
        a2: Arc<Matrix<T>>,
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
    pub fn new(tiles: TiledMatrix<T>) -> Self {
        let (mt, nt) = (tiles.tile_rows(), tiles.tile_cols());
        let b = tiles.tile_size();
        FactorState {
            tiles,
            nt,
            geqrt_t: vec![None; mt * nt],
            elim_t: vec![None; mt * nt],
            empty: Arc::new(Matrix::zeros(b, b)),
            cow: Arc::new(AtomicU64::new(0)),
            spare: Spares::default(),
            ws: Workspace::new(b, b),
        }
    }

    /// The (partially) factored tiles.
    pub fn tiles(&self) -> &TiledMatrix<T> {
        &self.tiles
    }

    /// How many copy-on-write fallback clones [`unique`] took.
    /// Single-owner execution (sequential, or the pool's move-based
    /// staging) keeps this at 0; every increment is a full `O(b²)` tile
    /// copy that should not have happened.
    pub fn cow_clones(&self) -> u64 {
        self.cow.load(Ordering::Relaxed)
    }

    /// Bytes held by the sequential-path scratch arena.
    pub fn workspace_bytes(&self) -> usize {
        self.ws.bytes()
    }

    /// Scratch-arena growths since construction (0 in steady state).
    pub fn workspace_resizes(&self) -> u64 {
        self.ws.resizes()
    }

    /// `T` factor of `GEQRT` on tile `(i, k)`, if computed.
    pub fn geqrt_factor(&self, i: usize, k: usize) -> Option<&Matrix<T>> {
        self.geqrt_t[i * self.nt + k].as_deref()
    }

    /// `T` factor of the elimination `(p, i, k)`, if computed.
    pub fn elim_factor(&self, p: usize, i: usize, k: usize) -> Option<&Matrix<T>> {
        match &self.elim_t[i * self.nt + k] {
            Some(e) if e.p == p => Some(&e.tfac),
            _ => None,
        }
    }

    /// Elimination factor of eliminated tile `(i, k)` with its pivot row,
    /// whatever the pivot was (used by bit-identity sweeps that compare
    /// every stored factor).
    pub fn elim_factor_any(&self, i: usize, k: usize) -> Option<(usize, &Matrix<T>)> {
        self.elim_t[i * self.nt + k]
            .as_ref()
            .map(|e| (e.p, &*e.tfac))
    }

    /// Move tile `(i, j)` out for writing: a pointer swap against the shared
    /// zero placeholder; the handle that comes out is (normally) unique.
    fn take_tile(&mut self, i: usize, j: usize) -> Arc<Matrix<T>> {
        let arc = self.tiles.swap_tile_shared(i, j, Arc::clone(&self.empty));
        unique(arc, &self.cow)
    }

    /// Phase 1: extract this task's inputs (take written tiles, share read
    /// tiles). Fails if a required reflector factor is missing — i.e. the
    /// caller violated the DAG order.
    pub fn stage(&mut self, task: TaskKind) -> Result<StagedTask<T>> {
        let inputs = match task {
            TaskKind::Geqrt { i, k } => Inputs::Factor {
                tile: self.take_tile(i, k),
            },
            TaskKind::Unmqr { i, j, k } => {
                let tfac = self.geqrt_t[i * self.nt + k]
                    .as_ref()
                    .ok_or_else(missing_factor_err)?
                    .clone();
                Inputs::Update {
                    vr: self.tiles.tile_shared(i, k),
                    tfac,
                    c: self.take_tile(i, j),
                }
            }
            TaskKind::Tsqrt { p, i, k } | TaskKind::Ttqrt { p, i, k } => Inputs::Elim {
                r1: self.take_tile(p, k),
                a2: self.take_tile(i, k),
                vt: (k + 2 < self.nt).then(|| spare_tile(&self.spare, &self.empty)),
            },
            TaskKind::Tsmqr { p, i, j, k } | TaskKind::Ttmqr { p, i, j, k } => {
                let (tfac, vt) = match &self.elim_t[i * self.nt + k] {
                    Some(e) if e.p == p => (Arc::clone(&e.tfac), e.vt.clone()),
                    _ => return Err(missing_factor_err()),
                };
                Inputs::PairUpdate {
                    v2: self.tiles.tile_shared(i, k),
                    tfac,
                    vt,
                    a1: self.take_tile(p, j),
                    a2: self.take_tile(i, j),
                }
            }
        };
        Ok(StagedTask { task, inputs })
    }

    /// Phase 3: write a completed task's outputs back (pointer swaps).
    pub fn commit(&mut self, done: CompletedTask<T>) {
        match (done.task, done.outputs) {
            (TaskKind::Geqrt { i, k }, Outputs::Factor { tile, tfac }) => {
                self.tiles.set_tile_shared(i, k, tile);
                self.geqrt_t[i * self.nt + k] = Some(Arc::new(tfac));
            }
            (TaskKind::Unmqr { i, j, .. }, Outputs::Update { c }) => {
                self.tiles.set_tile_shared(i, j, c);
            }
            (
                TaskKind::Tsqrt { p, i, k } | TaskKind::Ttqrt { p, i, k },
                Outputs::Elim { r1, a2, tfac, vt },
            ) => {
                self.tiles.set_tile_shared(p, k, r1);
                self.tiles.set_tile_shared(i, k, a2);
                self.elim_t[i * self.nt + k] = Some(ElimFactor {
                    p,
                    tfac: Arc::new(tfac),
                    vt,
                    pending: self.nt - 1 - k,
                });
            }
            (
                TaskKind::Tsmqr { p, i, j, k } | TaskKind::Ttmqr { p, i, j, k },
                Outputs::PairUpdate { a1, a2 },
            ) => {
                self.tiles.set_tile_shared(p, j, a1);
                self.tiles.set_tile_shared(i, j, a2);
                let done = self.elim_t[i * self.nt + k].as_mut();
                recycle(&self.spare, done.and_then(ElimFactor::settle));
            }
            _ => unreachable!("task/output kind mismatch"),
        }
    }

    /// Run one task start to finish (sequential convenience). Kernels
    /// borrow scratch from the state-owned arena, so the steady state
    /// performs no heap allocation beyond the task's `T`-factor output.
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
        self.r_rows(self.tiles.dense_dims().0)
    }

    /// The first `m` rows of [`r_matrix`](Self::r_matrix) (a solve reads
    /// `cols`), by column runs out of the tiles on and above the diagonal.
    pub fn r_rows(&self, m: usize) -> Matrix<T> {
        let (b, n) = (self.tiles.tile_size(), self.tiles.dense_dims().1);
        let mut r = Matrix::zeros(m, n);
        for j in 0..n {
            let (tj, cj) = (j / b, j % b);
            let live = (j + 1).min(m);
            for ti in 0..live.div_ceil(b) {
                let len = (live - ti * b).min(b);
                let run = &self.tiles.tile(ti, tj).col(cj)[..len];
                r.col_mut(j)[ti * b..ti * b + len].copy_from_slice(run);
            }
        }
        r
    }
}

/// Parallel factorization state: the same tiles and `T` factors as
/// [`FactorState`], each behind its **own** mutex so independent tasks
/// stage and commit concurrently. Every critical section is a pointer
/// swap or `Arc` clone — `O(1)`, never `O(b²)` — and no lock is ever held
/// across a kernel or while another slot is locked.
#[derive(Debug)]
pub struct SharedFactorState<T: Scalar> {
    /// Geometry template: an all-placeholder tiled matrix the `Arc`s swap
    /// back into on [`into_state`](Self::into_state).
    template: Mutex<TiledMatrix<T>>,
    nt: usize,
    tiles: Vec<Mutex<Arc<Matrix<T>>>>,
    geqrt_t: Vec<Mutex<Option<Arc<Matrix<T>>>>>,
    elim_t: Vec<Mutex<Option<ElimFactor<T>>>>,
    empty: Arc<Matrix<T>>,
    cow: Arc<AtomicU64>,
    /// Nanoseconds spent blocked on a contended slot lock while staging
    /// and while committing.
    stage_wait_ns: AtomicU64,
    commit_wait_ns: AtomicU64,
    spare: Spares<T>,
    /// Sequential-path arena, parked here so it round-trips through
    /// [`into_state`](Self::into_state); workers bring their own.
    ws: Workspace<T>,
}

impl<T: Scalar> SharedFactorState<T> {
    /// Split a sequential state into per-slot shared form.
    pub fn new(state: FactorState<T>) -> Self {
        let FactorState {
            mut tiles,
            nt,
            geqrt_t,
            elim_t,
            empty,
            cow,
            spare,
            ws,
        } = state;
        let mt = tiles.tile_rows();
        let mut slots = Vec::with_capacity(mt * nt);
        for i in 0..mt {
            for j in 0..nt {
                slots.push(Mutex::new(tiles.swap_tile_shared(i, j, Arc::clone(&empty))));
            }
        }
        SharedFactorState {
            template: Mutex::new(tiles),
            nt,
            tiles: slots,
            geqrt_t: geqrt_t.into_iter().map(Mutex::new).collect(),
            elim_t: elim_t.into_iter().map(Mutex::new).collect(),
            empty,
            cow,
            stage_wait_ns: AtomicU64::new(0),
            commit_wait_ns: AtomicU64::new(0),
            spare,
            ws,
        }
    }

    /// Reassemble the sequential state after all tasks have committed.
    pub fn into_state(self) -> FactorState<T> {
        let mut tiles = inner(self.template);
        for (idx, slot) in self.tiles.into_iter().enumerate() {
            tiles.set_tile_shared(idx / self.nt, idx % self.nt, inner(slot));
        }
        FactorState {
            tiles,
            nt: self.nt,
            geqrt_t: self.geqrt_t.into_iter().map(inner).collect(),
            elim_t: self.elim_t.into_iter().map(inner).collect(),
            empty: self.empty,
            cow: self.cow,
            spare: Spares::default(),
            ws: self.ws,
        }
    }

    /// Copy-on-write fallback clones taken so far (see
    /// [`FactorState::cow_clones`]).
    pub fn cow_clones(&self) -> u64 {
        self.cow.load(Ordering::Relaxed)
    }

    /// Time blocked on contended slot locks so far, `(stage, commit)`:
    /// zero when no lock had to wait.
    pub fn lock_waits(&self) -> (Duration, Duration) {
        let read = |ns: &AtomicU64| Duration::from_nanos(ns.load(Ordering::Relaxed));
        (read(&self.stage_wait_ns), read(&self.commit_wait_ns))
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        i * self.nt + j
    }

    /// Shared read of tile `(i, j)`: lock the slot, clone the pointer.
    fn read_tile(&self, i: usize, j: usize) -> Arc<Matrix<T>> {
        Arc::clone(&lock_slot(&self.tiles[self.idx(i, j)], &self.stage_wait_ns))
    }

    /// Take tile `(i, j)` for writing. The swap happens under the slot
    /// lock; the (normally free) uniqueness check happens outside it.
    fn take_tile(&self, i: usize, j: usize) -> Arc<Matrix<T>> {
        let mut slot = lock_slot(&self.tiles[self.idx(i, j)], &self.stage_wait_ns);
        let arc = std::mem::replace(&mut *slot, Arc::clone(&self.empty));
        drop(slot);
        unique(arc, &self.cow)
    }

    /// Copy tile `(i, j)` for writing, leaving the slot's contents in
    /// place. Costs an `O(b²)` copy — into a spare tile when a commit left
    /// one, else into a fresh allocation — which buys the fault-tolerant
    /// pool its requeue safety: if the attempt dies mid-kernel, the slot
    /// still holds the pre-task value and a retry stages clean inputs.
    fn clone_tile(&self, i: usize, j: usize) -> Arc<Matrix<T>> {
        let src = self.read_tile(i, j);
        let mut tile = spare_tile(&self.spare, &self.empty);
        owned(&mut tile)
            .as_mut_slice()
            .copy_from_slice(src.as_slice());
        tile
    }

    /// Store `tile` in slot `(i, j)`. The tile it displaces becomes a spare
    /// if nothing else holds it (a fenced commit; an unfenced one displaces
    /// the shared placeholder, and a straggler's handle keeps its tile out).
    fn put_tile(&self, i: usize, j: usize, tile: Arc<Matrix<T>>) {
        let mut slot = lock_slot(&self.tiles[self.idx(i, j)], &self.commit_wait_ns);
        let old = std::mem::replace(&mut *slot, tile);
        drop(slot);
        recycle(&self.spare, Some(old));
    }

    /// Phase 1 (parallel): identical contract to [`FactorState::stage`] but
    /// takes `&self` and locks only the slots this task touches.
    pub fn stage(&self, task: TaskKind) -> Result<StagedTask<T>> {
        self.stage_with(task, Self::take_tile)
    }

    /// Non-destructive variant of [`stage`](Self::stage): written tiles are
    /// *cloned* out instead of swapped out, so the shared state is left
    /// exactly as it was. An attempt staged this way can panic, stall, or
    /// fail mid-kernel and the task remains retryable — nothing is lost
    /// until [`commit`](Self::commit) swaps the outputs in. The fast path
    /// keeps the zero-copy [`stage`](Self::stage); this one trades an
    /// `O(b²)` copy per written tile (small next to the `O(b³)` kernel)
    /// for idempotent re-execution.
    pub fn stage_preserving(&self, task: TaskKind) -> Result<StagedTask<T>> {
        self.stage_with(task, Self::clone_tile)
    }

    /// Stage `task`, taking each tile it writes through `written`.
    fn stage_with(
        &self,
        task: TaskKind,
        written: fn(&Self, usize, usize) -> Arc<Matrix<T>>,
    ) -> Result<StagedTask<T>> {
        let inputs = match task {
            TaskKind::Geqrt { i, k } => Inputs::Factor {
                tile: written(self, i, k),
            },
            TaskKind::Unmqr { i, j, k } => {
                let tfac = lock_slot(&self.geqrt_t[self.idx(i, k)], &self.stage_wait_ns)
                    .as_ref()
                    .ok_or_else(missing_factor_err)?
                    .clone();
                Inputs::Update {
                    vr: self.read_tile(i, k),
                    tfac,
                    c: written(self, i, j),
                }
            }
            TaskKind::Tsqrt { p, i, k } | TaskKind::Ttqrt { p, i, k } => Inputs::Elim {
                r1: written(self, p, k),
                a2: written(self, i, k),
                vt: (k + 2 < self.nt).then(|| spare_tile(&self.spare, &self.empty)),
            },
            TaskKind::Tsmqr { p, i, j, k } | TaskKind::Ttmqr { p, i, j, k } => {
                let slot = &self.elim_t[self.idx(i, k)];
                let (tfac, vt) = match &*lock_slot(slot, &self.stage_wait_ns) {
                    Some(e) if e.p == p => (Arc::clone(&e.tfac), e.vt.clone()),
                    _ => return Err(missing_factor_err()),
                };
                Inputs::PairUpdate {
                    v2: self.read_tile(i, k),
                    tfac,
                    vt,
                    a1: written(self, p, j),
                    a2: written(self, i, j),
                }
            }
        };
        Ok(StagedTask { task, inputs })
    }

    /// Phase 3 (parallel): write back under per-slot locks only.
    pub fn commit(&self, done: CompletedTask<T>) {
        match (done.task, done.outputs) {
            (TaskKind::Geqrt { i, k }, Outputs::Factor { tile, tfac }) => {
                self.put_tile(i, k, tile);
                let tfac = Some(Arc::new(tfac));
                *lock_slot(&self.geqrt_t[self.idx(i, k)], &self.commit_wait_ns) = tfac;
            }
            (TaskKind::Unmqr { i, j, .. }, Outputs::Update { c }) => {
                self.put_tile(i, j, c);
            }
            (
                TaskKind::Tsqrt { p, i, k } | TaskKind::Ttqrt { p, i, k },
                Outputs::Elim { r1, a2, tfac, vt },
            ) => {
                self.put_tile(p, k, r1);
                self.put_tile(i, k, a2);
                let tfac = Some(ElimFactor {
                    p,
                    tfac: Arc::new(tfac),
                    vt,
                    pending: self.nt - 1 - k,
                });
                *lock_slot(&self.elim_t[self.idx(i, k)], &self.commit_wait_ns) = tfac;
            }
            (
                TaskKind::Tsmqr { p, i, j, k } | TaskKind::Ttmqr { p, i, j, k },
                Outputs::PairUpdate { a1, a2 },
            ) => {
                self.put_tile(p, j, a1);
                self.put_tile(i, j, a2);
                let slot = &self.elim_t[self.idx(i, k)];
                let done = lock_slot(slot, &self.commit_wait_ns)
                    .as_mut()
                    .and_then(ElimFactor::settle);
                recycle(&self.spare, done);
            }
            _ => unreachable!("task/output kind mismatch"),
        }
    }
}

impl<T: Scalar> StagedTask<T> {
    /// Phase 2: the actual kernel, on owned/shared data — runs without any
    /// lock. All scratch is borrowed from `ws`; once the arena has warmed
    /// up to the tile size, the only heap allocations left are the task's
    /// own `T`-factor outputs.
    pub fn compute_with(self, ws: &mut Workspace<T>) -> Result<CompletedTask<T>> {
        let outputs = match (self.task, self.inputs) {
            (TaskKind::Geqrt { .. }, Inputs::Factor { mut tile }) => {
                let n = tile.cols();
                let mut tfac = Matrix::zeros(n, n);
                geqrt_ws(owned(&mut tile), &mut tfac, ws)?;
                Outputs::Factor { tile, tfac }
            }
            (TaskKind::Unmqr { .. }, Inputs::Update { vr, tfac, mut c }) => {
                geqrt_apply_ws(&vr, &tfac, owned(&mut c), ApplySide::Transpose, ws)?;
                Outputs::Update { c }
            }
            (
                task @ (TaskKind::Tsqrt { .. } | TaskKind::Ttqrt { .. }),
                Inputs::Elim { r1, a2, vt },
            ) => {
                let (mut r1, mut a2, mut vt) = (r1, a2, vt);
                let mut tfac = Matrix::zeros(r1.cols(), r1.cols());
                let (top, v2) = (owned(&mut r1), owned(&mut a2));
                let tt = matches!(task, TaskKind::Ttqrt { .. });
                let factor = if tt { ttqrt_ws } else { tsqrt_ws };
                factor(top, v2, &mut tfac, ws)?;
                vt.iter_mut()
                    .for_each(|vt| store_neg_transpose(v2, tt, owned(vt)));
                Outputs::Elim { r1, a2, tfac, vt }
            }
            (
                task @ (TaskKind::Tsmqr { .. } | TaskKind::Ttmqr { .. }),
                Inputs::PairUpdate {
                    v2,
                    tfac,
                    vt,
                    mut a1,
                    mut a2,
                },
            ) => {
                let tt = matches!(task, TaskKind::Ttmqr { .. });
                let (c1, c2, side) = (owned(&mut a1), owned(&mut a2), ApplySide::Transpose);
                pair_update(&v2, vt.as_deref(), &tfac, c1, c2, side, tt, ws)?;
                Outputs::PairUpdate { a1, a2 }
            }
            _ => unreachable!("task/input kind mismatch"),
        };
        Ok(CompletedTask {
            task: self.task,
            outputs,
        })
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
        match (&self.task, &self.outputs) {
            (TaskKind::Geqrt { i, k }, Outputs::Factor { tile, tfac }) => {
                (dirty(tile) || dirty(tfac)).then_some((*i, *k))
            }
            (TaskKind::Unmqr { i, j, .. }, Outputs::Update { c }) => dirty(c).then_some((*i, *j)),
            (
                TaskKind::Tsqrt { p, i, k } | TaskKind::Ttqrt { p, i, k },
                Outputs::Elim { r1, a2, tfac, .. },
            ) => dirty(r1)
                .then_some((*p, *k))
                .or((dirty(a2) || dirty(tfac)).then_some((*i, *k))),
            (
                TaskKind::Tsmqr { p, i, j, .. } | TaskKind::Ttmqr { p, i, j, .. },
                Outputs::PairUpdate { a1, a2, .. },
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
        let target = match &mut self.outputs {
            Outputs::Factor { tile, .. } => tile,
            Outputs::Update { c } => c,
            Outputs::Elim { r1, .. } => r1,
            Outputs::PairUpdate { a1, .. } => a1,
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
    check_rows(state, c)?;
    let b = state.tiles.tile_size();
    let mut ws = Workspace::new(b, b);
    for &task in graph.tasks() {
        apply_factor_task(state, task, c, ApplySide::Transpose, &mut ws)?;
    }
    Ok(())
}

/// Apply `Q` (not transposed) of a completed factorization to a dense `c`:
/// the factor kernels replay in *reverse* program order with untransposed
/// block reflectors.
pub fn apply_q_dense<T: Scalar>(
    state: &FactorState<T>,
    graph: &TaskGraph,
    c: &mut Matrix<T>,
) -> Result<()> {
    check_rows(state, c)?;
    let b = state.tiles.tile_size();
    let mut ws = Workspace::new(b, b);
    for &task in graph.tasks().iter().rev() {
        apply_factor_task(state, task, c, ApplySide::NoTranspose, &mut ws)?;
    }
    Ok(())
}

fn check_rows<T: Scalar>(state: &FactorState<T>, c: &Matrix<T>) -> Result<()> {
    let (pm, _) = state.tiles.padded_dims();
    if c.rows() != pm {
        return Err(MatrixError::DimensionMismatch {
            op: "apply_q (C rows must equal padded rows)",
            lhs: (pm, 0),
            rhs: c.dims(),
        });
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
    let b = state.tiles.tile_size();
    match task {
        TaskKind::Geqrt { i, k } => {
            let vr = state.tiles.tile(i, k);
            let tfac = state.geqrt_factor(i, k).ok_or_else(missing_factor_err)?;
            let mut block = row_block(c, i, b);
            geqrt_apply_ws(vr, tfac, &mut block, side, ws)?;
            set_row_block(c, i, &block);
        }
        TaskKind::Tsqrt { p, i, k } | TaskKind::Ttqrt { p, i, k } => {
            let v2 = state.tiles.tile(i, k);
            let tfac = state.elim_factor(p, i, k).ok_or_else(missing_factor_err)?;
            let mut a1 = row_block(c, p, b);
            let mut a2 = row_block(c, i, b);
            let tt = matches!(task, TaskKind::Ttqrt { .. });
            pair_update(v2, None, tfac, &mut a1, &mut a2, side, tt, ws)?;
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
            for j in 0..12 {
                for i in 0..=j {
                    // reconstruct from tiles directly
                    let tile = st.tiles().tile(i / 4, j / 4);
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
        match &staged.inputs {
            Inputs::Update { vr, tfac, .. } => {
                assert!(
                    Arc::ptr_eq(vr, &st.tiles().tile_shared(0, 0)),
                    "read tile must be Arc-shared, not copied"
                );
                let held = st.geqrt_t[0].as_ref().unwrap();
                assert!(
                    Arc::ptr_eq(tfac, held),
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
        match &staged.inputs {
            Inputs::Factor { tile, .. } => {
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

            let shared = SharedFactorState::new(FactorState::new(tiled));
            for &t in g.tasks() {
                let staged = shared.stage(t).unwrap();
                let done = staged.compute_with(&mut Workspace::new(4, 4)).unwrap();
                shared.commit(done);
            }
            let st = shared.into_state();
            assert_eq!(seq.tiles().to_matrix(), st.tiles().to_matrix());
            assert_eq!(seq.r_matrix(), st.r_matrix());
            // Factors must round-trip through the shared form too.
            assert!(st.geqrt_factor(0, 0).is_some());
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
        let shared = SharedFactorState::new(FactorState::new(tiled));
        for &t in g.tasks() {
            let staged = shared.stage(t).unwrap();
            let done = staged.compute_with(&mut Workspace::new(4, 4)).unwrap();
            shared.commit(done);
        }
        assert_eq!(shared.cow_clones(), 0);
        let st = shared.into_state();
        assert_eq!(st.cow_clones(), 0);
    }

    #[test]
    fn contended_slot_lock_is_timed_into_stage() {
        use std::sync::atomic::AtomicBool;
        let a = random_matrix::<f64>(8, 8, 19);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let shared = SharedFactorState::new(FactorState::new(tiled));
        let held = shared.tiles[0].lock().unwrap();
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
        let (stage, commit) = shared.lock_waits();
        assert!(stage >= Duration::from_millis(5), "stage wait {stage:?}");
        assert_eq!(commit, Duration::ZERO);
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
        for stage in [
            SharedFactorState::stage,
            SharedFactorState::stage_preserving,
        ] {
            let shared = SharedFactorState::new(FactorState::new(tiled.clone()));
            let mut ws = Workspace::new(4, 4);
            for &t in g.tasks() {
                let staged = stage(&shared, t).unwrap();
                shared.commit(staged.compute_with(&mut ws).unwrap());
            }
            assert_eq!(shared.lock_waits(), (Duration::ZERO, Duration::ZERO));
            assert_eq!(
                shared.into_state().tiles().to_matrix(),
                seq.tiles().to_matrix()
            );
        }
    }

    #[test]
    fn fenced_commit_recycles_only_unshared_tiles() {
        let a = random_matrix::<f64>(8, 8, 29);
        let tiled = TiledMatrix::from_matrix(&a, 4).unwrap();
        let shared = SharedFactorState::new(FactorState::new(tiled));
        let mut ws = Workspace::new(4, 4);
        let mut run = |task| {
            let staged = shared.stage_preserving(task).unwrap();
            shared.commit(staged.compute_with(&mut ws).unwrap());
        };
        // A straggler's handle keeps the displaced tile out of the list.
        let straggler = shared.read_tile(0, 0);
        run(TaskKind::Geqrt { i: 0, k: 0 });
        assert!(shared.spare.lock().unwrap().is_empty());
        drop(straggler);
        // An unshared one goes in, and the next preserving copy lands in it.
        let displaced = Arc::as_ptr(&shared.read_tile(0, 1));
        run(TaskKind::Unmqr { i: 0, j: 1, k: 0 });
        assert_eq!(shared.spare.lock().unwrap().len(), 1);
        let staged = shared
            .stage_preserving(TaskKind::Tsqrt { p: 0, i: 1, k: 0 })
            .unwrap();
        match &staged.inputs {
            Inputs::Elim { r1, .. } => {
                assert_eq!(Arc::as_ptr(r1), displaced);
                assert_eq!(**r1, *shared.read_tile(0, 0));
            }
            _ => panic!("TSQRT staged wrong input kind"),
        }
        assert!(shared.spare.lock().unwrap().is_empty());
    }

    /// Elimination factors of a sequential state that still hold `−V₂ᵀ`.
    fn live_blocks<T: Scalar>(st: &FactorState<T>) -> usize {
        st.elim_t
            .iter()
            .flatten()
            .filter(|e| e.vt.is_some())
            .count()
    }

    /// The same count on a shared state.
    fn live_shared_blocks<T: Scalar>(st: &SharedFactorState<T>) -> usize {
        let held = |s: &Mutex<Option<ElimFactor<T>>>| {
            s.lock().unwrap().as_ref().is_some_and(|e| e.vt.is_some())
        };
        st.elim_t.iter().filter(|s| held(s)).count()
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
                let vt = st.elim_t[i * st.nt + k].as_ref().unwrap().vt.clone();
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
                let tfac = st.elim_factor(p, i, k).unwrap().clone();
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
                assert_eq!(
                    st.spare.lock().unwrap().len(),
                    1,
                    "b={b} tt={tt}: not recycled"
                );
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
                let shared = SharedFactorState::new(FactorState::new(t.clone()));
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
                    most = most.max(live_shared_blocks(&shared));
                }
                let ctx = format!("{tree:?} fenced={fenced}");
                assert_eq!(
                    live_shared_blocks(&shared),
                    0,
                    "{ctx}: a block outlived its run"
                );
                assert!(g.tile_cols() <= 2 || most > 1, "{ctx}: order held {most}");
                let st = shared.into_state();
                assert_eq!(st.tiles().to_matrix(), seq.tiles().to_matrix(), "{ctx}");
            }
        }
    }
}
