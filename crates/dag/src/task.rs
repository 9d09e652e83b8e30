//! Task vocabulary of tiled QR.

use std::ops::Deref;

/// Index of a task within its [`crate::TaskGraph`].
pub type TaskId = usize;

/// Tile coordinate `(tile_row, tile_col)` in the tile grid.
pub type TileCoord = (usize, usize);

/// A task's read or write set: at most two tile coordinates held inline,
/// so asking a task for its accesses allocates nothing. Derefs to
/// `[TileCoord]`; unused slots hold `(0, 0)`, so equality is slice equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tiles(usize, [TileCoord; 2]);

impl Tiles {
    const NONE: Tiles = Tiles(0, [(0, 0); 2]);
}

impl Deref for Tiles {
    type Target = [TileCoord];

    fn deref(&self) -> &[TileCoord] {
        &self.1[..self.0]
    }
}

/// The four step classes of the paper (§II-B), used for accounting and for
/// routing work between the main computing device and update devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepClass {
    /// Triangulation (T).
    Triangulation,
    /// Elimination (E).
    Elimination,
    /// Update for triangulation (UT).
    UpdateTriangulation,
    /// Update for elimination (UE).
    UpdateElimination,
}

impl StepClass {
    /// Paper shorthand: "T", "E", "UT" or "UE".
    pub fn shorthand(self) -> &'static str {
        match self {
            StepClass::Triangulation => "T",
            StepClass::Elimination => "E",
            StepClass::UpdateTriangulation => "UT",
            StepClass::UpdateElimination => "UE",
        }
    }

    /// `true` for the non-update (critical-path) classes T and E, which the
    /// paper routes to the main computing device.
    pub fn is_main_device_work(self) -> bool {
        matches!(self, StepClass::Triangulation | StepClass::Elimination)
    }
}

/// One tiled-QR kernel invocation.
///
/// `k` is always the panel (iteration) index. The TS variant only ever uses
/// pivot row `p == k`; the TT tree variants merge arbitrary row pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// `GEQRT` on tile `(i, k)` (in TS mode only `i == k` occurs).
    Geqrt {
        /// Tile row holding the tile being triangulated.
        i: usize,
        /// Panel index (also the tile column).
        k: usize,
    },
    /// `UNMQR`: apply the factor of `Geqrt { i, k }` to tile `(i, j)`.
    Unmqr {
        /// Tile row of the factored tile.
        i: usize,
        /// Tile column being updated (`j > k`).
        j: usize,
        /// Panel index.
        k: usize,
    },
    /// `TSQRT`: eliminate full tile `(i, k)` against triangular tile `(p, k)`.
    Tsqrt {
        /// Pivot tile row (TS mode: `p == k`).
        p: usize,
        /// Tile row being eliminated (`i > p`).
        i: usize,
        /// Panel index.
        k: usize,
    },
    /// `TSMQR`: apply the factor of `Tsqrt { p, i, k }` to tiles `(p, j)`
    /// and `(i, j)`.
    Tsmqr {
        /// Pivot tile row.
        p: usize,
        /// Eliminated tile row.
        i: usize,
        /// Tile column being updated (`j > k`).
        j: usize,
        /// Panel index.
        k: usize,
    },
    /// `TTQRT`: eliminate *triangular* tile `(i, k)` against triangular
    /// tile `(p, k)` (tree variants only).
    Ttqrt {
        /// Pivot tile row.
        p: usize,
        /// Eliminated tile row (`i > p`).
        i: usize,
        /// Panel index.
        k: usize,
    },
    /// `TTMQR`: apply the factor of `Ttqrt { p, i, k }` to tiles `(p, j)`
    /// and `(i, j)`.
    Ttmqr {
        /// Pivot tile row.
        p: usize,
        /// Eliminated tile row.
        i: usize,
        /// Tile column being updated.
        j: usize,
        /// Panel index.
        k: usize,
    },
}

impl TaskKind {
    /// Paper step class of this task.
    pub fn class(self) -> StepClass {
        match self {
            TaskKind::Geqrt { .. } => StepClass::Triangulation,
            TaskKind::Unmqr { .. } => StepClass::UpdateTriangulation,
            TaskKind::Tsqrt { .. } | TaskKind::Ttqrt { .. } => StepClass::Elimination,
            TaskKind::Tsmqr { .. } | TaskKind::Ttmqr { .. } => StepClass::UpdateElimination,
        }
    }

    /// Panel (iteration) index `k`.
    pub fn panel(self) -> usize {
        match self {
            TaskKind::Geqrt { k, .. }
            | TaskKind::Unmqr { k, .. }
            | TaskKind::Tsqrt { k, .. }
            | TaskKind::Tsmqr { k, .. }
            | TaskKind::Ttqrt { k, .. }
            | TaskKind::Ttmqr { k, .. } => k,
        }
    }

    /// The tile column this task's *output data* lives in — used by the
    /// scheduler to decide which device executes it (the paper distributes
    /// whole tile columns, Eq. 12).
    pub fn home_column(self) -> usize {
        match self {
            TaskKind::Geqrt { k, .. } | TaskKind::Tsqrt { k, .. } | TaskKind::Ttqrt { k, .. } => k,
            TaskKind::Unmqr { j, .. } | TaskKind::Tsmqr { j, .. } | TaskKind::Ttmqr { j, .. } => j,
        }
    }

    /// Tiles this task reads but does not modify.
    pub fn reads(self) -> Tiles {
        match self {
            TaskKind::Geqrt { .. } | TaskKind::Tsqrt { .. } | TaskKind::Ttqrt { .. } => Tiles::NONE,
            TaskKind::Unmqr { i, k, .. }
            | TaskKind::Tsmqr { i, k, .. }
            | TaskKind::Ttmqr { i, k, .. } => Tiles(1, [(i, k), (0, 0)]),
        }
    }

    /// Tiles this task modifies.
    pub fn writes(self) -> Tiles {
        match self {
            TaskKind::Geqrt { i, k } => Tiles(1, [(i, k), (0, 0)]),
            TaskKind::Unmqr { i, j, .. } => Tiles(1, [(i, j), (0, 0)]),
            TaskKind::Tsqrt { p, i, k } | TaskKind::Ttqrt { p, i, k } => Tiles(2, [(p, k), (i, k)]),
            TaskKind::Tsmqr { p, i, j, .. } | TaskKind::Ttmqr { p, i, j, .. } => {
                Tiles(2, [(p, j), (i, j)])
            }
        }
    }

    /// Compact display used in traces: e.g. `T(2,2)`, `E(2,5,2)`,
    /// `UE(2,5,7,2)`.
    pub fn label(self) -> String {
        match self {
            TaskKind::Geqrt { i, k } => format!("T({i},{k})"),
            TaskKind::Unmqr { i, j, k } => format!("UT({i},{j},{k})"),
            TaskKind::Tsqrt { p, i, k } => format!("E({p},{i},{k})"),
            TaskKind::Tsmqr { p, i, j, k } => format!("UE({p},{i},{j},{k})"),
            TaskKind::Ttqrt { p, i, k } => format!("Ett({p},{i},{k})"),
            TaskKind::Ttmqr { p, i, j, k } => format!("UEtt({p},{i},{j},{k})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_map_to_paper_steps() {
        assert_eq!(
            TaskKind::Geqrt { i: 0, k: 0 }.class(),
            StepClass::Triangulation
        );
        assert_eq!(
            TaskKind::Tsqrt { p: 0, i: 1, k: 0 }.class(),
            StepClass::Elimination
        );
        assert_eq!(
            TaskKind::Ttqrt { p: 0, i: 1, k: 0 }.class(),
            StepClass::Elimination
        );
        assert_eq!(
            TaskKind::Unmqr { i: 0, j: 1, k: 0 }.class(),
            StepClass::UpdateTriangulation
        );
        assert_eq!(
            TaskKind::Tsmqr {
                p: 0,
                i: 1,
                j: 2,
                k: 0
            }
            .class(),
            StepClass::UpdateElimination
        );
    }

    #[test]
    fn main_device_work_split() {
        assert!(StepClass::Triangulation.is_main_device_work());
        assert!(StepClass::Elimination.is_main_device_work());
        assert!(!StepClass::UpdateTriangulation.is_main_device_work());
        assert!(!StepClass::UpdateElimination.is_main_device_work());
    }

    #[test]
    fn access_sets_are_disjoint_reads_writes() {
        let t = TaskKind::Tsmqr {
            p: 0,
            i: 2,
            j: 3,
            k: 0,
        };
        let reads = t.reads();
        let writes = t.writes();
        assert_eq!(*reads, [(2, 0)]);
        assert_eq!(*writes, [(0, 3), (2, 3)]);
        assert!(TaskKind::Geqrt { i: 1, k: 1 }.reads().is_empty());
        assert!(reads.iter().all(|r| !writes.contains(r)));
    }

    #[test]
    fn home_column_is_output_column() {
        assert_eq!(TaskKind::Geqrt { i: 1, k: 1 }.home_column(), 1);
        assert_eq!(TaskKind::Unmqr { i: 1, j: 4, k: 1 }.home_column(), 4);
        assert_eq!(
            TaskKind::Tsmqr {
                p: 1,
                i: 2,
                j: 5,
                k: 1
            }
            .home_column(),
            5
        );
    }

    #[test]
    fn labels_match_paper_shorthand() {
        assert_eq!(TaskKind::Geqrt { i: 0, k: 0 }.label(), "T(0,0)");
        assert_eq!(StepClass::UpdateElimination.shorthand(), "UE");
    }
}
