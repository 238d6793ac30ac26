//! Morton (z-order) codes over quad subdivisions of a [`Square`].
//!
//! Two consumers share this routine: the IQuad-tree builder in `mc2ls-index`
//! (which needs codes bit-identical to its `quadrant_of` traversal descent)
//! and the blocked verification substrate in `mc2ls-influence` (which
//! Morton-sorts each user's positions so consecutive positions are spatially
//! close, making per-block MBRs tight).
//!
//! [`morton_code`] / [`grid_coords`] are the single-point definition. One
//! point's descent is a serial chain — each level's compare needs the
//! previous level's origin — so a build that keys hundreds of thousands of
//! positions is latency-bound on it. [`for_each_grid_cell`] runs
//! [`DESCENT_LANES`] independent descents in lockstep with the *same*
//! per-level expressions, which turns the chain into throughput-bound lane
//! work with bit-identical cells, and finishes the ragged tail of a stream
//! with the scalar descent.

use crate::{Point, Square};

/// The Morton (z-order) code of `p` under a `depth`-level quad subdivision
/// of `root`.
///
/// The descent is a scalar replica of [`Square::quadrant_of`] +
/// [`Square::child`], evaluating the *same* floating-point expressions
/// (`center = origin + side·0.5`, `child.origin = origin + (q&1)·h`) so the
/// result is bit-identical to the struct-based descent, just without
/// materialising squares. Points on a split line go to the higher-indexed
/// child, exactly as `quadrant_of` assigns them.
///
/// Each level contributes two bits (`north ‖ east`), so the code fits in
/// `2·depth` bits; callers keep `depth ≤ 31`.
///
/// # Examples
/// ```
/// use mc2ls_geo::{morton_code, Point, Square};
///
/// let root = Square::new(Point::ORIGIN, 8.0);
/// // SW quadrant at every level ⇒ code 0.
/// assert_eq!(morton_code(&root, 3, &Point::new(0.1, 0.1)), 0);
/// // NE quadrant at every level ⇒ all bits set.
/// assert_eq!(morton_code(&root, 3, &Point::new(7.9, 7.9)), 0b111111);
/// ```
pub fn morton_code(root: &Square, depth: usize, p: &Point) -> u64 {
    let (mut ox, mut oy, mut side) = (root.origin.x, root.origin.y, root.side);
    let mut code = 0u64;
    for _ in 0..depth {
        let h = side * 0.5;
        let east = (p.x >= ox + h) as u64;
        let north = (p.y >= oy + h) as u64;
        code = (code << 2) | (north << 1) | east;
        ox += east as f64 * h;
        oy += north as f64 * h;
        side = h;
    }
    code
}

/// The `(column, row)` grid cell of `p` under the same `depth`-level quad
/// subdivision [`morton_code`] walks — the per-level `east`/`north` bits
/// accumulated as integer coordinates on the `2^depth × 2^depth` grid.
///
/// Because the descent evaluates the *identical* floating-point midpoint
/// expressions, interleaving the returned coordinate bits reproduces
/// `morton_code` exactly; the Hilbert ordering reuses these cells so the two
/// orderings always agree on which grid cell a point occupies (only the
/// ordering of cells differs).
pub fn grid_coords(root: &Square, depth: usize, p: &Point) -> (u64, u64) {
    let (mut ox, mut oy, mut side) = (root.origin.x, root.origin.y, root.side);
    let (mut cx, mut cy) = (0u64, 0u64);
    for _ in 0..depth {
        let h = side * 0.5;
        let east = (p.x >= ox + h) as u64;
        let north = (p.y >= oy + h) as u64;
        cx = (cx << 1) | east;
        cy = (cy << 1) | north;
        ox += east as f64 * h;
        oy += north as f64 * h;
        side = h;
    }
    (cx, cy)
}

/// Points per batch of the lockstep descent behind [`for_each_grid_cell`].
/// Eight independent descents give the out-of-order core eight chains to
/// overlap and fill two to four SIMD registers of `f64` on every target
/// the workspace builds for.
pub const DESCENT_LANES: usize = 8;

/// One batch of descents in structure-of-arrays form: lane `i` is the
/// point `(px[i], py[i])` under the root square at `(ox[i], oy[i])` with
/// side `side[i]`.
#[derive(Default)]
struct LaneBatch {
    ox: [f64; DESCENT_LANES],
    oy: [f64; DESCENT_LANES],
    side: [f64; DESCENT_LANES],
    px: [f64; DESCENT_LANES],
    py: [f64; DESCENT_LANES],
}

impl LaneBatch {
    #[inline]
    fn set(&mut self, i: usize, root: &Square, p: &Point) {
        self.ox[i] = root.origin.x;
        self.oy[i] = root.origin.y;
        self.side[i] = root.side;
        self.px[i] = p.x;
        self.py[i] = p.y;
    }

    /// [`grid_coords`] of every lane in lockstep, returning the column
    /// coordinates and the row coordinates lane by lane.
    ///
    /// Every lane evaluates exactly the expressions of the scalar descent
    /// in the same order — `h = side·0.5`, `east = p.x ≥ ox + h`,
    /// `ox += east·h`, `side = h` — with no fused multiply-add and no
    /// reassociation, and IEEE-754 arithmetic rounds each lane the same
    /// whether it runs in a scalar or a vector register. So lane `i`'s cell
    /// equals the scalar descent's bit for bit, ties on a split line going
    /// to the higher child as there. `bit` is the flag as the `f64` the
    /// scalar descent multiplies by (`east as f64`); spelling it as a
    /// select of the constants `1.0`/`0.0` gives the same value while
    /// letting the compiler keep the whole level in vector registers
    /// instead of converting each lane's integer flag separately.
    #[inline]
    fn descend(&self, depth: usize) -> ([u64; DESCENT_LANES], [u64; DESCENT_LANES]) {
        let bit = |b: bool| if b { 1.0 } else { 0.0 };
        let (mut ox, mut oy, mut side) = (self.ox, self.oy, self.side);
        let mut cx = [0u64; DESCENT_LANES];
        let mut cy = [0u64; DESCENT_LANES];
        for _ in 0..depth {
            for i in 0..DESCENT_LANES {
                let h = side[i] * 0.5;
                let east = self.px[i] >= ox[i] + h;
                let north = self.py[i] >= oy[i] + h;
                cx[i] = (cx[i] << 1) | u64::from(east);
                cy[i] = (cy[i] << 1) | u64::from(north);
                ox[i] += bit(east) * h;
                oy[i] += bit(north) * h;
                side[i] = h;
            }
        }
        (cx, cy)
    }
}

/// Calls `emit(tag, cx, cy)` with the [`grid_coords`] cell of every
/// `(root, point, tag)` job, in job order.
///
/// Jobs are gathered into batches of [`DESCENT_LANES`] that descend in
/// lockstep, cell for cell bit-identical to [`grid_coords`] (same
/// expressions, same order, no fused multiply-add); the final partial
/// batch runs the scalar [`grid_coords`] itself. Callers keep
/// `depth ≤ 31`. Each job carries its own root, so one stream can
/// mix points keyed under different squares (the position blocks key every
/// user under that user's MBR). The tag is handed back untouched — the
/// caller's handle on what the point belongs to.
pub fn for_each_grid_cell<T: Copy>(
    depth: usize,
    jobs: impl IntoIterator<Item = (Square, Point, T)>,
    mut emit: impl FnMut(T, u64, u64),
) {
    let mut jobs = jobs.into_iter();
    let Some(first) = jobs.next() else {
        return;
    };
    let mut batch = LaneBatch::default();
    let mut tags = [first.2; DESCENT_LANES];
    batch.set(0, &first.0, &first.1);
    let mut filled = 1;
    loop {
        if filled == DESCENT_LANES {
            let (cx, cy) = batch.descend(depth);
            for i in 0..DESCENT_LANES {
                emit(tags[i], cx[i], cy[i]);
            }
            filled = 0;
        }
        let Some((root, p, tag)) = jobs.next() else {
            break;
        };
        batch.set(filled, &root, &p);
        tags[filled] = tag;
        filled += 1;
    }
    for (i, &tag) in tags[..filled].iter().enumerate() {
        let root = Square::new(Point::new(batch.ox[i], batch.oy[i]), batch.side[i]);
        let (cx, cy) = grid_coords(&root, depth, &Point::new(batch.px[i], batch.py[i]));
        emit(tag, cx, cy);
    }
}

/// The Morton code of grid cell `(cx, cy)`: the coordinate bits
/// interleaved `north ‖ east` per level, so
/// `morton_of_cell(grid_coords(r, d, p)) == morton_code(r, d, p)` for
/// every `d ≤ 32`.
#[inline]
pub fn morton_of_cell(cx: u64, cy: u64) -> u64 {
    spread_bits(cx) | (spread_bits(cy) << 1)
}

/// Moves bit `j` of the low 32 bits of `v` to bit `2j`.
#[inline]
fn spread_bits(v: u64) -> u64 {
    let mut x = v & 0xFFFF_FFFF;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    (x | (x << 1)) & 0x5555_5555_5555_5555
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_matches_geometric_descent() {
        let root = Square::new(Point::new(-3.0, 2.0), 8.0);
        for p in [
            Point::new(-2.5, 2.5),
            Point::new(4.9, 9.9),
            Point::new(1.0, 6.0), // exactly on every split line
            Point::new(0.999, 6.001),
        ] {
            let code = morton_code(&root, 4, &p);
            let mut sq = root;
            for level in 0..4 {
                let q = sq.quadrant_of(&p);
                assert_eq!(
                    ((code >> (2 * (3 - level))) & 3) as usize,
                    q,
                    "level {level} point {p:?}"
                );
                sq = sq.child(q);
            }
        }
    }

    #[test]
    fn zero_depth_is_zero() {
        let root = Square::new(Point::ORIGIN, 1.0);
        assert_eq!(morton_code(&root, 0, &Point::new(0.7, 0.3)), 0);
    }

    #[test]
    fn degenerate_square_is_total() {
        // A zero-side root (identical positions) still yields a code —
        // every point lands in the NE child at every level.
        let root = Square::new(Point::new(1.0, 1.0), 0.0);
        let c = morton_code(&root, 2, &Point::new(1.0, 1.0));
        assert_eq!(c, 0b1111);
    }

    #[test]
    fn grid_coords_interleave_to_the_morton_code() {
        let root = Square::new(Point::new(-3.0, 2.0), 8.0);
        for p in [
            Point::new(-2.5, 2.5),
            Point::new(4.9, 9.9),
            Point::new(1.0, 6.0),
            Point::new(0.999, 6.001),
        ] {
            let depth = 6;
            let (cx, cy) = grid_coords(&root, depth, &p);
            let mut interleaved = 0u64;
            for level in (0..depth).rev() {
                let east = (cx >> level) & 1;
                let north = (cy >> level) & 1;
                interleaved = (interleaved << 2) | (north << 1) | east;
            }
            assert_eq!(interleaved, morton_code(&root, depth, &p), "{p:?}");
        }
    }

    #[test]
    fn order_is_spatially_coherent() {
        // Points in the same deep quadrant sort adjacently.
        let root = Square::new(Point::ORIGIN, 16.0);
        let sw_a = morton_code(&root, 5, &Point::new(1.0, 1.0));
        let sw_b = morton_code(&root, 5, &Point::new(1.2, 0.8));
        let ne = morton_code(&root, 5, &Point::new(15.0, 15.0));
        assert!(sw_a.abs_diff(sw_b) < sw_a.abs_diff(ne));
    }
}
