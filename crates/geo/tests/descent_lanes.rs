//! The lane-batched quad descent must equal the scalar single-point
//! definition bit for bit: same cell, same Morton code, same Hilbert code,
//! for any root, any depth the callers use, any stream length (full lane
//! batches plus every tail size), and above all for points that sit exactly
//! on a split line, where the descent's `≥` sends them to the higher child.

use mc2ls_geo::{
    for_each_grid_cell, grid_coords, hilbert_code, hilbert_of_cell, morton_code, morton_of_cell,
    Point, Square, DESCENT_LANES,
};
use proptest::prelude::*;
use rand::prelude::*;

/// A root square: random origin and side, a dyadic one (integer origin,
/// power-of-two side, so every split line is exactly representable), or a
/// degenerate side-0 square (a user whose positions all coincide).
fn random_root(rng: &mut StdRng) -> Square {
    match rng.gen_range(0..4) {
        0 => Square::new(Point::ORIGIN, 0.0),
        1 => {
            let origin = Point::new(
                rng.gen_range(-64i32..64).into(),
                rng.gen_range(-64i32..64).into(),
            );
            Square::new(origin, f64::from(1u32 << rng.gen_range(0u32..8)))
        }
        _ => Square::new(
            Point::new(rng.gen_range(-500.0..500.0), rng.gen_range(-500.0..500.0)),
            rng.gen_range(1e-6..200.0),
        ),
    }
}

/// A coordinate for one axis of `root`: anywhere around the square, on a
/// split line `origin + j·side/2^l`, or on the square's far edge.
fn coordinate(rng: &mut StdRng, origin: f64, side: f64) -> f64 {
    match rng.gen_range(0..4) {
        0 => origin + rng.gen_range(-0.1..1.1) * side,
        1 => origin + side,
        _ => {
            let level = rng.gen_range(0u32..=31);
            let cells = 1u64 << level;
            let j = rng.gen_range(0u64..=cells);
            origin + j as f64 * (side / cells as f64)
        }
    }
}

fn random_jobs(seed: u64, len: usize) -> Vec<(Square, Point)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let shared = random_root(&mut rng);
    (0..len)
        .map(|_| {
            // Mix per-job roots with runs under one shared root, as the
            // position-block and IQuad-tree builds do respectively.
            let root = if rng.gen_bool(0.5) {
                shared
            } else {
                random_root(&mut rng)
            };
            let x = coordinate(&mut rng, root.origin.x, root.side);
            let y = coordinate(&mut rng, root.origin.y, root.side);
            (root, Point::new(x, y))
        })
        .collect()
}

const DEPTHS: [usize; 6] = [0, 1, 5, 16, 30, 31];

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(64))]

    /// Every job of a stream, through full batches and the scalar tail,
    /// gets exactly the scalar cell, Morton code and Hilbert code, in job
    /// order — at every stream length up to three full batches plus the
    /// longest tail.
    #[test]
    fn batched_stream_equals_the_scalar_descent(seed in 0u64..1_000_000) {
        let jobs = random_jobs(seed, 3 * DESCENT_LANES + 7);
        for len in 0..=jobs.len() {
            for depth in DEPTHS {
                let mut got = Vec::with_capacity(len);
                for_each_grid_cell(
                    depth,
                    jobs[..len].iter().enumerate().map(|(i, &(root, p))| (root, p, i)),
                    |i, cx, cy| got.push((i, cx, cy)),
                );
                prop_assert_eq!(got.len(), len);
                for (k, &(i, cx, cy)) in got.iter().enumerate() {
                    prop_assert_eq!(i, k);
                    let (root, p) = jobs[i];
                    prop_assert_eq!((cx, cy), grid_coords(&root, depth, &p));
                    prop_assert_eq!(morton_of_cell(cx, cy), morton_code(&root, depth, &p));
                    prop_assert_eq!(
                        hilbert_of_cell(depth, cx, cy),
                        hilbert_code(&root, depth, &p)
                    );
                }
            }
        }
    }
}

#[test]
fn split_line_ties_go_to_the_higher_child_in_every_lane() {
    // Dyadic root: the point (4, 4) lies on the first split line of both
    // axes, (2, 6) on deeper ones; each lane must send ties north/east
    // exactly as the scalar descent does. Eight points fill one batch.
    let root = Square::new(Point::ORIGIN, 8.0);
    let points = [
        Point::new(4.0, 4.0),
        Point::new(2.0, 6.0),
        Point::new(0.0, 0.0),
        Point::new(8.0, 8.0),
        Point::new(3.999_999, 4.0),
        Point::new(4.0, 3.999_999),
        Point::new(1.0, 7.0),
        Point::new(6.0, 2.0),
    ];
    let mut cells = Vec::new();
    for_each_grid_cell(3, points.iter().map(|&p| (root, p, ())), |(), cx, cy| {
        cells.push((cx, cy));
    });
    assert_eq!(cells[0], (0b100, 0b100));
    assert_eq!(cells[3], (0b111, 0b111));
    for (i, p) in points.iter().enumerate() {
        assert_eq!(cells[i], grid_coords(&root, 3, p), "lane {i}");
    }
}

#[test]
fn degenerate_roots_and_empty_streams_are_total() {
    let root = Square::new(Point::new(1.0, 1.0), 0.0);
    let mut cells = Vec::new();
    for_each_grid_cell(
        16,
        (0..11).map(|i| (root, Point::new(1.0, 1.0), i)),
        |i, cx, cy| {
            cells.push((i, cx, cy));
        },
    );
    assert_eq!(cells.len(), 11);
    for (i, &(tag, cx, cy)) in cells.iter().enumerate() {
        assert_eq!(tag, i);
        assert_eq!((cx, cy), grid_coords(&root, 16, &Point::new(1.0, 1.0)));
    }

    let mut calls = 0;
    for_each_grid_cell(16, std::iter::empty::<(Square, Point, u32)>(), |_, _, _| {
        calls += 1;
    });
    assert_eq!(calls, 0);
}
