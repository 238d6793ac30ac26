//! Golden container checksums: the `.mc2s` bytes a fixed, seeded instance
//! encodes to are pinned by their CRC-32, at one and two shards. Any change
//! to a section's byte layout — including the IQuad-tree's Morton order
//! (IQTR) or the position blocks' curve order (PBLK) — moves the checksum,
//! so a build-path rewrite that claims bit-identity is held to it. A
//! deliberate format change updates these values together with the
//! container version.

use mc2ls_core::Problem;
use mc2ls_geo::codec::crc32;
use mc2ls_geo::Point;
use mc2ls_influence::{MovingUser, Sigmoid};
use mc2ls_serve::Snapshot;
use rand::prelude::*;

/// 60 users with 1–24 positions each in a 30 km square, every fifth
/// position on a 1 km grid line, plus 8 users whose positions are integer
/// points of an 8 km square with both corners taken: their MBR is that
/// square, so their position-block keys hit exact quad-descent ties
/// (points on a split line) at every level, and the checksum covers the
/// tie rule.
fn golden_problem() -> Problem<Sigmoid> {
    let mut rng = StdRng::seed_from_u64(0x6D63_326C);
    let pt = |r: &mut StdRng| Point::new(r.gen_range(0.0..30.0), r.gen_range(0.0..30.0));
    let dyadic = (0..8).map(|u| {
        let base = Point::new(f64::from(3 * u), f64::from(2 * u));
        let mut positions = vec![base, Point::new(base.x + 8.0, base.y + 8.0)];
        positions.extend((0..30).map(|i| {
            let (dx, dy) = ((i * 5 + u) % 9, (i * 7 + 2 * u) % 9);
            Point::new(base.x + f64::from(dx), base.y + f64::from(dy))
        }));
        MovingUser::new(positions)
    });
    let users = dyadic
        .chain((0..60).map(|_| {
            let n = rng.gen_range(1..25);
            let positions = (0..n)
                .map(|i| {
                    let p = pt(&mut rng);
                    if i % 5 == 0 {
                        Point::new(p.x.floor(), p.y.floor())
                    } else {
                        p
                    }
                })
                .collect();
            MovingUser::new(positions)
        }))
        .collect();
    let facilities = (0..8).map(|_| pt(&mut rng)).collect();
    let candidates = (0..12).map(|_| pt(&mut rng)).collect();
    Problem::new(
        users,
        facilities,
        candidates,
        3,
        0.6,
        Sigmoid::paper_default(),
    )
}

#[test]
fn container_bytes_are_pinned_at_one_and_two_shards() {
    let problem = golden_problem();
    let mut got = Vec::new();
    for n_shards in [1usize, 2] {
        let (snap, _) = Snapshot::build_sharded("golden", &problem, 2.0, 1, n_shards);
        let bytes = snap.to_bytes();
        got.push((n_shards, bytes.len(), crc32(&bytes)));
    }
    let want = [
        (1usize, 103_697usize, 0xD7F0_98ACu32),
        (2, 103_901, 0x3070_2F0C),
    ];
    assert_eq!(got, want, "(shards, container bytes, crc32)");
}
