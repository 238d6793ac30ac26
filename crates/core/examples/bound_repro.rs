// Repro: positive-part-of-total bound is inadmissible for mixed-sign models.

// Examples exist to print; sanctioned writers.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use mc2ls_core::algorithms::exact;
use mc2ls_core::InfluenceSets;
use mc2ls_influence::CompetitionModel;

struct Dilution;
impl CompetitionModel for Dilution {
    fn name(&self) -> &'static str {
        "dilution"
    }
    fn class_contribution(&self, w: usize, n: u32) -> f64 {
        if w == 0 {
            f64::from(n)
        } else {
            -0.25 * f64::from(n)
        }
    }
    fn is_submodular(&self) -> bool {
        false
    }
}

fn main() {
    // users 0..=7: class0 (+1). users 8..=32: class1 (-0.25), 25 of them.
    // C: covers users 0,1 (clean)                  -> cinf = 2
    // B: covers users 2..=7? no: B covers 8 positives? keep my analysis:
    // B: 8 clean users (0..8? overlap with C?) make disjoint:
    //   C: users 0,1            -> +2
    //   B: users 2..=9 (8 clean) + contested 16..=40 (25) -> 8 - 6.25 = 1.75
    //   A: users 10..=15 (6 clean) + same contested 16..=40 -> 6 - 6.25 = -0.25
    let n_users = 41u32;
    let mut f_count = vec![0u32; n_users as usize];
    f_count[16..41].fill(1);
    let c: Vec<u32> = vec![0, 1];
    let mut b: Vec<u32> = (2..10).collect();
    b.extend(16..41);
    let mut a: Vec<u32> = (10..16).collect();
    a.extend(16..41);
    let sets = InfluenceSets::new(vec![c, b, a], f_count.clone());
    let sol = exact::solve_exact_model(&sets, 2, &Dilution);
    println!("selected = {:?}, cinf = {}", sol.selected, sol.cinf);
    // brute force over all subsets of size <= 2
    let cinf = |set: &[u32]| {
        let mut covered = std::collections::BTreeSet::new();
        for &cand in set {
            for &o in sets.omega(cand as usize) {
                covered.insert(o);
            }
        }
        covered
            .iter()
            .map(|&o| if f_count[o as usize] == 0 { 1.0 } else { -0.25 })
            .sum::<f64>()
    };
    let mut best = (0.0, vec![]);
    for s in [
        vec![0u32],
        vec![1],
        vec![2],
        vec![0, 1],
        vec![0, 2],
        vec![1, 2],
    ] {
        let v = cinf(&s);
        if v > best.0 {
            best = (v, s.clone());
        }
        println!("  {:?} -> {}", s, v);
    }
    println!("brute-force best = {:?} value {}", best.1, best.0);
    assert_eq!(sol.cinf, best.0, "exact oracle missed the optimum");
}
