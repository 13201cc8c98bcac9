//! Golden test for the compiler's physical plans: the paper-scale MR,
//! MLR and ALS DAGs must compile to exactly the checked-in plans, so any
//! change to fusion, parallelism or edge wiring shows up as a reviewable
//! diff of `golden/plans.txt`.
//!
//! If an intentional compiler change moves a plan, regenerate with the
//! command below and give the reason in CHANGES.md:
//!
//! ```text
//! cargo run -p pado-bench --bin explain plans \
//!     > crates/bench/tests/golden/plans.txt
//! ```

#[test]
fn physical_plans_match_golden() {
    let got = pado_bench::physical_plans();
    let want = include_str!("golden/plans.txt");
    assert_eq!(
        got, want,
        "physical plans drifted from the golden file; if intentional, \
         regenerate with `cargo run -p pado-bench --bin explain plans \
         > crates/bench/tests/golden/plans.txt` and say why in CHANGES.md"
    );
}
