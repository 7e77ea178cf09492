//! Forks of a shared prototype run exactly like fresh builds (DESIGN.md
//! §18).
//!
//! While a fork of a (kind, params, seed) key is alive,
//! `Dataset::fork` hands out clones of one prototype. The clones
//! share the dataset; RBT and Masstree churn copies the nodes it writes.
//! So a fork must see neither another fork's writes nor leave its own in
//! the prototype. Two live forks run interleaved here, each against a
//! fresh build fed the same random stream; then a third fork, taken
//! after both have churned, must still start where a fresh build does.

use astriflash_sim::SimRng;
use astriflash_workloads::{Dataset, JobBuf, WorkloadEngine, WorkloadKind, WorkloadParams};

/// Jobs per stream: a few dozen RBT and Masstree churns each.
const JOBS: usize = 400;

/// One job from `fork` and one from `fresh`, each on its own stream;
/// they must be the same job.
fn next_agrees(
    fork: &mut dyn WorkloadEngine,
    fresh: &mut dyn WorkloadEngine,
    rngs: &mut [SimRng; 2],
    what: &str,
) {
    let (mut got, mut want) = (JobBuf::new(), JobBuf::new());
    fork.fill_job(&mut got, &mut rngs[0]);
    fresh.fill_job(&mut want, &mut rngs[1]);
    assert_eq!(got, want, "{what}");
}

#[test]
fn forks_run_like_fresh_builds() {
    let params = WorkloadParams::tiny_for_tests();
    for (i, kind) in WorkloadKind::all().into_iter().enumerate() {
        // A seed no other test in this binary forks.
        let seed = 0xF0 + i as u64;
        let dataset = Dataset {
            kind,
            params: params.clone(),
            seed,
        };
        let mut forks = [dataset.fork(), dataset.fork()];
        let mut fresh = [kind.build(&params, seed), kind.build(&params, seed)];
        let mut rngs = [1u64, 2].map(|s| [SimRng::new(s), SimRng::new(s)]);
        for job in 0..JOBS {
            for side in 0..2 {
                next_agrees(
                    &mut *forks[side],
                    &mut *fresh[side],
                    &mut rngs[side],
                    &format!("{kind}: fork {side}, job {job}"),
                );
            }
        }
        // Both forks are alive, so this is a fork of the same prototype.
        let mut third = dataset.fork();
        let mut fresh = kind.build(&params, seed);
        let mut rngs = [SimRng::new(3), SimRng::new(3)];
        for job in 0..JOBS {
            next_agrees(
                &mut *third,
                &mut *fresh,
                &mut rngs,
                &format!("{kind}: third fork, job {job}"),
            );
        }
    }
}
