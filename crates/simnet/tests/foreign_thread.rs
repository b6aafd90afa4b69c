//! Only a rank of the launch in flight may block on its rendezvous: an
//! OS thread a rank spawns is no coroutine of the launch, and nobody
//! could resume it.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use simnet::Rendezvous;

#[test]
fn a_thread_spawned_by_a_rank_cannot_wait_on_the_rendezvous() {
    let r = Rendezvous::new(2);
    let err = catch_unwind(AssertUnwindSafe(|| {
        r.run_spmd(|_| {
            std::thread::scope(|s| s.spawn(|| r.wait()).join()).unwrap_or_else(|p| resume_unwind(p))
        })
    }))
    .expect_err("a foreign thread cannot wait");
    let message = err.downcast::<String>().expect("an assert message");
    assert!(
        message.contains("not a rank of a run_spmd in flight"),
        "{message}"
    );
    assert!(r.is_aborted());
}
