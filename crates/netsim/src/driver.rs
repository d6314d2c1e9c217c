//! The one scoped job driver behind every parallel leg.
//!
//! Every multi-core leg in this crate has the same shape: let each of
//! `workers` workers prime its private state (engine replicas, epoch
//! readers, accumulators), start the clock once every worker is
//! primed, serve the jobs, and bring per-worker results back.
//! [`drive`] is that loop, written once.
//!
//! The calling thread is worker 0: it primes, serves its own jobs and
//! then joins the `workers − 1` scoped threads spawned for the rest.
//! At one worker no thread starts at all, so a batch is served on the
//! core that produced it and will consume it.
//!
//! Jobs are dealt before any thread starts — job `k` to worker
//! `k % workers`, the order a round-robin dispatcher produces — so
//! there is no queue, no lock and no shared cursor on the hot path.
//! Each worker owns its job list outright, which lets a job carry a
//! `&mut` chunk of an output buffer that only that worker writes.
//! Results come back in worker order, so callers that merge them
//! left to right get the same fold at every worker count.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Barrier;
use std::time::Instant;

/// What one [`drive`] call returns.
pub(crate) struct Driven<S> {
    /// Every worker's final state, in worker order.
    pub(crate) results: Vec<S>,
    /// Nanoseconds from "every worker primed" to "every worker
    /// joined", as seen by worker 0 — priming stays outside the timed
    /// region.
    pub(crate) elapsed_ns: u64,
}

/// Runs `jobs` over `workers` workers (at least one): the calling
/// thread as worker 0 and `workers − 1` scoped threads.
///
/// Worker `w` builds its state with `prime(w)`, waits until every
/// worker has primed, runs `serve` on each of its jobs in deal order,
/// and returns its state. Every worker runs, even one dealt no job. A
/// panic anywhere is re-raised on the calling thread; a panic in
/// `prime` — worker 0's included — still releases the priming barrier
/// first, so it cannot strand the other workers.
pub(crate) fn drive<J, S>(
    workers: usize,
    jobs: impl IntoIterator<Item = J>,
    prime: impl Fn(usize) -> S + Sync,
    serve: impl Fn(&mut S, J) + Sync,
) -> Driven<S>
where
    J: Send,
    S: Send,
{
    let workers = workers.max(1);
    let mut dealt: Vec<Vec<J>> = (0..workers).map(|_| Vec::new()).collect();
    for (k, job) in jobs.into_iter().enumerate() {
        dealt[k % workers].push(job);
    }
    let primed = Barrier::new(workers);
    let (prime, serve, primed) = (&prime, &serve, &primed);
    // Prime, then meet the other workers at the barrier — even when
    // priming panicked, so no one is stranded — and only then re-raise.
    let ready = move |w: usize| {
        let state = catch_unwind(AssertUnwindSafe(|| prime(w)));
        primed.wait();
        state.unwrap_or_else(|p| resume_unwind(p))
    };
    let run = move |mut state: S, jobs: Vec<J>| {
        for job in jobs {
            serve(&mut state, job);
        }
        state
    };
    let mut dealt = dealt.into_iter();
    let own = dealt.next().expect("at least one worker");
    std::thread::scope(|scope| {
        let handles: Vec<_> =
            (1..).zip(dealt).map(|(w, jobs)| scope.spawn(move || run(ready(w), jobs))).collect();
        let state = ready(0);
        let t0 = Instant::now();
        let mut results = Vec::with_capacity(workers);
        results.push(run(state, own));
        results.extend(handles.into_iter().map(|h| h.join().unwrap_or_else(|p| resume_unwind(p))));
        Driven { results, elapsed_ns: t0.elapsed().as_nanos() as u64 }
    })
}

/// Contiguous `[lo, hi)` index ranges of at most `batch` (at least
/// one) covering `0..total` — the job list of the index-range legs.
pub(crate) fn ranges(total: u64, batch: u64) -> impl Iterator<Item = (u64, u64)> {
    let batch = batch.max(1);
    (0..total).step_by(batch as usize).map(move |lo| (lo, (lo + batch).min(total)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_are_dealt_round_robin_and_results_come_back_in_worker_order() {
        let run = drive(3, 0..8u32, |w| (w, Vec::new()), |(_, seen), k| seen.push(k));
        let want = vec![(0, vec![0, 3, 6]), (1, vec![1, 4, 7]), (2, vec![2, 5])];
        assert_eq!(run.results, want);
    }

    #[test]
    fn every_worker_runs_even_without_a_job() {
        let run = drive(4, std::iter::empty::<()>(), |w| w, |_, ()| {});
        assert_eq!(run.results, vec![0, 1, 2, 3]);
        let run = drive(0, [(); 2], |w| w, |_, ()| {});
        assert_eq!(run.results, vec![0], "zero workers means one");
    }

    #[test]
    fn a_panicking_prime_is_reraised_not_deadlocked() {
        let r = catch_unwind(|| drive(3, 0..6, |w| assert_ne!(w, 1, "prime fails"), |_, _| {}));
        assert!(r.is_err());
    }

    #[test]
    fn worker_0_primes_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let run = drive(3, 0..6, |_| std::thread::current().id(), |_, _| {});
        assert_eq!(run.results[0], caller);
        assert!(run.results[1..].iter().all(|&id| id != caller));
    }

    #[test]
    fn one_worker_starts_no_thread() {
        let caller = std::thread::current().id();
        let on_caller = || std::thread::current().id() == caller;
        let run = drive(1, 0..5, |_| vec![on_caller()], |seen, _| seen.push(on_caller()));
        assert_eq!(run.results, vec![vec![true; 6]], "one prime and five serves");
    }

    #[test]
    fn a_panic_in_worker_0s_prime_is_reraised_not_deadlocked() {
        let r = catch_unwind(|| drive(3, 0..6, |w| assert_ne!(w, 0, "prime fails"), |_, _| {}));
        assert!(r.is_err());
    }

    #[test]
    fn ranges_cover_the_total_exactly_once() {
        let r: Vec<_> = ranges(10, 4).collect();
        assert_eq!(r, vec![(0, 4), (4, 8), (8, 10)]);
        assert_eq!(ranges(0, 4).count(), 0);
        assert_eq!(ranges(3, 0).count(), 3, "batch 0 means 1");
    }
}
