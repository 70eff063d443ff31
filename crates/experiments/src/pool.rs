//! The one place this crate runs simulations side by side: a pool bounded by the host's
//! cores, shared by the matrices and the figures.

use std::panic::resume_unwind;
use std::sync::Mutex;
use std::thread;

/// Runs every job through `run`, at most `available_parallelism() / threads_per_job` at
/// once (at least one), and returns the results in input order. `threads_per_job` is a
/// job's `engine_threads`; `0`, the event engine, occupies one. Workers take jobs in input
/// order, the caller is the first of them (one worker spawns no thread), and a panicking
/// job panics the caller once the other workers have finished. Between jobs, side-by-side
/// workers give freed memory back ([`release_freed_memory`]), so resident memory is what
/// the running jobs hold, whichever worker ran what before.
pub(crate) fn run_all<T: Send, R: Send>(
    jobs: Vec<T>,
    threads_per_job: usize,
    run: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let cores = thread::available_parallelism().map_or(1, usize::from);
    let workers = jobs.len().min((cores / threads_per_job.max(1)).max(1));
    let queue = Mutex::new(jobs.into_iter().enumerate());
    // The guard is a temporary: the lock is held to take a job, not to run it.
    let take = || queue.lock().expect("taking a job cannot panic").next();
    let work = || {
        Vec::from_iter(std::iter::from_fn(take).map(|(index, job)| {
            let result = run(job);
            if workers > 1 {
                release_freed_memory();
            }
            (index, result)
        }))
    };
    let mut done = thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for worker in spawned {
            done.extend(worker.join().unwrap_or_else(|panic| resume_unwind(panic)));
        }
        done
    });
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, result)| result).collect()
}

/// Hands the allocator's free pages back to the OS, between two jobs of one worker.
///
/// glibc keeps freed memory in the arena of the thread that freed it, so with several
/// workers a finished run's tens of megabytes stay resident in one arena while the next
/// run of that size grows another: the process's peak then depended on which worker
/// happened to take which job (paper-scale workload matrix, 2 workers: 87 MB, or 139 MB
/// in three runs of ten). Trimmed, the peak is what is live at once. A single worker
/// re-uses its own arena and skips this; so does a libc without `malloc_trim`.
fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: takes no pointer and touches only free chunks, under the arena locks.
        unsafe {
            malloc_trim(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Barrier;

    use super::*;

    /// The worker count `run_all` promises, worked out independently.
    fn expected_workers(jobs: usize, threads_per_job: usize) -> usize {
        let cores = thread::available_parallelism().map_or(1, usize::from);
        jobs.min((cores / threads_per_job.max(1)).max(1))
    }

    #[test]
    fn results_come_back_in_input_order_when_later_jobs_finish_first() {
        // With a second worker, job 0 is held back until job 1 has finished; on a
        // one-core host the jobs run back to back and the order is trivially kept.
        let overlap = expected_workers(6, 1) >= 2;
        let one_done = AtomicBool::new(false);
        let out = run_all((0..6u32).collect(), 1, |job| {
            while overlap && job == 0 && !one_done.load(Ordering::SeqCst) {
                thread::yield_now();
            }
            if job == 1 {
                one_done.store(true, Ordering::SeqCst);
            }
            job * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn never_more_jobs_at_once_than_the_cores_allow() {
        for threads_per_job in [1, 2] {
            let jobs = 12;
            let workers = expected_workers(jobs, threads_per_job);
            // The first `workers` jobs rendezvous, which needs that many workers alive
            // at once; the high-water mark shows there were never more.
            let rendezvous = Barrier::new(workers);
            let (running, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            run_all((0..jobs).collect(), threads_per_job, |job| {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                if job < workers {
                    rendezvous.wait();
                }
                thread::yield_now();
                running.fetch_sub(1, Ordering::SeqCst);
            });
            assert_eq!(peak.load(Ordering::SeqCst), workers);
        }
    }

    #[test]
    fn jobs_as_wide_as_the_host_run_one_by_one_on_the_callers_thread() {
        let cores = thread::available_parallelism().map_or(1, usize::from);
        let caller = thread::current().id();
        let seen = Mutex::new(Vec::new());
        for threads_per_job in [cores, usize::MAX] {
            run_all((0..5u32).collect(), threads_per_job, |job| {
                seen.lock().unwrap().push((job, thread::current().id()));
            });
            let seen = std::mem::take(&mut *seen.lock().unwrap());
            assert_eq!(seen, (0..5).map(|job| (job, caller)).collect::<Vec<_>>());
        }
    }

    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    #[test]
    fn side_by_side_workers_hand_a_finished_jobs_memory_back() {
        if expected_workers(2, 1) < 2 {
            return; // one worker re-uses its own arena and never trims
        }
        fn resident_mb() -> usize {
            let statm = std::fs::read_to_string("/proc/self/statm").unwrap();
            let pages: usize = statm.split(' ').nth(1).unwrap().parse().unwrap();
            pages / 256 // 4 KB pages to MB
        }
        // Two jobs hold 48 MB each at once, in blocks small enough to come out of the
        // worker's arena, and each returns a small allocation made while its blocks were
        // live: that one sits above them, so the arena cannot shrink from its top alone.
        let both_hold = Barrier::new(2);
        let out = run_all(vec![(), ()], 1, |()| {
            let blocks: Vec<Vec<u8>> = (0..1024).map(|_| vec![1u8; 48 << 10]).collect();
            let kept: Vec<Box<usize>> = blocks.iter().map(|b| Box::new(b.len())).collect();
            both_hold.wait();
            (resident_mb(), kept)
        });
        let held = out.iter().map(|&(mb, _)| mb).max().unwrap();
        let now = resident_mb();
        assert!(
            now + 64 <= held,
            "{held} MB resident with both jobs live, {now} MB after"
        );
    }

    #[test]
    fn no_jobs_means_no_work() {
        let out: Vec<u32> = run_all(Vec::<u32>::new(), 1, |_| unreachable!("nothing to run"));
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "job 3 failed")]
    fn a_panicking_job_panics_the_caller() {
        run_all((0..8u32).collect(), 1, |job| {
            assert!(job != 3, "job {job} failed");
        });
    }
}
