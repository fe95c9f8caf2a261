//! Caller-runs helper threads for epoch shells.
//!
//! [`Machine::run_epoch`](crate::Machine::run_epoch) hands each epoch's
//! shells to [`Helpers::run`]. The calling thread keeps the first shell
//! and *publishes* the rest on a shared board, then unparks helper
//! threads, which *claim* published shells one at a time. When the
//! caller finishes a shell it claims the next unclaimed one itself, so
//! a shell runs on whichever thread is free first and every shell no
//! helper reached in time stays with the caller. Once nothing is left
//! to claim, the caller blocks on a condition variable — it never
//! spins — until the shells helpers took are finished.
//!
//! Why the caller keeps what nobody claimed: a fleet shell retires
//! about 120 instructions (≈4 µs on a 2-vCPU Xeon guest) before it
//! traps, while starting and joining a host thread costs ≈16 µs there,
//! and even a parked thread takes time to wake. A shell handed to a
//! helper that wakes late could wait longer than the caller needs to
//! run it, so a helper that wakes to an empty board simply parks again.
//!
//! Helpers start on their machine's first parallel epoch with two or
//! more shells, one per extra shell up to `cores − 1`, park between
//! epochs, and are joined when the [`Helpers`] drops — with its
//! machine, or when `configure_smp` replaces the SMP state. Without
//! helpers (`LZ_PARALLEL=0`, or a single shell) the same loop runs
//! every shell on the caller in order: deterministic replay.
//!
//! Which thread ran a shell changes nothing modelled: shells share
//! nothing mutable, and outputs come back in task order, so the
//! barrier commits in core order either way.
//!
//! A panic that escapes [`Task::run`] is caught on the thread that ran
//! the task and re-raised on the caller once every claimed task has
//! finished, as `JoinHandle::join` followed by `resume_unwind` would:
//! the epoch neither hangs nor loses a task. (Shells contain panics
//! inside `Machine::run` themselves; see `run_shell_contained`.)

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

/// Work the caller may hand to a helper thread.
pub(crate) trait Task: Send + 'static {
    type Output: Send + 'static;
    fn run(self) -> Self::Output;
}

/// The state the caller and its helpers share, behind one mutex.
struct Board<T: Task> {
    /// Published tasks nobody has claimed yet, with their task index.
    /// Claimed from the back, which holds the lowest index.
    open: Vec<(usize, T)>,
    /// Tasks helpers have claimed and not yet finished.
    running: usize,
    /// Tasks helpers finished: the output, or an escaped panic.
    finished: Vec<(usize, thread::Result<T::Output>)>,
    /// The caller is blocked on [`Shared::idle`] until `running` is 0.
    caller_waiting: bool,
    /// The owner is dropping: helpers return.
    shutdown: bool,
}

struct Shared<T: Task> {
    board: Mutex<Board<T>>,
    /// Signalled when the last claimed task finishes while the caller
    /// waits.
    idle: Condvar,
}

impl<T: Task> Shared<T> {
    /// Lock the board. A poisoned lock is recovered: every critical
    /// section is a few pushes, pops, and counter updates that cannot
    /// panic part-way, and tasks never run under the lock, so the board
    /// is consistent whenever the lock is free.
    fn board(&self) -> MutexGuard<'_, Board<T>> {
        self.board.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One machine's caller-runs helper threads. Holds no allocation and no
/// thread until the first parallel [`Helpers::run`] of two or more
/// tasks.
pub(crate) struct Helpers<T: Task> {
    shared: Option<Arc<Shared<T>>>,
    threads: Vec<JoinHandle<()>>,
}

impl<T: Task> Default for Helpers<T> {
    fn default() -> Self {
        Helpers { shared: None, threads: Vec::new() }
    }
}

impl<T: Task> std::fmt::Debug for Helpers<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Helpers").field("threads", &self.threads.len()).finish()
    }
}

impl<T: Task> Helpers<T> {
    /// Run every task and return the outputs in task order. With
    /// `parallel` on and two or more tasks, helpers may claim every task
    /// but the first (see the module docs); otherwise the caller runs
    /// them all in order and no helper is started. If a task panics,
    /// the other tasks still run and the first such panic in task order
    /// is re-raised here.
    pub(crate) fn run(&mut self, tasks: Vec<T>, parallel: bool) -> Vec<T::Output> {
        let n = tasks.len();
        let shared = if parallel && n > 1 { Some(self.start(n - 1)) } else { None };
        let mut tasks = tasks.into_iter().enumerate();
        let mut next = tasks.next();
        if let Some(shared) = &shared {
            shared.board().open.extend(tasks.by_ref().rev());
            for helper in self.threads.iter().take(n - 1) {
                helper.thread().unpark();
            }
        }
        let mut outputs: Vec<Option<thread::Result<T::Output>>> = (0..n).map(|_| None).collect();
        while let Some((i, task)) = next {
            outputs[i] = Some(panic::catch_unwind(AssertUnwindSafe(|| task.run())));
            next = tasks.next().or_else(|| shared.as_ref().and_then(|s| s.board().open.pop()));
        }
        if let Some(shared) = &shared {
            let mut board = shared.board();
            while board.running > 0 {
                board.caller_waiting = true;
                board = shared.idle.wait(board).unwrap_or_else(PoisonError::into_inner);
            }
            board.caller_waiting = false;
            for (i, output) in board.finished.drain(..) {
                outputs[i] = Some(output);
            }
        }
        outputs
            .into_iter()
            .map(|output| match output {
                Some(Ok(output)) => output,
                Some(Err(payload)) => panic::resume_unwind(payload),
                None => unreachable!("the caller claims every task no helper claimed"),
            })
            .collect()
    }

    /// The shared board, with `want` helpers running. If the host
    /// refuses a thread, fewer run: the caller takes whatever no helper
    /// claims.
    fn start(&mut self, want: usize) -> Arc<Shared<T>> {
        let shared = self.shared.get_or_insert_with(|| {
            Arc::new(Shared {
                board: Mutex::new(Board {
                    open: Vec::new(),
                    running: 0,
                    finished: Vec::new(),
                    caller_waiting: false,
                    shutdown: false,
                }),
                idle: Condvar::new(),
            })
        });
        while self.threads.len() < want {
            let board = Arc::clone(shared);
            match thread::Builder::new().name("lz-epoch-helper".into()).spawn(move || helper(&board)) {
                Ok(handle) => self.threads.push(handle),
                Err(_) => break,
            }
        }
        Arc::clone(shared)
    }
}

/// A helper thread: claim a published task, run it, report it; park
/// when the board is empty; return at shutdown.
fn helper<T: Task>(shared: &Shared<T>) {
    loop {
        let claimed = {
            let mut board = shared.board();
            if board.shutdown {
                return;
            }
            let claimed = board.open.pop();
            board.running += usize::from(claimed.is_some());
            claimed
        };
        let Some((i, task)) = claimed else {
            thread::park();
            continue;
        };
        let output = panic::catch_unwind(AssertUnwindSafe(|| task.run()));
        let mut board = shared.board();
        board.finished.push((i, output));
        board.running -= 1;
        if board.running == 0 && board.caller_waiting {
            shared.idle.notify_one();
        }
    }
}

impl<T: Task> Drop for Helpers<T> {
    fn drop(&mut self) {
        if let Some(shared) = &self.shared {
            shared.board().shutdown = true;
        }
        for handle in self.threads.drain(..) {
            handle.thread().unpark();
            // A helper catches every task panic, so its thread cannot
            // end in one; and `drop` must not panic either way.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    /// Squares its input on whichever thread claims it; panics on
    /// `panic_on`, and counts every run.
    struct Square {
        x: u64,
        panic_on: Option<u64>,
        runs: Arc<AtomicUsize>,
    }

    impl Task for Square {
        type Output = u64;
        fn run(self) -> u64 {
            self.runs.fetch_add(1, Ordering::SeqCst);
            assert_ne!(Some(self.x), self.panic_on, "injected task panic");
            self.x * self.x
        }
    }

    fn squares(n: u64, panic_on: Option<u64>, runs: &Arc<AtomicUsize>) -> Vec<Square> {
        (0..n).map(|x| Square { x, panic_on, runs: Arc::clone(runs) }).collect()
    }

    #[test]
    fn outputs_come_back_in_task_order_in_both_modes() {
        let runs = Arc::new(AtomicUsize::new(0));
        let mut helpers = Helpers::default();
        let want: Vec<u64> = (0..8).map(|x| x * x).collect();
        for round in 0..200 {
            let parallel = round % 2 == 0;
            assert_eq!(helpers.run(squares(8, None, &runs), parallel), want);
        }
        assert_eq!(runs.load(Ordering::SeqCst), 8 * 200, "every task ran exactly once");
        assert_eq!(helpers.threads.len(), 7);
    }

    /// Task 0 blocks until task 1 has run, so while the caller runs
    /// task 0, task 1 can only run on a helper.
    enum Rendezvous {
        Wait(mpsc::Receiver<()>),
        Signal(mpsc::Sender<()>),
    }

    impl Task for Rendezvous {
        type Output = bool;
        fn run(self) -> bool {
            match self {
                Rendezvous::Wait(rx) => rx.recv_timeout(Duration::from_secs(30)).is_ok(),
                Rendezvous::Signal(tx) => tx.send(()).is_ok(),
            }
        }
    }

    #[test]
    fn a_helper_runs_what_the_busy_caller_cannot() {
        let mut helpers = Helpers::default();
        for _ in 0..100 {
            let (tx, rx) = mpsc::channel();
            let tasks = vec![Rendezvous::Wait(rx), Rendezvous::Signal(tx)];
            assert_eq!(helpers.run(tasks, true), [true, true], "no helper ran task 1");
        }
    }

    #[test]
    fn nothing_starts_before_a_parallel_run_of_two_tasks() {
        let runs = Arc::new(AtomicUsize::new(0));
        let mut helpers = Helpers::default();
        helpers.run(squares(1, None, &runs), true);
        helpers.run(squares(8, None, &runs), false);
        assert!(helpers.shared.is_none() && helpers.threads.is_empty());
        helpers.run(squares(3, None, &runs), true);
        assert_eq!(helpers.threads.len(), 2, "one helper per task beyond the caller's");
        helpers.run(squares(2, None, &runs), true);
        assert_eq!(helpers.threads.len(), 2, "helpers are reused, never shrunk");
    }

    #[test]
    fn escaped_panic_is_reraised_on_the_caller_after_every_task_ran() {
        let runs = Arc::new(AtomicUsize::new(0));
        let mut helpers = Helpers::default();
        for victim in [0, 5] {
            runs.store(0, Ordering::SeqCst);
            let caught = panic::catch_unwind(AssertUnwindSafe(|| helpers.run(squares(8, Some(victim), &runs), true)));
            assert!(caught.is_err(), "task {victim}'s panic reaches the caller");
            assert_eq!(runs.load(Ordering::SeqCst), 8, "no task was lost");
        }
        // The pool survives: nothing stale is left on the board.
        let want: Vec<u64> = (0..4).map(|x| x * x).collect();
        assert_eq!(helpers.run(squares(4, None, &runs), true), want);
    }

    #[test]
    fn drop_joins_every_helper() {
        let runs = Arc::new(AtomicUsize::new(0));
        let mut helpers = Helpers::default();
        helpers.run(squares(4, None, &runs), true);
        let board = Arc::downgrade(helpers.shared.as_ref().unwrap());
        drop(helpers);
        assert!(board.upgrade().is_none(), "a helper still holds the board after drop");
    }
}
