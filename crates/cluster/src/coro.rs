//! Stackful coroutines: the cooperative executor that runs every rank of a
//! cluster on the host thread that called `Cluster::run`.
//!
//! Each rank gets its own 2 MiB stack (the size of a default spawned
//! thread's stack) with a `PROT_NONE` guard page below it, so unbounded
//! recursion in a rank dies of `SIGSEGV` instead of overwriting a
//! neighbour.  Stacks come straight from `mmap` and go back with `munmap`:
//! the allocator's adaptive mmap threshold would otherwise move them onto
//! the heap and keep them resident between runs.
//!
//! A rank gives up the host thread by calling [`Executor::suspend`], which
//! saves the callee-saved registers (`rbx rbp r12-r15`), the MXCSR and x87
//! control words and the stack pointer, and loads the scheduler's.  The
//! scheduler — [`Executor::run`] — starts ranks `0..n` in order, then
//! resumes whichever rank its `next` callback names until it names none,
//! then resumes every rank that has still not finished once more, so it can
//! unwind.  Nothing here knows about virtual time: the transport's arbiter
//! decides who runs next, this module only switches stacks.
//!
//! This is the crate's only module with `unsafe` code (`xtask lint` enforces
//! it).  Its safety invariant: **a stack is unmapped only after its
//! coroutine has finished.**  [`Executor::run`] drives every coroutine until
//! it finishes before it returns; should it unwind instead (its `next`
//! callback panicked), every unfinished coroutine stays suspended for good —
//! only `run` resumes, and it runs once — and its stack is leaked rather
//! than unmapped, so nothing that lives on it is ever freed under a frame
//! that might still reference it.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "cluster::coro implements its stack switch (`switch`) and the initial \
     coroutine frame only for x86_64 Linux (System V ABI); port both to this \
     target before building the cluster crate here"
);

use std::any::Any;
use std::cell::Cell;
use std::ffi::c_void;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Usable stack per rank, bytes: the default stack of a spawned thread.
const STACK_SIZE: usize = 2 << 20;
/// The guard page below every stack (x86_64 Linux base pages).
const GUARD_SIZE: usize = 4096;

/// Initial MXCSR of a fresh coroutine: all exceptions masked, round to
/// nearest — the value a new thread starts with.
const MXCSR_INIT: u32 = 0x1f80;
/// Initial x87 control word: the value a new thread starts with.
const FCW_INIT: u16 = 0x037f;

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x20000;
const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

// std links libc on Linux already; these are its declarations.
extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

/// How a coroutine's body ended: its value, or the payload of a panic that
/// escaped it.
pub(crate) type Outcome<T> = Result<T, Box<dyn Any + Send>>;

/// One rank's stack: `GUARD_SIZE` bytes of `PROT_NONE` guard, then
/// `STACK_SIZE` bytes of read-write stack growing down towards the guard.
struct Stack {
    base: *mut c_void,
}

impl Stack {
    fn new() -> Stack {
        let len = GUARD_SIZE + STACK_SIZE;
        // SAFETY: an anonymous private mapping at an address of the kernel's
        // choosing aliases no existing memory; the result is checked.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        assert!(
            base != MAP_FAILED,
            "mmap of a {len}-byte rank stack failed: {}",
            std::io::Error::last_os_error()
        );
        // SAFETY: the first page of the mapping just created, which nothing
        // references yet.
        let rc = unsafe { mprotect(base, GUARD_SIZE, PROT_NONE) };
        assert_eq!(
            rc,
            0,
            "mprotect of a rank stack's guard page failed: {}",
            std::io::Error::last_os_error()
        );
        Stack { base }
    }

    /// One past the highest byte of the stack (16-byte aligned).
    fn top(&self) -> *mut u8 {
        // SAFETY: one past the end of the mapping is in bounds for `add`.
        unsafe { self.base.cast::<u8>().add(GUARD_SIZE + STACK_SIZE) }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base` is a mapping of exactly this length made by
        // `Stack::new`, and `Fiber::drop` drops a stack only while its
        // coroutine is fresh or finished, so no frame on it is live.
        let rc = unsafe { munmap(self.base, GUARD_SIZE + STACK_SIZE) };
        debug_assert_eq!(rc, 0, "munmap of a rank stack failed");
    }
}

/// Where a coroutine is in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Stack mapped, body not started.
    Fresh,
    /// Executing on the host thread.
    Running,
    /// Parked in [`Executor::suspend`]; `sp` holds its saved context.
    Suspended,
    /// The body returned or unwound; the stack holds no live frame.
    Finished,
}

struct Fiber {
    /// `None` once leaked by `drop`.
    stack: Option<Stack>,
    /// Saved stack pointer while suspended (or the initial frame while
    /// fresh).
    sp: Cell<usize>,
    status: Cell<Status>,
}

impl Drop for Fiber {
    fn drop(&mut self) {
        if !matches!(self.status.get(), Status::Fresh | Status::Finished) {
            // Frames may still be live on it: keep the memory forever.
            std::mem::forget(self.stack.take());
        }
    }
}

/// What a coroutine's first resume hands the trampoline: everything it needs,
/// copied out before the coroutine can first suspend (while the host is
/// still blocked inside the resume that started it).
struct Start<'a, T> {
    exec: &'a Executor,
    rank: usize,
    body: &'a dyn Fn(usize) -> T,
    /// The rank's slot in `run`'s outcome vector.
    slot: *mut Option<Outcome<T>>,
}

/// The cooperative executor of one cluster run: `n` coroutines plus the
/// saved context of the host thread while one of them runs.
pub(crate) struct Executor {
    fibers: Vec<Fiber>,
    /// Saved stack pointer of the host (the scheduler) while a coroutine
    /// runs.
    host_sp: Cell<usize>,
    /// The coroutine running now, if any.
    current: Cell<Option<usize>>,
}

impl Executor {
    /// Map `n` stacks; no coroutine runs until [`Executor::run`].
    pub(crate) fn new(n: usize) -> Executor {
        let fibers = (0..n)
            .map(|_| Fiber {
                stack: Some(Stack::new()),
                sp: Cell::new(0),
                status: Cell::new(Status::Fresh),
            })
            .collect();
        Executor {
            fibers,
            host_sp: Cell::new(0),
            current: Cell::new(None),
        }
    }

    /// Run `body(rank)` as coroutine `rank` for every rank, on this thread,
    /// and return each body's outcome (`Err` carries the payload of a panic
    /// that escaped it), indexed by rank.
    ///
    /// Ranks start in order `0..n`, each running until it first suspends or
    /// finishes.  After that, whenever no coroutine is running, `next()`
    /// names the suspended rank to resume; when it names none, every rank
    /// that has not finished is resumed once more, in rank order, and must
    /// then finish — the caller arranges that a rank resumed without the
    /// token unwinds.
    ///
    /// # Panics
    ///
    /// Panics if called twice, if `next` names a rank that is not
    /// suspended, or if a rank resumed for teardown suspends again.
    pub(crate) fn run<T>(
        &self,
        body: &dyn Fn(usize) -> T,
        mut next: impl FnMut() -> Option<usize>,
    ) -> Vec<Outcome<T>> {
        assert!(
            self.fibers.iter().all(|f| f.status.get() == Status::Fresh),
            "an executor runs its coroutines once"
        );
        let n = self.fibers.len();
        let mut outcomes: Vec<Option<Outcome<T>>> = (0..n).map(|_| None).collect();
        let slots = outcomes.as_mut_ptr();
        for rank in 0..n {
            let start = Start {
                exec: self,
                rank,
                // SAFETY: `rank < n`, so the slot is inside `outcomes`, which
                // is neither moved nor borrowed until every coroutine has
                // finished (should `next` unwind first, the unfinished ones
                // are never resumed, so never write).
                slot: unsafe { slots.add(rank) },
                body,
            };
            self.start(rank, &start);
        }
        while let Some(rank) = next() {
            self.resume(rank);
        }
        for rank in 0..n {
            if self.fibers[rank].status.get() == Status::Suspended {
                self.resume(rank);
                assert_eq!(
                    self.fibers[rank].status.get(),
                    Status::Finished,
                    "rank {rank} suspended again while being torn down"
                );
            }
        }
        outcomes
            .into_iter()
            .map(|o| o.expect("a finished coroutine left its outcome"))
            .collect()
    }

    /// Lay out coroutine `rank`'s initial frame and run it until it first
    /// suspends or finishes.
    fn start<T>(&self, rank: usize, start: &Start<'_, T>) {
        let fiber = &self.fibers[rank];
        let top = fiber
            .stack
            .as_ref()
            .expect("a fresh coroutine has a stack")
            .top();
        // The frame `switch` pops, lowest address first: MXCSR and x87
        // control word, r15 r14 r13 r12 rbx rbp (all zero; rbp = 0 ends any
        // frame-pointer walk), the return address — the trampoline — and
        // above it the trampoline's own "return address", 0, where
        // unwinders and backtraces stop.  `switch` returns into the
        // trampoline with rsp = top - 8, the alignment of a function entered
        // by `call`.
        let words: [usize; 9] = [
            MXCSR_INIT as usize | (FCW_INIT as usize) << 32,
            0,
            0,
            0,
            0,
            0,
            0,
            trampoline::<T> as unsafe extern "C" fn(usize) -> ! as usize,
            0,
        ];
        // SAFETY: the nine words sit at the top of this coroutine's own
        // mapped, writable stack, which nothing else uses while it is fresh.
        let sp = unsafe {
            let sp = top.sub(words.len() * 8).cast::<usize>();
            std::ptr::copy_nonoverlapping(words.as_ptr(), sp, words.len());
            sp as usize
        };
        fiber.sp.set(sp);
        fiber.status.set(Status::Suspended);
        self.switch_in(rank, start as *const Start<'_, T> as usize);
    }

    /// Resume suspended coroutine `rank` until it suspends or finishes.
    fn resume(&self, rank: usize) {
        assert_eq!(
            self.fibers[rank].status.get(),
            Status::Suspended,
            "resume of rank {rank}, which is not suspended"
        );
        self.switch_in(rank, 0);
    }

    fn switch_in(&self, rank: usize, arg: usize) {
        assert!(
            self.current.get().is_none(),
            "a coroutine resumed another of its executor"
        );
        let fiber = &self.fibers[rank];
        fiber.status.set(Status::Running);
        self.current.set(Some(rank));
        // SAFETY: the target context is either the initial frame laid out by
        // `start` or one saved by `suspend`, on a stack that is still mapped
        // (the coroutine is suspended, not finished).  The host's context is
        // saved into `host_sp`, which the coroutine switches back to.
        unsafe { switch(self.host_sp.as_ptr(), fiber.sp.get(), arg) };
        self.current.set(None);
    }

    /// Give the host thread back to the scheduler from inside the running
    /// coroutine; returns when the scheduler resumes it.
    ///
    /// # Panics
    ///
    /// Panics if no coroutine of this executor is running.
    pub(crate) fn suspend(&self) {
        let rank = self
            .current
            .get()
            .expect("suspend outside a running coroutine");
        let fiber = &self.fibers[rank];
        fiber.status.set(Status::Suspended);
        // SAFETY: `host_sp` was saved by the `switch_in` that is running this
        // coroutine, whose host frame is blocked in that call and so still
        // live; this coroutine's context goes to `sp` for the next resume.
        unsafe { switch(fiber.sp.as_ptr(), self.host_sp.get(), 0) };
    }

    /// The last act of coroutine `rank`: mark it finished and switch to the
    /// host for good.
    fn finish(&self, rank: usize) -> ! {
        let fiber = &self.fibers[rank];
        fiber.status.set(Status::Finished);
        // SAFETY: as in `suspend`; nothing on this stack is live any more,
        // and nobody resumes a finished coroutine.
        unsafe { switch(fiber.sp.as_ptr(), self.host_sp.get(), 0) };
        unreachable!("a finished coroutine was resumed")
    }
}

/// Entry point of every coroutine, "returned into" by its first `switch`
/// with the address of its [`Start`] in rdi.  Runs the body inside
/// `catch_unwind` — so no unwind ever reaches the zero return address above
/// this frame — stores the outcome and finishes.
///
/// # Safety
///
/// Entered only from `Executor::start`'s initial frame, on the coroutine's
/// own stack, with `start` the address of a live `Start<T>` that stays live
/// until this coroutine first suspends or finishes.
unsafe extern "C" fn trampoline<T>(start: usize) -> ! {
    // SAFETY: `start` is the address `Executor::start` passed, whose `Start`
    // lives in the host frame blocked in that very call; it is read here,
    // before this coroutine can first suspend.
    let Start {
        exec,
        rank,
        body,
        slot,
    } = unsafe { std::ptr::read(start as *const Start<'_, T>) };
    let outcome = catch_unwind(AssertUnwindSafe(|| body(rank)));
    // SAFETY: `slot` points into `Executor::run`'s outcome vector, live for
    // as long as any of its coroutines can run, and only this rank writes it.
    unsafe { *slot = Some(outcome) };
    exec.finish(rank)
}

/// Save the running context's callee-saved registers, MXCSR and x87 control
/// word on its stack and its stack pointer to `*save`, then load the
/// context whose stack pointer is `to` and return into it with `arg` in rdi:
/// the first argument of the trampoline a fresh context returns into (a
/// resumed `switch` ignores it — rdi is caller-saved).
///
/// # Safety
///
/// `to` must be a context saved by `switch` (or laid out like one by
/// `Executor::start`) on a stack that is still mapped, and not resumed
/// since; `save` must be valid for a write.
#[unsafe(naked)]
unsafe extern "sysv64" fn switch(save: *mut usize, to: usize, arg: usize) {
    std::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "mov rdi, rdx",
        "ret",
    )
}
