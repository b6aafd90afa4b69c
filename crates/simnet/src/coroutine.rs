//! Stackful coroutines for the simulated processors: an `mmap`ped stack
//! with a guard page, a register-swapping context switch, and a scoped
//! launcher. Every `unsafe` block of this crate is in this file, behind
//! a safe interface:
//!
//! * [`with_coroutines`] builds `n` coroutines that each call
//!   `body(rank)` and lends them to a driver, which decides who runs by
//!   calling [`Coroutine::resume`]; a coroutine gives the thread back
//!   with [`suspend`]. Everything happens on the calling OS thread.
//! * A coroutine's frames borrow from the caller, so — like std's
//!   scoped threads — the launcher does not return while one is still
//!   suspended: the driver must run each started coroutine to its
//!   end, and the process aborts if it did not.
//! * A panic in `body` is caught at the coroutine's entry and handed to
//!   the driver as [`Resumed::Panicked`]: nothing unwinds across a switch.
//! * Stacks are [`STACK_BYTES`] usable, lazily committed, with a
//!   `PROT_NONE` page below: an overflow is a segfault at the guard page,
//!   never a write into the heap. They are pooled by the caller.

use std::any::Any;
use std::cell::Cell;
use std::ffi::c_void;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr;

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "simnet::coroutine has no context switch for this target: port `simnet_coroutine_switch` \
     (and the frame `Coroutine::resume` builds for it) in crates/simnet/src/coroutine.rs"
);

// x86-64 SysV. `switch(save, to)`: push the callee-saved registers, store
// the stack pointer in `*save`, adopt `to`, pop that side's registers and
// return into it. (MXCSR and the x87 control word are callee-saved too,
// but nothing here changes them, so both sides always hold the same
// values.) `boot` is where a fresh coroutine's first switch returns to:
// it calls r13(r12) on a 16-byte-aligned stack. Its return address is
// declared undefined, so unwinders and backtraces end there, and the
// entry function never returns (`ud2` if it did).
core::arch::global_asm!(
    ".global simnet_coroutine_switch",
    ".hidden simnet_coroutine_switch",
    ".type simnet_coroutine_switch,@function",
    "simnet_coroutine_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".size simnet_coroutine_switch, . - simnet_coroutine_switch",
    ".global simnet_coroutine_boot",
    ".hidden simnet_coroutine_boot",
    ".type simnet_coroutine_boot,@function",
    "simnet_coroutine_boot:",
    ".cfi_startproc",
    ".cfi_undefined rip",
    "mov rdi, r12",
    "call r13",
    "ud2",
    ".cfi_endproc",
    ".size simnet_coroutine_boot, . - simnet_coroutine_boot",
);

extern "C" {
    fn simnet_coroutine_switch(save: *mut *mut u8, to: *mut u8);
    fn simnet_coroutine_boot();
    // std links the C library; no `libc` crate for three prototypes.
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

/// Usable bytes of a coroutine stack. The release synth kernels peak
/// under 9 KB; the debug tier-1 build overflows 16 KiB.
pub(crate) const STACK_BYTES: usize = 256 * 1024;
const GUARD_BYTES: usize = 4096;
// x86-64 Linux values.
const PROT_NONE: i32 = 0;
const PROT_READ_WRITE: i32 = 1 | 2;
const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;

#[derive(Clone, Copy, PartialEq, Debug)]
enum State {
    Fresh,
    Running,
    Suspended,
    Finished,
}

/// What the two sides of a switch share, at a stable heap address.
struct Control {
    /// The *other* side's saved stack pointer: the coroutine's while it
    /// is suspended, its resumer's while it runs.
    sp: Cell<*mut u8>,
    state: Cell<State>,
    panic: Cell<Option<Box<dyn Any + Send>>>,
}

/// A guard page plus [`STACK_BYTES`] of lazily committed memory, and the
/// control block of whichever coroutine runs on it.
pub(crate) struct Stack {
    base: *mut u8,
    control: Box<Control>,
}

// SAFETY: a `Stack` outside a `Coroutine` (which is not `Send`) is inert
// memory it alone owns: `base` is its private mapping, `control.sp` is a
// stale pointer nobody reads before `resume` rewrites it, and the panic
// slot holds at most a `Send` payload.
unsafe impl Send for Stack {}

impl std::fmt::Debug for Stack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Stack({:p})", self.base)
    }
}

impl Stack {
    fn new() -> Stack {
        let len = GUARD_BYTES + STACK_BYTES;
        // SAFETY: an anonymous private mapping at an address the kernel
        // picks aliases nothing; the result is checked before use.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                len,
                PROT_READ_WRITE,
                MAP_PRIVATE_ANONYMOUS,
                -1,
                0,
            )
        };
        assert!(
            base as isize != -1,
            "mmap of a {len}-byte coroutine stack failed"
        );
        // SAFETY: the first page of the mapping just made; nothing uses it.
        let guarded = unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) };
        assert_eq!(
            guarded, 0,
            "mprotect of a coroutine stack's guard page failed"
        );
        Stack {
            base: base.cast(),
            control: Box::new(Control {
                sp: Cell::new(ptr::null_mut()),
                state: Cell::new(State::Finished),
                panic: Cell::new(None),
            }),
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: exactly the mapping `new` made; no coroutine lives on it
        // (`with_coroutines` aborts rather than release a suspended one).
        unsafe { munmap(self.base.cast(), GUARD_BYTES + STACK_BYTES) };
    }
}

thread_local! {
    /// The innermost coroutine running on this thread (null: none).
    static CURRENT: Cell<*const Control> = const { Cell::new(ptr::null()) };
}

/// One rank's coroutine, which runs `body(rank)`; see the module docs.
pub(crate) struct Coroutine<'f> {
    stack: Stack,
    body: &'f (dyn Fn(usize) + 'f),
    rank: usize,
    /// Neither `Send` nor `Sync`: its frames stay on the thread that
    /// built it.
    _thread_bound: PhantomData<*mut ()>,
}

/// How a [`Coroutine::resume`] ended.
pub(crate) enum Resumed {
    /// It called [`suspend`] and can be resumed again.
    Suspended,
    /// Its body returned.
    Returned,
    /// Its body panicked with this payload.
    Panicked(Box<dyn Any + Send>),
}

/// First code on a fresh coroutine's stack (called by `boot`).
unsafe extern "C" fn entry(this: *const Coroutine<'_>) -> ! {
    // SAFETY: `resume` passes its own `self` and is still borrowing it;
    // what is needed is copied out before the first suspension, after
    // which the `Coroutine` may have moved.
    let (control, body, rank) = unsafe {
        let this = &*this;
        (&*this.stack.control as *const Control, this.body, this.rank)
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| body(rank)));
    // SAFETY: the control block is heap memory owned by the stack this
    // code runs on, which lives at least as long as the coroutine.
    let control = unsafe { &*control };
    control.panic.set(outcome.err());
    control.state.set(State::Finished);
    // SAFETY: `sp` holds the resumer's context, saved by the switch that
    // entered this coroutine last; it is consumed exactly once, here.
    unsafe { simnet_coroutine_switch(control.sp.as_ptr(), control.sp.get()) };
    unreachable!("a finished coroutine was resumed");
}

impl Coroutine<'_> {
    /// Run this coroutine on the calling thread until it suspends or its
    /// body ends. Panics if it has ended already.
    pub(crate) fn resume(&mut self) -> Resumed {
        let control: &Control = &self.stack.control;
        match control.state.get() {
            State::Suspended => {}
            State::Fresh => {
                // The frame `switch` pops: r15 r14 r13 r12 rbx rbp, then
                // the return address — `boot`, entered with the stack
                // pointer at the 16-byte-aligned top.
                let frame: [usize; 7] = [
                    0,
                    0,
                    entry as *const () as usize,
                    self as *const Coroutine<'_> as usize,
                    0,
                    0,
                    simnet_coroutine_boot as *const () as usize,
                ];
                // SAFETY: the top 56 bytes of this coroutine's own
                // read-write mapping, on which nothing runs yet.
                unsafe {
                    let sp = self.stack.base.add(GUARD_BYTES + STACK_BYTES - 56);
                    sp.cast::<[usize; 7]>().write(frame);
                    control.sp.set(sp);
                }
            }
            state => panic!("resume of a coroutine that is {state:?}"),
        }
        control.state.set(State::Running);
        let outer = CURRENT.with(|c| c.replace(control));
        // SAFETY: `sp` is a context on this coroutine's stack that has
        // not been resumed since it was saved (by `suspend`) or built
        // (above); the state check keeps it from being entered twice, and
        // `Coroutine: !Send` keeps it on the thread that started it. The
        // switch stores this side's context in the same slot for the
        // coroutine's next `suspend` (or its end) to return to.
        unsafe { simnet_coroutine_switch(control.sp.as_ptr(), control.sp.get()) };
        CURRENT.with(|c| c.set(outer));
        match control.state.get() {
            State::Suspended => Resumed::Suspended,
            State::Finished => match control.panic.take() {
                Some(payload) => Resumed::Panicked(payload),
                None => Resumed::Returned,
            },
            state => unreachable!("a coroutine switched back while {state:?}"),
        }
    }

    /// Identifies this coroutine to [`current`].
    pub(crate) fn id(&self) -> usize {
        &*self.stack.control as *const Control as usize
    }
}

/// The [`Coroutine::id`] of the innermost coroutine running on this
/// thread, if any.
pub(crate) fn current() -> Option<usize> {
    let control = CURRENT.with(Cell::get);
    (!control.is_null()).then_some(control as usize)
}

/// Give the thread back to whoever resumed the innermost running
/// coroutine; returns when it is resumed again. Panics outside one.
pub(crate) fn suspend() {
    let control = CURRENT.with(Cell::get);
    assert!(!control.is_null(), "suspend() outside a coroutine");
    // SAFETY: `CURRENT` is only non-null inside `resume`, which borrows
    // the coroutine (and so its control block) for that whole time.
    let control = unsafe { &*control };
    control.state.set(State::Suspended);
    // SAFETY: this code runs on that coroutine (it is the innermost one
    // `resume`d on this thread and has not switched back), so `sp` holds
    // its resumer's context, consumed exactly once here; the switch
    // leaves this side's context in the slot for the next `resume`.
    unsafe { simnet_coroutine_switch(control.sp.as_ptr(), control.sp.get()) };
}

/// Build one coroutine per rank `0..n`, each to call `body(rank)` on a
/// stack from `pool` (grown as needed), lend them to `drive`, and return
/// the stacks to the pool. Aborts the process if `drive` leaves — by
/// returning or by panicking — a started coroutine suspended: its frames
/// borrow from the caller and could be neither freed nor kept.
pub(crate) fn with_coroutines<'f, R>(
    pool: &mut Vec<Stack>,
    n: usize,
    body: &'f (dyn Fn(usize) + 'f),
    drive: impl FnOnce(&mut [Coroutine<'f>]) -> R,
) -> R {
    struct Scope<'p, 'f>(&'p mut Vec<Stack>, Vec<Coroutine<'f>>);
    impl Drop for Scope<'_, '_> {
        fn drop(&mut self) {
            for c in self.1.drain(..) {
                if c.stack.control.state.get() == State::Suspended {
                    eprintln!("simnet: a suspended coroutine outlived its launch; aborting");
                    std::process::abort();
                }
                self.0.push(c.stack);
            }
        }
    }
    let mut scope = Scope(pool, Vec::with_capacity(n));
    for rank in 0..n {
        let stack = scope.0.pop().unwrap_or_else(Stack::new);
        stack.control.state.set(State::Fresh);
        scope.1.push(Coroutine {
            stack,
            body,
            rank,
            _thread_bound: PhantomData,
        });
    }
    drive(&mut scope.1)
}
