//! Multithreaded processing-element models.
//!
//! The paper's §6.2 describes the processor menagerie of an MP-SoC platform
//! — general-purpose RISC, DSPs, ASIPs, configurable processors — and the
//! mechanism that makes them effective behind a high-latency NoC:
//!
//! > "A hardware multithreaded processor has separate register banks for
//! > different threads, with hardware units that schedule threads and swap
//! > them in one cycle."
//!
//! This crate models exactly that. A [`Pe`] has `n` hardware thread
//! contexts executing straight-line micro-op [`Program`]s (compute bursts,
//! local scratchpad accesses, asynchronous sends and synchronous
//! request/response calls). When a thread stalls on a call, the scheduler
//! swaps in another ready context for a configurable penalty (one cycle by
//! default, zero for an ideal machine, or barrel-style round-robin for the
//! ablation of experiment F6).
//!
//! A tick costs what changed, not what exists: the contexts that are
//! runnable, stalled on the scratchpad or idle are three `u64` sets moved
//! where a context changes state (hence at most 64 contexts), the next
//! context to issue is a masked `trailing_zeros`, and a context's occupancy
//! is an interval opened when it takes a task and closed when it retires —
//! no tick, span probe or catch-up visits the threads.
//!
//! The PE is platform-agnostic: it raises [`PeRequest`]s which the owner
//! (the `nanowall` platform glue) services over the NoC and acknowledges
//! with [`Pe::complete`].
//!
//! # Examples
//!
//! ```
//! use nw_pe::{Pe, PeClass, PeConfig, Program, Op};
//! use nw_sim::Clocked;
//! use nw_types::Cycles;
//!
//! let mut pe = Pe::new(PeConfig::new(PeClass::GpRisc, 4));
//! let tid = pe.spawn(Program::straight_line([Op::Compute(10)])).unwrap();
//! for c in 0..12 { pe.tick(Cycles(c)); }
//! assert!(pe.thread_is_idle(tid)); // task ran to completion
//! assert_eq!(pe.tasks_completed(), 1);
//! ```

pub mod class;
pub mod pe;
pub mod program;

pub use class::{KernelDomain, PeClass};
pub use pe::{Pe, PeConfig, PeRequest, PeStats, SchedPolicy, SpawnError};
pub use program::{Op, Program};
