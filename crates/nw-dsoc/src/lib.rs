//! DSOC — the Distributed System Object Component programming model.
//!
//! §7.2 of the paper: ST's MultiFlex tools are built around "a lightweight
//! Distributed System Object Component (DSOC) programming model inspired by
//! CORBA-like concepts. DSOC objects can be executed on a variety of
//! processors … as well as on hardware or on the eFPGA. Using the DSOC
//! methodology, the application design is largely decoupled from the details
//! of a particular FPPA target mapping."
//!
//! This crate implements the platform-independent half of that stack:
//!
//! * [`app`] — interface/method descriptors, the object graph with typed
//!   call edges, invocation-rate propagation, and validation.
//! * [`wire`] — the binary on-wire format for marshalled invocations and
//!   replies (what actually travels through the NoC as packet payload).
//!
//! The platform-dependent half — resolving objects to the nodes hosting
//! them, synthesizing PE micro-op programs from method descriptors and
//! dispatching invocations onto hardware threads — lives in the `nanowall`
//! core crate; the automatic object-to-PE mapping algorithms live in
//! `nw-mapping`.
//!
//! # Examples
//!
//! ```
//! use nw_dsoc::app::{Application, MethodDef, ObjectDef};
//!
//! let mut b = Application::builder("pipeline");
//! let parse = b.add_object(ObjectDef::new("parser").with_method(
//!     MethodDef::oneway("ingest", 40).with_compute(100),
//! ));
//! let fwd = b.add_object(ObjectDef::new("forwarder").with_method(
//!     MethodDef::oneway("emit", 40).with_compute(50),
//! ));
//! b.connect(parse, 0, fwd, 0, 1.0);
//! b.entry(parse, 0);
//! let app = b.build()?;
//! assert_eq!(app.objects().len(), 2);
//! # Ok::<(), nw_dsoc::app::BuildAppError>(())
//! ```

pub mod app;
pub mod idl;
pub mod wire;

pub use app::{Application, BuildAppError, CallEdge, Domain, MethodDef, MethodId, ObjectDef};
pub use idl::{parse_application, ParseIdlError};
pub use wire::{DecodeError, Message, MessageKind, MessageView};
