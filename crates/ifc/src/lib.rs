//! # flowistry-ifc: an information flow control checker
//!
//! The paper's second application (§6, Figure 5b) is an IFC checker: a
//! library marks some data as `Secure` and some operations as `Insecure`,
//! and a compiler plugin uses Flowistry to flag any flow from secure data to
//! an insecure operation — including *implicit* flows through control flow,
//! as in the paper's example where `insecure_print` is called under a branch
//! that read a password.
//!
//! Policies label data over a [`SecurityLattice`] and give sinks a
//! clearance; the [`PolicyChecker`] flags every sink call that observes data
//! above its clearance. A policy comes from source annotations
//! ([`Policy::from_annotations`]), from naming conventions
//! ([`Policy::from_conventions`], the closest analogue of the paper's
//! `Secure`/`Insecure` traits), or is built programmatically.
//!
//! ```
//! use flowistry_ifc::{Policy, PolicyChecker};
//! let src = "
//!     fn read_password() -> i32 { return 1234; }
//!     fn insecure_print(x: i32) { }
//!     fn main_like() {
//!         let password = read_password();
//!         if password == 1234 { insecure_print(1); }
//!     }
//! ";
//! let program = flowistry_lang::compile(src).unwrap();
//! let checker = PolicyChecker::new(&program, Policy::from_conventions(&program)).unwrap();
//! let report = checker.check_function("main_like").unwrap();
//! assert!(!report.is_clean()); // the implicit flow is flagged
//! ```

#![warn(missing_docs)]

pub mod lattice;

pub use lattice::{
    IfcDiagnostic, Label, LatticeSpec, Policy, PolicyChecker, PolicyError, PolicyReport,
    SecurityLattice, WitnessStep,
};
