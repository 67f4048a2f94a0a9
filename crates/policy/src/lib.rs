//! # sdx-policy — a Pyretic-equivalent policy language and compiler
//!
//! The paper writes SDX policies in Pyretic [Monsanto et al., NSDI'13]:
//! boolean predicates over packet headers, a small set of actions, and two
//! composition operators — parallel `+` and sequential `>>`. The SDX
//! runtime leans on the Pyretic *compiler*, which turns a policy tree into
//! a prioritized match-action classifier, composing classifiers rule-by-
//! rule. This crate is that language and compiler built from scratch:
//!
//! * [`pred`] — predicate AST (`match(dstport=80) & match(srcip=...)`).
//! * [`policy`] — policy AST with `fwd`, `modify`, filters, `+`, `>>`,
//!   and `if_` (the operator the SDX uses to splice default forwarding
//!   under participant policies, §4.1).
//! * [`mod@eval`] — denotational semantics: located packet → set of located
//!   packets. This is the ground truth the compiler is differential-tested
//!   against.
//! * [`classifier`] — prioritized rule lists and their parallel/sequential
//!   composition; the quadratic cost of these compositions is exactly what
//!   Figure 8 of the paper measures.
//! * [`mod@compile`] — policy → classifier, with shadow elimination.
//! * [`dsl`] — a text parser for the paper's surface syntax, so examples
//!   read like the paper: `match(dstport=80) >> fwd(B)`.
//! * [`delta`] — the policy *lifecycle*: install/replace/retract deltas
//!   and per-participant policy versions, so a policy edit flows through
//!   the controller like a BGP update burst.
//! * [`analysis`] — static analysis on compiled policies: forwarding
//!   targets, match unions, unicast checks, shadowing diagnostics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod classifier;
pub mod compile;
pub mod delta;
pub mod dsl;
pub mod eval;
pub mod policy;
pub mod pred;

pub use classifier::{Action, Classifier, Rule};
pub use compile::compile;
pub use delta::{PolicyDelta, PolicyDeltaOp, PolicyOp, PolicyScope, PolicyVersions};
pub use dsl::{parse_policy, DslError, PortResolver};
pub use eval::eval;
pub use policy::Policy;
pub use pred::Pred;
