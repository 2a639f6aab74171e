//! # vi-apps
//!
//! Applications built on the virtual-infrastructure abstraction,
//! following the paper's motivating use cases:
//!
//! * [`tracking`] — a location / tracking service hosted on a grid of
//!   virtual nodes (paper references \[11, 16, 34, 36\]).
//! * [`register`] — a single-writer atomic register replicated at a
//!   virtual node, in the spirit of the GeoQuorums motivation \[13\].
//! * [`georouting`] — greedy geographic routing over the virtual-node
//!   grid (paper references \[12, 16\]).
//! * [`mutex`] — a FIFO lock server hosted on a virtual node (the
//!   coordination primitive behind the robot motivation \[4, 27\]).
//!
//! The crate is the four virtual-node automata and their messages;
//! vi-traffic's `App` adapters are their clients. Each message type is
//! plain data those adapters match on directly to extract request
//! completions (and their semantic outcomes, for the `vi-audit`
//! history checkers); `LockMsg::granted_client` and `RouteMsg::inject`
//! are the helpers they share.

#![forbid(unsafe_code)]

pub mod georouting;
pub mod mutex;
pub mod register;
pub mod tracking;
