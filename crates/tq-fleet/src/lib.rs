//! # tq-fleet — consistent-hash placement for the profiling service
//!
//! A fleet of `tq-profd` daemons records each capture once: on the ring
//! owner of its workload digest. [`Ring`] is a deterministic
//! consistent-hash ring over the existing `JobSpec` content digests.
//! Every capture has exactly one *owning* node, so the fleet's cache
//! **shards** instead of replicating: a job routed to its owner hits that
//! node's cache, a job landing elsewhere is served by *peeking* the
//! owner's capture over the wire rather than re-recording it. The ring is
//! a pure function of the member list — every node and every client
//! computes the identical routing table with no coordinator and no
//! gossip.
//!
//! The crate is deliberately **zero-dependency and transport-free**: it
//! decides *where* work should go, never moves bytes itself.
//! `tq-profd::fleet` owns the sockets.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod ring;

pub use ring::{hash64, Ring};
