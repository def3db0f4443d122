//! # w5-difc — Decentralized Information Flow Control for W5
//!
//! This crate implements the DIFC model that the W5 paper (*World Wide Web
//! Without Walls*, HotNets 2007) relies on for its security perimeter. The
//! model follows Flume (Krohn et al., SOSP 2007), which the paper names as a
//! sufficient substrate:
//!
//! * [`Tag`] — an opaque identifier for one category of secrecy or integrity.
//! * [`Label`] — a set of tags. Every process, file and database row
//!   carries a secrecy label `S` and an integrity label `I`.
//! * [`Capability`] — `t+` (the right to add `t` to a label) or `t-` (the
//!   right to remove it). [`CapSet`] is a bag of capabilities.
//! * [`TagRegistry`] — allocates tags and answers for the *global bag* `Ô`
//!   of capabilities everyone holds. Creating an **export-protection** tag
//!   puts `t+` in the global bag (anyone may classify data under `t`) and
//!   hands the creator `t-` (only they may declassify). A
//!   **write-protection** tag is the dual: `t-` is global, the creator keeps
//!   `t+`. `Ô` is therefore a rule over tag kinds, not a stored set;
//!   [`Held`] reads a private bag through it.
//! * [`rules`] — read and write checks between labeled entities.
//!
//! The W5 mapping (paper §3.1): each user `u` owns an export-protection tag
//! `e_u` and a write-protection tag `w_u`; all of `u`'s data defaults to
//! `S = {e_u}`, `I = {w_u}`. Untrusted applications may freely *raise* their
//! secrecy to read the data, but only the platform exporter (for `u`'s own
//! browser) or a declassifier that `u` granted `e_u-` can move derived data
//! across the perimeter.
//!
//! Everything here is deliberately small, allocation-conscious and
//! exhaustively tested: this is the component the paper argues must be
//! correct so that nothing else needs to be trusted.

#![forbid(unsafe_code)]

pub mod caps;
pub mod error;
pub mod intern;
pub mod label;
pub mod registry;
pub mod rules;
pub mod tag;
pub mod wire;

pub use caps::{CapSet, Capability, Privilege};
pub use error::{DifcError, DifcResult};
pub use intern::InternStats;
pub use label::Label;
pub use registry::{Held, TagMeta, TagRegistry};
pub use rules::{can_flow, labels_for_read, FlowCheck};
pub use tag::{Tag, TagKind};

/// A secrecy/integrity label pair, the complete flow-control state of a
/// passive entity (file, row, message). Ordered by secrecy, then integrity
/// (each as its sorted tag sequence), for deterministic listings.
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize)]
pub struct LabelPair {
    /// Secrecy label: who may learn this datum.
    pub secrecy: Label,
    /// Integrity label: claims about who vouches for this datum.
    pub integrity: Label,
}

impl LabelPair {
    /// An empty (public, unvouched) label pair.
    pub fn public() -> Self {
        Self::default()
    }

    /// Construct from secrecy and integrity labels.
    pub fn new(secrecy: Label, integrity: Label) -> Self {
        Self { secrecy, integrity }
    }

    /// The label pair of data derived from both `self` and `other`:
    /// secrecy accumulates (union), integrity degrades (intersection).
    pub fn combine(&self, other: &LabelPair) -> LabelPair {
        LabelPair {
            secrecy: self.secrecy.union(&other.secrecy),
            integrity: self.integrity.intersection(&other.integrity),
        }
    }

    /// True if both labels are empty — data that anyone may see and no one
    /// vouches for.
    pub fn is_public(&self) -> bool {
        self.secrecy.is_empty() && self.integrity.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combine_accumulates_secrecy_and_degrades_integrity() {
        let t1 = Tag::from_raw(1);
        let t2 = Tag::from_raw(2);
        let w = Tag::from_raw(9);
        let a = LabelPair::new(Label::from_iter([t1]), Label::from_iter([w]));
        let b = LabelPair::new(Label::from_iter([t2]), Label::empty());
        let c = a.combine(&b);
        assert_eq!(c.secrecy, Label::from_iter([t1, t2]));
        assert!(c.integrity.is_empty());
    }

    #[test]
    fn public_pair_is_public() {
        assert!(LabelPair::public().is_public());
        let p = LabelPair::new(Label::from_iter([Tag::from_raw(3)]), Label::empty());
        assert!(!p.is_public());
    }
}
