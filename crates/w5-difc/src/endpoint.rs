//! Flume-style endpoints.
//!
//! An endpoint decouples a process's *label state* from the labels its
//! communication channels present to the outside. A process with privileges
//! may create an endpoint whose labels differ from its own, as long as the
//! difference is bridgeable by capabilities it holds; thereafter, each
//! message crossing the endpoint is checked with the *raw* subset test
//! against the endpoint labels — no per-message privilege reasoning.
//!
//! This matters for W5's perimeter: the HTTP exporter keeps an empty
//! process label but opens a per-session endpoint at `S = {e_u}` backed by
//! the `e_u-` it exercises for the authenticated user `u`; data for other
//! users simply cannot reach that endpoint.

use crate::error::{DifcError, DifcResult};
use crate::registry::Held;
use crate::rules;
use crate::LabelPair;

/// A validated communication endpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Endpoint {
    labels: LabelPair,
}

impl Endpoint {
    /// Create an endpoint for a process whose current labels are `proc_labels`
    /// and whose capabilities, global bag included, are `caps`.
    ///
    /// Validity (Flume §3.4): the process must be able to safely change its
    /// secrecy label to the endpoint's secrecy, and its integrity label to
    /// the endpoint's integrity. The check happens once, here; message-time
    /// checks are raw.
    pub fn new<'c>(proc_labels: &LabelPair, caps: impl Into<Held<'c>>, labels: LabelPair) -> DifcResult<Endpoint> {
        let caps = caps.into();
        rules::safe_change(&proc_labels.secrecy, &labels.secrecy, caps).map_err(|_| {
            DifcError::InvalidEndpoint { reason: "secrecy gap not covered by capabilities" }
        })?;
        rules::safe_change(&proc_labels.integrity, &labels.integrity, caps).map_err(|_| {
            DifcError::InvalidEndpoint { reason: "integrity gap not covered by capabilities" }
        })?;
        Ok(Endpoint { labels })
    }

    /// An endpoint that mirrors the process labels exactly (always valid).
    pub fn mirror(proc_labels: &LabelPair) -> Endpoint {
        Endpoint { labels: proc_labels.clone() }
    }

    /// The endpoint's label pair.
    pub fn labels(&self) -> &LabelPair {
        &self.labels
    }

    /// Raw per-message check: may data labeled `data` be *sent out* through
    /// this endpoint? The data's secrecy must be within the endpoint's, and
    /// the endpoint only claims integrity the data carries.
    pub fn may_send(&self, data: &LabelPair) -> DifcResult<()> {
        if !data.secrecy.is_subset(&self.labels.secrecy) {
            return Err(DifcError::SecrecyViolation {
                leaked: data.secrecy.difference(&self.labels.secrecy),
            });
        }
        if !self.labels.integrity.is_subset(&data.integrity) {
            return Err(DifcError::IntegrityViolation {
                unvouched: self.labels.integrity.difference(&data.integrity),
            });
        }
        Ok(())
    }

    /// Raw per-message check for *receiving*: data arriving through this
    /// endpoint is stamped with the endpoint's labels; receiving is always
    /// allowed, the caller must combine labels with
    /// [`LabelPair::combine`]. Provided for symmetry and future policies.
    pub fn stamp_incoming(&self) -> LabelPair {
        self.labels.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Label;
    use crate::caps::CapSet;
    use crate::registry::TagRegistry;
    use crate::tag::TagKind;

    #[test]
    fn exporter_session_endpoint() {
        let reg = TagRegistry::new();
        let (e_bob, bob_caps) = reg.create_tag(TagKind::ExportProtect, "export:bob");
        let (e_alice, _) = reg.create_tag(TagKind::ExportProtect, "export:alice");

        // The exporter process is unlabeled but (for Bob's session) wields e_bob-.
        let exporter = LabelPair::public();
        let eff = reg.held(&bob_caps);
        // Endpoint at S = {e_bob}: reachable because t+ is global (raise) and
        // t- is held (the exporter can come back down).
        let ep = Endpoint::new(
            &exporter,
            eff,
            LabelPair::new(Label::singleton(e_bob), Label::empty()),
        )
        .expect("session endpoint must validate");

        // Bob's data may flow out to Bob's browser.
        assert!(ep.may_send(&LabelPair::new(Label::singleton(e_bob), Label::empty())).is_ok());
        // Public data may flow out too.
        assert!(ep.may_send(&LabelPair::public()).is_ok());
        // Alice's data must not.
        assert!(ep
            .may_send(&LabelPair::new(Label::singleton(e_alice), Label::empty()))
            .is_err());
        // Data tagged for both users must not (it still contains Alice's secrets).
        assert!(ep
            .may_send(&LabelPair::new(Label::from_iter([e_bob, e_alice]), Label::empty()))
            .is_err());
    }

    #[test]
    fn endpoint_requires_bridgeable_gap() {
        let reg = TagRegistry::new();
        let (e, _creator) = reg.create_tag(TagKind::ExportProtect, "export:x");
        let empty_bag = CapSet::empty();
        let anyone = reg.held(&empty_bag);
        let proc = LabelPair::new(Label::singleton(e), Label::empty());
        // An unprivileged process at S={e} cannot open an S={} endpoint:
        // that would be an export channel.
        assert!(matches!(
            Endpoint::new(&proc, anyone, LabelPair::public()),
            Err(DifcError::InvalidEndpoint { .. })
        ));
        // It can open an S={e} endpoint.
        assert!(Endpoint::new(&proc, anyone, proc.clone()).is_ok());
    }

    #[test]
    fn integrity_endpoint_claims_require_data_to_carry_them() {
        let reg = TagRegistry::new();
        let (w, bob) = reg.create_tag(TagKind::WriteProtect, "write:bob");
        let eff = reg.held(&bob);
        let proc = LabelPair::public();
        let ep = Endpoint::new(&proc, eff, LabelPair::new(Label::empty(), Label::singleton(w)))
            .expect("endorser endpoint validates");
        // Sending unvouched data through a w-claiming endpoint is refused.
        assert!(ep.may_send(&LabelPair::public()).is_err());
        assert!(ep
            .may_send(&LabelPair::new(Label::empty(), Label::singleton(w)))
            .is_ok());
    }

    #[test]
    fn mirror_endpoint_passes_own_label_data() {
        let reg = TagRegistry::new();
        let (e, _) = reg.create_tag(TagKind::ExportProtect, "export:y");
        let proc = LabelPair::new(Label::singleton(e), Label::empty());
        let ep = Endpoint::mirror(&proc);
        assert!(ep.may_send(&proc).is_ok());
        assert_eq!(ep.stamp_incoming(), proc);
    }
}
