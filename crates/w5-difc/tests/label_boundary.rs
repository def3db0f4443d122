//! Robustness properties where outside bytes become labels: the wire
//! decoder (federation batches, persisted objects) and the JSON
//! deserialisers of `Label` and of its ledger-side view `ObsLabel`.
//! Whatever arrives, the outcome is a typed error or a canonical set —
//! strictly ascending, inline iff at most two tags, and for `Label` never
//! holding the reserved tag id 0 — that round-trips. Never a panic.

use proptest::prelude::*;
use w5_difc::wire::{self, put_varint};
use w5_difc::{Label, LabelPair, Tag};
use w5_obs::ObsLabel;

fn check_canonical(set: &ObsLabel) -> Result<(), TestCaseError> {
    let tags = set.as_slice();
    prop_assert!(tags.windows(2).all(|w| w[0] < w[1]), "not strictly ascending: {tags:?}");
    prop_assert_eq!(set.is_inline(), tags.len() <= 2);
    Ok(())
}

fn check_label(label: &Label) -> Result<(), TestCaseError> {
    check_canonical(label.to_obs())?;
    prop_assert!(!label.to_obs().contains(0), "tag 0 inside {label:?}");
    Ok(())
}

/// Whatever the decoder accepted must survive encode → decode unchanged.
fn check_wire_roundtrip(label: &Label) -> Result<(), TestCaseError> {
    check_label(label)?;
    let mut buf = Vec::new();
    wire::encode_label(label, &mut buf);
    prop_assert_eq!(wire::decode_label(&buf, &mut 0), Ok(label.clone()));
    Ok(())
}

/// Tag ids a hostile peer would try: the reserved zero, the maximum, a
/// narrow band (so duplicates and near-misses are common) and anything.
fn hostile_id() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(u64::MAX), 1u64..6, any::<u64>()]
}

/// One JSON array element: mostly numbers, sometimes not a tag at all.
fn hostile_element() -> impl Strategy<Value = String> {
    (0usize..8, hostile_id()).prop_map(|(kind, id)| match kind {
        0 => "-1".to_string(),
        1 => "1.5".to_string(),
        2 => "\"7\"".to_string(),
        3 => "null".to_string(),
        4 => "[1]".to_string(),
        _ => id.to_string(),
    })
}

fn nonzero_ids() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(prop_oneof![1u64..10, 1u64..=u64::MAX], 0..12)
}

proptest! {
    /// Arbitrary bytes: a label, a pair, or a typed error.
    #[test]
    fn wire_decoders_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        if let Ok(label) = wire::decode_label(&bytes, &mut 0) {
            check_wire_roundtrip(&label)?;
        }
        if let Ok(pair) = wire::pair_from_bytes(&bytes) {
            check_wire_roundtrip(&pair.secrecy)?;
            check_wire_roundtrip(&pair.integrity)?;
            prop_assert_eq!(wire::pair_from_bytes(&wire::pair_to_bytes(&pair)), Ok(pair));
        }
    }

    /// Label-shaped garbage: a count that may lie, then hostile deltas
    /// (zero deltas, a zero first tag, sums past `u64::MAX`).
    #[test]
    fn structured_wire_garbage_never_panics(
        count in 0u64..16,
        deltas in proptest::collection::vec(hostile_id(), 0..12),
    ) {
        let mut bytes = Vec::new();
        put_varint(&mut bytes, count);
        for &d in &deltas {
            put_varint(&mut bytes, d);
        }
        if let Ok(label) = wire::decode_label(&bytes, &mut 0) {
            prop_assert_eq!(label.len() as u64, count);
            check_wire_roundtrip(&label)?;
        }
        let _ = wire::pair_from_bytes(&bytes);
    }

    /// Hostile JSON arrays: zeros, duplicates, unsorted, `u64::MAX`,
    /// non-numbers. `ObsLabel` takes any array of `u64`; `Label` also
    /// refuses tag 0.
    #[test]
    fn json_deserialisers_canonicalise_or_refuse(
        elements in proptest::collection::vec(hostile_element(), 0..=12),
    ) {
        let json = format!("[{}]", elements.join(","));
        let ids: Option<Vec<u64>> = elements.iter().map(|e| e.parse().ok()).collect();

        let obs = serde_json::from_str::<ObsLabel>(&json);
        prop_assert_eq!(obs.is_ok(), ids.is_some(), "{json}");
        if let Ok(obs) = &obs {
            check_canonical(obs)?;
            let again: ObsLabel = serde_json::from_str(&serde_json::to_string(obs).unwrap()).unwrap();
            prop_assert_eq!(&again, obs);
        }

        let label = serde_json::from_str::<Label>(&json);
        let zero_free = ids.as_ref().is_some_and(|ids| !ids.contains(&0));
        prop_assert_eq!(label.is_ok(), zero_free, "{json}");
        if let Ok(label) = &label {
            check_label(label)?;
            // Both deserialisers saw the same array: the same set.
            prop_assert_eq!(Some(label.to_obs()), obs.as_ref().ok());
            let again: Label = serde_json::from_str(&serde_json::to_string(label).unwrap()).unwrap();
            prop_assert_eq!(&again, label);
        }
        // A pair is refused whole if either half is.
        let pair = serde_json::from_str::<LabelPair>(&format!(r#"{{"secrecy":[],"integrity":{json}}}"#));
        prop_assert_eq!(pair.is_ok(), zero_free);
    }

    /// One set, two views: `Label` and `ObsLabel` built from the same ids
    /// are the same set, and the algebra agrees whichever view runs it.
    #[test]
    fn label_and_obs_views_agree(a in nonzero_ids(), b in nonzero_ids()) {
        let label = |ids: &[u64]| Label::from_iter(ids.iter().map(|&id| Tag::from_raw(id)));
        let (la, lb) = (label(&a), label(&b));
        let (oa, ob) = (ObsLabel::from_tags(a), ObsLabel::from_tags(b));
        check_label(&la)?;
        prop_assert_eq!(la.to_obs(), &oa);
        prop_assert_eq!(la.is_subset(&lb), oa.is_subset(&ob));
        prop_assert_eq!(lb.is_subset(&la), ob.is_subset(&oa));
        let both = la.union(&lb);
        check_label(&both)?;
        prop_assert_eq!(both.to_obs(), &oa.union(&ob));
        // A subset pair on purpose: random sets are almost never nested.
        prop_assert!(la.is_subset(&both) && oa.is_subset(both.to_obs()));
        prop_assert_eq!(both.is_subset(&la), lb.is_subset(&la));
    }
}
