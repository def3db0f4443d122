//! Wire records for provider-to-provider sync.
//!
//! Labels cross the provider boundary as a **batch-level dictionary**: the
//! exporter wire-encodes each distinct label pair once ([`w5_difc::wire`]
//! LEB128 deltas, hex-wrapped for JSON), and every record carries only a
//! small dictionary index. A
//! thousand-file batch under one user's `{e_u}/{w_u}` labels ships the tag
//! sets exactly once. Both fields are `#[serde(default)]`, so batches from
//! peers predating the dictionary still parse (records with no `label_ref`
//! are treated as carrying unknown provenance, as before).

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use w5_difc::LabelPair;

/// Header carrying the peering secret.
pub const FEDERATION_TOKEN_HEADER: &str = "x-w5-peer-token";

/// One exported file.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExportRecord {
    /// Path on the exporting provider.
    pub path: String,
    /// Version on the exporting provider (monotonic per file).
    pub version: u64,
    /// File bytes, hex-encoded (JSON-safe without a base64 dependency).
    pub data_hex: String,
    /// Index into [`ExportBatch::labels_hex`] naming this file's label
    /// pair on the exporting provider. Absent from legacy peers.
    #[serde(default)]
    pub label_ref: Option<u32>,
}

impl ExportRecord {
    /// Encode raw bytes.
    pub fn new(path: &str, version: u64, data: &[u8]) -> ExportRecord {
        ExportRecord {
            path: path.to_string(),
            version,
            data_hex: hex_encode(data),
            label_ref: None,
        }
    }

    /// Decode the payload.
    pub fn data(&self) -> Result<Vec<u8>, String> {
        hex_decode(&self.data_hex)
    }
}

/// A batch of exports for one user.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExportBatch {
    /// The username on the exporting provider.
    pub user: String,
    /// The exporting provider's name.
    pub provider: String,
    /// The records.
    pub records: Vec<ExportRecord>,
    /// Deduplicated label dictionary: each entry is one wire-encoded
    /// ([`w5_difc::wire`]) label pair, hex-wrapped. Indexed by
    /// [`ExportRecord::label_ref`]. Empty for legacy peers.
    #[serde(default)]
    pub labels_hex: Vec<String>,
}

impl ExportBatch {
    /// Decode and validate the label dictionary. Returns the label pairs
    /// in dictionary order, or an error naming the malformed entry.
    pub fn decode_labels(&self) -> Result<Vec<LabelPair>, String> {
        self.labels_hex
            .iter()
            .enumerate()
            .map(|(i, hx)| {
                let bytes = hex_decode(hx).map_err(|e| format!("label {i}: {e}"))?;
                w5_difc::wire::pair_from_bytes(&bytes).map_err(|e| format!("label {i}: {e}"))
            })
            .collect()
    }
}

/// Builds an [`ExportBatch`] label dictionary: each distinct label pair is
/// wire-encoded exactly once however many records carry it.
#[derive(Default)]
pub struct LabelDict {
    index: HashMap<LabelPair, u32>,
    entries: Vec<String>,
}

impl LabelDict {
    /// An empty dictionary.
    pub fn new() -> LabelDict {
        LabelDict::default()
    }

    /// The dictionary index for `pair`, encoding it on first sight.
    pub fn intern(&mut self, pair: &LabelPair) -> u32 {
        if let Some(&ix) = self.index.get(pair) {
            return ix;
        }
        let ix = self.entries.len() as u32;
        self.entries.push(hex_encode(&w5_difc::wire::pair_to_bytes(pair)));
        self.index.insert(pair.clone(), ix);
        ix
    }

    /// The encoded entries, for [`ExportBatch::labels_hex`].
    pub fn into_entries(self) -> Vec<String> {
        self.entries
    }
}

/// Lowercase hex encoding.
pub fn hex_encode(data: &[u8]) -> String {
    let mut s = String::with_capacity(data.len() * 2);
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    for b in data {
        s.push(DIGITS[(b >> 4) as usize] as char);
        s.push(DIGITS[(b & 0xf) as usize] as char);
    }
    s
}

/// Hex decoding.
pub fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex".to_string());
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in bytes.chunks(2) {
        let hi = (pair[0] as char).to_digit(16).ok_or("bad hex digit")?;
        let lo = (pair[1] as char).to_digit(16).ok_or("bad hex digit")?;
        out.push((hi << 4 | lo) as u8);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        for data in [&b""[..], b"a", b"hello world", &[0u8, 255, 16]] {
            assert_eq!(hex_decode(&hex_encode(data)).unwrap(), data);
        }
    }

    #[test]
    fn hex_decode_rejects_garbage() {
        assert!(hex_decode("abc").is_err());
        assert!(hex_decode("zz").is_err());
    }

    #[test]
    fn record_roundtrip_via_json() {
        let r = ExportRecord::new("/photos/bob/cat", 3, b"PIXELS");
        let json = serde_json::to_string(&r).unwrap();
        let back: ExportRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.data().unwrap(), b"PIXELS");
    }

    #[test]
    fn batch_roundtrip() {
        let b = ExportBatch {
            user: "bob".into(),
            provider: "A".into(),
            records: vec![ExportRecord::new("/x", 1, b"1")],
            labels_hex: Vec::new(),
        };
        let json = serde_json::to_string(&b).unwrap();
        assert_eq!(serde_json::from_str::<ExportBatch>(&json).unwrap(), b);
    }

    #[test]
    fn legacy_batch_without_dictionary_still_parses() {
        // A peer predating the label dictionary omits both new fields.
        let json = r#"{"user":"bob","provider":"A","records":[
            {"path":"/x","version":1,"data_hex":"31"}]}"#;
        let b: ExportBatch = serde_json::from_str(json).unwrap();
        assert!(b.labels_hex.is_empty());
        assert_eq!(b.records[0].label_ref, None);
        assert!(b.decode_labels().unwrap().is_empty());
    }

    #[test]
    fn label_dict_dedups_by_pair() {
        use w5_difc::{Label, LabelPair, Tag};
        let pa = LabelPair::new(Label::singleton(Tag::from_raw(11)), Label::singleton(Tag::from_raw(12)));
        let pb = LabelPair::public();
        let mut dict = LabelDict::new();
        let r0 = dict.intern(&pa);
        let r1 = dict.intern(&pb);
        let r2 = dict.intern(&pa);
        assert_eq!(r0, r2, "same pair, same index");
        assert_ne!(r0, r1);
        let mut rec = ExportRecord::new("/x", 1, b"1");
        rec.label_ref = Some(r0);
        let batch = ExportBatch {
            user: "bob".into(),
            provider: "A".into(),
            records: vec![rec],
            labels_hex: dict.into_entries(),
        };
        let json = serde_json::to_string(&batch).unwrap();
        let back: ExportBatch = serde_json::from_str(&json).unwrap();
        let labels = back.decode_labels().unwrap();
        assert_eq!(labels.len(), 2);
        assert_eq!(labels[back.records[0].label_ref.unwrap() as usize], pa);
        assert_eq!(labels[1], pb);
    }

    #[test]
    fn decode_labels_rejects_garbage() {
        let batch = ExportBatch {
            user: "bob".into(),
            provider: "A".into(),
            records: Vec::new(),
            labels_hex: vec!["zz".into()],
        };
        assert!(batch.decode_labels().is_err());
    }
}
