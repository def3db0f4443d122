//! Error types for flow-control decisions.
//!
//! Denials carry enough structure for trusted code (the kernel, the
//! perimeter, experiment harnesses) to explain *why* a flow was refused.
//! Untrusted code must usually not see these details — surfacing "which tag
//! blocked you" is itself an information channel — so the platform's API
//! hands applications a bare denial and the store filters unreadable rows
//! silently (paper §3.5).

use crate::label::Label;
use crate::tag::Tag;
use std::fmt;

/// Result alias for DIFC operations.
pub type DifcResult<T> = Result<T, DifcError>;

/// Why a label change or flow was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DifcError {
    /// A label change added tags without holding the needed `t+`s.
    MissingPlus {
        /// Tags that would be added without authority.
        tags: Label,
    },
    /// A label change removed tags without holding the needed `t-`s.
    MissingMinus {
        /// Tags that would be removed without authority.
        tags: Label,
    },
    /// The tag is not known to the registry.
    UnknownTag(Tag),
}

impl fmt::Display for DifcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DifcError::MissingPlus { tags } => {
                write!(f, "label change adds {tags:?} without the t+ capabilities")
            }
            DifcError::MissingMinus { tags } => {
                write!(f, "label change removes {tags:?} without the t- capabilities")
            }
            DifcError::UnknownTag(t) => write!(f, "tag {t} is not registered"),
        }
    }
}

impl std::error::Error for DifcError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DifcError::MissingPlus {
            tags: Label::singleton(Tag::from_raw(7)),
        };
        let s = format!("{e}");
        assert!(s.contains("t+"), "{s}");
        assert!(s.contains("t7"), "{s}");
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(DifcError::UnknownTag(Tag::from_raw(1)));
        assert!(e.to_string().contains("not registered"));
    }
}
