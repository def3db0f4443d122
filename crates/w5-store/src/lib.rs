//! # w5-store — labeled storage for W5
//!
//! Two storage substrates, both enforcing DIFC on every access:
//!
//! * [`fs`] — a labeled filesystem. Every file carries a
//!   [`w5_difc::LabelPair`]; reads return the labels so the caller (the
//!   platform API) can taint the reading process, writes are checked
//!   against the subject's labels and capabilities.
//! * [`sql`] — a small SQL engine (`CREATE TABLE` / `INSERT` / `SELECT` /
//!   `UPDATE` / `DELETE`, `WHERE`, `ORDER BY`, `LIMIT`, aggregates) with a
//!   label on every row. The paper (§3.5) points out that a shared SQL
//!   interface "can leak information implicitly and thus needs to be
//!   replaced under W5": this engine is that replacement. In
//!   [`sql::QueryMode::Filtered`] mode, rows the subject may not read are
//!   *silently absent* — queries, counts and errors behave identically
//!   whether secret rows exist or not. [`sql::QueryMode::Naive`] keeps the
//!   leaky behaviour (visible counts and row-lock errors over all rows) so
//!   the covert-channel experiment (E9) can measure the difference.
//!
//! Access control is expressed through a [`Subject`]: the labels and
//! effective capabilities of the acting process, constructed by the
//! platform from kernel state. The store itself never consults ambient
//! authority.

#![forbid(unsafe_code)]

pub mod fs;
pub mod sql;
pub mod subject;

pub use fs::{FileMeta, FsError, LabeledFs};
pub use sql::{
    Database, QueryCost, QueryError, QueryMode, QueryOutput, Row, SqlError, Value,
};
pub use subject::Subject;
