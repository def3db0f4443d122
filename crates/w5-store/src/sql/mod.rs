//! The labeled SQL-subset engine.
//!
//! Supported statements:
//!
//! ```sql
//! CREATE TABLE t (id INTEGER, name TEXT, ok BOOLEAN)
//! DROP TABLE t
//! CREATE INDEX t_id ON t (id)
//! INSERT INTO t (id, name, ok) VALUES (1, 'x', TRUE), (2, 'y', FALSE)
//! SELECT * FROM t WHERE id >= 1 AND name LIKE 'x%' ORDER BY id DESC LIMIT 10
//! SELECT COUNT(*), SUM(id), MIN(id), MAX(id) FROM t
//! UPDATE t SET name = 'z' WHERE id = 2
//! DELETE FROM t WHERE ok = FALSE
//! ```
//!
//! Every stored row carries a [`w5_difc::LabelPair`]. The execution mode
//! decides what happens when a query touches rows the subject may not read:
//!
//! * [`QueryMode::Filtered`] — the W5 semantics. Unreadable rows are
//!   *silently absent* from scans, counts and aggregates; results carry the
//!   combined labels of every row that contributed, so the platform taints
//!   the reader accordingly. The query observably behaves as if secret rows
//!   did not exist.
//! * [`QueryMode::Naive`] — the status-quo shared database: scans and
//!   aggregates see all rows. This is the covert channel of paper §3.5,
//!   kept so experiment E9 can measure its bandwidth.
//! * [`QueryMode::Unprivileged`] — `Filtered` with no capability
//!   exercised, not even the global bag: only rows that flow to the
//!   subject as its labels stand. For trusted readers whose answers leave
//!   unlabeled (the platform's relationship oracle).
//!
//! Every query runs under a [`QueryCost`] budget; a pathological query is
//! aborted once it has visited its row budget ("prevent malicious queries
//! from locking the database", §3.5).
//!
//! Storage is **label-partitioned** (see [`exec`]'s module docs): rows with
//! identical label pairs live contiguously, so the engine performs one flow
//! check per partition, skips unreadable partitions wholesale at a flat
//! label-safe cost, and serves indexed `WHERE` clauses from per-partition
//! ordered indexes.

mod ast;
mod exec;
mod lexer;
mod output;
mod parser;
mod plan;
mod storage;
mod value;

pub use ast::{BinOp, Expr, SelectItem, Statement};
pub use exec::{Database, QueryCost, QueryError, QueryMode};
pub use output::{QueryOutput, Row, RowIter, Rows};
pub use lexer::SqlError;
pub use parser::parse;
pub use value::{ColumnType, Value};
