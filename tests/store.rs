//! Integration suite for the labeled store: the differential oracle
//! (flat model ≡ store serial ≡ store concurrent) over fixed seeds, plus a
//! property-based differential that drives the model and the store through
//! random statement sequences — with chaos fault storms and DML interleaved
//! with index builds — and demands identical outcomes per statement and
//! identical final table contents.
//!
//! The op vocabulary, its SQL and the model live in `w5_sim`; this file
//! holds the seeds and the proptest strategy, and both go through the one
//! harness. `QueryOutput::scanned` is the one field the two sides
//! legitimately disagree on (pruning is the point): the harness moves it
//! into the run's cost and the properties assert the direction instead.
//! (The test names predate the model: the "executors" are now the store and
//! the model, the "four arms" three.)

use proptest::prelude::*;
use w5_sim::harness::{run_ops, Mode, Spec};
use w5_sim::storediff::{self, EqTerm, StoreOp, StoreOracle, ID_DOMAIN};

/// The full check over several seeds, calm and stormy. This is what CI's
/// store job runs.
#[test]
fn four_arm_differential_over_seeds() {
    for (seed, fault_rate) in [(20070824u64, 0.05), (5, 0.0), (77, 0.25)] {
        storediff::assert_store_differential(&Spec {
            seed,
            threads: 4,
            ops_per_thread: 120,
            fault_rate,
        });
    }
}

/// More threads than tables is pointless (one table per thread), but more
/// threads than cores is exactly the contention the RwLock sees in
/// production. Keep one heavier spec pinned.
#[test]
fn four_arm_differential_under_contention() {
    storediff::assert_store_differential(&Spec {
        seed: 424242,
        threads: 8,
        ops_per_thread: 80,
        fault_rate: 0.1,
    });
}

// ---------------------------------------------------------------------
// Property-based differential: single-threaded, but with arbitrary
// statement sequences rather than a weighted schedule.
// ---------------------------------------------------------------------

fn arb_op() -> impl Strategy<Value = StoreOp> {
    let key = || 0..ID_DOMAIN;
    // Lookups also reach the keys a shift moves rows to.
    let probe = || 0..2 * ID_DOMAIN;
    let end = || (0..2 * ID_DOMAIN, any::<bool>());
    prop_oneof![
        // One key in eight is NULL; every label kind, the claimed one too.
        (0u8..4, any::<u8>(), key(), 0i64..1000).prop_map(|(kind, null, id, v)| StoreOp::Insert {
            kind,
            id: (null % 8 != 7).then_some(id),
            v,
        }),
        (any::<bool>(), probe(), any::<bool>(), 0i64..1000).prop_map(|(stranger, id, and_v, below)| {
            StoreOp::Point { stranger, id, below: and_v.then_some(below) }
        }),
        (any::<bool>(), end(), end())
            .prop_map(|(stranger, lo, hi)| StoreOp::Window { stranger, lo, hi }),
        (any::<bool>(), 0i64..900, 1i64..300)
            .prop_map(|(stranger, lo, span)| StoreOp::Range { stranger, lo, span }),
        any::<bool>().prop_map(|stranger| StoreOp::Agg { stranger }),
        (any::<bool>(), 1usize..8)
            .prop_map(|(stranger, limit)| StoreOp::OrderLimit { stranger, limit }),
        (key(), 0i64..1000).prop_map(|(id, v)| StoreOp::Update { id, v }),
        key().prop_map(|id| StoreOp::Shift { id }),
        (0i64..1000).prop_map(|v| StoreOp::StrangerUpdate { v }),
        key().prop_map(|id| StoreOp::Delete { id }),
        (0..2 * ID_DOMAIN, 0..2 * ID_DOMAIN).prop_map(|(lo, hi)| StoreOp::DeleteWindow { lo, hi }),
        Just(StoreOp::NaiveScan),
        any::<bool>().prop_map(|on_v| StoreOp::CreateIndex { on_v }),
        // Two and three equalities: indexed on both columns or not, the
        // key repeated, a literal of the wrong type, a NULL literal.
        (any::<bool>(), key(), eq_term(), any::<bool>(), eq_term()).prop_map(
            |(stranger, id, also, three, then)| StoreOp::Meet { stranger, id, also, then: three.then_some(then) }
        ),
        (any::<bool>(), probe(), any::<bool>())
            .prop_map(|(stranger, id, unprivileged)| StoreOp::Count { stranger, id, unprivileged }),
        // A reader with an integrity claim it cannot drop.
        probe().prop_map(|id| StoreOp::Claimed { id }),
    ]
}

fn eq_term() -> impl Strategy<Value = EqTerm> {
    prop_oneof![
        (0..ID_DOMAIN).prop_map(EqTerm::Id),
        (0i64..1000).prop_map(EqTerm::V),
        (0i64..1000).prop_map(EqTerm::VText),
        Just(EqTerm::IdNull),
    ]
}

/// One sequence, run on the model and on the store: same statements, same
/// seeded fault stream. Setup and the final dump run outside the injector
/// scope (they must never abort).
fn check(ops: Vec<StoreOp>, chaos_seed: u64, fault_rate: f64) -> Result<(), TestCaseError> {
    let spec = Spec { seed: chaos_seed, threads: 1, ops_per_thread: ops.len(), fault_rate };
    let model = run_ops(&StoreOracle::MODEL, &spec, vec![ops.clone()], Mode::Serial);
    let store = run_ops(&StoreOracle::STORE, &spec, vec![ops], Mode::Serial);
    prop_assert_eq!(model.outcome, store.outcome);
    prop_assert!(
        store.cost <= model.cost,
        "pruning charged more than the flat scan ({} vs {})",
        store.cost,
        model.cost
    );
    Ok(())
}

proptest! {
    /// Arbitrary statement sequences — calm — observe identically on the
    /// model and the store, and pruning never charges more than scanning.
    #[test]
    fn executors_agree_on_arbitrary_sequences(
        ops in proptest::collection::vec(arb_op(), 1..60),
    ) {
        check(ops, 0, 0.0)?;
    }

    /// The same property under a heavy fault storm: injected aborts land
    /// on the same statements on both sides, so outcomes still match.
    #[test]
    fn executors_agree_under_fault_storms(
        ops in proptest::collection::vec(arb_op(), 1..60),
        chaos_seed in any::<u64>(),
    ) {
        check(ops, chaos_seed, 0.3)?;
    }
}
