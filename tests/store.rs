//! Integration suite for the labeled store: the differential oracle
//! (flat model ≡ store serial ≡ store concurrent) over fixed seeds, plus a
//! property-based differential that drives the model and the store through
//! random statement sequences — with chaos fault storms and DML interleaved
//! with index builds — and demands identical outcomes per statement and
//! identical final table contents.
//!
//! The op vocabulary, its SQL and the model live in `w5_sim`; this file
//! holds the seeds and the proptest strategy. `QueryOutput::scanned` is the
//! one field the two sides legitimately disagree on (pruning is the point):
//! `replay` zeroes it and the properties assert the direction instead.
//! (The test names predate the model: the "executors" are now the store and
//! the model, the "four arms" three.)

use proptest::prelude::*;
use w5_difc::TagRegistry;
use w5_sim::storediff::{self, dump, populate, replay, Arm, Outcome, ID_DOMAIN};
use w5_sim::storediff::{StoreOp, StoreSpec, StoreWorld};
use w5_sim::storemodel::Model;
use w5_store::{Database, Row};

/// The full check over several seeds, calm and stormy. This is what CI's
/// store job runs.
#[test]
fn four_arm_differential_over_seeds() {
    for (seed, fault_rate) in [(20070824u64, 0.05), (5, 0.0), (77, 0.25)] {
        storediff::assert_store_differential(&StoreSpec {
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
    storediff::assert_store_differential(&StoreSpec {
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
    let end = || (0..2 * ID_DOMAIN, any::<bool>());
    prop_oneof![
        // One key in eight is NULL.
        (0u8..3, any::<u8>(), key(), 0i64..1000).prop_map(|(kind, null, id, v)| StoreOp::Insert {
            kind,
            id: (null % 8 != 7).then_some(id),
            v,
        }),
        (any::<bool>(), key()).prop_map(|(stranger, id)| StoreOp::Point { stranger, id }),
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
    ]
}

/// Populate one arm and run the sequence on it: per-statement outcomes
/// (`scanned` zeroed), the total cost charged, the table's final contents.
/// Setup and the final dump run outside the injector scope (they must never
/// abort); the ops run inside it, so both arms see one seeded fault stream.
fn run(
    mut arm: impl Arm,
    ops: &[StoreOp],
    chaos_seed: u64,
    fault_rate: f64,
) -> (Vec<Outcome>, u64, Vec<Row>) {
    // A registry per arm: identical subjects, identical raw tags.
    let w = StoreWorld::new(&TagRegistry::new(), "p");
    populate(&mut arm, &w, true);
    let (outcomes, scanned) = {
        let _chaos = w5_chaos::with_injector(w5_chaos::Injector::new(
            w5_chaos::FaultPlan::new(chaos_seed).with(w5_chaos::Site::SqlQuery, fault_rate),
        ));
        replay(&mut arm, &w, ops)
    };
    (outcomes, scanned, dump(&mut arm, &w))
}

fn check(ops: &[StoreOp], chaos_seed: u64, fault_rate: f64) -> Result<(), TestCaseError> {
    let (model, flat_cost, model_rows) = run(Model::default(), ops, chaos_seed, fault_rate);
    let (store, pruned_cost, store_rows) = run(Database::new(), ops, chaos_seed, fault_rate);
    prop_assert_eq!(model, store);
    prop_assert_eq!(model_rows, store_rows);
    prop_assert!(
        pruned_cost <= flat_cost,
        "pruning charged more than the flat scan ({pruned_cost} vs {flat_cost})"
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
        check(&ops, 0, 0.0)?;
    }

    /// The same property under a heavy fault storm: injected aborts land
    /// on the same statements on both sides, so outcomes still match.
    #[test]
    fn executors_agree_under_fault_storms(
        ops in proptest::collection::vec(arb_op(), 1..60),
        chaos_seed in any::<u64>(),
    ) {
        check(&ops, chaos_seed, 0.3)?;
    }
}
