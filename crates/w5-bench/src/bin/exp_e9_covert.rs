//! E9 — the SQL covert channel (paper §3.5).
//!
//! "The SQL interface to databases can leak information implicitly and
//! thus needs to be replaced under W5."
//!
//! The channel: a tainted sender encodes bits as the presence/absence of
//! rows in a shared table; an untainted receiver reads `COUNT(*)`.
//! Measured arms:
//!
//! * **naive store** (today's shared database): the receiver's count
//!   tracks the sender's rows exactly — the channel transfers at full
//!   query rate with no trace.
//! * **W5 store**: the count the receiver *can see without taint* never
//!   moves. Reading the tainted rows is possible, but the result taints
//!   the reading instance, so at the platform level the value is blocked
//!   at the perimeter and every probe is audited (see the scenario test
//!   in `w5-apps`).

use std::sync::Arc;
use w5_difc::{Label, LabelPair, TagKind, TagRegistry};
use w5_store::{Database, QueryCost, QueryMode, Subject, Value};
use w5_sim::Table;

fn count(db: &Database, subject: &Subject, mode: QueryMode) -> i64 {
    let out = db
        .execute(subject, mode, QueryCost::unlimited(), &LabelPair::public(),
            "SELECT COUNT(*) FROM signal")
        .unwrap();
    match out.rows().first().map(|r| &r.values[0]) {
        Some(Value::Int(n)) => *n,
        _ => 0,
    }
}

fn main() {
    w5_bench::banner("E9", "SQL covert channel bandwidth: naive vs W5 store", "§3.5");

    let reg = Arc::new(TagRegistry::new());
    // The secret is read-protected: the canonical "receiver must not even
    // learn it exists" case.
    let (secret_tag, owner_caps) = reg.create_tag(TagKind::ReadProtect, "read:victim");
    let sender = Subject::new(
        LabelPair::new(Label::singleton(secret_tag), Label::empty()),
        owner_caps.clone(),
    );
    let receiver = Subject::new(LabelPair::public(), w5_difc::CapSet::empty());

    let db = Database::new(Arc::clone(&reg));
    let trusted = Subject::anonymous();
    db.execute(&trusted, QueryMode::Filtered, QueryCost::unlimited(), &LabelPair::public(),
        "CREATE TABLE signal (x INTEGER)").unwrap();

    let secret_labels = LabelPair::new(Label::singleton(secret_tag), Label::empty());
    let message: Vec<u8> = (0..64u32).map(|i| ((i * 37 + 11) % 2) as u8).collect(); // 64 bits

    let mut table = Table::new(["store", "bits sent", "bits received", "accuracy", "bandwidth"]);
    for (name, mode) in [("naive (status quo)", QueryMode::Naive), ("w5 (filtered)", QueryMode::Filtered)] {
        let mut received = Vec::with_capacity(message.len());
        let t = std::time::Instant::now();
        for &bit in &message {
            // Sender: one row = 1, no row = 0.
            if bit == 1 {
                db.execute(&sender, QueryMode::Filtered, QueryCost::unlimited(), &secret_labels,
                    "INSERT INTO signal VALUES (1)").unwrap();
            }
            // Receiver probes.
            let n = count(&db, &receiver, mode);
            received.push(if n > 0 { 1u8 } else { 0 });
            // Sender clears for the next symbol.
            db.execute(&sender, QueryMode::Filtered, QueryCost::unlimited(), &secret_labels,
                "DELETE FROM signal").unwrap();
        }
        let elapsed = t.elapsed();
        let correct = message.iter().zip(&received).filter(|(a, b)| a == b).count();
        let ones = message.iter().filter(|&&b| b == 1).count();
        let accuracy = correct as f64 / message.len() as f64;
        // Channel capacity is ~0 when the receiver always reads the same
        // symbol; report raw accuracy plus effective bandwidth.
        let leaked_bits = if received.iter().all(|&b| b == received[0]) {
            0.0 // constant output carries no information
        } else {
            accuracy * message.len() as f64
        };
        table.row([
            name.to_string(),
            message.len().to_string(),
            format!("{leaked_bits:.0}"),
            format!("{:.0}%", accuracy * 100.0),
            if leaked_bits > 0.0 {
                format!("{:.0} bit/s", leaked_bits / elapsed.as_secs_f64())
            } else {
                "0 bit/s".to_string()
            },
        ]);
        let _ = ones;
    }
    println!("{table}");
    println!("shape check: the naive store leaks the full message at query rate; the W5 store's");
    println!("             receiver-visible count never moves (0 bits). Residual signalling via");
    println!("             perimeter denials is blocked+audited at the platform layer (see");
    println!("             w5-apps scenario test attack_covert_channel_never_exports_the_count).");
}
