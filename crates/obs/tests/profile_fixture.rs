//! The on-disk profile schema is a contract with files written by earlier
//! builds: `fixtures/profile_store_pr14.json` was written by
//! `ProfileStore::to_json` of the commit before the cost vocabulary moved
//! into `tileqr_dag::cost` (PR 14) and must keep loading — and
//! re-serialising byte for byte.

use tileqr_obs::ProfileStore;
use tileqr_sim::profiles;

const WRITTEN_BY_PARENT: &str = include_str!("fixtures/profile_store_pr14.json");

#[test]
fn parent_written_store_round_trips_byte_identically() {
    let store = ProfileStore::from_json(WRITTEN_BY_PARENT).expect("parent's file loads");
    assert_eq!(store.entries.len(), 3);
    assert_eq!(store.get("256x128"), Some(&profiles::gtx580()));
    assert_eq!(
        store.get("64x64"),
        Some(&profiles::cpu_i7_3820().slowed(1.7))
    );
    let (key, odd) = &store.entries[2];
    assert_eq!(key, "weird \"key\"\\\n\t\u{1}");
    assert_eq!(odd.name, "tuned-48x48 µ \"quoted\" \\ back\r\nslash");
    assert_eq!(odd.times.elimination.c1, 0.1 + 0.2);
    assert_eq!(odd.times.update.c2, 5e-324);
    assert_eq!(store.to_json(), WRITTEN_BY_PARENT);
}
