//! Determinism gate: every seeded session scenario, run in-process at seed
//! 42, must reproduce its pinned digest, and the conformance mutation
//! battery must catch every seeded corruption. The digests were recorded
//! from the nine per-scenario binaries this harness replaced; a refactor
//! keeps them byte-identical or explains the diff.

use iluvatar::session::{self, Args, SCENARIOS};

/// `(scenario, --kill-at, digest)`.
const PINNED: [(&str, Option<u64>, u64); 9] = [
    ("chaos", None, 0xd83c_b628_61e4_75b9),
    ("admission", None, 0x12c1_642a_d67a_e9c8),
    ("lifecycle", Some(12), 0x1143_deed_d8e0_98a0),
    ("autoscale", None, 0xfa78_89df_da15_84fa),
    ("telemetry", None, 0xc720_2f6f_8265_c53a),
    ("conformance", None, 0xa5f5_e564_2691_1b47),
    ("cache", None, 0xdbf3_b737_edbc_36b4),
    ("storage", None, 0x5ad9_25bd_5688_ebe0),
    ("dispatch", None, 0x43d5_f00a_4acf_bdf1),
];

#[test]
fn every_scenario_replays_its_pinned_digest() {
    assert_eq!(
        SCENARIOS.map(|(name, _)| name),
        PINNED.map(|(name, _, _)| name),
        "a scenario was added or removed without pinning its digest"
    );
    for (name, kill_at, want) in PINNED {
        let run = session::find(name).expect("scenario in the table");
        let got = run(&Args {
            kill_at,
            ..Args::default()
        });
        assert_eq!(
            got, want,
            "scenario {name}: digest {got:016x}, pinned {want:016x}"
        );
    }
}

#[test]
fn mutation_battery_catches_every_case() {
    assert_eq!(session::conformance::mutate(&Args::default()), (12, 12));
}
