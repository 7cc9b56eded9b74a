//! Experiment configs must survive a JSON round trip, so a run can be
//! stored next to its results and replayed.

use alc_tpsim::config::{ControlConfig, SystemConfig};

#[test]
fn system_config_round_trips_through_json() {
    let sys = SystemConfig {
        terminals: 40,
        cpus: 4,
        db_size: 300,
        think: alc_des::dist::Dist::exponential(300.0),
        disk_access: alc_des::dist::Dist::constant(3.0),
        disk_init_commit: alc_des::dist::Dist::constant(40.0),
        seed: 0x5EED,
        ..SystemConfig::default()
    };
    let json = serde_json::to_string_pretty(&sys).expect("serialize");
    let back: SystemConfig = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back, sys);

    let ctl = ControlConfig::default();
    let back: ControlConfig =
        serde_json::from_str(&serde_json::to_string(&ctl).expect("serialize")).expect("parse");
    assert_eq!(back, ctl);
}

/// A misspelt field used to leave a `missing field` error at best; next
/// to a full config it was skipped and the run kept the spelt one.
#[test]
fn a_misspelt_system_config_field_is_an_error_naming_it() {
    let json = serde_json::to_string(&SystemConfig::default()).expect("serialize");
    let bad = json.replacen("{", "{\"terminal\":40,", 1);
    let err = serde_json::from_str::<SystemConfig>(&bad).expect_err("stray `terminal`");
    let msg = err.to_string();
    assert!(
        msg.contains("SystemConfig") && msg.contains("`terminal`"),
        "{msg}"
    );
}
