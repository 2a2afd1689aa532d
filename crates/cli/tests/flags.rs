//! Command-line flags of the `pmv-cli` binary.

use std::process::Command;

/// `--snapshot-mode` chose between two view types; there is one now. In
/// every spelling it is a usage error (exit code 2) that says so.
#[test]
fn snapshot_mode_flag_is_a_usage_error_naming_its_removal() {
    for args in [
        &["--snapshot-mode=epoch"][..],
        &["--snapshot-mode=locked"],
        &["--snapshot-mode"],
        &["--snapshot-mode", "epoch"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pmv-cli"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("--snapshot-mode was removed"),
            "{args:?}: {err}"
        );
    }
}
