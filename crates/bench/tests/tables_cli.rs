//! The `tables` binary must refuse table ids it does not know instead
//! of printing only its header and exiting 0.

use std::process::Command;

#[test]
fn unknown_table_id_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .arg("zz")
        .output()
        .expect("run tables");
    assert!(!out.status.success(), "tables zz exited {}", out.status);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "printed before rejecting its arguments"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("`zz`") && stderr.contains("t1") && stderr.contains("d5"),
        "stderr does not name the bad id and list the valid ones: {stderr}"
    );
}
