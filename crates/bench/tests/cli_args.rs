//! Flag parsing: `--scale` and `--iters` take a positive `u32`: zero, a
//! value that would wrap, and a non-number are usage errors (exit 2),
//! never a silently different run; an unknown flag exits 2 too.

use std::process::Command;

#[test]
fn scale_and_iters_reject_zero_wrapping_and_non_numbers() {
    for (flag, value) in [
        ("--scale", "0"),
        ("--scale", "4294967297"),
        ("--scale", "eight"),
        ("--iters", "0"),
        ("--iters", "-1"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_table2"))
            .args([flag, value])
            .output()
            .expect("spawn table2");
        assert_eq!(out.status.code(), Some(2), "table2 {flag} {value}");
        assert!(
            out.stdout.is_empty(),
            "table2 {flag} {value} printed a table"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "table2 {flag} {value}: {stderr}");
    }
}

/// The stall watchdog's threshold is the fixed
/// `events::DEFAULT_STALL_FACTOR`; `--stall-factor` is not a flag.
#[test]
fn stall_factor_is_an_unknown_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_table2"))
        .args(["--stall-factor", "8"])
        .output()
        .expect("spawn table2");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "table2 --stall-factor printed a table"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag --stall-factor"),
        "table2 --stall-factor 8: {stderr}"
    );
}
