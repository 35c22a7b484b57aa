//! `profile_check` must refuse anything but exactly one path argument.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_profile_check"))
        .args(args)
        .output()
        .expect("profile_check runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_arguments_exit_2_with_the_usage_line() {
    for args in [
        &[][..],
        &["a.json", "b.json"],
        &["--json"],
        &["--json", "a.json"],
        &["a.json", "--quick"],
        &["-q"],
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: profile_check <profile.json>"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn one_unreadable_path_fails_on_the_file_not_the_usage() {
    let (code, stderr) = run(&["no/such/profile.json"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("cannot read no/such/profile.json"),
        "{stderr}"
    );
}
