//! `exp_kernels` rejects bad arguments with one `exp_kernels: …` line on
//! stderr and exit status 2, before it times anything.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_exp_kernels"))
        .args(args)
        .env_remove("TCE_KERNEL")
        .output()
        .expect("spawn exp_kernels");
    (out.status.code(), String::from_utf8(out.stderr).unwrap())
}

#[test]
fn bad_arguments_are_one_line_errors() {
    for args in [
        &["--help"][..],
        &["--max-threads"],
        &["--max-threads", "x"],
        &["--max-threads", "0"],
        &["--out"],
        &["--trace"],
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.starts_with("exp_kernels: "), "{args:?}: {stderr}");
    }
}
