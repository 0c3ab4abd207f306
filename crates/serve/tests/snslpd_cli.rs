//! The `snslpd` command line: its four tuning flags, and the usage-error
//! exit code 2 for anything else.

use std::io::Write;
use std::process::{Command, Output, Stdio};

use snslp_serve::proto::Request;
use snslp_serve::{Reply, STATUS_OK};

/// Runs `snslpd` with `args`, feeding `stdin` and closing it.
fn snslpd(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_snslpd"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("snslpd starts");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    child.wait_with_output().expect("snslpd exits")
}

#[test]
fn stdio_answers_a_request_and_exits_0_at_eof() {
    // With one idle worker at EOF, the exit also covers shutdown's
    // wake-up of a worker blocked on the empty queue.
    let out = snslpd(
        &["--stdio", "--workers", "1"],
        &format!("{}\n", Request::render_stats(7)),
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 reply");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1, "one reply per request: {stdout}");
    let reply = Reply::parse(lines[0]).expect("parse reply");
    assert_eq!(reply.id, 7);
    assert_eq!(reply.status, STATUS_OK);
}

#[test]
fn removed_and_invalid_flags_exit_2() {
    let cases: [&[&str]; 5] = [
        &["--stdio", "--shards", "2"],
        &["--stdio", "--queue-depth", "8"],
        &["--stdio", "--batch-max", "4"],
        &["--stdio", "--threads", "2"],
        &["--stdio", "--workers", "0"],
    ];
    for args in cases {
        let out = snslpd(args, "");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} must be a usage error; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: snslpd"),
            "{args:?} must print the usage text"
        );
    }
}
