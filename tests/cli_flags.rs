//! The `albatross` CLI rejects out-of-range and malformed flags with exit
//! code 2 and a reason, instead of panicking inside the model or hanging.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A rejected flag must exit well within this budget.
const DEADLINE: Duration = Duration::from_secs(1);

#[test]
fn bad_flags_exit_2_promptly_without_panicking() {
    let cases: &[&[&str]] = &[
        &["--cores", "0"],
        &["--cores", "300"],
        &["--flows", "0"],
        &["--pps", "0"],
        // 1e9 / pps truncates to a zero packet interval: the run never ends.
        &["--pps", "2000000000"],
        &["--pkt-bytes", "0"],
        &["--ratelimit", "0"],
        &["--acl-drop-mod", "0"],
        // Parse errors share the exit code.
        &["--cores", "many"],
    ];
    for flags in cases {
        let mut child = Command::new(env!("CARGO_BIN_EXE_albatross"))
            .arg("run")
            .args(*flags)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn the albatross binary");
        let start = Instant::now();
        let status = loop {
            if let Some(status) = child.try_wait().expect("poll the child") {
                break status;
            }
            if start.elapsed() > DEADLINE {
                let _ = child.kill();
                let _ = child.wait();
                panic!("{flags:?}: still running after {DEADLINE:?}");
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let mut stderr = String::new();
        child
            .stderr
            .take()
            .expect("stderr is piped")
            .read_to_string(&mut stderr)
            .expect("read stderr");
        assert!(
            !stderr.contains("panicked"),
            "{flags:?} panicked:\n{stderr}"
        );
        assert_eq!(status.code(), Some(2), "{flags:?}: {status}\n{stderr}");
        assert!(
            stderr.starts_with("error: "),
            "{flags:?}: no reason:\n{stderr}"
        );
    }
}
