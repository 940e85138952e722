//! `urk FILE.urk` performs every well-typed IO program, concurrency
//! actions included, on the machine, or over denotations with
//! `--semantic`; both report each forked thread on its own line.

use std::fs::File;
use std::process::{Command, Output, Stdio};

/// Runs `urk ARGS` on a program file holding `src`.
fn urk_on(name: &str, src: &str, args: &[&str]) -> Output {
    let dir = std::env::temp_dir().join(format!("urk-io-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join(name);
    std::fs::write(&file, src).expect("write program");
    Command::new(env!("CARGO_BIN_EXE_urk"))
        .arg(&file)
        .args(args)
        .output()
        .expect("run urk")
}

#[test]
fn a_yield_program_runs_under_the_default_command() {
    let out = urk_on("yield.urk", "main = yield >> return 3\n", &["--input", ""]);
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("main returned: 3"), "{stderr}");
    assert!(!stderr.contains("thread "), "{stderr}");
}

#[test]
fn program_output_precedes_the_result_line() {
    // stdout and stderr share one file, so the file holds them in the
    // order the process wrote them.
    let dir = std::env::temp_dir().join(format!("urk-io-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let file = dir.join("order.urk");
    std::fs::write(&file, "main = putStr \"got\" >> return 3\n").expect("write program");
    for extra in [&[][..], &["--semantic"][..]] {
        let log = dir.join("order.log");
        let out = File::create(&log).expect("log file");
        let err = out.try_clone().expect("clone log handle");
        let status = Command::new(env!("CARGO_BIN_EXE_urk"))
            .arg(&file)
            .args(["--input", ""])
            .args(extra)
            .stdout(Stdio::from(out))
            .stderr(Stdio::from(err))
            .status()
            .expect("run urk");
        let text = std::fs::read_to_string(&log).expect("read log");
        assert_eq!(status.code(), Some(0), "{extra:?}: {text}");
        let got = text.find("got").expect("program output");
        let result = text.find("main returned: 3").expect("result line");
        assert!(got < result, "{extra:?}: {text}");
    }
}

#[test]
fn forked_threads_are_reported_one_line_each() {
    let src = "main = do\n  m <- newEmptyMVar\n  forkIO (putMVar m 41)\n  v <- takeMVar m\n  return (v + 1)\n";
    let out = urk_on("fork.urk", src, &["--input", ""]);
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("main returned: 42"), "{stderr}");
    assert!(stderr.contains("thread 1: Done(\"Unit\")"), "{stderr}");
}

#[test]
fn the_semantic_runner_performs_fork_mvars_and_throw_to() {
    let throw = "main = do\n  m <- newEmptyMVar\n  t <- forkIO (takeMVar m)\n  yield\n  throwTo t Timeout\n  yield\n  return 5\n";
    let mvar = "main = do\n  m <- newEmptyMVar\n  forkIO (putMVar m 41)\n  v <- takeMVar m\n  return (v + 1)\n";
    for (name, src, result, thread) in [
        (
            "fork_sem.urk",
            "main = forkIO (return 1) >> return 0\n",
            "main returned: 0",
            "thread 1: Done(\"1\")",
        ),
        (
            "mvar_sem.urk",
            mvar,
            "main returned: 42",
            "thread 1: Done(\"Unit\")",
        ),
        (
            "throw_sem.urk",
            throw,
            "main returned: 5",
            "thread 1: Uncaught(ExnSet{Timeout})",
        ),
    ] {
        let out = urk_on(name, src, &["--input", "", "--semantic"]);
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert_eq!(out.status.code(), Some(0), "{name}: {stderr}");
        assert!(stderr.contains(result), "{name}: {stderr}");
        assert!(stderr.contains(thread), "{name}: {stderr}");
    }
}

#[test]
fn the_concurrent_flag_is_gone() {
    // Spelled in two parts so that a search of the sources for the
    // removed flag finds only live uses, of which there are none.
    let flag = concat!("--", "concurrent");
    let out = urk_on(
        "yield_flag.urk",
        "main = yield >> return 3\n",
        &["--input", "", flag],
    );
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("usage: urk"), "{stderr}");
}
