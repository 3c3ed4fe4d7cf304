//! End-to-end tests of the `hcc` command-line tool, driving the real
//! binary through generate → release → stats → evaluate.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn hcc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hcc"))
}

/// Runs a command that must exit on its own, killing it and failing
/// the test if it still runs after 30 s: a `serve` that should have
/// refused its options would otherwise serve forever.
fn output_exiting(cmd: &mut Command) -> Output {
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().unwrap().is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let out = child.wait_with_output().unwrap();
            panic!(
                "still running after 30 s; stdout: {}",
                String::from_utf8_lossy(&out.stdout)
            );
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().unwrap()
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hcc_cli_tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_pipeline_generate_release_stats_evaluate() {
    let dir = tmp_dir("pipeline");
    let out = hcc()
        .args([
            "generate", "--kind", "taxi", "--scale", "0.002", "--seed", "3",
        ])
        .args(["--out-dir", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for f in ["hierarchy.csv", "groups.csv", "entities.csv"] {
        assert!(dir.join(f).exists(), "missing {f}");
    }

    let release = dir.join("release.csv");
    let out = hcc()
        .args(["release"])
        .args(["--hierarchy", dir.join("hierarchy.csv").to_str().unwrap()])
        .args(["--groups", dir.join("groups.csv").to_str().unwrap()])
        .args(["--entities", dir.join("entities.csv").to_str().unwrap()])
        .args(["--epsilon", "2.0", "--method", "hc", "--bound", "50000"])
        .args(["--out", release.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let content = std::fs::read_to_string(&release).unwrap();
    assert!(content.starts_with("region,level,size,count"));

    let out = hcc()
        .args(["stats"])
        .args(["--hierarchy", dir.join("hierarchy.csv").to_str().unwrap()])
        .args(["--release", release.to_str().unwrap()])
        .args(["--region", "manhattan"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("manhattan"), "stats output: {text}");

    // Self-evaluation: EMD of a release against itself is zero.
    let out = hcc()
        .args(["evaluate"])
        .args(["--hierarchy", dir.join("hierarchy.csv").to_str().unwrap()])
        .args(["--release", release.to_str().unwrap()])
        .args(["--truth", release.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for line in text.lines().skip(1) {
        let avg: f64 = line.split_whitespace().last().unwrap().parse().unwrap();
        assert_eq!(avg, 0.0, "self-EMD must be zero: {line}");
    }
}

#[test]
fn deterministic_given_seed() {
    let dir = tmp_dir("determinism");
    for name in ["a.csv", "b.csv"] {
        let out = hcc()
            .args([
                "generate", "--kind", "housing", "--scale", "0.001", "--seed", "9",
            ])
            .args(["--out-dir", dir.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success());
        let out = hcc()
            .args(["release"])
            .args(["--hierarchy", dir.join("hierarchy.csv").to_str().unwrap()])
            .args(["--groups", dir.join("groups.csv").to_str().unwrap()])
            .args(["--entities", dir.join("entities.csv").to_str().unwrap()])
            .args(["--epsilon", "1.0", "--seed", "77"])
            .args(["--out", dir.join(name).to_str().unwrap()])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let a = std::fs::read_to_string(dir.join("a.csv")).unwrap();
    let b = std::fs::read_to_string(dir.join("b.csv")).unwrap();
    assert_eq!(a, b, "same seed must give identical releases");
}

/// Boots `hcc serve` on an ephemeral loopback port, submits a release
/// with `hcc submit`, and checks the bytes match a direct
/// `hcc release` run with the same seed.
#[test]
fn serve_and_submit_roundtrip() {
    use std::io::BufRead;

    let dir = tmp_dir("serve");
    let out = hcc()
        .args([
            "generate", "--kind", "housing", "--scale", "0.001", "--seed", "4",
        ])
        .args(["--out-dir", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    let mut server = hcc()
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    // The first stdout line announces the actual address.
    let mut banner = String::new();
    std::io::BufReader::new(server.stdout.as_mut().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let addr = banner
        .split_whitespace()
        .find(|w| w.starts_with("127.0.0.1:"))
        .unwrap_or_else(|| panic!("no address in banner {banner:?}"))
        .to_string();

    let direct = dir.join("direct.csv");
    let served = dir.join("served.csv");
    let common = |cmd: &str| {
        let mut c = hcc();
        c.args([cmd]);
        c.args(["--hierarchy", dir.join("hierarchy.csv").to_str().unwrap()]);
        c.args(["--groups", dir.join("groups.csv").to_str().unwrap()]);
        c.args(["--entities", dir.join("entities.csv").to_str().unwrap()]);
        c.args(["--epsilon", "1.5", "--method", "hc", "--bound", "2000"]);
        c.args(["--seed", "11"]);
        c
    };
    let out = common("release")
        .args(["--out", direct.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = common("submit")
        .args(["--addr", &addr])
        .args(["--out", served.to_str().unwrap()])
        .output()
        .unwrap();
    let _ = server.kill();
    let _ = server.wait();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("rows"));
    assert_eq!(
        std::fs::read_to_string(&direct).unwrap(),
        std::fs::read_to_string(&served).unwrap(),
        "served release must be byte-identical to the direct one"
    );
}

/// `hcc stats --watch N` samples on a fresh connection each time, so a
/// watch period longer than the server's read timeout keeps printing
/// instead of dying on a connection the idle sweep closed. `hcc trace`
/// works against the same server.
#[test]
fn stats_watch_outlives_the_read_timeout() {
    use std::io::BufRead;
    use std::time::Duration;

    let mut server = hcc()
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "1"])
        .args(["--read-timeout", "1"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut banner = String::new();
    std::io::BufReader::new(server.stdout.as_mut().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let addr = banner
        .split_whitespace()
        .find(|w| w.starts_with("127.0.0.1:"))
        .unwrap_or_else(|| panic!("no address in banner {banner:?}"))
        .to_string();

    let out = hcc().args(["trace", "--addr", &addr]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("traceEvents"));

    let mut watch = hcc()
        .args(["stats", "--addr", &addr, "--watch", "3"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    // Lines arrive on a channel so a stuck or dead watcher fails the
    // test instead of hanging it.
    let (tx, rx) = std::sync::mpsc::channel();
    let stdout = watch.stdout.take().unwrap();
    std::thread::spawn(move || {
        for line in std::io::BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let mut summaries = 0;
    while summaries < 2 {
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(line) => summaries += usize::from(line.starts_with("jobs ")),
            Err(_) => break,
        }
    }
    let _ = watch.kill();
    let status = watch.wait().unwrap();
    let mut stderr = String::new();
    let _ = std::io::Read::read_to_string(&mut watch.stderr.take().unwrap(), &mut stderr);
    let _ = server.kill();
    let _ = server.wait();
    assert_eq!(
        summaries, 2,
        "watch stopped after {summaries} summary(ies) ({status}): {stderr}"
    );
}

/// Boots `hcc serve`, loads the tables once with `hcc prepare`, runs
/// an ε grid with `hcc sweep` over the handle, and checks every sweep
/// point is byte-identical to a direct `hcc release` with the same
/// seed and ε.
#[test]
fn prepare_and_sweep_roundtrip() {
    use std::io::BufRead;

    let dir = tmp_dir("sweep");
    let out = hcc()
        .args([
            "generate", "--kind", "housing", "--scale", "0.001", "--seed", "8",
        ])
        .args(["--out-dir", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    let mut server = hcc()
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut banner = String::new();
    std::io::BufReader::new(server.stdout.as_mut().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let addr = banner
        .split_whitespace()
        .find(|w| w.starts_with("127.0.0.1:"))
        .unwrap_or_else(|| panic!("no address in banner {banner:?}"))
        .to_string();

    let tables = |c: &mut Command| {
        c.args(["--hierarchy", dir.join("hierarchy.csv").to_str().unwrap()]);
        c.args(["--groups", dir.join("groups.csv").to_str().unwrap()]);
        c.args(["--entities", dir.join("entities.csv").to_str().unwrap()]);
    };

    // PREPARE once; the handle is printed and content-addressed.
    let mut c = hcc();
    c.args(["prepare", "--addr", &addr]);
    tables(&mut c);
    let out = c.output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let handle = stdout
        .split_whitespace()
        .find(|w| w.starts_with("ds-"))
        .unwrap_or_else(|| panic!("no handle in {stdout:?}"))
        .to_string();

    // Sweep the ε grid over the handle on one connection.
    let sweep_dir = dir.join("sweeps");
    let out = hcc()
        .args(["sweep", "--addr", &addr, "--handle", &handle])
        .args(["--eps", "0.5,1.5", "--seed", "11", "--bound", "2000"])
        .args(["--out-dir", sweep_dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("eps=0.5"), "{stdout}");
    assert!(stdout.contains("eps=1.5"), "{stdout}");

    // Every sweep point must equal a direct release at that ε.
    for eps in ["0.5", "1.5"] {
        let direct = dir.join(format!("direct-{eps}.csv"));
        let mut c = hcc();
        c.args(["release"]);
        tables(&mut c);
        let out = c
            .args(["--epsilon", eps, "--seed", "11", "--bound", "2000"])
            .args(["--out", direct.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            std::fs::read_to_string(sweep_dir.join(format!("release-eps-{eps}.csv"))).unwrap(),
            std::fs::read_to_string(&direct).unwrap(),
            "sweep at eps={eps} must be byte-identical to a direct release"
        );
    }

    // UNPREPARE drops the reference.
    let out = hcc()
        .args(["unprepare", "--addr", &addr, "--handle", &handle])
        .output()
        .unwrap();
    let _ = server.kill();
    let _ = server.wait();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("0 references remain"));
}

/// Boots `hcc serve`, prepares the tables, then moves the dataset
/// forward with `hcc derive`: the derived handle is printed, deriving
/// the same delta twice returns the same handle (fingerprint
/// chaining), and `--append` reports the dropped parent reference.
#[test]
fn derive_roundtrip_over_the_cli() {
    use std::io::BufRead;

    let dir = tmp_dir("derive");
    let out = hcc()
        .args([
            "generate", "--kind", "housing", "--scale", "0.001", "--seed", "9",
        ])
        .args(["--out-dir", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    let mut server = hcc()
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut banner = String::new();
    std::io::BufReader::new(server.stdout.as_mut().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let addr = banner
        .split_whitespace()
        .find(|w| w.starts_with("127.0.0.1:"))
        .unwrap_or_else(|| panic!("no address in banner {banner:?}"))
        .to_string();

    let mut c = hcc();
    c.args(["prepare", "--addr", &addr]);
    c.args(["--hierarchy", dir.join("hierarchy.csv").to_str().unwrap()]);
    c.args(["--groups", dir.join("groups.csv").to_str().unwrap()]);
    c.args(["--entities", dir.join("entities.csv").to_str().unwrap()]);
    let out = c.output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let parent = stdout
        .split_whitespace()
        .find(|w| w.starts_with("ds-"))
        .unwrap_or_else(|| panic!("no handle in {stdout:?}"))
        .to_string();

    // A delta against a region that really exists (second line of the
    // groups table names one).
    let groups = std::fs::read_to_string(dir.join("groups.csv")).unwrap();
    let region = groups
        .lines()
        .nth(1)
        .and_then(|l| l.split(',').nth(1))
        .expect("groups table has a data row");
    let delta_path = dir.join("delta.csv");
    std::fs::write(
        &delta_path,
        format!("op,region,size,new_size,count\nadd,{region},4,,3\n"),
    )
    .unwrap();

    let derive = |extra: &[&str]| {
        let mut c = hcc();
        c.args(["derive", "--addr", &addr, "--handle", &parent]);
        c.args(["--delta", delta_path.to_str().unwrap()]);
        c.args(extra);
        let out = c.output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let first = derive(&[]);
    let derived = first
        .split_whitespace()
        .find(|w| w.starts_with("ds-"))
        .unwrap_or_else(|| panic!("no derived handle in {first:?}"))
        .to_string();
    assert_ne!(derived, parent);
    assert!(first.contains("1 delta op(s)"), "{first}");

    // Content addressing: the same delta derives the same handle.
    let second = derive(&[]);
    assert!(second.contains(&derived), "{second}");

    // APPEND drops one reference on the parent and says so.
    let appended = derive(&["--append"]);
    assert!(appended.contains("parent reference dropped"), "{appended}");

    let _ = server.kill();
    let _ = server.wait();
}

#[test]
fn helpful_errors() {
    // Unknown subcommand.
    let out = hcc().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));

    // Missing required option.
    let out = hcc().args(["release", "--epsilon", "1"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--hierarchy"));

    // Unknown dataset kind.
    let out = hcc()
        .args(["generate", "--kind", "nope", "--out-dir", "/tmp/x"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown dataset kind"));

    // Help exits zero and documents the server mode and env knobs.
    let out = hcc().args(["help"]).output().unwrap();
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout).to_string();
    for needle in ["usage", "serve", "submit", "--threads", "HCC_THREADS"] {
        assert!(help.contains(needle), "help is missing {needle:?}");
    }

    // CSV errors name the offending file.
    let dir = tmp_dir("errors");
    std::fs::write(dir.join("hierarchy.csv"), "region,parent\nroot,\nva,root\n").unwrap();
    std::fs::write(dir.join("groups.csv"), "g1,atlantis\n").unwrap();
    std::fs::write(dir.join("entities.csv"), "e1,g1\n").unwrap();
    let bad_release = |groups: &str| {
        hcc()
            .args(["release"])
            .args(["--hierarchy", dir.join("hierarchy.csv").to_str().unwrap()])
            .args(["--groups", groups])
            .args(["--entities", dir.join("entities.csv").to_str().unwrap()])
            .args([
                "--epsilon",
                "1",
                "--out",
                dir.join("r.csv").to_str().unwrap(),
            ])
            .output()
            .unwrap()
    };
    // Parse failure: unknown region, attributed to groups.csv.
    let out = bad_release(dir.join("groups.csv").to_str().unwrap());
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("groups.csv"), "stderr: {stderr}");
    assert!(stderr.contains("atlantis"), "stderr: {stderr}");
    // IO failure: missing file, path included.
    let out = bad_release(dir.join("nope.csv").to_str().unwrap());
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("nope.csv"), "stderr: {stderr}");

    // Out-of-range parameters get the checks `hcc serve` makes before
    // admission: exit 1 with one error line, never a worker panic or an
    // allocation abort, even over valid tables.
    std::fs::write(dir.join("good_groups.csv"), "g1,va\n").unwrap();
    let cases: [(&[&str], &str); 6] = [
        (
            &["--epsilon", "1", "--bound", "100000000000"],
            "outside 1..=",
        ),
        (&["--epsilon", "1", "--bound", "0"], "outside 1..="),
        (&["--epsilon", "0"], "positive and finite"),
        (&["--epsilon", "-1"], "positive and finite"),
        (&["--epsilon", "nan"], "positive and finite"),
        (&["--epsilon", "inf"], "positive and finite"),
    ];
    for (args, needle) in cases {
        let out = hcc()
            .args(["release"])
            .args(["--hierarchy", dir.join("hierarchy.csv").to_str().unwrap()])
            .args(["--groups", dir.join("good_groups.csv").to_str().unwrap()])
            .args(["--entities", dir.join("entities.csv").to_str().unwrap()])
            .args(["--out", dir.join("r.csv").to_str().unwrap()])
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}

/// A cap that a restart resets does not bound ε, so `--budget-cap`
/// without `--store` is refused before the server binds.
#[test]
fn serve_refuses_a_budget_cap_without_a_store() {
    let out = hcc()
        .args(["serve", "--addr", "127.0.0.1:0", "--budget-cap", "2.0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
    assert!(stderr.contains("--store"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "must refuse before binding");
}

/// Worker-count plumbing: `--threads`/`HCC_THREADS` size the one
/// engine-wide work-stealing pool. Zero is rejected everywhere, and
/// the removed per-job `--job-threads` knob is refused like any other
/// option `serve` does not read.
#[test]
fn thread_plumbing_rejects_zero_and_removed_job_threads() {
    // serve: a zero-sized pool can make no progress.
    let out = hcc()
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("at least 1"), "stderr: {stderr}");

    // serve: same via the environment fallback.
    let out = hcc()
        .args(["serve", "--addr", "127.0.0.1:0"])
        .env("HCC_THREADS", "0")
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("at least 1"), "stderr: {stderr}");

    // serve: --job-threads is gone (the engine runs ONE pool), so it
    // is an unknown option.
    let out = output_exiting(hcc().args(["serve", "--addr", "127.0.0.1:0", "--job-threads", "2"]));
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(
        stderr.contains("unknown option --job-threads"),
        "stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "must refuse before binding");

    // release: the estimator-parallelism knob rejects zero too (the
    // tables must parse first, so give it a minimal valid dataset).
    let dir = tmp_dir("zero_threads");
    std::fs::write(dir.join("hierarchy.csv"), "region,parent\nroot,\nva,root\n").unwrap();
    std::fs::write(dir.join("groups.csv"), "g1,va\n").unwrap();
    std::fs::write(dir.join("entities.csv"), "e1,g1\n").unwrap();
    let out = hcc()
        .args(["release"])
        .args(["--hierarchy", dir.join("hierarchy.csv").to_str().unwrap()])
        .args(["--groups", dir.join("groups.csv").to_str().unwrap()])
        .args(["--entities", dir.join("entities.csv").to_str().unwrap()])
        .args(["--epsilon", "1", "--threads", "0"])
        .args(["--out", dir.join("r.csv").to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("at least 1"), "stderr: {stderr}");
}

/// An option a subcommand does not read is refused with exit 2 and a
/// message naming it, before anything is bound or written: a typo
/// such as `--budget_cap` must not serve without the cap it meant.
#[test]
fn unknown_options_are_refused_before_anything_runs() {
    let out = output_exiting(
        hcc()
            .args(["serve", "--addr", "127.0.0.1:0", "--budget_cap", "0.5"])
            .args(["--treads", "64"]),
    );
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(
        stderr.contains("unknown option --budget_cap"),
        "stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "must refuse before binding");

    // release: over valid tables, a misspelt option writes nothing.
    let dir = tmp_dir("unknown_option");
    std::fs::write(dir.join("hierarchy.csv"), "region,parent\nroot,\nva,root\n").unwrap();
    std::fs::write(dir.join("groups.csv"), "g1,va\n").unwrap();
    std::fs::write(dir.join("entities.csv"), "e1,g1\n").unwrap();
    let release = |extra: &[&str]| {
        hcc()
            .args(["release"])
            .args(["--hierarchy", dir.join("hierarchy.csv").to_str().unwrap()])
            .args(["--groups", dir.join("groups.csv").to_str().unwrap()])
            .args(["--entities", dir.join("entities.csv").to_str().unwrap()])
            .args(["--epsilon", "1"])
            .args(["--out", dir.join("r.csv").to_str().unwrap()])
            .args(extra)
            .output()
            .unwrap()
    };
    let out = release(&["--treads", "4"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(
        stderr.contains("unknown option --treads"),
        "stderr: {stderr}"
    );
    assert!(out.stdout.is_empty());
    assert!(!dir.join("r.csv").exists(), "nothing may be written");
    // The same command without the typo runs.
    assert!(release(&["--threads", "4"]).status.success());
    assert!(dir.join("r.csv").exists());

    // An option another subcommand reads is still unknown here.
    let out = hcc()
        .args(["generate", "--kind", "taxi", "--addr", "127.0.0.1:0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option --addr"));
}

/// `stats` has two modes with disjoint options: with `--addr` it reads
/// a live server and refuses the file options before connecting;
/// without it, it reads files and refuses the server options.
#[test]
fn stats_modes_refuse_each_others_options() {
    // Nothing answers here: a run that connected would wait for a
    // handshake, and would leave a connection behind.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = ["stats", "--addr", addr.as_str()];
    let files = ["stats", "--hierarchy", "h.csv", "--release", "r.csv"];
    for (mode, args, refused) in [
        ("stats --addr", &server[..], &["--region", "x"][..]),
        ("stats --addr", &server, &["--hierarchy", "h.csv"]),
        ("stats --addr", &server, &["--release", "r.csv"]),
        ("stats", &files, &["--watch", "1"]),
        ("stats", &files, &["--raw"]),
        ("stats", &files, &["--no-retry"]),
    ] {
        let out = output_exiting(hcc().args(args).args(refused));
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        let named = format!("unknown option {} for `hcc {mode}`", refused[0]);
        assert!(stderr.contains(&named), "{stderr}");
    }
    assert!(
        matches!(listener.accept(), Err(e) if e.kind() == std::io::ErrorKind::WouldBlock),
        "no stats run may connect"
    );
}

/// The server's queue and lane sizes are what the banner prints, so a
/// zero is refused like `--threads 0` instead of being raised to 1
/// behind the banner's back.
#[test]
fn serve_refuses_zero_queue_and_lane_sizes() {
    for key in ["--queue", "--inflight", "--bulk-inflight", "--connections"] {
        let out = output_exiting(hcc().args(["serve", "--addr", "127.0.0.1:0", key, "0"]));
        assert_eq!(out.status.code(), Some(1), "{key}");
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(
            stderr.contains(&format!("{key} must be at least 1")),
            "{key}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{key}: must refuse before binding");
    }
}

/// `--threads` changes only the execution schedule, never the bytes.
#[test]
fn release_is_thread_count_invariant() {
    let dir = tmp_dir("threads");
    let out = hcc()
        .args([
            "generate", "--kind", "taxi", "--scale", "0.001", "--seed", "6",
        ])
        .args(["--out-dir", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let release = |name: &str, threads: &str| {
        let out = hcc()
            .args(["release"])
            .args(["--hierarchy", dir.join("hierarchy.csv").to_str().unwrap()])
            .args(["--groups", dir.join("groups.csv").to_str().unwrap()])
            .args(["--entities", dir.join("entities.csv").to_str().unwrap()])
            .args(["--epsilon", "1.0", "--seed", "3", "--threads", threads])
            .args(["--out", dir.join(name).to_str().unwrap()])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(dir.join(name)).unwrap()
    };
    assert_eq!(release("t1.csv", "1"), release("t4.csv", "4"));
}
