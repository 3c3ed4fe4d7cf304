//! Emits the wire-path scoreboard — pipelined-sweep wall time plus
//! submit-latency quantiles under concurrency — in the
//! `<label> <ns> ns/iter` format `scripts/bench.sh` parses into
//! BENCH_N.json.
//!
//! Labels:
//!
//! * `wire_path/sweep<N>/framed` — N-point ε sweep pipelined over the
//!   framed protocol against the reactor;
//! * `wire_path/submit_{p50,p95,p99}/c<C>` — per-submit latency
//!   quantiles at `C` concurrent framed connections;
//! * `wire_path/submit_per_op/c<C>` — burst wall time / submits (the
//!   inverse of submits/sec) at `C` connections.
//!
//! Knobs (environment):
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `HCC_WIRE_SCALE` | housing dataset scale | `2e-6` |
//! | `HCC_WIRE_BOUND` | public size bound `K` | `500` |
//! | `HCC_WIRE_SWEEP` | sweep grid points | `100` |
//! | `HCC_WIRE_CONNS` | comma-separated connection counts | `1,64,1000` |
//! | `HCC_WIRE_OPS` | submits per connection | `4` |

#![forbid(unsafe_code)]

use hcc_bench::wire::WireWorkload;

fn env_or<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let scale: f64 = env_or("HCC_WIRE_SCALE", 2e-6);
    let bound: u64 = env_or("HCC_WIRE_BOUND", 500);
    let sweep: usize = env_or("HCC_WIRE_SWEEP", 100);
    let ops: usize = env_or("HCC_WIRE_OPS", 4);
    let conns: Vec<usize> = std::env::var("HCC_WIRE_CONNS")
        .unwrap_or_else(|_| "1,64,1000".into())
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .collect();

    let workload = WireWorkload::census(scale, bound);

    let framed = workload.sweep_framed(sweep);
    println!(
        "wire_path/sweep{sweep}/framed {} ns/iter",
        framed.as_nanos()
    );

    for &c in &conns {
        let profile = workload.submit_profile(c, ops);
        for (name, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
            println!(
                "wire_path/submit_{name}/c{c} {} ns/iter",
                profile.quantile(q).as_nanos()
            );
        }
        println!(
            "wire_path/submit_per_op/c{c} {} ns/iter",
            profile.per_op().as_nanos()
        );
        eprintln!(
            "# c{c}: {} submits in {:?} ({:.0} submits/sec)",
            profile.ops,
            profile.wall,
            profile.ops as f64 / profile.wall.as_secs_f64().max(f64::EPSILON)
        );
    }
}
