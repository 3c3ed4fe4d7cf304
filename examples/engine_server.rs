//! Serving releases: boot the hcc-engine worker pool, expose it over
//! loopback TCP, and drive it with the bundled framed client — the
//! same wire round-trip `hcc serve` / `hcc submit` perform.
//!
//! ```sh
//! cargo run --example engine_server
//! ```

use std::sync::Arc;

use hccount::engine::{protocol::SubmitParams, serve, Engine, EngineConfig, MuxClient};

fn main() -> std::io::Result<()> {
    // A tiny two-state census: the tables a client would read from
    // disk (`hcc generate` writes the same three files).
    let hierarchy_csv = "region,parent\ncountry,\nVA,country\nMD,country\n";
    let groups_csv = "group_id,region_name\ng0,VA\ng1,VA\ng2,VA\ng3,MD\ng4,MD\n";
    let entities_csv = "entity_id,group_id\n\
        e0,g0\ne1,g1\ne2,g1\ne3,g2\ne4,g2\ne5,g2\ne6,g2\n\
        e7,g3\ne8,g4\ne9,g4\ne10,g4\n";

    // Server side: a 2-worker engine behind an ephemeral loopback port.
    let engine = Engine::start(EngineConfig::default().with_workers(2));
    let server = serve(Arc::new(engine), "127.0.0.1:0")?;
    println!("engine listening on {}", server.addr());

    // Client side: submit and block for the release.
    let mut client = MuxClient::connect(server.addr())?;
    let params = SubmitParams {
        epsilon: 1.0,
        method: "hc".into(),
        bound: 100,
        seed: 7,
        handle: None,
    };
    let release = client
        .submit_release(&params, hierarchy_csv, groups_csv, entities_csv)?
        .expect("release succeeded");
    println!("released CSV:\n{}", release.csv);

    // ε-sweep workflow: load the tables once into the prepared
    // registry, then sweep a budget grid over the handle — the server
    // never re-parses the tables, and every point is pipelined on the
    // one connection.
    let handle = client
        .prepare(hierarchy_csv, groups_csv, entities_csv)?
        .expect("tables accepted");
    println!("prepared {handle}");
    for point in client.sweep(&params, handle, &[0.5, 1.0, 2.0])? {
        let r = point.outcome.expect("sweep point succeeded");
        println!(
            "eps={}: {} rows ({})",
            point.epsilon,
            r.csv.lines().count().saturating_sub(1),
            if r.from_cache {
                "cache hit"
            } else {
                "computed"
            }
        );
    }
    client.unprepare(handle)?.expect("handle released");

    // The same request again — served bit-identically from the cache.
    let cached = client
        .submit_release(&params, hierarchy_csv, groups_csv, entities_csv)?
        .expect("release succeeded");
    assert_eq!(cached.csv, release.csv);
    // The engine's counters, read from the METRICS exposition.
    let metrics = client.metrics()?;
    let counters: Vec<&str> = metrics
        .lines()
        .filter(|l| l.starts_with("hcc_jobs_submitted_total ") || l.starts_with("hcc_cache_"))
        .collect();
    println!(
        "repeat request was a cache {} — {}",
        if cached.from_cache { "hit" } else { "miss" },
        counters.join(", ")
    );

    client.quit()?;
    server.shutdown();
    Ok(())
}
