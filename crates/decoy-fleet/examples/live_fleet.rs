//! Run the honeypot fleet as a real deployment: bind actual ports on a
//! chosen interface and log everything that connects, exporting the dataset
//! as JSON lines on shutdown (the Appendix B artifact format).
//!
//! This is the binary a downstream user would actually deploy. By default
//! it binds high loopback ports so it runs unprivileged; pass an interface
//! address and `--standard-ports` to expose the real DBMS ports (requires
//! the ports to be free and, below 1024, privileges).
//!
//! Run: `cargo run --manifest-path net/Cargo.toml --example live_fleet [bind-ip]
//! [--standard-ports]`
//! Stop with Ctrl-C; the dataset is written to `decoy-dataset.jsonl`.

use decoy_base::time::Clock;
use decoy_fleet::deploy::{spawn, HoneypotSpec};
use decoy_store::{ConfigVariant, Dbms, EventStore, HoneypotId, InteractionLevel};
use std::net::SocketAddr;

#[tokio::main]
async fn main() -> std::io::Result<()> {
    let mut args = std::env::args().skip(1);
    let bind_ip = args.next().unwrap_or_else(|| "127.0.0.1".to_string());
    let standard_ports = args.next().as_deref() == Some("--standard-ports");

    let store = EventStore::new();
    let clock = Clock::Wall; // live deployment: real time
    let fleet = [
        (
            Dbms::MySql,
            InteractionLevel::Low,
            ConfigVariant::MultiService,
        ),
        (
            Dbms::Postgres,
            InteractionLevel::Low,
            ConfigVariant::MultiService,
        ),
        (
            Dbms::Mssql,
            InteractionLevel::Low,
            ConfigVariant::MultiService,
        ),
        (
            Dbms::Redis,
            InteractionLevel::Medium,
            ConfigVariant::FakeData,
        ),
        (
            Dbms::Elastic,
            InteractionLevel::Medium,
            ConfigVariant::Default,
        ),
        (
            Dbms::MongoDb,
            InteractionLevel::High,
            ConfigVariant::FakeData,
        ),
        // coverage extension beyond the paper's Table 4 (§7 future work)
        (
            Dbms::CouchDb,
            InteractionLevel::Medium,
            ConfigVariant::FakeData,
        ),
    ];

    let mut running = Vec::new();
    for (dbms, level, config) in fleet {
        let port = if standard_ports {
            dbms.port()
        } else {
            20_000 + dbms.port() % 10_000
        };
        let bind: SocketAddr = format!("{bind_ip}:{port}")
            .parse()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("{e}")))?;
        let id = HoneypotId::new(dbms, level, config, 0);
        let spec = HoneypotSpec {
            id,
            bind,
            clock: clock.clone(),
            seed: 0xD3C0,
        };
        match spawn(store.clone(), spec).await {
            Ok(hp) => {
                println!(
                    "{:<11} {:?}-interaction listening on {}",
                    dbms.label(),
                    level,
                    hp.addr()
                );
                running.push(hp);
            }
            Err(e) => eprintln!("{:<11} failed to bind {bind}: {e}", dbms.label()),
        }
    }
    if running.is_empty() {
        eprintln!("nothing bound; exiting");
        return Ok(());
    }
    println!("\nfleet is live — Ctrl-C to stop and export the dataset\n");

    tokio::signal::ctrl_c().await?;
    println!("\nshutting down {} honeypots...", running.len());
    for hp in running {
        hp.shutdown().await;
    }
    let path = "decoy-dataset.jsonl";
    std::fs::write(path, store.to_json_lines())?;
    println!("{} events exported to {path}", store.len());
    Ok(())
}
