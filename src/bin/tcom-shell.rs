//! `tcom-shell` — an interactive TQL shell over a tcom database.
//!
//! ```text
//! cargo run --bin tcom-shell -- /path/to/db [--store chain|delta|split] [--compact [min-closed]]
//! cargo run --bin tcom-shell -- --connect host:port
//! ```
//!
//! The shell runs either *embedded* (against a local database directory)
//! or *connected* (against a running `tcom-server` over TCP); `.connect`
//! switches to a server mid-session and `.disconnect` switches back.
//!
//! Statements end with `;` and may span lines. Meta commands:
//!
//! ```text
//! .help                 this text
//! .connect host:port    attach to a tcom-server (statements go remote)
//! .disconnect           drop the server connection (back to local, if any)
//! .begin .commit .rollback   explicit transaction on the connection
//! .types                list atom types and attributes          (local)
//! .molecules            list molecule types                     (local)
//! .stats                storage + buffer statistics             (local)
//! .metrics              full metrics-registry exposition        (local)
//! .checkpoint           flush everything and roll the WAL       (local)
//! .now                  transaction-time clock (local or server)
//! .quit                 exit (clean shutdown checkpoint)
//! ```

use std::io::{BufRead, Write};
use std::sync::Arc;
use tcom::prelude::*;
use tcom_client::{Client, Response};
use tcom_query::{run_statement, StatementOutput};

/// Where statements execute: an embedded database, a server, or both (the
/// connection takes precedence while it exists).
struct Shell {
    db: Option<Arc<Database>>,
    remote: Option<Client>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path = args.first().filter(|a| !a.starts_with("--")).cloned();
    let connect = args
        .iter()
        .position(|a| a == "--connect")
        .and_then(|i| args.get(i + 1).cloned());
    if path.is_none() && connect.is_none() {
        eprintln!(
            "usage: tcom-shell <db-dir> [--store chain|delta|split]\n\
             \u{20}      tcom-shell <db-dir> --compact [min-closed]\n\
             \u{20}      tcom-shell --connect host:port"
        );
        std::process::exit(2);
    }
    let mut config = DbConfig::default();
    if let Some(i) = args.iter().position(|a| a == "--store") {
        config = config.store_kind(match args.get(i + 1).map(String::as_str) {
            Some("chain") => StoreKind::Chain,
            Some("delta") => StoreKind::Delta,
            Some("split") | None => StoreKind::Split,
            Some(other) => {
                eprintln!("unknown store kind '{other}'");
                std::process::exit(2);
            }
        });
    }
    if let Some(i) = args.iter().position(|a| a == "--compact") {
        config = config.compaction(true);
        // Optional threshold: how many closed versions a type accumulates
        // before the compactor tiers them into a segment.
        if let Some(n) = args.get(i + 1).and_then(|a| a.parse::<u64>().ok()) {
            config = config.compact_min_closed(n);
        }
    }
    let db = path.as_deref().map(|p| match Database::open(p, config) {
        Ok(db) => {
            println!(
                "tcom shell — {} (store: {}, clock: {})",
                p,
                db.config().store_kind,
                db.now()
            );
            Arc::new(db)
        }
        Err(e) => {
            eprintln!("cannot open {p}: {e}");
            std::process::exit(1);
        }
    });
    // Inert handle unless `--compact` turned the knob on; held for the
    // whole session so drop joins the thread before the database closes.
    let _compactor = db.as_ref().map(|db| Compactor::spawn(db.clone()));
    let remote = connect.as_deref().map(|addr| match Client::connect(addr) {
        Ok(c) => {
            println!("connected to {} ({})", addr, c.server_info());
            c
        }
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    });
    let mut shell = Shell { db, remote };
    println!("statements end with ';' — try .help");

    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            print!("tql> ");
        } else {
            print!("...> ");
        }
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('.') {
            if !meta_command(&mut shell, trimmed) {
                break;
            }
            continue;
        }
        buffer.push_str(&line);
        if !buffer.trim_end().ends_with(';') {
            continue;
        }
        let stmt = buffer.trim().trim_end_matches(';').to_owned();
        buffer.clear();
        if stmt.is_empty() {
            continue;
        }
        run_shell_statement(&mut shell, &stmt);
    }
    println!("bye");
}

/// Executes one statement through the connection when one exists, the
/// embedded database otherwise.
fn run_shell_statement(shell: &mut Shell, stmt: &str) {
    if let Some(client) = shell.remote.as_mut() {
        match client.query(stmt) {
            Ok(Response::Output(out)) => print_output(out),
            Ok(Response::Pending(ack)) => println!("buffered in open transaction: {ack:?}"),
            Err(e) => eprintln!("error: {e}"),
        }
        return;
    }
    match &shell.db {
        Some(db) => match run_statement(db, stmt) {
            Ok(out) => print_output(out),
            Err(e) => eprintln!("error: {e}"),
        },
        None => eprintln!("not connected and no local database — use .connect host:port"),
    }
}

/// Returns `false` to exit the shell.
fn meta_command(shell: &mut Shell, cmd: &str) -> bool {
    // Connection management and connection-aware commands first.
    if let Some(addr) = cmd.strip_prefix(".connect ") {
        match Client::connect(addr.trim()) {
            Ok(c) => {
                println!("connected to {} ({})", addr.trim(), c.server_info());
                shell.remote = Some(c);
            }
            Err(e) => eprintln!("cannot connect to {}: {e}", addr.trim()),
        }
        return true;
    }
    match cmd {
        ".disconnect" => {
            if shell.remote.take().is_some() {
                println!(
                    "disconnected{}",
                    if shell.db.is_some() {
                        " — statements run against the local database again"
                    } else {
                        ""
                    }
                );
            } else {
                eprintln!("not connected");
            }
            return true;
        }
        ".begin" | ".commit" | ".rollback" => {
            let Some(client) = shell.remote.as_mut() else {
                eprintln!("{cmd} needs a server connection (embedded DML auto-commits)");
                return true;
            };
            let r = match cmd {
                ".begin" => client.begin().map(|()| "transaction open".to_string()),
                ".commit" => client.commit().map(|tt| format!("committed at tt={tt}")),
                _ => client.rollback().map(|()| "rolled back".to_string()),
            };
            match r {
                Ok(msg) => println!("{msg}"),
                Err(e) => eprintln!("error: {e}"),
            }
            return true;
        }
        ".now" => {
            if let Some(client) = shell.remote.as_mut() {
                match client.ping() {
                    Ok(tt) => println!("{tt}"),
                    Err(e) => eprintln!("error: {e}"),
                }
                return true;
            }
        }
        _ => {}
    }
    let Some(db) = shell.db.as_ref() else {
        match cmd {
            ".quit" | ".exit" | ".q" => return false,
            ".help" => print_help(),
            other => {
                eprintln!("{other} needs a local database (only .connect/.now/.quit work remotely)")
            }
        }
        return true;
    };
    match cmd {
        ".quit" | ".exit" | ".q" => return false,
        ".help" => print_help(),
        ".types" => db.with_catalog(|c| {
            for t in c.atom_types() {
                println!("type {} (#{})", t.name, t.id.0);
                for (i, a) in t.attrs.iter().enumerate() {
                    println!(
                        "  {i}: {} {}{}{}",
                        a.name,
                        a.ty,
                        if a.not_null { " NOT NULL" } else { "" },
                        if a.indexed { " INDEXED" } else { "" },
                    );
                }
            }
        }),
        ".molecules" => db.with_catalog(|c| {
            for m in c.molecule_types() {
                let root = c
                    .atom_type(m.root)
                    .map(|t| t.name.clone())
                    .unwrap_or_default();
                println!("molecule {} (root {root}, {} edges)", m.name, m.edges.len());
            }
        }),
        ".stats" => {
            match db.all_type_stats() {
                Ok(stats) => {
                    for ts in stats {
                        let st = &ts.store;
                        println!(
                            "{} ({}): {} atoms, {} versions ({} open, {:.0}%), \
                             depth mean {:.1} max {}, {} pages ({} resident, {:.0}%), \
                             {} bytes, {} time-index entries, {} changes since snapshot",
                            ts.name,
                            ts.kind,
                            st.atoms,
                            st.versions,
                            st.open_versions,
                            ts.open_ratio() * 100.0,
                            ts.mean_depth(),
                            st.max_depth,
                            st.heap_pages,
                            ts.resident_pages,
                            ts.residency() * 100.0,
                            st.record_bytes,
                            st.time_entries,
                            ts.changes_since,
                        );
                    }
                }
                Err(e) => eprintln!("error: {e}"),
            }
            let b = db.buffer_stats();
            println!(
                "buffer: {} hits, {} misses, {} evictions; wal: {} bytes",
                b.hits,
                b.misses,
                b.evictions,
                db.wal_len()
            );
        }
        ".metrics" => print!("{}", db.metrics().render_text()),
        ".checkpoint" => match db.checkpoint() {
            Ok(()) => println!("checkpointed"),
            Err(e) => eprintln!("error: {e}"),
        },
        ".now" => println!("{}", db.now()),
        other => eprintln!("unknown command {other} — try .help"),
    }
    true
}

fn print_help() {
    println!(
        ".connect host:port .disconnect .begin .commit .rollback\n\
         .types .molecules .stats .metrics .checkpoint .now .quit\n\
         SELECT … | EXPLAIN ANALYZE SELECT … | CREATE TYPE … |\n\
         CREATE MOLECULE … | INSERT INTO … | UPDATE … SET … |\n\
         DELETE FROM … (end with ';')"
    );
}

fn print_output(out: StatementOutput) {
    match out {
        StatementOutput::Query(QueryOutput::Rows { columns, rows }) => {
            println!("{} | vt | tt", columns.join(" | "));
            for r in &rows {
                let vals: Vec<String> = r.values.iter().map(|v| v.to_string()).collect();
                println!("{} | {} | {}", vals.join(" | "), r.vt, r.tt);
            }
            println!(
                "({} row{})",
                rows.len(),
                if rows.len() == 1 { "" } else { "s" }
            );
        }
        StatementOutput::Query(QueryOutput::Molecules(ms)) => {
            for m in &ms {
                println!("molecule @{} ({} atoms):", m.root.id, m.size());
                print_mat_atom(&m.root, 1);
            }
            println!(
                "({} molecule{})",
                ms.len(),
                if ms.len() == 1 { "" } else { "s" }
            );
        }
        StatementOutput::Query(QueryOutput::Histories(hs)) => {
            for (atom, versions) in &hs {
                println!("{atom}:");
                for v in versions {
                    let vals: Vec<String> =
                        v.tuple.values().iter().map(|x| x.to_string()).collect();
                    println!("  vt={} tt={} [{}]", v.vt, v.tt, vals.join(", "));
                }
            }
            println!(
                "({} atom{})",
                hs.len(),
                if hs.len() == 1 { "" } else { "s" }
            );
        }
        StatementOutput::Query(QueryOutput::Aggregate { steps, integral }) => {
            println!("during | count | sum");
            for s in &steps {
                println!("{} | {} | {}", s.during, s.count, s.sum);
            }
            if let Some(i) = integral {
                println!("integral = {i}");
            }
            println!(
                "({} step{})",
                steps.len(),
                if steps.len() == 1 { "" } else { "s" }
            );
        }
        StatementOutput::Explain(report) => print!("{}", report.render()),
        StatementOutput::TypeCreated(id) => println!("type #{} created", id.0),
        StatementOutput::MoleculeCreated(id) => println!("molecule #{} created", id.0),
        StatementOutput::Inserted(atom, tt) => println!("inserted {atom} at tt={tt}"),
        StatementOutput::Modified(n, tt) => println!("{n} atom(s) modified at tt={tt}"),
    }
}

fn print_mat_atom(a: &MatAtom, indent: usize) {
    let pad = "  ".repeat(indent);
    let vals: Vec<String> = a
        .version
        .tuple
        .values()
        .iter()
        .map(|v| v.to_string())
        .collect();
    println!("{pad}{} [{}] vt={}", a.id, vals.join(", "), a.version.vt);
    for (_, kids) in &a.children {
        for k in kids {
            print_mat_atom(k, indent + 1);
        }
    }
}
