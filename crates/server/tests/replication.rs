//! Replication differential suite: a read replica following the leader's
//! WAL stream must expose *byte-identical* query results (via `{:?}`
//! renderings) at every transaction-time slice — against every
//! version-store layout, across disconnect/resume, and across a replica
//! crash + restart on scripted faults. This pins down the whole
//! replication path: WAL chunk shipping, follower replay order, clock
//! republication, index maintenance, and the persisted resume position.

use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};
use tcom_client::ReplicaFollower;
use tcom_core::{Database, DbConfig, FaultVfs, StoreKind, WalApplier};
use tcom_kernel::Error;
use tcom_query::{run_statement, StatementOutput};
use tcom_server::{Server, ServerConfig};

const KINDS: [StoreKind; 3] = [StoreKind::Chain, StoreKind::Delta, StoreKind::Split];

/// The ports the tests' servers bind. A test that frees its server's port
/// and binds it again holds this exclusively, and every other test that
/// starts a server shares it, so no `Server::start` on port 0 can take the
/// freed port in between and leave a follower streaming from another
/// test's database.
static PORTS: RwLock<()> = RwLock::new(());

/// Holds [`PORTS`] shared: for a test whose servers bind port 0 only.
fn binding() -> RwLockReadGuard<'static, ()> {
    PORTS.read().unwrap_or_else(PoisonError::into_inner)
}

/// Holds [`PORTS`] exclusively: for a test that rebinds a freed port.
fn rebinding() -> RwLockWriteGuard<'static, ()> {
    PORTS.write().unwrap_or_else(PoisonError::into_inner)
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("tcom-repl-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn cfg(kind: StoreKind) -> DbConfig {
    DbConfig::default()
        .store_kind(kind)
        .buffer_frames(256)
        .checkpoint_interval(0)
}

fn run(db: &Database, sql: &str) -> StatementOutput {
    run_statement(db, sql).unwrap_or_else(|e| panic!("statement failed: {sql}\n  {e}"))
}

/// The university DDL. DDL is not replicated, so the replica runs the
/// identical statements in the identical order before subscribing.
fn seed_ddl(db: &Database) {
    run(db, "CREATE TYPE proj (title TEXT NOT NULL, budget INT)");
    run(
        db,
        "CREATE TYPE emp (name TEXT NOT NULL, salary INT INDEXED, proj REF(proj))",
    );
    run(
        db,
        "CREATE TYPE dept (name TEXT NOT NULL, employs REFSET(emp))",
    );
    run(
        db,
        "CREATE MOLECULE dept_mol ROOT dept (dept.employs TO emp, emp.proj TO proj) DEPTH 4",
    );
}

/// Same university history as the network differential suite.
fn populate(db: &Database) {
    let mut projects = Vec::new();
    for (i, title) in ["alpha", "beta"].iter().enumerate() {
        let out = run(
            db,
            &format!(
                "INSERT INTO proj (title, budget) VALUES ('{title}', {})",
                (i as i64 + 1) * 1000
            ),
        );
        let StatementOutput::Inserted(id, _) = out else {
            panic!("expected Inserted, got {out:?}")
        };
        projects.push(id);
    }
    let mut emps = Vec::new();
    for (i, name) in ["ann", "bob", "carol", "dave", "erin", "frank"]
        .iter()
        .enumerate()
    {
        let p = projects[i % projects.len()];
        let out = run(
            db,
            &format!(
                "INSERT INTO emp (name, salary, proj) VALUES ('{name}', {}, @{}.{}) \
                 VALID IN [0, 100)",
                (i as i64 + 1) * 100,
                p.ty.0,
                p.no.0
            ),
        );
        let StatementOutput::Inserted(id, _) = out else {
            panic!("expected Inserted, got {out:?}")
        };
        emps.push(id);
    }
    for (dname, members) in [("research", &emps[..3]), ("sales", &emps[3..])] {
        let refs: Vec<String> = members
            .iter()
            .map(|id| format!("@{}.{}", id.ty.0, id.no.0))
            .collect();
        run(
            db,
            &format!(
                "INSERT INTO dept (name, employs) VALUES ('{dname}', {{{}}})",
                refs.join(", ")
            ),
        );
    }
    run(db, "UPDATE emp SET salary = 350 WHERE name = 'carol'");
    run(
        db,
        "UPDATE emp SET salary = 120 WHERE name = 'ann' VALID IN [10, 20)",
    );
    run(db, "DELETE FROM emp WHERE name = 'dave'");
    run(db, "UPDATE proj SET budget = 2500 WHERE title = 'beta'");
}

/// Current-state and temporal queries replayed on both sides; the `ASOF
/// TT` slices are additionally replayed at *every* transaction time.
const BATTERY: &[&str] = &[
    "SELECT * FROM emp",
    "SELECT name, salary FROM emp WHERE salary >= 200",
    "SELECT * FROM proj",
    "SELECT HISTORY FROM emp",
    "SELECT * FROM emp VALID IN [5, 30)",
    "SELECT MOLECULE FROM dept_mol VALID AT 10",
    "SELECT a.name, b.title FROM emp a JOIN proj b ON a.salary = b.budget",
    "SELECT COALESCE salary FROM emp WHERE salary >= 200 VALID IN [0, 50)",
    "SELECT COUNT(*) FROM emp",
    "SELECT SUM(salary) FROM emp VALID IN [0, 60)",
    "SELECT INTEGRAL(salary) FROM emp VALID IN [0, 80)",
];

/// Queries replayed per transaction-time slice (`{tt}` substituted).
const SLICED: &[&str] = &[
    "SELECT * FROM emp ASOF TT {tt}",
    "SELECT * FROM proj ASOF TT {tt}",
    "SELECT * FROM dept ASOF TT {tt}",
    "SELECT name, salary FROM emp WHERE salary >= 200 ASOF TT {tt}",
    "SELECT COUNT(*) FROM emp ASOF TT {tt} VALID IN [0, 30)",
];

/// Blocks until the replica's published clock reaches the leader's.
fn wait_sync(leader: &Database, replica: &Database, follower: &ReplicaFollower) {
    let target = leader.now();
    let deadline = Instant::now() + Duration::from_secs(10);
    while replica.now() < target {
        if let Some(e) = follower.last_error() {
            panic!("follower died while syncing: {e}");
        }
        assert!(
            Instant::now() < deadline,
            "replica stuck at tt {} chasing leader tt {}",
            replica.now(),
            target
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Asserts every battery statement and every `ASOF TT` slice renders
/// byte-identically on leader and replica, and that the replica's own
/// stores and value indexes agree (the apply routine maintains both).
fn assert_identical(leader: &Database, replica: &Database, context: &str) {
    let report = replica.verify_integrity().unwrap();
    assert!(report.is_ok(), "{context}: replica integrity: {report:?}");
    for sql in BATTERY {
        assert_eq!(
            format!("{:?}", run(leader, sql)),
            format!("{:?}", run(replica, sql)),
            "{context}: replica diverged on {sql}"
        );
    }
    for tt in 0..=leader.now().0 {
        for tpl in SLICED {
            let sql = tpl.replace("{tt}", &tt.to_string());
            assert_eq!(
                format!("{:?}", run(leader, &sql)),
                format!("{:?}", run(replica, &sql)),
                "{context}: replica diverged at tt {tt} on {sql}"
            );
        }
    }
}

/// Every store layout: populate the leader, stream to a freshly seeded
/// replica, and require byte-identical renderings at every tt slice. The
/// replica also rejects writes and reports its lag gauges.
#[test]
fn replica_matches_leader_at_every_tt_slice() {
    let _ports = binding();
    for kind in KINDS {
        let tag = format!("{kind:?}").to_lowercase();
        let ldir = tmpdir(&format!("lead-{tag}"));
        let rdir = tmpdir(&format!("repl-{tag}"));
        let leader = Arc::new(Database::open(&ldir, cfg(kind)).unwrap());
        seed_ddl(&leader);
        populate(&leader);
        let server =
            Server::start(leader.clone(), ServerConfig::default().server_threads(2)).unwrap();

        let replica = Arc::new(Database::open(&rdir, cfg(kind)).unwrap());
        seed_ddl(&replica);
        let applier = WalApplier::new(replica.clone()).unwrap();
        let follower = ReplicaFollower::start(server.local_addr().to_string(), applier);
        wait_sync(&leader, &replica, &follower);

        assert_identical(&leader, &replica, &tag);

        // Writes continue while the subscription is live; the replica
        // follows and stays identical.
        run(&leader, "UPDATE emp SET salary = 500 WHERE name = 'erin'");
        run(
            &leader,
            "INSERT INTO emp (name, salary) VALUES ('late', 999)",
        );
        wait_sync(&leader, &replica, &follower);
        assert_identical(&leader, &replica, &format!("{tag} after live writes"));

        // The replica is read-only: embedded and wire writes are refused.
        let err = run_statement(&replica, "INSERT INTO emp (name, salary) VALUES ('no', 1)")
            .expect_err("replica write must fail");
        assert!(
            matches!(&err, Error::Txn(m) if m.contains("replica")),
            "unexpected replica-write error: {err:?}"
        );

        // Lag and throughput observability.
        let m = replica.metrics();
        assert_eq!(m.counter("repl.applied_tt"), leader.now().0);
        assert_eq!(m.counter("repl.tt_lag"), 0, "caught-up replica lags");
        assert!(m.counter("repl.txns_applied") > 0);
        assert!(m.counter("repl.bytes") > 0);
        assert!(follower.last_error().is_none());

        follower.stop();
        drop(server);
        drop(leader);
        drop(replica);
        let _ = std::fs::remove_dir_all(&ldir);
        let _ = std::fs::remove_dir_all(&rdir);
    }
}

/// A replica restarted from disk resumes from its persisted `repl.pos`
/// boundary: two leader checkpoints while it is down remove the segment
/// its position lies in, so the stream resumes at the oldest retained
/// segment's head, and writes made after them arrive after reconnect.
/// Every slice still matches.
#[test]
fn replica_resumes_after_restart() {
    let _ports = binding();
    let ldir = tmpdir("resume-lead");
    let rdir = tmpdir("resume-repl");
    let leader = Arc::new(Database::open(&ldir, cfg(StoreKind::Split)).unwrap());
    seed_ddl(&leader);
    populate(&leader);
    let server = Server::start(leader.clone(), ServerConfig::default().server_threads(2)).unwrap();
    let addr = server.local_addr().to_string();

    // First incarnation: sync fully, then shut the replica down.
    {
        let replica = Arc::new(Database::open(&rdir, cfg(StoreKind::Split)).unwrap());
        seed_ddl(&replica);
        let applier = WalApplier::new(replica.clone()).unwrap();
        let follower = ReplicaFollower::start(addr.clone(), applier);
        wait_sync(&leader, &replica, &follower);
        follower.stop();
        drop(replica);
    }

    // The leader moves on while the replica is down: two checkpoints,
    // then three writes.
    leader.checkpoint().unwrap();
    leader.checkpoint().unwrap();
    run(&leader, "UPDATE emp SET salary = 777 WHERE name = 'frank'");
    run(
        &leader,
        "INSERT INTO proj (title, budget) VALUES ('gamma', 3000)",
    );
    run(&leader, "DELETE FROM emp WHERE name = 'bob'");

    // Second incarnation: reopen from disk; the persisted position must
    // resume mid-log, not from zero.
    let replica = Arc::new(Database::open(&rdir, cfg(StoreKind::Split)).unwrap());
    let applier = WalApplier::new(replica.clone()).unwrap();
    let resume = applier.resume_lsn().0;
    assert!(resume > 0, "restart must resume, not restream");
    let follower = ReplicaFollower::start(addr, applier);
    wait_sync(&leader, &replica, &follower);
    assert_identical(&leader, &replica, "after restart");
    assert!(follower.last_error().is_none());
    let m = replica.metrics();
    assert_eq!(
        m.counter("repl.txns_applied"),
        3,
        "the resumed stream applies exactly the three new transactions"
    );
    let since = leader.wal_durable_len() - resume;
    assert!(
        m.counter("repl.bytes") <= since,
        "the resumed stream sent {} bytes, more than the {since} logged since its position",
        m.counter("repl.bytes")
    );

    follower.stop();
    drop(server);
    drop(leader);
    drop(replica);
    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&rdir);
}

/// Restarts a server for `leader` on `addr`, retrying while the old
/// sockets drain.
fn restart(leader: &Arc<Database>, addr: &str) -> Server {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match Server::start(
            leader.clone(),
            ServerConfig::default()
                .addr(addr.to_string())
                .server_threads(2),
        ) {
            Ok(s) => return s,
            Err(e) => {
                assert!(Instant::now() < deadline, "cannot rebind {addr}: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// A leader crash and reopen keeps a caught-up replica streaming from
/// its LSN: LSNs run on across the reopen, so the position the replica
/// holds is where the recovered leader's log continues, and a write made
/// after the reopen arrives without a resync.
#[test]
fn replica_follows_its_leader_across_a_leader_crash() {
    let _ports = rebinding();
    let ldir = tmpdir("crash-lead");
    let rdir = tmpdir("crash-repl");
    let leader = Arc::new(Database::open(&ldir, cfg(StoreKind::Chain)).unwrap());
    seed_ddl(&leader);
    populate(&leader);
    let mut server =
        Server::start(leader.clone(), ServerConfig::default().server_threads(2)).unwrap();
    let addr = server.local_addr().to_string();

    let replica = Arc::new(Database::open(&rdir, cfg(StoreKind::Chain)).unwrap());
    seed_ddl(&replica);
    let applier = WalApplier::new(replica.clone()).unwrap();
    let follower = ReplicaFollower::start(addr.clone(), applier);
    wait_sync(&leader, &replica, &follower);
    let position = replica.metrics().counter("repl.applied_lsn");
    let applied = replica.metrics().counter("repl.txns_applied");

    server.shutdown();
    drop(server);
    let Ok(crashed) = Arc::try_unwrap(leader) else {
        panic!("the leader is still shared")
    };
    crashed.crash();
    let leader = Arc::new(Database::open(&ldir, cfg(StoreKind::Chain)).unwrap());
    assert!(leader.wal_durable_len() > position, "LSNs run on");
    run(&leader, "UPDATE emp SET salary = 111 WHERE name = 'ann'");
    let server = restart(&leader, &addr);
    wait_sync(&leader, &replica, &follower);
    assert_identical(&leader, &replica, "after the leader's crash");
    assert!(follower.last_error().is_none());
    let m = replica.metrics();
    assert_eq!(m.counter("repl.txns_applied"), applied + 1);
    assert!(m.counter("repl.applied_lsn") > position);

    follower.stop();
    drop(server);
    drop(leader);
    drop(replica);
    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&rdir);
}

/// A subscriber position past the leader's durable end, or off a frame
/// boundary, gets an error frame naming it: the follower parks with it
/// instead of receiving empty chunks forever.
#[test]
fn a_position_outside_the_leaders_log_is_a_named_error() {
    let _ports = binding();
    let ldir = tmpdir("badpos-lead");
    let leader = Arc::new(Database::open(&ldir, cfg(StoreKind::Delta)).unwrap());
    seed_ddl(&leader);
    populate(&leader);
    let server = Server::start(leader.clone(), ServerConfig::default().server_threads(2)).unwrap();
    let addr = server.local_addr().to_string();
    let durable = leader.wal_durable_len();
    for (tag, lsn, want) in [
        ("past", durable + 1, "past the leader's durable end"),
        ("mid", durable - 1, "not on a frame boundary"),
    ] {
        let rdir = tmpdir(&format!("badpos-{tag}"));
        let replica = Arc::new(Database::open(&rdir, cfg(StoreKind::Delta)).unwrap());
        seed_ddl(&replica);
        std::fs::write(rdir.join("repl.pos"), format!("{lsn}\n")).unwrap();
        let follower =
            ReplicaFollower::start(addr.clone(), WalApplier::new(replica.clone()).unwrap());
        let deadline = Instant::now() + Duration::from_secs(10);
        let err = loop {
            if let Some(e) = follower.last_error() {
                break e;
            }
            assert!(
                Instant::now() < deadline,
                "[{tag}] no error reached the follower"
            );
            std::thread::sleep(Duration::from_millis(10));
        };
        assert!(err.contains(want), "[{tag}] {err}");
        follower.stop();
        drop(replica);
        let _ = std::fs::remove_dir_all(&rdir);
    }
    drop(server);
    drop(leader);
    let _ = std::fs::remove_dir_all(&ldir);
}

/// Replica crash under scripted faults: a power cut mid-replay loses all
/// non-durable replica state; reopening recovers from the replica's own
/// WAL, and the resumed subscription re-streams the remainder. Every
/// slice matches the leader afterwards.
#[test]
fn replica_crash_recovers_and_resumes() {
    let _ports = binding();
    let ldir = tmpdir("crash-lead");
    let rdir = tmpdir("crash-repl");
    // The FaultVfs is purely in-memory, but the `repl.pos` sidecar lives
    // on the real filesystem — give it a real directory.
    std::fs::create_dir_all(&rdir).unwrap();
    let leader = Arc::new(Database::open(&ldir, cfg(StoreKind::Chain)).unwrap());
    seed_ddl(&leader);
    let server = Server::start(leader.clone(), ServerConfig::default().server_threads(2)).unwrap();
    let addr = server.local_addr().to_string();

    let vfs = FaultVfs::new();
    let replica = Arc::new(
        Database::open_with_vfs(&rdir, cfg(StoreKind::Chain), Arc::new(vfs.clone())).unwrap(),
    );
    seed_ddl(&replica);
    let applier = WalApplier::new(replica.clone()).unwrap();
    let follower = ReplicaFollower::start(addr.clone(), applier);

    // First wave replicates cleanly.
    populate(&leader);
    wait_sync(&leader, &replica, &follower);

    // Arm a power cut a little into the replica's future I/O, then keep
    // writing: some of the second wave replays, then the replica "dies".
    vfs.power_cut_at(vfs.mut_ops() + 20);
    for i in 0..12 {
        run(
            &leader,
            &format!(
                "INSERT INTO emp (name, salary) VALUES ('w{i}', {})",
                1000 + i
            ),
        );
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while follower.last_error().is_none() {
        assert!(
            Instant::now() < deadline,
            "armed power cut never fired on the replica"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    follower.stop();
    Arc::try_unwrap(replica)
        .ok()
        .expect("follower must have released the replica")
        .crash();
    assert!(vfs.crashed(), "power cut must have fired");

    // Reopen on exactly the durable bytes: recovery replays the replica's
    // own WAL, then the subscription resumes from the persisted boundary.
    vfs.reset_after_crash();
    let replica = Arc::new(
        Database::open_with_vfs(&rdir, cfg(StoreKind::Chain), Arc::new(vfs.clone())).unwrap(),
    );
    assert!(
        replica.now() <= leader.now(),
        "recovered replica clock must not run ahead of the leader"
    );
    let applier = WalApplier::new(replica.clone()).unwrap();
    let follower = ReplicaFollower::start(addr, applier);
    wait_sync(&leader, &replica, &follower);
    assert_identical(&leader, &replica, "after crash recovery");
    let report = replica.verify_integrity().unwrap();
    assert!(
        report.is_ok(),
        "integrity violations after crash + resume: {:?}",
        report.violations
    );
    assert!(follower.last_error().is_none());

    follower.stop();
    drop(server);
    drop(leader);
    drop(replica);
    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&rdir);
}

/// A replica tiers its own closed history independently of its leader:
/// compaction is engine maintenance, not a replicated write, so it is
/// allowed on a read-only replica; the leader's own compaction (whose
/// segment-swap record enters the streamed WAL) must be skipped by the
/// applier; and every slice stays byte-identical throughout — whether
/// neither, one, or both sides are compacted.
#[test]
fn replica_compacts_independently_of_leader() {
    let _ports = binding();
    let ldir = tmpdir("tier-lead");
    let rdir = tmpdir("tier-repl");
    let leader = Arc::new(Database::open(&ldir, cfg(StoreKind::Split)).unwrap());
    seed_ddl(&leader);
    populate(&leader);
    // Salary churn deepens the closed history both sides can archive.
    for round in 0..6 {
        for (i, name) in ["ann", "bob", "carol", "erin", "frank"].iter().enumerate() {
            run(
                &leader,
                &format!(
                    "UPDATE emp SET salary = {} WHERE name = '{name}'",
                    2000 + round * 10 + i as i64
                ),
            );
        }
    }
    let server = Server::start(leader.clone(), ServerConfig::default().server_threads(2)).unwrap();

    let replica = Arc::new(Database::open(&rdir, cfg(StoreKind::Split)).unwrap());
    seed_ddl(&replica);
    let applier = WalApplier::new(replica.clone()).unwrap();
    let follower = ReplicaFollower::start(server.local_addr().to_string(), applier);
    wait_sync(&leader, &replica, &follower);
    assert_identical(&leader, &replica, "before any compaction");

    // The replica archives; the leader stays flat.
    assert!(
        replica.compact_all().unwrap() > 0,
        "replica must have closed history to archive"
    );
    assert!(replica.metrics().counter("segment.live") > 0);
    assert_eq!(leader.metrics().counter("segment.live"), 0);
    assert_identical(&leader, &replica, "replica tiered, leader flat");

    // Streaming continues into the tiered replica.
    run(&leader, "UPDATE emp SET salary = 4001 WHERE name = 'ann'");
    run(
        &leader,
        "INSERT INTO emp (name, salary) VALUES ('tier', 4002)",
    );
    wait_sync(&leader, &replica, &follower);
    assert_identical(&leader, &replica, "live writes after replica tiering");

    // Now the leader compacts too: its swap record enters the shipped WAL
    // and the applier must skip it rather than replay it as a write.
    assert!(leader.compact_all().unwrap() > 0);
    run(&leader, "UPDATE emp SET salary = 4003 WHERE name = 'bob'");
    wait_sync(&leader, &replica, &follower);
    assert_identical(&leader, &replica, "both sides tiered");

    // A second replica sweep over the freshly closed versions coexists
    // with the live subscription.
    assert!(replica.compact_all().unwrap() > 0);
    wait_sync(&leader, &replica, &follower);
    assert_identical(&leader, &replica, "second replica sweep");

    let report = replica.verify_integrity().unwrap();
    assert!(
        report.is_ok(),
        "tiered replica failed the integrity sweep: {:?}",
        report.violations
    );
    assert!(follower.last_error().is_none());

    follower.stop();
    drop(server);
    drop(leader);
    drop(replica);
    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&rdir);
}

/// Killing and re-establishing the *connection* (leader restart excluded)
/// resumes idempotently: the follower reconnects with its applied
/// boundary, re-streamed transactions are skipped, nothing applies twice.
#[test]
fn reconnect_resumes_idempotently() {
    let _ports = rebinding();
    let ldir = tmpdir("reconn-lead");
    let rdir = tmpdir("reconn-repl");
    let leader = Arc::new(Database::open(&ldir, cfg(StoreKind::Delta)).unwrap());
    seed_ddl(&leader);
    populate(&leader);

    // First server incarnation.
    let mut server =
        Server::start(leader.clone(), ServerConfig::default().server_threads(2)).unwrap();
    let addr = server.local_addr().to_string();

    let replica = Arc::new(Database::open(&rdir, cfg(StoreKind::Delta)).unwrap());
    seed_ddl(&replica);
    let applier = WalApplier::new(replica.clone()).unwrap();
    let follower = ReplicaFollower::start(addr.clone(), applier);
    wait_sync(&leader, &replica, &follower);
    let applied_before = replica.metrics().counter("repl.txns_applied");

    // Kill the connection by shutting the server down, then restart it on
    // the same address (same database, same log).
    server.shutdown();
    drop(server);
    run(&leader, "UPDATE emp SET salary = 111 WHERE name = 'ann'");
    let server = restart(&leader, &addr);
    wait_sync(&leader, &replica, &follower);
    assert_identical(&leader, &replica, "after reconnect");

    let m = replica.metrics();
    assert!(
        m.counter("repl.reconnects") >= 1,
        "the drop must be visible as a reconnect"
    );
    assert_eq!(
        m.counter("repl.txns_applied"),
        applied_before + 1,
        "re-streamed transactions must be skipped, not re-applied"
    );
    assert!(follower.last_error().is_none());

    follower.stop();
    drop(server);
    drop(leader);
    drop(replica);
    let _ = std::fs::remove_dir_all(&ldir);
    let _ = std::fs::remove_dir_all(&rdir);
}

/// Two current versions of one atom can share an indexed value, and a
/// replica maintains that value's index entry from the streamed batches
/// alone: it must outlive the close of either version and go with the
/// last. A partial-valid-time rename splits the one version into three
/// with salary 50; deleting the middle and then each remainder closes
/// them one by one. After every commit the caught-up replica finds the
/// atom through the index exactly when the leader does, and both pass
/// the integrity check.
#[test]
fn replica_keeps_a_shared_index_value_until_its_last_version_closes() {
    let _ports = binding();
    for kind in KINDS {
        let tag = format!("{kind:?}").to_lowercase();
        let ldir = tmpdir(&format!("shared-lead-{tag}"));
        let rdir = tmpdir(&format!("shared-repl-{tag}"));
        let ddl = "CREATE TYPE acct (owner TEXT NOT NULL, level INT INDEXED)";
        let leader = Arc::new(Database::open(&ldir, cfg(kind)).unwrap());
        run(&leader, ddl);
        let server =
            Server::start(leader.clone(), ServerConfig::default().server_threads(2)).unwrap();
        let replica = Arc::new(Database::open(&rdir, cfg(kind)).unwrap());
        run(&replica, ddl);
        let applier = WalApplier::new(replica.clone()).unwrap();
        let follower = ReplicaFollower::start(server.local_addr().to_string(), applier);
        let ty = leader.atom_type_id("acct").unwrap();
        let level = tcom_kernel::AttrId(1);
        let steps = [
            (
                "insert",
                "INSERT INTO acct (owner, level) VALUES ('a', 50) VALID IN [0, 100)",
                true,
            ),
            (
                "rename [10, 20)",
                "UPDATE acct SET owner = 'b' WHERE level = 50 VALID IN [10, 20)",
                true,
            ),
            (
                "delete the middle",
                "DELETE FROM acct WHERE level = 50 VALID IN [10, 20)",
                true,
            ),
            (
                "delete one remainder",
                "DELETE FROM acct WHERE level = 50 VALID IN [0, 10)",
                true,
            ),
            (
                "delete the other",
                "DELETE FROM acct WHERE level = 50 VALID IN [20, 100)",
                false,
            ),
        ];
        for (what, sql, found) in steps {
            run(&leader, sql);
            wait_sync(&leader, &replica, &follower);
            for (role, db) in [("leader", &leader), ("replica", &replica)] {
                let hits = db.index_range_inclusive(ty, level, 0, u64::MAX).unwrap();
                assert_eq!(
                    hits.len(),
                    usize::from(found),
                    "{tag} {role}: {what}: {hits:?}"
                );
                let report = db.verify_integrity().unwrap();
                assert!(report.is_ok(), "{tag} {role}: {what}: {report:?}");
            }
        }
        assert!(follower.last_error().is_none());

        follower.stop();
        drop(server);
        drop(leader);
        drop(replica);
        let _ = std::fs::remove_dir_all(&ldir);
        let _ = std::fs::remove_dir_all(&rdir);
    }
}
