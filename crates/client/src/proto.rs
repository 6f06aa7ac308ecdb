//! Typed frame payloads: the layer between raw [`Frame`]s and the
//! engine's result types.
//!
//! Every payload is encoded with the kernel's S3 record codec
//! ([`tcom_kernel::codec`]) — varints, length-prefixed strings, tagged
//! values — so the wire format inherits the codec's strict, panic-free
//! decoding. Each `dec_*` function additionally demands full consumption:
//! trailing garbage after a well-formed payload is a protocol error, not
//! slack.
//!
//! [`Frame`]: tcom_kernel::frame::Frame

use tcom_core::{MatAtom, Molecule};
use tcom_kernel::codec::{Decoder, Encoder};
use tcom_kernel::{AtomId, AtomTypeId, AttrId, Error, MoleculeTypeId, Result, TimePoint};
use tcom_query::exec::{ExplainReport, OpReport, QueryOutput, Row};
use tcom_query::StatementOutput;
use tcom_version::record::AtomVersion;

/// Wire error categories. The category tells the client whether to blame
/// its own framing, its transaction state, or the statement it sent.
pub mod error_code {
    /// Malformed or unexpected frame; the server closes the connection.
    pub const PROTOCOL: u8 = 1;
    /// Frame is valid but illegal in the session's current state
    /// (double-BEGIN, COMMIT with no transaction, COMMIT after an error).
    pub const SESSION: u8 = 2;
    /// The statement itself failed (parse error, unknown type, conflict).
    pub const STATEMENT: u8 = 3;
}

/// A decoded [`FrameKind::Error`](tcom_kernel::frame::FrameKind::Error)
/// payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// One of the [`error_code`] constants.
    pub code: u8,
    /// Human-readable description (the engine error's `Display` text).
    pub message: String,
}

impl WireError {
    /// Converts the wire error into the engine error the client surfaces.
    pub fn into_error(self) -> Error {
        match self.code {
            error_code::PROTOCOL => {
                Error::corruption(format!("server protocol error: {}", self.message))
            }
            error_code::SESSION => Error::Txn(format!("server session error: {}", self.message)),
            _ => Error::query(format!("server statement error: {}", self.message)),
        }
    }
}

/// Acknowledgement of a transaction-control frame or of DML buffered in an
/// open transaction (where no commit transaction time exists yet).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ack {
    /// BEGIN / ROLLBACK succeeded.
    Done,
    /// COMMIT succeeded at this transaction time.
    Committed(TimePoint),
    /// In-transaction INSERT buffered; the atom it will create.
    PendingInsert(AtomId),
    /// In-transaction UPDATE / DELETE buffered; atoms it touches.
    PendingModified(u64),
}

fn exhausted(d: &Decoder<'_>, what: &str) -> Result<()> {
    if d.is_exhausted() {
        Ok(())
    } else {
        Err(Error::corruption(format!(
            "{} bytes of trailing garbage after {what} payload",
            d.remaining()
        )))
    }
}

// ---- handshake ----

/// Encodes a Hello payload (the client's self-description).
pub fn enc_hello(client: &str) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_str(client);
    e.finish()
}

/// Decodes a Hello payload.
pub fn dec_hello(buf: &[u8]) -> Result<String> {
    let mut d = Decoder::new(buf);
    let s = d.get_str()?.to_string();
    exhausted(&d, "Hello")?;
    Ok(s)
}

/// Encodes a HelloOk payload: session id, server description, published
/// transaction-time clock.
pub fn enc_hello_ok(session: u64, server: &str, tt: TimePoint) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u64(session);
    e.put_str(server);
    e.put_time(tt);
    e.finish()
}

/// Decodes a HelloOk payload.
pub fn dec_hello_ok(buf: &[u8]) -> Result<(u64, String, TimePoint)> {
    let mut d = Decoder::new(buf);
    let session = d.get_u64()?;
    let server = d.get_str()?.to_string();
    let tt = d.get_time()?;
    exhausted(&d, "HelloOk")?;
    Ok((session, server, tt))
}

// ---- simple scalar payloads ----

/// Encodes a bare string payload (Query / Prepare).
pub fn enc_str(s: &str) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_str(s);
    e.finish()
}

/// Decodes a bare string payload.
pub fn dec_str(buf: &[u8]) -> Result<String> {
    let mut d = Decoder::new(buf);
    let s = d.get_str()?.to_string();
    exhausted(&d, "string")?;
    Ok(s)
}

/// Encodes a bare u64 payload (Prepared / Execute statement handles).
pub fn enc_u64(v: u64) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u64(v);
    e.finish()
}

/// Decodes a bare u64 payload.
pub fn dec_u64(buf: &[u8]) -> Result<u64> {
    let mut d = Decoder::new(buf);
    let v = d.get_u64()?;
    exhausted(&d, "u64")?;
    Ok(v)
}

/// Encodes a Pong payload (the server's published clock).
pub fn enc_time(t: TimePoint) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_time(t);
    e.finish()
}

/// Decodes a Pong payload.
pub fn dec_time(buf: &[u8]) -> Result<TimePoint> {
    let mut d = Decoder::new(buf);
    let t = d.get_time()?;
    exhausted(&d, "time")?;
    Ok(t)
}

// ---- error ----

/// Encodes an Error payload.
pub fn enc_error(code: u8, message: &str) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(code);
    e.put_str(message);
    e.finish()
}

/// Decodes an Error payload.
pub fn dec_error(buf: &[u8]) -> Result<WireError> {
    let mut d = Decoder::new(buf);
    let code = d.get_u8()?;
    let message = d.get_str()?.to_string();
    exhausted(&d, "Error")?;
    Ok(WireError { code, message })
}

// ---- ack ----

/// Encodes an Ack payload.
pub fn enc_ack(ack: &Ack) -> Vec<u8> {
    let mut e = Encoder::new();
    match ack {
        Ack::Done => e.put_u8(0),
        Ack::Committed(tt) => {
            e.put_u8(1);
            e.put_time(*tt);
        }
        Ack::PendingInsert(atom) => {
            e.put_u8(2);
            e.put_atom_id(*atom);
        }
        Ack::PendingModified(n) => {
            e.put_u8(3);
            e.put_u64(*n);
        }
    }
    e.finish()
}

/// Decodes an Ack payload.
pub fn dec_ack(buf: &[u8]) -> Result<Ack> {
    let mut d = Decoder::new(buf);
    let ack = match d.get_u8()? {
        0 => Ack::Done,
        1 => Ack::Committed(d.get_time()?),
        2 => Ack::PendingInsert(d.get_atom_id()?),
        3 => Ack::PendingModified(d.get_u64()?),
        t => return Err(Error::corruption(format!("unknown Ack tag {t}"))),
    };
    exhausted(&d, "Ack")?;
    Ok(ack)
}

// ---- replication ----

/// A decoded ReplSubscribe payload: where the replica wants the WAL
/// stream to resume. `epoch` pairs the LSN with one leader log
/// incarnation; on mismatch the leader streams from LSN 0 of its current
/// epoch. `published_tt` is the replica's clock, for leader-side
/// observability.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplSubscribe {
    /// Leader log incarnation the resume LSN belongs to.
    pub epoch: u64,
    /// Byte offset to resume streaming from.
    pub lsn: u64,
    /// The replica's published transaction-time clock.
    pub published_tt: TimePoint,
}

/// A decoded ReplFrame payload: one run of whole WAL frames plus the
/// leader's lag markers at send time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplFrame {
    /// Leader log incarnation `bytes` was read from.
    pub epoch: u64,
    /// Byte offset of the first frame in `bytes`.
    pub start_lsn: u64,
    /// The leader's durable WAL horizon (feeds `repl.lsn_lag`).
    pub durable_end: u64,
    /// The leader's published clock (feeds `repl.tt_lag`).
    pub leader_tt: TimePoint,
    /// Raw `[len][crc][payload]` WAL frames, whole frames only.
    pub bytes: Vec<u8>,
}

/// A decoded ReplAck payload: replica progress for leader observability.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplAck {
    /// Epoch the replica's position belongs to.
    pub epoch: u64,
    /// End of the last commit the replica fully applied.
    pub applied_lsn: u64,
}

/// Encodes a ReplSubscribe payload.
pub fn enc_repl_subscribe(s: &ReplSubscribe) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u64(s.epoch);
    e.put_u64(s.lsn);
    e.put_time(s.published_tt);
    e.finish()
}

/// Decodes a ReplSubscribe payload.
pub fn dec_repl_subscribe(buf: &[u8]) -> Result<ReplSubscribe> {
    let mut d = Decoder::new(buf);
    let s = ReplSubscribe {
        epoch: d.get_u64()?,
        lsn: d.get_u64()?,
        published_tt: d.get_time()?,
    };
    exhausted(&d, "ReplSubscribe")?;
    Ok(s)
}

/// Encodes a ReplFrame payload.
pub fn enc_repl_frame(f: &ReplFrame) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u64(f.epoch);
    e.put_u64(f.start_lsn);
    e.put_u64(f.durable_end);
    e.put_time(f.leader_tt);
    e.put_bytes(&f.bytes);
    e.finish()
}

/// Decodes a ReplFrame payload.
pub fn dec_repl_frame(buf: &[u8]) -> Result<ReplFrame> {
    let mut d = Decoder::new(buf);
    let f = ReplFrame {
        epoch: d.get_u64()?,
        start_lsn: d.get_u64()?,
        durable_end: d.get_u64()?,
        leader_tt: d.get_time()?,
        bytes: d.get_bytes()?.to_vec(),
    };
    exhausted(&d, "ReplFrame")?;
    Ok(f)
}

/// Encodes a ReplAck payload.
pub fn enc_repl_ack(a: &ReplAck) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u64(a.epoch);
    e.put_u64(a.applied_lsn);
    e.finish()
}

/// Decodes a ReplAck payload.
pub fn dec_repl_ack(buf: &[u8]) -> Result<ReplAck> {
    let mut d = Decoder::new(buf);
    let a = ReplAck {
        epoch: d.get_u64()?,
        applied_lsn: d.get_u64()?,
    };
    exhausted(&d, "ReplAck")?;
    Ok(a)
}

// ---- statement output ----

/// Encodes a full statement result for a Rows frame.
pub fn enc_output(out: &StatementOutput) -> Vec<u8> {
    let mut e = Encoder::new();
    match out {
        StatementOutput::Query(q) => {
            e.put_u8(0);
            put_query_output(&mut e, q);
        }
        StatementOutput::Explain(r) => {
            e.put_u8(1);
            put_explain(&mut e, r);
        }
        StatementOutput::TypeCreated(id) => {
            e.put_u8(2);
            e.put_u64(id.0 as u64);
        }
        StatementOutput::MoleculeCreated(id) => {
            e.put_u8(3);
            e.put_u64(id.0 as u64);
        }
        StatementOutput::Inserted(atom, tt) => {
            e.put_u8(4);
            e.put_atom_id(*atom);
            e.put_time(*tt);
        }
        StatementOutput::Modified(n, tt) => {
            e.put_u8(5);
            e.put_u64(*n as u64);
            e.put_time(*tt);
        }
    }
    e.finish()
}

/// Decodes a statement result from a Rows frame.
pub fn dec_output(buf: &[u8]) -> Result<StatementOutput> {
    let mut d = Decoder::new(buf);
    let out = match d.get_u8()? {
        0 => StatementOutput::Query(get_query_output(&mut d)?),
        1 => StatementOutput::Explain(get_explain(&mut d)?),
        2 => StatementOutput::TypeCreated(AtomTypeId(get_u32(&mut d)?)),
        3 => StatementOutput::MoleculeCreated(MoleculeTypeId(get_u32(&mut d)?)),
        4 => StatementOutput::Inserted(d.get_atom_id()?, d.get_time()?),
        5 => StatementOutput::Modified(d.get_u64()? as usize, d.get_time()?),
        t => {
            return Err(Error::corruption(format!(
                "unknown StatementOutput tag {t}"
            )))
        }
    };
    exhausted(&d, "Rows")?;
    Ok(out)
}

fn get_u32(d: &mut Decoder<'_>) -> Result<u32> {
    let v = d.get_u64()?;
    u32::try_from(v).map_err(|_| Error::corruption(format!("u32 payload field out of range: {v}")))
}

fn put_query_output(e: &mut Encoder, q: &QueryOutput) {
    match q {
        QueryOutput::Rows { columns, rows } => {
            e.put_u8(0);
            e.put_u64(columns.len() as u64);
            for c in columns {
                e.put_str(c);
            }
            e.put_u64(rows.len() as u64);
            for r in rows {
                e.put_atom_id(r.atom);
                e.put_u64(r.values.len() as u64);
                for v in &r.values {
                    e.put_value(v);
                }
                e.put_interval(&r.vt);
                e.put_interval(&r.tt);
            }
        }
        QueryOutput::Molecules(mols) => {
            e.put_u8(1);
            e.put_u64(mols.len() as u64);
            for m in mols {
                e.put_u64(m.mol_type.0 as u64);
                e.put_time(m.tt);
                e.put_time(m.vt);
                put_mat_atom(e, &m.root);
            }
        }
        QueryOutput::Histories(hs) => {
            e.put_u8(2);
            e.put_u64(hs.len() as u64);
            for (atom, versions) in hs {
                e.put_atom_id(*atom);
                e.put_u64(versions.len() as u64);
                for v in versions {
                    put_version(e, v);
                }
            }
        }
        QueryOutput::Aggregate { steps, integral } => {
            e.put_u8(3);
            e.put_u64(steps.len() as u64);
            for s in steps {
                e.put_interval(&s.during);
                e.put_u64(s.count);
                e.put_i64(s.sum);
            }
            match integral {
                None => e.put_u8(0),
                Some(i) => {
                    e.put_u8(1);
                    e.put_i64(*i);
                }
            }
        }
    }
}

fn get_query_output(d: &mut Decoder<'_>) -> Result<QueryOutput> {
    Ok(match d.get_u8()? {
        0 => {
            let ncols = d.get_u64()? as usize;
            let mut columns = Vec::with_capacity(ncols.min(1 << 16));
            for _ in 0..ncols {
                columns.push(d.get_str()?.to_string());
            }
            let nrows = d.get_u64()? as usize;
            let mut rows = Vec::with_capacity(nrows.min(1 << 16));
            for _ in 0..nrows {
                let atom = d.get_atom_id()?;
                let nvals = d.get_u64()? as usize;
                let mut values = Vec::with_capacity(nvals.min(1 << 16));
                for _ in 0..nvals {
                    values.push(d.get_value()?);
                }
                let vt = d.get_interval()?;
                let tt = d.get_interval()?;
                rows.push(Row {
                    atom,
                    values,
                    vt,
                    tt,
                });
            }
            QueryOutput::Rows { columns, rows }
        }
        1 => {
            let n = d.get_u64()? as usize;
            let mut mols = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let mol_type = MoleculeTypeId(get_u32(d)?);
                let tt = d.get_time()?;
                let vt = d.get_time()?;
                let root = get_mat_atom(d, 0)?;
                mols.push(Molecule {
                    mol_type,
                    tt,
                    vt,
                    root,
                });
            }
            QueryOutput::Molecules(mols)
        }
        2 => {
            let n = d.get_u64()? as usize;
            let mut hs = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let atom = d.get_atom_id()?;
                let nv = d.get_u64()? as usize;
                let mut versions = Vec::with_capacity(nv.min(1 << 16));
                for _ in 0..nv {
                    versions.push(get_version(d)?);
                }
                hs.push((atom, versions));
            }
            QueryOutput::Histories(hs)
        }
        3 => {
            let n = d.get_u64()? as usize;
            let mut steps = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                steps.push(tcom_core::batch::AggStep {
                    during: d.get_interval()?,
                    count: d.get_u64()?,
                    sum: d.get_i64()?,
                });
            }
            let integral = match d.get_u8()? {
                0 => None,
                1 => Some(d.get_i64()?),
                t => return Err(Error::corruption(format!("unknown integral tag {t}"))),
            };
            QueryOutput::Aggregate { steps, integral }
        }
        t => return Err(Error::corruption(format!("unknown QueryOutput tag {t}"))),
    })
}

fn put_version(e: &mut Encoder, v: &AtomVersion) {
    e.put_interval(&v.vt);
    e.put_interval(&v.tt);
    e.put_tuple(&v.tuple);
}

fn get_version(d: &mut Decoder<'_>) -> Result<AtomVersion> {
    Ok(AtomVersion {
        vt: d.get_interval()?,
        tt: d.get_interval()?,
        tuple: d.get_tuple()?,
    })
}

/// Molecule trees are depth-bounded by the catalog (`DEPTH` clause,
/// default 8); this wire bound is far above any legal materialization and
/// exists only so a corrupt payload cannot recurse unboundedly.
const MAX_MOLECULE_DEPTH: usize = 64;

fn put_mat_atom(e: &mut Encoder, m: &MatAtom) {
    e.put_atom_id(m.id);
    put_version(e, &m.version);
    e.put_u64(m.children.len() as u64);
    for (attr, group) in &m.children {
        e.put_u64(attr.0 as u64);
        e.put_u64(group.len() as u64);
        for child in group {
            put_mat_atom(e, child);
        }
    }
}

fn get_mat_atom(d: &mut Decoder<'_>, depth: usize) -> Result<MatAtom> {
    if depth > MAX_MOLECULE_DEPTH {
        return Err(Error::corruption("molecule payload nests too deeply"));
    }
    let id = d.get_atom_id()?;
    let version = get_version(d)?;
    let ngroups = d.get_u64()? as usize;
    let mut children = Vec::with_capacity(ngroups.min(1 << 10));
    for _ in 0..ngroups {
        let attr = AttrId(
            u16::try_from(d.get_u64()?)
                .map_err(|_| Error::corruption("attr id out of range in molecule payload"))?,
        );
        let n = d.get_u64()? as usize;
        let mut group = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            group.push(get_mat_atom(d, depth + 1)?);
        }
        children.push((attr, group));
    }
    Ok(MatAtom {
        id,
        version,
        children,
    })
}

fn put_explain(e: &mut Encoder, r: &ExplainReport) {
    e.put_str(&r.query);
    e.put_u64(r.ops.len() as u64);
    for op in &r.ops {
        e.put_str(&op.name);
        e.put_str(&op.detail);
        e.put_u64(op.rows);
        e.put_u64(op.elapsed_us);
        e.put_u64(op.pages_read);
        e.put_u64(op.depth as u64);
        match op.est_pages {
            None => e.put_u8(0),
            Some(p) => {
                e.put_u8(1);
                e.put_u64(p);
            }
        }
    }
    e.put_u64(r.total_elapsed_us);
    e.put_u64(r.total_pages_read);
}

fn get_explain(d: &mut Decoder<'_>) -> Result<ExplainReport> {
    let query = d.get_str()?.to_string();
    let n = d.get_u64()? as usize;
    let mut ops = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        let name = d.get_str()?.to_string();
        let detail = d.get_str()?.to_string();
        let rows = d.get_u64()?;
        let elapsed_us = d.get_u64()?;
        let pages_read = d.get_u64()?;
        let depth = d.get_u64()? as usize;
        let est_pages = match d.get_u8()? {
            0 => None,
            1 => Some(d.get_u64()?),
            t => return Err(Error::corruption(format!("unknown est_pages tag {t}"))),
        };
        ops.push(OpReport {
            name,
            detail,
            rows,
            elapsed_us,
            pages_read,
            depth,
            est_pages,
        });
    }
    Ok(ExplainReport {
        query,
        ops,
        total_elapsed_us: d.get_u64()?,
        total_pages_read: d.get_u64()?,
    })
}
