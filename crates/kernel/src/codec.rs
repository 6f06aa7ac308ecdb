//! Compact binary codec for on-page records and WAL entries.
//!
//! Hand-rolled rather than pulled from a serialization crate because the
//! record format *is* part of the storage design: versions, deltas and log
//! records must be byte-stable across releases and cheap to decode
//! mid-page. The format is:
//!
//! * integers: LEB128 varints (zig-zag for signed),
//! * strings/bytes: length-prefixed,
//! * values: 1 tag byte + payload,
//! * structured items (tuples, stamps): concatenation with a leading arity.
//!
//! Everything round-trips; decoding is strict and never panics on corrupt
//! input (returns [`Error::Corruption`]).

use crate::error::{Error, Result};
use crate::ids::{AtomId, RecordId};
use crate::time::{Interval, TimePoint};
use crate::value::{Tuple, Value};

/// Append-only encoder over a byte vector.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Fresh encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// Encoder reusing an existing buffer's capacity.
    pub fn with_capacity(cap: usize) -> Encoder {
        Encoder {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Finishes and returns the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a LEB128 unsigned varint.
    pub fn put_u64(&mut self, mut v: u64) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(b);
                return;
            }
            self.buf.push(b | 0x80);
        }
    }

    /// Writes a zig-zag signed varint.
    pub fn put_i64(&mut self, v: i64) {
        self.put_u64(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Writes one raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian f64.
    fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes length-prefixed bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Writes a time point (varint; `FOREVER` stays `u64::MAX`).
    pub fn put_time(&mut self, t: TimePoint) {
        self.put_u64(t.0);
    }

    /// Writes an interval as (start, end).
    pub fn put_interval(&mut self, iv: &Interval) {
        self.put_time(iv.start());
        self.put_time(iv.end());
    }

    /// Writes an atom id (packed form).
    pub fn put_atom_id(&mut self, a: AtomId) {
        self.put_u64(a.pack());
    }

    /// Writes a record id (packed form).
    pub fn put_record_id(&mut self, r: RecordId) {
        self.put_u64(r.pack());
    }

    /// Writes one tagged value.
    pub fn put_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.put_u8(0),
            Value::Bool(b) => {
                self.put_u8(1);
                self.put_u8(*b as u8);
            }
            Value::Int(i) => {
                self.put_u8(2);
                self.put_i64(*i);
            }
            Value::Float(f) => {
                self.put_u8(3);
                self.put_f64(*f);
            }
            Value::Text(s) => {
                self.put_u8(4);
                self.put_str(s);
            }
            Value::Bytes(b) => {
                self.put_u8(5);
                self.put_bytes(b);
            }
            Value::Ref(a) => {
                self.put_u8(6);
                self.put_atom_id(*a);
            }
            Value::RefSet(v) => {
                self.put_u8(7);
                self.put_u64(v.len() as u64);
                for a in v {
                    self.put_atom_id(*a);
                }
            }
        }
    }

    /// Writes an arity-prefixed tuple.
    pub fn put_tuple(&mut self, t: &Tuple) {
        self.put_u64(t.arity() as u64);
        for v in t.values() {
            self.put_value(v);
        }
    }
}

/// Strict decoder over a byte slice.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Decoder over `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder { buf, pos: 0 }
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when fully consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn need(&self, n: usize) -> Result<()> {
        if self.remaining() < n {
            Err(Error::corruption(format!(
                "decoder underrun: need {n} bytes, have {}",
                self.remaining()
            )))
        } else {
            Ok(())
        }
    }

    /// Reads one raw byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        self.need(1)?;
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(b)
    }

    /// Reads a LEB128 unsigned varint.
    pub fn get_u64(&mut self) -> Result<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.get_u8()?;
            if shift >= 64 {
                return Err(Error::corruption("varint overflow"));
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads a zig-zag signed varint.
    pub fn get_i64(&mut self) -> Result<i64> {
        let z = self.get_u64()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Reads a little-endian f64.
    fn get_f64(&mut self) -> Result<f64> {
        self.need(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(f64::from_le_bytes(a))
    }

    /// Reads length-prefixed bytes.
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let n = self.get_u64()? as usize;
        self.need(n)?;
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str> {
        let b = self.get_bytes()?;
        std::str::from_utf8(b).map_err(|_| Error::corruption("invalid utf-8 in string"))
    }

    /// Reads a time point.
    pub fn get_time(&mut self) -> Result<TimePoint> {
        Ok(TimePoint(self.get_u64()?))
    }

    /// Reads an interval; validates non-emptiness.
    pub fn get_interval(&mut self) -> Result<Interval> {
        let s = self.get_time()?;
        let e = self.get_time()?;
        Interval::new(s, e)
            .ok_or_else(|| Error::corruption(format!("empty interval [{s:?},{e:?})")))
    }

    /// Reads an atom id.
    pub fn get_atom_id(&mut self) -> Result<AtomId> {
        Ok(AtomId::unpack(self.get_u64()?))
    }

    /// Reads a record id.
    pub fn get_record_id(&mut self) -> Result<RecordId> {
        Ok(RecordId::unpack(self.get_u64()?))
    }

    /// Reads one tagged value.
    pub fn get_value(&mut self) -> Result<Value> {
        let tag = self.get_u8()?;
        Ok(match tag {
            0 => Value::Null,
            1 => Value::Bool(self.get_u8()? != 0),
            2 => Value::Int(self.get_i64()?),
            3 => Value::Float(self.get_f64()?),
            4 => Value::Text(self.get_str()?.to_owned()),
            5 => Value::Bytes(self.get_bytes()?.to_vec()),
            6 => Value::Ref(self.get_atom_id()?),
            7 => {
                let n = self.get_u64()? as usize;
                if n > self.remaining() {
                    return Err(Error::corruption("refset length exceeds buffer"));
                }
                let mut v = Vec::with_capacity(n);
                for _ in 0..n {
                    v.push(self.get_atom_id()?);
                }
                Value::RefSet(v)
            }
            t => return Err(Error::corruption(format!("unknown value tag {t}"))),
        })
    }

    /// Reads an arity-prefixed tuple.
    pub fn get_tuple(&mut self) -> Result<Tuple> {
        let n = self.get_u64()? as usize;
        if n > self.remaining() {
            return Err(Error::corruption("tuple arity exceeds buffer"));
        }
        let mut vals = Vec::with_capacity(n);
        for _ in 0..n {
            vals.push(self.get_value()?);
        }
        Ok(Tuple::new(vals))
    }
}

/// CRC-32 (Castagnoli polynomial, software implementation) used to protect
/// WAL records and page headers. Small lookup-table variant; fast enough
/// for the log path and dependency-free.
pub fn crc32c(data: &[u8]) -> u32 {
    const POLY: u32 = 0x82F6_3B78;
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { (c >> 1) ^ POLY } else { c >> 1 };
            }
            *e = c;
        }
        t
    });
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{AtomNo, AtomTypeId, PageId, SlotId};
    use crate::time::iv;

    #[test]
    fn varint_roundtrip_edges() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut e = Encoder::new();
            e.put_u64(v);
            let bytes = e.finish();
            let mut d = Decoder::new(&bytes);
            assert_eq!(d.get_u64().unwrap(), v);
            assert!(d.is_exhausted());
        }
    }

    #[test]
    fn signed_varint_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 42_424_242] {
            let mut e = Encoder::new();
            e.put_i64(v);
            let bytes = e.finish();
            assert_eq!(Decoder::new(&bytes).get_i64().unwrap(), v);
        }
    }

    #[test]
    fn value_roundtrip_all_variants() {
        let vals = vec![
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-123456789),
            Value::Float(3.5),
            Value::Float(f64::NEG_INFINITY),
            Value::Text("héllo wörld".into()),
            Value::Text(String::new()),
            Value::Bytes(vec![0, 255, 127]),
            Value::Ref(AtomId::new(AtomTypeId(3), AtomNo(77))),
            Value::ref_set([
                AtomId::new(AtomTypeId(1), AtomNo(1)),
                AtomId::new(AtomTypeId(1), AtomNo(2)),
            ]),
        ];
        for v in &vals {
            let mut e = Encoder::new();
            e.put_value(v);
            let bytes = e.finish();
            let mut d = Decoder::new(&bytes);
            assert_eq!(&d.get_value().unwrap(), v);
            assert!(d.is_exhausted());
        }
    }

    #[test]
    fn tuple_roundtrip() {
        let t = Tuple::new(vec![Value::Int(5), Value::from("abc"), Value::Null]);
        let mut e = Encoder::new();
        e.put_tuple(&t);
        let bytes = e.finish();
        assert_eq!(Decoder::new(&bytes).get_tuple().unwrap(), t);
    }

    #[test]
    fn interval_and_ids_roundtrip() {
        let mut e = Encoder::new();
        e.put_interval(&iv(3, 9));
        e.put_record_id(RecordId::new(PageId(8), SlotId(2)));
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_interval().unwrap(), iv(3, 9));
        assert_eq!(
            d.get_record_id().unwrap(),
            RecordId::new(PageId(8), SlotId(2))
        );
    }

    #[test]
    fn decoder_rejects_corruption() {
        // truncated varint
        assert!(Decoder::new(&[0x80]).get_u64().is_err());
        // unknown value tag
        assert!(Decoder::new(&[42]).get_value().is_err());
        // string with bogus length
        let mut e = Encoder::new();
        e.put_u64(1000);
        let bytes = e.finish();
        assert!(Decoder::new(&bytes).get_bytes().is_err());
        // empty interval
        let mut e = Encoder::new();
        e.put_time(TimePoint(5));
        e.put_time(TimePoint(5));
        let bytes = e.finish();
        assert!(Decoder::new(&bytes).get_interval().is_err());
        // invalid utf-8
        let mut e = Encoder::new();
        e.put_bytes(&[0xff, 0xfe]);
        let bytes = e.finish();
        assert!(Decoder::new(&bytes).get_str().is_err());
    }

    #[test]
    fn crc32c_known_vector() {
        // RFC 3720 test vector: 32 bytes of zeros.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        // "123456789"
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_ne!(crc32c(b"abc"), crc32c(b"abd"));
    }
}
