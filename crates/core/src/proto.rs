//! Wire protocol of the DSM runtime: message tags, interval records (write
//! notices), and their encodings.
//!
//! Message sizes matter for the reproduction: Table 2 of the paper counts the
//! UDP messages and the total amount of data TreadMarks sends, so every
//! protocol message here is encoded into real bytes whose length is what the
//! simulated network charges and counts.

use crate::page::{Diff, DiffRun, PageId};
use crate::vc::VectorClock;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Lock acquire request, requester → lock manager.
pub const TAG_LOCK_ACQ: u32 = 100;
/// Forwarded acquire request, manager → last requester.
pub const TAG_LOCK_FWD: u32 = 101;
/// Lock grant (with piggybacked write notices), last releaser → requester.
pub const TAG_LOCK_GRANT: u32 = 102;
/// Barrier arrival (with write notices), client → barrier manager.
pub const TAG_BARRIER_ARRIVE: u32 = 103;
/// Barrier release (with write notices), manager → client.
pub const TAG_BARRIER_RELEASE: u32 = 104;
/// Diff request, faulting process → a writer of the page.
pub const TAG_DIFF_REQ: u32 = 105;
/// Diff response carrying one or more diffs of the requested page.
pub const TAG_DIFF_RESP: u32 = 106;
/// Termination protocol: worker → process 0, "I am done".
pub const TAG_DONE: u32 = 107;
/// Termination protocol: process 0 → worker, "everyone is done, stop serving".
pub const TAG_TERMINATE: u32 = 108;
/// HLRC diff flush (one interval's diffs for one home), writer → home.
pub const TAG_DIFF_FLUSH: u32 = 109;
/// HLRC flush acknowledgement, home → writer.
pub const TAG_FLUSH_ACK: u32 = 110;
/// HLRC full-page fetch request, faulting process → page home.
pub const TAG_PAGE_REQ: u32 = 111;
/// HLRC full-page fetch response carrying the master copy, home → requester.
pub const TAG_PAGE_RESP: u32 = 112;
/// SC write-ownership request, faulting writer → page manager.
pub const TAG_SC_WRITE_REQ: u32 = 120;
/// SC forwarded write-ownership request, manager → the previous requester
/// (the token chain; same `(page, requester)` payload as the request).
pub const TAG_SC_WRITE_FWD: u32 = 121;
/// SC ownership transfer carrying the page (and the copyset to invalidate),
/// old owner → new owner.
pub const TAG_SC_PAGE_XFER: u32 = 122;
/// SC read-copy request, faulting reader → page manager.
pub const TAG_SC_READ_REQ: u32 = 123;
/// SC forwarded read-copy request, manager → the token-chain predecessor
/// (same `(page, requester)` payload as the request).
pub const TAG_SC_READ_FWD: u32 = 124;
/// SC read copy of the page, owner → reader.
pub const TAG_SC_PAGE_COPY: u32 = 125;
/// SC invalidation, new owner → copyset member.
pub const TAG_SC_INVAL: u32 = 126;
/// SC invalidation acknowledgement, member → new owner.
pub const TAG_SC_INVAL_ACK: u32 = 127;

/// A reusable wire-encoding buffer for the hot send paths.
///
/// Every message used to be encoded into a fresh `BytesMut::new()`, which
/// grew by doubling while records were appended — several reallocations and
/// copies per message — before one more copy froze it into its final
/// allocation.  A `WireBuf` instead computes the exact message size up
/// front, stages the bytes in one long-lived `BytesMut` that is reused
/// (and therefore stops growing) across messages, and copies once into an
/// exactly-sized immutable [`Bytes`].
#[derive(Debug, Default)]
pub struct WireBuf {
    buf: BytesMut,
}

impl WireBuf {
    /// A fresh, empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begin a message of exactly `size` bytes.
    fn begin(&mut self, size: usize) -> &mut BytesMut {
        debug_assert!(self.buf.is_empty(), "unfinished message in the wire buffer");
        self.buf.reserve(size);
        &mut self.buf
    }

    /// Freeze the written message out of the buffer, asserting its exact
    /// size, and clear the buffer (retaining its allocation) for the next
    /// message.
    fn finish(&mut self, expect: usize) -> Bytes {
        debug_assert_eq!(self.buf.len(), expect, "wire message mis-sized");
        let out = Bytes::copy_from_slice(&self.buf);
        self.buf.clear();
        out
    }
}

/// Encode a lock grant or barrier message — the two share the layout
/// `(u32 head, vc, records)` — with the records spliced in by the caller
/// from their pre-encoded wire buffers.  `nrecords`/`records_len` are the
/// count and summed byte length the splice will write; the message is
/// encoded into `wire` at exactly that pre-computed size.  Byte-identical
/// to [`encode_lock_grant`] / [`encode_barrier`] over the same records.
pub fn encode_sync_spliced(
    wire: &mut WireBuf,
    head: u32,
    vc: &VectorClock,
    nrecords: usize,
    records_len: usize,
    splice: impl FnOnce(&mut BytesMut),
) -> Bytes {
    let size = 8 + 4 * vc.len() + records_len;
    let b = wire.begin(size);
    b.put_u32_le(head);
    put_vc(b, vc);
    b.put_u32_le(nrecords as u32);
    splice(b);
    wire.finish(size)
}

/// Wire size of one encoded diff (what [`encode_diff_response`] writes per
/// diff after the `(creator, seq, vc)` prefix).
fn diff_wire_len(diff: &Diff) -> usize {
    4 + diff.runs.iter().map(|r| 4 + r.data.len()).sum::<usize>()
}

/// [`encode_diff_response`] from borrowed parts with pre-encoded vector
/// clocks, into a reusable, exactly pre-sized [`WireBuf`] — the serving
/// path of the diff store (no `Diff` clones, no clock re-serialisation).
pub fn encode_diff_response_into(
    wire: &mut WireBuf,
    page: PageId,
    parts: &[DiffResponsePart<'_>],
) -> Bytes {
    let size = 8 + parts
        .iter()
        .map(|(_, _, vcw, diff)| 8 + vcw.len() + diff_wire_len(diff))
        .sum::<usize>();
    let b = wire.begin(size);
    b.put_u32_le(page);
    b.put_u32_le(parts.len() as u32);
    for (creator, seq, vc_wire, diff) in parts {
        b.put_u32_le(*creator as u32);
        b.put_u32_le(*seq);
        b.put_slice(vc_wire);
        put_diff(b, diff);
    }
    wire.finish(size)
}

/// True if `tag` is a request that must be served by the runtime's service
/// loop even while the process is blocked waiting for something else.
pub fn is_request_tag(tag: u32) -> bool {
    matches!(
        tag,
        TAG_LOCK_ACQ
            | TAG_LOCK_FWD
            | TAG_BARRIER_ARRIVE
            | TAG_DIFF_REQ
            | TAG_DONE
            | TAG_DIFF_FLUSH
            | TAG_PAGE_REQ
            | TAG_SC_WRITE_REQ
            | TAG_SC_WRITE_FWD
            | TAG_SC_READ_REQ
            | TAG_SC_READ_FWD
            | TAG_SC_INVAL
    )
}

/// A write-notice record: one closed interval of one process, listing the
/// pages that process modified during the interval, together with the
/// interval's vector timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalRecord {
    /// Process that created the interval.
    pub creator: usize,
    /// 1-based sequence number of the interval on its creator.
    pub seq: u32,
    /// Vector timestamp of the interval.
    pub vc: VectorClock,
    /// Pages modified during the interval (the write notices).
    pub pages: Vec<PageId>,
}

/// Append `vc` to `buf` in wire order (little-endian `u32` entries).
pub fn put_vc(buf: &mut BytesMut, vc: &VectorClock) {
    for &e in vc.entries() {
        buf.put_u32_le(e);
    }
}

/// The standalone wire encoding of `vc`.
///
/// Hot senders pre-encode vector clocks once (when a record or stored diff
/// is created) and splice the buffer into every later message instead of
/// cloning the clock and re-serialising it per send.
pub fn vc_wire(vc: &VectorClock) -> Bytes {
    let mut b = BytesMut::with_capacity(4 * vc.len());
    put_vc(&mut b, vc);
    b.freeze()
}

fn get_vc(buf: &mut Bytes, nprocs: usize) -> VectorClock {
    let entries = (0..nprocs).map(|_| buf.get_u32_le()).collect();
    VectorClock::from_entries(entries)
}

/// The standalone wire encoding of one interval record, computed once when
/// the record enters a process's interval log and spliced (a memcpy) into
/// every lock grant or barrier message that later carries the record.
pub fn record_wire(r: &IntervalRecord) -> Bytes {
    let mut b = BytesMut::with_capacity(16 + 4 * r.vc.len() + 4 * r.pages.len());
    put_record(&mut b, r);
    b.freeze()
}

fn put_record(buf: &mut BytesMut, r: &IntervalRecord) {
    buf.put_u32_le(r.creator as u32);
    buf.put_u32_le(r.seq);
    put_vc(buf, &r.vc);
    buf.put_u32_le(r.pages.len() as u32);
    for &p in &r.pages {
        buf.put_u32_le(p);
    }
}

fn get_record(buf: &mut Bytes, nprocs: usize) -> IntervalRecord {
    let creator = buf.get_u32_le() as usize;
    let seq = buf.get_u32_le();
    let vc = get_vc(buf, nprocs);
    let npages = buf.get_u32_le() as usize;
    let pages = (0..npages).map(|_| buf.get_u32_le()).collect();
    IntervalRecord {
        creator,
        seq,
        vc,
        pages,
    }
}

/// Encode a list of interval records preceded by their count.
pub fn put_records(buf: &mut BytesMut, records: &[IntervalRecord]) {
    buf.put_u32_le(records.len() as u32);
    for r in records {
        put_record(buf, r);
    }
}

/// Decode a list of interval records.
pub fn get_records(buf: &mut Bytes, nprocs: usize) -> Vec<IntervalRecord> {
    let n = buf.get_u32_le() as usize;
    (0..n).map(|_| get_record(buf, nprocs)).collect()
}

/// Lock acquire / forwarded acquire: `(lock_id, requester, requester_vc)`.
pub fn encode_lock_request(lock_id: u32, requester: usize, vc: &VectorClock) -> Bytes {
    let mut b = BytesMut::with_capacity(12 + 4 * vc.len());
    b.put_u32_le(lock_id);
    b.put_u32_le(requester as u32);
    put_vc(&mut b, vc);
    b.freeze()
}

/// Decode a lock acquire / forwarded acquire.
pub fn decode_lock_request(mut payload: Bytes, nprocs: usize) -> (u32, usize, VectorClock) {
    let lock_id = payload.get_u32_le();
    let requester = payload.get_u32_le() as usize;
    let vc = get_vc(&mut payload, nprocs);
    (lock_id, requester, vc)
}

/// Lock grant: `(lock_id, granter_vc, write notices the requester lacks)`.
pub fn encode_lock_grant(lock_id: u32, vc: &VectorClock, records: &[IntervalRecord]) -> Bytes {
    let mut b = BytesMut::new();
    b.put_u32_le(lock_id);
    put_vc(&mut b, vc);
    put_records(&mut b, records);
    b.freeze()
}

/// Decode a lock grant.
pub fn decode_lock_grant(
    mut payload: Bytes,
    nprocs: usize,
) -> (u32, VectorClock, Vec<IntervalRecord>) {
    let lock_id = payload.get_u32_le();
    let vc = get_vc(&mut payload, nprocs);
    let records = get_records(&mut payload, nprocs);
    (lock_id, vc, records)
}

/// Barrier arrival / release: `(epoch, vc, records)`.
pub fn encode_barrier(epoch: u32, vc: &VectorClock, records: &[IntervalRecord]) -> Bytes {
    let mut b = BytesMut::new();
    b.put_u32_le(epoch);
    put_vc(&mut b, vc);
    put_records(&mut b, records);
    b.freeze()
}

/// Decode a barrier arrival / release.
pub fn decode_barrier(
    mut payload: Bytes,
    nprocs: usize,
) -> (u32, VectorClock, Vec<IntervalRecord>) {
    let epoch = payload.get_u32_le();
    let vc = get_vc(&mut payload, nprocs);
    let records = get_records(&mut payload, nprocs);
    (epoch, vc, records)
}

/// Diff request: `(page, requester, applied_vc, global_vc)`.
///
/// `applied_vc` says which intervals' modifications the requester has already
/// incorporated into its copy of the page; `global_vc` says which intervals
/// the requester knows about at all.  The responder returns every diff it
/// holds for the page whose interval lies between the two.
pub fn encode_diff_request(
    page: PageId,
    requester: usize,
    applied_vc: &VectorClock,
    global_vc: &VectorClock,
) -> Bytes {
    let mut b = BytesMut::with_capacity(12 + 8 * applied_vc.len());
    b.put_u32_le(page);
    b.put_u32_le(requester as u32);
    put_vc(&mut b, applied_vc);
    put_vc(&mut b, global_vc);
    b.freeze()
}

/// Decode a diff request into `(page, requester, applied_vc, global_vc)`.
pub fn decode_diff_request(
    mut payload: Bytes,
    nprocs: usize,
) -> (PageId, usize, VectorClock, VectorClock) {
    let page = payload.get_u32_le();
    let requester = payload.get_u32_le() as usize;
    let applied = get_vc(&mut payload, nprocs);
    let global = get_vc(&mut payload, nprocs);
    (page, requester, applied, global)
}

/// One diff travelling in a diff response: who created it, in which interval,
/// and the runs themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireDiff {
    /// Creator process of the diff.
    pub creator: usize,
    /// Interval sequence number of the diff on its creator.
    pub seq: u32,
    /// Vector timestamp of the creating interval (used to order application).
    pub vc: VectorClock,
    /// The diff itself.
    pub diff: Diff,
}

fn put_diff(buf: &mut BytesMut, diff: &Diff) {
    buf.put_u32_le(diff.runs.len() as u32);
    for run in &diff.runs {
        buf.put_u16_le(run.offset);
        buf.put_u16_le(run.data.len() as u16);
        buf.put_slice(&run.data);
    }
}

fn get_diff(buf: &mut Bytes) -> Diff {
    let nruns = buf.get_u32_le() as usize;
    let mut runs = Vec::with_capacity(nruns);
    for _ in 0..nruns {
        let offset = buf.get_u16_le();
        let len = buf.get_u16_le() as usize;
        let mut data = vec![0u8; len];
        buf.copy_to_slice(&mut data);
        runs.push(DiffRun { offset, data });
    }
    Diff { runs }
}

/// One borrowed entry of a diff response: `(creator, seq, pre-encoded
/// creating-interval clock, diff)`.
pub type DiffResponsePart<'a> = (usize, u32, &'a Bytes, &'a Diff);

/// Diff response: `(page, diffs)`.
pub fn encode_diff_response(page: PageId, diffs: &[WireDiff]) -> Bytes {
    let mut b = BytesMut::new();
    b.put_u32_le(page);
    b.put_u32_le(diffs.len() as u32);
    for wd in diffs {
        b.put_u32_le(wd.creator as u32);
        b.put_u32_le(wd.seq);
        put_vc(&mut b, &wd.vc);
        put_diff(&mut b, &wd.diff);
    }
    b.freeze()
}

/// Decode a diff response.
pub fn decode_diff_response(mut payload: Bytes, nprocs: usize) -> (PageId, Vec<WireDiff>) {
    let page = payload.get_u32_le();
    let n = payload.get_u32_le() as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let creator = payload.get_u32_le() as usize;
        let seq = payload.get_u32_le();
        let vc = get_vc(&mut payload, nprocs);
        let diff = get_diff(&mut payload);
        out.push(WireDiff {
            creator,
            seq,
            vc,
            diff,
        });
    }
    (page, out)
}

/// HLRC diff flush: `(creator, seq, [(page, diff)])` — one closed interval's
/// diffs destined for one home, batched into a single message.
pub fn encode_diff_flush(creator: usize, seq: u32, entries: &[(PageId, Diff)]) -> Bytes {
    let mut b = BytesMut::new();
    b.put_u32_le(creator as u32);
    b.put_u32_le(seq);
    b.put_u32_le(entries.len() as u32);
    for (page, diff) in entries {
        b.put_u32_le(*page);
        put_diff(&mut b, diff);
    }
    b.freeze()
}

/// Decode an HLRC diff flush.
pub fn decode_diff_flush(mut payload: Bytes) -> (usize, u32, Vec<(PageId, Diff)>) {
    let creator = payload.get_u32_le() as usize;
    let seq = payload.get_u32_le();
    let n = payload.get_u32_le() as usize;
    let entries = (0..n)
        .map(|_| {
            let page = payload.get_u32_le();
            let diff = get_diff(&mut payload);
            (page, diff)
        })
        .collect();
    (creator, seq, entries)
}

/// HLRC flush acknowledgement: echoes `(creator, seq)` of the flushed
/// interval so the writer can match acknowledgements to flushes.
pub fn encode_flush_ack(creator: usize, seq: u32) -> Bytes {
    let mut b = BytesMut::with_capacity(8);
    b.put_u32_le(creator as u32);
    b.put_u32_le(seq);
    b.freeze()
}

/// Decode an HLRC flush acknowledgement.
pub fn decode_flush_ack(mut payload: Bytes) -> (usize, u32) {
    let creator = payload.get_u32_le() as usize;
    let seq = payload.get_u32_le();
    (creator, seq)
}

/// HLRC page fetch request: `(page, requester)`.
pub fn encode_page_request(page: PageId, requester: usize) -> Bytes {
    let mut b = BytesMut::with_capacity(8);
    b.put_u32_le(page);
    b.put_u32_le(requester as u32);
    b.freeze()
}

/// Decode an HLRC page fetch request.
pub fn decode_page_request(mut payload: Bytes) -> (PageId, usize) {
    let page = payload.get_u32_le();
    let requester = payload.get_u32_le() as usize;
    (page, requester)
}

/// HLRC page fetch response: `(page, home's applied clock, full page)`.
pub fn encode_page_response(page: PageId, applied: &VectorClock, data: &[u8]) -> Bytes {
    let mut b = BytesMut::with_capacity(8 + 4 * applied.len() + data.len());
    b.put_u32_le(page);
    put_vc(&mut b, applied);
    b.put_u32_le(data.len() as u32);
    b.put_slice(data);
    b.freeze()
}

/// Decode an HLRC page fetch response.
pub fn decode_page_response(mut payload: Bytes, nprocs: usize) -> (PageId, VectorClock, Vec<u8>) {
    let page = payload.get_u32_le();
    let applied = get_vc(&mut payload, nprocs);
    let len = payload.get_u32_le() as usize;
    let mut data = vec![0u8; len];
    payload.copy_to_slice(&mut data);
    (page, applied, data)
}

/// SC request: `(page, process)` — the shape shared by write requests, read
/// requests, forwarded read requests and invalidations (the process is the
/// requester, or for an invalidation the new owner awaiting the ack).
pub fn encode_sc_request(page: PageId, process: usize) -> Bytes {
    let mut b = BytesMut::with_capacity(8);
    b.put_u32_le(page);
    b.put_u32_le(process as u32);
    b.freeze()
}

/// Decode an SC `(page, process)` request.
pub fn decode_sc_request(mut payload: Bytes) -> (PageId, usize) {
    let page = payload.get_u32_le();
    let process = payload.get_u32_le() as usize;
    (page, process)
}

fn put_procs(buf: &mut BytesMut, procs: &[usize]) {
    buf.put_u32_le(procs.len() as u32);
    for &p in procs {
        buf.put_u32_le(p as u32);
    }
}

fn get_procs(buf: &mut Bytes) -> Vec<usize> {
    let n = buf.get_u32_le() as usize;
    (0..n).map(|_| buf.get_u32_le() as usize).collect()
}

/// SC ownership transfer: `(page, copyset, data)` — the full page always
/// travels with the token (an owner that merely upgrades a downgraded copy
/// never sends a message at all).
pub fn encode_sc_page_transfer(page: PageId, copyset: &[usize], data: &[u8]) -> Bytes {
    let mut b = BytesMut::with_capacity(8 + 4 * copyset.len() + data.len());
    b.put_u32_le(page);
    put_procs(&mut b, copyset);
    b.put_slice(data);
    b.freeze()
}

/// Decode an SC ownership transfer.
pub fn decode_sc_page_transfer(mut payload: Bytes) -> (PageId, Vec<usize>, Vec<u8>) {
    let page = payload.get_u32_le();
    let copyset = get_procs(&mut payload);
    let mut data = vec![0u8; payload.remaining()];
    payload.copy_to_slice(&mut data);
    (page, copyset, data)
}

/// SC read copy: `(page, data)`.
pub fn encode_sc_page_copy(page: PageId, data: &[u8]) -> Bytes {
    let mut b = BytesMut::with_capacity(4 + data.len());
    b.put_u32_le(page);
    b.put_slice(data);
    b.freeze()
}

/// Decode an SC read copy.
pub fn decode_sc_page_copy(mut payload: Bytes) -> (PageId, Vec<u8>) {
    let page = payload.get_u32_le();
    let mut data = vec![0u8; payload.remaining()];
    payload.copy_to_slice(&mut data);
    (page, data)
}

/// SC invalidation acknowledgement: the invalidated page.
pub fn encode_sc_ack(page: PageId) -> Bytes {
    let mut b = BytesMut::with_capacity(4);
    b.put_u32_le(page);
    b.freeze()
}

/// Decode an SC invalidation acknowledgement.
pub fn decode_sc_ack(mut payload: Bytes) -> PageId {
    payload.get_u32_le()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::new_page;

    fn vc(v: &[u32]) -> VectorClock {
        VectorClock::from_entries(v.to_vec())
    }

    #[test]
    fn lock_request_round_trip() {
        let payload = encode_lock_request(7, 3, &vc(&[1, 2, 3, 4]));
        let (lock, req, v) = decode_lock_request(payload, 4);
        assert_eq!(lock, 7);
        assert_eq!(req, 3);
        assert_eq!(v.entries(), &[1, 2, 3, 4]);
    }

    #[test]
    fn lock_grant_round_trip_with_records() {
        let records = vec![
            IntervalRecord {
                creator: 1,
                seq: 5,
                vc: vc(&[0, 5]),
                pages: vec![10, 11, 12],
            },
            IntervalRecord {
                creator: 0,
                seq: 2,
                vc: vc(&[2, 0]),
                pages: vec![],
            },
        ];
        let payload = encode_lock_grant(3, &vc(&[2, 5]), &records);
        let (lock, v, recs) = decode_lock_grant(payload, 2);
        assert_eq!(lock, 3);
        assert_eq!(v.entries(), &[2, 5]);
        assert_eq!(recs, records);
    }

    #[test]
    fn barrier_round_trip() {
        let records = vec![IntervalRecord {
            creator: 2,
            seq: 1,
            vc: vc(&[0, 0, 1]),
            pages: vec![42],
        }];
        let payload = encode_barrier(9, &vc(&[1, 1, 1]), &records);
        let (epoch, v, recs) = decode_barrier(payload, 3);
        assert_eq!(epoch, 9);
        assert_eq!(v.entries(), &[1, 1, 1]);
        assert_eq!(recs, records);
    }

    #[test]
    fn diff_request_round_trip() {
        let applied = vc(&[1, 0, 0, 0, 0, 0, 0, 0]);
        let global = vc(&[9, 8, 7, 6, 5, 4, 3, 2]);
        let payload = encode_diff_request(77, 5, &applied, &global);
        let (page, req, a, g) = decode_diff_request(payload, 8);
        assert_eq!(page, 77);
        assert_eq!(req, 5);
        assert_eq!(a, applied);
        assert_eq!(g.get(0), 9);
    }

    #[test]
    fn diff_response_round_trip() {
        let twin = new_page();
        let mut page = new_page();
        page[100] = 1;
        page[2000] = 2;
        let d = Diff::create(&twin, &page);
        let wire = vec![WireDiff {
            creator: 4,
            seq: 3,
            vc: vc(&[0, 0, 0, 0, 3]),
            diff: d.clone(),
        }];
        let payload = encode_diff_response(12, &wire);
        let (pid, diffs) = decode_diff_response(payload, 5);
        assert_eq!(pid, 12);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].diff, d);
        assert_eq!(diffs[0].creator, 4);
    }

    #[test]
    fn request_tags_are_classified() {
        assert!(is_request_tag(TAG_LOCK_ACQ));
        assert!(is_request_tag(TAG_DIFF_REQ));
        assert!(is_request_tag(TAG_BARRIER_ARRIVE));
        assert!(is_request_tag(TAG_DIFF_FLUSH));
        assert!(is_request_tag(TAG_PAGE_REQ));
        assert!(is_request_tag(TAG_SC_WRITE_REQ));
        assert!(is_request_tag(TAG_SC_WRITE_FWD));
        assert!(is_request_tag(TAG_SC_READ_REQ));
        assert!(is_request_tag(TAG_SC_READ_FWD));
        assert!(is_request_tag(TAG_SC_INVAL));
        assert!(!is_request_tag(TAG_LOCK_GRANT));
        assert!(!is_request_tag(TAG_BARRIER_RELEASE));
        assert!(!is_request_tag(TAG_DIFF_RESP));
        assert!(!is_request_tag(TAG_FLUSH_ACK));
        assert!(!is_request_tag(TAG_PAGE_RESP));
        assert!(!is_request_tag(TAG_SC_PAGE_XFER));
        assert!(!is_request_tag(TAG_SC_PAGE_COPY));
        assert!(!is_request_tag(TAG_SC_INVAL_ACK));
        assert!(!is_request_tag(TAG_TERMINATE));
    }

    #[test]
    fn sc_messages_round_trip() {
        let (page, proc) = decode_sc_request(encode_sc_request(7, 3));
        assert_eq!((page, proc), (7, 3));

        let mut data = new_page().to_vec();
        data[0] = 1;
        data[4095] = 2;
        let (page, cs, got) = decode_sc_page_transfer(encode_sc_page_transfer(5, &[1, 4], &data));
        assert_eq!(page, 5);
        assert_eq!(cs, vec![1, 4]);
        assert_eq!(got, data);

        let (page, got) = decode_sc_page_copy(encode_sc_page_copy(11, &data));
        assert_eq!(page, 11);
        assert_eq!(got, data);

        assert_eq!(decode_sc_ack(encode_sc_ack(42)), 42);
    }

    #[test]
    fn diff_flush_round_trip() {
        let twin = new_page();
        let mut page = new_page();
        page[10] = 3;
        page[900] = 4;
        let d = Diff::create(&twin, &page);
        let entries = vec![(5u32, d.clone()), (9u32, Diff::default())];
        let payload = encode_diff_flush(2, 7, &entries);
        let (creator, seq, got) = decode_diff_flush(payload);
        assert_eq!(creator, 2);
        assert_eq!(seq, 7);
        assert_eq!(got, entries);
    }

    #[test]
    fn flush_ack_round_trip() {
        let (creator, seq) = decode_flush_ack(encode_flush_ack(3, 11));
        assert_eq!((creator, seq), (3, 11));
    }

    #[test]
    fn page_fetch_round_trip() {
        let (page, requester) = decode_page_request(encode_page_request(42, 6));
        assert_eq!((page, requester), (42, 6));

        let mut data = new_page().to_vec();
        data[0] = 1;
        data[4095] = 2;
        let applied = vc(&[3, 0, 1]);
        let payload = encode_page_response(42, &applied, &data);
        let (pid, got_applied, got_data) = decode_page_response(payload, 3);
        assert_eq!(pid, 42);
        assert_eq!(got_applied, applied);
        assert_eq!(got_data, data);
    }

    #[test]
    fn wire_buf_messages_are_byte_identical_and_reusable() {
        let records = vec![
            IntervalRecord {
                creator: 1,
                seq: 5,
                vc: vc(&[0, 5, 2]),
                pages: vec![10, 11, 12],
            },
            IntervalRecord {
                creator: 0,
                seq: 2,
                vc: vc(&[2, 0, 0]),
                pages: vec![],
            },
        ];
        let wires: Vec<Bytes> = records.iter().map(record_wire).collect();
        let records_len: usize = wires.iter().map(Bytes::len).sum();
        let clock = vc(&[2, 5, 0]);
        let mut wb = WireBuf::new();
        // The same buffer encodes message after message, each byte-identical
        // to the single-shot reference encoder.
        for _ in 0..3 {
            let got = encode_sync_spliced(&mut wb, 3, &clock, records.len(), records_len, |b| {
                for w in &wires {
                    b.put_slice(w);
                }
            });
            assert_eq!(got, encode_lock_grant(3, &clock, &records));
            let got = encode_sync_spliced(&mut wb, 9, &clock, records.len(), records_len, |b| {
                for w in &wires {
                    b.put_slice(w);
                }
            });
            assert_eq!(got, encode_barrier(9, &clock, &records));
        }

        let twin = new_page();
        let mut page = new_page();
        page[100] = 1;
        page[2000] = 2;
        let d = Diff::create(&twin, &page);
        let dvc = vc(&[0, 3, 1]);
        let dvcw = vc_wire(&dvc);
        let wire = vec![WireDiff {
            creator: 1,
            seq: 3,
            vc: dvc.clone(),
            diff: d.clone(),
        }];
        assert_eq!(
            encode_diff_response_into(&mut wb, 12, &[(1, 3, &dvcw, &d)]),
            encode_diff_response(12, &wire)
        );
    }

    #[test]
    fn message_sizes_scale_with_content() {
        // A grant with no notices is small; one with many notices is larger.
        let small = encode_lock_grant(0, &vc(&[0; 8]), &[]);
        let many: Vec<IntervalRecord> = (0..20)
            .map(|i| IntervalRecord {
                creator: i % 8,
                seq: i as u32,
                vc: vc(&[i as u32; 8]),
                pages: (0..10).collect(),
            })
            .collect();
        let big = encode_lock_grant(0, &vc(&[0; 8]), &many);
        assert!(small.len() < 64);
        assert!(big.len() > 20 * (8 + 4 * 8 + 4 * 10));
    }
}
