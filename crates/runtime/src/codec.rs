//! The OpenFlow-channel wire format: JSON-lines framing of the typed
//! flow-mod protocol.
//!
//! The daemon streams [`FlowModBatch`]es to switch agents as one JSON
//! object per line, and the agent answers each with a one-line ack.
//! JSON (via `sdx_telemetry::json`, the workspace's only JSON
//! implementation) keeps the channel debuggable with `nc` while staying
//! std-only; the framing is newline-delimited so partial reads are
//! handled by any buffered line reader. Encoding and decoding a frame
//! cost time linear in its length.
//!
//! Three frame kinds flow daemon → agent:
//!
//! * `{"seq":N,"batch":{...}}` — apply this batch to the current table.
//! * `{"seq":N,"sync":{...}}`  — clear the table, then apply (full-state
//!   resynchronization: first contact, or recovery after a failed
//!   scheduled update left the agent ahead of the controller).
//!
//! and one agent → daemon:
//!
//! * `{"seq":N,"ok":true}` / `{"seq":N,"ok":false,"error":"..."}`.
//!
//! Every encoder here has a matching decoder and the pair round-trips
//! exactly (see the tests); the daemon and the in-repo simulated agent
//! share this module, so the bytes on the wire are the single source of
//! truth for both ends.

use sdx_net::{
    EtherType, FieldMatch, HeaderMatch, IpProto, Ipv4Addr, MacAddr, Mod, ParticipantId, PortId,
    Prefix,
};
use sdx_openflow::flowmod::{FlowMod, FlowModBatch};
use sdx_openflow::table::{FlowEntry, FlowTable};
use sdx_telemetry::json::{ParseError, Reader};
use sdx_telemetry::Json;

/// A malformed frame: the offending context and what was wrong.
#[derive(Clone, PartialEq, Debug)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError(msg.into()))
}

fn key(k: &str, v: Json) -> (String, Json) {
    (k.to_string(), v)
}

fn int(v: impl Into<i128>) -> Json {
    Json::Int(v.into())
}

fn get_u64(j: &Json, k: &str) -> Result<u64, CodecError> {
    j.get(k)
        .and_then(Json::as_u64)
        .ok_or_else(|| CodecError(format!("missing or non-integer field `{k}`")))
}

impl From<ParseError> for CodecError {
    fn from(e: ParseError) -> Self {
        CodecError(format!("frame: {e}"))
    }
}

// Flow-mod frames are the channel's bulk traffic — a table dump puts a
// thousand mods in one line — so they are written straight into the line
// and read straight out of it ([`Reader`]), with no `Json` tree in
// between. The text is exactly what the tree emitter produces for the
// same structure: compact, keys in the order written here. Decoding takes
// members in any order and skips keys it does not know.

/// Appends `v` in decimal.
fn push_int(out: &mut String, v: impl Into<u64>) {
    let mut v = v.into();
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| d as char));
}

/// A decoded integer narrowed to the field's width; out of range is a
/// malformed frame, not a value to truncate.
#[inline]
fn narrow<T: TryFrom<u64>>(v: u64, field: &str) -> Result<T, CodecError> {
    T::try_from(v).map_err(|_| out_of_range(v, field))
}

#[inline]
fn required<T>(v: Option<T>, what: &str) -> Result<T, CodecError> {
    v.ok_or_else(|| missing(what))
}

#[cold]
fn out_of_range(v: u64, field: &str) -> CodecError {
    CodecError(format!("{field}: {v} out of range"))
}

#[cold]
fn missing(what: &str) -> CodecError {
    CodecError(format!("missing or malformed `{what}`"))
}

// ---------------------------------------------------------------------
// Scalars
// ---------------------------------------------------------------------

fn write_port(out: &mut String, p: PortId) {
    match p {
        PortId::Phys(pid, iface) => {
            out.push_str("{\"phys\":");
            push_int(out, pid.0);
            out.push_str(",\"if\":");
            push_int(out, iface);
        }
        PortId::Virt(pid) => {
            out.push_str("{\"virt\":");
            push_int(out, pid.0);
        }
    }
    out.push('}');
}

fn read_port(r: &mut Reader) -> Result<PortId, CodecError> {
    let (mut virt, mut phys, mut iface) = (None, None, None);
    r.object(|r, k| {
        match k {
            "virt" => virt = Some(r.u64()?),
            "phys" => phys = Some(r.u64()?),
            "if" => iface = Some(r.u64()?),
            _ => r.skip()?,
        }
        Ok::<(), CodecError>(())
    })?;
    if let Some(p) = virt {
        return Ok(PortId::Virt(ParticipantId(narrow(p, "virt")?)));
    }
    Ok(PortId::Phys(
        ParticipantId(narrow(required(phys, "phys")?, "phys")?),
        narrow(required(iface, "if")?, "if")?,
    ))
}

fn write_mac(out: &mut String, m: MacAddr) {
    for (i, &b) in m.0.iter().enumerate() {
        out.push(if i == 0 { '[' } else { ',' });
        push_int(out, b);
    }
    out.push(']');
}

fn read_mac(r: &mut Reader) -> Result<MacAddr, CodecError> {
    let mut m = [0u8; 6];
    let mut n = 0;
    r.array(|r| {
        let octet = narrow(r.u64()?, "mac octet")?;
        if let Some(slot) = m.get_mut(n) {
            *slot = octet;
        }
        n += 1;
        Ok::<(), CodecError>(())
    })?;
    if n != 6 {
        return err(format!("mac: {n} octets"));
    }
    Ok(MacAddr(m))
}

fn write_prefix(out: &mut String, p: Prefix) {
    out.push_str("{\"addr\":");
    push_int(out, p.addr().0);
    out.push_str(",\"len\":");
    push_int(out, p.len());
    out.push('}');
}

fn read_prefix(r: &mut Reader) -> Result<Prefix, CodecError> {
    let (mut addr, mut len) = (None, None);
    r.object(|r, k| {
        match k {
            "addr" => addr = Some(r.u64()?),
            "len" => len = Some(r.u64()?),
            _ => r.skip()?,
        }
        Ok::<(), CodecError>(())
    })?;
    let len: u8 = narrow(required(len, "len")?, "prefix length")?;
    if len > 32 {
        return err(format!("prefix: length {len}"));
    }
    Ok(Prefix::new(
        Ipv4Addr(narrow(required(addr, "addr")?, "addr")?),
        len,
    ))
}

// ---------------------------------------------------------------------
// HeaderMatch / Mod
// ---------------------------------------------------------------------

fn write_pattern(out: &mut String, m: &HeaderMatch) {
    out.push('{');
    let mut first = true;
    let mut field = |out: &mut String, name: &str| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push('"');
        out.push_str(name);
        out.push_str("\":");
    };
    if let Some(p) = m.in_port {
        field(out, "in_port");
        write_port(out, p);
    }
    if let Some(mac) = m.dl_src {
        field(out, "dl_src");
        write_mac(out, mac);
    }
    if let Some(mac) = m.dl_dst {
        field(out, "dl_dst");
        write_mac(out, mac);
    }
    if let Some(t) = m.eth_type {
        field(out, "eth_type");
        push_int(out, t.value());
    }
    if let Some(p) = m.nw_src {
        field(out, "nw_src");
        write_prefix(out, p);
    }
    if let Some(p) = m.nw_dst {
        field(out, "nw_dst");
        write_prefix(out, p);
    }
    if let Some(p) = m.nw_proto {
        field(out, "nw_proto");
        push_int(out, p.value());
    }
    if let Some(p) = m.tp_src {
        field(out, "tp_src");
        push_int(out, p);
    }
    if let Some(p) = m.tp_dst {
        field(out, "tp_dst");
        push_int(out, p);
    }
    out.push('}');
}

fn read_pattern(r: &mut Reader) -> Result<HeaderMatch, CodecError> {
    let mut m = HeaderMatch::any();
    r.object(|r, k| {
        m.set(match k {
            "in_port" => FieldMatch::InPort(read_port(r)?),
            "dl_src" => FieldMatch::DlSrc(read_mac(r)?),
            "dl_dst" => FieldMatch::DlDst(read_mac(r)?),
            "eth_type" => FieldMatch::EthType(EtherType::from_value(narrow(r.u64()?, "eth_type")?)),
            "nw_src" => FieldMatch::NwSrc(read_prefix(r)?),
            "nw_dst" => FieldMatch::NwDst(read_prefix(r)?),
            "nw_proto" => FieldMatch::NwProto(IpProto::from_value(narrow(r.u64()?, "nw_proto")?)),
            "tp_src" => FieldMatch::TpSrc(narrow(r.u64()?, "tp_src")?),
            "tp_dst" => FieldMatch::TpDst(narrow(r.u64()?, "tp_dst")?),
            _ => return Ok(r.skip()?),
        });
        Ok::<(), CodecError>(())
    })?;
    Ok(m)
}

fn write_action(out: &mut String, m: Mod) {
    match m {
        Mod::SetLoc(p) => {
            out.push_str("{\"fwd\":");
            write_port(out, p);
        }
        Mod::SetDlSrc(v) => {
            out.push_str("{\"dl_src\":");
            write_mac(out, v);
        }
        Mod::SetDlDst(v) => {
            out.push_str("{\"dl_dst\":");
            write_mac(out, v);
        }
        Mod::SetNwSrc(v) => {
            out.push_str("{\"nw_src\":");
            push_int(out, v.0);
        }
        Mod::SetNwDst(v) => {
            out.push_str("{\"nw_dst\":");
            push_int(out, v.0);
        }
        Mod::SetTpSrc(v) => {
            out.push_str("{\"tp_src\":");
            push_int(out, v);
        }
        Mod::SetTpDst(v) => {
            out.push_str("{\"tp_dst\":");
            push_int(out, v);
        }
    }
    out.push('}');
}

fn read_action(r: &mut Reader) -> Result<Mod, CodecError> {
    let mut action = None;
    r.object(|r, k| {
        action = Some(match k {
            "fwd" => Mod::SetLoc(read_port(r)?),
            "dl_src" => Mod::SetDlSrc(read_mac(r)?),
            "dl_dst" => Mod::SetDlDst(read_mac(r)?),
            "nw_src" => Mod::SetNwSrc(Ipv4Addr(narrow(r.u64()?, "nw_src")?)),
            "nw_dst" => Mod::SetNwDst(Ipv4Addr(narrow(r.u64()?, "nw_dst")?)),
            "tp_src" => Mod::SetTpSrc(narrow(r.u64()?, "tp_src")?),
            "tp_dst" => Mod::SetTpDst(narrow(r.u64()?, "tp_dst")?),
            _ => return Ok(r.skip()?),
        });
        Ok::<(), CodecError>(())
    })?;
    action.ok_or_else(|| CodecError("action: unknown kind".into()))
}

/// Appends `[item,item,...]`.
fn write_list<T>(out: &mut String, items: &[T], mut item: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
    out.push(']');
}

fn write_buckets(out: &mut String, buckets: &[Vec<Mod>]) {
    write_list(out, buckets, |out, bucket| {
        write_list(out, bucket, |out, &m| write_action(out, m))
    });
}

/// Lists reused across a frame's mods: a bucket is read into `actions`
/// and an entry's buckets into `buckets`, so each list the decoded entry
/// keeps is allocated once, at its final length.
#[derive(Default)]
struct Scratch {
    actions: Vec<Mod>,
    buckets: Vec<Vec<Mod>>,
}

fn read_buckets(r: &mut Reader, s: &mut Scratch) -> Result<Vec<Vec<Mod>>, CodecError> {
    s.buckets.clear();
    r.array(|r| {
        s.actions.clear();
        r.array(|r| {
            s.actions.push(read_action(r)?);
            Ok::<(), CodecError>(())
        })?;
        s.buckets.push(s.actions.to_vec());
        Ok::<(), CodecError>(())
    })?;
    Ok(s.buckets.drain(..).collect())
}

// ---------------------------------------------------------------------
// FlowMod / FlowModBatch
// ---------------------------------------------------------------------

/// `"priority":P,"pattern":{..}` and, when given, `,"buckets":[..],
/// "cookie":C` — the members an entry, a modify and a delete share.
fn write_slot(
    out: &mut String,
    priority: u32,
    pattern: &HeaderMatch,
    action: Option<(&[Vec<Mod>], u64)>,
) {
    out.push_str("\"priority\":");
    push_int(out, priority);
    out.push_str(",\"pattern\":");
    write_pattern(out, pattern);
    if let Some((buckets, cookie)) = action {
        out.push_str(",\"buckets\":");
        write_buckets(out, buckets);
        out.push_str(",\"cookie\":");
        push_int(out, cookie);
    }
}

/// The members [`write_slot`] writes, as read back.
#[derive(Default)]
struct Slot {
    priority: Option<u32>,
    pattern: Option<HeaderMatch>,
    buckets: Option<Vec<Vec<Mod>>>,
    cookie: Option<u64>,
}

impl Slot {
    /// Reads member `k` if it is one of the slot's; otherwise skips it.
    fn read_member(&mut self, r: &mut Reader, k: &str, s: &mut Scratch) -> Result<(), CodecError> {
        match k {
            "priority" => self.priority = Some(narrow(r.u64()?, "priority")?),
            "pattern" => self.pattern = Some(read_pattern(r)?),
            "buckets" => self.buckets = Some(read_buckets(r, s)?),
            "cookie" => self.cookie = Some(r.u64()?),
            _ => r.skip()?,
        }
        Ok(())
    }

    fn target(&self) -> Result<(u32, HeaderMatch), CodecError> {
        Ok((
            required(self.priority, "priority")?,
            required(self.pattern, "pattern")?,
        ))
    }

    fn into_entry(self) -> Result<FlowEntry, CodecError> {
        let (priority, pattern) = self.target()?;
        let buckets = required(self.buckets, "buckets")?;
        Ok(
            FlowEntry::new(priority, pattern, buckets)
                .with_cookie(required(self.cookie, "cookie")?),
        )
    }
}

fn write_mod(out: &mut String, m: &FlowMod) {
    match m {
        FlowMod::Add(e) => {
            out.push_str("{\"op\":\"add\",\"entry\":{");
            write_slot(out, e.priority, &e.pattern, Some((&e.buckets, e.cookie)));
            out.push('}');
        }
        FlowMod::Modify {
            priority,
            pattern,
            buckets,
            cookie,
        } => {
            out.push_str("{\"op\":\"modify\",");
            write_slot(out, *priority, pattern, Some((buckets, *cookie)));
        }
        FlowMod::Delete { priority, pattern } => {
            out.push_str("{\"op\":\"delete\",");
            write_slot(out, *priority, pattern, None);
        }
    }
    out.push('}');
}

fn read_mod(r: &mut Reader, s: &mut Scratch) -> Result<FlowMod, CodecError> {
    let mut op = None;
    let mut entry = None;
    let mut slot = Slot::default();
    r.object(|r, k| match k {
        "op" => {
            op = Some(r.string()?); // borrowed from the line: no copy
            Ok(())
        }
        "entry" => {
            let mut fields = Slot::default();
            r.object(|r, k| fields.read_member(r, k, s))?;
            entry = Some(fields.into_entry()?);
            Ok(())
        }
        _ => slot.read_member(r, k, s),
    })?;
    match &*required(op, "op")? {
        "add" => Ok(FlowMod::Add(required(entry, "entry")?)),
        "modify" => {
            let (priority, pattern) = slot.target()?;
            Ok(FlowMod::Modify {
                priority,
                pattern,
                buckets: required(slot.buckets, "buckets")?,
                cookie: required(slot.cookie, "cookie")?,
            })
        }
        "delete" => {
            let (priority, pattern) = slot.target()?;
            Ok(FlowMod::Delete { priority, pattern })
        }
        other => err(format!("mod: unknown op `{other}`")),
    }
}

fn read_batch(r: &mut Reader) -> Result<FlowModBatch, CodecError> {
    let (mut epoch, mut mods) = (None, None);
    r.object(|r, k| {
        match k {
            "epoch" => epoch = Some(r.u64()?),
            "mods" => {
                let mut s = Scratch::default();
                let mut list = Vec::new();
                r.array(|r| {
                    list.push(read_mod(r, &mut s)?);
                    Ok::<(), CodecError>(())
                })?;
                mods = Some(list);
            }
            _ => r.skip()?,
        }
        Ok::<(), CodecError>(())
    })?;
    Ok(FlowModBatch {
        epoch: required(epoch, "epoch")?,
        mods: required(mods, "mods")?,
    })
}

// ---------------------------------------------------------------------
// Channel frames
// ---------------------------------------------------------------------

/// A decoded daemon → agent frame.
#[derive(Clone, PartialEq, Debug)]
pub enum ChannelFrame {
    /// Apply `batch` to the current table and ack `seq`.
    Apply {
        /// Frame sequence number, echoed in the ack.
        seq: u64,
        /// The batch to apply.
        batch: FlowModBatch,
    },
    /// Clear the table, then apply `batch` (full resynchronization).
    Sync {
        /// Frame sequence number, echoed in the ack.
        seq: u64,
        /// A from-scratch image of the whole table.
        batch: FlowModBatch,
    },
}

impl ChannelFrame {
    /// The frame's sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            ChannelFrame::Apply { seq, .. } | ChannelFrame::Sync { seq, .. } => *seq,
        }
    }
}

/// `{"seq":N,"<kind>":{"epoch":E,"mods":[...]}}`
fn encode_frame(seq: u64, kind: &str, batch: &FlowModBatch) -> String {
    // ~200 bytes a mod on the exchange's tables (`runtime.codec.bytes_per_mod`).
    let mut out = String::with_capacity(64 + 256 * batch.len());
    out.push_str("{\"seq\":");
    push_int(&mut out, seq);
    out.push_str(",\"");
    out.push_str(kind);
    out.push_str("\":{\"epoch\":");
    push_int(&mut out, batch.epoch);
    out.push_str(",\"mods\":");
    write_list(&mut out, &batch.mods, write_mod);
    out.push_str("}}");
    out
}

/// Encodes an apply frame as one JSON line (no trailing newline).
pub fn encode_apply(seq: u64, batch: &FlowModBatch) -> String {
    encode_frame(seq, "batch", batch)
}

/// Encodes a sync frame as one JSON line (no trailing newline).
pub fn encode_sync(seq: u64, batch: &FlowModBatch) -> String {
    encode_frame(seq, "sync", batch)
}

/// Decodes one daemon → agent line.
pub fn decode_frame(line: &str) -> Result<ChannelFrame, CodecError> {
    let mut r = Reader::new(line);
    let (mut seq, mut apply, mut sync) = (None, None, None);
    r.object(|r, k| {
        match k {
            "seq" => seq = Some(r.u64()?),
            "batch" => apply = Some(read_batch(r)?),
            "sync" => sync = Some(read_batch(r)?),
            _ => r.skip()?,
        }
        Ok::<(), CodecError>(())
    })?;
    r.finish()?;
    let seq = required(seq, "seq")?;
    match (apply, sync) {
        (Some(batch), _) => Ok(ChannelFrame::Apply { seq, batch }),
        (None, Some(batch)) => Ok(ChannelFrame::Sync { seq, batch }),
        (None, None) => err("frame: neither `batch` nor `sync`"),
    }
}

/// Encodes an agent → daemon ack as one JSON line (no trailing newline).
pub fn encode_ack(seq: u64, result: Result<(), &str>) -> String {
    match result {
        Ok(()) => Json::obj([key("seq", int(seq)), key("ok", Json::Bool(true))]).to_string(),
        Err(e) => Json::obj([
            key("seq", int(seq)),
            key("ok", Json::Bool(false)),
            key("error", Json::Str(e.to_string())),
        ])
        .to_string(),
    }
}

/// Decodes one agent → daemon ack line into `(seq, result)`.
pub fn decode_ack(line: &str) -> Result<(u64, Result<(), String>), CodecError> {
    let j = Json::parse(line).map_err(|e| CodecError(format!("ack: {e:?}")))?;
    let seq = get_u64(&j, "seq")?;
    let ok = match j.get("ok") {
        Some(Json::Bool(b)) => *b,
        _ => return err("ack: missing ok"),
    };
    if ok {
        Ok((seq, Ok(())))
    } else {
        let msg = j
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("unspecified agent error")
            .to_string();
        Ok((seq, Err(msg)))
    }
}

// ---------------------------------------------------------------------
// Policy frames
// ---------------------------------------------------------------------

/// One lifecycle operation inside a policy frame, still in wire form:
/// the policy body is DSL *text* (the paper's surface syntax), because
/// resolving port names like `B` or `C1` to [`PortId`]s needs the
/// participant book — which only the daemon's event loop owns. The
/// daemon parses and validates on receipt and acks/nacks per frame.
#[derive(Clone, PartialEq, Debug)]
pub struct PolicyOpFrame {
    /// Whose policy is being changed.
    pub participant: ParticipantId,
    /// Which direction ([`sdx_policy::PolicyScope`]).
    pub scope: sdx_policy::PolicyScope,
    /// `"install"`, `"replace"`, or `"retract"`.
    pub op: String,
    /// The DSL policy text (absent for retract).
    pub policy: Option<String>,
}

impl PolicyOpFrame {
    /// An install op.
    pub fn install(
        participant: ParticipantId,
        scope: sdx_policy::PolicyScope,
        dsl: impl Into<String>,
    ) -> Self {
        PolicyOpFrame {
            participant,
            scope,
            op: "install".into(),
            policy: Some(dsl.into()),
        }
    }

    /// A replace op.
    pub fn replace(
        participant: ParticipantId,
        scope: sdx_policy::PolicyScope,
        dsl: impl Into<String>,
    ) -> Self {
        PolicyOpFrame {
            participant,
            scope,
            op: "replace".into(),
            policy: Some(dsl.into()),
        }
    }

    /// A retract op.
    pub fn retract(participant: ParticipantId, scope: sdx_policy::PolicyScope) -> Self {
        PolicyOpFrame {
            participant,
            scope,
            op: "retract".into(),
            policy: None,
        }
    }
}

/// Encodes a policy frame as one JSON line (no trailing newline):
/// `{"seq":N,"policy":[{"participant":P,"scope":"out","op":"replace",
/// "dsl":"match(dstport=80) >> fwd(B)"},...]}`.
pub fn encode_policy_frame(seq: u64, ops: &[PolicyOpFrame]) -> String {
    let arr: Vec<Json> = ops
        .iter()
        .map(|o| {
            let mut fields = vec![
                key("participant", int(o.participant.0)),
                key(
                    "scope",
                    Json::Str(
                        match o.scope {
                            sdx_policy::PolicyScope::Inbound => "in",
                            sdx_policy::PolicyScope::Outbound => "out",
                        }
                        .into(),
                    ),
                ),
                key("op", Json::Str(o.op.clone())),
            ];
            if let Some(dsl) = &o.policy {
                fields.push(key("dsl", Json::Str(dsl.clone())));
            }
            Json::Obj(fields)
        })
        .collect();
    Json::obj([key("seq", int(seq)), key("policy", Json::Arr(arr))]).to_string()
}

/// Decodes one policy frame line into `(seq, ops)`. Structural checks
/// only — DSL parsing and participant validation happen in the event
/// loop, which owns the book.
pub fn decode_policy_frame(line: &str) -> Result<(u64, Vec<PolicyOpFrame>), CodecError> {
    let j = Json::parse(line).map_err(|e| CodecError(format!("policy frame: {e:?}")))?;
    let seq = get_u64(&j, "seq")?;
    let arr = j
        .get("policy")
        .and_then(Json::as_arr)
        .ok_or_else(|| CodecError("policy frame: missing `policy`".into()))?;
    let mut ops = Vec::with_capacity(arr.len());
    for o in arr {
        let participant = ParticipantId(get_u64(o, "participant")? as u32);
        let scope = match o.get("scope").and_then(Json::as_str) {
            Some("in") => sdx_policy::PolicyScope::Inbound,
            Some("out") => sdx_policy::PolicyScope::Outbound,
            other => return err(format!("policy op: bad scope {other:?}")),
        };
        let op = match o.get("op").and_then(Json::as_str) {
            Some(k @ ("install" | "replace" | "retract")) => k.to_string(),
            other => return err(format!("policy op: bad op {other:?}")),
        };
        let policy = o.get("dsl").and_then(Json::as_str).map(str::to_string);
        if op != "retract" && policy.is_none() {
            return err(format!("policy op: `{op}` without a dsl body"));
        }
        ops.push(PolicyOpFrame {
            participant,
            scope,
            op,
            policy,
        });
    }
    Ok((seq, ops))
}

// ---------------------------------------------------------------------
// Synthetic batches
// ---------------------------------------------------------------------

/// A from-scratch image of `table` as a batch of Adds — what a freshly
/// connected (or resynchronizing) agent applies to an empty table.
pub fn sync_batch(table: &FlowTable, epoch: u64) -> FlowModBatch {
    let mut b = FlowModBatch::new(epoch);
    for e in table.entries() {
        b.push(FlowMod::Add(e.clone()));
    }
    b
}

/// Deletes for every entry of `table` at or above `min_priority` — the
/// streamed equivalent of the controller's overlay retirement
/// (`remove_at_or_above`), which bypasses the flow-mod path locally.
pub fn retire_batch(table: &FlowTable, min_priority: u32, epoch: u64) -> FlowModBatch {
    let mut b = FlowModBatch::new(epoch);
    for e in table.entries() {
        if e.priority >= min_priority {
            b.push(FlowMod::Delete {
                priority: e.priority,
                pattern: e.pattern,
            });
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdx_net::Asn;

    fn sample_batch() -> FlowModBatch {
        let pat = HeaderMatch::any()
            .and(FieldMatch::InPort(PortId::Phys(ParticipantId(1), 2)))
            .and(FieldMatch::EthType(EtherType::Ipv4))
            .and(FieldMatch::NwDst(Prefix::new(Ipv4Addr(0x0a000000), 8)))
            .and(FieldMatch::TpDst(443));
        let entry = FlowEntry::new(
            7,
            pat,
            vec![vec![
                Mod::SetDlDst(MacAddr([1, 2, 3, 4, 5, 6])),
                Mod::SetLoc(PortId::Virt(ParticipantId(3))),
            ]],
        )
        .with_cookie(99);
        let mut b = FlowModBatch::new(42);
        b.push(FlowMod::Add(entry));
        b.push(FlowMod::Modify {
            priority: 7,
            pattern: HeaderMatch::of(FieldMatch::NwProto(IpProto::Tcp)),
            buckets: vec![vec![Mod::SetNwDst(Ipv4Addr(0x7f000001)), Mod::SetTpSrc(80)]],
            cookie: 100,
        });
        b.push(FlowMod::Delete {
            priority: 3,
            pattern: HeaderMatch::any(),
        });
        let _ = Asn(65000); // keep the import honest if fields change
        b
    }

    /// Every field kind and integer width at its extreme.
    fn wide_batch() -> FlowModBatch {
        let pat = HeaderMatch::any()
            .and(FieldMatch::InPort(PortId::Virt(ParticipantId(9))))
            .and(FieldMatch::DlSrc(MacAddr([9, 8, 7, 6, 5, 4])))
            .and(FieldMatch::DlDst(MacAddr([255, 0, 1, 2, 3, 4])))
            .and(FieldMatch::NwSrc(Prefix::new(Ipv4Addr(0xc0a80000), 16)))
            .and(FieldMatch::NwProto(IpProto::Udp))
            .and(FieldMatch::TpSrc(53));
        let buckets = vec![
            vec![
                Mod::SetDlSrc(MacAddr([1, 1, 1, 1, 1, 1])),
                Mod::SetNwSrc(Ipv4Addr(7)),
                Mod::SetTpDst(8080),
                Mod::SetLoc(PortId::Phys(ParticipantId(4), 2)),
            ],
            vec![],
        ];
        let mut b = FlowModBatch::new(u64::MAX);
        b.push(FlowMod::Add(
            FlowEntry::new(u32::MAX, pat, buckets).with_cookie(u64::MAX),
        ));
        b.push(FlowMod::Add(FlowEntry::new(0, HeaderMatch::any(), vec![])));
        b
    }

    /// `wide_batch` as an apply frame with sequence number `u64::MAX`.
    const WIDE: &str = r#"{"seq":18446744073709551615,"batch":{"epoch":18446744073709551615,"mods":[{"op":"add","entry":{"priority":4294967295,"pattern":{"in_port":{"virt":9},"dl_src":[9,8,7,6,5,4],"dl_dst":[255,0,1,2,3,4],"nw_src":{"addr":3232235520,"len":16},"nw_proto":17,"tp_src":53},"buckets":[[{"dl_src":[1,1,1,1,1,1]},{"nw_src":7},{"tp_dst":8080},{"fwd":{"phys":4,"if":2}}],[]],"cookie":18446744073709551615}},{"op":"add","entry":{"priority":0,"pattern":{},"buckets":[],"cookie":0}}]}}"#;

    /// The bytes on the wire are a contract with agents that are not this
    /// crate (the CI smoke test's python agent, the benchmark's): these
    /// lines are what the `Json`-tree encoder this module used to go
    /// through produced for the same batches.
    #[test]
    fn wire_text_is_unchanged() {
        const SAMPLE: &str = r#"{"epoch":42,"mods":[{"op":"add","entry":{"priority":7,"pattern":{"in_port":{"phys":1,"if":2},"eth_type":2048,"nw_dst":{"addr":167772160,"len":8},"tp_dst":443},"buckets":[[{"dl_dst":[1,2,3,4,5,6]},{"fwd":{"virt":3}}]],"cookie":99}},{"op":"modify","priority":7,"pattern":{"nw_proto":6},"buckets":[[{"nw_dst":2130706433},{"tp_src":80}]],"cookie":100},{"op":"delete","priority":3,"pattern":{}}]}"#;
        assert_eq!(
            encode_apply(5, &sample_batch()),
            format!(r#"{{"seq":5,"batch":{SAMPLE}}}"#)
        );
        assert_eq!(
            encode_sync(6, &sample_batch()),
            format!(r#"{{"seq":6,"sync":{SAMPLE}}}"#)
        );
        assert_eq!(encode_apply(u64::MAX, &wide_batch()), WIDE);
        assert_eq!(
            encode_sync(0, &FlowModBatch::new(0)),
            r#"{"seq":0,"sync":{"epoch":0,"mods":[]}}"#
        );
        // And it is JSON: the tree parser reads the same structure.
        let tree = Json::parse(WIDE).expect("parses");
        let mods = tree.get("batch").and_then(|b| b.get("mods"));
        assert_eq!(mods.and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        match decode_frame(WIDE).expect("decodes") {
            ChannelFrame::Apply { seq, batch } => {
                assert_eq!((seq, batch), (u64::MAX, wide_batch()));
            }
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn decoding_takes_members_in_any_order_and_checks_ranges() {
        // Members reordered, whitespace, an unknown key at every level.
        let line = r#" { "x": [1, {"y": null}], "batch": { "mods": [
            { "pattern": {"tp_dst": 80, "future": true}, "priority": 3, "op": "delete" },
            { "entry": {"cookie": 1, "buckets": [[{"fwd": {"if": 2, "phys": 1}}]],
                        "pattern": {}, "priority": 4}, "op": "add" } ],
            "epoch": 9 }, "seq": 2 } "#;
        let mut want = FlowModBatch::new(9);
        want.push(FlowMod::Delete {
            priority: 3,
            pattern: HeaderMatch::of(FieldMatch::TpDst(80)),
        });
        want.push(FlowMod::Add(
            FlowEntry::new(
                4,
                HeaderMatch::any(),
                vec![vec![Mod::SetLoc(PortId::Phys(ParticipantId(1), 2))]],
            )
            .with_cookie(1),
        ));
        assert_eq!(
            decode_frame(line).expect("decodes"),
            ChannelFrame::Apply {
                seq: 2,
                batch: want
            }
        );
        // A value too wide for its field is a malformed frame, never a
        // silently truncated one; so are missing members and bad shapes.
        let frame = |m: &str| format!(r#"{{"seq":1,"batch":{{"epoch":1,"mods":[{m}]}}}}"#);
        for bad in [
            r#"{"op":"delete","priority":4294967296,"pattern":{}}"#,
            r#"{"op":"delete","priority":1,"pattern":{"tp_dst":65536}}"#,
            r#"{"op":"delete","priority":1,"pattern":{"dl_dst":[1,2,3,4,5,256]}}"#,
            r#"{"op":"delete","priority":1,"pattern":{"dl_dst":[1,2,3,4,5]}}"#,
            r#"{"op":"delete","priority":1,"pattern":{"nw_dst":{"addr":1,"len":33}}}"#,
            r#"{"op":"delete","priority":1}"#,
            r#"{"op":"modify","priority":1,"pattern":{},"buckets":[]}"#,
            r#"{"op":"add"}"#,
            r#"{"op":"upsert","priority":1,"pattern":{}}"#,
            r#"{"op":"delete","priority":-1,"pattern":{}}"#,
            r#"{"op":"delete","priority":1,"pattern":{},"buckets":[[{"teleport":1}]]}"#,
        ] {
            assert!(
                decode_frame(&frame(bad)).is_err(),
                "{bad} should be rejected"
            );
        }
        assert!(
            decode_frame(&(frame("") + "x")).is_err(),
            "trailing garbage"
        );
    }

    /// `n` adds shaped like the exchange's overlay rules.
    fn overlay_batch(n: u32) -> FlowModBatch {
        let mut b = FlowModBatch::new(7);
        for i in 0..n {
            let pattern = HeaderMatch::of(FieldMatch::DlDst(MacAddr::vmac(i)))
                .and(FieldMatch::InPort(PortId::Phys(ParticipantId(i % 50), 1)))
                .and(FieldMatch::TpDst(80));
            let buckets = vec![vec![
                Mod::SetDlDst(MacAddr::physical(i % 50)),
                Mod::SetLoc(PortId::Phys(ParticipantId(i % 50), 1)),
            ]];
            b.push(FlowMod::Add(
                FlowEntry::new((1 << 30) + n - i, pattern, buckets).with_cookie(u64::from(i) + 1),
            ));
        }
        b
    }

    #[test]
    fn truncated_and_overdeep_frames_are_rejected() {
        let truncated = |line: &str, cut: usize| {
            assert!(
                decode_frame(&line[..cut]).is_err(),
                "a frame cut at byte {cut} of {} decoded",
                line.len()
            );
        };
        for cut in 0..WIDE.len() {
            truncated(WIDE, cut);
        }
        // A table dump's frame. Decoding a prefix costs its length, so
        // every prefix of a 260 KB line would be quadratic (minutes in a
        // debug build). The cuts are every byte of the first two mods and
        // of the frame's last 64 bytes, and one every 1 021 bytes between:
        // 1 021 is prime to every mod's length, so those ~250 cuts fall at
        // offsets spread over the whole text of a mod.
        let dump = encode_apply(1, &overlay_batch(1280));
        let head = 2 * dump.len() / 1280;
        let tail = dump.len() - 64;
        let cuts = (0..head)
            .chain((head..tail).step_by(1021))
            .chain(tail..dump.len());
        for cut in cuts {
            truncated(&dump, cut);
        }
        // Nesting past MAX_DEPTH inside `mods`, as an unknown member's
        // value and as the list itself, is refused, never recursed into.
        let deep = "[".repeat(sdx_telemetry::json::MAX_DEPTH + 1);
        for mods in [
            format!(r#"[{{"op":"delete","priority":1,"pattern":{{}},"x":{deep}1"#),
            format!("{deep}{}", "]".repeat(sdx_telemetry::json::MAX_DEPTH + 1)),
            "[".repeat(100_000),
        ] {
            let line = format!(r#"{{"seq":1,"batch":{{"epoch":1,"mods":{mods}}}}}"#);
            assert!(
                decode_frame(&line).is_err(),
                "{} bytes of nesting",
                mods.len()
            );
        }
    }

    #[test]
    fn a_5000_entry_sync_frame_roundtrips() {
        let image = overlay_batch(5000);
        let line = encode_sync(3, &image);
        assert_eq!(
            decode_frame(&line).expect("decodes"),
            ChannelFrame::Sync {
                seq: 3,
                batch: image
            }
        );
    }

    #[test]
    fn decode_time_per_mod_does_not_grow_with_the_frame() {
        // Quadratic decoding cost 7 us a mod at 5 mods and 560 us a mod at
        // 1 280 (a table dump's frame). Best of several runs each, so a
        // preempted run does not decide the ratio.
        let per_mod = |n: u32, frames: u32| {
            let line = encode_apply(1, &overlay_batch(n));
            (0..7)
                .map(|_| {
                    let t0 = std::time::Instant::now();
                    for _ in 0..frames {
                        std::hint::black_box(decode_frame(std::hint::black_box(&line)))
                            .expect("decodes");
                    }
                    t0.elapsed().as_secs_f64() / f64::from(frames * n)
                })
                .fold(f64::INFINITY, f64::min)
        };
        let small = per_mod(5, 256);
        let large = per_mod(1280, 1);
        assert!(
            large <= small * 2.0,
            "{:.0} ns per mod at 1280 mods, {:.0} ns at 5",
            large * 1e9,
            small * 1e9
        );
    }

    #[test]
    fn frames_roundtrip_and_acks_carry_errors() {
        let b = sample_batch();
        let line = encode_apply(5, &b);
        match decode_frame(&line).expect("frame") {
            ChannelFrame::Apply { seq, batch } => {
                assert_eq!(seq, 5);
                assert_eq!(batch, b);
            }
            other => panic!("wrong frame: {other:?}"),
        }
        let line = encode_sync(6, &b);
        match decode_frame(&line).expect("frame") {
            ChannelFrame::Sync { seq, batch } => {
                assert_eq!(seq, 6);
                assert_eq!(batch, b);
            }
            other => panic!("wrong frame: {other:?}"),
        }
        assert_eq!(decode_ack(&encode_ack(5, Ok(()))).unwrap(), (5, Ok(())));
        assert_eq!(
            decode_ack(&encode_ack(7, Err("duplicate install"))).unwrap(),
            (7, Err("duplicate install".to_string()))
        );
        assert!(decode_frame("{\"seq\":1}").is_err());
        assert!(decode_frame("not json").is_err());
    }

    #[test]
    fn policy_frames_roundtrip_and_reject_malformed_lines() {
        use sdx_policy::PolicyScope;
        let ops = vec![
            PolicyOpFrame::replace(
                ParticipantId(3),
                PolicyScope::Outbound,
                "match(dstport=80) >> fwd(B)",
            ),
            PolicyOpFrame::install(
                ParticipantId(2),
                PolicyScope::Inbound,
                "match(srcip=0.0.0.0/1) >> fwd(B1)",
            ),
            PolicyOpFrame::retract(ParticipantId(3), PolicyScope::Outbound),
        ];
        let line = encode_policy_frame(11, &ops);
        let (seq, back) = decode_policy_frame(&line).expect("decode");
        assert_eq!(seq, 11);
        assert_eq!(back, ops);
        // Structural rejections: missing body on a non-retract, unknown
        // scope/op kinds, non-JSON.
        assert!(decode_policy_frame("not json").is_err());
        assert!(decode_policy_frame(r#"{"seq":1}"#).is_err());
        assert!(decode_policy_frame(
            r#"{"seq":1,"policy":[{"participant":3,"scope":"out","op":"install"}]}"#
        )
        .is_err());
        assert!(decode_policy_frame(
            r#"{"seq":1,"policy":[{"participant":3,"scope":"sideways","op":"retract"}]}"#
        )
        .is_err());
        assert!(decode_policy_frame(
            r#"{"seq":1,"policy":[{"participant":3,"scope":"out","op":"upsert","dsl":"drop"}]}"#
        )
        .is_err());
    }

    #[test]
    fn sync_and_retire_batches_reflect_the_table() {
        let mut table = FlowTable::new();
        table.install(FlowEntry::new(1, HeaderMatch::any(), vec![vec![]]));
        table.install(FlowEntry::new(
            1 << 30,
            HeaderMatch::of(FieldMatch::TpDst(80)),
            vec![vec![]],
        ));
        let sync = sync_batch(&table, 9);
        assert_eq!(sync.epoch, 9);
        assert_eq!(sync.stats().adds, 2);
        // Applying the sync image to an empty table reproduces it.
        let mut fresh = FlowTable::new();
        fresh.apply_batch(&sync).expect("sync applies");
        assert_eq!(fresh.len(), table.len());

        let retire = retire_batch(&table, 1 << 30, 10);
        assert_eq!(retire.stats().deletes, 1);
        table.apply_batch(&retire).expect("retire applies");
        assert_eq!(table.len(), 1);
    }
}
