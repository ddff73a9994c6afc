//! The message schema of both serving surfaces: every TCP text frame
//! ([`crate::wire`]) and every HTTP JSON body ([`crate::http`]) is
//! declared once below, as an ordered table of typed fields.
//!
//! A row names a field's text key and JSON key (empty when the field
//! exists in one format only) and says how its value is read from the
//! message being rendered and written into the one being decoded. Four
//! walkers serve every table:
//!
//! * [`Message::text`] renders a text frame: the command head, then one
//!   `key value` line per field in table order. A section field (the
//!   job graph, delta ops, spanner edge pairs) closes the frame: a bare
//!   `key` line, then one line per row. An inline message (`busy`,
//!   `err`, `hello`, `ok stats`) carries its one value right after its
//!   head.
//! * [`Message::json`] renders a JSON object, keys in table order unless
//!   the message declares its own JSON order.
//! * [`Message::decode_text`] and [`Message::decode_json`] own the rules
//!   both surfaces share: a missing, unknown or repeated field is a
//!   [`JobError::Protocol`] error, decoded integers narrow with
//!   `try_from`, and a graph may declare no more vertices than the
//!   request's size allows.
//!
//! The README's message reference is generated from these tables.

use std::fmt::Write as _;
use std::time::Duration;

use dsa_core::dist::{VariantInstance, VariantKind};
use dsa_graphs::{io as gio, DiGraph, EdgeSet, EdgeWeights, Graph};
use dsa_runtime::json::Json;

use crate::graphs::{
    valid_graph_id, DeltaOp, EdgeRole, GraphCreated, GraphMeta, GraphPatched, GraphSpannerResult,
    GraphSpec,
};
use crate::job::{JobError, JobResponse, JobSpec};

/// Cap applied to a request's `shards` value at decode time. The engine
/// already clamps its shard count to `max(64, cores)`, so any value at
/// or above the cap keeps its meaning ("as wide as the machine
/// allows") while a hostile `shards 2^63` cannot be truncated by the
/// `u64 -> usize` conversion on 32-bit targets. Shard count is
/// execution policy, never job identity, so the cap cannot change
/// response bytes.
pub(crate) const MAX_SHARDS: u64 = 1 << 16;

/// Vertex count every request may declare regardless of its size, so
/// sparse graphs over large id spaces (mostly isolated vertices) stay
/// servable.
pub(crate) const MIN_VERTEX_ALLOWANCE: u64 = 1 << 20;

/// Key of the graph-id field, and of the `id` line that names the
/// graph of a text request (HTTP carries it in the path).
const ID: &str = "id";

fn proto(message: impl Into<String>) -> JobError {
    JobError::Protocol(message.into())
}

fn invalid(name: &str, expected: &str) -> JobError {
    proto(format!("invalid `{name}`: expected {expected}"))
}

/// How one field's value is read from the message being rendered (the
/// first function) and written into the one being decoded (the second).
pub(crate) enum Ty<T: ?Sized + 'static, D: 'static> {
    /// An integer.
    U64(fn(&T) -> u64, fn(&mut D, u64)),
    /// An integer, rendered only when present.
    OptU64(fn(&T) -> Option<u64>, fn(&mut D, u64)),
    /// A count or size.
    Usize(fn(&T) -> usize, fn(&mut D, usize)),
    /// `0`/`1` in text, `false`/`true` in JSON.
    Bool(fn(&T) -> bool, fn(&mut D, bool)),
    /// A 64-bit key as 16 hex digits (a string in JSON).
    Key(fn(&T) -> u64, fn(&mut D, u64)),
    /// A problem variant by name.
    Variant(fn(&T) -> VariantKind, fn(&mut D, VariantKind)),
    /// A graph id: 1-64 characters from `[a-zA-Z0-9._-]`.
    GraphId(fn(&T) -> &str, fn(&mut D, String)),
    /// Free text: one line in a text frame (newlines become spaces), a
    /// bare key when empty.
    Str(fn(&T) -> &str, fn(&mut D, String)),
    /// An optional count: `none` in text, `null` in JSON.
    Count(fn(&T) -> Option<usize>, fn(&mut D, Option<usize>)),
    /// The length of the list field that follows, checked on decode.
    Len(fn(&T) -> usize),
    /// Edge ids, space-separated in text (`key ` when empty).
    Ids(fn(&T) -> &[usize], fn(&mut D, Vec<usize>)),
    /// Edge ids held as a set, rendered only when present.
    IdSet(fn(&T) -> Option<&EdgeSet>, fn(&mut D, Vec<usize>)),
    /// Section of `u v` endpoint pairs (`[u, v]` rows in JSON).
    Pairs(fn(&T) -> &[(usize, usize)], fn(&mut D, Vec<(usize, usize)>)),
    /// Section holding the job graph: a `dsa_graphs::io` edge list in
    /// text, `{"n": .., "edges": [[u, v(, w)], ..]}` in JSON.
    Graph(
        fn(&T) -> &VariantInstance,
        fn(&mut D, GraphInput<'_>) -> Result<(), JobError>,
    ),
    /// Delta ops, in order: with `None`, a text section of
    /// `+ u v [weight|role]` and `- u v` lines; with `Some(insert)`,
    /// only the insert (or delete) ops as JSON rows, omitted when there
    /// are none.
    Ops(Option<bool>, fn(&T) -> &[DeltaOp], fn(&mut D, Vec<DeltaOp>)),
}

use Ty::*;

/// One row of a message table.
pub(crate) struct Field<T: ?Sized + 'static, D: 'static> {
    /// Key in the text frame; empty when the field is JSON-only.
    text: &'static str,
    /// Key in the JSON body; empty when the field is text-only.
    json: &'static str,
    /// Whether a decoder accepts the field's absence.
    optional: bool,
    ty: Ty<T, D>,
}

const fn req<T: ?Sized, D>(text: &'static str, json: &'static str, ty: Ty<T, D>) -> Field<T, D> {
    Field {
        text,
        json,
        optional: false,
        ty,
    }
}

const fn opt<T: ?Sized, D>(text: &'static str, json: &'static str, ty: Ty<T, D>) -> Field<T, D> {
    Field {
        optional: true,
        ..req(text, json, ty)
    }
}

const fn graph_id<T: ?Sized, D>(get: fn(&T) -> &str, set: fn(&mut D, String)) -> Field<T, D> {
    req(ID, ID, GraphId(get, set))
}

/// A row whose value is the message's own field `$path`: read by value,
/// or by reference for the string and list types.
macro_rules! row {
    ($need:ident, $ty:ident, $text:literal, $json:literal, $($path:ident).+) => {
        $need($text, $json, $ty(|r| row!(@get $ty, r.$($path).+), |d, x| d.$($path).+ = x))
    };
    (@get Ids, $e:expr) => { &$e };
    (@get Pairs, $e:expr) => { &$e };
    (@get $ty:ident, $e:expr) => { $e };
}

/// Where a text frame carries its fields.
#[derive(Clone, Copy, PartialEq)]
enum Layout {
    /// One `key value` line each, after the head.
    Lines,
    /// The one field's value right after the head.
    Inline,
    /// After an `id <graph>` line naming the graph addressed.
    Named,
}

/// One message: its text head and its field table.
pub(crate) struct Message<T: ?Sized + 'static, D: 'static = T> {
    layout: Layout,
    /// The text frame's command line (an inline value follows directly).
    head: &'static str,
    fields: &'static [Field<T, D>],
    /// JSON key order as indices into `fields`; empty for table order.
    json_order: &'static [usize],
}

impl<T: ?Sized, D: Default> Message<T, D> {
    const fn new(layout: Layout, head: &'static str, fields: &'static [Field<T, D>]) -> Self {
        Message {
            layout,
            head,
            fields,
            json_order: &[],
        }
    }

    /// Renders `value` as a text frame.
    pub(crate) fn text(&self, value: &T) -> String {
        self.render_text(None, value)
    }

    /// Renders `value` as a text frame addressed to graph `id`.
    pub(crate) fn text_for(&self, id: &str, value: &T) -> String {
        self.render_text(Some(id), value)
    }

    fn render_text(&self, id: Option<&str>, value: &T) -> String {
        let lines = self.layout != Layout::Inline;
        let mut out = String::from(self.head);
        if lines {
            out.push('\n');
        }
        if let Some(id) = id {
            let _ = writeln!(out, "{ID} {id}");
        }
        for field in self.fields.iter().filter(|f| !f.text.is_empty()) {
            if let Graph(get, _) = field.ty {
                let _ = writeln!(out, "{}", field.text);
                out.push_str(&edge_list(get(value)));
                continue;
            }
            let Some(v) = field.ty.value(value) else {
                continue;
            };
            if lines {
                out.push_str(field.text);
            }
            if field.ty.is_section() {
                out.push('\n');
                write_rows(&v, &mut out);
                continue;
            }
            if lines && !matches!(&v, Json::Str(s) if s.is_empty()) {
                out.push(' ');
            }
            write_text(&v, &mut out);
            out.push('\n');
        }
        out
    }

    /// Renders `value` as a JSON object.
    pub(crate) fn json(&self, value: &T) -> String {
        let ordered: Vec<&Field<T, D>> = match self.json_order {
            [] => self.fields.iter().collect(),
            order => order.iter().filter_map(|&i| self.fields.get(i)).collect(),
        };
        let pairs = ordered
            .into_iter()
            .filter(|f| !f.json.is_empty())
            .filter_map(|f| Some((f.json.to_string(), f.ty.value(value)?)))
            .collect();
        Json::Obj(pairs).encode()
    }

    /// Decodes a text frame into the graph id it names (empty unless the
    /// message is addressed to a graph) and its value; `None` when the
    /// frame is another message.
    pub(crate) fn decode_text(&self, payload: &str) -> Option<Result<(String, D), JobError>> {
        let body = match payload.split_once('\n').unwrap_or((payload, "")) {
            _ if self.layout == Layout::Inline => payload.strip_prefix(self.head)?,
            (head, body) if head.trim_end() == self.head => body,
            _ => return None,
        };
        Some(self.decode_lines(body, payload.len()))
    }

    fn decode_lines(&self, mut body: &str, len: usize) -> Result<(String, D), JobError> {
        let mut raws = vec![None; self.fields.len()];
        if self.layout == Layout::Inline {
            let value = body.lines().next().unwrap_or("").trim_end();
            if let Some(slot) = raws.first_mut() {
                *slot = Some(Raw::Text(value));
            }
            body = "";
        }
        let mut id = String::new();
        while !body.is_empty() {
            let (line, rest) = body.split_once('\n').unwrap_or((body, ""));
            body = rest;
            let line = line.trim();
            let (key, value) = line.split_once(' ').unwrap_or((line, ""));
            if key.is_empty() {
                continue;
            }
            if self.layout == Layout::Named && id.is_empty() {
                if key != ID {
                    return Err(proto(format!("expected `{ID} <graph>`, got `{line}`")));
                }
                id = graph_id_value(value.trim())?;
                continue;
            }
            let i = self.position(key, |f| f.text)?;
            let section = self.fields.get(i).is_some_and(|f| f.ty.is_section());
            if section && !value.is_empty() {
                return Err(proto(format!("`{key}` opens a section and takes no value")));
            }
            store(
                &mut raws,
                i,
                key,
                Raw::Text(if section { rest } else { value.trim() }),
            )?;
            if section {
                break;
            }
        }
        if self.layout == Layout::Named && id.is_empty() {
            return Err(proto(format!("missing `{ID}`")));
        }
        Ok((id, self.decode_fields(raws, |f| f.text, len)?))
    }

    /// Decodes a JSON body.
    pub(crate) fn decode_json(&self, body: &[u8]) -> Result<D, JobError> {
        let text = std::str::from_utf8(body).map_err(|_| proto("body is not UTF-8"))?;
        let v = Json::parse(text).map_err(|e| proto(format!("bad JSON: {e}")))?;
        let pairs = v
            .as_obj()
            .ok_or_else(|| proto("body must be a JSON object"))?;
        let mut raws = vec![None; self.fields.len()];
        for (key, value) in pairs {
            store(
                &mut raws,
                self.position(key, |f| f.json)?,
                key,
                Raw::Json(value),
            )?;
        }
        self.decode_fields(raws, |f| f.json, body.len())
    }

    fn position(&self, key: &str, name: KeyOf<T, D>) -> Result<usize, JobError> {
        self.fields
            .iter()
            .position(|f| !key.is_empty() && name(f) == key)
            .ok_or_else(|| proto(format!("unknown field `{key}`")))
    }

    /// Writes every field present into a fresh value, in table order
    /// (so the section, last in every table, sees all the others), and
    /// fails on the first required field that is absent.
    fn decode_fields(
        &self,
        raws: Vec<Option<Raw<'_>>>,
        key: KeyOf<T, D>,
        len: usize,
    ) -> Result<D, JobError> {
        let mut d = D::default();
        let mut declared = None;
        for (field, raw) in self.fields.iter().zip(raws) {
            let name = key(field);
            match raw {
                Some(raw) => field.ty.decode(&mut d, raw, name, &mut declared, len)?,
                None if field.optional || name.is_empty() => {}
                None => return Err(proto(format!("missing `{name}`"))),
            }
        }
        Ok(d)
    }
}

/// Picks a field's key in one format.
type KeyOf<T, D> = fn(&Field<T, D>) -> &'static str;

/// Parks `raw` in slot `i`, once.
fn store<'a>(
    raws: &mut [Option<Raw<'a>>],
    i: usize,
    key: &str,
    raw: Raw<'a>,
) -> Result<(), JobError> {
    match raws.get_mut(i) {
        Some(slot @ None) => *slot = Some(raw),
        _ => return Err(proto(format!("repeated field `{key}`"))),
    }
    Ok(())
}

/// Writes a value as text: numbers as digits, booleans as `0`/`1`,
/// null as `none`, strings on one line, an array's items
/// space-separated.
fn write_text(v: &Json, out: &mut String) {
    match v {
        Json::U64(x) => {
            let _ = write!(out, "{x}");
        }
        Json::Bool(b) => out.push(if *b { '1' } else { '0' }),
        Json::Str(s) => out.push_str(&s.replace('\n', " ")),
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                write_text(item, out);
            }
        }
        _ => out.push_str("none"),
    }
}

/// Writes a section's rows, one line each.
fn write_rows(v: &Json, out: &mut String) {
    for row in v.as_arr().unwrap_or_default() {
        write_text(row, out);
        out.push('\n');
    }
}

/// The job graph as a `dsa_graphs::io` edge list: its `# n <count>`
/// header, then one `u v` (`u v w`) line per edge.
fn edge_list(instance: &VariantInstance) -> String {
    match instance {
        VariantInstance::Undirected { graph } | VariantInstance::ClientServer { graph, .. } => {
            gio::to_edge_list(graph, None)
        }
        VariantInstance::Weighted { graph, weights } => gio::to_edge_list(graph, Some(weights)),
        VariantInstance::Directed { graph } => gio::to_directed_edge_list(graph),
    }
}

/// One field's undecoded value, in whichever format carried it.
#[derive(Clone, Copy)]
enum Raw<'a> {
    Text(&'a str),
    Json(&'a Json),
}

impl<'a> Raw<'a> {
    fn u64(self, name: &str) -> Result<u64, JobError> {
        match self {
            Raw::Text(s) => s.trim().parse().ok(),
            Raw::Json(j) => j.as_u64(),
        }
        .ok_or_else(|| invalid(name, "a non-negative integer"))
    }

    fn usize(self, name: &str) -> Result<usize, JobError> {
        usize::try_from(self.u64(name)?).map_err(|_| invalid(name, "a count this platform holds"))
    }

    fn bool(self, name: &str) -> Result<bool, JobError> {
        match self {
            Raw::Text("0") => Some(false),
            Raw::Text("1") => Some(true),
            Raw::Text(_) => None,
            Raw::Json(j) => j.as_bool(),
        }
        .ok_or_else(|| invalid(name, "0 or 1 (true or false in JSON)"))
    }

    fn str(self, name: &str) -> Result<&'a str, JobError> {
        match self {
            Raw::Text(s) => Some(s),
            Raw::Json(j) => j.as_str(),
        }
        .ok_or_else(|| invalid(name, "a string"))
    }

    /// A list's items: whitespace-separated words in text, array items
    /// in JSON.
    fn items(self, name: &str) -> Result<Vec<Raw<'a>>, JobError> {
        match self {
            Raw::Text(s) => Ok(s.split_whitespace().map(Raw::Text).collect()),
            Raw::Json(j) => j
                .as_arr()
                .map(|items| items.iter().map(Raw::Json).collect())
                .ok_or_else(|| invalid(name, "an array")),
        }
    }

    fn ids(self, name: &str) -> Result<Vec<usize>, JobError> {
        self.items(name)?
            .into_iter()
            .map(|r| r.usize(name))
            .collect()
    }

    /// A section's rows: its non-blank, non-`#` lines in text, the items
    /// of an array in JSON; each split into its items.
    fn rows(self, name: &str) -> Result<Vec<Vec<Raw<'a>>>, JobError> {
        let rows = match self {
            Raw::Text(s) => s
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(Raw::Text)
                .collect(),
            json => json.items(name)?,
        };
        rows.into_iter().map(|row| row.items(name)).collect()
    }
}

impl<T: ?Sized, D> Ty<T, D> {
    fn is_section(&self) -> bool {
        matches!(self, Pairs(..) | Graph(..) | Ops(None, ..))
    }

    /// The field's value as JSON, which the text frame renders too;
    /// `None` when the field is omitted.
    fn value(&self, value: &T) -> Option<Json> {
        let ids = |ids: &mut dyn Iterator<Item = usize>| Json::Arr(ids.map(num).collect());
        Some(match self {
            U64(get, _) => Json::U64(get(value)),
            OptU64(get, _) => Json::U64(get(value)?),
            Usize(get, _) | Len(get) => num(get(value)),
            Bool(get, _) => Json::Bool(get(value)),
            Key(get, _) => Json::Str(format!("{:016x}", get(value))),
            Variant(get, _) => Json::Str(get(value).to_string()),
            GraphId(get, _) | Str(get, _) => Json::Str(get(value).to_string()),
            Count(get, _) => get(value).map_or(Json::Null, num),
            Ids(get, _) => ids(&mut get(value).iter().copied()),
            IdSet(get, _) => ids(&mut get(value)?.iter()),
            Pairs(get, _) => Json::Arr(get(value).iter().map(|&(u, v)| pair(u, v)).collect()),
            Graph(get, _) => graph_json(get(value)),
            Ops(part, get, _) => {
                let rows: Vec<Json> = get(value).iter().filter_map(|o| op_row(o, *part)).collect();
                if part.is_some() && rows.is_empty() {
                    return None;
                }
                Json::Arr(rows)
            }
        })
    }

    /// Decodes `raw` into `d`. A [`Len`] value waits in `declared` for
    /// the list it counts; `len` is the request size the graph's vertex
    /// bound derives from.
    fn decode(
        &self,
        d: &mut D,
        raw: Raw<'_>,
        name: &'static str,
        declared: &mut Option<(&'static str, usize)>,
        len: usize,
    ) -> Result<(), JobError> {
        let mut counted = |listed: usize| match declared.take() {
            Some((len_name, n)) if n != listed => Err(proto(format!(
                "`{len_name}` {n} does not match the {listed} listed"
            ))),
            _ => Ok(()),
        };
        match self {
            U64(_, set) | OptU64(_, set) => set(d, raw.u64(name)?),
            Usize(_, set) => set(d, raw.usize(name)?),
            Bool(_, set) => set(d, raw.bool(name)?),
            Key(_, set) => set(
                d,
                u64::from_str_radix(raw.str(name)?, 16)
                    .map_err(|_| invalid(name, "16 hex digits"))?,
            ),
            Variant(_, set) => set(d, raw.str(name)?.parse().map_err(JobError::Protocol)?),
            GraphId(_, set) => set(d, graph_id_value(raw.str(name)?)?),
            Str(_, set) => set(d, raw.str(name)?.to_string()),
            Count(_, set) => set(
                d,
                match raw {
                    Raw::Text("none") | Raw::Json(Json::Null) => None,
                    raw => Some(raw.usize(name)?),
                },
            ),
            Len(_) => *declared = Some((name, raw.usize(name)?)),
            Ids(_, set) | IdSet(_, set) => {
                let ids = raw.ids(name)?;
                counted(ids.len())?;
                set(d, ids);
            }
            Pairs(_, set) => {
                let pairs: Vec<(usize, usize)> = raw
                    .rows(name)?
                    .iter()
                    .map(|row| match row.as_slice() {
                        [u, v] => Ok((u.usize(name)?, v.usize(name)?)),
                        _ => Err(invalid(name, "[u, v] endpoint pairs")),
                    })
                    .collect::<Result<_, _>>()?;
                counted(pairs.len())?;
                set(d, pairs);
            }
            Graph(_, set) => set(d, GraphInput::decode(raw, name, len)?)?,
            Ops(part, _, set) => set(d, decode_ops(raw, name, *part)?),
        }
        Ok(())
    }
}

fn num(x: usize) -> Json {
    Json::U64(x as u64)
}

fn pair(u: usize, v: usize) -> Json {
    Json::Arr(vec![num(u), num(v)])
}

fn graph_id_value(id: &str) -> Result<String, JobError> {
    if !valid_graph_id(id) {
        return Err(proto(format!(
            "invalid graph id `{id}` (1-64 characters from [a-zA-Z0-9._-])"
        )));
    }
    Ok(id.to_string())
}

/// One delta op as a row: `[u, v]`, `[u, v, w]` or `[u, v, "role"]`,
/// led by its `+`/`-` sign in a text section (`part` is `None`); for a
/// JSON list (`part` is `Some(insert)`), only the ops of that kind.
fn op_row(op: &DeltaOp, part: Option<bool>) -> Option<Json> {
    let (insert, mut row) = match *op {
        DeltaOp::Insert { u, v, weight, role } => {
            let role = role.map(|r| Json::Str(r.as_str().to_string()));
            let row = [num(u), num(v)].into_iter().chain(weight.map(Json::U64));
            (true, row.chain(role).collect())
        }
        DeltaOp::Delete { u, v } => (false, vec![num(u), num(v)]),
    };
    match part {
        None => row.insert(0, Json::Str(if insert { "+" } else { "-" }.to_string())),
        Some(kind) if kind != insert => return None,
        Some(_) => {}
    }
    Some(Json::Arr(row))
}

/// Decodes delta-op rows (see [`op_row`]). A third insert operand is a
/// weight when it is a number (all digits in text) and a role
/// otherwise, so decoding needs no variant knowledge — the registry
/// validates variant fit.
fn decode_ops(raw: Raw<'_>, name: &str, part: Option<bool>) -> Result<Vec<DeltaOp>, JobError> {
    let decode = |row: &[Raw<'_>]| -> Option<DeltaOp> {
        let (insert, fields) = match (part, row) {
            (Some(insert), fields) => (insert, fields),
            (None, [Raw::Text("+"), fields @ ..]) => (true, fields),
            (None, [Raw::Text("-"), fields @ ..]) => (false, fields),
            _ => return None,
        };
        let (u, v, extra) = match fields {
            [u, v] => (u.usize(name).ok()?, v.usize(name).ok()?, None),
            [u, v, extra] if insert => (u.usize(name).ok()?, v.usize(name).ok()?, Some(*extra)),
            _ => return None,
        };
        let (weight, role) = match extra {
            _ if !insert => return Some(DeltaOp::Delete { u, v }),
            None => (None, None),
            Some(Raw::Json(Json::U64(w))) => (Some(*w), None),
            Some(Raw::Text(w)) if w.bytes().all(|b| b.is_ascii_digit()) => {
                (Some(w.parse().ok()?), None)
            }
            Some(role) => (None, Some(EdgeRole::parse(role.str(name).ok()?)?)),
        };
        Some(DeltaOp::Insert { u, v, weight, role })
    };
    let expected = match part {
        None => "`+ u v [weight|client|server|both]` or `- u v` lines",
        Some(true) => "[u, v], [u, v, w] or [u, v, \"client|server|both\"] rows",
        Some(false) => "[u, v] rows",
    };
    raw.rows(name)?
        .iter()
        .map(|row| decode(row).ok_or_else(|| invalid(name, expected)))
        .collect()
}

/// Parses a block of delta-op lines — `+ u v [weight|client|server|both]`
/// inserts, `- u v` deletes; blank lines and `#` comments are skipped.
/// Shared by the `graph-patch` frame and `spanner-cli graph patch`.
pub fn parse_delta_ops(text: &str) -> Result<Vec<DeltaOp>, JobError> {
    decode_ops(Raw::Text(text), "ops", None)
}

/// Builds a `kind` instance from an edge list and, for the
/// client-server variant, its whitespace-separated client and server
/// edge-id lists: the run request's graph decoder, shared with
/// `spanner-cli`.
pub fn parse_instance(
    kind: VariantKind,
    edges: &str,
    clients: Option<&str>,
    servers: Option<&str>,
) -> Result<VariantInstance, JobError> {
    let ids = |list: Option<&str>, name| list.map(|l| Raw::Text(l).ids(name)).transpose();
    let mut draft = RunDraft {
        kind,
        clients: ids(clients, "clients")?,
        servers: ids(servers, "servers")?,
        ..RunDraft::default()
    };
    draft.set_graph(GraphInput::Text(edges))?;
    Ok(draft.spec.instance)
}

fn edge_set(ids: Vec<usize>, universe: usize) -> Result<EdgeSet, JobError> {
    let mut set = EdgeSet::new(universe);
    for id in ids {
        if id >= universe {
            return Err(proto(format!(
                "edge id {id} out of range for {universe} edges"
            )));
        }
        set.insert(id);
    }
    Ok(set)
}

/// Vertex-count key of the JSON job graph.
const GRAPH_N: &str = "n";
/// Edge-rows key of the JSON job graph.
const GRAPH_EDGES: &str = "edges";

fn graph_json(instance: &VariantInstance) -> Json {
    let rows = match instance {
        VariantInstance::Directed { graph } => graph.edges().map(|(_, u, v)| pair(u, v)).collect(),
        VariantInstance::Weighted { graph, weights } => graph
            .edges()
            .map(|(e, u, v)| Json::Arr(vec![num(u), num(v), Json::U64(weights.get(e))]))
            .collect(),
        VariantInstance::Undirected { graph } | VariantInstance::ClientServer { graph, .. } => {
            graph.edges().map(|(_, u, v)| pair(u, v)).collect()
        }
    };
    Json::Obj(vec![
        (GRAPH_N.to_string(), num(instance.num_vertices())),
        (GRAPH_EDGES.to_string(), Json::Arr(rows)),
    ])
}

/// A job graph as decoded from either format, before the variant picks
/// its parser — the same [`dsa_graphs::io`] normalization runs under
/// both, so one edge set maps to one canonical job whichever surface
/// carried it.
pub(crate) enum GraphInput<'a> {
    /// A `dsa_graphs::io` edge list.
    Text(&'a str),
    /// A vertex count and `[u, v]` / `[u, v, w]` rows.
    Rows(usize, Vec<Vec<u64>>),
}

impl<'a> GraphInput<'a> {
    /// Decodes the graph section, rejecting a declared vertex count
    /// above `max(2 * len + 1024,` [`MIN_VERTEX_ALLOWANCE`]`)` for a
    /// request of `len` bytes: the body bounds bytes, but `Graph::new(n)`
    /// allocates per declared vertex, so a ~60-byte request must not
    /// demand gigabytes. Every non-isolated vertex occupies at least one
    /// byte of some edge, and the absolute allowance keeps sparse graphs
    /// over large id spaces servable.
    fn decode(raw: Raw<'a>, name: &str, len: usize) -> Result<Self, JobError> {
        let limit = (2 * len as u64 + 1024).max(MIN_VERTEX_ALLOWANCE);
        let bounded = |n: u64| match n > limit {
            true => Err(proto(format!(
                "declared vertex count {n} exceeds the request-size bound {limit}"
            ))),
            false => Ok(n),
        };
        let graph = match raw {
            Raw::Text(text) => {
                declared_vertices(text).map(bounded).transpose()?;
                return Ok(GraphInput::Text(text));
            }
            Raw::Json(j) => j.as_obj().ok_or_else(|| invalid(name, "an object"))?,
        };
        if let Some((key, _)) = graph.iter().find(|(k, _)| k != GRAPH_N && k != GRAPH_EDGES) {
            return Err(proto(format!("unknown field `{name}.{key}`")));
        }
        let member = |key: &str| {
            let mut values = graph
                .iter()
                .filter(|(k, _)| k == key)
                .map(|(_, v)| Raw::Json(v));
            match (values.next(), values.next()) {
                (Some(v), None) => Ok(v),
                (None, _) => Err(proto(format!("missing `{name}.{key}`"))),
                _ => Err(proto(format!("repeated field `{name}.{key}`"))),
            }
        };
        let n = member(GRAPH_N)?;
        bounded(n.u64(GRAPH_N)?)?;
        let rows = match member(GRAPH_EDGES)? {
            Raw::Json(Json::Arr(rows)) => rows
                .iter()
                .map(|row| row.as_arr()?.iter().map(Json::as_u64).collect())
                .collect::<Option<_>>(),
            _ => None,
        };
        let rows = rows.ok_or_else(|| invalid(GRAPH_EDGES, "rows of non-negative integers"))?;
        Ok(GraphInput::Rows(n.usize(GRAPH_N)?, rows))
    }

    fn graph(&self) -> Result<(Graph, Option<EdgeWeights>), JobError> {
        match self {
            GraphInput::Text(text) => gio::parse_edge_list(text),
            GraphInput::Rows(n, rows) => gio::edge_rows_to_graph(*n, rows),
        }
        .map_err(|e| proto(format!("bad graph: {e}")))
    }

    fn digraph(&self) -> Result<DiGraph, JobError> {
        match self {
            GraphInput::Text(text) => gio::parse_directed_edge_list(text),
            GraphInput::Rows(n, rows) => gio::edge_rows_to_digraph(*n, rows),
        }
        .map_err(|e| proto(format!("bad graph: {e}")))
    }
}

/// The vertex count an edge list declares: its first `# n <count>`
/// comment, as the io parser reads it (an unparseable count is left to
/// the parser's error).
fn declared_vertices(text: &str) -> Option<u64> {
    text.lines()
        .filter_map(|line| line.trim().strip_prefix('#'))
        .find_map(|comment| {
            let mut words = comment.split_whitespace();
            match (words.next(), words.next(), words.next()) {
                (Some("n"), Some(count), None) => Some(count.parse().ok()),
                _ => None,
            }
        })
        .flatten()
}

/// A run request mid-decode: the spec, plus the variant and the
/// client-server edge-id lists that the graph section, decoded last,
/// turns into the instance.
pub(crate) struct RunDraft {
    pub(crate) spec: JobSpec,
    kind: VariantKind,
    clients: Option<Vec<usize>>,
    servers: Option<Vec<usize>>,
}

impl Default for RunDraft {
    fn default() -> RunDraft {
        let empty = VariantInstance::Undirected {
            graph: Graph::new(0),
        };
        RunDraft {
            spec: JobSpec::new(empty, 0),
            kind: VariantKind::default(),
            clients: None,
            servers: None,
        }
    }
}

impl std::ops::Deref for RunDraft {
    type Target = JobSpec;

    fn deref(&self) -> &JobSpec {
        &self.spec
    }
}

impl std::ops::DerefMut for RunDraft {
    fn deref_mut(&mut self) -> &mut JobSpec {
        &mut self.spec
    }
}

impl RunDraft {
    fn set_graph(&mut self, input: GraphInput<'_>) -> Result<(), JobError> {
        let kind = self.kind;
        let unweighted = |(graph, weights): (Graph, Option<EdgeWeights>)| match weights {
            Some(_) => Err(proto(format!("the {kind} variant takes unweighted edges"))),
            None => Ok(graph),
        };
        self.spec.instance = match (kind, self.clients.take(), self.servers.take()) {
            (VariantKind::ClientServer, Some(clients), Some(servers)) => {
                let graph = unweighted(input.graph()?)?;
                let m = graph.num_edges();
                VariantInstance::ClientServer {
                    clients: edge_set(clients, m)?,
                    servers: edge_set(servers, m)?,
                    graph,
                }
            }
            (VariantKind::ClientServer, ..) => {
                return Err(proto("the client-server variant needs both edge-id lists"))
            }
            (_, Some(_), _) | (_, _, Some(_)) => {
                return Err(proto(
                    "edge-id lists only apply to the client-server variant",
                ))
            }
            (VariantKind::Undirected, ..) => VariantInstance::Undirected {
                graph: unweighted(input.graph()?)?,
            },
            (VariantKind::Weighted, ..) => {
                let (graph, weights) = input.graph()?;
                let weights = weights.ok_or_else(|| proto("the weighted variant needs weights"))?;
                VariantInstance::Weighted { graph, weights }
            }
            (VariantKind::Directed, ..) => VariantInstance::Directed {
                graph: input.digraph()?,
            },
        };
        Ok(())
    }
}

/// The job a graph create carries: the graph's definition, with the
/// execution policy (shards, cancel flag, timing, timeout) stripped —
/// it applies per read, never to what a graph is.
pub(crate) fn graph_job(spec: &GraphSpec) -> JobSpec {
    let mut config = spec.config.clone();
    config.num_shards = 1;
    config.cancel = None;
    config.collect_timings = false;
    JobSpec {
        instance: spec.instance.clone(),
        config,
        timeout: None,
    }
}

/// The graph a decoded create defines. A create carrying execution
/// policy is rejected: a named graph's bytes are a pure function of its
/// definition and delta history.
pub(crate) fn graph_spec(id: String, draft: RunDraft) -> Result<GraphSpec, JobError> {
    let JobSpec {
        instance,
        config,
        timeout,
    } = draft.spec;
    if timeout.is_some() || config.num_shards != 1 {
        return Err(proto(
            "a graph create takes no shard count or timeout: they apply per read",
        ));
    }
    Ok(GraphSpec {
        id,
        instance,
        config,
    })
}

/// Refuses a batch the JSON patch body cannot carry in order: the body
/// lists its inserts, then its deletes.
pub(crate) fn check_json_patch_order(ops: &[DeltaOp]) -> Result<(), JobError> {
    let insert = |op: &&DeltaOp| matches!(op, DeltaOp::Insert { .. });
    if ops.iter().skip_while(insert).any(|op| insert(&op)) {
        return Err(proto(
            "a JSON patch applies its inserts before its deletes; \
             split a batch with an insert after a delete into two patches",
        ));
    }
    Ok(())
}

/// The client and server edge sets of a client-server job.
fn cs(s: &JobSpec) -> Option<(&EdgeSet, &EdgeSet)> {
    match &s.instance {
        VariantInstance::ClientServer {
            clients, servers, ..
        } => Some((clients, servers)),
        _ => None,
    }
}

pub(crate) use messages::*;

/// The message tables, one row per field.
#[rustfmt::skip]
mod messages {
    use super::*;

    /// The run-request fields, shared by `run v1` and `graph-create v2`.
    const RUN_FIELDS: &[Field<JobSpec, RunDraft>] = &[
        req("variant", "variant", Variant(|s| s.instance.kind(), |d, k| d.kind = k)),
        row!(req, U64, "seed", "seed", config.seed),
        row!(opt, U64, "accept-denominator", "accept_denominator", config.accept_denominator),
        row!(opt, Bool, "monotone", "monotone", config.monotone_stars),
        row!(opt, Bool, "round-densities", "round_densities", config.round_densities),
        row!(opt, U64, "max-iterations", "max_iterations", config.max_iterations),
        // Execution policy, omitted at its defaults; shards are capped.
        opt("shards", "shards", OptU64(
            |s| (s.config.num_shards != 1).then_some(s.config.num_shards as u64),
            |d, x| d.config.num_shards = usize::try_from(x.min(MAX_SHARDS)).unwrap_or(1))),
        opt("timeout-ms", "timeout_ms", OptU64(
            |s| s.timeout.map(|t| u64::try_from(t.as_millis()).unwrap_or(u64::MAX)),
            |d, x| d.timeout = Some(Duration::from_millis(x)))),
        opt("clients", "clients", IdSet(|s| cs(s).map(|c| c.0), |d, x| d.clients = Some(x))),
        opt("servers", "servers", IdSet(|s| cs(s).map(|c| c.1), |d, x| d.servers = Some(x))),
        req("graph", "graph", Graph(|s| &s.instance, RunDraft::set_graph)),
    ];

    /// `run v1` / `POST /v1/jobs`: one job. JSON keeps the instance
    /// (graph, then the client-server lists) right after the seed; text
    /// closes with it, the graph section last.
    pub(crate) static RUN: Message<JobSpec, RunDraft> = Message {
        json_order: &[0, 1, 10, 8, 9, 2, 3, 4, 5, 6, 7],
        ..Message::new(Layout::Lines, "run v1", RUN_FIELDS)
    };

    /// `graph-create v2` / `PUT /v1/graphs/{id}`: a run request without
    /// execution policy defines a named graph.
    pub(crate) static GRAPH_CREATE: Message<JobSpec, RunDraft> =
        Message { layout: Layout::Named, head: "graph-create v2", ..RUN };

    /// `graph-patch v2` / `PATCH /v1/graphs/{id}`: edge deltas.
    pub(crate) static GRAPH_PATCH: Message<[DeltaOp], Vec<DeltaOp>> = Message::new(Layout::Named, "graph-patch v2", &[
        req("ops", "", Ops(None, |ops| ops, |d, ops| *d = ops)),
        opt("", "insert", Ops(Some(true), |ops| ops, |d, ops| d.extend(ops))),
        opt("", "delete", Ops(Some(false), |ops| ops, |d, ops| d.extend(ops))),
    ]);

    /// `graph-get v2` / `GET /v1/graphs/{id}`.
    pub(crate) static GRAPH_GET: Message<()> = Message::new(Layout::Named, "graph-get v2", &[]);

    /// `graph-spanner v2` / `GET /v1/graphs/{id}/spanner`.
    pub(crate) static GRAPH_SPANNER: Message<()> = Message::new(Layout::Named, "graph-spanner v2", &[]);

    /// `graph-delete v2` / `DELETE /v1/graphs/{id}`.
    pub(crate) static GRAPH_DELETE: Message<()> = Message::new(Layout::Named, "graph-delete v2", &[]);

    /// `hello vN`: the highest protocol version the client speaks.
    pub(crate) static HELLO: Message<u64> =
        Message::new(Layout::Inline, "hello v", &[req("proto", "", U64(|p| *p, |d, p| *d = p))]);

    /// `stats v1` / `GET /v1/metrics`.
    pub(crate) static STATS: Message<()> = Message::new(Layout::Lines, "stats v1", &[]);

    /// `ping v1` / `GET /healthz`.
    pub(crate) static PING: Message<()> = Message::new(Layout::Lines, "ping v1", &[]);

    /// `ok run` / the `POST /v1/jobs` 200 body: a pure function of the
    /// job, so a cache hit is byte-identical to a cold solve.
    pub(crate) static RUN_OK: Message<JobResponse> = Message::new(Layout::Lines, "ok run", &[
        row!(req, Key, "key", "key", key),
        row!(req, Variant, "variant", "variant", kind),
        row!(req, Bool, "converged", "converged", converged),
        row!(req, U64, "iterations", "iterations", iterations),
        row!(req, U64, "local-rounds", "local_rounds", local_rounds),
        row!(req, U64, "star-fallbacks", "star_fallbacks", star_fallbacks),
        req("spanner-size", "spanner_size", Len(|r| r.spanner.len())),
        row!(req, Ids, "spanner", "spanner", spanner),
    ]);

    /// `ok graph-create` / the `PUT /v1/graphs/{id}` 200 and 201 body.
    pub(crate) static GRAPH_CREATED: Message<GraphCreated> = Message::new(Layout::Lines, "ok graph-create", &[
        graph_id(|r| &r.id, |d, x| d.id = x),
        row!(req, U64, "version", "version", version),
        row!(req, Usize, "edges", "edges", edges),
        row!(req, Usize, "spanner-size", "spanner_size", spanner_size),
        row!(req, Bool, "existed", "existed", existed),
    ]);

    /// `ok graph-patch` / the `PATCH /v1/graphs/{id}` 200 body.
    pub(crate) static GRAPH_PATCHED: Message<GraphPatched> = Message::new(Layout::Lines, "ok graph-patch", &[
        graph_id(|r| &r.id, |d, x| d.id = x),
        row!(req, U64, "version", "version", version),
        row!(req, Usize, "applied", "applied", applied),
        row!(req, U64, "commuted", "commuted", classes.commuted),
        row!(req, U64, "repaired", "repaired", classes.repaired),
        row!(req, U64, "recomputed", "recomputed", classes.recomputed),
        row!(req, Usize, "edges", "edges", edges),
    ]);

    /// `ok graph-get` / the `GET /v1/graphs/{id}` 200 body; no cover size
    /// while the working cover is invalidated.
    pub(crate) static GRAPH_META: Message<GraphMeta> = Message::new(Layout::Lines, "ok graph-get", &[
        graph_id(|r| &r.id, |d, x| d.id = x),
        row!(req, Variant, "variant", "variant", kind),
        row!(req, U64, "version", "version", version),
        row!(req, Usize, "vertices", "vertices", vertices),
        row!(req, Usize, "edges", "edges", edges),
        row!(req, U64, "seed", "seed", seed),
        row!(req, Count, "cover-size", "cover_size", cover_size),
        row!(req, Usize, "debt", "debt", debt),
        row!(req, U64, "commuted", "commuted", classes.commuted),
        row!(req, U64, "repaired", "repaired", classes.repaired),
        row!(req, U64, "recomputed", "recomputed", classes.recomputed),
    ]);

    /// `ok graph-spanner` / the `GET /v1/graphs/{id}/spanner` 200 body:
    /// the maintained spanner as endpoint pairs, a pure function of the
    /// graph's delta history.
    pub(crate) static GRAPH_SPANNER_OK: Message<GraphSpannerResult> = Message::new(Layout::Lines, "ok graph-spanner", &[
        graph_id(|r| &r.id, |d, x| d.id = x),
        row!(req, U64, "version", "version", version),
        row!(req, Key, "key", "key", key),
        row!(req, Variant, "variant", "variant", kind),
        row!(req, Bool, "converged", "converged", converged),
        row!(req, U64, "iterations", "iterations", iterations),
        row!(req, U64, "local-rounds", "local_rounds", local_rounds),
        row!(req, U64, "star-fallbacks", "star_fallbacks", star_fallbacks),
        req("spanner-size", "spanner_size", Len(|r| r.edges.len())),
        row!(req, Pairs, "spanner", "spanner", edges),
    ]);

    /// `ok graph-delete` / the `DELETE /v1/graphs/{id}` 200 body.
    pub(crate) static GRAPH_DELETED: Message<str, String> = Message::new(Layout::Lines, "ok graph-delete", &[
        graph_id(|id| id, |d, id| *d = id),
        req("", "deleted", Bool(|_| true, |_, _| {})),
    ]);

    /// `ok hello`: the negotiated version and the server's feature
    /// tokens, space-separated (`graphs` at v2).
    pub(crate) static HELLO_OK: Message<(u64, String)> = Message::new(Layout::Lines, "ok hello", &[
        req("proto", "", U64(|h| h.0, |d, x| d.0 = x)),
        opt("features", "", Str(|h| &h.1, |d, x| d.1 = x)),
    ]);

    /// `ok stats`, then the metrics snapshot as one JSON line.
    pub(crate) static STATS_OK: Message<str, String> =
        Message::new(Layout::Inline, "ok stats\n", &[req("snapshot", "", Str(|s| s, |d, x| *d = x))]);

    /// `ok ping` / the `GET /healthz` body.
    pub(crate) static PONG: Message<()> = Message::new(Layout::Lines, "ok ping", &[
        req("", "status", Str(|_| "ok", |_, _| {})),
    ]);

    /// `busy <ms>`: shed at admission (HTTP: 429 with `Retry-After`);
    /// retrying after the hint is safe.
    pub(crate) static BUSY: Message<u64> =
        Message::new(Layout::Inline, "busy ", &[req("retry-after-ms", "", U64(|ms| *ms, |d, ms| *d = ms))]);

    /// `err <message>` / every HTTP error body: prose that may change,
    /// and in JSON the stable `code` slug of the status table.
    pub(crate) static ERR: Message<(String, String)> = Message::new(Layout::Inline, "err ", &[
        req("message", "error", Str(|e| &e.0, |d, x| d.0 = x)),
        opt("", "code", Str(|e| &e.1, |d, x| d.1 = x)),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{http, wire};

    #[test]
    fn both_surfaces_reject_the_same_malformed_requests() {
        // (what, text frame, JSON body): one decode rule per surface.
        let graph = (
            "graph\n# n 3\n0 1\n1 2\n",
            r#""graph":{"n":3,"edges":[[0,1],[1,2]]}"#,
        );
        let cases = [
            (
                "a repeated field",
                "variant undirected\nseed 1\nseed 2",
                r#""variant":"undirected","seed":1,"seed":2"#,
            ),
            (
                "client ids off client-server",
                "variant undirected\nseed 1\nclients 0",
                r#""variant":"undirected","seed":1,"clients":[0]"#,
            ),
            (
                "server ids off client-server",
                "variant weighted\nseed 1\nservers 1",
                r#""variant":"weighted","seed":1,"servers":[1]"#,
            ),
            (
                "an unknown field",
                "variant directed\nseed 1\nbogus 1",
                r#""variant":"directed","seed":1,"bogus":1"#,
            ),
            (
                "a missing seed",
                "variant undirected",
                r#""variant":"undirected""#,
            ),
            (
                "a narrow-range id",
                "variant client-server\nseed 1\nclients 7\nservers 0",
                r#""variant":"client-server","seed":1,"clients":[7],"servers":[0]"#,
            ),
        ];
        for (what, text, json) in cases {
            let text = format!("run v1\n{text}\n{}", graph.0);
            let json = format!("{{{json},{}}}", graph.1);
            let rejected = |r: Result<JobSpec, JobError>| matches!(r, Err(JobError::Protocol(_)));
            let text_spec = wire::decode_request(text.as_bytes()).map(|r| match r {
                wire::Request::Run(spec) => *spec,
                other => panic!("{other:?}"),
            });
            assert!(
                rejected(text_spec),
                "the text frame with {what} was accepted"
            );
            assert!(
                rejected(http::decode_job_spec(json.as_bytes())),
                "the JSON body with {what} was accepted"
            );
        }
    }

    /// Renders a message table as one row of the README's message
    /// reference.
    trait Reference {
        fn row(&self, note: &str) -> String;
    }

    impl<T: ?Sized, D: Default> Reference for Message<T, D> {
        fn row(&self, note: &str) -> String {
            let frame = match self.layout {
                Layout::Inline => {
                    let value = self.fields.first().map_or("", |f| f.text);
                    format!("`{}<{value}>`", self.head.replace('\n', "⏎"))
                }
                Layout::Named => format!("`{}` + `{ID} <graph>`", self.head),
                Layout::Lines => format!("`{}`", self.head),
            };
            let fields: Vec<String> = self
                .fields
                .iter()
                .map(|f| {
                    let name = match (f.text, f.json) {
                        (text, json) if text == json => format!("`{text}`"),
                        ("", json) => format!("JSON `{json}`"),
                        (text, "") => format!("`{text}`"),
                        (text, json) => format!("`{text}` / `{json}`"),
                    };
                    let optional = if f.optional { " (optional)" } else { "" };
                    format!("{name}{optional}: {}", f.ty.describe())
                })
                .collect();
            let fields = if note.is_empty() {
                fields.join("; ")
            } else {
                note.to_string()
            };
            format!(
                "| {frame} | {} |",
                if fields.is_empty() { "—" } else { &fields }
            )
        }
    }

    impl<T: ?Sized, D> Ty<T, D> {
        fn describe(&self) -> &'static str {
            match self {
                U64(..) => "integer",
                OptU64(..) => "integer, omitted by default",
                Usize(..) => "count",
                Bool(..) => "`0`/`1` (JSON bool)",
                Key(..) => "16 hex digits",
                Variant(..) => "variant name",
                GraphId(..) => "graph id",
                Str(..) => "text",
                Count(..) => "count or `none` (JSON `null`)",
                Len(..) => "length of the next list",
                Ids(..) | IdSet(..) => "edge ids",
                Pairs(..) => "section of `u v` lines (JSON `[u, v]` rows)",
                Graph(..) => "section: a `# n <count>` edge list (JSON `{\"n\", \"edges\"}`)",
                Ops(None, ..) => "section of `+ u v [weight or role]` / `- u v` lines",
                Ops(Some(true), ..) => {
                    "`[u, v]`, `[u, v, w]`, `[u, v, \"role\"]` rows, applied first"
                }
                Ops(Some(false), ..) => "`[u, v]` rows, applied after the inserts",
            }
        }
    }

    /// The README's message reference, rendered from the tables.
    fn messages_table_markdown() -> String {
        let rows = [
            RUN.row(""),
            GRAPH_CREATE.row("the `run v1` fields; no `shards` or `timeout-ms`"),
            GRAPH_PATCH.row(""),
            GRAPH_GET.row(""),
            GRAPH_SPANNER.row(""),
            GRAPH_DELETE.row(""),
            HELLO.row(""),
            STATS.row(""),
            PING.row(""),
            RUN_OK.row(""),
            GRAPH_CREATED.row(""),
            GRAPH_PATCHED.row(""),
            GRAPH_META.row(""),
            GRAPH_SPANNER_OK.row(""),
            GRAPH_DELETED.row(""),
            HELLO_OK.row(""),
            STATS_OK.row(""),
            PONG.row(""),
            BUSY.row(""),
            ERR.row(""),
        ];
        format!(
            "| Text frame | Fields: `text key` / `JSON key`: type |\n|---|---|\n{}\n",
            rows.join("\n")
        )
    }

    #[test]
    fn readme_message_reference_matches_the_schema() {
        assert_eq!(
            crate::readme_section("messages-table"),
            messages_table_markdown().trim_end_matches('\n'),
            "README message reference is stale; paste the output of \
             messages_table_markdown() between the markers"
        );
    }
}
