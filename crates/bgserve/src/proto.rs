//! The wire protocol: newline-delimited JSON in the same hand-rolled
//! dialect the monitor stream already uses, parsed with
//! [`bench::monitor::parse_json`] — the service adds no dependency and
//! no second parser.
//!
//! Requests (one JSON object per line):
//!
//! ```text
//! {"op":"ping"}
//! {"op":"status"}
//! {"op":"shutdown"}
//! {"op":"submit","kernel":"cnk","mode":"seq+fast+cf",
//!  "nodes":2,"seed":"129","ops":[["compute",9000],["gettid"]],
//!  "faults":{"seed":"7"}}
//! ```
//!
//! `mode` is optional (defaults to the oracle mode). `faults` is
//! optional and either `{"seed":N}` (resolved server-side against the
//! job's machine config, exactly like the bench `--fault-seed` flag)
//! or `{"events":[[at,node,"kind",arg],...]}`.
//!
//! Responses are event lines: `pong`, `status`, `shutting-down`,
//! `error`, and for a submission `accepted` → zero or more `progress`
//! lines (when the submit asked for `progress_cycles`) → optional
//! `telemetry` (an embedded monitor snapshot, renderable by `bgtop`'s
//! code) → `result`.
//!
//! Live-job extensions (all optional on `submit`):
//!
//! ```text
//! {"op":"submit",...,"timeout_cycles":"2000000","timeout_wall_ms":5000,
//!  "progress_cycles":"100000"}
//! {"op":"cancel","job":3}
//! ```
//!
//! `cancel` targets an in-flight job id on any session of the server
//! and answers `{"event":"cancel-ack","job":3,"cancelled":true|false}`
//! (`false`: the job already finished or the id is unknown). A
//! cancelled or timed-out submission still ends with a `result` line —
//! `outcome` is `cancelled`/`timeout`, and the result is **never**
//! memoized in the cache.
//!
//! All u64 values that must survive the round trip exactly (seeds,
//! cycles, digests) are rendered as *strings* — JSON numbers pass
//! through an `f64` in this dialect and would silently lose precision
//! above 2^53. The parser accepts integral numbers, decimal strings,
//! and `0x`-prefixed hex strings everywhere a u64 is expected.

use bench::monitor::Json;
use bgcheck::program::{POp, Program};
use bgcheck::runner::{CheckKernel, Mode, MODES};
use bgsim::fault::{FaultEvent, FaultKind, FaultSchedule, FaultSpec};
use bgsim::telemetry::json_escape;

use crate::cache::CachedResult;

/// Wire protocol version, reported by `pong`.
pub const PROTO_VERSION: u64 = 1;

/// Exact u64 from a JSON value: an integral number (≤ 2^53, the f64
/// exactness bound), a decimal string, or a `0x` hex string.
pub fn parse_u64(v: &Json) -> Option<u64> {
    const EXACT: f64 = (1u64 << 53) as f64;
    match v {
        Json::Num(n) if *n >= 0.0 && *n <= EXACT && n.fract() == 0.0 => Some(*n as u64),
        Json::Str(s) => {
            if let Some(hex) = s.strip_prefix("0x") {
                u64::from_str_radix(hex, 16).ok()
            } else {
                s.parse().ok()
            }
        }
        _ => None,
    }
}

/// `parse_u64` of `obj[key]`, with a field-naming error.
pub fn u64_field(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(parse_u64)
        .ok_or_else(|| format!("missing or non-u64 field {key:?}"))
}

/// Render a u64 the round-trip-exact way.
pub fn u64_json(v: u64) -> String {
    format!("\"{v}\"")
}

/// A parsed client request.
#[derive(Clone, Debug)]
pub enum Request {
    Ping,
    Status,
    Shutdown,
    Submit(SubmitReq),
    /// Cancel an in-flight job by server-assigned id.
    Cancel { job: u64 },
}

/// Live-job knobs on a submission (all optional; the default is the
/// fire-and-forget PR-9 behavior).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LiveReq {
    /// Simulated-cycle budget for the run.
    pub timeout_cycles: Option<u64>,
    /// Wall-clock budget in milliseconds.
    pub timeout_wall_ms: Option<u64>,
    /// Stream a `progress` line every this many simulated cycles.
    pub progress_cycles: Option<u64>,
}

impl LiveReq {
    pub fn is_default(&self) -> bool {
        *self == LiveReq::default()
    }
}

/// A job submission, still in wire terms (faults unresolved).
#[derive(Clone, Debug)]
pub struct SubmitReq {
    pub kernel: CheckKernel,
    pub mode: Mode,
    pub nodes: u32,
    pub seed: u64,
    pub ops: Vec<POp>,
    pub faults: FaultSpec,
    pub live: LiveReq,
}

impl SubmitReq {
    /// Validate and resolve into a runnable [`Program`]. Seeded fault
    /// specs expand against the job's machine config here, so the
    /// cache key always sees the concrete schedule.
    pub fn to_program(&self) -> Result<Program, String> {
        let cfg = bgsim::MachineConfig::nodes(self.nodes).with_seed(self.seed);
        cfg.validate()?;
        let faults = self.faults.resolve(&cfg);
        faults.check_nodes(self.nodes)?;
        Ok(Program {
            nodes: self.nodes,
            seed: self.seed,
            ops: self.ops.clone(),
            faults,
        })
    }
}

fn parse_ops(v: &Json) -> Result<Vec<POp>, String> {
    let arr = v.arr().ok_or("ops must be an array")?;
    if arr.is_empty() {
        return Err("ops must not be empty".to_string());
    }
    if arr.len() > 4096 {
        return Err("ops list too long (max 4096)".to_string());
    }
    arr.iter()
        .enumerate()
        .map(|(i, op)| {
            let parts = op
                .arr()
                .ok_or_else(|| format!("ops[{i}] must be an array"))?;
            let name = parts
                .first()
                .and_then(|p| p.str())
                .ok_or_else(|| format!("ops[{i}] must start with an op name"))?;
            let args = parts[1..]
                .iter()
                .map(|a| parse_u64(a).ok_or_else(|| format!("ops[{i}]: non-u64 argument")))
                .collect::<Result<Vec<u64>, String>>()?;
            POp::from_parts(name, &args)
        })
        .collect()
}

fn parse_faults(v: &Json) -> Result<FaultSpec, String> {
    if let Some(seed) = v.get("seed") {
        return parse_u64(seed)
            .map(FaultSpec::Seed)
            .ok_or_else(|| "faults.seed must be a u64".to_string());
    }
    let Some(events) = v.get("events") else {
        return Err("faults must carry \"seed\" or \"events\"".to_string());
    };
    let arr = events.arr().ok_or("faults.events must be an array")?;
    let mut sched = FaultSchedule::default();
    for (i, ev) in arr.iter().enumerate() {
        let parts = ev
            .arr()
            .filter(|p| p.len() == 4)
            .ok_or_else(|| format!("faults.events[{i}] must be [at,node,kind,arg]"))?;
        let at = parse_u64(&parts[0]).ok_or_else(|| format!("faults.events[{i}]: bad at"))?;
        let node = parse_u64(&parts[1])
            .filter(|n| *n <= u32::MAX as u64)
            .ok_or_else(|| format!("faults.events[{i}]: bad node"))? as u32;
        let kind = parts[2]
            .str()
            .and_then(FaultKind::parse)
            .ok_or_else(|| format!("faults.events[{i}]: unknown kind"))?;
        let arg = parse_u64(&parts[3]).ok_or_else(|| format!("faults.events[{i}]: bad arg"))?;
        sched.push(FaultEvent {
            at,
            node,
            kind,
            arg,
        });
    }
    Ok(FaultSpec::Explicit(sched))
}

/// Parse one request line. Errors are safe to echo back to the client.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = bench::monitor::parse_json(line.trim())?;
    let op = v
        .get("op")
        .and_then(|o| o.str())
        .ok_or("request missing \"op\"")?;
    match op {
        "ping" => Ok(Request::Ping),
        "status" => Ok(Request::Status),
        "shutdown" => Ok(Request::Shutdown),
        "submit" => {
            let kernel = v
                .get("kernel")
                .and_then(|k| k.str())
                .and_then(CheckKernel::from_label)
                .ok_or("submit.kernel must be \"cnk\" or \"fwk\"")?;
            let mode = match v.get("mode").and_then(|m| m.str()) {
                None => MODES[0],
                Some(label) => Mode::from_label(label)
                    .ok_or_else(|| format!("unknown mode label {label:?}"))?,
            };
            let nodes = u64_field(&v, "nodes")?;
            if nodes == 0 || nodes > 1 << 20 {
                return Err(format!("nodes {nodes} out of range"));
            }
            let seed = u64_field(&v, "seed")?;
            let ops = parse_ops(v.get("ops").ok_or("submit missing ops")?)?;
            let faults = match v.get("faults") {
                None => FaultSpec::None,
                Some(f) => parse_faults(f)?,
            };
            let mut live = LiveReq::default();
            for (key, slot) in [
                ("timeout_cycles", &mut live.timeout_cycles),
                ("timeout_wall_ms", &mut live.timeout_wall_ms),
                ("progress_cycles", &mut live.progress_cycles),
            ] {
                if let Some(raw) = v.get(key) {
                    let n =
                        parse_u64(raw).ok_or_else(|| format!("{key} must be a u64 if present"))?;
                    if n == 0 {
                        return Err(format!("{key} must be nonzero if present"));
                    }
                    *slot = Some(n);
                }
            }
            Ok(Request::Submit(SubmitReq {
                kernel,
                mode,
                nodes: nodes as u32,
                seed,
                ops,
                faults,
                live,
            }))
        }
        "cancel" => {
            let job = u64_field(&v, "job")?;
            Ok(Request::Cancel { job })
        }
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Render a submit request line (the client side of `parse_request`).
pub fn submit_line(kernel: CheckKernel, mode: Mode, p: &Program) -> String {
    submit_line_live(kernel, mode, p, LiveReq::default())
}

/// [`submit_line`] with the live-job knobs rendered when present.
pub fn submit_line_live(kernel: CheckKernel, mode: Mode, p: &Program, live: LiveReq) -> String {
    let mut out = format!(
        "{{\"op\":\"submit\",\"kernel\":\"{}\",\"mode\":\"{}\",\"nodes\":{},\"seed\":{},\"ops\":[",
        kernel.label(),
        mode.label(),
        p.nodes,
        u64_json(p.seed)
    );
    for (i, op) in p.ops.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[\"{}\"", op.name()));
        for a in op.args() {
            out.push(',');
            out.push_str(&u64_json(a));
        }
        out.push(']');
    }
    out.push(']');
    if !p.faults.is_empty() {
        out.push_str(",\"faults\":{\"events\":[");
        for (i, ev) in p.faults.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "[{},{},\"{}\",{}]",
                u64_json(ev.at),
                ev.node,
                ev.kind.name(),
                u64_json(ev.arg)
            ));
        }
        out.push_str("]}");
    }
    for (key, val) in [
        ("timeout_cycles", live.timeout_cycles),
        ("timeout_wall_ms", live.timeout_wall_ms),
        ("progress_cycles", live.progress_cycles),
    ] {
        if let Some(n) = val {
            out.push_str(&format!(",\"{key}\":{}", u64_json(n)));
        }
    }
    out.push('}');
    out
}

pub fn cancel_line(job: u64) -> String {
    format!("{{\"op\":\"cancel\",\"job\":{job}}}")
}

/// The reply to a `cancel`: `cancelled` is true iff the job was still
/// in flight and its token was set by this request.
pub fn cancel_ack_line(job: u64, cancelled: bool) -> String {
    format!("{{\"event\":\"cancel-ack\",\"job\":{job},\"cancelled\":{cancelled}}}")
}

/// One streamed progress report for an in-flight job. Cumulative
/// simulated position plus deltas since the previous report, and the
/// profiler's cumulative heat totals (cheap stand-ins for the full
/// snapshot, which still arrives once in the final `telemetry` line).
#[allow(clippy::too_many_arguments)]
pub fn progress_line(
    job: u64,
    cycle: u64,
    events: u64,
    d_cycles: u64,
    d_events: u64,
    live_threads: usize,
    heat_events: u64,
    heat_cycles: u64,
) -> String {
    format!(
        "{{\"event\":\"progress\",\"job\":{job},\"cycle\":{},\"events\":{},\
         \"d_cycles\":{},\"d_events\":{},\"live_threads\":{live_threads},\
         \"heat_events\":{},\"heat_cycles\":{}}}",
        u64_json(cycle),
        u64_json(events),
        u64_json(d_cycles),
        u64_json(d_events),
        u64_json(heat_events),
        u64_json(heat_cycles),
    )
}

pub fn ping_line() -> String {
    "{\"op\":\"ping\"}".to_string()
}

pub fn status_req_line() -> String {
    "{\"op\":\"status\"}".to_string()
}

pub fn shutdown_line() -> String {
    "{\"op\":\"shutdown\"}".to_string()
}

pub fn pong_line() -> String {
    format!("{{\"event\":\"pong\",\"proto\":{PROTO_VERSION}}}")
}

pub fn shutting_down_line() -> String {
    "{\"event\":\"shutting-down\"}".to_string()
}

pub fn error_line(detail: &str) -> String {
    format!(
        "{{\"event\":\"error\",\"detail\":\"{}\"}}",
        json_escape(detail)
    )
}

pub fn accepted_line(job: u64, key_hex: &str) -> String {
    format!("{{\"event\":\"accepted\",\"job\":{job},\"key\":\"{key_hex}\"}}")
}

/// A telemetry event embedding a complete monitor snapshot line (the
/// exact `snapshot_json` shape, so clients can reuse
/// [`bench::monitor::render_snapshot`] on the `snapshot` field).
pub fn telemetry_line(job: u64, snapshot_json: &str) -> String {
    format!("{{\"event\":\"telemetry\",\"job\":{job},\"snapshot\":{snapshot_json}}}")
}

/// The final event of a submission. `paranoid` is `"off"`, `"ok"`, or
/// `"mismatch"`; `cached` tells whether the result came from the cache.
pub fn result_line(
    job: u64,
    r: &CachedResult,
    cached: bool,
    paranoid: &str,
    key_hex: &str,
) -> String {
    format!(
        "{{\"event\":\"result\",\"job\":{job},\"kernel\":\"{}\",\"mode\":\"{}\",\
         \"outcome\":\"{}\",\"final_cycle\":{},\"digest\":\"0x{:016x}\",\
         \"coverage\":\"0x{:016x}\",\"cached\":{cached},\"paranoid\":\"{paranoid}\",\
         \"key\":\"{key_hex}\"}}",
        json_escape(&r.kernel),
        json_escape(&r.mode),
        json_escape(&r.outcome),
        u64_json(r.final_cycle),
        r.digest,
        r.coverage,
    )
}

/// A server-state snapshot for the `status` response.
#[derive(Clone, Copy, Debug, Default)]
pub struct StatusSnapshot {
    pub submitted: u64,
    pub completed: u64,
    pub cache_entries: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub paranoid_checks: u64,
    pub paranoid_failures: u64,
    pub cancelled: u64,
    pub timeouts: u64,
    pub session_drops: u64,
}

pub fn status_line(s: &StatusSnapshot) -> String {
    format!(
        "{{\"event\":\"status\",\"proto\":{PROTO_VERSION},\"submitted\":{},\
         \"completed\":{},\"cache_entries\":{},\"cache_hits\":{},\
         \"cache_misses\":{},\"paranoid_checks\":{},\"paranoid_failures\":{},\
         \"cancelled\":{},\"timeouts\":{},\"session_drops\":{}}}",
        s.submitted,
        s.completed,
        s.cache_entries,
        s.cache_hits,
        s.cache_misses,
        s.paranoid_checks,
        s.paranoid_failures,
        s.cancelled,
        s.timeouts,
        s.session_drops
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgcheck::program::generate;

    #[test]
    fn submit_line_round_trips_generated_programs() {
        for seed in 0..6u64 {
            let p = generate(seed);
            for kernel in CheckKernel::ALL {
                let line = submit_line(kernel, MODES[3], &p);
                let Request::Submit(req) = parse_request(&line).expect("parse") else {
                    panic!("not a submit");
                };
                assert_eq!(req.kernel, kernel);
                assert_eq!(req.mode, MODES[3]);
                let back = req.to_program().expect("resolve");
                assert_eq!(back.nodes, p.nodes);
                assert_eq!(back.seed, p.seed);
                assert_eq!(back.ops, p.ops);
                assert_eq!(back.faults.events, p.faults.events);
            }
        }
    }

    #[test]
    fn big_u64s_survive_the_wire() {
        let mut p = generate(0);
        p.seed = u64::MAX - 1; // would be mangled as a JSON number
        let line = submit_line(CheckKernel::Cnk, MODES[0], &p);
        let Request::Submit(req) = parse_request(&line).unwrap() else {
            panic!("not a submit");
        };
        assert_eq!(req.seed, u64::MAX - 1);
        assert_eq!(parse_u64(&Json::Str("0xff".to_string())), Some(255));
        assert_eq!(parse_u64(&Json::Num(3.5)), None);
        assert_eq!(parse_u64(&Json::Num(-1.0)), None);
    }

    #[test]
    fn malformed_requests_are_errors_not_panics() {
        for bad in [
            "",
            "{",
            "{\"op\":\"warp\"}",
            "{\"op\":\"submit\"}",
            "{\"op\":\"submit\",\"kernel\":\"cnk\",\"nodes\":0,\"seed\":1,\"ops\":[[\"gettid\"]]}",
            "{\"op\":\"submit\",\"kernel\":\"cnk\",\"nodes\":2,\"seed\":1,\"ops\":[]}",
            "{\"op\":\"submit\",\"kernel\":\"cnk\",\"nodes\":2,\"seed\":1,\"ops\":[[\"no-such\",1]]}",
            "{\"op\":\"submit\",\"kernel\":\"cnk\",\"mode\":\"seq+bogus\",\"nodes\":2,\"seed\":1,\"ops\":[[\"gettid\"]]}",
            "{\"op\":\"submit\",\"kernel\":\"cnk\",\"nodes\":2,\"seed\":1,\"ops\":[[\"gettid\"]],\"faults\":{\"events\":[[1,0,\"no-kind\",0]]}}",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn live_knobs_and_cancel_round_trip() {
        let p = generate(1);
        let live = LiveReq {
            timeout_cycles: Some(u64::MAX - 7), // string-rendered: must survive
            timeout_wall_ms: Some(2_500),
            progress_cycles: Some(100_000),
        };
        let line = submit_line_live(CheckKernel::Cnk, MODES[0], &p, live);
        let Request::Submit(req) = parse_request(&line).expect("parse") else {
            panic!("not a submit");
        };
        assert_eq!(req.live, live);
        // Absent knobs stay None, and plain submit_line renders none.
        let plain = submit_line(CheckKernel::Cnk, MODES[0], &p);
        assert!(!plain.contains("timeout"), "{plain}");
        let Request::Submit(req) = parse_request(&plain).expect("parse") else {
            panic!("not a submit");
        };
        assert!(req.live.is_default());
        // Zero budgets are rejected (a 0-cycle timeout would cancel
        // every job before its first event — always a client bug).
        let bad = format!("{},\"timeout_cycles\":0}}", &plain[..plain.len() - 1]);
        assert!(parse_request(&bad).is_err());
        // Cancel round-trips.
        let Request::Cancel { job } = parse_request(&cancel_line(42)).expect("parse") else {
            panic!("not a cancel");
        };
        assert_eq!(job, 42);
        assert!(parse_request("{\"op\":\"cancel\"}").is_err());
        // Progress and ack lines parse as JSON with exact u64s.
        let pl = progress_line(3, u64::MAX, 10, 5, 2, 8, 100, 200);
        let v = bench::monitor::parse_json(&pl).expect("progress parses");
        assert_eq!(v.get("cycle").and_then(parse_u64), Some(u64::MAX));
        assert_eq!(v.path_num(&["live_threads"]), Some(8.0));
        let ack = bench::monitor::parse_json(&cancel_ack_line(3, true)).expect("ack parses");
        assert_eq!(ack.get("cancelled"), Some(&Json::Bool(true)));
    }

    #[test]
    fn fault_seed_requests_resolve_against_the_config() {
        let line = "{\"op\":\"submit\",\"kernel\":\"fwk\",\"nodes\":4,\"seed\":9,\
                    \"ops\":[[\"compute\",1000]],\"faults\":{\"seed\":3}}";
        let Request::Submit(req) = parse_request(line).unwrap() else {
            panic!("not a submit");
        };
        let p = req.to_program().unwrap();
        let cfg = bgsim::MachineConfig::nodes(4).with_seed(9);
        assert_eq!(
            p.faults.events,
            FaultSchedule::from_seed(&cfg, 3).events,
            "seeded faults must resolve exactly like --fault-seed"
        );
    }
}
