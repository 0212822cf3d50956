//! Decode/encode semantics of the JSON codec, pinned across codec swaps.
//!
//! Everything here goes through the public `serde_json::{from_str,
//! from_slice, to_string, to_string_pretty}` only, over the types that
//! actually cross a wire or reach a state dir: `Request`,
//! `Response`/`Payload`, `WireEvent`, `WireStats`, `PlanCacheEntry`, the
//! checkpoint payload (through `encode_checkpoint`/`read_checkpoint`, its
//! wire structs are private) and the calibration snapshot — plus the query
//! `Constraints`, the one decoded type left carrying a `Duration`. The
//! table test renders one `Ok(debug)` / `Err(text)` line per case into
//! `tests/golden/wire_semantics.txt`; that golden was generated with the
//! `Value`-tree codec (commit 23fb5aa) and the typed streaming codec must
//! reproduce it byte for byte — same acceptances, same refusals, same
//! error texts and byte offsets. Regenerating it with `UPDATE_GOLDEN=1`
//! is only legitimate when a decode rule is changed on purpose.

use std::borrow::Cow;
use std::fmt::Debug;
use std::ops::Range;
use std::sync::Arc;

use ml4all_bench::golden::assert_golden;
use ml4all_bench::wire_samples::weights;
use ml4all_core::lang::Constraints;
use ml4all_core::{CalibrationSnapshot, PlanCacheEntry};
use ml4all_dataflow::checkpoint::encode_checkpoint;
use ml4all_dataflow::{
    fnv1a64, read_checkpoint, Checkpoint, CostBreakdown, ExecState, SamplerSnapshot,
    SamplingMethod, UsageMeter,
};
use ml4all_serve::protocol::{
    encode_frame, encode_shared_frame, encode_weights, f64_to_bits_hex, EncodedRow, JobRow,
    JoinedReply, Payload, Request, Response, StatsReply, WireError, WireEvent, WireJob, WireSource,
    WireStats, WireTrain, WireTrained,
};
use proptest::prelude::*;
use serde_json::Value;

/// One real `PlanCacheEntry` as `plancache.json` holds it (three of the
/// eleven costed plans, two of the three speculation estimates).
const ENTRY: &str = include_str!("golden/semantics_plancache_entry.json");

/// `having` constraints as the language's AST derives them: `time` is
/// the one `Duration` a decoded type still carries (it becomes
/// `TrainSpec.time_budget`).
const CONSTRAINTS: &str = r#"{"time":{"secs":0,"nanos":8335175},"epsilon":0.005,"max_iter":4}"#;
const DURATION: &str = r#"{"secs":0,"nanos":8335175}"#;

const CALIBRATION: &str = r#"{"generation":1,"scales":{"io":0.9999999999998355,"cpu":1.0000000000002647,"net":1.0,"overhead":1.0000000000000548},"residuals":[{"key":"LogisticRegression|SGD-lazy-shuffle|local|n16|d6|sparse","factor":1.0000000000001292,"observations":1}],"min_observations":3,"observations":1}"#;

// ---------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------

fn train() -> WireTrain {
    let mut train = WireTrain::new("logistic", WireSource::Registry("adult".into()));
    train.max_iter = Some(4);
    train.epsilon = Some(0.005);
    train.seed = Some(0);
    train.name = Some("g".into());
    train
}

fn joined(weights: &[f64]) -> Response {
    let (numbers, bits) = encode_weights(weights);
    Response::Ok(Payload::Joined(WireTrained {
        job: 7,
        status: "completed".into(),
        name: Some("g".into()),
        plan: Some("SGD-lazy-shuffle".into()),
        iterations: Some(4),
        converged: Some(false),
        sim_time_s: Some(4.008030283097498),
        weights: Some(numbers),
        weights_bits: Some(bits),
        error: None,
    }))
}

/// Floats whose spellings are awkward: signed zeros, whole values on
/// both sides of 1e15, subnormals, the extremes, NaN and the infinities.
const AWKWARD_FLOATS: [f64; 20] = [
    0.5,
    -0.0,
    0.0,
    1.0,
    -3.0,
    1e15,
    999_999_999_999_999.0,
    -1e15,
    1e16,
    1e-7,
    1.5e-300,
    f64::from_bits(1),
    f64::MAX,
    f64::MIN_POSITIVE,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.1 + 0.2,
    123_456_789.25,
    6.02214076e23,
];

fn stats(rows: u64) -> WireStats {
    WireStats {
        tenant: "acme".into(),
        in_flight: 1,
        queued: 2,
        queued_bytes: 300,
        quota_max_in_flight: 4,
        quota_max_queued_bytes: 262_144,
        global_in_flight: 1,
        global_capacity: 8,
        plan_cache_hits: 10,
        plan_cache_misses: 1,
        plan_cache_len: 1,
        checkpoints_written: 0,
        jobs_resumed: 0,
        calibration_generation: Some(3),
        calibration_confidence: Some(0.25),
        replans: 0,
        jobs: (1..=rows)
            .map(|job| WireJob {
                job,
                engine_id: (job % 3 != 0).then_some(job + 100),
                name: (job % 2 == 0).then(|| format!("m{job}")),
                status: ["queued", "running", "completed"][(job % 3) as usize].into(),
            })
            .collect(),
    }
}

fn events() -> Vec<WireEvent> {
    vec![
        WireEvent::SpeculationStarted,
        WireEvent::PlanChosen {
            plan: "SGD-lazy-shuffle".into(),
            estimated_iterations: 4,
            preparation_s: 4.00000133,
            per_iteration_s: 0.002007238274374671,
            total_s: 4.008030283097499,
            cache_hit: false,
            backend: "local".into(),
        },
        WireEvent::Resumed { iteration: 12 },
        WireEvent::Replanned {
            iteration: 9,
            from: "BGD-eager".into(),
            to: "mgd(1000)/shuffle".into(),
            cost_delta: -12.5,
        },
        WireEvent::Progress {
            iteration: 2,
            delta: 3.0115004556367104,
            delta_bits: f64_to_bits_hex(3.0115004556367104),
            sim_time_s: 4.004015806548749,
            sim_time_bits: f64_to_bits_hex(4.004015806548749),
        },
        WireEvent::Completed {
            name: "g".into(),
            iterations: 4,
            stop: "MaxIterations".into(),
            converged: false,
            sim_time_s: 4.0,
        },
        WireEvent::Cancelled { iterations: 3 },
        WireEvent::Failed {
            message: "bad \"quote\"\n\ttab \\ slash \u{1} \u{1f} \u{7f} é 😀".into(),
        },
    ]
}

fn checkpoint(d: usize) -> Checkpoint {
    let weights: Vec<f64> = (0..d).map(|j| (j as f64 * 0.37).sin()).collect();
    let mut prev_weights = weights.clone();
    prev_weights[0] = -0.0;
    if d > 2 {
        prev_weights[1] = f64::NAN;
        prev_weights[2] = f64::from_bits(1);
    }
    Checkpoint {
        key_hash: 0xdead_beef_cafe_f00d,
        plan: "SGD-lazy-shuffle".into(),
        rng_stream_version: 3,
        state: ExecState {
            iteration: 42,
            weights,
            prev_weights,
            final_delta: 1e-9,
            error_seq: vec![(1, 0.5), (2, 0.25)],
            rng_state: [1, u64::MAX, 0, 0x0123_4567_89ab_cdef],
            sampler: Some(SamplerSnapshot {
                method: SamplingMethod::ShuffledPartition,
                shuffles: 2,
                cursor: Some((1, 3, vec![4, 0, 2, 1, 3])),
            }),
            cost: CostBreakdown {
                io_s: 1.25,
                cpu_s: 0.5,
                net_s: 0.0,
                overhead_s: 4.0,
            },
            usage: UsageMeter {
                tuples_scanned: 100,
                bytes_shuffled: 0,
                node_compute_s: vec![0.1, 0.2],
                waves: 3,
            },
        },
    }
}

/// The JSON payload line of an encoded checkpoint.
fn checkpoint_payload(ckpt: &Checkpoint) -> String {
    let bytes = encode_checkpoint(ckpt).expect("encode");
    let text = String::from_utf8(bytes).expect("utf8 checkpoint");
    text.lines().nth(2).expect("payload line").to_string()
}

/// Wrap `payload` in a checkpoint file with a matching checksum and read
/// it back through the public reader.
fn read_checkpoint_payload(payload: &str, tag: &str) -> String {
    let path = std::env::temp_dir().join(format!(
        "ml4all-wire-semantics-{}-{tag}.ckpt",
        std::process::id()
    ));
    let crc = fnv1a64(payload.as_bytes());
    std::fs::write(&path, format!("ML4ACKPT v1\ncrc {crc:016x}\n{payload}\n")).expect("write");
    let outcome = match read_checkpoint(&path) {
        Ok(ckpt) => format!("Ok({ckpt:?})"),
        Err(e) => format!("Err({e})"),
    };
    let _ = std::fs::remove_file(&path);
    outcome
}

// ---------------------------------------------------------------------
// The table
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Kind {
    Request,
    Response,
    Event,
    Stats,
    Entry,
    Entries,
    Calibration,
    Constraints,
    U64,
    U32,
    I64,
    I8,
    F64,
    Bool,
    Text,
    OptText,
    VecU64,
    VecVecU64,
    Pair,
    Value,
}

fn decode<T: serde::Deserialize + Debug>(input: &[u8]) -> String {
    match serde_json::from_slice::<T>(input) {
        Ok(value) => format!("Ok({value:?})"),
        Err(e) => format!("Err({e})"),
    }
}

fn decode_as(kind: Kind, input: &[u8]) -> String {
    match kind {
        Kind::Request => decode::<Request>(input),
        Kind::Response => decode::<Response>(input),
        Kind::Event => decode::<WireEvent>(input),
        Kind::Stats => decode::<WireStats>(input),
        Kind::Entry => decode::<PlanCacheEntry>(input),
        Kind::Entries => decode::<Vec<PlanCacheEntry>>(input),
        Kind::Calibration => decode::<CalibrationSnapshot>(input),
        Kind::Constraints => decode::<Constraints>(input),
        Kind::U64 => decode::<u64>(input),
        Kind::U32 => decode::<u32>(input),
        Kind::I64 => decode::<i64>(input),
        Kind::I8 => decode::<i8>(input),
        Kind::F64 => decode::<f64>(input),
        Kind::Bool => decode::<bool>(input),
        Kind::Text => decode::<String>(input),
        Kind::OptText => decode::<Option<String>>(input),
        Kind::VecU64 => decode::<Vec<u64>>(input),
        Kind::VecVecU64 => decode::<Vec<Vec<u64>>>(input),
        Kind::Pair => decode::<(String, f64)>(input),
        Kind::Value => decode::<Value>(input),
    }
}

struct Table {
    out: String,
}

impl Table {
    fn section(&mut self, title: &str) {
        self.out.push_str(&format!("# {title}\n"));
    }

    /// One decode case; the input is echoed unless a label stands in for
    /// it (long or generated inputs).
    fn case(&mut self, kind: Kind, input: impl AsRef<[u8]>) {
        let input = input.as_ref();
        let shown = String::from_utf8_lossy(input).into_owned();
        self.labelled(kind, &format!("{shown:?}"), input);
    }

    fn labelled(&mut self, kind: Kind, label: &str, input: impl AsRef<[u8]>) {
        let outcome = decode_as(kind, input.as_ref());
        self.out
            .push_str(&format!("{kind:?} <- {label}\n    => {outcome}\n"));
    }

    /// One checkpoint payload through the public file reader; returns
    /// the rendered outcome.
    fn checkpoint(&mut self, label: &str, payload: &str) -> String {
        let outcome = read_checkpoint_payload(payload, &label.replace(' ', "-"));
        self.out
            .push_str(&format!("Checkpoint <- {label}\n    => {outcome}\n"));
        outcome
    }

    fn encode<T: serde::Serialize + ?Sized>(&mut self, label: &str, value: &T) {
        let compact = serde_json::to_string(value).expect("to_string");
        let pretty = serde_json::to_string_pretty(value).expect("to_string_pretty");
        self.out
            .push_str(&format!("encode {label}\n    => {compact}\n{pretty}\n"));
    }
}

/// `depth` nested `open`/`close` pairs around `core`.
fn nest(open: &str, close: &str, depth: usize, core: &str) -> String {
    format!("{}{core}{}", open.repeat(depth), close.repeat(depth))
}

#[test]
fn decode_and_encode_semantics_match_the_golden() {
    let mut t = Table { out: String::new() };

    t.section("enum shapes: unit strings, externally tagged objects, the first key is the tag");
    for input in [
        r#""Stats""#,
        r#""ServerStats""#,
        " \n\t\"Stats\"\r\n ",
        r#""Cancel""#,
        r#""Nope""#,
        r#"{"Stats":null}"#,
        r#"{"Stats":{}}"#,
        r#"{"Cancel":{"job":7}}"#,
        r#" { "Cancel" : { "job" : 7 } } "#,
        r#"{"Cancel":{"job":1},"Join":{"job":2}}"#,
        r#"{"Cancel":{"job":1},"Join":{"job":"x"}}"#,
        r#"{"Cancel":{"job":1},"Cancel":{"job":3}}"#,
        r#"{"Cancel":{"job":"x"},"Cancel":{"job":3}}"#,
        r#"{"Cancel":{"job":1},"Cancel":{"job":"x"}}"#,
        r#"{"Cancel":{"job":1},"Join":{"job":2},"Cancel":7}"#,
        r#"{"Nope":1,"Cancel":{"job":1}}"#,
        r#"{"Nope":{"job":[1,{"a":null}]}}"#,
        "{}",
        "[]",
        "5",
        "null",
        "true",
        r#"{"Cancel":5}"#,
        r#"{"Cancel":null}"#,
        r#"{"Cancel":[]}"#,
        r#"{"Cancel":"job"}"#,
    ] {
        t.case(Kind::Request, input);
    }
    for input in [
        r#"{"Ok":{"Submitted":{"job":9}}}"#,
        r#"{"Ok":"Submitted"}"#,
        r#"{"Ok":{"Joined":null}}"#,
        r#"{"Err":{"code":"busy","message":"full","retry_after_ms":12}}"#,
        r#"{"Err":{"code":"busy","message":"full"}}"#,
        r#"{"Err":{"code":"busy"}}"#,
        r#"{"Err":"busy"}"#,
        r#"{"Ok":{"Predicted":{"n":3,"mse":0,"accuracy":null}}}"#,
        r#"{"Ok":{"Predicted":{"n":3,"mse":0.5,"accuracy":1}}}"#,
        r#"{"Ok":{"Predicted":{"n":3.0,"mse":0.5}}}"#,
    ] {
        t.case(Kind::Response, input);
    }
    for input in [
        r#""SpeculationStarted""#,
        r#"{"Resumed":{"iteration":12}}"#,
        r#"{"Cancelled":{"iterations":3,"extra":{"deep":[1,2,{"x":"y"}]}}}"#,
        r#"{"Failed":{"message":"a\"b\\c\/d\b\f\n\r\t\u0041\u00e9\ud83d\ude00"}}"#,
        r#"{"Failed":{"message":null}}"#,
        r#"{"Failed":{}}"#,
    ] {
        t.case(Kind::Event, input);
    }

    t.section("struct fields: missing keys read as null, unknown keys are skipped, the last duplicate wins, errors surface in declaration order");
    for input in [
        r#"{"Observe":{"job":1}}"#,
        r#"{"Observe":{"from":2}}"#,
        r#"{"Observe":{}}"#,
        r#"{"Observe":{"job":1,"from":null}}"#,
        r#"{"Observe":{"from":5,"job":1}}"#,
        r#"{"Cancel":{"job":1,"x":[1,{"a":"b"}],"y":{"z":null}}}"#,
        r#"{"Cancel":{"x":"\ud83d\ude00","job":1}}"#,
        r#"{"Can\u0063el":{"jo\u0062":1}}"#,
        r#"{"Can\u0063el":{"job":1},"Cancel":{"job":2}}"#,
        r#"{"Cancel":{"job":1,"job":2}}"#,
        r#"{"Cancel":{"job":"x","job":2}}"#,
        r#"{"Cancel":{"job":2,"job":"x"}}"#,
        r#"{"Cancel":{"job":2,"job":null}}"#,
        r#"{"Hello":{"protocol":"x","tenant":5}}"#,
        r#"{"Hello":{"protocol":"x","tenant":"t"}}"#,
        r#"{"Hello":{"tenant":"t","protocol":4294967295}}"#,
        r#"{"Hello":{"tenant":"t","protocol":4294967296}}"#,
        r#"{"Hello":{"tenant":"t","protocol":-1}}"#,
        r#"{"Hello":{"tenant":"t","protocol":1.0}}"#,
        r#"{"Hello":{"tenant":"t","protocol":1e0}}"#,
        r#"{"Hello":{"tenant":"t","protocol":-0}}"#,
        r#"{"Hello":{"tenant":"","protocol":null}}"#,
        r#"{"Hello":{"tenant":["t"]}}"#,
        r#"{"Predict":{"model":"m","source":{"File":"a.csv"}}}"#,
        r#"{"Predict":{"model":"m","source":"File"}}"#,
        r#"{"Predict":{"model":"m","source":{"Url":"a"}}}"#,
        r#"{"Predict":{"model":"m"}}"#,
    ] {
        t.case(Kind::Request, input);
    }
    let submit = serde_json::to_string(&Request::Submit { train: train() }).expect("submit");
    t.case(Kind::Request, &submit);
    t.case(
        Kind::Request,
        submit.replace("\"epsilon\":0.005", "\"epsilon\":1"),
    );
    t.case(
        Kind::Request,
        submit.replace("\"epsilon\":0.005", "\"epsilon\":-0.0"),
    );
    t.case(
        Kind::Request,
        submit.replace("\"epsilon\":0.005", "\"epsilon\":1e15"),
    );
    t.case(
        Kind::Request,
        submit.replace("\"epsilon\":0.005", "\"epsilon\":1E-7"),
    );
    t.case(
        Kind::Request,
        submit.replace("\"epsilon\":0.005", "\"epsilon\":18446744073709551616"),
    );
    t.case(
        Kind::Request,
        submit.replace("\"epsilon\":0.005", "\"epsilon\":\"x\""),
    );
    t.case(
        Kind::Request,
        submit.replace("\"max_iter\":4", "\"max_iter\":4.0"),
    );
    t.case(
        Kind::Request,
        submit.replace("\"max_iter\":4", "\"max_iter\":4e0"),
    );
    t.case(
        Kind::Request,
        submit.replace("\"max_iter\":4", "\"max_iter\":18446744073709551615"),
    );
    t.case(
        Kind::Request,
        submit.replace("\"max_iter\":4", "\"max_iter\":18446744073709551616"),
    );
    t.case(
        Kind::Request,
        submit.replace("\"max_iter\":4", "\"max_iter\":-4"),
    );
    t.case(
        Kind::Request,
        submit.replace("\"resume\":null", "\"resume\":true"),
    );
    t.case(
        Kind::Request,
        submit.replace("\"resume\":null", "\"resume\":1"),
    );
    t.case(
        Kind::Request,
        submit.replace("\"gradient\":\"logistic\",", ""),
    );
    t.case(
        Kind::Request,
        submit.replace("{\"Registry\":\"adult\"}", "{\"Registry\":7}"),
    );

    t.section("primitives");
    for input in [
        "0",
        "-0",
        "18446744073709551615",
        "18446744073709551616",
        "1.0",
        "1e2",
        "-1",
        "\"1\"",
        "null",
        "[1]",
    ] {
        t.case(Kind::U64, input);
    }
    for input in ["4294967295", "4294967296", "-0"] {
        t.case(Kind::U32, input);
    }
    for input in [
        "-9223372036854775808",
        "-9223372036854775809",
        "9223372036854775807",
        "9223372036854775808",
        "-0",
        "-1.0",
        "7",
    ] {
        t.case(Kind::I64, input);
    }
    for input in ["-128", "127", "128", "-129"] {
        t.case(Kind::I8, input);
    }
    for input in [
        "-0.0",
        "-0",
        "0",
        "1e15",
        "1E15",
        "1e+15",
        "1e-7",
        "0.1",
        "1.5e-300",
        "123456789012345678",
        "18446744073709551615",
        "18446744073709551616",
        "-9223372036854775808",
        "-9223372036854775809",
        "1.7976931348623157e308",
        "1.7976931348623159e308",
        "1e999",
        "-1e999",
        "4.9e-324",
        "1e-999",
        "true",
        "\"1.5\"",
        "null",
    ] {
        t.case(Kind::F64, input);
    }
    t.labelled(Kind::F64, "400 nines", "9".repeat(400));
    t.labelled(
        Kind::F64,
        "0. then 400 nines",
        format!("0.{}", "9".repeat(400)),
    );
    for input in ["true", "false", "tru", "truex", "1", "\"true\"", "null"] {
        t.case(Kind::Bool, input);
    }
    for input in [
        r#""""#,
        r#""plain""#,
        r#""a\"b\\c\/d\b\f\n\r\t""#,
        r#""\u0041\u00e9\u4e2d\ud83d\ude00""#,
        r#""\uD83D\uDE00""#,
        r#""\ud800""#,
        r#""\ud800x""#,
        r#""\ud800\u0041""#,
        r#""\udc00""#,
        r#""\u12""#,
        r#""\u12G4""#,
        r#""\x""#,
        "\"\\",
        "\"a\u{1}b\"",
        "\"tab\there\"",
        "\"é😀\"",
        "\"unterminated",
        "\"unterminated\\",
        "7",
        "null",
    ] {
        t.case(Kind::Text, input);
    }
    for input in ["null", "\"x\"", "7", "nul", " null "] {
        t.case(Kind::OptText, input);
    }
    for input in [
        "[]",
        "[ ]",
        "[1,2,3]",
        " [ 1 , 2 ] ",
        "[1,]",
        "[,1]",
        "[1 2]",
        "[1",
        "[",
        "[1,\"x\",3]",
        "[1,\"x\",]",
        "{}",
        "null",
    ] {
        t.case(Kind::VecU64, input);
    }
    for input in ["[[1],[],[2,3]]", "[[1],2]", "[[1],[2.5]]"] {
        t.case(Kind::VecVecU64, input);
    }
    for input in [
        r#"["a",2.5]"#,
        r#"["a",2]"#,
        r#"["a",2.5,"extra",{"ignored":[1]}]"#,
        r#"["a",2.5,oops]"#,
        r#"["a"]"#,
        "[]",
        r#"[2.5,"a"]"#,
        r#"{"0":"a"}"#,
    ] {
        t.case(Kind::Pair, input);
    }

    t.section("syntax errors and their byte offsets");
    for input in [
        "",
        " ",
        "{oops",
        "{",
        "{\"a\"",
        "{\"a\":",
        "{\"a\":}",
        "{\"a\" 1}",
        "{\"a\":1",
        "{\"a\":1,",
        "{\"a\":1,}",
        "{\"a\":1 \"b\":2}",
        "{1:2}",
        "[1,]",
        "tru",
        "nul",
        "fals",
        "nan",
        "1.2.3",
        "01",
        "-",
        "-x",
        "1.",
        "1.e3",
        "1e",
        "1e+",
        ".5",
        "+1",
        "\"Stats\" x",
        "\"Stats\"\"Stats\"",
        "{\"Stats\":null} trailing",
        "'Stats'",
        "\u{feff}\"Stats\"",
    ] {
        t.case(Kind::Request, input);
    }
    t.section("a syntax error anywhere wins over an earlier type mismatch");
    for input in [
        r#"{"Cancel":{"job":"x"}} trailing"#,
        r#"{"Cancel":{"job":"x"},"#,
        r#"{"Cancel":{"job":"x","y":tru}}"#,
        r#"{"Cancel":{"job":"unterminated}}"#,
        r#"{"Nope":[1,}"#,
        r#"{"Cancel":7,"Join":{"job":}}"#,
        r#"5 5"#,
        r#"[1e999]"#,
        r#"{"Cancel":{"job":1e999}}"#,
    ] {
        t.case(Kind::Request, input);
    }

    t.section("the 128-level nesting bound (skipped values count too)");
    for depth in [127, 128, 129, 4000] {
        t.labelled(
            Kind::Value,
            &format!("{depth} arrays"),
            nest("[", "]", depth, ""),
        );
        t.labelled(
            Kind::Value,
            &format!("{depth} arrays around 1"),
            nest("[", "]", depth, "1"),
        );
        t.labelled(
            Kind::Value,
            &format!("{depth} objects"),
            nest("{\"a\":", "}", depth, "null"),
        );
    }
    // `{"Cancel":{` already stands two levels deep.
    for depth in [125, 126, 127, 4000] {
        t.labelled(
            Kind::Request,
            &format!("unknown key holding {depth} arrays"),
            format!(
                "{{\"Cancel\":{{\"job\":1,\"x\":{}}}}}",
                nest("[", "]", depth, "")
            ),
        );
        t.labelled(
            Kind::Request,
            &format!("unknown key holding {depth} objects around 1"),
            format!(
                "{{\"Cancel\":{{\"x\":{},\"job\":1}}}}",
                nest("{\"a\":", "}", depth, "1")
            ),
        );
    }
    t.labelled(Kind::VecVecU64, "unclosed 4000 arrays", "[".repeat(4000));
    t.labelled(
        Kind::Request,
        "unclosed 4000 objects",
        "{\"a\":".repeat(4000),
    );

    t.section("invalid UTF-8 through from_slice");
    for input in [
        &b"\xff"[..],
        b"\"\xff\"",
        b"\"ab\xc3\"",
        b"{\"Cancel\":{\"job\":1,\"x\":\"\xe4\xb8\"}}",
        b"\"Stats\"\x80",
        b"\xef\xbb\xbf\"Stats\"",
    ] {
        t.case(Kind::Request, input);
    }

    t.section("the Value model");
    for input in [
        "null",
        "true",
        "0",
        "-0",
        "-0.0",
        "-7",
        "18446744073709551615",
        "18446744073709551616",
        "1.5",
        "2.0",
        "1e3",
        "\"s\"",
        "[1,\"a\",null,[],{}]",
        r#"{"b":1,"a":2,"b":3}"#,
        r#"{"a":{"a":{"a":1}}}"#,
        r#"{"a\n":"\u0000"}"#,
    ] {
        t.case(Kind::Value, input);
    }

    t.section("a Joined frame, whole and truncated at every byte");
    let frame = serde_json::to_string(&joined(&[0.5, -0.0, 1e15, 1e-7])).expect("joined");
    t.case(Kind::Response, &frame);
    for cut in 0..frame.len() {
        t.labelled(Kind::Response, &format!("joined[..{cut}]"), &frame[..cut]);
    }

    t.section("Stats");
    let stats_text = serde_json::to_string(&stats(3)).expect("stats");
    t.case(Kind::Stats, &stats_text);
    t.case(Kind::Stats, stats_text.replace("\"replans\":0,", ""));
    t.case(
        Kind::Stats,
        stats_text.replace("\"calibration_generation\":3,", ""),
    );
    t.case(
        Kind::Stats,
        stats_text.replace(
            "\"calibration_confidence\":0.25",
            "\"calibration_confidence\":1",
        ),
    );
    t.case(
        Kind::Stats,
        stats_text.replace("\"status\":\"running\"", "\"status\":null"),
    );
    t.case(
        Kind::Stats,
        stats_text.replace("\"jobs\":[", "\"jobs\":[null,"),
    );
    t.case(
        Kind::Stats,
        stats_text.replace("\"jobs\":[", "\"jobs\":[[],"),
    );
    t.case(
        Kind::Stats,
        stats_text.replace(
            "\"tenant\":\"acme\"",
            "\"tenant\":\"ac\\u006de\",\"tenant\":\"last\"",
        ),
    );
    t.case(
        Kind::Response,
        format!("{{\"Ok\":{{\"Stats\":{stats_text}}}}}"),
    );

    t.section("plancache entries");
    t.case(Kind::Entry, ENTRY.trim_end());
    t.case(Kind::Entries, format!("[{0},{0}]", ENTRY.trim_end()));
    t.case(Kind::Entries, "[]");
    t.case(
        Kind::Entry,
        ENTRY
            .trim_end()
            .replace("\"calibration_generation\":0,", ""),
    );
    t.case(
        Kind::Entry,
        ENTRY.trim_end().replace("[1,0.6035287006644293]", "[1]"),
    );
    t.case(
        Kind::Entry,
        ENTRY
            .trim_end()
            .replace("[1,0.6035287006644293]", "[1,0.6035287006644293,9]"),
    );
    t.case(
        Kind::Entry,
        ENTRY
            .trim_end()
            .replace("[1,0.6035287006644293]", "[1.5,1]"),
    );
    t.case(
        Kind::Entry,
        ENTRY
            .trim_end()
            .replace("{\"MiniBatch\":{\"batch\":1000}}", "\"MiniBatch\""),
    );
    t.case(
        Kind::Entry,
        ENTRY
            .trim_end()
            .replace("\"transform\":\"Lazy\"", "\"transform\":\"Sometimes\""),
    );
    t.case(
        Kind::Entry,
        ENTRY.trim_end().replace("\"report\":{", "\"report\":[{"),
    );
    t.case(Kind::Entry, &ENTRY.trim_end()[..ENTRY.trim_end().len() - 1]);

    t.section("durations (query constraints)");
    t.case(Kind::Constraints, CONSTRAINTS);
    for (from, to) in [
        (DURATION, "{\"nanos\":8335175}"),
        (DURATION, "{\"secs\":0}"),
        (DURATION, "{\"secs\":null,\"nanos\":1}"),
        (
            DURATION,
            "{\"nanos\":1,\"secs\":2,\"nanos\":3,\"micros\":[4]}",
        ),
        (DURATION, "[0,8335175]"),
        (DURATION, "{\"secs\":0,\"nanos\":4294967296}"),
    ] {
        t.case(Kind::Constraints, CONSTRAINTS.replace(from, to));
    }

    t.section("calibration snapshots");
    t.case(Kind::Calibration, CALIBRATION);
    t.case(
        Kind::Calibration,
        CALIBRATION.replace("\"net\":1.0", "\"net\":1"),
    );
    t.case(Kind::Calibration, CALIBRATION.replace("\"net\":1.0,", ""));
    t.case(
        Kind::Calibration,
        CALIBRATION.replace("\"observations\":1}]", "\"observations\":1.5}]"),
    );
    t.case(
        Kind::Calibration,
        CALIBRATION.replace("\"residuals\":[", "\"residuals\":[[],"),
    );
    t.case(Kind::Calibration, "{}");

    t.section("checkpoint payloads through read_checkpoint");
    let payload = checkpoint_payload(&checkpoint(4));
    t.out.push_str(&format!("payload line\n    => {payload}\n"));
    let written = t.checkpoint("as written", &payload);
    // The usage keys an older writer appended after `waves`, all zero:
    // the decoder skips them, so such a checkpoint still resumes.
    let parent = t.checkpoint(
        "parent fault keys",
        &payload.replace(
            "\"waves\":3}",
            "\"waves\":3,\"nodes_lost\":0,\"recovery_tuples\":0,\"recovery_bytes\":0,\
             \"recovery_compute_s\":0,\"straggler_delay_s\":0}",
        ),
    );
    assert_eq!(parent, written, "older usage keys must decode as written");
    t.checkpoint("waves missing", &payload.replace(",\"waves\":3", ""));
    t.checkpoint(
        "unknown and duplicate keys",
        &payload.replace(
            "\"waves\":3}",
            "\"waves\":9,\"future\":{\"x\":[1]},\"waves\":3}",
        ),
    );
    t.checkpoint(
        "iteration as float",
        &payload.replace("\"iteration\":42", "\"iteration\":42.0"),
    );
    t.checkpoint(
        "iteration negative",
        &payload.replace("\"iteration\":42", "\"iteration\":-42"),
    );
    t.checkpoint("sampler null", &{
        let start = payload.find("\"sampler\":").expect("sampler");
        let end = payload.find(",\"cost\":").expect("cost");
        format!("{}\"sampler\":null{}", &payload[..start], &payload[end..])
    });
    t.checkpoint(
        "cursor null",
        &payload.replace("{\"partition\":1,\"pos\":3,\"order\":[4,0,2,1,3]}", "null"),
    );
    t.checkpoint(
        "cursor order out of u32 range",
        &payload.replace("\"order\":[4,0,2,1,3]", "\"order\":[4,4294967296]"),
    );
    t.checkpoint(
        "unknown sampling method",
        &payload.replace("\"ShuffledPartition\"", "\"Sideways\""),
    );
    t.checkpoint(
        "three rng words",
        &payload.replace("[1,18446744073709551615,0,", "[1,18446744073709551615,"),
    );
    t.checkpoint(
        "rng word past u64",
        &payload.replace("18446744073709551615", "18446744073709551616"),
    );
    t.checkpoint(
        "error sequence lengths differ",
        &payload.replace("\"error_iters\":[1,2]", "\"error_iters\":[1]"),
    );
    t.checkpoint("truncated", &payload[..payload.len() / 2]);
    t.checkpoint("trailing garbage", &format!("{payload} x"));
    t.checkpoint("not an object", "[1,2,3]");

    t.section("encoders");
    t.encode("Request::Stats", &Request::Stats);
    t.encode("Request::Submit", &Request::Submit { train: train() });
    t.encode(
        "Request::Hello",
        &Request::Hello {
            tenant: "ac\"me\\\n".into(),
            protocol: None,
        },
    );
    t.encode(
        "Request::Predict",
        &Request::Predict {
            model: "m".into(),
            source: WireSource::File("data/a b.csv".into()),
        },
    );
    for (i, event) in events().iter().enumerate() {
        t.encode(&format!("WireEvent #{i}"), event);
    }
    t.encode(
        "Response::Err",
        &Response::Err(WireError {
            code: "busy".into(),
            message: "tenant `t0` queued-byte quota is full".into(),
            retry_after_ms: Some(17),
        }),
    );
    t.encode("Joined with awkward floats", &joined(&AWKWARD_FLOATS));
    t.encode(
        "Joined failed",
        &Response::Ok(Payload::Joined(WireTrained {
            job: 8,
            status: "failed".into(),
            name: None,
            plan: None,
            iterations: None,
            converged: None,
            sim_time_s: None,
            weights: None,
            weights_bits: None,
            error: Some("no such dataset".into()),
        })),
    );
    t.encode("Stats with no jobs", &stats(0));
    t.encode("Stats with three jobs", &stats(3));
    let entry: PlanCacheEntry = serde_json::from_str(ENTRY.trim_end()).expect("entry");
    t.encode("PlanCacheEntry", &entry);
    t.encode("Vec<PlanCacheEntry> empty", &Vec::<PlanCacheEntry>::new());
    let snapshot: CalibrationSnapshot = serde_json::from_str(CALIBRATION).expect("snapshot");
    t.encode("CalibrationSnapshot", &snapshot);
    t.encode(
        "CalibrationSnapshot identity",
        &CalibrationSnapshot::identity(),
    );
    t.encode("integers", &(u64::MAX, i64::MIN, i64::MAX, -1i8));
    t.encode("nested vectors", &vec![vec![1u64], vec![], vec![2, 3]]);
    t.encode("options", &vec![Some("x".to_string()), None]);
    t.encode("f32", &vec![0.1f32, 1.0, -2.5]);
    t.encode(
        "str with every escape class",
        "\"\\/\u{8}\u{c}\n\r\t\u{0}\u{1f} \u{7f}\u{80}é中😀",
    );
    let value: Value = serde_json::from_str(
        r#"{"b":[1,-2,3.0,4.5,1e300,null,true,"s",[],{}],"a":{"b":{}},"":"v"}"#,
    )
    .expect("value");
    t.encode("Value", &value);

    assert_golden("wire_semantics.txt", &t.out);
}

// ---------------------------------------------------------------------
// The server's borrowed `Joined` is the derived `WireTrained`, byte for byte
// ---------------------------------------------------------------------

/// The completed [`joined`] fixture as the server writes it: from the
/// weight slice, with no owned copy.
fn joined_reply(weights: &[f64]) -> JoinedReply<'_> {
    JoinedReply {
        job: 7,
        status: "completed",
        name: Some("g"),
        plan: Some("SGD-lazy-shuffle".into()),
        iterations: Some(4),
        converged: Some(false),
        sim_time_s: Some(4.008030283097498),
        weights: Some(weights),
        error: None,
    }
}

/// The frame the server queues for `reply` equals the derived frame of
/// `derived`; the pretty text agrees too.
fn assert_same_joined(label: &str, reply: &JoinedReply, derived: &Response) {
    let shared = encode_shared_frame(reply).expect("encode reply");
    assert!(
        shared[..] == encode_frame(derived).expect("encode derived")[..],
        "{label}: the server's Joined bytes differ from the derived encoding"
    );
    assert_eq!(
        serde_json::to_string_pretty(reply),
        serde_json::to_string_pretty(derived),
        "{label}"
    );
}

#[test]
fn joined_reply_bytes_equal_the_derived_wire_trained() {
    assert_same_joined(
        "awkward floats",
        &joined_reply(&AWKWARD_FLOATS),
        &joined(&AWKWARD_FLOATS),
    );
    for d in [0, 1, 20_000] {
        let w = weights(d);
        assert_same_joined(&format!("d = {d}"), &joined_reply(&w), &joined(&w));
    }
    let failed = JoinedReply {
        job: 8,
        status: "failed",
        error: Some("no such dataset".into()),
        ..JoinedReply::default()
    };
    let derived = Response::Ok(Payload::Joined(WireTrained {
        job: 8,
        status: "failed".into(),
        error: Some("no such dataset".into()),
        ..WireTrained::default()
    }));
    assert_same_joined("failed", &failed, &derived);
    let cancelled = JoinedReply {
        job: 9,
        status: "cancelled",
        iterations: Some(3),
        ..JoinedReply::default()
    };
    let derived = Response::Ok(Payload::Joined(WireTrained {
        job: 9,
        status: "cancelled".into(),
        iterations: Some(3),
        ..WireTrained::default()
    }));
    assert_same_joined("cancelled", &cancelled, &derived);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn joined_reply_bytes_equal_the_derived_for_any_bits(
        bits in prop::collection::vec(0u64..u64::MAX, 0..40),
    ) {
        let w: Vec<f64> = bits.iter().map(|b| f64::from_bits(*b)).collect();
        let reply = encode_shared_frame(&joined_reply(&w)).expect("encode reply");
        let derived = encode_frame(&joined(&w)).expect("encode derived");
        prop_assert!(reply[..] == derived[..]);
    }
}

// ---------------------------------------------------------------------
// Protocol 2's header and raw block decode to the protocol-1 outcome
// ---------------------------------------------------------------------

/// IEEE-754 bit patterns, the awkward classes drawn often: signed zeros,
/// subnormals of both signs, the infinities and NaNs with payloads of
/// both signs, beside arbitrary patterns.
fn weight_bits() -> BoxedStrategy<u64> {
    const SIGN: u64 = 1 << 63;
    const EXPONENT: u64 = 0x7ff << 52;
    const MANTISSA: Range<u64> = 1..1 << 52;
    prop_oneof![
        0u64..u64::MAX,
        Just(0),
        Just(SIGN),
        MANTISSA,
        MANTISSA.prop_map(|m| SIGN | m),
        Just(EXPONENT),
        Just(SIGN | EXPONENT),
        MANTISSA.prop_map(|payload| EXPONENT | payload),
        MANTISSA.prop_map(|payload| SIGN | EXPONENT | payload),
    ]
    .boxed()
}

/// A protocol-2 `Joined` answer decoded as the client does: the header
/// frame's JSON, then the weight block frame attached to it.
fn decode_raw_joined(answer: &[u8]) -> WireTrained {
    let frame = |at: usize| {
        let len = u32::from_be_bytes(answer[at..at + 4].try_into().expect("a header"));
        &answer[at + 4..at + 4 + len as usize]
    };
    let header = frame(0);
    let Ok(Response::Ok(Payload::Joined(mut joined))) = serde_json::from_slice(header) else {
        panic!("not a Joined header");
    };
    let block = frame(4 + header.len());
    assert_eq!(
        4 + header.len() + 4 + block.len(),
        answer.len(),
        "two frames"
    );
    joined.attach_weight_block(block).expect("a weight block");
    joined
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_raw_weight_block_decodes_to_the_protocol_1_outcome(
        bits in prop::collection::vec(weight_bits(), 0..40),
    ) {
        let w: Vec<f64> = bits.iter().map(|b| f64::from_bits(*b)).collect();
        let raw = joined_reply(&w).encode_raw(|_| true).expect("encode").expect("fits");
        let decoded = decode_raw_joined(&raw);
        // Every weight keeps its bits, NaN payloads included.
        let back: Vec<u64> = decoded.weights.iter().flatten().map(|x| x.to_bits()).collect();
        prop_assert_eq!(back, bits);
        // Re-encoded as JSON, the outcome is the server's protocol-1 frame.
        let v1 = encode_shared_frame(&joined_reply(&w)).expect("encode reply");
        let again = encode_frame(&Response::Ok(Payload::Joined(decoded.clone()))).expect("encode");
        prop_assert!(again[..] == v1[..]);
        // Where the protocol-1 JSON decodes, every weight finite, it is the
        // same outcome; JSON carries a non-finite weight as `null`, which a
        // weight refuses.
        match serde_json::from_slice::<Response>(&v1[4..]) {
            Ok(Response::Ok(Payload::Joined(json))) => {
                prop_assert_eq!(format!("{json:?}"), format!("{decoded:?}"));
            }
            Ok(other) => prop_assert!(false, "not a Joined answer: {other:?}"),
            Err(_) => prop_assert!(w.iter().any(|x| !x.is_finite())),
        }
    }
}

#[test]
fn a_joined_without_weights_is_the_protocol_1_frame_under_protocol_2() {
    for reply in [
        JoinedReply {
            job: 8,
            status: "failed",
            error: Some("no such dataset".into()),
            ..JoinedReply::default()
        },
        JoinedReply {
            job: 9,
            status: "cancelled",
            iterations: Some(3),
            ..JoinedReply::default()
        },
    ] {
        let v1 = encode_shared_frame(&reply).expect("encode");
        let raw = reply.encode_raw(|_| true).expect("encode").expect("fits");
        assert!(raw == v1);
    }
    // The length `fits` is asked is the whole answer's.
    let w = weights(123);
    let mut asked = 0;
    let refused = joined_reply(&w).encode_raw(|len| {
        asked = len;
        false
    });
    assert!(refused.expect("encode").is_none());
    let raw = joined_reply(&w).encode_raw(|_| true).expect("encode");
    assert_eq!(raw.expect("fits").len(), asked);
}

// ---------------------------------------------------------------------
// The server's `Stats` from encoded rows is the derived `WireStats`
// ---------------------------------------------------------------------

/// One job-table row: id, engine id, name, status.
type Row = (u64, Option<u64>, Option<String>, String);

fn job_row((job, engine_id, name, status): &Row) -> JobRow<'_> {
    JobRow {
        job: *job,
        engine_id: *engine_id,
        name: name.as_deref(),
        status,
    }
}

/// The server's `Stats` frame for `header`'s fields and `rows`: a row
/// with a terminal status is copied as encoded once, the others are
/// encoded on the spot.
fn stats_reply_frame(header: &WireStats, rows: &[Row]) -> Arc<[u8]> {
    let terminal = |status: &str| matches!(status, "completed" | "cancelled" | "failed");
    let encoded: Vec<Option<EncodedRow>> = rows
        .iter()
        .map(|row| terminal(&row.3).then(|| job_row(row).encode()))
        .collect();
    let reply = StatsReply {
        tenant: &header.tenant,
        in_flight: header.in_flight,
        queued: header.queued,
        queued_bytes: header.queued_bytes,
        quota_max_in_flight: header.quota_max_in_flight,
        quota_max_queued_bytes: header.quota_max_queued_bytes,
        global_in_flight: header.global_in_flight,
        global_capacity: header.global_capacity,
        plan_cache_hits: header.plan_cache_hits,
        plan_cache_misses: header.plan_cache_misses,
        plan_cache_len: header.plan_cache_len,
        checkpoints_written: header.checkpoints_written,
        jobs_resumed: header.jobs_resumed,
        calibration_generation: header.calibration_generation,
        calibration_confidence: header.calibration_confidence,
        replans: header.replans,
    };
    reply
        .encode_shared(rows.len(), |table| {
            for (row, encoded) in rows.iter().zip(&encoded) {
                match encoded {
                    Some(encoded) => table.encoded(encoded),
                    None => table.row(&job_row(row)),
                }
            }
        })
        .expect("encode reply")
}

/// The derived frame of `header` with `rows` as its job table.
fn derived_stats_frame(header: &WireStats, rows: &[Row]) -> Vec<u8> {
    let mut stats = header.clone();
    stats.jobs = rows
        .iter()
        .map(|(job, engine_id, name, status)| WireJob {
            job: *job,
            engine_id: *engine_id,
            name: name.clone(),
            status: status.clone().into(),
        })
        .collect();
    encode_frame(&Response::Ok(Payload::Stats(stats))).expect("encode derived")
}

fn row(job: u64, engine_id: Option<u64>, name: Option<&str>, status: &str) -> Row {
    (job, engine_id, name.map(str::to_string), status.to_string())
}

#[test]
fn stats_reply_bytes_equal_the_derived_wire_stats() {
    let mixed = vec![
        row(1, None, Some("waiting"), "queued"),
        row(2, Some(7), Some("m2"), "running"),
        row(3, Some(8), Some("m3"), "completed"),
        row(4, Some(9), Some("m4"), "cancelled"),
        row(5, None, Some("m5"), "cancelled"),
        row(6, Some(10), Some("m6"), "failed"),
        row(7, Some(11), Some("say \"hi\""), "completed"),
        row(8, Some(12), Some("back\\slash"), "completed"),
        row(9, Some(13), Some("bell\u{7}\ttab\u{1f}"), "failed"),
        row(10, Some(14), Some("naïve 中 😀"), "running"),
        row(11, Some(u64::MAX), None, "completed"),
    ];
    let full: Vec<Row> = (1..=2048)
        .map(|job| row(job, Some(job + 100), Some(&format!("j{job}")), "completed"))
        .collect();
    let calibrated = stats(0);
    let mut uncalibrated = stats(0);
    uncalibrated.calibration_generation = None;
    uncalibrated.calibration_confidence = None;
    for header in [&calibrated, &uncalibrated] {
        for (label, rows) in [
            ("0 rows", &[][..]),
            ("1 row", &mixed[2..3]),
            ("every status and escape", &mixed[..]),
            ("2048 rows", &full[..]),
        ] {
            let reply = stats_reply_frame(header, rows);
            assert!(
                reply[..] == derived_stats_frame(header, rows)[..],
                "{label}, calibration {:?}: the server's Stats bytes differ from the derived \
                 encoding",
                header.calibration_generation
            );
        }
    }

    // A decoded row borrows its status when it is one of the five
    // literals, and owns any other text.
    let frame = derived_stats_frame(
        &calibrated,
        &[
            row(1, None, None, "queued"),
            row(2, None, None, "failed"),
            row(3, None, None, "paused"),
        ],
    );
    let Ok(Response::Ok(Payload::Stats(decoded))) = serde_json::from_slice(&frame[4..]) else {
        panic!("not a Stats answer");
    };
    let borrowed: Vec<bool> = decoded
        .jobs
        .iter()
        .map(|job| matches!(job.status, Cow::Borrowed(_)))
        .collect();
    assert_eq!(borrowed, [true, true, false]);
    assert_eq!(decoded.jobs[2].status, "paused");
}

fn status() -> BoxedStrategy<String> {
    prop_oneof![
        Just("queued".to_string()),
        Just("running".to_string()),
        Just("completed".to_string()),
        Just("cancelled".to_string()),
        Just("failed".to_string()),
        text(),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn stats_reply_bytes_equal_the_derived_for_any_rows(
        rows in prop::collection::vec(
            (0u64..u64::MAX, opt(0u64..u64::MAX), opt(text()), status()),
            0..24,
        ),
        generation in opt(0u64..u64::MAX),
        confidence in opt(finite_f64()),
    ) {
        let mut header = stats(0);
        header.calibration_generation = generation;
        header.calibration_confidence = confidence;
        let reply = stats_reply_frame(&header, &rows);
        prop_assert!(reply[..] == derived_stats_frame(&header, &rows)[..]);
    }
}

// ---------------------------------------------------------------------
// Round-trip property
// ---------------------------------------------------------------------

/// `to_string(x)` is canonical — the `Value` model parses and re-renders
/// it to the same bytes — and decoding it yields a value that re-encodes
/// to the same bytes, compact and pretty.
fn round_trips<T: serde::Serialize + serde::Deserialize>(value: &T) -> Result<(), TestCaseError> {
    let compact = serde_json::to_string(value).expect("to_string");
    let pretty = serde_json::to_string_pretty(value).expect("to_string_pretty");
    let tree =
        Value::parse(&compact).map_err(|e| TestCaseError::fail(format!("{e}: {compact}")))?;
    prop_assert_eq!(tree.to_json_string(), compact.clone());
    prop_assert_eq!(tree.to_json_string_pretty(), pretty.clone());
    for text in [&compact, &pretty] {
        let back: T =
            serde_json::from_str(text).map_err(|e| TestCaseError::fail(format!("{e}: {text}")))?;
        prop_assert_eq!(
            serde_json::to_string(&back).expect("to_string"),
            compact.clone()
        );
        prop_assert_eq!(
            serde_json::to_string_pretty(&back).expect("to_string_pretty"),
            pretty.clone()
        );
    }
    let back: T = serde_json::from_slice(compact.as_bytes())
        .map_err(|e| TestCaseError::fail(format!("{e}: {compact}")))?;
    prop_assert_eq!(serde_json::to_string(&back).expect("to_string"), compact);
    Ok(())
}

/// Finite floats of every magnitude (a non-finite one encodes as `null`,
/// which a plain `f64` field refuses — by design, not a round trip).
fn finite_f64() -> BoxedStrategy<f64> {
    prop_oneof![
        (0u64..u64::MAX).prop_map(|bits| {
            let x = f64::from_bits(bits);
            if x.is_finite() {
                x
            } else {
                0.0
            }
        }),
        -1.0e3..1.0e3,
        (-1_000_000i64..1_000_000).prop_map(|i| i as f64),
        Just(-0.0),
        Just(1e15),
        Just(999_999_999_999_999.0),
        Just(f64::MAX),
        Just(f64::MIN_POSITIVE),
    ]
    .boxed()
}

fn text() -> BoxedStrategy<String> {
    prop_oneof![
        ".{0,12}",
        Just("\"\\\u{8}\u{c}\u{0}\u{1f}\u{7f}".to_string()),
        Just("plain".to_string()),
    ]
    .boxed()
}

fn opt<S: Strategy + 'static>(inner: S) -> BoxedStrategy<Option<S::Value>>
where
    S::Value: 'static,
{
    (0u8..4, inner)
        .prop_map(|(pick, value)| (pick > 0).then_some(value))
        .boxed()
}

fn wire_train() -> BoxedStrategy<WireTrain> {
    (
        (text(), text(), 0u8..3),
        (opt(finite_f64()), opt(0u64..u64::MAX), opt(finite_f64())),
        (opt(text()), opt(text()), opt(0u64..1000)),
        (opt(0u8..2), opt(text())),
    )
        .prop_map(
            |(
                (gradient, source, kind),
                (epsilon, max_iter, step),
                (algorithm, sampler, seed),
                (resume, name),
            )| {
                let source = match kind {
                    0 => WireSource::Named(source),
                    1 => WireSource::Registry(source),
                    _ => WireSource::File(source),
                };
                let mut train = WireTrain::new(&gradient, source);
                train.epsilon = epsilon;
                train.max_iter = max_iter;
                train.step = step;
                train.batch = seed;
                train.algorithm = algorithm;
                train.sampler = sampler;
                train.seed = seed.map(|s| s.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                train.name = name;
                train.progress_every = max_iter.map(|m| m % 7);
                train.resume = resume.map(|r| r == 1);
                train
            },
        )
        .boxed()
}

fn request() -> BoxedStrategy<Request> {
    prop_oneof![
        Just(Request::Stats),
        Just(Request::ServerStats),
        (text(), opt(0u32..u32::MAX))
            .prop_map(|(tenant, protocol)| Request::Hello { tenant, protocol }),
        wire_train().prop_map(|train| Request::Submit { train }),
        (0u64..u64::MAX, opt(0u64..50)).prop_map(|(job, from)| Request::Observe { job, from }),
        (0u64..u64::MAX).prop_map(|job| Request::Cancel { job }),
        (0u64..100).prop_map(|job| Request::Join { job }),
        (wire_train(), opt(0u8..2)).prop_map(|(train, measured)| Request::Explain {
            train,
            measured: measured.map(|m| m == 1),
        }),
        (text(), text()).prop_map(|(model, path)| Request::Predict {
            model,
            source: WireSource::File(path),
        }),
    ]
    .boxed()
}

fn wire_event() -> BoxedStrategy<WireEvent> {
    prop_oneof![
        Just(WireEvent::SpeculationStarted),
        (text(), 0u64..100_000, finite_f64(), finite_f64(), 0u8..2).prop_map(
            |(plan, estimated_iterations, preparation_s, per_iteration_s, hit)| {
                WireEvent::PlanChosen {
                    plan,
                    estimated_iterations,
                    preparation_s,
                    per_iteration_s,
                    total_s: preparation_s,
                    cache_hit: hit == 1,
                    backend: "local".into(),
                }
            }
        ),
        (0u64..1000).prop_map(|iteration| WireEvent::Resumed { iteration }),
        (0u64..1000, text(), text(), finite_f64()).prop_map(|(iteration, from, to, cost_delta)| {
            WireEvent::Replanned {
                iteration,
                from,
                to,
                cost_delta,
            }
        }),
        (0u64..1000, finite_f64(), finite_f64()).prop_map(|(iteration, delta, sim_time_s)| {
            WireEvent::Progress {
                iteration,
                delta,
                delta_bits: f64_to_bits_hex(delta),
                sim_time_s,
                sim_time_bits: f64_to_bits_hex(sim_time_s),
            }
        }),
        (text(), 0u64..1000, finite_f64()).prop_map(|(name, iterations, sim_time_s)| {
            WireEvent::Completed {
                name,
                iterations,
                stop: "Converged".into(),
                converged: iterations % 2 == 0,
                sim_time_s,
            }
        }),
        (0u64..1000).prop_map(|iterations| WireEvent::Cancelled { iterations }),
        text().prop_map(|message| WireEvent::Failed { message }),
    ]
    .boxed()
}

fn wire_stats() -> BoxedStrategy<WireStats> {
    (
        text(),
        prop::collection::vec((0u64..u64::MAX, opt(0u64..1000), opt(text()), text()), 0..6),
        opt(0u64..100),
        opt(0.0..1.0f64),
    )
        .prop_map(|(tenant, rows, generation, confidence)| {
            let mut out = stats(0);
            out.tenant = tenant;
            out.calibration_generation = generation;
            out.calibration_confidence = confidence;
            out.jobs = rows
                .into_iter()
                .map(|(job, engine_id, name, status)| WireJob {
                    job,
                    engine_id,
                    name,
                    status: status.into(),
                })
                .collect();
            out
        })
        .boxed()
}

fn response() -> BoxedStrategy<Response> {
    prop_oneof![
        (0u64..u64::MAX).prop_map(|job| Response::Ok(Payload::Submitted { job })),
        (0u64..100, wire_event())
            .prop_map(|(seq, event)| Response::Ok(Payload::Event { seq, event })),
        (0u64..100, text())
            .prop_map(|(job, status)| Response::Ok(Payload::ObserveEnd { job, status })),
        prop::collection::vec(finite_f64(), 0..12).prop_map(|weights| joined(&weights)),
        (0u64..100, finite_f64(), opt(0.0..1.0f64))
            .prop_map(|(n, mse, accuracy)| Response::Ok(Payload::Predicted { n, mse, accuracy })),
        wire_stats().prop_map(|stats| Response::Ok(Payload::Stats(stats))),
        (text(), text(), opt(0u64..10_000)).prop_map(|(code, message, retry_after_ms)| {
            Response::Err(WireError {
                code,
                message,
                retry_after_ms,
            })
        }),
    ]
    .boxed()
}

/// The fixture entry with every float and count redrawn.
fn plan_cache_entry() -> BoxedStrategy<PlanCacheEntry> {
    (
        text(),
        opt(0u64..10),
        prop::collection::vec(finite_f64(), 8usize),
        prop::collection::vec((0u64..10_000, finite_f64()), 0..5),
    )
        .prop_map(|(key, generation, floats, pairs)| {
            let mut entry: PlanCacheEntry =
                serde_json::from_str(ENTRY.trim_end()).expect("fixture entry");
            entry.key = key;
            entry.calibration_generation = generation;
            entry.report.speculation_sim_s = floats[0];
            for (choice, x) in entry.report.choices.iter_mut().zip(&floats[1..]) {
                choice.total_s = *x;
                choice.measured_s = Some(*x);
            }
            for estimate in &mut entry.report.estimates {
                estimate.estimate.pairs = pairs.clone();
            }
            entry
        })
        .boxed()
}

fn calibration_snapshot() -> BoxedStrategy<CalibrationSnapshot> {
    (
        0u64..u64::MAX,
        prop::collection::vec(finite_f64(), 4usize),
        prop::collection::vec((text(), finite_f64(), 0u64..100), 0..4),
    )
        .prop_map(|(generation, scales, residuals)| {
            let mut snapshot: CalibrationSnapshot =
                serde_json::from_str(CALIBRATION).expect("fixture snapshot");
            snapshot.generation = generation;
            snapshot.scales.io = scales[0];
            snapshot.scales.cpu = scales[1];
            snapshot.scales.net = scales[2];
            snapshot.scales.overhead = scales[3];
            snapshot.residuals = residuals
                .into_iter()
                .map(|(key, factor, observations)| {
                    let mut entry = snapshot.residuals[0].clone();
                    entry.key = key;
                    entry.factor = factor;
                    entry.observations = observations;
                    entry
                })
                .collect();
            snapshot
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_round_trip(value in request()) {
        round_trips(&value)?;
    }

    #[test]
    fn responses_round_trip(value in response()) {
        round_trips(&value)?;
    }

    #[test]
    fn events_round_trip(value in wire_event()) {
        round_trips(&value)?;
    }

    #[test]
    fn stats_round_trip(value in wire_stats()) {
        round_trips(&value)?;
    }

    #[test]
    fn plan_cache_entries_round_trip(value in prop::collection::vec(plan_cache_entry(), 0..3)) {
        round_trips(&value)?;
    }

    #[test]
    fn calibration_snapshots_round_trip(value in calibration_snapshot()) {
        round_trips(&value)?;
    }

    #[test]
    fn checkpoints_round_trip(
        weights in prop::collection::vec(0u64..u64::MAX, 1..40),
        iteration in 0u64..u64::MAX,
        order in prop::collection::vec(0u32..u32::MAX, 0..9),
    ) {
        // The wire structs are private: the round trip is file → state →
        // file, and the canonical-text property is checked on the payload
        // line.
        let mut ckpt = checkpoint(3);
        ckpt.state.weights = weights.iter().map(|bits| f64::from_bits(*bits)).collect();
        ckpt.state.iteration = iteration;
        ckpt.state.sampler.as_mut().expect("sampler").cursor = Some((1, 0, order));
        let payload = checkpoint_payload(&ckpt);
        let tree = Value::parse(&payload).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(tree.to_json_string(), payload.clone());
        let path = std::env::temp_dir().join(format!(
            "ml4all-wire-semantics-{}-prop.ckpt",
            std::process::id()
        ));
        std::fs::write(&path, encode_checkpoint(&ckpt).expect("encode")).expect("write");
        let back = read_checkpoint(&path).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(checkpoint_payload(&back), payload);
    }
}
