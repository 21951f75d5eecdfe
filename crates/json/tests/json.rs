//! Reader and writer tests. The writer cases pin the exact bytes of
//! every form the workspace's committed artifacts contain.

use std::collections::BTreeMap;

use hybridmem_json::{from_str, impl_json, parse, to_string, Json};

#[test]
fn parses_scalars_and_containers() {
    let doc = parse(r#"{"a": [1, -2.5, 1e3], "b": {"c": null, "d": true}, "e": "x\ny"}"#)
        .expect("parses");
    assert_eq!(doc.get("a").unwrap().as_array().unwrap().len(), 3);
    assert_eq!(
        doc.get("a").unwrap().as_array().unwrap()[0].as_u64(),
        Some(1)
    );
    assert_eq!(
        doc.get("a").unwrap().as_array().unwrap()[1].as_f64(),
        Some(-2.5)
    );
    assert_eq!(doc.get("b").unwrap().get("c"), Some(&Json::Null));
    assert_eq!(
        doc.get("b").unwrap().get("d").unwrap().as_bool(),
        Some(true)
    );
    assert_eq!(doc.get("e").unwrap().as_str(), Some("x\ny"));
}

#[test]
fn numbers_keep_their_lexemes() {
    let doc = parse("[18446744073709551615, 0.30000000000000004]").expect("parses");
    let items = doc.as_array().unwrap();
    assert_eq!(items[0], Json::Number("18446744073709551615".to_owned()));
    assert_eq!(items[0].as_u64(), Some(u64::MAX));
    assert_eq!(items[1].as_f64(), Some(0.300_000_000_000_000_04));
}

#[test]
fn emit_parse_emit_is_the_identity() {
    let report = Json::Object(vec![
        ("schema".to_owned(), Json::str("hybridmem-analyze-v1")),
        ("count".to_owned(), Json::u64(u64::MAX)),
        ("ratio".to_owned(), Json::f64(0.1 + 0.2)),
        ("empty".to_owned(), Json::Array(Vec::new())),
        (
            "cells".to_owned(),
            Json::Array(vec![Json::Object(vec![(
                "name".to_owned(),
                Json::str("a \"b\"\n"),
            )])]),
        ),
    ]);
    let text = report.emit_pretty();
    let reparsed = parse(&text).expect("own output parses");
    assert_eq!(reparsed, report, "structural round-trip");
    assert_eq!(reparsed.emit_pretty(), text, "byte round-trip");
}

#[test]
fn surrogate_pairs_and_escapes_decode() {
    let doc = parse(r#""\ud83d\ude00 \u0041\t""#).expect("parses");
    assert_eq!(doc.as_str(), Some("😀 A\t"));
    // The highest pair: both units at the top of their ranges.
    let doc = parse(r#""\uDBFF\uDFFF""#).expect("parses");
    assert_eq!(doc.as_str(), Some("\u{10FFFF}"));
}

#[test]
fn a_high_surrogate_must_pair_with_a_low_surrogate() {
    // The second unit is another high surrogate, lies above the low
    // range, or is a plain character: none of these is a pair.
    for bad in [
        r#""\uD800\uD800""#,
        r#""\uD800\uDBFF""#,
        r#""\uD800\uE000""#,
        r#""\uD800\u0041""#,
    ] {
        let err = parse(bad).expect_err(bad);
        assert!(err.contains("invalid \\u escape"), "{bad}: {err}");
    }
}

#[test]
fn rejects_malformed_documents() {
    for bad in ["{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"\\x\"", ""] {
        assert!(parse(bad).is_err(), "{bad:?} must not parse");
    }
}

fn float(value: f64) -> String {
    Json::f64(value).emit()
}

#[test]
fn floats_use_ryu_layout() {
    // Integers below 1e16 keep a `.0`; 1e16 and up switch to an exponent.
    assert_eq!(float(800_550.0), "800550.0");
    assert_eq!(float(2.0), "2.0");
    assert_eq!(float(1e15), "1000000000000000.0");
    assert_eq!(float(1e16), "1e16");
    assert_eq!(float(1.234_5e17), "1.2345e17");
    // Plain decimals down to 1e-5 ...
    assert_eq!(float(0.1 + 0.2), "0.30000000000000004");
    assert_eq!(float(366.081_25), "366.08125");
    assert_eq!(float(0.5), "0.5");
    // ... including [1e-5, 1e-4), where `{:?}` would write an exponent.
    assert_eq!(float(5e-5), "0.00005");
    assert_eq!(float(1e-5), "0.00001");
    assert_eq!(float(1.234e-5), "0.00001234");
    assert_eq!(float(-2.5e-5), "-0.000025");
    // Below that, scientific without a `+`.
    assert_eq!(float(1e-6), "1e-6");
    assert_eq!(float(1.5e-7), "1.5e-7");
    assert_eq!(float(5e-324), "5e-324");
    assert_eq!(float(f64::MAX), "1.7976931348623157e308");
}

#[test]
fn signed_zero_and_non_finite_floats() {
    assert_eq!(float(0.0), "0.0");
    assert_eq!(float(-0.0), "-0.0");
    assert_eq!(Json::f64(f64::NAN), Json::Null);
    assert_eq!(float(f64::INFINITY), "null");
    assert_eq!(float(f64::NEG_INFINITY), "null");
}

#[test]
fn floats_round_trip_through_the_reader() {
    for value in [0.1, 1e-7, 123_456.789, 2.808_119_782_152_186, 5e-5, 1e300] {
        let back: f64 = from_str(&float(value)).unwrap();
        assert_eq!(back.to_bits(), value.to_bits(), "{value}");
    }
}

#[test]
fn strings_escape_controls_short_or_as_lowercase_hex() {
    let text = "q\"b\\ \u{8}\u{c}\n\r\t \u{0}\u{1f}\u{7f} é";
    assert_eq!(
        Json::str(text).emit(),
        "\"q\\\"b\\\\ \\b\\f\\n\\r\\t \\u0000\\u001f\u{7f} é\""
    );
    assert_eq!(parse(&Json::str(text).emit()).unwrap().as_str(), Some(text));
}

#[test]
fn integer_map_keys_are_quoted() {
    let map: BTreeMap<u64, u64> = [(3, 30), (12, 120)].into_iter().collect();
    assert_eq!(to_string(&map), r#"{"3":30,"12":120}"#);
    let named: BTreeMap<String, Vec<u32>> = [("a".to_owned(), vec![1, 2])].into_iter().collect();
    assert_eq!(to_string(&named), r#"{"a":[1,2]}"#);
}

#[test]
fn compact_and_pretty_layouts() {
    let doc = Json::Object(vec![
        ("a".to_owned(), Json::Array(vec![Json::u64(1), Json::Null])),
        ("b".to_owned(), Json::Object(Vec::new())),
        ("c".to_owned(), Json::Array(Vec::new())),
        (
            "d".to_owned(),
            Json::Object(vec![("e".to_owned(), Json::Bool(false))]),
        ),
    ]);
    assert_eq!(
        doc.emit(),
        r#"{"a":[1,null],"b":{},"c":[],"d":{"e":false}}"#
    );
    assert_eq!(
        doc.emit_pretty(),
        "{\n  \"a\": [\n    1,\n    null\n  ],\n  \"b\": {},\n  \"c\": [],\n  \"d\": {\n    \"e\": false\n  }\n}"
    );
    assert_eq!(Json::Array(Vec::new()).emit_pretty(), "[]");
}

#[test]
fn tuples_are_arrays_and_none_is_null() {
    assert_eq!(to_string(&("x", 1_u64, Some(2.5))), r#"["x",1,2.5]"#);
    assert_eq!(to_string(&None::<u64>), "null");
}

#[derive(Debug, PartialEq)]
struct Sample {
    name: String,
    count: u64,
    ratio: f64,
    note: Option<String>,
}
impl_json!(ToJson, FromJson for Sample { name, count, ratio, note if Option::is_some });

#[derive(Debug, PartialEq)]
enum Tier {
    Dram,
    Nvm,
}
impl_json!(ToJson for Tier { Dram = "dram", Nvm = "nvm" });

#[derive(Debug, PartialEq)]
struct Pages(u64);
impl_json!(ToJson, FromJson for Pages(u64));

#[test]
fn macro_structs_skip_and_read_back() {
    let bare = Sample {
        name: "a".to_owned(),
        count: 3,
        ratio: 0.5,
        note: None,
    };
    let text = to_string(&bare);
    assert_eq!(text, r#"{"name":"a","count":3,"ratio":0.5}"#);
    assert_eq!(from_str::<Sample>(&text).unwrap(), bare);
    let noted = Sample {
        note: Some("n".to_owned()),
        ..bare
    };
    assert_eq!(from_str::<Sample>(&to_string(&noted)).unwrap(), noted);
    let err = from_str::<Sample>(r#"{"name":"a","ratio":1}"#).unwrap_err();
    assert!(err.contains("missing field `count`"), "{err}");
    let err = from_str::<Sample>(r#"{"name":"a","count":-1,"ratio":1}"#).unwrap_err();
    assert!(err.contains("field `count`"), "{err}");
}

#[test]
fn macro_enums_and_newtypes() {
    assert_eq!(to_string(&vec![Tier::Dram, Tier::Nvm]), r#"["dram","nvm"]"#);
    assert_eq!(to_string(&Pages(7)), "7");
    assert_eq!(from_str::<Pages>("7").unwrap(), Pages(7));
}

#[derive(Debug)]
enum Event {
    Fill { page: u64, into: Tier },
    Reset { page: u64 },
}
impl_json!(ToJson for Event tagged "event" {
    Fill { page, into } = "fill",
    Reset { page } = "reset",
});

#[test]
fn tagged_enums_write_the_tag_first() {
    let events = vec![
        Event::Fill {
            page: 3,
            into: Tier::Nvm,
        },
        Event::Reset { page: 4 },
    ];
    assert_eq!(
        to_string(&events),
        r#"[{"event":"fill","page":3,"into":"nvm"},{"event":"reset","page":4}]"#
    );
}
