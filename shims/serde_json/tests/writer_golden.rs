//! Golden output of the JSON writer: every derive shape and every
//! primitive the shim serializes, in compact and pretty form. The
//! literals were produced by the tree-building writer this one
//! replaced, so any byte the writer changes shows up here.

use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

#[derive(Serialize, Deserialize)]
struct Named {
    id: u32,
    label: String,
    #[serde(default)]
    note: Option<String>,
    tags: Vec<u8>,
}

#[derive(Serialize, Deserialize, PartialEq, Eq, PartialOrd, Ord)]
#[serde(transparent)]
struct Key(u32);

#[derive(Serialize, Deserialize, PartialEq, Eq, PartialOrd, Ord)]
#[serde(transparent)]
struct Name(String);

#[derive(Serialize, Deserialize)]
struct Pair(u8, String);

#[derive(Serialize, Deserialize)]
struct Wrap(i8);

#[derive(Serialize, Deserialize)]
struct Empty {}

#[derive(Serialize, Deserialize)]
struct Unit;

#[derive(Serialize, Deserialize)]
enum Shape {
    Dot,
    Circle(f64),
    Line(i32, i32, String),
    Rect { w: u64, h: Option<u64>, inner: Pair },
}

#[derive(Serialize, Deserialize)]
struct Nest {
    shapes: Vec<Shape>,
    by_key: BTreeMap<Key, Vec<Shape>>,
    empty: BTreeMap<u8, u8>,
    none: Option<Shape>,
    unit: Unit,
}

/// `(name, value as compact JSON, value as pretty JSON)` for every case.
fn cases() -> Vec<(&'static str, String, String)> {
    fn case<T: Serialize + ?Sized>(name: &'static str, v: &T) -> (&'static str, String, String) {
        (name, serde_json::to_string(v).unwrap(), serde_json::to_string_pretty(v).unwrap())
    }
    let mut by_int: BTreeMap<i64, Vec<String>> = BTreeMap::new();
    by_int.insert(-3, vec!["a".into(), "b".into()]);
    by_int.insert(7, vec![]);
    let mut nested: BTreeMap<u64, BTreeMap<Key, String>> = BTreeMap::new();
    nested.insert(1, BTreeMap::new());
    nested.insert(u64::MAX, [(Key(0), "zero".to_string()), (Key(9), String::new())].into());
    let mut by_name: BTreeMap<Name, u8> = BTreeMap::new();
    by_name.insert(Name("q\"uote".into()), 1);
    by_name.insert(Name("tab\tnl\n".into()), 2);
    let mut by_string: BTreeMap<String, f64> = BTreeMap::new();
    by_string.insert("back\\slash".into(), 0.5);
    by_string.insert("é".into(), -2.0);
    let nest = Nest {
        shapes: vec![
            Shape::Dot,
            Shape::Circle(2.0),
            Shape::Line(-1, i32::MAX, "l".into()),
            Shape::Rect { w: 3, h: None, inner: Pair(9, "p".into()) },
        ],
        by_key: [(Key(4), vec![Shape::Dot]), (Key(2), vec![])].into_iter().collect(),
        empty: BTreeMap::new(),
        none: None,
        unit: Unit,
    };
    vec![
        case("named", &Named { id: 7, label: "seven".into(), note: None, tags: vec![1, 2] }),
        case(
            "named_some",
            &Named { id: 0, label: String::new(), note: Some("n".into()), tags: vec![] },
        ),
        case("transparent", &Key(42)),
        case("transparent_str", &Name("x".into())),
        case("tuple_struct", &Pair(1, "one".into())),
        case("tuple_struct_1", &Wrap(-5)),
        case("empty_struct", &Empty {}),
        case("unit_struct", &Unit),
        case("enum_unit", &Shape::Dot),
        case("enum_tuple_1", &Shape::Circle(0.25)),
        case("enum_tuple_n", &Shape::Line(1, -2, "x".into())),
        case("enum_struct", &Shape::Rect { w: 1, h: Some(2), inner: Pair(0, "".into()) }),
        case("none", &None::<u32>),
        case("some", &Some(3u8)),
        case("vec_empty", &Vec::<u32>::new()),
        case("vec_nested", &vec![vec![], vec![1u16], vec![2, 3]]),
        case("vec_empty_inner", &vec![Vec::<u8>::new()]),
        case("map_empty", &BTreeMap::<u32, u32>::new()),
        case("map_int_keys", &by_int),
        case("map_nested_newtype_keys", &nested),
        case("map_newtype_string_keys", &by_name),
        case("map_string_keys", &by_string),
        case("nest", &nest),
        case("str_quotes", "say \"hi\""),
        case("str_backslash", &"C:\\dir\\".to_string()),
        case("str_control", &"\u{0}\u{1}\u{8}\t\n\u{b}\u{c}\r\u{1f}\u{7f}".to_string()),
        case("str_utf8", &"é漢字😀\u{10FFFF}".to_string()),
        case("str_mixed", &"a\"é\\😀\n".to_string()),
        case("str_empty", ""),
        case("f64_frac", &1.5f64),
        case("f64_whole", &3.0f64),
        case("f64_neg_zero", &-0.0f64),
        case("f64_small", &1e-7f64),
        case("f64_large", &1e21f64),
        case("f64_nan", &f64::NAN),
        case("f64_inf", &f64::NEG_INFINITY),
        case("f32", &0.1f32),
        case("i64_min", &i64::MIN),
        case("u64_max", &u64::MAX),
        case("i8_neg", &-128i8),
        case("zero", &0u8),
        case("bools", &(true, false)),
        case("arc", &Arc::new(vec![Some(1u8), None])),
        case(
            "value",
            &Value::Object(vec![
                (
                    "k".into(),
                    Value::Array(vec![
                        Value::Null,
                        Value::Bool(true),
                        Value::Int(-1),
                        Value::UInt(2),
                        Value::Float(2.5),
                        Value::Str("s".into()),
                    ]),
                ),
                ("e".into(), Value::Object(vec![])),
                ("a".into(), Value::Array(vec![])),
            ]),
        ),
    ]
}

/// `(case, compact JSON, pretty JSON)`.
const GOLDEN: &[(&str, &str, &str)] = &[
    (
        "named",
        "{\"id\":7,\"label\":\"seven\",\"note\":null,\"tags\":[1,2]}",
        "{\n  \"id\": 7,\n  \"label\": \"seven\",\n  \"note\": null,\n  \"tags\": [\n    1,\n    2\n  ]\n}",
    ),
    (
        "named_some",
        "{\"id\":0,\"label\":\"\",\"note\":\"n\",\"tags\":[]}",
        "{\n  \"id\": 0,\n  \"label\": \"\",\n  \"note\": \"n\",\n  \"tags\": []\n}",
    ),
    (
        "transparent",
        "42",
        "42",
    ),
    (
        "transparent_str",
        "\"x\"",
        "\"x\"",
    ),
    (
        "tuple_struct",
        "[1,\"one\"]",
        "[\n  1,\n  \"one\"\n]",
    ),
    (
        "tuple_struct_1",
        "[-5]",
        "[\n  -5\n]",
    ),
    (
        "empty_struct",
        "{}",
        "{}",
    ),
    (
        "unit_struct",
        "null",
        "null",
    ),
    (
        "enum_unit",
        "\"Dot\"",
        "\"Dot\"",
    ),
    (
        "enum_tuple_1",
        "{\"Circle\":0.25}",
        "{\n  \"Circle\": 0.25\n}",
    ),
    (
        "enum_tuple_n",
        "{\"Line\":[1,-2,\"x\"]}",
        "{\n  \"Line\": [\n    1,\n    -2,\n    \"x\"\n  ]\n}",
    ),
    (
        "enum_struct",
        "{\"Rect\":{\"w\":1,\"h\":2,\"inner\":[0,\"\"]}}",
        "{\n  \"Rect\": {\n    \"w\": 1,\n    \"h\": 2,\n    \"inner\": [\n      0,\n      \"\"\n    ]\n  }\n}",
    ),
    (
        "none",
        "null",
        "null",
    ),
    (
        "some",
        "3",
        "3",
    ),
    (
        "vec_empty",
        "[]",
        "[]",
    ),
    (
        "vec_nested",
        "[[],[1],[2,3]]",
        "[\n  [],\n  [\n    1\n  ],\n  [\n    2,\n    3\n  ]\n]",
    ),
    (
        "vec_empty_inner",
        "[[]]",
        "[\n  []\n]",
    ),
    (
        "map_empty",
        "{}",
        "{}",
    ),
    (
        "map_int_keys",
        "{\"-3\":[\"a\",\"b\"],\"7\":[]}",
        "{\n  \"-3\": [\n    \"a\",\n    \"b\"\n  ],\n  \"7\": []\n}",
    ),
    (
        "map_nested_newtype_keys",
        "{\"1\":{},\"18446744073709551615\":{\"0\":\"zero\",\"9\":\"\"}}",
        "{\n  \"1\": {},\n  \"18446744073709551615\": {\n    \"0\": \"zero\",\n    \"9\": \"\"\n  }\n}",
    ),
    (
        "map_newtype_string_keys",
        "{\"q\\\"uote\":1,\"tab\\tnl\\n\":2}",
        "{\n  \"q\\\"uote\": 1,\n  \"tab\\tnl\\n\": 2\n}",
    ),
    (
        "map_string_keys",
        "{\"back\\\\slash\":0.5,\"é\":-2.0}",
        "{\n  \"back\\\\slash\": 0.5,\n  \"é\": -2.0\n}",
    ),
    (
        "nest",
        "{\"shapes\":[\"Dot\",{\"Circle\":2.0},{\"Line\":[-1,2147483647,\"l\"]},{\"Rect\":{\"w\":3,\"h\":null,\"inner\":[9,\"p\"]}}],\"by_key\":{\"2\":[],\"4\":[\"Dot\"]},\"empty\":{},\"none\":null,\"unit\":null}",
        "{\n  \"shapes\": [\n    \"Dot\",\n    {\n      \"Circle\": 2.0\n    },\n    {\n      \"Line\": [\n        -1,\n        2147483647,\n        \"l\"\n      ]\n    },\n    {\n      \"Rect\": {\n        \"w\": 3,\n        \"h\": null,\n        \"inner\": [\n          9,\n          \"p\"\n        ]\n      }\n    }\n  ],\n  \"by_key\": {\n    \"2\": [],\n    \"4\": [\n      \"Dot\"\n    ]\n  },\n  \"empty\": {},\n  \"none\": null,\n  \"unit\": null\n}",
    ),
    (
        "str_quotes",
        "\"say \\\"hi\\\"\"",
        "\"say \\\"hi\\\"\"",
    ),
    (
        "str_backslash",
        "\"C:\\\\dir\\\\\"",
        "\"C:\\\\dir\\\\\"",
    ),
    (
        "str_control",
        "\"\\u0000\\u0001\\u0008\\t\\n\\u000b\\u000c\\r\\u001f\u{7f}\"",
        "\"\\u0000\\u0001\\u0008\\t\\n\\u000b\\u000c\\r\\u001f\u{7f}\"",
    ),
    (
        "str_utf8",
        "\"é漢字😀\u{10ffff}\"",
        "\"é漢字😀\u{10ffff}\"",
    ),
    (
        "str_mixed",
        "\"a\\\"é\\\\😀\\n\"",
        "\"a\\\"é\\\\😀\\n\"",
    ),
    (
        "str_empty",
        "\"\"",
        "\"\"",
    ),
    (
        "f64_frac",
        "1.5",
        "1.5",
    ),
    (
        "f64_whole",
        "3.0",
        "3.0",
    ),
    (
        "f64_neg_zero",
        "-0.0",
        "-0.0",
    ),
    (
        "f64_small",
        "0.0000001",
        "0.0000001",
    ),
    (
        "f64_large",
        "1000000000000000000000.0",
        "1000000000000000000000.0",
    ),
    (
        "f64_nan",
        "null",
        "null",
    ),
    (
        "f64_inf",
        "null",
        "null",
    ),
    (
        "f32",
        "0.10000000149011612",
        "0.10000000149011612",
    ),
    (
        "i64_min",
        "-9223372036854775808",
        "-9223372036854775808",
    ),
    (
        "u64_max",
        "18446744073709551615",
        "18446744073709551615",
    ),
    (
        "i8_neg",
        "-128",
        "-128",
    ),
    (
        "zero",
        "0",
        "0",
    ),
    (
        "bools",
        "[true,false]",
        "[\n  true,\n  false\n]",
    ),
    (
        "arc",
        "[1,null]",
        "[\n  1,\n  null\n]",
    ),
    (
        "value",
        "{\"k\":[null,true,-1,2,2.5,\"s\"],\"e\":{},\"a\":[]}",
        "{\n  \"k\": [\n    null,\n    true,\n    -1,\n    2,\n    2.5,\n    \"s\"\n  ],\n  \"e\": {},\n  \"a\": []\n}",
    ),
];

#[test]
fn writer_output_matches_the_goldens() {
    let got = cases();
    assert_eq!(got.len(), GOLDEN.len());
    for ((name, compact, pretty), &(want_name, want_compact, want_pretty)) in got.iter().zip(GOLDEN)
    {
        assert_eq!(*name, want_name);
        assert_eq!(compact, want_compact, "{name}: compact");
        assert_eq!(pretty, want_pretty, "{name}: pretty");
    }
}

#[test]
fn both_forms_parse_to_the_same_tree_and_write_back_unchanged() {
    for (name, compact, pretty) in cases() {
        let tree: Value = serde_json::from_str(&compact).unwrap();
        let from_pretty: Value = serde_json::from_str(&pretty).unwrap();
        assert_eq!(serde_json::to_string(&from_pretty).unwrap(), compact, "{name}");
        assert_eq!(serde_json::to_string(&tree).unwrap(), compact, "{name}");
        assert_eq!(serde_json::to_string_pretty(&tree).unwrap(), pretty, "{name}");
    }
}
