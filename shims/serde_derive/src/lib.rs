//! `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the offline
//! serde shim.
//!
//! No `syn`/`quote` are available offline, so this parses the derive
//! input token stream by hand into a minimal item description (struct or
//! enum, fields or variants, `#[serde(transparent)]` flag) and emits the
//! trait impls as formatted source text: `Serialize` impls are
//! straight-line calls on a `::serde::Writer`, and `Deserialize` impls
//! read a `::serde::Value` tree. Supported shapes are the ones this
//! workspace derives on: non-generic named structs, tuple structs, and
//! externally-tagged enums with unit / tuple / struct variants.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Item {
    Struct { name: String, fields: Fields, transparent: bool },
    Enum { name: String, variants: Vec<Variant> },
}

enum Fields {
    Named(Vec<Field>),
    Tuple(usize),
    Unit,
}

struct Field {
    name: String,
    default: FieldDefault,
}

/// What a missing field deserializes to: an error (no attribute), the
/// type's `Default` (`#[serde(default)]`), or a named function's return
/// value (`#[serde(default = "path")]`).
enum FieldDefault {
    Required,
    Std,
    Path(String),
}

struct Variant {
    name: String,
    fields: Fields,
}

/// Split a token list on top-level commas, tracking `<`/`>` depth so
/// generic arguments (`BTreeMap<K, V>`) do not split.
fn split_commas(tokens: &[TokenTree]) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut cur = Vec::new();
    let mut depth = 0i32;
    for t in tokens {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => depth += 1,
                '>' if depth > 0 => depth -= 1,
                ',' if depth == 0 => {
                    out.push(std::mem::take(&mut cur));
                    continue;
                }
                _ => {}
            }
        }
        cur.push(t.clone());
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Skip leading attributes (`#[...]`), reporting whether any of them was
/// `#[serde(transparent)]` and what `#[serde(default...)]` requested.
fn skip_attrs(tokens: &[TokenTree], i: &mut usize) -> (bool, FieldDefault) {
    let mut transparent = false;
    let mut default = FieldDefault::Required;
    while *i + 1 < tokens.len() {
        let TokenTree::Punct(p) = &tokens[*i] else { break };
        if p.as_char() != '#' {
            break;
        }
        if let TokenTree::Group(g) = &tokens[*i + 1] {
            let text = g.stream().to_string();
            if text.starts_with("serde") {
                if text.contains("transparent") {
                    transparent = true;
                }
                if let Some((_, rest)) = text.split_once("default") {
                    // `default = "path"` or bare `default`.
                    let path = rest
                        .split('"')
                        .nth(1)
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(String::from);
                    default = match path {
                        Some(p) => FieldDefault::Path(p),
                        None => FieldDefault::Std,
                    };
                }
            }
        }
        *i += 2;
    }
    (transparent, default)
}

/// Skip a visibility qualifier (`pub`, `pub(crate)`, ...).
fn skip_vis(tokens: &[TokenTree], i: &mut usize) {
    if let Some(TokenTree::Ident(id)) = tokens.get(*i) {
        if id.to_string() == "pub" {
            *i += 1;
            if let Some(TokenTree::Group(g)) = tokens.get(*i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

fn parse_named_fields(group: &proc_macro::Group) -> Vec<Field> {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    split_commas(&tokens)
        .into_iter()
        .filter(|chunk| !chunk.is_empty())
        .map(|chunk| {
            let mut i = 0;
            let (_, default) = skip_attrs(&chunk, &mut i);
            skip_vis(&chunk, &mut i);
            match chunk.get(i) {
                Some(TokenTree::Ident(id)) => Field { name: id.to_string(), default },
                other => panic!("serde shim derive: expected field name, got {other:?}"),
            }
        })
        .collect()
}

fn parse_tuple_fields(group: &proc_macro::Group) -> usize {
    let tokens: Vec<TokenTree> = group.stream().into_iter().collect();
    split_commas(&tokens).iter().filter(|c| !c.is_empty()).count()
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let (transparent, _) = skip_attrs(&tokens, &mut i);
    skip_vis(&tokens, &mut i);
    let kw = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected struct/enum, got {other:?}"),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected type name, got {other:?}"),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            panic!("serde shim derive: generic types are not supported ({name})");
        }
    }
    match kw.as_str() {
        "struct" => {
            let fields = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(parse_tuple_fields(g))
                }
                _ => Fields::Unit,
            };
            Item::Struct { name, fields, transparent }
        }
        "enum" => {
            let Some(TokenTree::Group(g)) = tokens.get(i) else {
                panic!("serde shim derive: enum {name} has no body");
            };
            let body: Vec<TokenTree> = g.stream().into_iter().collect();
            let variants = split_commas(&body)
                .into_iter()
                .filter(|chunk| !chunk.is_empty())
                .map(|chunk| {
                    let mut j = 0;
                    let _ = skip_attrs(&chunk, &mut j);
                    let vname = match chunk.get(j) {
                        Some(TokenTree::Ident(id)) => id.to_string(),
                        other => panic!("serde shim derive: bad variant {other:?}"),
                    };
                    j += 1;
                    let fields = match chunk.get(j) {
                        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                            Fields::Named(parse_named_fields(g))
                        }
                        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                            Fields::Tuple(parse_tuple_fields(g))
                        }
                        _ => Fields::Unit,
                    };
                    Variant { name: vname, fields }
                })
                .collect();
            Item::Enum { name, variants }
        }
        other => panic!("serde shim derive: unsupported item kind `{other}`"),
    }
}

// --- Serialize -------------------------------------------------------------

/// Statements writing `fields` as a JSON array, each field an expression
/// naming a reference to it.
fn write_array(fields: &[String]) -> String {
    let mut code = String::from("w.begin_array();");
    for f in fields {
        code += &format!(" w.element(); ::serde::Serialize::serialize({f}, w);");
    }
    code + " w.end_array();"
}

/// Statements writing named fields as a JSON object; `access` turns a
/// field's index and name into an expression referencing it.
fn write_object(fields: &[Field], access: impl Fn(usize, &str) -> String) -> String {
    let mut code = String::from("w.begin_object();");
    for (k, f) in fields.iter().enumerate() {
        let name = &f.name;
        let field = access(k, name);
        code += &format!(" w.key(\"{name}\"); ::serde::Serialize::serialize({field}, w);");
    }
    code + " w.end_object();"
}

/// Derive `Serialize` (JSON written straight into a `::serde::Writer`)
/// for the shim framework.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let (name, code) = match parse_item(input) {
        Item::Struct { name, fields, transparent } => {
            let code = match (&fields, transparent) {
                (Fields::Tuple(1), true) => {
                    "::serde::Serialize::serialize(&self.0, w);".to_string()
                }
                (Fields::Named(fs), _) => write_object(fs, |_, f| format!("&self.{f}")),
                (Fields::Tuple(n), _) => {
                    write_array(&(0..*n).map(|k| format!("&self.{k}")).collect::<Vec<_>>())
                }
                (Fields::Unit, _) => "w.null();".to_string(),
            };
            (name, code)
        }
        Item::Enum { name, variants } => {
            // Externally tagged: a unit variant is its name as a string;
            // any other is a one-member object keyed by the name.
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    let (pattern, inner) = match &v.fields {
                        Fields::Unit => return format!("{name}::{vn} => w.str(\"{vn}\"),"),
                        Fields::Tuple(1) => (
                            "(x0)".to_string(),
                            "::serde::Serialize::serialize(x0, w);".to_string(),
                        ),
                        Fields::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|k| format!("x{k}")).collect();
                            (format!("({})", binds.join(", ")), write_array(&binds))
                        }
                        Fields::Named(fs) => {
                            // Bind fields by index so no field name can
                            // shadow the writer.
                            let binds: Vec<String> = fs
                                .iter()
                                .enumerate()
                                .map(|(k, f)| format!("{}: x{k}", f.name))
                                .collect();
                            let inner = write_object(fs, |k, _| format!("x{k}"));
                            (format!(" {{ {} }}", binds.join(", ")), inner)
                        }
                    };
                    format!(
                        "{name}::{vn}{pattern} => {{\n\
                             w.begin_object(); w.key(\"{vn}\"); {inner} w.end_object();\n\
                         }}"
                    )
                })
                .collect();
            (name, format!("match self {{ {} }}", arms.join("\n")))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn serialize(&self, w: &mut ::serde::Writer) {{ {code} }}\n\
         }}"
    )
    .parse()
    .expect("serde shim derive: generated Serialize impl must parse")
}

// --- Deserialize -----------------------------------------------------------

fn named_field_reads(ty: &str, ctor: &str, fs: &[Field], src: &str) -> String {
    let reads: Vec<String> = fs
        .iter()
        .map(|f| {
            let name = &f.name;
            let on_missing = match &f.default {
                FieldDefault::Required => format!(
                    "return Err(::serde::DeError::msg(\"missing field `{name}` in `{ty}`\"))"
                ),
                FieldDefault::Std => "::core::default::Default::default()".to_string(),
                FieldDefault::Path(p) => format!("{p}()"),
            };
            format!(
                "{name}: match {src}.get(\"{name}\") {{\n\
                     Some(x) => ::serde::Deserialize::from_value(x)?,\n\
                     None => {on_missing},\n\
                 }},"
            )
        })
        .collect();
    format!("{ctor} {{ {} }}", reads.join("\n"))
}

/// Derive `Deserialize` (value-tree parsing) for the shim framework. For
/// `#[serde(transparent)]` newtypes this also emits a `JsonKey` impl so
/// the type can serve as a `BTreeMap` key in JSON objects.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let body = match parse_item(input) {
        Item::Struct { name, fields, transparent } => match (&fields, transparent) {
            (Fields::Tuple(1), true) => format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) -> Result<Self, ::serde::DeError> {{\n\
                         Ok({name}(::serde::Deserialize::from_value(v)?))\n\
                     }}\n\
                 }}\n\
                 impl ::serde::JsonKey for {name} {{\n\
                     fn write_key(&self, w: &mut ::serde::Writer) {{\n\
                         ::serde::JsonKey::write_key(&self.0, w)\n\
                     }}\n\
                     fn from_key(s: &str) -> Result<Self, ::serde::DeError> {{\n\
                         Ok({name}(::serde::JsonKey::from_key(s)?))\n\
                     }}\n\
                 }}"
            ),
            (Fields::Named(fs), _) => {
                let build = named_field_reads(&name, &name, fs, "v");
                format!(
                    "impl ::serde::Deserialize for {name} {{\n\
                         fn from_value(v: &::serde::Value) -> Result<Self, ::serde::DeError> {{\n\
                             match v {{\n\
                                 ::serde::Value::Object(_) => Ok({build}),\n\
                                 other => Err(::serde::DeError::msg(format!(\
                                     \"expected object for `{name}`, got {{other:?}}\"))),\n\
                             }}\n\
                         }}\n\
                     }}"
                )
            }
            (Fields::Tuple(n), _) => {
                let reads: Vec<String> = (0..*n)
                    .map(|k| format!("::serde::Deserialize::from_value(&items[{k}])?"))
                    .collect();
                format!(
                    "impl ::serde::Deserialize for {name} {{\n\
                         fn from_value(v: &::serde::Value) -> Result<Self, ::serde::DeError> {{\n\
                             match v {{\n\
                                 ::serde::Value::Array(items) if items.len() == {n} => \
                                     Ok({name}({})),\n\
                                 other => Err(::serde::DeError::msg(format!(\
                                     \"expected {n}-array for `{name}`, got {{other:?}}\"))),\n\
                             }}\n\
                         }}\n\
                     }}",
                    reads.join(", ")
                )
            }
            (Fields::Unit, _) => format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(_v: &::serde::Value) -> Result<Self, ::serde::DeError> {{\n\
                         Ok({name})\n\
                     }}\n\
                 }}"
            ),
        },
        Item::Enum { name, variants } => {
            let mut unit_arms = Vec::new();
            let mut tagged_arms = Vec::new();
            for v in &variants {
                let vn = &v.name;
                match &v.fields {
                    Fields::Unit => {
                        unit_arms.push(format!("\"{vn}\" => Ok({name}::{vn}),"));
                    }
                    Fields::Tuple(1) => tagged_arms.push(format!(
                        "\"{vn}\" => Ok({name}::{vn}(::serde::Deserialize::from_value(inner)?)),"
                    )),
                    Fields::Tuple(n) => {
                        let reads: Vec<String> = (0..*n)
                            .map(|k| format!("::serde::Deserialize::from_value(&items[{k}])?"))
                            .collect();
                        tagged_arms.push(format!(
                            "\"{vn}\" => match inner {{\n\
                                 ::serde::Value::Array(items) if items.len() == {n} => \
                                     Ok({name}::{vn}({})),\n\
                                 other => Err(::serde::DeError::msg(format!(\
                                     \"expected {n}-array for `{name}::{vn}`, got {{other:?}}\"))),\n\
                             }},",
                            reads.join(", ")
                        ));
                    }
                    Fields::Named(fs) => {
                        let build = named_field_reads(&name, &format!("{name}::{vn}"), fs, "inner");
                        tagged_arms.push(format!(
                            "\"{vn}\" => match inner {{\n\
                                 ::serde::Value::Object(_) => Ok({build}),\n\
                                 other => Err(::serde::DeError::msg(format!(\
                                     \"expected object for `{name}::{vn}`, got {{other:?}}\"))),\n\
                             }},"
                        ));
                    }
                }
            }
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) -> Result<Self, ::serde::DeError> {{\n\
                         match v {{\n\
                             ::serde::Value::Str(s) => match s.as_str() {{\n\
                                 {}\n\
                                 other => Err(::serde::DeError::msg(format!(\
                                     \"unknown `{name}` variant `{{other}}`\"))),\n\
                             }},\n\
                             ::serde::Value::Object(fields) if fields.len() == 1 => {{\n\
                                 let (tag, inner) = &fields[0];\n\
                                 match tag.as_str() {{\n\
                                     {}\n\
                                     other => Err(::serde::DeError::msg(format!(\
                                         \"unknown `{name}` variant `{{other}}`\"))),\n\
                                 }}\n\
                             }}\n\
                             other => Err(::serde::DeError::msg(format!(\
                                 \"expected `{name}` variant, got {{other:?}}\"))),\n\
                         }}\n\
                     }}\n\
                 }}",
                unit_arms.join("\n"),
                tagged_arms.join("\n")
            )
        }
    };
    body.parse().expect("serde shim derive: generated Deserialize impl must parse")
}
