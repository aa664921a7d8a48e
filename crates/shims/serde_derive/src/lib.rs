//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` / `#[derive(Deserialize)]` against the
//! workspace `serde` shim without syn/quote: the item is parsed directly
//! from `proc_macro::TokenTree`s and the impl is emitted as a source string.
//!
//! Supported shapes — exactly what this workspace derives on:
//! - structs with named fields (any visibility, attributes skipped),
//! - enums with unit variants, named-field variants and newtype variants
//!   (externally tagged, matching serde's default representation);
//!   `Deserialize` takes unit variants only.
//!
//! Generics, tuple structs and `#[serde(...)]` attributes are not supported
//! and produce a compile-time panic naming the offending item.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum VariantShape {
    Unit,
    Named(Vec<String>),
    Newtype,
}

enum Item {
    Struct {
        name: String,
        fields: Vec<String>,
    },
    Enum {
        name: String,
        variants: Vec<(String, VariantShape)>,
    },
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let code = match &item {
        Item::Struct { name, fields } => gen_struct_ser(name, fields),
        Item::Enum { name, variants } => gen_enum_ser(name, variants),
    };
    code.parse()
        .expect("serde_derive: generated Serialize impl must parse")
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let code = match &item {
        Item::Struct { name, fields } => gen_struct_de(name, fields),
        Item::Enum { name, variants } => gen_enum_de(name, variants),
    };
    code.parse()
        .expect("serde_derive: generated Deserialize impl must parse")
}

// ---------------------------------------------------------------- parsing

fn parse_item(input: TokenStream) -> Item {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs_and_vis(&toks, &mut i);
    let kw = expect_ident(&toks, &mut i);
    let name = expect_ident(&toks, &mut i);
    if matches!(toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive shim: generic type `{name}` is not supported");
    }
    let body = match toks.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        _ => panic!(
            "serde_derive shim: `{name}` must have a braced body (tuple/unit structs unsupported)"
        ),
    };
    match kw.as_str() {
        "struct" => Item::Struct {
            name,
            fields: parse_named_fields(body),
        },
        "enum" => Item::Enum {
            name,
            variants: parse_variants(body),
        },
        other => panic!("serde_derive shim: cannot derive for `{other}` items"),
    }
}

fn skip_attrs_and_vis(toks: &[TokenTree], i: &mut usize) {
    loop {
        match toks.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => *i += 2, // `#` + `[...]`
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(toks.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1; // `pub(crate)` etc.
                }
            }
            _ => return,
        }
    }
}

fn expect_ident(toks: &[TokenTree], i: &mut usize) -> String {
    match toks.get(*i) {
        Some(TokenTree::Ident(id)) => {
            *i += 1;
            id.to_string()
        }
        other => panic!("serde_derive shim: expected identifier, found {other:?}"),
    }
}

/// Parse `name: Type, ...` named fields, skipping attributes and
/// visibility; commas inside `<...>` or any bracketed group do not split.
fn parse_named_fields(body: TokenStream) -> Vec<String> {
    let toks: Vec<TokenTree> = body.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        skip_attrs_and_vis(&toks, &mut i);
        if i >= toks.len() {
            break;
        }
        let name = expect_ident(&toks, &mut i);
        match toks.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => {
                panic!("serde_derive shim: expected `:` after field `{name}`, found {other:?}")
            }
        }
        let mut angle_depth = 0i32;
        while i < toks.len() {
            match &toks[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        fields.push(name);
    }
    fields
}

fn parse_variants(body: TokenStream) -> Vec<(String, VariantShape)> {
    let toks: Vec<TokenTree> = body.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        skip_attrs_and_vis(&toks, &mut i);
        if i >= toks.len() {
            break;
        }
        let name = expect_ident(&toks, &mut i);
        let shape = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantShape::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                let commas = inner
                    .iter()
                    .filter(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == ','))
                    .count();
                if commas > 1
                    || (commas == 1
                        && !matches!(inner.last(), Some(TokenTree::Punct(p)) if p.as_char() == ','))
                {
                    panic!("serde_derive shim: multi-field tuple variant `{name}` unsupported");
                }
                VariantShape::Newtype
            }
            _ => VariantShape::Unit,
        };
        if matches!(toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
        variants.push((name, shape));
    }
    variants
}

// ---------------------------------------------------------------- codegen

const HEADER: &str =
    "#[automatically_derived]\n#[allow(warnings, clippy::all, clippy::pedantic)]\n";

fn gen_struct_ser(name: &str, fields: &[String]) -> String {
    let pairs: String = fields
        .iter()
        .map(|f| {
            format!(
                "(::std::string::String::from(\"{f}\"), ::serde::Serialize::to_value(&self.{f})),"
            )
        })
        .collect();
    format!(
        "{HEADER}impl ::serde::Serialize for {name} {{\n\
         fn to_value(&self) -> ::serde::Value {{\n\
         ::serde::Value::Object(::std::vec![{pairs}])\n}}\n}}\n"
    )
}

fn gen_struct_de(name: &str, fields: &[String]) -> String {
    let inits: String = fields
        .iter()
        .map(|f| format!("{f}: ::serde::Deserialize::from_value(__v.field(\"{f}\")?)?,"))
        .collect();
    format!(
        "{HEADER}impl ::serde::Deserialize for {name} {{\n\
         fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
         ::std::result::Result::Ok({name} {{ {inits} }})\n}}\n}}\n"
    )
}

fn gen_enum_ser(name: &str, variants: &[(String, VariantShape)]) -> String {
    let arms: String = variants
        .iter()
        .map(|(v, shape)| match shape {
            VariantShape::Unit => format!(
                "{name}::{v} => ::serde::Value::Str(::std::string::String::from(\"{v}\")),"
            ),
            VariantShape::Named(fields) => {
                let binds = fields.join(", ");
                let pairs: String = fields
                    .iter()
                    .map(|f| {
                        format!(
                            "(::std::string::String::from(\"{f}\"), ::serde::Serialize::to_value({f})),"
                        )
                    })
                    .collect();
                format!(
                    "{name}::{v} {{ {binds} }} => ::serde::Value::Object(::std::vec![(\
                     ::std::string::String::from(\"{v}\"), \
                     ::serde::Value::Object(::std::vec![{pairs}]))]),"
                )
            }
            VariantShape::Newtype => format!(
                "{name}::{v}(__x) => ::serde::Value::Object(::std::vec![(\
                 ::std::string::String::from(\"{v}\"), \
                 ::serde::Serialize::to_value(__x))]),"
            ),
        })
        .collect();
    format!(
        "{HEADER}impl ::serde::Serialize for {name} {{\n\
         fn to_value(&self) -> ::serde::Value {{\n\
         match self {{ {arms} }}\n}}\n}}\n"
    )
}

fn gen_enum_de(name: &str, variants: &[(String, VariantShape)]) -> String {
    let unit_arms: String = variants
        .iter()
        .map(|(v, shape)| match shape {
            VariantShape::Unit => {
                format!("Some(\"{v}\") => ::std::result::Result::Ok({name}::{v}),")
            }
            _ => panic!("serde_derive shim: Deserialize on `{name}::{v}`: only unit variants"),
        })
        .collect();
    format!(
        "{HEADER}impl ::serde::Deserialize for {name} {{\n\
         fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
         match __v.as_str() {{\n\
         {unit_arms}\n\
         _ => ::std::result::Result::Err(::serde::Error::custom(\
            ::std::format!(\"unknown variant {{:?}} of {name}\", __v))),\n\
         }}\n}}\n}}\n"
    )
}
