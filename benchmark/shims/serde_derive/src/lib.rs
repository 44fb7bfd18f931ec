//! Offline stand-in for `serde_derive`, written against `proc_macro` alone
//! (no `syn`, no `quote`: neither resolves offline).
//!
//! It derives `Serialize` and `Deserialize` for the shapes the Beehive
//! crates use — non-generic structs (named, tuple, newtype, unit) and enums
//! of unit, newtype, tuple and struct variants — and walks the data model
//! the way serde's own derive does, so a positional format sees the same
//! calls in the same order. Two limits, both compile errors rather than
//! silent differences: generic types are refused, and `#[serde(skip)]` is
//! the only attribute understood. Derived structs are read through
//! `visit_seq` only; there is no `visit_map`, so a self-describing format
//! that hands structs over as maps will report "invalid type: map".

use proc_macro::{Delimiter, Group, TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, gen_serialize)
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, gen_deserialize)
}

fn expand(input: TokenStream, gen: fn(&Item) -> String) -> TokenStream {
    let code = match parse_item(input) {
        Ok(item) => gen(&item),
        Err(msg) => format!("::core::compile_error!({msg:?});"),
    };
    code.parse()
        .expect("serde_derive stand-in generated code that does not tokenize")
}

// ---- the parsed item -----------------------------------------------------

struct Item {
    name: String,
    body: Body,
}

enum Body {
    Struct(Fields),
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Fields {
    Unit,
    /// Tuple fields: one `skip` flag each.
    Tuple(Vec<bool>),
    Named(Vec<Named>),
}

struct Named {
    name: String,
    skip: bool,
}

// ---- parsing ---------------------------------------------------------------

type Tokens = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

fn is_punct(tt: Option<&TokenTree>, ch: char) -> bool {
    matches!(tt, Some(TokenTree::Punct(p)) if p.as_char() == ch)
}

fn is_ident(tt: Option<&TokenTree>, word: &str) -> bool {
    matches!(tt, Some(TokenTree::Ident(i)) if i.to_string() == word)
}

/// Consumes leading `#[..]` attributes; reports whether one was
/// `#[serde(skip)]`, and refuses any other `#[serde(..)]`.
fn take_attrs(it: &mut Tokens) -> Result<bool, String> {
    let mut skip = false;
    while is_punct(it.peek(), '#') {
        it.next();
        let Some(TokenTree::Group(attr)) = it.next() else {
            return Err("expected [..] after #".into());
        };
        let mut inner = attr.stream().into_iter();
        if !is_ident(inner.next().as_ref(), "serde") {
            continue;
        }
        let args = match inner.next() {
            Some(TokenTree::Group(g)) => g.stream().to_string(),
            _ => String::new(),
        };
        if args.trim() == "skip" {
            skip = true;
        } else {
            return Err(format!(
                "the offline serde_derive stand-in understands only #[serde(skip)], not #[serde({args})]"
            ));
        }
    }
    Ok(skip)
}

/// Consumes `pub`, `pub(crate)`, `pub(in path)`.
fn take_vis(it: &mut Tokens) {
    if is_ident(it.peek(), "pub") {
        it.next();
        if matches!(it.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            it.next();
        }
    }
}

/// Consumes one type (or discriminant expression): everything up to a comma
/// that is outside every `<..>`. Brackets and parentheses are already
/// groups; `->` is not a closing angle.
fn skip_to_comma(it: &mut Tokens) {
    let mut depth = 0usize;
    let mut prev_dash = false;
    while let Some(tt) = it.peek() {
        if let TokenTree::Punct(p) = tt {
            match p.as_char() {
                ',' if depth == 0 => return,
                '<' => depth += 1,
                '>' if !prev_dash && depth > 0 => depth -= 1,
                _ => {}
            }
            prev_dash = p.as_char() == '-';
        } else {
            prev_dash = false;
        }
        it.next();
    }
}

fn parse_named(group: &Group) -> Result<Vec<Named>, String> {
    let mut it = group.stream().into_iter().peekable();
    let mut out = Vec::new();
    while it.peek().is_some() {
        let skip = take_attrs(&mut it)?;
        take_vis(&mut it);
        let Some(TokenTree::Ident(name)) = it.next() else {
            return Err("expected a field name".into());
        };
        if !is_punct(it.next().as_ref(), ':') {
            return Err(format!("expected `:` after field `{name}`"));
        }
        skip_to_comma(&mut it);
        it.next(); // the comma, if any
        out.push(Named {
            name: name.to_string(),
            skip,
        });
    }
    Ok(out)
}

fn parse_tuple(group: &Group) -> Result<Vec<bool>, String> {
    let mut it = group.stream().into_iter().peekable();
    let mut out = Vec::new();
    while it.peek().is_some() {
        let skip = take_attrs(&mut it)?;
        take_vis(&mut it);
        skip_to_comma(&mut it);
        it.next();
        out.push(skip);
    }
    Ok(out)
}

fn parse_fields(tt: Option<&TokenTree>) -> Result<Option<Fields>, String> {
    match tt {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            Ok(Some(Fields::Named(parse_named(g)?)))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            Ok(Some(Fields::Tuple(parse_tuple(g)?)))
        }
        _ => Ok(None),
    }
}

fn parse_variants(group: &Group) -> Result<Vec<Variant>, String> {
    let mut it = group.stream().into_iter().peekable();
    let mut out = Vec::new();
    while it.peek().is_some() {
        if take_attrs(&mut it)? {
            return Err("#[serde(skip)] on a variant is not supported by the stand-in".into());
        }
        let Some(TokenTree::Ident(name)) = it.next() else {
            return Err("expected a variant name".into());
        };
        let fields = match parse_fields(it.peek())? {
            Some(f) => {
                it.next();
                f
            }
            None => Fields::Unit,
        };
        skip_to_comma(&mut it); // an explicit `= discriminant`, if any
        it.next();
        out.push(Variant {
            name: name.to_string(),
            fields,
        });
    }
    Ok(out)
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let mut it = input.into_iter().peekable();
    if take_attrs(&mut it)? {
        return Err("#[serde(skip)] belongs on a field".into());
    }
    take_vis(&mut it);
    let kind = match it.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        _ => return Err("expected `struct` or `enum`".into()),
    };
    let Some(TokenTree::Ident(name)) = it.next() else {
        return Err("expected the type's name".into());
    };
    let name = name.to_string();
    if is_punct(it.peek(), '<') {
        return Err(format!(
            "the offline serde_derive stand-in does not derive for generic types (`{name}<..>`)"
        ));
    }
    let body = match kind.as_str() {
        "struct" => Body::Struct(parse_fields(it.peek())?.unwrap_or(Fields::Unit)),
        "enum" => match it.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::Enum(parse_variants(g)?)
            }
            _ => return Err("expected the enum's variants".into()),
        },
        other => return Err(format!("cannot derive serde traits for a `{other}`")),
    };
    Ok(Item { name, body })
}

// ---- Serialize -------------------------------------------------------------

const SER_HEAD: &str = "#[allow(unused_variables, unused_mut, clippy::all)] \
    fn serialize<__S: ::serde::Serializer>(&self, __s: __S) \
    -> ::core::result::Result<__S::Ok, __S::Error>";

fn gen_serialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(Fields::Unit) => format!("__s.serialize_unit_struct({name:?})"),
        Body::Struct(Fields::Tuple(skips)) if skips.len() == 1 && !skips[0] => {
            format!("__s.serialize_newtype_struct({name:?}, &self.0)")
        }
        Body::Struct(Fields::Tuple(skips)) => {
            let live: Vec<usize> = (0..skips.len()).filter(|i| !skips[*i]).collect();
            let mut s = format!(
                "use ::serde::ser::SerializeTupleStruct as _; \
                 let mut __st = __s.serialize_tuple_struct({name:?}, {})?;",
                live.len()
            );
            for i in live {
                s += &format!("__st.serialize_field(&self.{i})?;");
            }
            s + "__st.end()"
        }
        Body::Struct(Fields::Named(fields)) => {
            let live: Vec<&Named> = fields.iter().filter(|f| !f.skip).collect();
            let mut s = format!(
                "use ::serde::ser::SerializeStruct as _; \
                 let mut __st = __s.serialize_struct({name:?}, {})?;",
                live.len()
            );
            for f in live {
                s += &format!("__st.serialize_field({:?}, &self.{})?;", f.name, f.name);
            }
            s + "__st.end()"
        }
        Body::Enum(variants) if variants.is_empty() => "match *self {}".to_string(),
        Body::Enum(variants) => {
            let mut s = String::from("match self {");
            for (idx, v) in variants.iter().enumerate() {
                s += &ser_variant(name, idx, v);
            }
            s + "}"
        }
    };
    format!("impl ::serde::Serialize for {name} {{ {SER_HEAD} {{ {body} }} }}")
}

fn ser_variant(ty: &str, idx: usize, v: &Variant) -> String {
    let vn = &v.name;
    match &v.fields {
        Fields::Unit => {
            format!("{ty}::{vn} => __s.serialize_unit_variant({ty:?}, {idx}u32, {vn:?}),")
        }
        Fields::Tuple(skips) if skips.len() == 1 && !skips[0] => format!(
            "{ty}::{vn}(__f0) => __s.serialize_newtype_variant({ty:?}, {idx}u32, {vn:?}, __f0),"
        ),
        Fields::Tuple(skips) => {
            let binds: Vec<String> = (0..skips.len()).map(|i| format!("__f{i}")).collect();
            let live: Vec<&String> = binds
                .iter()
                .zip(skips)
                .filter(|(_, s)| !**s)
                .map(|(b, _)| b)
                .collect();
            let mut s = format!(
                "{ty}::{vn}({}) => {{ use ::serde::ser::SerializeTupleVariant as _; \
                 let mut __st = __s.serialize_tuple_variant({ty:?}, {idx}u32, {vn:?}, {})?;",
                binds.join(", "),
                live.len()
            );
            for b in live {
                s += &format!("__st.serialize_field({b})?;");
            }
            s + "__st.end() }"
        }
        Fields::Named(fields) => {
            let binds: Vec<String> = fields.iter().map(|f| f.name.clone()).collect();
            let live: Vec<&Named> = fields.iter().filter(|f| !f.skip).collect();
            let mut s = format!(
                "{ty}::{vn} {{ {} }} => {{ use ::serde::ser::SerializeStructVariant as _; \
                 let mut __st = __s.serialize_struct_variant({ty:?}, {idx}u32, {vn:?}, {})?;",
                binds.join(", "),
                live.len()
            );
            for f in live {
                s += &format!("__st.serialize_field({:?}, {})?;", f.name, f.name);
            }
            s + "__st.end() }"
        }
    }
}

// ---- Deserialize -----------------------------------------------------------

/// A visitor `$vis` producing `$ty`, reading `fields` positionally and
/// finishing with the constructor expression `ctor`.
fn seq_visitor(vis: &str, ty: &str, expecting: &str, fields: &Fields, path: &str) -> String {
    let mut reads = String::new();
    let mut n = 0usize;
    let mut read = |bind: &str, skip: bool| {
        if skip {
            reads.push_str(&format!(
                "let {bind} = ::core::default::Default::default();"
            ));
        } else {
            reads.push_str(&format!(
                "let {bind} = match ::serde::de::SeqAccess::next_element(&mut __seq)? {{ \
                     ::core::option::Option::Some(__v) => __v, \
                     ::core::option::Option::None => return ::core::result::Result::Err( \
                         ::serde::de::Error::invalid_length({n}usize, &self)), }};"
            ));
            n += 1;
        }
    };
    let ctor = match fields {
        Fields::Unit => path.to_string(),
        Fields::Tuple(skips) => {
            let binds: Vec<String> = (0..skips.len()).map(|i| format!("__f{i}")).collect();
            for (b, s) in binds.iter().zip(skips) {
                read(b, *s);
            }
            format!("{path}({})", binds.join(", "))
        }
        Fields::Named(named) => {
            let mut inits = Vec::new();
            for (i, f) in named.iter().enumerate() {
                let b = format!("__f{i}");
                read(&b, f.skip);
                inits.push(format!("{}: {b}", f.name));
            }
            format!("{path} {{ {} }}", inits.join(", "))
        }
    };
    format!(
        "struct {vis}; \
         impl<'de> ::serde::de::Visitor<'de> for {vis} {{ \
             type Value = {ty}; \
             fn expecting(&self, __f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {{ \
                 __f.write_str({expecting:?}) \
             }} \
             #[allow(unused_mut, clippy::all)] \
             fn visit_seq<__A: ::serde::de::SeqAccess<'de>>(self, mut __seq: __A) \
                 -> ::core::result::Result<{ty}, __A::Error> {{ \
                 {reads} ::core::result::Result::Ok({ctor}) \
             }} \
         }}"
    )
}

fn live_names(fields: &[Named]) -> String {
    let names: Vec<String> = fields
        .iter()
        .filter(|f| !f.skip)
        .map(|f| format!("{:?}", f.name))
        .collect();
    format!("&[{}]", names.join(", "))
}

fn gen_deserialize(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(Fields::Unit) => format!(
            "struct __V; \
             impl<'de> ::serde::de::Visitor<'de> for __V {{ \
                 type Value = {name}; \
                 fn expecting(&self, __f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {{ \
                     __f.write_str(\"unit struct {name}\") \
                 }} \
                 fn visit_unit<__E: ::serde::de::Error>(self) -> ::core::result::Result<{name}, __E> {{ \
                     ::core::result::Result::Ok({name}) \
                 }} \
             }} \
             __d.deserialize_unit_struct({name:?}, __V)"
        ),
        Body::Struct(Fields::Tuple(skips)) if skips.len() == 1 && !skips[0] => format!(
            "struct __V; \
             impl<'de> ::serde::de::Visitor<'de> for __V {{ \
                 type Value = {name}; \
                 fn expecting(&self, __f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {{ \
                     __f.write_str(\"tuple struct {name}\") \
                 }} \
                 fn visit_newtype_struct<__D2: ::serde::Deserializer<'de>>(self, __d2: __D2) \
                     -> ::core::result::Result<{name}, __D2::Error> {{ \
                     ::serde::Deserialize::deserialize(__d2).map({name}) \
                 }} \
                 fn visit_seq<__A: ::serde::de::SeqAccess<'de>>(self, mut __seq: __A) \
                     -> ::core::result::Result<{name}, __A::Error> {{ \
                     match ::serde::de::SeqAccess::next_element(&mut __seq)? {{ \
                         ::core::option::Option::Some(__v) => ::core::result::Result::Ok({name}(__v)), \
                         ::core::option::Option::None => ::core::result::Result::Err( \
                             ::serde::de::Error::invalid_length(0usize, &self)), \
                     }} \
                 }} \
             }} \
             __d.deserialize_newtype_struct({name:?}, __V)"
        ),
        Body::Struct(fields @ Fields::Tuple(skips)) => {
            let live = skips.iter().filter(|s| !**s).count();
            format!(
                "{} __d.deserialize_tuple_struct({name:?}, {live}usize, __V)",
                seq_visitor("__V", name, &format!("tuple struct {name}"), fields, name)
            )
        }
        Body::Struct(fields @ Fields::Named(named)) => format!(
            "{} __d.deserialize_struct({name:?}, {}, __V)",
            seq_visitor("__V", name, &format!("struct {name}"), fields, name),
            live_names(named)
        ),
        Body::Enum(variants) => de_enum(name, variants),
    };
    format!(
        "impl<'de> ::serde::Deserialize<'de> for {name} {{ \
             #[allow(unused_variables, clippy::all)] \
             fn deserialize<__D: ::serde::Deserializer<'de>>(__d: __D) \
                 -> ::core::result::Result<Self, __D::Error> {{ {body} }} \
         }}"
    )
}

fn de_enum(name: &str, variants: &[Variant]) -> String {
    let mut arms = String::new();
    for (idx, v) in variants.iter().enumerate() {
        let vn = &v.name;
        let path = format!("{name}::{vn}");
        let arm =
            match &v.fields {
                Fields::Unit => format!(
                    "{{ ::serde::de::VariantAccess::unit_variant(__var)?; \
                   ::core::result::Result::Ok({path}) }}"
                ),
                Fields::Tuple(skips) if skips.len() == 1 && !skips[0] => {
                    format!("::serde::de::VariantAccess::newtype_variant(__var).map({path})")
                }
                fields @ Fields::Tuple(skips) => {
                    let live = skips.iter().filter(|s| !**s).count();
                    format!(
                    "{{ {} ::serde::de::VariantAccess::tuple_variant(__var, {live}usize, __VV) }}",
                    seq_visitor("__VV", name, &format!("tuple variant {path}"), fields, &path)
                )
                }
                fields @ Fields::Named(named) => format!(
                    "{{ {} ::serde::de::VariantAccess::struct_variant(__var, {}, __VV) }}",
                    seq_visitor(
                        "__VV",
                        name,
                        &format!("struct variant {path}"),
                        fields,
                        &path
                    ),
                    live_names(named)
                ),
            };
        arms += &format!("{idx}u32 => {arm},");
    }
    let names: Vec<String> = variants.iter().map(|v| format!("{:?}", v.name)).collect();
    let count = variants.len();
    format!(
        "struct __V; \
         impl<'de> ::serde::de::Visitor<'de> for __V {{ \
             type Value = {name}; \
             fn expecting(&self, __f: &mut ::core::fmt::Formatter<'_>) -> ::core::fmt::Result {{ \
                 __f.write_str(\"enum {name}\") \
             }} \
             fn visit_enum<__A: ::serde::de::EnumAccess<'de>>(self, __data: __A) \
                 -> ::core::result::Result<{name}, __A::Error> {{ \
                 let (__idx, __var): (u32, _) = ::serde::de::EnumAccess::variant(__data)?; \
                 match __idx {{ \
                     {arms} \
                     __n => ::core::result::Result::Err(::serde::de::Error::invalid_value( \
                         ::serde::de::Unexpected::Unsigned(__n as u64), \
                         &\"variant index 0 <= i < {count}\")), \
                 }} \
             }} \
         }} \
         __d.deserialize_enum({name:?}, &[{}], __V)",
        names.join(", ")
    )
}
