//! Property tests: arbitrary values must round-trip through the wire format,
//! and decoding must never panic on arbitrary input.

use beehive_raft::prop::{for_all, Gen};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

#[derive(Serialize, Deserialize, PartialEq, Debug, Clone)]
enum WireEnum {
    A,
    B(u64),
    C(String, Option<i32>),
    D { flag: bool, data: Vec<u8> },
}

#[derive(Serialize, Deserialize, PartialEq, Debug, Clone)]
struct WireStruct {
    id: u64,
    name: String,
    tags: Vec<String>,
    weights: BTreeMap<String, f64>,
    variant: WireEnum,
    maybe: Option<Box<WireStruct>>,
}

/// Cases per property.
const CASES: u64 = 256;

fn arb_enum(g: &mut Gen) -> WireEnum {
    match g.range(0..4u8) {
        0 => WireEnum::A,
        1 => WireEnum::B(g.range(..)),
        2 => WireEnum::C(g.string(0..=20), g.option(|g| g.range(..))),
        _ => WireEnum::D {
            flag: g.bool(),
            data: g.vec(0..64, |g| g.range(..)),
        },
    }
}

/// A struct nested up to `depth` levels below the top one.
fn arb_struct(g: &mut Gen, depth: u32) -> WireStruct {
    WireStruct {
        id: g.range(..),
        name: g.string(0..=16),
        tags: g.vec(0..4, |g| g.string(0..=8)),
        weights: g
            .vec(0..4, |g| (g.string(0..=8), g.f64()))
            .into_iter()
            .collect(),
        variant: arb_enum(g),
        maybe: if depth == 0 {
            None
        } else {
            g.option(|g| Box::new(arb_struct(g, depth - 1)))
        },
    }
}

#[test]
fn u64_roundtrip() {
    for_all(
        CASES,
        |g| g.range::<u64>(..),
        |v| {
            let buf = beehive_wire::to_vec(&v).unwrap();
            assert_eq!(beehive_wire::from_slice::<u64>(&buf).unwrap(), v);
        },
    );
}

#[test]
fn string_roundtrip() {
    for_all(
        CASES,
        |g| g.string(0..=256),
        |s| {
            let buf = beehive_wire::to_vec(&s).unwrap();
            assert_eq!(beehive_wire::from_slice::<String>(&buf).unwrap(), s);
        },
    );
}

#[test]
fn float_roundtrip() {
    for_all(
        CASES,
        |g| g.f64(),
        |v| {
            let buf = beehive_wire::to_vec(&v).unwrap();
            let back: f64 = beehive_wire::from_slice(&buf).unwrap();
            assert_eq!(v.to_bits(), back.to_bits());
        },
    );
}

#[test]
fn vec_roundtrip() {
    for_all(
        CASES,
        |g| g.vec(0..128, |g| g.range::<i32>(..)),
        |v| {
            let buf = beehive_wire::to_vec(&v).unwrap();
            assert_eq!(beehive_wire::from_slice::<Vec<i32>>(&buf).unwrap(), v);
        },
    );
}

#[test]
fn struct_roundtrip() {
    for_all(
        CASES,
        |g| arb_struct(g, 2),
        |s| {
            let buf = beehive_wire::to_vec(&s).unwrap();
            let back: WireStruct = beehive_wire::from_slice(&buf).unwrap();
            assert_eq!(back, s);
        },
    );
}

#[test]
fn encoded_len_agrees() {
    for_all(
        CASES,
        |g| arb_struct(g, 1),
        |s| {
            let buf = beehive_wire::to_vec(&s).unwrap();
            assert_eq!(beehive_wire::encoded_len(&s).unwrap(), buf.len());
        },
    );
}

#[test]
fn decode_never_panics() {
    for_all(
        CASES,
        |g| g.vec(0..256, |g| g.range::<u8>(..)),
        |bytes| {
            // Any of these may fail, but none may panic.
            let _ = beehive_wire::from_slice::<WireStruct>(&bytes);
            let _ = beehive_wire::from_slice::<Vec<String>>(&bytes);
            let _ = beehive_wire::from_slice::<WireEnum>(&bytes);
            let _ = beehive_wire::from_slice::<BTreeMap<u64, Vec<u8>>>(&bytes);
        },
    );
}

#[test]
fn map_roundtrip() {
    for_all(
        CASES,
        |g| -> BTreeMap<u32, String> {
            g.vec(0..32, |g| (g.range(..), g.string(0..=8)))
                .into_iter()
                .collect()
        },
        |m| {
            let buf = beehive_wire::to_vec(&m).unwrap();
            assert_eq!(
                beehive_wire::from_slice::<BTreeMap<u32, String>>(&buf).unwrap(),
                m
            );
        },
    );
}
