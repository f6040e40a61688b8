//! Minimal offline stand-in for `serde` (plus the tree-based data model
//! the sibling `serde_json` stub serializes). The real crates use a
//! streaming Serializer/Deserializer pair; for this workspace's needs —
//! plain `#[derive(Serialize, Deserialize)]` with no field attributes —
//! a tree model is behaviourally equivalent.

pub use serde_derive::{Deserialize, Serialize};

pub trait Serialize {
    fn to_value(&self) -> Value;
}

pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, String>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

/// JSON-shaped value tree. Objects keep insertion order so struct
/// fields round-trip in declaration order, like the real streaming
/// serializer.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

pub mod value {
    pub use super::Value;

    pub const NULL: Value = Value::Null;

    /// Looks up a struct field in an object value; a missing key reads
    /// as `Null` so `Option` fields deserialize to `None`.
    pub fn get_field<'a>(v: &'a Value, name: &str, ty: &str) -> Result<&'a Value, String> {
        match v {
            Value::Object(pairs) => Ok(pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .unwrap_or(&NULL)),
            other => Err(format!("expected object for {ty}, got {other:?}")),
        }
    }
}

impl Value {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(n) => Some(*n),
            Value::I64(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(n) => Some(*n),
            Value::U64(n) if *n <= i64::MAX as u64 => Some(*n as i64),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(x) => Some(*x),
            Value::U64(n) => Some(*n as f64),
            Value::I64(n) => Some(*n as f64),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&value::NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        self.as_array()
            .and_then(|a| a.get(idx))
            .unwrap_or(&value::NULL)
    }
}

// ---- primitive impls --------------------------------------------------

/// The integer an integral `F64` holds, for a `TryFrom` into the
/// target type. A value outside `i128` saturates, which no target up
/// to 64 bits accepts either.
fn integral_f64(x: f64) -> Option<i128> {
    (x.fract() == 0.0).then_some(x as i128)
}

/// The error for a number outside the target type's range.
fn out_of_range(n: impl std::fmt::Display, ty: &str) -> String {
    format!("{n} is out of range for {ty}")
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::U64(*self as u64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, String> {
                let ty = stringify!($t);
                match v {
                    Value::U64(n) => <$t>::try_from(*n).map_err(|_| out_of_range(n, ty)),
                    Value::I64(n) => <$t>::try_from(*n).map_err(|_| out_of_range(n, ty)),
                    Value::F64(x) => integral_f64(*x)
                        .ok_or_else(|| format!("expected unsigned int, got {v:?}"))
                        .and_then(|n| <$t>::try_from(n).map_err(|_| out_of_range(x, ty))),
                    Value::Str(s) => s.parse::<$t>().map_err(|e| e.to_string()),
                    other => Err(format!("expected unsigned int, got {other:?}")),
                }
            }
        }
    )*};
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                if *self >= 0 { Value::U64(*self as u64) } else { Value::I64(*self as i64) }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, String> {
                let ty = stringify!($t);
                match v {
                    Value::U64(n) => <$t>::try_from(*n).map_err(|_| out_of_range(n, ty)),
                    Value::I64(n) => <$t>::try_from(*n).map_err(|_| out_of_range(n, ty)),
                    Value::F64(x) => integral_f64(*x)
                        .ok_or_else(|| format!("expected int, got {v:?}"))
                        .and_then(|n| <$t>::try_from(n).map_err(|_| out_of_range(x, ty))),
                    Value::Str(s) => s.parse::<$t>().map_err(|e| e.to_string()),
                    other => Err(format!("expected int, got {other:?}")),
                }
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);
impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::F64(*self as f64) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, String> {
                v.as_f64()
                    .map(|x| x as $t)
                    .ok_or_else(|| format!("expected float, got {v:?}"))
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, String> {
        v.as_bool().ok_or_else(|| format!("expected bool, got {v:?}"))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("expected string, got {v:?}"))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, String> {
        v.as_str()
            .and_then(|s| {
                let mut it = s.chars();
                match (it.next(), it.next()) {
                    (Some(c), None) => Some(c),
                    _ => None,
                }
            })
            .ok_or_else(|| format!("expected single-char string, got {v:?}"))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(t) => t.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, String> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, String> {
        v.as_array()
            .ok_or_else(|| format!("expected array, got {v:?}"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

macro_rules! impl_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, String> {
                let arr = v.as_array().ok_or_else(|| format!("expected tuple array, got {v:?}"))?;
                Ok(($($t::from_value(arr.get($n).unwrap_or(&value::NULL))?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

fn key_to_string<K: Serialize>(k: &K) -> String {
    match k.to_value() {
        Value::Str(s) => s,
        Value::U64(n) => n.to_string(),
        Value::I64(n) => n.to_string(),
        Value::Bool(b) => b.to_string(),
        other => panic!("unsupported map key: {other:?}"),
    }
}

fn key_from_string<K: Deserialize>(s: &str) -> Result<K, String> {
    K::from_value(&Value::Str(s.to_string()))
}

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (key_to_string(k), v.to_value()))
                .collect(),
        )
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, String> {
        v.as_object()
            .ok_or_else(|| format!("expected object, got {v:?}"))?
            .iter()
            .map(|(k, v)| Ok((key_from_string(k)?, V::from_value(v)?)))
            .collect()
    }
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (key_to_string(k), v.to_value()))
                .collect(),
        )
    }
}

impl<K: Deserialize + Eq + std::hash::Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, String> {
        v.as_object()
            .ok_or_else(|| format!("expected object, got {v:?}"))?
            .iter()
            .map(|(k, v)| Ok((key_from_string(k)?, V::from_value(v)?)))
            .collect()
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn from_value(v: &Value) -> Result<Self, String> {
        v.as_array()
            .ok_or_else(|| format!("expected array, got {v:?}"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize, S> Serialize for HashSet<T, S> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Eq + std::hash::Hash> Deserialize for HashSet<T> {
    fn from_value(v: &Value) -> Result<Self, String> {
        v.as_array()
            .ok_or_else(|| format!("expected array, got {v:?}"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, String> {
        T::from_value(v).map(Box::new)
    }
}
