//! The workspace's one JSON reader and writer.
//!
//! * [`Json`] is a value whose numbers keep their source lexeme, so
//!   parse → emit reproduces a document byte for byte, 64-bit counters
//!   included. Objects keep their key order (a `Vec` of pairs).
//! * [`Json::emit`] and [`Json::emit_pretty`] write the exact format of
//!   the artifacts committed before this crate existed (see the `emit`
//!   module docs), so they are reproduced byte for byte.
//! * [`ToJson`] turns a value into a [`Json`] tree; [`FromJson`] reads one
//!   back. [`impl_json!`] generates them for structs (one line per
//!   field), newtypes, unit enums and internally tagged enums.
//!
//! There is deliberately no [`ToJson`] for `HashMap`, `HashSet` or the
//! Fx aliases: their iteration order is unspecified, and a serialized
//! artifact must be a function of its data alone. Use a `BTreeMap`.
//!
//! ```compile_fail
//! use std::collections::HashMap;
//! use hybridmem_json::ToJson;
//!
//! let map: HashMap<String, u64> = HashMap::new();
//! let _ = map.to_json();
//! ```
//!
//! # Examples
//!
//! ```
//! use hybridmem_json::impl_json;
//!
//! #[derive(Debug, PartialEq)]
//! struct Cell {
//!     policy: String,
//!     faults: u64,
//!     amat: f64,
//!     error: Option<String>,
//! }
//! impl_json!(ToJson, FromJson for Cell { policy, faults, amat, error if Option::is_some });
//!
//! let cell = Cell { policy: "two-lru".into(), faults: 80, amat: 2.0, error: None };
//! let text = hybridmem_json::to_string(&cell);
//! assert_eq!(text, r#"{"policy":"two-lru","faults":80,"amat":2.0}"#);
//! assert_eq!(hybridmem_json::from_str::<Cell>(&text).unwrap(), cell);
//! ```

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::panic,
        clippy::wildcard_enum_match_arm
    )
)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Index;

mod emit;
mod parse;

pub use parse::parse;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its source lexeme (e.g. `"1.5"`, `"18446744073709551615"`).
    Number(String),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds a number from a `u64` (canonical decimal lexeme).
    #[must_use]
    pub fn u64(value: u64) -> Self {
        Self::Number(value.to_string())
    }

    /// Builds a number from an `f64` in its shortest round-trip form
    /// (`2.0`, `0.00005`, `1e16`); non-finite values become `null`,
    /// which JSON requires.
    #[must_use]
    pub fn f64(value: f64) -> Self {
        if value.is_finite() {
            Self::Number(emit::shortest_f64(value))
        } else {
            Self::Null
        }
    }

    /// Builds a string value.
    #[must_use]
    pub fn str(value: impl Into<String>) -> Self {
        Self::String(value.into())
    }

    /// Builds an object from `(key, value)` pairs, in order — e.g. one
    /// variant of an internally tagged enum,
    /// `Json::object([("kind", Json::str("fill")), ("page", page.to_json())])`.
    #[must_use]
    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Self {
        Self::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Object field lookup (first match, `None` on non-objects).
    #[must_use]
    #[expect(clippy::wildcard_enum_match_arm, reason = "other variants answer None")]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Self::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, when it is one.
    #[must_use]
    #[expect(clippy::wildcard_enum_match_arm, reason = "other variants answer None")]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, when it is one.
    #[must_use]
    #[expect(clippy::wildcard_enum_match_arm, reason = "other variants answer None")]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number parsed as `f64`, when it is one.
    #[must_use]
    #[expect(clippy::wildcard_enum_match_arm, reason = "other variants answer None")]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Number(lexeme) => lexeme.parse().ok(),
            _ => None,
        }
    }

    /// The number parsed as `u64`, when it is a plain non-negative
    /// integer lexeme (every counter the simulator emits is one).
    #[must_use]
    #[expect(clippy::wildcard_enum_match_arm, reason = "other variants answer None")]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Self::Number(lexeme) => lexeme.parse().ok(),
            _ => None,
        }
    }

    /// The value as an array slice, when it is one.
    #[must_use]
    #[expect(clippy::wildcard_enum_match_arm, reason = "other variants answer None")]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Self::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value's fields, when it is an object.
    #[must_use]
    #[expect(clippy::wildcard_enum_match_arm, reason = "other variants answer None")]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Self::Object(fields) => Some(fields),
            _ => None,
        }
    }
}

/// The value behind a missing key or index.
static NULL: Json = Json::Null;

/// `json["key"]`: the field, or `null` when absent (or not an object).
impl Index<&str> for Json {
    type Output = Json;

    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&NULL)
    }
}

/// `json[i]`: the element, or `null` when absent (or not an array).
impl Index<usize> for Json {
    type Output = Json;

    fn index(&self, index: usize) -> &Json {
        self.as_array()
            .and_then(|items| items.get(index))
            .unwrap_or(&NULL)
    }
}

impl PartialEq<&str> for Json {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<bool> for Json {
    fn eq(&self, other: &bool) -> bool {
        self.as_bool() == Some(*other)
    }
}

impl PartialEq<u64> for Json {
    fn eq(&self, other: &u64) -> bool {
        self.as_u64() == Some(*other)
    }
}

/// Compact JSON.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.emit())
    }
}

/// A value that can be written as JSON.
pub trait ToJson {
    /// The value as a JSON tree.
    fn to_json(&self) -> Json;
}

/// A value that can be read back from JSON.
pub trait FromJson: Sized {
    /// Reads the value from `json`.
    ///
    /// # Errors
    ///
    /// Returns a one-line message naming what did not fit.
    fn from_json(json: &Json) -> Result<Self, String>;
}

/// A map key. JSON keys are strings, so integer keys are written quoted
/// (`{"3": …}`).
pub trait JsonKey {
    /// The key as an object key.
    fn json_key(&self) -> String;
}

/// `value` as compact JSON.
#[must_use]
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().emit()
}

/// `value` as two-space indented JSON with no trailing newline.
#[must_use]
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().emit_pretty()
}

/// Parses `text` and reads a `T` from it.
///
/// # Errors
///
/// Returns the parse error or the first field that did not fit.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, String> {
    T::from_json(&parse(text)?)
}

/// Reads the object field `key` of `object`. A missing field reads as
/// `null`, so an absent `Option` field is `None` and any other absent
/// field is an error.
///
/// # Errors
///
/// Returns a message naming the missing or ill-typed field.
pub fn field<T: FromJson>(object: &Json, key: &str) -> Result<T, String> {
    match object.get(key) {
        Some(value) => T::from_json(value).map_err(|e| format!("field `{key}`: {e}")),
        None => T::from_json(&Json::Null).map_err(|_| format!("missing field `{key}`")),
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(json: &Json) -> Result<Self, String> {
        Ok(json.clone())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

macro_rules! integers {
    ($($int:ty),*) => {$(
        impl ToJson for $int {
            fn to_json(&self) -> Json {
                Json::Number(self.to_string())
            }
        }

        impl FromJson for $int {
            fn from_json(json: &Json) -> Result<Self, String> {
                match json {
                    Json::Number(lexeme) => lexeme.parse().map_err(|_| expected(stringify!($int), json)),
                    _ => Err(expected(stringify!($int), json)),
                }
            }
        }

        impl JsonKey for $int {
            fn json_key(&self) -> String {
                self.to_string()
            }
        }
    )*};
}

integers!(u16, u32, u64, usize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::f64(*self)
    }
}

impl FromJson for f64 {
    fn from_json(json: &Json) -> Result<Self, String> {
        json.as_f64().ok_or_else(|| expected("a number", json))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::str(self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::str(self.as_str())
    }
}

impl FromJson for String {
    fn from_json(json: &Json) -> Result<Self, String> {
        json.as_str()
            .map(str::to_owned)
            .ok_or_else(|| expected("a string", json))
    }
}

impl JsonKey for String {
    fn json_key(&self) -> String {
        self.clone()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, ToJson::to_json)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    #[expect(clippy::wildcard_enum_match_arm, reason = "non-null values are T's")]
    fn from_json(json: &Json) -> Result<Self, String> {
        match json {
            Json::Null => Ok(None),
            value => T::from_json(value).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

impl<K: JsonKey, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Object(
            self.iter()
                .map(|(key, value)| (key.json_key(), value.to_json()))
                .collect(),
        )
    }
}

/// Tuples are arrays.
macro_rules! tuples {
    ($(($($name:ident . $index:tt),+))*) => {$(
        impl<$($name: ToJson),+> ToJson for ($($name,)+) {
            fn to_json(&self) -> Json {
                Json::Array(vec![$(self.$index.to_json()),+])
            }
        }
    )*};
}

tuples!((A.0, B.1)(A.0, B.1, C.2)(A.0, B.1, C.2, D.3));

/// The error for a value of the wrong shape.
fn expected(what: &str, found: &Json) -> String {
    let kind = match found {
        Json::Null => "null",
        Json::Bool(_) => "a boolean",
        Json::Number(_) => "a number",
        Json::String(_) => "a string",
        Json::Array(_) => "an array",
        Json::Object(_) => "an object",
    };
    format!("expected {what}, found {kind}")
}

/// Implements [`ToJson`] for a local type, in one of four shapes:
///
/// * a struct, as an object of the listed fields in the listed order;
///   `field if pred` writes the field only when `pred(&self.field)` holds
///   (e.g. `error if Option::is_some`);
/// * a newtype `Name(Inner)`, as its inner value;
/// * a unit-only enum, as the string given for each variant
///   (`Dram = "dram"`);
/// * an enum of struct variants, internally tagged:
///   `Name tagged "kind" { Fill { page, into } = "fill", … }` writes
///   `{"kind": "fill", "page": …, "into": …}`.
///
/// For the first two shapes, `ToJson, FromJson for …` also implements
/// [`FromJson`] with the same field list.
///
/// ```
/// use hybridmem_json::{impl_json, ToJson};
///
/// enum Tier { Dram, Nvm }
/// impl_json!(ToJson for Tier { Dram = "dram", Nvm = "nvm" });
///
/// struct Frames(u64);
/// impl_json!(ToJson for Frames(u64));
///
/// assert_eq!(Tier::Nvm.to_json().emit(), r#""nvm""#);
/// assert_eq!(Frames(3).to_json().emit(), "3");
/// # let _ = Tier::Dram;
/// ```
#[macro_export]
macro_rules! impl_json {
    (ToJson for $ty:ident { $($variant:ident = $name:literal),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::str(match self { $(Self::$variant => $name),+ })
            }
        }
    };
    (ToJson for $ty:ident tagged $tag:literal {
        $($variant:ident { $($field:ident),* $(,)? } = $name:literal),+ $(,)?
    }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                match self {
                    $(Self::$variant { $($field),* } => $crate::Json::object([
                        ($tag, $crate::Json::str($name)),
                        $((::std::stringify!($field), $crate::ToJson::to_json($field)),)*
                    ]),)+
                }
            }
        }
    };
    (ToJson for $ty:ident($inner:ty)) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::ToJson::to_json(&self.0)
            }
        }
    };
    (ToJson, FromJson for $ty:ident($inner:ty)) => {
        $crate::impl_json!(ToJson for $ty($inner));
        impl $crate::FromJson for $ty {
            fn from_json(json: &$crate::Json) -> ::std::result::Result<Self, ::std::string::String> {
                <$inner as $crate::FromJson>::from_json(json).map(Self)
            }
        }
    };
    (ToJson for $ty:ident { $($field:ident $(if $keep:path)?),* $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                let mut fields = ::std::vec::Vec::new();
                $($crate::impl_json!(@field fields, self, $field $(if $keep)?);)*
                $crate::Json::Object(fields)
            }
        }
    };
    (ToJson, FromJson for $ty:ident { $($field:ident $(if $keep:path)?),* $(,)? }) => {
        $crate::impl_json!(ToJson for $ty { $($field $(if $keep)?),* });
        impl $crate::FromJson for $ty {
            fn from_json(json: &$crate::Json) -> ::std::result::Result<Self, ::std::string::String> {
                ::std::result::Result::Ok(Self {
                    $($field: $crate::field(json, ::std::stringify!($field))?,)*
                })
            }
        }
    };
    (@field $fields:ident, $self:ident, $field:ident) => {
        $fields.push((
            ::std::string::String::from(::std::stringify!($field)),
            $crate::ToJson::to_json(&$self.$field),
        ));
    };
    (@field $fields:ident, $self:ident, $field:ident if $keep:path) => {
        if $keep(&$self.$field) {
            $crate::impl_json!(@field $fields, $self, $field);
        }
    };
}
