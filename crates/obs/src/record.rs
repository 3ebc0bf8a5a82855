//! One declaration per record: the [`record!`](macro@crate::record) macro.
//!
//! A record is a struct whose JSON object is exactly its stored fields, in
//! declaration order. Declaring it through `record!` writes its field list
//! once; the macro derives the JSON writer ([`ToJson`](crate::ToJson)) and
//! the strict reader ([`FromJson`](crate::FromJson)) from it. A record of
//! monotonic counters marked `#[counters]` also gets `delta_since` and
//! `add`, so a field added to the declaration is written, read back,
//! diffed and summed with no other edit.

/// Declares a record struct and derives its JSON writer and reader.
///
/// The struct is emitted as written: doc comments, derives and field
/// visibility are kept. The generated code:
///
/// * `ToJson` writes one member per field, keyed by the field name, in
///   declaration order;
/// * `FromJson` reads every field's key and fails when one is missing or
///   does not parse; an `Option` field reads `null` as `None`;
/// * with `#[counters]` after the doc comments, `delta_since(&then)` and
///   `add(&other)` subtract and add field by field.
///
/// ```
/// hemu_obs::record! {
///     /// Hits and misses of some cache.
///     #[counters]
///     #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
///     pub struct Probe {
///         /// Lookups that hit.
///         pub hits: u64,
///         /// Lookups that missed.
///         pub misses: u64,
///     }
/// }
///
/// use hemu_obs::{FromJson, JsonValue, ToJson};
/// let now = Probe { hits: 5, misses: 2 };
/// let then = Probe { hits: 1, misses: 2 };
/// assert_eq!(now.delta_since(&then), Probe { hits: 4, misses: 0 });
/// assert_eq!(now.to_json(), r#"{"hits":5,"misses":2}"#);
/// let parsed = JsonValue::parse(&now.to_json()).unwrap();
/// assert_eq!(Probe::from_json(&parsed), Some(now));
/// ```
#[macro_export]
macro_rules! record {
    (
        $(#[doc = $doc:literal])*
        #[counters]
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty ),* $(,)?
        }
    ) => {
        $crate::record! {
            $(#[doc = $doc])*
            $(#[$meta])*
            $vis struct $name {
                $( $(#[$fmeta])* $fvis $field: $ty ),*
            }
        }

        impl $name {
            /// The counts accumulated since `then`, an earlier snapshot of
            /// the same counters.
            $vis fn delta_since(&self, then: &Self) -> Self {
                $name { $( $field: self.$field - then.$field ),* }
            }

            /// The field-by-field sum of two sets of counts.
            $vis fn add(&self, other: &Self) -> Self {
                $name { $( $field: self.$field + other.$field ),* }
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $ty ),*
        }

        impl $crate::ToJson for $name {
            fn write_json(&self, out: &mut String) {
                let mut obj = $crate::json::JsonObject::new(out);
                $( obj.field(stringify!($field), &self.$field); )*
                obj.finish();
            }
        }

        impl $crate::FromJson for $name {
            fn from_json(v: &$crate::JsonValue) -> Option<Self> {
                Some($name { $( $field: v.field(stringify!($field))? ),* })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::{FromJson, JsonValue, ToJson};

    crate::record! {
        /// Two counters plus `added`: the field a later change adds to the
        /// declaration and nowhere else.
        #[counters]
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        struct Counts {
            hits: u64,
            misses: u64,
            added: u64,
        }
    }

    crate::record! {
        #[derive(Debug, Clone, PartialEq)]
        struct Labelled {
            name: String,
            note: Option<String>,
            counts: Counts,
        }
    }

    fn read<T: FromJson>(json: &str) -> Option<T> {
        T::from_json(&JsonValue::parse(json).ok()?)
    }

    #[test]
    fn one_declaration_reaches_json_reader_and_counter_arithmetic() {
        let now = Counts {
            hits: 10,
            misses: 4,
            added: 7,
        };
        let then = Counts {
            hits: 3,
            misses: 1,
            added: 2,
        };
        let json = now.to_json();
        assert_eq!(json, r#"{"hits":10,"misses":4,"added":7}"#);
        assert_eq!(read::<Counts>(&json), Some(now));
        assert_eq!(now.delta_since(&then).added, 5);
        assert_eq!(now.add(&then).added, 9);
        assert_eq!(now.delta_since(&then).add(&then), now);
    }

    #[test]
    fn a_missing_key_fails_and_null_is_only_an_empty_option() {
        let full = Labelled {
            name: "x".to_string(),
            note: None,
            counts: Counts::default(),
        };
        let json = full.to_json();
        assert_eq!(
            json,
            r#"{"name":"x","note":null,"counts":{"hits":0,"misses":0,"added":0}}"#
        );
        assert_eq!(read::<Labelled>(&json), Some(full));
        let no_note = r#"{"name":"x","counts":{"hits":0,"misses":0,"added":0}}"#;
        assert_eq!(read::<Labelled>(no_note), None);
        let no_added = json.replace(r#","added":0"#, "");
        assert_eq!(read::<Labelled>(&no_added), None);
        let null_name = json.replace(r#""x""#, "null");
        assert_eq!(read::<Labelled>(&null_name), None);
    }
}
