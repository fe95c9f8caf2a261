//! The one JSON writer behind every report the repository emits: the
//! metrics registry and event journal (`repro stats`), the chaos soak,
//! the attack corpus, the SMP scaling run, and the fleet and recovery
//! benchmarks.
//!
//! Output is compact (no whitespace), object keys come out in the order
//! they were added, and there are no floats: every report is integers,
//! bools and strings, so a deterministic run emits the same bytes every
//! time.

use std::fmt::Write;

/// A value with a JSON form.
pub trait Json {
    /// Append this value's JSON to `out`.
    fn write_json(&self, out: &mut String);

    /// This value as a JSON string.
    fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

macro_rules! json_via_display {
    ($($t:ty),*) => {$(
        impl Json for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

json_via_display!(bool, u8, u16, u64, usize);

impl Json for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl Json for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out)
    }
}

impl<T: Json + ?Sized> Json for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out)
    }
}

impl<T: Json> Json for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, value) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            value.write_json(out);
        }
        out.push(']');
    }
}

impl<T: Json> Json for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out)
    }
}

/// A JSON object under construction.
#[derive(Debug, Clone, Default)]
pub struct Object {
    /// The members written so far, without the braces.
    members: String,
}

impl Object {
    pub fn new() -> Self {
        Object::default()
    }

    /// Append the member `key: value`.
    pub fn field(mut self, key: &str, value: &(impl Json + ?Sized)) -> Self {
        if !self.members.is_empty() {
            self.members.push(',');
        }
        key.write_json(&mut self.members);
        self.members.push(':');
        value.write_json(&mut self.members);
        self
    }
}

impl Json for Object {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        out.push_str(&self.members);
        out.push('}');
    }
}

/// Append one member per named field of `value`, keyed by the field's
/// name, in the order listed: `fields!(obj, run; cores, seed)` is
/// `obj.field("cores", &run.cores).field("seed", &run.seed)`.
#[macro_export]
macro_rules! fields {
    ($obj:expr, $value:expr; $($name:ident),+ $(,)?) => {{
        let value = &$value;
        $obj$(.field(stringify!($name), &value.$name))+
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_escapes() {
        assert_eq!(0u8.to_json(), "0");
        assert_eq!(u64::MAX.to_json(), "18446744073709551615");
        assert_eq!(7usize.to_json(), "7");
        assert_eq!(true.to_json(), "true");
        assert_eq!(false.to_json(), "false");
        assert_eq!("plain".to_json(), r#""plain""#);
        assert_eq!(r#"say "hi""#.to_json(), r#""say \"hi\"""#);
        assert_eq!(r"C:\dir".to_json(), r#""C:\\dir""#);
        assert_eq!("a\nb\tc\r\u{1}\u{1f} é".to_json(), r#""a\nb\tc\u000d\u0001\u001f é""#);
        assert_eq!(String::from("s").to_json(), r#""s""#);
    }

    #[test]
    fn arrays_objects_nesting_and_key_order() {
        assert_eq!(Object::new().to_json(), "{}");
        assert_eq!(Vec::<u64>::new().to_json(), "[]");
        assert_eq!([1u64, 2, 3].as_slice().to_json(), "[1,2,3]");
        let inner = Object::new().field("z", &1u64).field("a", "x");
        let outer = Object::new()
            .field("zeta", &inner)
            .field("alpha", &vec![Object::new(), inner.clone()])
            .field("empty", &Vec::<String>::new())
            .field("k\"ey", &[true, false].as_slice());
        assert_eq!(
            outer.to_json(),
            r#"{"zeta":{"z":1,"a":"x"},"alpha":[{},{"z":1,"a":"x"}],"empty":[],"k\"ey":[true,false]}"#
        );
    }

    #[test]
    fn fields_names_each_field_once() {
        struct Run {
            cores: usize,
            name: &'static str,
            samples: Vec<u16>,
        }
        let run = Run { cores: 4, name: "fleet", samples: vec![7, 9] };
        let obj = fields!(Object::new().field("benchmark", "b"), run; name, cores, samples);
        assert_eq!(obj.to_json(), r#"{"benchmark":"b","name":"fleet","cores":4,"samples":[7,9]}"#);
    }
}
