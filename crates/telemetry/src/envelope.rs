//! The `{"record":"<kind>",…}` envelope: the one line format of the
//! telemetry and profile streams, the fleet wire and the flight bundle.
//! A record is a JSON object whose first key, `record`, names its kind;
//! the fields of the kind's type follow. [`RecordWriter`] and
//! [`write_record`] write one; [`RecordLine`] reads the kind from the
//! first key alone, then decodes the whole line straight into the
//! kind's type, whose `read_json` skips the `record` key. No `Value`
//! tree is built either way.

use std::borrow::Cow;
use std::fmt;

use serde::de::Reader;
use serde::{Deserialize, Serialize};

/// A line that is not the record it should be.
#[derive(Debug, Clone, PartialEq)]
pub enum LineError {
    /// The line does not open with a string `record` key.
    NotARecord(String),
    /// A record of another kind than the one expected.
    Kind {
        /// The kind expected.
        want: &'static str,
        /// The kind the line declares.
        found: String,
    },
    /// A record whose text does not decode into its kind's type: a
    /// missing or ill-typed field, or broken JSON after the key.
    Field {
        /// The record's kind.
        record: String,
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for LineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LineError::NotARecord(e) => write!(f, "line is not a record: {e}"),
            LineError::Kind { want, found } => write!(f, "want a `{want}` record, got `{found}`"),
            LineError::Field { record, detail } => write!(f, "bad `{record}` record: {detail}"),
        }
    }
}

impl std::error::Error for LineError {}

/// Writes one record at the end of a `String`: `{"record":"<kind>"`,
/// then fields, then `}` at [`RecordWriter::finish`]; no newline.
#[must_use = "a record is closed by `finish`"]
pub(crate) struct RecordWriter<'a> {
    out: &'a mut String,
}

impl<'a> RecordWriter<'a> {
    /// Open a `kind` record.
    pub(crate) fn new(out: &'a mut String, kind: &str) -> Self {
        out.push_str("{\"record\":");
        kind.write_json(out);
        RecordWriter { out }
    }

    /// Append the field `name`.
    pub(crate) fn field<T: Serialize + ?Sized>(self, name: &str, value: &T) -> Self {
        self.out.push(',');
        name.write_json(self.out);
        self.out.push(':');
        value.write_json(self.out);
        self
    }

    /// Close the record.
    pub(crate) fn finish(self) {
        self.out.push('}');
    }
}

/// Append `value`, which serializes as an object, as one `kind`
/// record: the object's opening brace becomes the comma after the kind
/// (or goes, if the object is empty).
pub fn write_record<T: Serialize + ?Sized>(out: &mut String, kind: &str, value: &T) {
    let w = RecordWriter::new(out, kind);
    let at = w.out.len();
    value.write_json(w.out);
    let comma = if w.out.ends_with("{}") { "" } else { "," };
    w.out.replace_range(at..at + 1, comma);
}

/// A record line whose kind has been read.
pub struct RecordLine<'a> {
    text: &'a str,
    kind: Cow<'a, str>,
}

impl<'a> RecordLine<'a> {
    /// Read the kind of `text` from its first key, which must be
    /// `record`; the rest of the line is not read.
    pub fn read(text: &'a str) -> Result<Self, LineError> {
        let not_a_record = |e: serde::DeError| LineError::NotARecord(e.to_string());
        let mut r = Reader::new(text);
        r.begin_object("record").map_err(not_a_record)?;
        let key = r.next_key().map_err(not_a_record)?;
        if key.is_none_or(|key| key != "record") {
            return Err(LineError::NotARecord(
                "the first key is not `record`".into(),
            ));
        }
        let kind = r.string("record").map_err(not_a_record)?;
        Ok(RecordLine { text, kind })
    }

    /// The kind the line declares.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// Decode the whole line into `T`, the type of its kind.
    pub fn decode<T: Deserialize>(&self) -> Result<T, LineError> {
        serde_json::from_str(self.text).map_err(|e| LineError::Field {
            record: self.kind.to_string(),
            detail: e.to_string(),
        })
    }
}

/// Read `text`, which must be one `kind` record, into `T`.
pub fn read_record<T: Deserialize>(text: &str, kind: &'static str) -> Result<T, LineError> {
    let line = RecordLine::read(text)?;
    if line.kind() != kind {
        let found = line.kind().to_string();
        return Err(LineError::Kind { want: kind, found });
    }
    line.decode()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(serde::Serialize, serde::Deserialize, Debug, PartialEq)]
    struct Hello {
        worker: u64,
        planes: Vec<u64>,
    }

    #[derive(serde::Serialize, serde::Deserialize, Debug, PartialEq)]
    struct Empty {}

    #[test]
    fn both_writer_forms_spell_the_same_line() {
        let hello = Hello {
            worker: 3,
            planes: vec![0, 2],
        };
        let mut whole = String::new();
        write_record(&mut whole, "fleet_hello", &hello);
        assert_eq!(
            whole,
            r#"{"record":"fleet_hello","worker":3,"planes":[0,2]}"#
        );
        let mut parts = String::from("kept ");
        RecordWriter::new(&mut parts, "fleet_hello")
            .field("worker", &3u64)
            .field("planes", &hello.planes)
            .finish();
        assert_eq!(parts, format!("kept {whole}"));
        let mut empty = String::new();
        write_record(&mut empty, "fleet_end", &Empty {});
        assert_eq!(empty, r#"{"record":"fleet_end"}"#);
        assert_eq!(read_record::<Empty>(&empty, "fleet_end"), Ok(Empty {}));
    }

    #[test]
    fn the_reader_decodes_what_the_writer_wrote() {
        let hello = Hello {
            worker: 3,
            planes: vec![0, 2],
        };
        let mut text = String::new();
        write_record(&mut text, "fleet_hello", &hello);
        let line = RecordLine::read(&text).expect("a record");
        assert_eq!(line.kind(), "fleet_hello");
        assert_eq!(line.decode::<Hello>(), Ok(hello));
    }

    #[test]
    fn every_wrong_line_is_typed() {
        let not_a_record = |text: &str| {
            assert!(
                matches!(RecordLine::read(text), Err(LineError::NotARecord(_))),
                "{text}"
            );
        };
        for text in [
            "",
            "not json",
            "[1,2]",
            "{}",
            r#"{"record":7}"#,
            r#"{"worker":3,"record":"fleet_hello","planes":[]}"#,
            r#"{"record""#,
        ] {
            not_a_record(text);
        }
        assert_eq!(
            read_record::<Hello>(r#"{"record":"fleet_end","worker":3}"#, "fleet_hello"),
            Err(LineError::Kind {
                want: "fleet_hello",
                found: "fleet_end".into()
            })
        );
        for text in [
            r#"{"record":"fleet_hello","worker":3}"#,
            r#"{"record":"fleet_hello","worker":"3","planes":[]}"#,
            r#"{"record":"fleet_hello","worker":3,"planes":[]"#,
            r#"{"record":"fleet_hello","worker":3,"planes":[]} x"#,
        ] {
            assert!(
                matches!(
                    read_record::<Hello>(text, "fleet_hello"),
                    Err(LineError::Field { .. })
                ),
                "{text}"
            );
        }
    }
}
