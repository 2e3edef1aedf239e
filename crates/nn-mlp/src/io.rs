//! Plain-text model persistence.
//!
//! Trained agents need to move between the figure binaries (train once on
//! `bfs`, evaluate everywhere) without pulling a serialization framework
//! into the workspace. The format is a line-oriented text file:
//!
//! ```text
//! mlp v1
//! layers <n>
//! layer <inputs> <outputs> <activation>
//! w <f64> <f64> ...        (one line per output row)
//! b <f64> ...
//! ```
//!
//! Floats are written with `{:e}` round-trip precision.

use std::fmt::Write as _;
use std::str::FromStr;

use codec::{json_str, Json};

use crate::activation::Activation;
use crate::layer::DenseLayer;
use crate::network::Mlp;

/// Errors raised while parsing a serialized model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModelError {
    /// Line number (1-based) the error was detected at.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for ParseModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "model parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseModelError {}

fn activation_name(a: Activation) -> &'static str {
    match a {
        Activation::Identity => "identity",
        Activation::Sigmoid => "sigmoid",
        Activation::Relu => "relu",
        Activation::Tanh => "tanh",
    }
}

fn activation_from(name: &str, line: usize) -> Result<Activation, ParseModelError> {
    match name {
        "identity" => Ok(Activation::Identity),
        "sigmoid" => Ok(Activation::Sigmoid),
        "relu" => Ok(Activation::Relu),
        "tanh" => Ok(Activation::Tanh),
        other => Err(ParseModelError {
            line,
            message: format!("unknown activation '{other}'"),
        }),
    }
}

impl Mlp {
    /// Serializes the network to the text format.
    pub fn to_text(&self) -> String {
        let mut out = String::from("mlp v1\n");
        let _ = writeln!(out, "layers {}", self.layers().len());
        for layer in self.layers() {
            let _ = writeln!(
                out,
                "layer {} {} {}",
                layer.inputs(),
                layer.outputs(),
                activation_name(layer.activation())
            );
            for o in 0..layer.outputs() {
                out.push('w');
                for i in 0..layer.inputs() {
                    let _ = write!(out, " {:e}", layer.weight(o, i));
                }
                out.push('\n');
            }
            out.push('b');
            for b in layer.biases() {
                let _ = write!(out, " {b:e}");
            }
            out.push('\n');
        }
        out
    }

    /// Parses a network from the text format.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseModelError`] describing the first malformed line.
    pub fn from_text(text: &str) -> Result<Mlp, ParseModelError> {
        let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));
        let mut next = |expect: &str| -> Result<(usize, String), ParseModelError> {
            lines.next().map(|(n, l)| (n, l.to_string())).ok_or_else(|| ParseModelError {
                line: 0,
                message: format!("unexpected end of file, expected {expect}"),
            })
        };

        let (n, header) = next("header")?;
        if header.trim() != "mlp v1" {
            return Err(ParseModelError {
                line: n,
                message: format!("bad header '{header}'"),
            });
        }
        let (n, count_line) = next("layer count")?;
        let num_layers: usize = count_line
            .strip_prefix("layers ")
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| ParseModelError {
                line: n,
                message: "expected 'layers <n>'".into(),
            })?;

        let parse_floats = |line: &str, n: usize, prefix: char| -> Result<Vec<f64>, ParseModelError> {
            let body = line
                .strip_prefix(prefix)
                .ok_or_else(|| ParseModelError {
                    line: n,
                    message: format!("expected '{prefix}' row"),
                })?;
            body.split_whitespace()
                .map(|tok| {
                    f64::from_str(tok).map_err(|_| ParseModelError {
                        line: n,
                        message: format!("bad float '{tok}'"),
                    })
                })
                .collect()
        };

        let mut layers = Vec::with_capacity(num_layers);
        for _ in 0..num_layers {
            let (n, meta) = next("layer header")?;
            let parts: Vec<&str> = meta.split_whitespace().collect();
            if parts.len() != 4 || parts[0] != "layer" {
                return Err(ParseModelError {
                    line: n,
                    message: "expected 'layer <in> <out> <act>'".into(),
                });
            }
            let inputs: usize = parts[1].parse().map_err(|_| ParseModelError {
                line: n,
                message: "bad input width".into(),
            })?;
            let outputs: usize = parts[2].parse().map_err(|_| ParseModelError {
                line: n,
                message: "bad output width".into(),
            })?;
            if inputs == 0 || outputs == 0 {
                return Err(ParseModelError {
                    line: n,
                    message: "layer dimensions must be positive".into(),
                });
            }
            let activation = activation_from(parts[3], n)?;
            let mut weights = Vec::with_capacity(inputs * outputs);
            for _ in 0..outputs {
                let (wn, wline) = next("weight row")?;
                let row = parse_floats(&wline, wn, 'w')?;
                if row.len() != inputs {
                    return Err(ParseModelError {
                        line: wn,
                        message: format!("expected {inputs} weights, found {}", row.len()),
                    });
                }
                weights.extend(row);
            }
            let (bn, bline) = next("bias row")?;
            let biases = parse_floats(&bline, bn, 'b')?;
            if biases.len() != outputs {
                return Err(ParseModelError {
                    line: bn,
                    message: format!("expected {outputs} biases, found {}", biases.len()),
                });
            }
            layers.push(DenseLayer::from_parts(inputs, outputs, weights, biases, activation));
        }
        if layers.is_empty() {
            return Err(ParseModelError {
                line: 0,
                message: "model has no layers".into(),
            });
        }
        for pair in layers.windows(2) {
            if pair[0].outputs() != pair[1].inputs() {
                return Err(ParseModelError {
                    line: 0,
                    message: "layer widths do not chain".into(),
                });
            }
        }
        Ok(Mlp::from_layers(layers))
    }

    /// Writes the network to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_text())
    }

    /// Reads a network from a file.
    ///
    /// # Errors
    ///
    /// Returns an I/O error for unreadable files, or an
    /// `InvalidData`-wrapped [`ParseModelError`] for malformed content.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Mlp> {
        let text = std::fs::read_to_string(path)?;
        Mlp::from_text(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

// --------------------------------------------------------------------
// Versioned training checkpoints
// --------------------------------------------------------------------

/// Version stamp of the checkpoint JSON schema
/// ([`Checkpoint::to_json`]). Bump on any breaking change and teach
/// consumers both shapes.
pub const CHECKPOINT_SCHEMA_VERSION: u64 = 1;

/// A versioned trained-model checkpoint: the network plus everything a
/// consumer needs to rebuild the policy and audit where it came from.
///
/// The weights travel as the embedded `mlp v1` text (round-trip exact:
/// floats are written in Rust's shortest form that parses back to the
/// same bits), so `save → load` reproduces the `Mlp` bit-identically.
/// The `config` entries are an ordered string map the training layer
/// uses to persist its agent/encoder configuration — this crate treats
/// them as opaque data.
///
/// Schema v1 layout:
///
/// ```json
/// {
///   "ckpt_schema": 1,
///   "recipe_hash": "<fnv-1a of the training recipe>",
///   "git_describe": "<producing checkout>",
///   "converged": true | false | null,
///   "curve": [..],
///   "accuracy": [..],
///   "config": {"k": "v", ...},
///   "model": "mlp v1\n..."
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Content hash of the training recipe that produced the model (the
    /// artifact store's addressing key).
    pub recipe_hash: String,
    /// `git describe` of the producing checkout (`"unknown"` offline).
    pub git_describe: String,
    /// The trainer's convergence verdict, when early-stop was armed;
    /// `None` when the trainer ran the full epoch budget unconditionally.
    pub converged: Option<bool>,
    /// Learning curve: average message latency per training epoch.
    pub curve: Vec<f64>,
    /// Oracle-match accuracy per training epoch.
    pub accuracy: Vec<f64>,
    /// Ordered key/value configuration entries (agent hyperparameters,
    /// encoder shape, feature bounds — written and read by `rl-arb`).
    pub config: Vec<(String, String)>,
    /// The trained network.
    pub model: Mlp,
}

impl Checkpoint {
    /// Looks up a config entry by key.
    pub fn config_value(&self, key: &str) -> Option<&str> {
        self.config.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Serializes the checkpoint as pretty-printed JSON (schema v1).
    ///
    /// Emission order is fixed, so equal checkpoints serialize to equal
    /// bytes — the property the golden-file test pins.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"ckpt_schema\": {CHECKPOINT_SCHEMA_VERSION},");
        let _ = writeln!(s, "  \"recipe_hash\": {},", json_str(&self.recipe_hash));
        let _ = writeln!(s, "  \"git_describe\": {},", json_str(&self.git_describe));
        match self.converged {
            Some(c) => {
                let _ = writeln!(s, "  \"converged\": {c},");
            }
            None => s.push_str("  \"converged\": null,\n"),
        }
        let _ = writeln!(s, "  \"curve\": [{}],", json_f64_list(&self.curve));
        let _ = writeln!(s, "  \"accuracy\": [{}],", json_f64_list(&self.accuracy));
        if self.config.is_empty() {
            s.push_str("  \"config\": {},\n");
        } else {
            s.push_str("  \"config\": {\n");
            for (i, (k, v)) in self.config.iter().enumerate() {
                let _ = write!(s, "    {}: {}", json_str(k), json_str(v));
                s.push_str(if i + 1 < self.config.len() { ",\n" } else { "\n" });
            }
            s.push_str("  },\n");
        }
        let _ = writeln!(s, "  \"model\": {}", json_str(&self.model.to_text()));
        s.push_str("}\n");
        s
    }

    /// Parses a checkpoint back from JSON.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem: malformed
    /// JSON, a schema version this build does not understand, missing or
    /// mistyped fields, or an embedded model that fails [`Mlp::from_text`].
    pub fn from_json(text: &str) -> Result<Checkpoint, String> {
        let obj = Json::parse(text)?;
        obj.as_object()?;
        let schema = field(&obj, "ckpt_schema")?.as_u64()?;
        if schema != CHECKPOINT_SCHEMA_VERSION {
            return Err(format!(
                "unsupported checkpoint schema {schema} (this build reads v{CHECKPOINT_SCHEMA_VERSION})"
            ));
        }
        let converged = match field(&obj, "converged")? {
            Json::Null => None,
            Json::Bool(b) => Some(*b),
            other => return Err(format!("'converged' must be bool or null, got {other:?}")),
        };
        let f64_list = |key: &str| -> Result<Vec<f64>, String> {
            field(&obj, key)?
                .as_array()?
                .iter()
                .map(Json::as_f64)
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("'{key}': {e}"))
        };
        let mut config = Vec::new();
        for (k, v) in field(&obj, "config")?.as_object()? {
            config.push((k.clone(), v.as_str()?.to_string()));
        }
        let model_text = field(&obj, "model")?.as_str()?;
        let model = Mlp::from_text(model_text).map_err(|e| format!("embedded model: {e}"))?;
        Ok(Checkpoint {
            recipe_hash: field(&obj, "recipe_hash")?.as_str()?.to_string(),
            git_describe: field(&obj, "git_describe")?.as_str()?.to_string(),
            converged,
            curve: f64_list("curve")?,
            accuracy: f64_list("accuracy")?,
            config,
            model,
        })
    }

    /// Writes the checkpoint to a file, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())
    }

    /// Reads a checkpoint from a file.
    ///
    /// # Errors
    ///
    /// Returns an I/O error for unreadable files, or an
    /// `InvalidData`-wrapped message for malformed content.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Checkpoint> {
        let text = std::fs::read_to_string(path)?;
        Checkpoint::from_json(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// Formats finite f64s so each parses back to the same bits (`{:?}` is
/// Rust's shortest round-trip form). Learning curves are always finite;
/// non-finite values would not survive JSON and are a caller bug.
fn json_f64_list(values: &[f64]) -> String {
    debug_assert!(values.iter().all(|v| v.is_finite()), "non-finite curve value");
    values.iter().map(|v| format!("{v:?}")).collect::<Vec<_>>().join(", ")
}

/// The member `key` of a checkpoint object, or an error naming it.
fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing '{key}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_network_exactly() {
        let net = Mlp::paper_agent(12, 7, 5, 99);
        let text = net.to_text();
        let back = Mlp::from_text(&text).unwrap();
        assert_eq!(net, back);
        // Behavioral equality too.
        let x: Vec<f64> = (0..12).map(|i| i as f64 / 12.0).collect();
        assert_eq!(net.forward(&x), back.forward(&x));
    }

    #[test]
    fn roundtrip_through_file() {
        let net = Mlp::new(
            &[3, 4, 2],
            &[Activation::Tanh, Activation::Identity],
            5,
        );
        let dir = std::env::temp_dir().join("nn_mlp_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.txt");
        net.save(&path).unwrap();
        let back = Mlp::load(&path).unwrap();
        assert_eq!(net, back);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn header_is_validated() {
        let err = Mlp::from_text("nope\nlayers 1\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("bad header"));
    }

    #[test]
    fn truncated_file_is_rejected() {
        let net = Mlp::paper_agent(4, 3, 2, 1);
        let text = net.to_text();
        let cut: String = text.lines().take(4).collect::<Vec<_>>().join("\n");
        assert!(Mlp::from_text(&cut).is_err());
    }

    #[test]
    fn wrong_row_width_is_rejected() {
        let good = Mlp::paper_agent(2, 2, 1, 1).to_text();
        let bad = good.replacen("w ", "w 1.0 ", 1); // extra weight in row
        let err = Mlp::from_text(&bad).unwrap_err();
        assert!(err.message.contains("expected 2 weights"), "{err}");
    }

    #[test]
    fn unknown_activation_is_rejected() {
        let good = Mlp::paper_agent(2, 2, 1, 1).to_text();
        let bad = good.replace("sigmoid", "softmax");
        let err = Mlp::from_text(&bad).unwrap_err();
        assert!(err.message.contains("unknown activation"));
    }

    #[test]
    fn display_of_parse_error_mentions_line() {
        let e = ParseModelError {
            line: 7,
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "model parse error at line 7: boom");
    }

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            recipe_hash: "00ff00ff00ff00ff".into(),
            git_describe: "v0-test".into(),
            converged: Some(true),
            curve: vec![10.5, 7.25, 0.1 + 0.2], // deliberately awkward float
            accuracy: vec![0.5, 0.75],
            config: vec![
                ("hidden".into(), "15".into()),
                ("features".into(), "payload_size,local_age".into()),
                ("note \"quoted\"\n".into(), "tab\there".into()),
            ],
            model: Mlp::paper_agent(4, 3, 2, 7),
        }
    }

    #[test]
    fn checkpoint_roundtrips_bit_identically() {
        let ckpt = sample_checkpoint();
        let json = ckpt.to_json();
        let back = Checkpoint::from_json(&json).unwrap();
        assert_eq!(ckpt, back);
        // Serialization is a fixpoint, so equal checkpoints mean equal bytes.
        assert_eq!(json, back.to_json());
        // And the embedded model is bitwise the same network.
        let x = [0.1, 0.2, 0.3, 0.4];
        assert_eq!(ckpt.model.forward(&x), back.model.forward(&x));
    }

    #[test]
    fn checkpoint_roundtrips_through_file() {
        let mut ckpt = sample_checkpoint();
        ckpt.converged = None;
        let dir = std::env::temp_dir().join("nn_mlp_ckpt_test");
        let path = dir.join("nested").join("a.ckpt.json");
        ckpt.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(ckpt, back);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_schema_version_is_enforced() {
        let json = sample_checkpoint().to_json().replace(
            "\"ckpt_schema\": 1,",
            "\"ckpt_schema\": 99,",
        );
        let err = Checkpoint::from_json(&json).unwrap_err();
        assert!(err.contains("unsupported checkpoint schema 99"), "{err}");
    }

    #[test]
    fn checkpoint_missing_field_is_reported() {
        let err = Checkpoint::from_json("{\"ckpt_schema\": 1}").unwrap_err();
        assert!(err.contains("missing 'converged'") || err.contains("missing '"), "{err}");
    }

    #[test]
    fn checkpoint_rejects_malformed_json() {
        assert!(Checkpoint::from_json("{\"ckpt_schema\": 1,").is_err());
        assert!(Checkpoint::from_json("[]").is_err());
        assert!(Checkpoint::from_json("{} trailing").is_err());
    }

    #[test]
    fn checkpoint_unicode_escapes_need_four_hex_digits() {
        let json = sample_checkpoint().to_json();
        let good = json.replace("\"v0-test\"", "\"\\u0041\"");
        assert_eq!(Checkpoint::from_json(&good).unwrap().git_describe, "A");
        let signed = json.replace("\"v0-test\"", "\"\\u+041\"");
        assert!(Checkpoint::from_json(&signed).is_err(), "\\u+041 must not decode");
    }

    #[test]
    fn checkpoint_rejects_corrupt_embedded_model() {
        let json = sample_checkpoint().to_json().replace("mlp v1", "mlp v9");
        let err = Checkpoint::from_json(&json).unwrap_err();
        assert!(err.contains("embedded model"), "{err}");
    }

    #[test]
    fn config_value_finds_entries() {
        let ckpt = sample_checkpoint();
        assert_eq!(ckpt.config_value("hidden"), Some("15"));
        assert_eq!(ckpt.config_value("absent"), None);
    }
}
