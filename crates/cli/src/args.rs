//! Tiny flag parser: positional arguments plus `--key value` options and
//! bare `--flag` booleans.

use std::collections::BTreeMap;

/// Parsed command line: positionals in order, options by name.
#[derive(Debug, Clone, Default)]
pub struct Parsed {
    positionals: Vec<String>,
    options: BTreeMap<String, String>,
}

/// Does this token name an option (`--key` / `-key`) rather than a value?
/// A leading digit after `-` reads as a negative number, not an option.
fn option_key(arg: &str) -> Option<&str> {
    arg.strip_prefix("--").or_else(|| {
        arg.strip_prefix('-')
            .filter(|k| !k.is_empty() && !k.starts_with(char::is_numeric))
    })
}

impl Parsed {
    /// Splits `argv` into positionals and `--key value` options. A `--key`
    /// followed by another option token — or by nothing — is a boolean
    /// flag and gets the value `"true"` (see [`Parsed::flag`]).
    ///
    /// # Errors
    ///
    /// Currently infallible; the `Result` keeps the signature stable for
    /// stricter future parsing.
    pub fn parse(argv: &[String]) -> Result<Parsed, String> {
        let mut out = Parsed::default();
        let mut it = argv.iter().peekable();
        while let Some(arg) = it.next() {
            if let Some(key) = option_key(arg) {
                let takes_value = it.peek().is_some_and(|next| option_key(next).is_none());
                let value = if takes_value {
                    it.next().expect("peeked").clone()
                } else {
                    "true".to_string()
                };
                out.options.insert(key.to_string(), value);
            } else {
                out.positionals.push(arg.clone());
            }
        }
        Ok(out)
    }

    /// The `i`-th positional argument.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// Number of positionals.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn positional_count(&self) -> usize {
        self.positionals.len()
    }

    /// The option names given, without their leading dashes.
    pub fn option_keys(&self) -> impl Iterator<Item = &str> {
        self.options.keys().map(String::as_str)
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A boolean flag: true when `--key` was given bare (or with an
    /// explicit value other than `false`/`0`).
    pub fn flag(&self, key: &str) -> bool {
        match self.options.get(key).map(String::as_str) {
            None => false,
            Some("false") | Some("0") => false,
            Some(_) => true,
        }
    }

    /// A parsed numeric/typed option, with a default.
    ///
    /// # Errors
    ///
    /// Fails when the option is present but does not parse.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("option --{key}: cannot parse {v:?}")),
        }
    }

    /// A required typed option.
    ///
    /// # Errors
    ///
    /// Fails when missing or unparsable.
    pub fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.options
            .get(key)
            .ok_or_else(|| format!("missing required option --{key}"))?
            .parse()
            .map_err(|_| format!("option --{key}: cannot parse {:?}", self.options[key]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_positionals_and_options() {
        let p = Parsed::parse(&args(&["knn", "data.csv", "--k", "5", "--eps", "0.25"])).unwrap();
        assert_eq!(p.positional(0), Some("knn"));
        assert_eq!(p.positional(1), Some("data.csv"));
        assert_eq!(p.positional_count(), 2);
        assert_eq!(p.get_or("k", 1usize).unwrap(), 5);
        assert_eq!(p.get_or("eps", 1.0f64).unwrap(), 0.25);
        assert_eq!(p.get_or("missing", 7usize).unwrap(), 7);
    }

    #[test]
    fn errors_are_informative() {
        let p = Parsed::parse(&args(&["--k", "abc"])).unwrap();
        assert!(p.get_or("k", 0usize).is_err());
        assert!(p.require::<usize>("nope").is_err());
    }

    #[test]
    fn bare_flags_are_boolean() {
        // Trailing bare flag, bare flag followed by another option, and an
        // explicit value all parse; negative numbers stay values.
        let p = Parsed::parse(&args(&["--trace", "--k", "5", "--verbose"])).unwrap();
        assert!(p.flag("trace"));
        assert!(p.flag("verbose"));
        assert_eq!(p.get_or("k", 0usize).unwrap(), 5);
        assert!(!p.flag("absent"));
        let p = Parsed::parse(&args(&["--trace", "false", "--shift", "-3"])).unwrap();
        assert!(!p.flag("trace"));
        assert_eq!(p.get_or("shift", 0i64).unwrap(), -3);
    }
}
