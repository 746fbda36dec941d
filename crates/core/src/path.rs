//! Absolute-path parsing and validation.
//!
//! HopsFS paths are `/`-separated absolute paths. Components may not be
//! empty, `"."`, or `".."` (the benchmark workloads never produce them, and
//! HDFS normalizes them away client-side).

use crate::types::FsError;

/// A validated, normalized absolute path.
///
/// # Examples
///
/// ```
/// use hopsfs::path::FsPath;
///
/// let p = FsPath::parse("/user/spotify/playlists").unwrap();
/// assert_eq!(p.components(), &["user", "spotify", "playlists"]);
/// assert_eq!(p.name(), Some("playlists"));
/// assert_eq!(p.parent().unwrap().to_string(), "/user/spotify");
/// assert!(FsPath::parse("relative/path").is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FsPath {
    components: Vec<String>,
}

impl FsPath {
    /// The root path `/`.
    pub fn root() -> Self {
        FsPath { components: Vec::new() }
    }

    /// Parses and validates an absolute path.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Invalid`] for relative paths, empty components,
    /// `.`/`..`, or components longer than 255 bytes.
    pub fn parse(s: &str) -> Result<Self, FsError> {
        if !s.starts_with('/') {
            return Err(FsError::Invalid);
        }
        let mut components = Vec::new();
        for part in s.split('/').skip(1) {
            if part.is_empty() {
                // Allow a single trailing slash ("/a/b/" == "/a/b") and "/".
                continue;
            }
            if part == "." || part == ".." || part.len() > 255 {
                return Err(FsError::Invalid);
            }
            components.push(part.to_string());
        }
        Ok(FsPath { components })
    }

    /// Path components, root-first.
    pub fn components(&self) -> &[String] {
        &self.components
    }

    /// Number of components (0 for root).
    pub fn depth(&self) -> usize {
        self.components.len()
    }

    /// Whether this is the root path.
    pub fn is_root(&self) -> bool {
        self.components.is_empty()
    }

    /// Final component, or `None` for root.
    pub fn name(&self) -> Option<&str> {
        self.components.last().map(String::as_str)
    }

    /// Parent path, or `None` for root.
    pub fn parent(&self) -> Option<FsPath> {
        if self.components.is_empty() {
            None
        } else {
            Some(FsPath { components: self.components[..self.components.len() - 1].to_vec() })
        }
    }

    /// Appends a component.
    ///
    /// # Panics
    ///
    /// Panics if `name` contains `/` or is empty (callers validate first).
    pub fn join(&self, name: &str) -> FsPath {
        assert!(!name.is_empty() && !name.contains('/'), "invalid component {name:?}");
        let mut components = self.components.clone();
        components.push(name.to_string());
        FsPath { components }
    }

    /// Whether `self` is an ancestor of (or equal to) `other`.
    pub fn is_prefix_of(&self, other: &FsPath) -> bool {
        other.components.len() >= self.components.len()
            && other.components[..self.components.len()] == self.components[..]
    }
}

impl std::fmt::Display for FsPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.components.is_empty() {
            return f.write_str("/");
        }
        for c in &self.components {
            f.write_str("/")?;
            f.write_str(c)?;
        }
        Ok(())
    }
}

impl std::str::FromStr for FsPath {
    type Err = FsError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FsPath::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_normalizes() {
        assert_eq!(FsPath::parse("/").unwrap(), FsPath::root());
        assert_eq!(FsPath::parse("/a/b/").unwrap(), FsPath::parse("/a/b").unwrap());
        assert_eq!(FsPath::parse("/a/b").unwrap().depth(), 2);
    }

    #[test]
    fn rejects_bad_paths() {
        for bad in ["", "a/b", "/a/./b", "/a/../b"] {
            assert_eq!(FsPath::parse(bad), Err(FsError::Invalid), "{bad:?}");
        }
        let long = format!("/{}", "x".repeat(256));
        assert_eq!(FsPath::parse(&long), Err(FsError::Invalid));
    }

    #[test]
    fn family_relations() {
        let p = FsPath::parse("/a/b/c").unwrap();
        assert_eq!(p.name(), Some("c"));
        assert_eq!(p.parent().unwrap().to_string(), "/a/b");
        assert!(FsPath::parse("/a").unwrap().is_prefix_of(&p));
        assert!(!FsPath::parse("/a/x").unwrap().is_prefix_of(&p));
        assert!(FsPath::root().is_prefix_of(&p));
        assert_eq!(FsPath::root().parent(), None);
    }

    #[test]
    fn display_round_trips() {
        for s in ["/", "/a", "/a/b/c"] {
            assert_eq!(FsPath::parse(s).unwrap().to_string(), s);
        }
    }

    #[test]
    fn join_extends() {
        let p = FsPath::root().join("a").join("b");
        assert_eq!(p.to_string(), "/a/b");
    }
}
