//! Structure-of-arrays storage for per-key `(s, d)` outcomes.
//!
//! The simulator records one `(server latency, db latency)` pair per key.
//! Storing the two components in parallel `Vec<f32>` columns (instead of
//! a `Vec<(f32, f32)>` of pairs) lets the hedging pass and the pooled
//! ECDF walk the server-latency column contiguously, and lets the db
//! stage scatter into the `d` column without touching `s` — while the
//! buffers themselves are reusable across sweep points via
//! [`crate::sim::SimScratch`].

/// Column-major per-key outcomes of one server: `s[i]` is key `i`'s
/// server latency, `d[i]` its database latency (`0` for cache hits).
/// Whether a miss was a delayed hit is not kept per key:
/// [`crate::ServerSummary::coalesce`] counts delayed hits per server.
///
/// # Examples
///
/// ```
/// use memlat_cluster::KeyColumns;
/// let mut cols = KeyColumns::new();
/// cols.push_server(2.0e-4);
/// cols.push_server(3.0e-4);
/// cols.set_db(1, 1.5e-3);
/// assert_eq!(cols.len(), 2);
/// assert_eq!(cols.get(1), (3.0e-4, 1.5e-3));
/// assert_eq!(cols.iter().filter(|&(_, d)| d > 0.0).count(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KeyColumns {
    s: Vec<f32>,
    d: Vec<f32>,
}

impl KeyColumns {
    /// Creates empty columns.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of keys recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.s.len()
    }

    /// Whether no keys were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.s.is_empty()
    }

    /// Clears the columns, keeping the allocations for reuse.
    pub fn clear(&mut self) {
        self.s.clear();
        self.d.clear();
    }

    /// Appends a key with server latency `s` and no db latency yet.
    #[inline]
    pub fn push_server(&mut self, s: f32) {
        self.s.push(s);
        self.d.push(0.0);
    }

    /// Appends a block of keys by server latency (`f64` lane narrowed to
    /// the `f32` columns), with no db latency yet — equivalent to calling
    /// [`KeyColumns::push_server`] per element.
    #[inline]
    pub fn extend_server(&mut self, s: &[f64]) {
        self.s.extend(s.iter().map(|&x| x as f32));
        self.d.resize(self.s.len(), 0.0);
    }

    /// The `(s, d)` pair of key `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> (f32, f32) {
        (self.s[i], self.d[i])
    }

    /// The server-latency column.
    #[must_use]
    pub fn s(&self) -> &[f32] {
        &self.s
    }

    /// The db-latency column.
    #[must_use]
    pub fn d(&self) -> &[f32] {
        &self.d
    }

    /// Mutable server-latency column (the hedging pass rewrites wins in
    /// place).
    pub fn s_mut(&mut self) -> &mut [f32] {
        &mut self.s
    }

    /// Sets key `i`'s db latency (the db stage scatters completions back
    /// by origin index).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    #[inline]
    pub fn set_db(&mut self, i: usize, d: f32) {
        self.d[i] = d;
    }

    /// Iterates `(s, d)` pairs in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = (f32, f32)> + '_ {
        self.s.iter().zip(&self.d).map(|(&s, &d)| (s, d))
    }
}

impl<'a> IntoIterator for &'a KeyColumns {
    type Item = (f32, f32);
    type IntoIter = std::iter::Map<
        std::iter::Zip<std::slice::Iter<'a, f32>, std::slice::Iter<'a, f32>>,
        fn((&'a f32, &'a f32)) -> (f32, f32),
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.s.iter().zip(self.d.iter()).map(|(&s, &d)| (s, d))
    }
}

#[cfg(test)]
impl KeyColumns {
    /// Test helper: columns with pre-reserved capacity.
    fn with_reserved(cap: usize) -> Self {
        Self {
            s: Vec::with_capacity(cap),
            d: Vec::with_capacity(cap),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_and_iterate() {
        let mut c = KeyColumns::new();
        assert!(c.is_empty());
        c.push_server(1.0);
        c.push_server(2.0);
        c.set_db(0, 5.0);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(0), (1.0, 5.0));
        assert_eq!(c.get(1), (2.0, 0.0));
        assert_eq!(c.s(), &[1.0, 2.0]);
        assert_eq!(c.d(), &[5.0, 0.0]);
        let pairs: Vec<_> = c.iter().collect();
        assert_eq!(pairs, vec![(1.0, 5.0), (2.0, 0.0)]);
        let by_ref: Vec<_> = (&c).into_iter().collect();
        assert_eq!(by_ref, pairs);
    }

    #[test]
    fn extend_server_matches_push_server() {
        let mut a = KeyColumns::new();
        let mut b = KeyColumns::new();
        let lane = [1.0e-4, 2.5e-4, 7.75e-3];
        a.extend_server(&lane);
        for &x in &lane {
            b.push_server(x as f32);
        }
        assert_eq!(a, b);
        a.set_db(1, 4.0);
        a.extend_server(&lane[..1]);
        assert_eq!(a.len(), 4);
        assert_eq!(a.get(3), (1.0e-4, 0.0));
        assert_eq!(a.get(1), (2.5e-4, 4.0));
    }

    #[test]
    fn clear_retains_capacity() {
        let mut c = KeyColumns::new();
        for i in 0..100 {
            c.push_server(i as f32);
        }
        let cap = c.s.capacity();
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.s.capacity(), cap);
        c.push_server(9.0);
        assert_eq!(c.get(0), (9.0, 0.0));
    }

    #[test]
    fn equality_is_by_content() {
        let mut a = KeyColumns::new();
        let mut b = KeyColumns::with_reserved(64);
        a.push_server(3.0);
        b.push_server(3.0);
        assert_eq!(a, b);
        b.set_db(0, 1.0);
        assert_ne!(a, b);
    }
}
