//! A minimal compressed-sparse-row incidence container.
//!
//! Stores, for each of `n` nodes, a contiguous slice of `u32` payloads:
//! the indices of the list items (documents, links) that touch the node.
//! A CSR is built in two passes over the list it indexes, straight from
//! the slice, with no `(node, payload)` pair list in between:
//!
//! 1. the caller's counting pass gives each node's degree (the social
//!    graph's passes also validate the list and take the in/out degrees
//!    and the last timestamp in the same read);
//! 2. [`Csr::scatter`] turns the degrees into row offsets and writes
//!    each item's index into the rows of its end nodes.
//!
//! Items are written in list order, so every row keeps insertion order.
//! Lookups are two loads and a slice.

/// CSR adjacency: `values[offsets[i]..offsets[i+1]]` are node `i`'s items.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Csr {
    offsets: Vec<u32>,
    values: Vec<u32>,
}

impl Csr {
    /// Index `items` over one node per entry of `degrees`: item `i` is
    /// listed, as payload `i`, in the row of each node `ends(item)`
    /// names (twice if it names a node twice), so every row holds its
    /// items in list order. `degrees` must count, for each node, how
    /// often `ends` names it over all of `items`.
    pub fn scatter<T, const K: usize>(
        degrees: impl IntoIterator<Item = u32>,
        items: &[T],
        ends: impl Fn(&T) -> [u32; K],
    ) -> Self {
        // `offsets[v + 1]` starts as row v's first slot and is the
        // scatter's cursor for row v, so it ends at row v's end.
        let degrees = degrees.into_iter();
        let mut offsets = Vec::with_capacity(degrees.size_hint().0 + 1);
        offsets.push(0);
        #[cfg(debug_assertions)]
        let mut row_ends = Vec::new();
        let mut start = 0u32;
        for degree in degrees {
            offsets.push(start);
            start = start
                .checked_add(degree)
                .expect("a CSR holds fewer than 2^32 items");
            #[cfg(debug_assertions)]
            row_ends.push(start);
        }
        let mut values = vec![0u32; start as usize];
        for (i, item) in items.iter().enumerate() {
            for node in ends(item) {
                let cursor = &mut offsets[node as usize + 1];
                values[*cursor as usize] = i as u32;
                *cursor += 1;
            }
        }
        #[cfg(debug_assertions)]
        debug_assert!(
            offsets[1..] == row_ends[..],
            "CSR degrees disagree with the items' ends"
        );
        Self { offsets, values }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True if there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload slice for `node`.
    #[inline]
    pub fn row(&self, node: usize) -> &[u32] {
        let lo = self.offsets[node] as usize;
        let hi = self.offsets[node + 1] as usize;
        &self.values[lo..hi]
    }

    /// Degree of `node`.
    #[inline]
    pub fn degree(&self, node: usize) -> usize {
        (self.offsets[node + 1] - self.offsets[node]) as usize
    }

    /// Total number of stored items.
    pub fn total(&self) -> usize {
        self.values.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_rows_in_insertion_order() {
        let links = [(0, 3), (3, 2), (0, 3), (3, 3)];
        let csr = Csr::scatter([2, 0, 1, 5], &links, |&(a, b)| [a, b]);
        assert_eq!(csr.row(0), &[0, 2]);
        assert_eq!(csr.row(1), &[] as &[u32]);
        assert_eq!(csr.row(2), &[1]);
        assert_eq!(csr.row(3), &[0, 1, 2, 3, 3]);
        assert_eq!(csr.degree(3), 5);
        assert_eq!(csr.total(), 8);
        assert_eq!(csr.len(), 4);
    }

    #[test]
    fn empty_graph() {
        let csr = Csr::scatter([], &[] as &[u32], |&n| [n]);
        assert_eq!(csr.len(), 0);
        assert!(csr.is_empty());
    }
}
