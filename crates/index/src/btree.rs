//! A from-scratch B+-tree over composite keys.
//!
//! Arena-allocated nodes, leaf-level linked list for range scans, posting
//! lists per key. Deletion is *lazy*: removing the last posting of a key
//! removes the key from its leaf but never merges nodes. Underfull leaves
//! are harmless for correctness and keep the code small; the workloads in
//! this reproduction are insert-heavy (TPC-R loads) with comparatively few
//! deletes, matching the paper's setting where deletes flow through ΔR.

use std::ops::Bound;

use pmv_storage::{prefetch_read, RowId, Value};

use crate::key::IndexKey;
use crate::SecondaryIndex;

/// Maximum keys per node before it splits.
const DEFAULT_ORDER: usize = 32;

type NodeId = usize;

#[derive(Clone)]
enum Node {
    Internal {
        /// Separator keys; `children[i]` holds keys `< keys[i]`,
        /// `children[i+1]` holds keys `>= keys[i]`.
        keys: Vec<IndexKey>,
        children: Vec<NodeId>,
    },
    Leaf {
        keys: Vec<IndexKey>,
        postings: Vec<Vec<RowId>>,
        next: Option<NodeId>,
    },
}

/// B+-tree index: ordered composite keys with range scans.
///
/// `Clone` supports the copy-on-write snapshot layer: `Database`
/// publishes indexes behind `Arc`, and maintenance clones-on-write via
/// `Arc::make_mut` only when a pinned snapshot still holds the old
/// version.
#[derive(Clone)]
pub struct BTreeIndex {
    nodes: Vec<Node>,
    root: NodeId,
    order: usize,
    key_count: usize,
    entry_count: usize,
}

impl Default for BTreeIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl BTreeIndex {
    /// Empty tree with the default node order.
    pub fn new() -> Self {
        Self::with_order(DEFAULT_ORDER)
    }

    /// Empty tree with `order` maximum keys per node (minimum 4).
    pub fn with_order(order: usize) -> Self {
        assert!(order >= 4, "B+-tree order must be at least 4");
        BTreeIndex {
            // Node 0 is the initial (leftmost) leaf and stays the leftmost
            // leaf forever: splits always allocate the *right* sibling.
            nodes: vec![Node::Leaf {
                keys: Vec::new(),
                postings: Vec::new(),
                next: None,
            }],
            root: 0,
            order,
            key_count: 0,
            entry_count: 0,
        }
    }

    /// Tree over `pairs`, built bottom-up: equal to inserting them one
    /// by one in the given order (same postings in the same order), but
    /// one sort instead of one descent per pair, and every leaf packed
    /// to `order` keys instead of left half full by ascending splits.
    pub fn bulk_load(pairs: Vec<(IndexKey, RowId)>) -> Self {
        Self::bulk_load_with_order(DEFAULT_ORDER, pairs)
    }

    /// [`Self::bulk_load`] with `order` maximum keys per node (minimum 4).
    pub fn bulk_load_with_order(order: usize, mut pairs: Vec<(IndexKey, RowId)>) -> Self {
        let mut tree = Self::with_order(order);
        if pairs.is_empty() {
            return tree;
        }
        tree.entry_count = pairs.len();
        // Stable: rows of one key keep the order they were given in.
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        let mut entries: Vec<(IndexKey, Vec<RowId>)> = Vec::new();
        for (key, row) in pairs {
            match entries.last_mut() {
                Some((last, rows)) if *last == key => rows.push(row),
                _ => entries.push((key, vec![row])),
            }
        }
        tree.key_count = entries.len();

        // Leaves first, so node 0 is the leftmost leaf and each leaf's
        // right sibling is the next id. `level` carries every node of the
        // level being built with the least key under it.
        tree.nodes.clear();
        let leaves = entries.len().div_ceil(order);
        let mut level: Vec<(IndexKey, NodeId)> = Vec::with_capacity(leaves);
        let mut entries = entries.into_iter();
        for id in 0..leaves {
            let (keys, postings): (Vec<_>, Vec<_>) = entries.by_ref().take(order).unzip();
            level.push((keys[0].clone(), id));
            tree.nodes.push(Node::Leaf {
                keys,
                postings,
                next: (id + 1 < leaves).then_some(id + 1),
            });
        }
        // Internal levels: up to `order + 1` children each, split so the
        // last node of a level never ends up with a single child.
        while level.len() > 1 {
            let fanout = order + 1;
            let mut parents = Vec::with_capacity(level.len().div_ceil(fanout));
            let mut rest = level.as_slice();
            while !rest.is_empty() {
                let take = match rest.len() {
                    n if n <= fanout => n,
                    n if n == fanout + 1 => fanout - 1,
                    _ => fanout,
                };
                let (group, tail) = rest.split_at(take);
                rest = tail;
                parents.push((group[0].0.clone(), tree.nodes.len()));
                tree.nodes.push(Node::Internal {
                    keys: group[1..].iter().map(|(least, _)| least.clone()).collect(),
                    children: group.iter().map(|&(_, id)| id).collect(),
                });
            }
            level = parents;
        }
        tree.root = level[0].1;
        tree
    }

    /// Leaf that would contain `key`, plus the path of internal nodes
    /// walked (for split propagation).
    fn descend(&self, key: &IndexKey) -> (NodeId, Vec<(NodeId, usize)>) {
        let mut path = Vec::new();
        let mut node = self.root;
        loop {
            match &self.nodes[node] {
                Node::Internal { keys, children } => {
                    let child_idx = keys.partition_point(|sep| sep <= key);
                    path.push((node, child_idx));
                    node = children[child_idx];
                }
                Node::Leaf { .. } => return (node, path),
            }
        }
    }

    /// Rows whose key components equal `parts`, without materializing an
    /// [`IndexKey`] — the executor's hot probe path borrows the values
    /// straight out of the bound tuple. Component comparison matches
    /// `IndexKey`'s derived `Ord` (lexicographic over `Value`), so this
    /// lands on the same leaf slot as [`SecondaryIndex::get`].
    pub fn get_by_parts(&self, parts: &[Value]) -> &[RowId] {
        let mut node = self.root;
        loop {
            match &self.nodes[node] {
                Node::Internal { keys, children } => {
                    let child_idx = keys.partition_point(|sep| sep.parts() <= parts);
                    node = children[child_idx];
                }
                Node::Leaf { keys, postings, .. } => {
                    return match keys.binary_search_by(|k| k.parts().cmp(parts)) {
                        Ok(i) => &postings[i],
                        Err(_) => &[],
                    };
                }
            }
        }
    }

    /// Split the overfull node `node`, returning the separator key and the
    /// new right sibling id.
    fn split(&mut self, node: NodeId) -> (IndexKey, NodeId) {
        let new_id = self.nodes.len();
        match &mut self.nodes[node] {
            Node::Leaf {
                keys,
                postings,
                next,
            } => {
                let mid = keys.len() / 2;
                let right_keys = keys.split_off(mid);
                let right_postings = postings.split_off(mid);
                let sep = right_keys[0].clone();
                let right = Node::Leaf {
                    keys: right_keys,
                    postings: right_postings,
                    next: next.take(),
                };
                match &mut self.nodes[node] {
                    Node::Leaf { next, .. } => *next = Some(new_id),
                    Node::Internal { .. } => unreachable!(),
                }
                self.nodes.push(right);
                (sep, new_id)
            }
            Node::Internal { keys, children } => {
                let mid = keys.len() / 2;
                // The separator at `mid` moves up; right node gets keys
                // after it.
                let sep = keys[mid].clone();
                let right_keys = keys.split_off(mid + 1);
                keys.pop(); // drop the promoted separator
                let right_children = children.split_off(mid + 1);
                let right = Node::Internal {
                    keys: right_keys,
                    children: right_children,
                };
                self.nodes.push(right);
                (sep, new_id)
            }
        }
    }

    fn node_len(&self, node: NodeId) -> usize {
        match &self.nodes[node] {
            Node::Internal { keys, .. } | Node::Leaf { keys, .. } => keys.len(),
        }
    }

    /// Propagate splits from `leaf` back up `path` to the root.
    fn rebalance_after_insert(&mut self, leaf: NodeId, path: Vec<(NodeId, usize)>) {
        let mut child = leaf;
        let mut path = path;
        while self.node_len(child) > self.order {
            let (sep, right) = self.split(child);
            match path.pop() {
                Some((parent, child_idx)) => {
                    match &mut self.nodes[parent] {
                        Node::Internal { keys, children } => {
                            keys.insert(child_idx, sep);
                            children.insert(child_idx + 1, right);
                        }
                        Node::Leaf { .. } => unreachable!("parent must be internal"),
                    }
                    child = parent;
                }
                None => {
                    // `child` was the root: grow a new root.
                    let new_root = Node::Internal {
                        keys: vec![sep],
                        children: vec![child, right],
                    };
                    self.nodes.push(new_root);
                    self.root = self.nodes.len() - 1;
                    return;
                }
            }
        }
    }

    /// Equality probes for a batch of single-value keys: appends one
    /// posting slice to `out` per key, each exactly what
    /// [`Self::get_by_parts`] returns for `&[key]` (so nothing on a
    /// composite-key tree). A probe is a chain of dependent loads — leaf
    /// header, key array, posting array, posting rows — and the chains of
    /// different keys are independent, so each stage is issued for a
    /// whole block of keys and prefetches the next stage's lines: the
    /// misses overlap instead of queuing. The last stage prefetches the
    /// rows for the caller, who reads them next.
    pub fn probe_many<'a>(&'a self, keys: &[&Value], out: &mut Vec<&'a [RowId]>) {
        // Keys per block: bounds the lines in flight between two stages
        // (a leaf's two arrays are 24 lines) and lets the per-key state
        // live on the stack.
        const BLOCK: usize = 64;
        out.reserve(keys.len());
        for block in keys.chunks(BLOCK) {
            let mut leaves = [0; BLOCK];
            for (leaf, key) in leaves.iter_mut().zip(block) {
                let mut node = self.root;
                while let Node::Internal { keys, children } = &self.nodes[node] {
                    node = children[keys.partition_point(|sep| sep.cmp_value(key).is_le())];
                }
                *leaf = node;
                prefetch_read(&self.nodes[node], std::mem::size_of::<Node>());
            }
            for &leaf in &leaves[..block.len()] {
                let (keys, postings) = self.leaf(leaf);
                prefetch_read(keys.as_ptr(), std::mem::size_of_val(keys));
                prefetch_read(postings.as_ptr(), std::mem::size_of_val(postings));
            }
            for (&leaf, key) in leaves.iter().zip(block) {
                let (keys, postings) = self.leaf(leaf);
                let rows: &[RowId] = match keys.binary_search_by(|k| k.cmp_value(key)) {
                    Ok(i) => &postings[i],
                    Err(_) => &[],
                };
                prefetch_read(rows.as_ptr(), std::mem::size_of_val(rows));
                out.push(rows);
            }
        }
    }

    fn leaf(&self, node: NodeId) -> (&[IndexKey], &[Vec<RowId>]) {
        match &self.nodes[node] {
            Node::Leaf { keys, postings, .. } => (keys, postings),
            Node::Internal { .. } => unreachable!("descent ends at a leaf"),
        }
    }

    /// Visit every `(key, postings)` with key within the bounds, in
    /// ascending key order.
    fn walk_range(
        &self,
        lo: Bound<&IndexKey>,
        hi: Bound<&IndexKey>,
        mut visit: impl FnMut(&IndexKey, &[RowId]),
    ) {
        // Locate the starting leaf and position.
        let (mut node, mut pos) = match lo {
            Bound::Unbounded => (0, 0), // node 0 is always the leftmost leaf
            Bound::Included(k) | Bound::Excluded(k) => {
                let (leaf, _) = self.descend(k);
                let keys = self.leaf(leaf).0;
                let pos = match lo {
                    Bound::Included(k) => keys.partition_point(|x| x < k),
                    Bound::Excluded(k) => keys.partition_point(|x| x <= k),
                    Bound::Unbounded => 0,
                };
                (leaf, pos)
            }
        };
        loop {
            let Node::Leaf {
                keys,
                postings,
                next,
            } = &self.nodes[node]
            else {
                unreachable!("leaf chain contains only leaves")
            };
            while pos < keys.len() {
                let k = &keys[pos];
                let in_hi = match hi {
                    Bound::Unbounded => true,
                    Bound::Included(h) => k <= h,
                    Bound::Excluded(h) => k < h,
                };
                if !in_hi {
                    return;
                }
                visit(k, &postings[pos]);
                pos += 1;
            }
            match next {
                Some(n) => {
                    node = *n;
                    pos = 0;
                }
                None => return,
            }
        }
    }

    /// Range scan: all `(key, postings)` with key within the bounds, in
    /// ascending key order.
    pub fn range(&self, lo: Bound<&IndexKey>, hi: Bound<&IndexKey>) -> Vec<(IndexKey, Vec<RowId>)> {
        let mut out = Vec::new();
        self.walk_range(lo, hi, |k, rows| out.push((k.clone(), rows.to_vec())));
        out
    }

    /// The row ids of [`Self::range`], appended to `out` in the same
    /// order (ascending key, then posting order) — what a driving range
    /// scan needs, without a clone of every key and posting list in
    /// range.
    pub fn range_rows(&self, lo: Bound<&IndexKey>, hi: Bound<&IndexKey>, out: &mut Vec<RowId>) {
        self.walk_range(lo, hi, |_, rows| out.extend_from_slice(rows));
    }

    /// All keys in ascending order (test/validation helper).
    pub fn keys_in_order(&self) -> Vec<IndexKey> {
        self.range(Bound::Unbounded, Bound::Unbounded)
            .into_iter()
            .map(|(k, _)| k)
            .collect()
    }

    /// Check structural invariants; panics on violation. Test helper.
    pub fn validate(&self) {
        let keys = self.keys_in_order();
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "leaf chain keys must be strictly ascending"
        );
        assert_eq!(keys.len(), self.key_count, "key_count mismatch");
        let posted: usize = self
            .range(Bound::Unbounded, Bound::Unbounded)
            .iter()
            .map(|(_, p)| p.len())
            .sum();
        assert_eq!(posted, self.entry_count, "entry_count mismatch");
        let mut leaves = Vec::new();
        self.validate_subtree(self.root, None, None, &mut leaves);
        let mut chain = vec![0];
        while let Node::Leaf { next: Some(n), .. } = &self.nodes[*chain.last().unwrap()] {
            chain.push(*n);
        }
        assert_eq!(leaves, chain, "descent order must equal the leaf chain");
    }

    /// Every key under `node` lies in `[lo, hi)`, no node exceeds `order`
    /// keys, and an internal node has one more child than separators;
    /// collects the leaves in descent order.
    fn validate_subtree(
        &self,
        node: NodeId,
        lo: Option<&IndexKey>,
        hi: Option<&IndexKey>,
        leaves: &mut Vec<NodeId>,
    ) {
        let in_bounds = |k: &IndexKey| lo.is_none_or(|lo| lo <= k) && hi.is_none_or(|hi| k < hi);
        match &self.nodes[node] {
            Node::Leaf { keys, postings, .. } => {
                assert!(keys.len() <= self.order, "overfull leaf");
                assert_eq!(keys.len(), postings.len());
                assert!(keys.iter().all(in_bounds), "leaf key outside separators");
                leaves.push(node);
            }
            Node::Internal { keys, children } => {
                assert!(keys.len() <= self.order, "overfull internal node");
                assert_eq!(children.len(), keys.len() + 1);
                assert!(keys.windows(2).all(|w| w[0] < w[1]));
                assert!(keys.iter().all(in_bounds), "separator outside parent's");
                for (i, &child) in children.iter().enumerate() {
                    let lo = if i == 0 { lo } else { Some(&keys[i - 1]) };
                    let hi = keys.get(i).or(hi);
                    self.validate_subtree(child, lo, hi, leaves);
                }
            }
        }
    }
}

impl SecondaryIndex for BTreeIndex {
    fn insert(&mut self, key: IndexKey, row: RowId) {
        let (leaf, path) = self.descend(&key);
        let overflow = match &mut self.nodes[leaf] {
            Node::Leaf { keys, postings, .. } => {
                match keys.binary_search(&key) {
                    Ok(i) => postings[i].push(row),
                    Err(i) => {
                        keys.insert(i, key);
                        postings.insert(i, vec![row]);
                        self.key_count += 1;
                    }
                }
                keys.len() > self.order
            }
            Node::Internal { .. } => unreachable!(),
        };
        self.entry_count += 1;
        if overflow {
            self.rebalance_after_insert(leaf, path);
        }
    }

    fn remove(&mut self, key: &IndexKey, row: RowId) -> bool {
        let (leaf, _) = self.descend(key);
        match &mut self.nodes[leaf] {
            Node::Leaf { keys, postings, .. } => match keys.binary_search(key) {
                Ok(i) => {
                    let Some(pos) = postings[i].iter().position(|&r| r == row) else {
                        return false;
                    };
                    postings[i].swap_remove(pos);
                    self.entry_count -= 1;
                    if postings[i].is_empty() {
                        keys.remove(i);
                        postings.remove(i);
                        self.key_count -= 1;
                    }
                    true
                }
                Err(_) => false,
            },
            Node::Internal { .. } => unreachable!(),
        }
    }

    fn get(&self, key: &IndexKey) -> &[RowId] {
        let (leaf, _) = self.descend(key);
        match &self.nodes[leaf] {
            Node::Leaf { keys, postings, .. } => match keys.binary_search(key) {
                Ok(i) => &postings[i],
                Err(_) => &[],
            },
            Node::Internal { .. } => unreachable!(),
        }
    }

    fn key_count(&self) -> usize {
        self.key_count
    }

    fn entry_count(&self) -> usize {
        self.entry_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(v: i64) -> IndexKey {
        IndexKey::single(Value::Int(v))
    }

    #[test]
    fn insert_and_get_small() {
        let mut t = BTreeIndex::new();
        t.insert(k(5), RowId(50));
        t.insert(k(3), RowId(30));
        t.insert(k(7), RowId(70));
        assert_eq!(t.get(&k(3)), &[RowId(30)]);
        assert_eq!(t.get(&k(5)), &[RowId(50)]);
        assert_eq!(t.get(&k(9)), &[] as &[RowId]);
        t.validate();
    }

    #[test]
    fn many_inserts_force_splits() {
        let mut t = BTreeIndex::with_order(4);
        for i in 0..1000i64 {
            t.insert(k(i), RowId(i as u32));
        }
        t.validate();
        assert_eq!(t.key_count(), 1000);
        for i in 0..1000i64 {
            assert_eq!(t.get(&k(i)), &[RowId(i as u32)], "key {i}");
        }
    }

    #[test]
    fn descending_inserts() {
        let mut t = BTreeIndex::with_order(4);
        for i in (0..500i64).rev() {
            t.insert(k(i), RowId(i as u32));
        }
        t.validate();
        let keys = t.keys_in_order();
        assert_eq!(keys.len(), 500);
        assert_eq!(keys[0], k(0));
        assert_eq!(keys[499], k(499));
    }

    #[test]
    fn duplicate_keys_extend_postings() {
        let mut t = BTreeIndex::new();
        t.insert(k(1), RowId(10));
        t.insert(k(1), RowId(11));
        assert_eq!(t.get(&k(1)), &[RowId(10), RowId(11)]);
        assert_eq!(t.key_count(), 1);
        assert_eq!(t.entry_count(), 2);
    }

    #[test]
    fn remove_posting_and_key() {
        let mut t = BTreeIndex::with_order(4);
        for i in 0..100i64 {
            t.insert(k(i), RowId(i as u32));
            t.insert(k(i), RowId(1000 + i as u32));
        }
        assert!(t.remove(&k(50), RowId(50)));
        assert_eq!(t.get(&k(50)), &[RowId(1050)]);
        assert!(t.remove(&k(50), RowId(1050)));
        assert_eq!(t.get(&k(50)), &[] as &[RowId]);
        assert!(!t.remove(&k(50), RowId(1050)));
        t.validate();
        assert_eq!(t.key_count(), 99);
    }

    #[test]
    fn range_inclusive_exclusive() {
        let mut t = BTreeIndex::with_order(4);
        for i in 0..20i64 {
            t.insert(k(i * 10), RowId(i as u32));
        }
        let r = t.range(Bound::Included(&k(30)), Bound::Included(&k(60)));
        let got: Vec<_> = r.iter().map(|(key, _)| key.clone()).collect();
        assert_eq!(got, vec![k(30), k(40), k(50), k(60)]);

        let r = t.range(Bound::Excluded(&k(30)), Bound::Excluded(&k(60)));
        let got: Vec<_> = r.iter().map(|(key, _)| key.clone()).collect();
        assert_eq!(got, vec![k(40), k(50)]);
    }

    #[test]
    fn range_unbounded_sides() {
        let mut t = BTreeIndex::with_order(4);
        for i in 0..50i64 {
            t.insert(k(i), RowId(i as u32));
        }
        assert_eq!(t.range(Bound::Unbounded, Bound::Excluded(&k(3))).len(), 3);
        assert_eq!(t.range(Bound::Included(&k(47)), Bound::Unbounded).len(), 3);
        assert_eq!(t.range(Bound::Unbounded, Bound::Unbounded).len(), 50);
    }

    #[test]
    fn range_between_keys_lands_correctly() {
        let mut t = BTreeIndex::with_order(4);
        for i in 0..20i64 {
            t.insert(k(i * 10), RowId(i as u32));
        }
        // Bounds that are not keys themselves.
        let r = t.range(Bound::Included(&k(25)), Bound::Included(&k(45)));
        let got: Vec<_> = r.iter().map(|(key, _)| key.clone()).collect();
        assert_eq!(got, vec![k(30), k(40)]);
    }

    #[test]
    fn empty_tree_behaves() {
        let t = BTreeIndex::new();
        assert_eq!(t.get(&k(1)), &[] as &[RowId]);
        assert!(t.range(Bound::Unbounded, Bound::Unbounded).is_empty());
        t.validate();
    }

    #[test]
    fn composite_keys_order_lexicographically_in_range() {
        let mut t = BTreeIndex::with_order(4);
        for a in 0..10i64 {
            for b in 0..10i64 {
                t.insert(
                    IndexKey::new(vec![Value::Int(a), Value::Int(b)]),
                    RowId((a * 10 + b) as u32),
                );
            }
        }
        t.validate();
        // All keys with first component 3: [ (3,0) .. (4,0) )
        let lo = IndexKey::new(vec![Value::Int(3)]);
        let hi = IndexKey::new(vec![Value::Int(4)]);
        let r = t.range(Bound::Included(&lo), Bound::Excluded(&hi));
        assert_eq!(r.len(), 10);
        assert!(r.iter().all(|(key, _)| key.parts()[0] == Value::Int(3)));
    }

    #[test]
    fn interleaved_insert_remove_stress() {
        let mut t = BTreeIndex::with_order(4);
        for round in 0..5 {
            for i in 0..200i64 {
                t.insert(k(i), RowId((round * 200 + i) as u32));
            }
            for i in (0..200i64).step_by(2) {
                assert!(t.remove(&k(i), RowId((round * 200 + i) as u32)));
            }
            t.validate();
        }
        // Odd keys have 5 postings each, even keys 0 extra beyond removals.
        assert_eq!(t.get(&k(1)).len(), 5);
        assert_eq!(t.get(&k(2)).len(), 0);
    }
}
