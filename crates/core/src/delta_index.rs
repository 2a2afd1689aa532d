//! Delta-key index: the partial-state maintenance operator.
//!
//! Section 3.4: "In many cases, we can avoid this join computation by
//! building indices on some attributes of V_PM" (details in \[25\]). A
//! filter that only *counts* cached projections can skip a ΔR join, but
//! when the projection is present it still has to run the full
//! `ΔR_i ⋈ R_j` recompute to find which view tuples die. This index
//! closes that gap: for each base relation `R_i` it maps the projection
//! of `R_i`'s `Ls'` columns directly to the resident view tuples
//! carrying those values, so a delete removes exactly the supported
//! tuples in O(|Δ| · fanout) with **no base-relation join at all**.
//!
//! Soundness argument: every view tuple `v`
//! derived from a base tuple `t ∈ R_i` *contains* `t`'s `Ls'`-relevant
//! columns, so all derivations of `v` from `R_i` project to
//! `view_key(v)` and a delete of `t` can only affect tuples filed under
//! `base_key(t)`. The index may *over*-remove: if two distinct base
//! tuples share a projection (multiplicity `m_i > 1`), removing one
//! still removes every supported view tuple. Removal-only
//! over-approximation is sound for a partial view — the cache never
//! lies, it merely under-serves — and the lost slice is repaired by the
//! next fill or a targeted upquery. Because the indexed path consults
//! only the *view* side, never current base state, it is naturally
//! correct for transactions deleting matching tuples from several base
//! relations (the cross-relation case that trips sequential ΔR joins).
//!
//! The lookup is also the Section 3.4 filter: an absent projection means
//! no cached tuple is affected, and the delete costs one hash probe.
//! Only a *bridge* relation, one projecting no `Ls'` column, gives
//! the index nothing to key on; maintenance joins its deletes instead.
//!
//! A projection is keyed by one 64-bit hash of its packed bytes — each
//! value's one encoding, in order — not by a copy of its values: on the
//! view side the bytes are copied from the stored row's and the bcp's
//! packed fields, on the delete side packed from the base tuple. Two
//! projections of one hash share a posting list, so a delete may be
//! handed rows of the other projection too: one more over-removal of
//! the kind argued sound above. A key's posting list holds its postings
//! and no room for more.
//!
//! A posting names a cached row by its bcp and the hash of its packed
//! bytes, not by a copy of it: the row lies in its entry's byte string
//! and nowhere else. Removing by hash drops every row of the entry whose
//! bytes hash to it — on a collision, a row the delete does not support
//! as well. That is the same over-removal again: the deleted row itself
//! always goes.

use std::sync::Arc;

use crate::bcp::BcpKey;
use crate::fasthash::{hash_bytes, FxHashMap};
use crate::verify::FilterSpec;
use crate::view::{PartialViewDef, StoredLayout};
use pmv_query::QueryTemplate;
use pmv_storage::{packed, PackedRow, RowRef, Tuple};

/// Per-relation projection spec: which `Ls'` positions hold relation
/// `i`'s attributes, and which base-relation columns they correspond to.
#[derive(Clone, Debug)]
struct RelSpec {
    /// Positions in the `Ls'` result layout.
    view_positions: Vec<usize>,
    /// Matching column indices in the base relation.
    base_columns: Vec<usize>,
}

impl RelSpec {
    /// One spec per base relation of `template`, in relation order —
    /// the projection the verifier's PMV005 check takes as its reference.
    fn for_template(template: &QueryTemplate) -> Vec<RelSpec> {
        FilterSpec::for_template(template)
            .per_relation
            .into_iter()
            .map(|(view_positions, base_columns)| RelSpec {
                view_positions,
                base_columns,
            })
            .collect()
    }

    /// The key of a cached view tuple, stored in `layout` under `bcp`:
    /// the hash of its projection onto this relation's attributes, the
    /// packed bytes copied into `scratch`.
    fn view_key(
        &self,
        layout: &StoredLayout,
        bcp: &BcpKey,
        stored: RowRef<'_>,
        scratch: &mut Vec<u8>,
    ) -> u64 {
        scratch.clear();
        layout.project(stored, bcp, &self.view_positions, scratch);
        hash_bytes(scratch)
    }

    /// The key of a base-relation tuple's projection onto the same
    /// attributes, its values packed into `scratch`.
    fn base_key(&self, base_tuple: &Tuple, scratch: &mut Vec<u8>) -> u64 {
        scratch.clear();
        packed::append_row(
            scratch,
            self.base_columns.iter().map(|&c| base_tuple.get(c)),
        );
        hash_bytes(scratch)
    }
}

/// One supported view tuple: the bcp it is filed under and the 64-bit
/// hash of the tuple's bytes, packed in the store's layout.
pub type Supported = (BcpKey, u64);

/// The hash a posting names a cached row by: one hash of its packed
/// bytes.
#[inline]
pub(crate) fn row_hash(row: RowRef<'_>) -> u64 {
    hash_bytes(row.as_bytes())
}

/// Per-view index from base-relation projection keys to the resident
/// view tuples they support, one map per base relation. It files the
/// tuples the store holds, in the store's [`StoredLayout`], and reads a
/// derived position of a key from the tuple's bcp.
pub struct DeltaKeyIndex {
    specs: Vec<RelSpec>,
    layout: Arc<StoredLayout>,
    /// `maps[i]`: the hash of a cached view tuple's projection onto
    /// relation i's `Ls'` columns → a posting per cached tuple with that
    /// projection. Empty for a bridge relation, which projects none.
    maps: Vec<FxHashMap<u64, Box<[Supported]>>>,
    /// A projection's packed bytes, written here to be hashed: filing or
    /// unfiling a tuple allocates nothing for its keys.
    scratch: Vec<u8>,
}

impl DeltaKeyIndex {
    /// Build the (empty) index for a store of full `Ls'` rows of
    /// `template`.
    pub fn new(template: &QueryTemplate) -> Self {
        let full = StoredLayout::full(template.expanded_list().len());
        DeltaKeyIndex::with_layout(template, Arc::new(full))
    }

    /// Build the (empty) index for a store of `def`'s cached tuples, in
    /// the view's layout.
    pub fn for_view(def: &PartialViewDef) -> Self {
        DeltaKeyIndex::with_layout(def.template(), Arc::clone(def.layout()))
    }

    fn with_layout(template: &QueryTemplate, layout: Arc<StoredLayout>) -> Self {
        let specs = RelSpec::for_template(template);
        let n = specs.len();
        DeltaKeyIndex {
            specs,
            layout,
            maps: (0..n).map(|_| FxHashMap::default()).collect(),
            scratch: Vec::new(),
        }
    }

    /// Register a cached view tuple, in the index's layout, under its
    /// bcp: [`Self::file`] of `tuple` packed whole.
    pub fn add(&mut self, bcp: &BcpKey, tuple: &Arc<Tuple>) {
        self.file(bcp, PackedRow::from(&**tuple).row());
    }

    /// Register a packed cached view tuple under its bcp.
    pub fn file(&mut self, bcp: &BcpKey, tuple: RowRef<'_>) {
        let hash = row_hash(tuple);
        for rel in 0..self.specs.len() {
            if !self.indexable(rel) {
                continue;
            }
            let key = self.specs[rel].view_key(&self.layout, bcp, tuple, &mut self.scratch);
            let postings = self.maps[rel].entry(key).or_default();
            // One more slot, exactly: a list holds no room to grow.
            let mut grown = std::mem::take(postings).into_vec();
            grown.reserve_exact(1);
            grown.push((bcp.clone(), hash));
            *postings = grown.into_boxed_slice();
        }
    }

    /// Unregister one occurrence of a packed cached view tuple filed
    /// under `bcp`.
    pub fn remove_from(&mut self, bcp: &BcpKey, view_tuple: RowRef<'_>) {
        self.unfile(bcp, view_tuple, |b| b == bcp);
    }

    /// [`Self::remove_from`] for an index of full rows ([`Self::new`]),
    /// whose keys read nothing from the bcp: equal rows lie in one bcp.
    pub fn remove(&mut self, view_tuple: &Tuple) {
        assert!(
            self.layout.is_full(),
            "a tuple stored in a derived layout is removed under its bcp"
        );
        let packed = PackedRow::from(view_tuple);
        self.unfile(&BcpKey::new(Vec::new()), packed.row(), |_| true);
    }

    /// Drop one `(bcp, view_tuple)` with `filed(bcp)` from every map,
    /// keys read through the layout with `key_bcp`.
    fn unfile(
        &mut self,
        key_bcp: &BcpKey,
        view_tuple: RowRef<'_>,
        filed: impl Fn(&BcpKey) -> bool,
    ) {
        let hash = row_hash(view_tuple);
        for rel in 0..self.specs.len() {
            if !self.indexable(rel) {
                continue;
            }
            let key =
                self.specs[rel].view_key(&self.layout, key_bcp, view_tuple, &mut self.scratch);
            let Some(postings) = self.maps[rel].get_mut(&key) else {
                debug_assert!(false, "index underflow for relation {rel}");
                continue;
            };
            let Some(pos) = postings.iter().position(|(b, h)| *h == hash && filed(b)) else {
                debug_assert!(false, "index missing tuple for relation {rel}");
                continue;
            };
            if postings.len() == 1 {
                self.maps[rel].remove(&key);
            } else {
                let mut shrunk = std::mem::take(postings).into_vec();
                shrunk.swap_remove(pos);
                *postings = shrunk.into_boxed_slice();
            }
        }
    }

    /// The cached view tuples supported by `base_tuple` in relation
    /// `rel` — exactly the tuples a delete of `base_tuple` must remove,
    /// and on a collision of projection hashes more. Cloned out so the
    /// caller can mutate the store (which mutates this index) while
    /// iterating. Empty when the relation has no `Ls'` columns (the
    /// caller must fall back to the join — the index has nothing to key
    /// on).
    pub fn supported(&self, rel: usize, base_tuple: &Tuple) -> Vec<Supported> {
        if !self.indexable(rel) {
            return Vec::new();
        }
        let key = self.specs[rel].base_key(base_tuple, &mut Vec::new());
        self.maps[rel]
            .get(&key)
            .map_or_else(Vec::new, |p| p.to_vec())
    }

    /// Whether relation `rel` projects at least one `Ls'` column — the
    /// precondition for the indexed removal path.
    pub fn indexable(&self, rel: usize) -> bool {
        !self.specs[rel].view_positions.is_empty()
    }

    /// Drop every tracked projection (store drained, e.g. quarantine).
    pub fn clear(&mut self) {
        for m in &mut self.maps {
            m.clear();
        }
    }

    /// Total distinct projections tracked (diagnostic).
    pub fn key_count(&self) -> usize {
        self.maps.iter().map(FxHashMap::len).sum()
    }

    /// Compare against the full cached multiset of `(bcp, stored tuple)`
    /// pairs — every key's postings, as a multiset — returning a
    /// violation message per drifted relation. Never panics.
    pub fn check_against(&self, cached: &[(BcpKey, RowRef<'_>)]) -> Vec<String> {
        use std::collections::HashMap;
        let mut violations = Vec::new();
        let mut scratch = Vec::new();
        for rel in 0..self.specs.len() {
            let mut expect: HashMap<u64, Vec<Supported>> = HashMap::new();
            if self.indexable(rel) {
                for (bcp, t) in cached {
                    let key = self.specs[rel].view_key(&self.layout, bcp, *t, &mut scratch);
                    expect
                        .entry(key)
                        .or_default()
                        .push((bcp.clone(), row_hash(*t)));
                }
            }
            let mut got: HashMap<u64, Vec<Supported>> = self.maps[rel]
                .iter()
                .map(|(k, v)| (*k, v.to_vec()))
                .collect();
            for postings in expect.values_mut().chain(got.values_mut()) {
                postings.sort_unstable();
            }
            if expect != got {
                violations.push(format!("delta-key index drifted for relation {rel}"));
            }
        }
        violations
    }

    /// Validate against the full cached multiset (test helper).
    pub fn validate(&self, cached: &[(BcpKey, RowRef<'_>)]) {
        let violations = self.check_against(cached);
        assert!(violations.is_empty(), "{violations:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcp::BcpDim;
    use pmv_query::TemplateBuilder;
    use pmv_storage::{tuple, Column, ColumnType, Schema, Value};

    fn template() -> std::sync::Arc<QueryTemplate> {
        TemplateBuilder::new("t")
            .relation(Schema::new(
                "r",
                vec![
                    Column::new("a", ColumnType::Int),
                    Column::new("c", ColumnType::Int),
                    Column::new("f", ColumnType::Int),
                ],
            ))
            .relation(Schema::new(
                "s",
                vec![
                    Column::new("d", ColumnType::Int),
                    Column::new("e", ColumnType::Int),
                    Column::new("g", ColumnType::Int),
                ],
            ))
            .join("r", "c", "s", "d")
            .unwrap()
            .select("r", "a")
            .unwrap()
            .select("s", "e")
            .unwrap()
            .cond_eq("r", "f")
            .unwrap()
            .cond_eq("s", "g")
            .unwrap()
            .build()
            .unwrap()
    }

    fn bcp(f: i64, g: i64) -> BcpKey {
        BcpKey::new(vec![BcpDim::Eq(Value::Int(f)), BcpDim::Eq(Value::Int(g))])
    }

    // Ls' layout for this template: (r.a, s.e, r.f, s.g).

    #[test]
    fn supported_returns_exactly_the_affected_tuples() {
        let t = template();
        let mut idx = DeltaKeyIndex::new(&t);
        let v1 = Arc::new(tuple![1i64, 2i64, 1i64, 7i64]);
        let v2 = Arc::new(tuple![1i64, 3i64, 1i64, 7i64]);
        let v3 = Arc::new(tuple![9i64, 2i64, 5i64, 7i64]);
        idx.add(&bcp(1, 7), &v1);
        idx.add(&bcp(1, 7), &v2);
        idx.add(&bcp(5, 7), &v3);
        // Deleting r-tuple (a=1, c=4, f=1): projection (1, 1) supports
        // v1 and v2, not v3.
        let hit = idx.supported(0, &tuple![1i64, 4i64, 1i64]);
        assert_eq!(hit.len(), 2);
        assert!(hit.iter().all(|(b, _)| *b == bcp(1, 7)));
        // s-side delete (d=4, e=2, g=7): projection (2, 7) supports v1
        // and v3.
        let hit = idx.supported(1, &tuple![4i64, 2i64, 7i64]);
        assert_eq!(hit.len(), 2);
        // Unrelated delete: nothing to remove.
        assert!(idx.supported(0, &tuple![8i64, 0i64, 8i64]).is_empty());
    }

    #[test]
    fn remove_drops_one_occurrence() {
        let t = template();
        let mut idx = DeltaKeyIndex::new(&t);
        let v = Arc::new(tuple![1i64, 2i64, 1i64, 7i64]);
        idx.add(&bcp(1, 7), &v);
        idx.add(&bcp(1, 7), &v);
        idx.remove(&v);
        assert_eq!(idx.supported(0, &tuple![1i64, 0i64, 1i64]).len(), 1);
        idx.remove(&v);
        assert!(idx.supported(0, &tuple![1i64, 0i64, 1i64]).is_empty());
        assert_eq!(idx.key_count(), 0);
    }

    #[test]
    fn validate_matches_multiset_and_clear_empties() {
        let t = template();
        let mut idx = DeltaKeyIndex::new(&t);
        let tuples = [
            tuple![1i64, 2i64, 1i64, 7i64],
            tuple![1i64, 2i64, 1i64, 7i64],
            tuple![7i64, 8i64, 3i64, 9i64],
        ];
        for tu in &tuples {
            idx.add(&bcp(0, 0), &Arc::new(tu.clone()));
        }
        let packed: Vec<PackedRow> = tuples.iter().map(PackedRow::from).collect();
        let filed: Vec<(BcpKey, RowRef<'_>)> =
            packed.iter().map(|t| (bcp(0, 0), t.row())).collect();
        idx.validate(&filed);
        idx.remove(&tuples[0]);
        idx.validate(&filed[1..]);
        idx.clear();
        idx.validate(&[]);
    }
}
