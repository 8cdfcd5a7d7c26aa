//! Property-based tests: storage structures against model implementations.

use std::collections::BTreeMap;
use std::sync::Arc;

use dm_storage::checksum::{seal_page, verify_page};
use dm_storage::page::{zeroed_page, PAGE_DATA, PAGE_SIZE};
use dm_storage::{BTree, BufferPool, HeapFile, IdDirectory, MemStore, RecordId};
use proptest::prelude::*;

fn pool(cap: usize) -> Arc<BufferPool> {
    Arc::new(BufferPool::new(Box::new(MemStore::new()), cap))
}

/// Ascending id sets of the shapes a store's directory meets: empty,
/// one id, dense (one store's `start..start + n`, across up to four
/// pages), strip-like (runs of any length separated by gaps) and
/// scattered over the whole id space.
fn id_sets() -> impl Strategy<Value = Vec<u32>> {
    (
        0u8..5,
        any::<u32>(),
        (0u32..3, 1u32..5_500),
        proptest::collection::vec((1u32..400, 1u32..2_000), 1..6),
        proptest::collection::vec(any::<u32>(), 1..2_000),
    )
        .prop_map(
            |(shape, one, (start, n), runs, mut scattered)| match shape {
                0 => Vec::new(),
                1 => vec![one],
                2 => (start..start + n).collect(),
                3 => {
                    let mut ids = Vec::new();
                    let mut next = 0u32;
                    for (gap, len) in runs {
                        next += gap;
                        ids.extend(next..next + len);
                        next += len;
                    }
                    ids
                }
                _ => {
                    scattered.sort_unstable();
                    scattered.dedup();
                    scattered
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn heap_roundtrips_arbitrary_records(
        recs in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..600),
            1..200,
        )
    ) {
        let mut heap = HeapFile::create(pool(32));
        let rids: Vec<_> = recs.iter().map(|r| heap.insert(r)).collect();
        for (rid, rec) in rids.iter().zip(&recs) {
            prop_assert_eq!(&heap.get(*rid), rec);
        }
        // Scan visits everything in insertion order per page sequence.
        let mut n = 0;
        heap.scan(|_, _| n += 1);
        prop_assert_eq!(n, recs.len());
    }

    #[test]
    fn btree_matches_btreemap_model(
        ops in proptest::collection::vec((any::<u16>(), any::<u64>()), 1..800),
        probes in proptest::collection::vec(any::<u16>(), 1..100),
        lo in any::<u16>(),
        hi in any::<u16>(),
        fill in 0.05f64..1.0,
    ) {
        let model: BTreeMap<u64, u64> = ops.iter().map(|&(k, v)| (k as u64, v)).collect();
        let tree = BTree::bulk_load(pool(256), model.iter().map(|(&k, &v)| (k, v)), fill);
        prop_assert_eq!(tree.len(), model.len() as u64);
        for p in probes {
            prop_assert_eq!(tree.get(p as u64), model.get(&(p as u64)).copied());
        }
        let (lo, hi) = (lo.min(hi) as u64, lo.max(hi) as u64);
        let mut got = Vec::new();
        tree.try_range(lo, hi, |k, v| got.push((k, v))).unwrap();
        let want: Vec<_> = model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(got, want);
    }

    /// The id directory against a map, over the id sets stores have:
    /// empty, one id, dense ranges and strips whose runs straddle page
    /// boundaries, and scattered ids anywhere in `u32`. Present ids find
    /// their record, absent ids answer `None`, and a copy-on-write update
    /// equals a rebuild while the old snapshot still reads the old map.
    #[test]
    fn id_directory_matches_model(
        ids in id_sets(),
        probes in proptest::collection::vec(any::<u32>(), 0..64),
        moved in proptest::collection::vec((any::<usize>(), any::<u32>()), 0..200),
    ) {
        let rid = |id: u32, salt: u32| RecordId {
            page: id.rotate_left(7) ^ salt,
            slot: (id ^ salt) as u16,
        };
        let p = pool(64);
        let model: BTreeMap<u32, RecordId> = ids.iter().map(|&id| (id, rid(id, 0))).collect();
        let dir = IdDirectory::try_build(Arc::clone(&p), model.iter().map(|(&k, &v)| (k, v))).unwrap();
        prop_assert_eq!(dir.len(), model.len() as u64);
        let mut walked = Vec::new();
        let walk = dir.try_walk(|id, r| walked.push((id, r))).unwrap();
        prop_assert_eq!(walk.entries, model.len() as u64);
        prop_assert_eq!(walk.pages, dir.parts().len() as u64);
        prop_assert_eq!(&walked, &model.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>());
        let neighbours = ids.iter().flat_map(|&id| [id.checked_sub(1), Some(id), id.checked_add(1)]).flatten();
        for id in neighbours.chain(probes.iter().copied()) {
            prop_assert_eq!(dir.try_get(id).unwrap(), model.get(&id).copied(), "id {}", id);
        }

        let mut updated = model.clone();
        let mut updates: BTreeMap<u32, RecordId> = BTreeMap::new();
        if !ids.is_empty() {
            for (at, salt) in &moved {
                let id = ids[at % ids.len()];
                updates.insert(id, rid(id, *salt | 1));
            }
        }
        updated.extend(updates.iter().map(|(&k, &v)| (k, v)));
        let updates: Vec<(u32, RecordId)> = updates.into_iter().collect();
        let cow = dir.try_cow_update(&updates).unwrap();
        let rebuilt = IdDirectory::try_build(Arc::clone(&p), updated.iter().map(|(&k, &v)| (k, v))).unwrap();
        let all = |d: &IdDirectory| {
            let mut v = Vec::new();
            d.try_walk(|id, r| v.push((id, r))).unwrap();
            v
        };
        prop_assert_eq!(all(&cow), all(&rebuilt));
        prop_assert_eq!(all(&dir), walked, "the old snapshot is unchanged");
        for &(id, r) in &updates {
            prop_assert_eq!(cow.try_get(id).unwrap(), Some(r));
            prop_assert_eq!(dir.try_get(id).unwrap(), model.get(&id).copied());
        }
        // Exactly the pages holding an update were copied.
        let copied = dir.parts().iter().zip(cow.parts()).filter(|(a, b)| a != b).count();
        let touched: std::collections::HashSet<usize> = updates
            .iter()
            .map(|&(id, _)| dir.parts().partition_point(|&(f, _)| f <= id) - 1)
            .collect();
        prop_assert_eq!(copied, touched.len());
    }

    #[test]
    fn buffer_pool_capacity_never_exceeded_and_data_safe(
        cap in 1usize..16,
        writes in proptest::collection::vec((0u8..32, any::<u8>()), 1..200),
    ) {
        let p = pool(cap);
        let pages: Vec<_> = (0..32).map(|_| p.allocate()).collect();
        let mut model = [0u8; 32];
        for (slot, val) in writes {
            p.write(pages[slot as usize], |b| b[7] = val);
            model[slot as usize] = val;
            prop_assert!(p.resident() <= cap);
        }
        for (i, &page) in pages.iter().enumerate() {
            prop_assert_eq!(p.read(page, |b| b[7]), model[i]);
        }
    }

    #[test]
    fn any_single_bit_flip_of_a_sealed_page_is_detected(
        data in proptest::collection::vec(any::<u8>(), PAGE_DATA..PAGE_DATA + 1),
        pos in 0usize..PAGE_SIZE * 8,
    ) {
        // Arbitrary page contents (including all-zero data: the sealed
        // trailer is then nonzero, so the fresh-page exemption cannot
        // mask the flip), arbitrary bit anywhere in the page — data or
        // checksum trailer alike.
        let mut page = zeroed_page();
        page[..PAGE_DATA].copy_from_slice(&data);
        seal_page(&mut page);
        page[pos / 8] ^= 1 << (pos % 8);
        prop_assert!(verify_page(3, &page).is_err(), "flip at bit {pos} undetected");
        page[pos / 8] ^= 1 << (pos % 8);
        // And that bit of every byte in turn: wherever in the folding
        // kernel's 64-byte steps, 16-byte lanes and table-path tail (or
        // the trailer) the flip lands, the dispatching entry catches it.
        verify_page(3, &page).unwrap();
        for byte in 0..PAGE_SIZE {
            page[byte] ^= 1 << (pos % 8);
            prop_assert!(
                verify_page(3, &page).is_err(),
                "flip of bit {} in byte {byte} undetected", pos % 8
            );
            page[byte] ^= 1 << (pos % 8);
        }
    }

    #[test]
    fn cold_reads_equal_distinct_pages_touched(
        slots in proptest::collection::vec(0u8..16, 1..100),
    ) {
        let p = pool(64);
        let pages: Vec<_> = (0..16).map(|_| p.allocate()).collect();
        p.flush_all();
        p.reset_stats();
        let mut distinct = std::collections::HashSet::new();
        for s in &slots {
            p.read(pages[*s as usize], |_| ());
            distinct.insert(*s);
        }
        prop_assert_eq!(p.stats().reads, distinct.len() as u64);
    }
}
