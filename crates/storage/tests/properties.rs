//! Property-based tests: storage structures against model implementations.

use std::collections::BTreeMap;
use std::sync::Arc;

use dm_storage::checksum::{seal_page, verify_page};
use dm_storage::page::{zeroed_page, PAGE_DATA, PAGE_SIZE};
use dm_storage::{BTree, BufferPool, HeapFile, MemStore};
use proptest::prelude::*;

fn pool(cap: usize) -> Arc<BufferPool> {
    Arc::new(BufferPool::new(Box::new(MemStore::new()), cap))
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
    ) {
        let mut tree = BTree::create(pool(256));
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for (k, v) in &ops {
            tree.insert(*k as u64, *v);
            model.insert(*k as u64, *v);
        }
        prop_assert_eq!(tree.len(), model.len() as u64);
        for p in probes {
            prop_assert_eq!(tree.get(p as u64), model.get(&(p as u64)).copied());
        }
        let (lo, hi) = (lo.min(hi) as u64, lo.max(hi) as u64);
        let mut got = Vec::new();
        tree.range(lo, hi, |k, v| got.push((k, v)));
        let want: Vec<_> = model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(got, want);
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
