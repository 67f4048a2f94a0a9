//! Virtual next-hop (VNH) and virtual MAC (VMAC) allocation (§4.2).
//!
//! Every forwarding equivalence class receives a `(VNH, VMAC)` pair:
//! the VNH is an otherwise-unused IP on the IXP peering LAN that the route
//! server writes into BGP NEXT_HOP when re-advertising member prefixes to
//! the group's viewer; the VMAC is what the SDX ARP responder answers for
//! the VNH, so the viewer's border router tags the traffic.
//!
//! The allocator hands out addresses from a dedicated pool (default
//! `172.16.128.0/17`, ~32k VNHs — comfortably above the ~1,500 prefix
//! groups the paper's experiments reach) and recycles retired ids.
//!
//! For churn stability the allocator additionally remembers the
//! [`FecKey`] each id was last assigned to: a *keyed* reservation
//! ([`VnhAllocator::reserve_keyed`]) hands the **same** id — hence the
//! same VNH and VMAC — back to any group whose content-addressed key is
//! unchanged since the previous compilation, so a recompile only re-labels
//! the equivalence classes that actually changed (§4.3.2's minimal-update
//! goal applied to the VNH layer).

use std::collections::BTreeMap;

use sdx_net::{Ipv4Addr, MacAddr, Prefix};

use crate::error::SdxError;
use crate::fec::{FecId, FecKey};

/// Allocates `(FecId, VNH, VMAC)` triples from a configurable pool.
#[derive(Clone, Debug)]
pub struct VnhAllocator {
    pool: Prefix,
    /// One past the last usable offset (the pool size, saturated).
    limit: u32,
    /// Sequential frontier: next never-used offset. Offset 0 (the network
    /// address) is never handed out.
    next: u32,
    /// Released offsets, reused LIFO before the frontier advances.
    free: Vec<u32>,
    /// Stable-identity map: the key each live id was assigned under.
    /// Ids allocated through the un-keyed paths never appear here.
    keys: BTreeMap<FecKey, u32>,
    /// Reverse of `keys`, so [`release`](Self::release) can unmap.
    ids: BTreeMap<u32, FecKey>,
}

impl VnhAllocator {
    /// Default pool used by the paper-scale experiments.
    pub fn default_pool() -> Prefix {
        Prefix::new(Ipv4Addr::new(172, 16, 128, 0), 17)
    }

    /// An allocator drawing from `pool`. Offset 0 (the network address) is
    /// never handed out.
    pub fn new(pool: Prefix) -> Self {
        VnhAllocator {
            pool,
            limit: pool.size().min(u64::from(u32::MAX)) as u32,
            next: 1,
            free: Vec::new(),
            keys: BTreeMap::new(),
            ids: BTreeMap::new(),
        }
    }

    /// Number of VNHs currently allocatable without exhausting the pool.
    pub fn remaining(&self) -> u64 {
        u64::from(self.limit.saturating_sub(self.next)) + self.free.len() as u64
    }

    /// Allocates a fresh id/VNH/VMAC triple, or reports pool exhaustion as
    /// a typed error. The controller's transactional paths use this so a
    /// dry pool rolls back cleanly instead of tearing the process down.
    pub fn try_allocate(&mut self) -> Result<(FecId, Ipv4Addr, MacAddr), SdxError> {
        let off = match self.free.pop() {
            Some(off) => off,
            None => {
                let off = self.next;
                if off >= self.limit {
                    return Err(SdxError::VnhExhausted { pool: self.pool });
                }
                self.next += 1;
                off
            }
        };
        Ok(self.triple(off))
    }

    /// Allocates a fresh id/VNH/VMAC triple.
    ///
    /// # Panics
    /// Panics if the pool is exhausted — a configuration error (pool too
    /// small for the workload), not a runtime condition to limp past.
    /// Recoverable callers use [`try_allocate`](Self::try_allocate).
    pub fn allocate(&mut self) -> (FecId, Ipv4Addr, MacAddr) {
        match self.try_allocate() {
            Ok(triple) => triple,
            Err(_) => panic!("VNH pool {} exhausted", self.pool),
        }
    }

    /// Computes, **without mutating the allocator**, one triple per key —
    /// reusing the id a key is already mapped to, and drawing fresh ids
    /// (free-list LIFO, then sequential, exactly like
    /// [`try_allocate`](Self::try_allocate)) only for keys never seen
    /// before. On
    /// [`commit`](Self::commit) the fresh keys become mapped; until then
    /// nothing is consumed, so an aborted compile leaves the allocator —
    /// key maps included — byte-identical.
    ///
    /// This is what makes re-optimization churn-stable: an unchanged FEC
    /// group (same viewer, same member prefixes, same best next hop) keeps
    /// its exact VNH and VMAC across recompilations, so neither its flow
    /// rules, its ARP binding, nor its FIB advertisements need to move.
    pub fn reserve_keyed<'k>(
        &self,
        wanted: impl IntoIterator<Item = &'k FecKey>,
    ) -> Result<VnhReservation, SdxError> {
        let mut draft = Draft::new(self);
        let mut triples = Vec::new();
        let mut new_keys: Vec<(FecKey, u32)> = Vec::new();
        // Keys drawn earlier in this same batch (defensive: the compiler
        // never emits duplicates, but aliasing an id would corrupt state).
        let mut batch: BTreeMap<&FecKey, u32> = BTreeMap::new();
        for key in wanted {
            let off = if let Some(&off) = self.keys.get(key).or_else(|| batch.get(key)) {
                off
            } else {
                let off = draft.draw(self)?;
                batch.insert(key, off);
                new_keys.push((key.clone(), off));
                off
            };
            triples.push(self.triple(off));
        }
        Ok(draft.into_reservation(self, triples, new_keys))
    }

    fn triple(&self, off: u32) -> (FecId, Ipv4Addr, MacAddr) {
        (
            FecId(off),
            self.pool.addr().saturating_add(off),
            MacAddr::vmac(off),
        )
    }

    /// Applies a reservation: consumes the freshly drawn ids as if they
    /// had been handed out by [`try_allocate`](Self::try_allocate) one at
    /// a time, and installs the key mappings of a keyed reservation.
    ///
    /// # Panics
    /// Panics if the allocator was mutated since the reservation was taken
    /// — committing a stale reservation would double-allocate ids.
    pub fn commit(&mut self, r: &VnhReservation) {
        assert_eq!(
            (r.base_next, r.base_free_len),
            (self.next, self.free.len()),
            "commit of a stale VNH reservation"
        );
        self.free.truncate(self.free.len() - r.drawn_from_free);
        self.next += r.drawn_sequential;
        for (key, off) in &r.new_keys {
            let prev = self.keys.insert(key.clone(), *off);
            debug_assert!(prev.is_none(), "keyed commit over a live key");
            self.ids.insert(*off, key.clone());
        }
    }

    /// Returns an id to the pool for reuse, forgetting any key it was
    /// mapped under (so the key allocates fresh if it ever reappears).
    pub fn release(&mut self, id: FecId) {
        if let Some(key) = self.ids.remove(&id.0) {
            self.keys.remove(&key);
        }
        self.free.push(id.0);
    }

    /// The id currently mapped to `key`, if any — lets the controller
    /// compute which previously live keys a recompilation retired.
    pub fn id_of_key(&self, key: &FecKey) -> Option<FecId> {
        self.keys.get(key).copied().map(FecId)
    }

    /// Number of live key↦id mappings.
    pub fn keyed_len(&self) -> usize {
        self.keys.len()
    }

    /// The VNH address for an id (deterministic; no allocation).
    pub fn vnh_of(&self, id: FecId) -> Ipv4Addr {
        self.pool.addr().saturating_add(id.0)
    }

    /// True if `addr` lies in the VNH pool (i.e. is a virtual next hop).
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        self.pool.contains(addr)
    }
}

impl Default for VnhAllocator {
    fn default() -> Self {
        VnhAllocator::new(Self::default_pool())
    }
}

/// Pure draw bookkeeping while a reservation is being computed: a shadow
/// frontier and a shadow free-list cursor, nothing mutated.
struct Draft {
    next: u32,
    free_remaining: usize,
}

impl Draft {
    fn new(a: &VnhAllocator) -> Self {
        Draft {
            next: a.next,
            free_remaining: a.free.len(),
        }
    }

    fn draw(&mut self, a: &VnhAllocator) -> Result<u32, SdxError> {
        if self.free_remaining > 0 {
            self.free_remaining -= 1;
            return Ok(a.free[self.free_remaining]);
        }
        let off = self.next;
        if off >= a.limit {
            return Err(SdxError::VnhExhausted { pool: a.pool });
        }
        self.next += 1;
        Ok(off)
    }

    fn into_reservation(
        self,
        a: &VnhAllocator,
        triples: Vec<(FecId, Ipv4Addr, MacAddr)>,
        new_keys: Vec<(FecKey, u32)>,
    ) -> VnhReservation {
        VnhReservation {
            triples,
            new_keys,
            drawn_from_free: a.free.len() - self.free_remaining,
            drawn_sequential: self.next - a.next,
            base_next: a.next,
            base_free_len: a.free.len(),
        }
    }
}

/// A batch of tentatively allocated `(FecId, VNH, VMAC)` triples — the
/// read-only half of the reservation-then-commit split (see
/// [`VnhAllocator::reserve_keyed`]). Dropping a reservation without
/// committing leaves the allocator untouched.
#[derive(Clone, Debug)]
pub struct VnhReservation {
    triples: Vec<(FecId, Ipv4Addr, MacAddr)>,
    /// Keys not previously mapped, paired with the fresh id each drew.
    /// Empty for un-keyed reservations. Installed on commit.
    new_keys: Vec<(FecKey, u32)>,
    /// How many of the fresh ids came off the free list. Explicit (rather
    /// than recomputed at commit) because a keyed reservation's reused ids
    /// consume nothing at all.
    drawn_from_free: usize,
    /// How many fresh ids advanced the sequential frontier.
    drawn_sequential: u32,
    /// The allocator state the reservation was computed against (the
    /// staleness check at commit).
    base_next: u32,
    base_free_len: usize,
}

impl VnhReservation {
    /// The reserved triples, in the order `try_allocate` would have
    /// produced them.
    pub fn triples(&self) -> &[(FecId, Ipv4Addr, MacAddr)] {
        &self.triples
    }

    /// Number of reserved triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True when nothing was reserved.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Number of triples that are *fresh* draws (not key reuse).
    pub fn fresh_len(&self) -> usize {
        self.drawn_from_free + self.drawn_sequential as usize
    }

    /// Number of triples reusing an id their key already held — the
    /// churn-stability figure of merit.
    pub fn reused_len(&self) -> usize {
        self.triples.len() - self.fresh_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdx_net::{ip, prefix};

    #[test]
    fn allocates_distinct_triples() {
        let mut a = VnhAllocator::default();
        let (i1, v1, m1) = a.allocate();
        let (i2, v2, m2) = a.allocate();
        assert_ne!(i1, i2);
        assert_ne!(v1, v2);
        assert_ne!(m1, m2);
        assert_eq!(m1.fec_id(), Some(i1.0));
        assert!(a.contains(v1) && a.contains(v2));
        assert_eq!(a.vnh_of(i1), v1);
    }

    #[test]
    fn network_address_is_skipped() {
        let mut a = VnhAllocator::default();
        let (_, v, _) = a.allocate();
        assert_ne!(v, VnhAllocator::default_pool().addr());
        assert_eq!(v, ip("172.16.128.1"));
    }

    #[test]
    fn release_recycles() {
        let mut a = VnhAllocator::default();
        let (i1, v1, _) = a.allocate();
        a.allocate();
        a.release(i1);
        let (i3, v3, _) = a.allocate();
        assert_eq!(i3, i1);
        assert_eq!(v3, v1);
    }

    #[test]
    fn remaining_counts_down() {
        let mut a = VnhAllocator::new(prefix("10.0.0.0/29")); // 8 addresses
        assert_eq!(a.remaining(), 7); // offset 0 excluded
        a.allocate();
        assert_eq!(a.remaining(), 6);
        let (id, _, _) = a.allocate();
        a.release(id);
        assert_eq!(a.remaining(), 6);
    }

    #[test]
    fn try_allocate_reports_typed_exhaustion_and_recovers() {
        let mut a = VnhAllocator::new(prefix("10.0.0.0/31")); // 2 addresses
        let (id, _, _) = a.try_allocate().expect("first id fits");
        assert!(matches!(
            a.try_allocate(),
            Err(SdxError::VnhExhausted { .. })
        ));
        a.release(id);
        assert!(a.try_allocate().is_ok(), "released ids are reusable");
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhaustion_panics() {
        let mut a = VnhAllocator::new(prefix("10.0.0.0/31")); // 2 addresses
        a.allocate(); // offset 1 — ok
        a.allocate(); // offset 2 ≥ size 2 — panics
    }

    fn key(viewer: u32, pfx: &str, nh: u32) -> FecKey {
        FecKey {
            viewer: sdx_net::ParticipantId(viewer),
            prefixes: vec![prefix(pfx)],
            default_next_hop: Some(sdx_net::ParticipantId(nh)),
        }
    }

    #[test]
    fn keyed_reuse_is_stable_across_recompiles() {
        let mut a = VnhAllocator::default();
        let ks = vec![key(1, "10.0.0.0/8", 2), key(1, "20.0.0.0/8", 3)];
        let r1 = a.reserve_keyed(&ks).unwrap();
        assert_eq!(r1.fresh_len(), 2);
        assert_eq!(r1.reused_len(), 0);
        let first: Vec<_> = r1.triples().to_vec();
        a.commit(&r1);
        assert_eq!(a.keyed_len(), 2);
        // Recompile with the same keys, plus one new group in the middle.
        let ks2 = vec![
            key(1, "10.0.0.0/8", 2),
            key(2, "10.0.0.0/8", 3),
            key(1, "20.0.0.0/8", 3),
        ];
        let r2 = a.reserve_keyed(&ks2).unwrap();
        assert_eq!(r2.reused_len(), 2);
        assert_eq!(r2.fresh_len(), 1);
        assert_eq!(r2.triples()[0], first[0], "unchanged key keeps VNH+VMAC");
        assert_eq!(r2.triples()[2], first[1]);
        a.commit(&r2);
        assert_eq!(a.keyed_len(), 3);
        assert_eq!(a.id_of_key(&ks[0]), Some(first[0].0));
    }

    #[test]
    fn keyed_reservation_abort_leaves_allocator_identical() {
        let mut a = VnhAllocator::default();
        a.commit(&a.reserve_keyed(&[key(1, "10.0.0.0/8", 2)]).unwrap());
        let before = format!("{a:?}");
        let r = a
            .reserve_keyed(&[key(1, "10.0.0.0/8", 2), key(9, "90.0.0.0/8", 1)])
            .unwrap();
        drop(r); // compile aborted — e.g. an injected VnhAlloc fault
        assert_eq!(
            format!("{a:?}"),
            before,
            "abort costs nothing, maps included"
        );
    }

    #[test]
    fn release_unmaps_key_so_reappearance_allocates_fresh_mapping() {
        let mut a = VnhAllocator::default();
        let k = key(1, "10.0.0.0/8", 2);
        let r = a.reserve_keyed(std::slice::from_ref(&k)).unwrap();
        let id = r.triples()[0].0;
        a.commit(&r);
        assert_eq!(a.id_of_key(&k), Some(id));
        a.release(id);
        assert_eq!(a.keyed_len(), 0);
        assert_eq!(a.id_of_key(&k), None);
        // The key coming back draws from the free list — which happens to
        // hand the same id back (LIFO), but through a fresh mapping.
        let r2 = a.reserve_keyed(std::slice::from_ref(&k)).unwrap();
        assert_eq!(r2.fresh_len(), 1);
        assert_eq!(r2.triples()[0].0, id);
    }

    #[test]
    fn keyed_pure_reuse_consumes_nothing() {
        let mut a = VnhAllocator::new(prefix("10.0.0.0/29")); // 7 usable
        let ks = vec![key(1, "10.0.0.0/8", 2)];
        a.commit(&a.reserve_keyed(&ks).unwrap());
        let remaining = a.remaining();
        // Recompiling the identical workload forever never drains the pool.
        for _ in 0..20 {
            let r = a.reserve_keyed(&ks).unwrap();
            assert_eq!(r.fresh_len(), 0);
            a.commit(&r);
        }
        assert_eq!(a.remaining(), remaining);
    }

    #[test]
    fn duplicate_keys_in_one_batch_share_one_id() {
        let a = VnhAllocator::default();
        let k = key(1, "10.0.0.0/8", 2);
        let r = a.reserve_keyed(&[k.clone(), k]).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.fresh_len(), 1);
        assert_eq!(r.triples()[0], r.triples()[1]);
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn keyed_commit_rejects_stale_reservation() {
        let mut a = VnhAllocator::default();
        let r = a.reserve_keyed(&[key(1, "10.0.0.0/8", 2)]).unwrap();
        a.allocate();
        a.commit(&r);
    }

    #[test]
    fn keyed_exhaustion_is_typed_and_pure() {
        let mut a = VnhAllocator::new(prefix("10.0.0.0/31")); // 1 usable
        a.commit(&a.reserve_keyed(&[key(1, "10.0.0.0/8", 2)]).unwrap());
        // Reusing the live key still fits; adding a second group does not.
        assert!(a.reserve_keyed(&[key(1, "10.0.0.0/8", 2)]).is_ok());
        assert!(matches!(
            a.reserve_keyed(&[key(1, "10.0.0.0/8", 2), key(2, "20.0.0.0/8", 1)]),
            Err(SdxError::VnhExhausted { .. })
        ));
        assert_eq!(a.keyed_len(), 1, "failed reservation mutated nothing");
    }

    #[test]
    fn pool_membership() {
        let a = VnhAllocator::default();
        assert!(a.contains(ip("172.16.200.5")));
        assert!(!a.contains(ip("172.16.0.5")));
        assert!(!a.contains(ip("10.0.0.1")));
    }
}
