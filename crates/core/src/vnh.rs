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
//! [`FecKey`] each id was last assigned to: a *keyed* assignment
//! ([`VnhAllocator::assign_keyed`]) hands the **same** id — hence the
//! same VNH and VMAC — back to any group whose content-addressed key is
//! unchanged since the previous compilation, so a recompile only re-labels
//! the equivalence classes that actually changed (§4.3.2's minimal-update
//! goal applied to the VNH layer).
//!
//! A transaction protects the allocator the way it protects everything
//! else it writes: while a journal is open
//! ([`open_journal`](VnhAllocator::open_journal)), each write — a draw, a
//! key mapped, a release — keeps the record that reverses it, and
//! [`rollback_journal`](VnhAllocator::rollback_journal) replays them
//! backwards. Opening one copies nothing.

use std::collections::{BTreeMap, BTreeSet};

use sdx_net::{Ipv4Addr, MacAddr, Prefix};

use crate::error::SdxError;
use crate::fec::{FecId, FecKey};

/// An id with its virtual next hop and virtual MAC.
type Triple = (FecId, Ipv4Addr, MacAddr);

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
    /// What reverses each write since [`open_journal`](Self::open_journal),
    /// oldest first; `None` while no transaction has it open.
    journal: Option<Vec<Step>>,
}

/// One allocator write, as what it takes to reverse it.
#[derive(Clone, Debug)]
enum Step {
    /// This offset was popped off the free list.
    Popped(u32),
    /// The frontier advanced by one.
    Advanced,
    /// An offset was pushed onto the free list.
    Pushed,
    /// This offset was mapped under a key.
    Mapped(u32),
    /// This offset was unmapped from this key.
    Unmapped(u32, FecKey),
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
            journal: None,
        }
    }

    /// Number of VNHs currently allocatable without exhausting the pool.
    pub fn remaining(&self) -> u64 {
        u64::from(self.limit.saturating_sub(self.next)) + self.free.len() as u64
    }

    /// Allocates a fresh id/VNH/VMAC triple, or reports pool exhaustion as
    /// a typed error. The controller's transactional paths use this so a
    /// dry pool rolls back cleanly instead of tearing the process down.
    pub fn try_allocate(&mut self) -> Result<Triple, SdxError> {
        self.draw().map(|off| self.triple(off))
    }

    /// Allocates a fresh id/VNH/VMAC triple.
    ///
    /// # Panics
    /// Panics if the pool is exhausted — a configuration error (pool too
    /// small for the workload), not a runtime condition to limp past.
    /// Recoverable callers use [`try_allocate`](Self::try_allocate).
    pub fn allocate(&mut self) -> Triple {
        match self.try_allocate() {
            Ok(triple) => triple,
            Err(_) => panic!("VNH pool {} exhausted", self.pool),
        }
    }

    /// One triple per key, in order: the id a key is already mapped to, or
    /// — for a key never seen before — a fresh id (free-list LIFO, then
    /// sequential, exactly like [`try_allocate`](Self::try_allocate)),
    /// which the key is then mapped to. A key repeated in `wanted` shares
    /// its first occurrence's id. The distinct unmapped keys are counted
    /// against [`remaining`](Self::remaining) first, so an exhausted pool
    /// is reported before anything is written.
    ///
    /// This is what makes re-optimization churn-stable: an unchanged FEC
    /// group (same viewer, same member prefixes, same best next hop) keeps
    /// its exact VNH and VMAC across recompilations, so neither its flow
    /// rules, its ARP binding, nor its FIB advertisements need to move.
    pub fn assign_keyed<'k>(
        &mut self,
        wanted: impl IntoIterator<Item = &'k FecKey>,
    ) -> Result<VnhAssignment, SdxError> {
        let held: Vec<(&FecKey, Option<u32>)> = (wanted.into_iter())
            .map(|key| (key, self.keys.get(key).copied()))
            .collect();
        let unmapped: BTreeSet<&FecKey> = (held.iter())
            .filter(|(_, off)| off.is_none())
            .map(|&(key, _)| key)
            .collect();
        if unmapped.len() as u64 > self.remaining() {
            return Err(SdxError::VnhExhausted { pool: self.pool });
        }
        let mut triples = Vec::with_capacity(held.len());
        for (key, held) in held {
            // A key unmapped above may have been drawn earlier in this batch.
            let off = match held.or_else(|| self.keys.get(key).copied()) {
                Some(off) => off,
                None => {
                    let off = self.draw()?;
                    self.keys.insert(key.clone(), off);
                    self.ids.insert(off, key.clone());
                    self.record(Step::Mapped(off));
                    off
                }
            };
            triples.push(self.triple(off));
        }
        Ok(VnhAssignment {
            triples,
            fresh: unmapped.len(),
        })
    }

    /// Takes the next offset: the free list's last, else the frontier.
    fn draw(&mut self) -> Result<u32, SdxError> {
        if let Some(off) = self.free.pop() {
            self.record(Step::Popped(off));
            return Ok(off);
        }
        let off = self.next;
        if off >= self.limit {
            return Err(SdxError::VnhExhausted { pool: self.pool });
        }
        self.next += 1;
        self.record(Step::Advanced);
        Ok(off)
    }

    fn triple(&self, off: u32) -> Triple {
        (
            FecId(off),
            self.pool.addr().saturating_add(off),
            MacAddr::vmac(off),
        )
    }

    /// Returns an id to the pool for reuse, forgetting any key it was
    /// mapped under (so the key allocates fresh if it ever reappears).
    pub fn release(&mut self, id: FecId) {
        if let Some(key) = self.ids.remove(&id.0) {
            self.keys.remove(&key);
            self.record(Step::Unmapped(id.0, key));
        }
        self.free.push(id.0);
        self.record(Step::Pushed);
    }

    /// Starts journaling: every write from here keeps the record that
    /// reverses it, until [`close_journal`](Self::close_journal) or
    /// [`rollback_journal`](Self::rollback_journal). Copies nothing; a
    /// journal already open starts over empty.
    pub fn open_journal(&mut self) {
        self.journal = Some(Vec::new());
    }

    /// Stops journaling and keeps every write made while it was open.
    pub fn close_journal(&mut self) {
        self.journal = None;
    }

    /// Reverses every write since [`open_journal`](Self::open_journal),
    /// newest first, and stops journaling: the allocator is as it was
    /// then, key maps and free-list order included.
    pub fn rollback_journal(&mut self) {
        for step in self.journal.take().into_iter().flatten().rev() {
            match step {
                Step::Popped(off) => self.free.push(off),
                Step::Advanced => self.next -= 1,
                Step::Pushed => {
                    self.free.pop();
                }
                Step::Mapped(off) => {
                    if let Some(key) = self.ids.remove(&off) {
                        self.keys.remove(&key);
                    }
                }
                Step::Unmapped(off, key) => {
                    self.keys.insert(key.clone(), off);
                    self.ids.insert(off, key);
                }
            }
        }
    }

    fn record(&mut self, step: Step) {
        if let Some(journal) = &mut self.journal {
            journal.push(step);
        }
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

/// What [`VnhAllocator::assign_keyed`] handed out.
#[derive(Clone, Debug)]
pub struct VnhAssignment {
    /// One triple per wanted key, in the keys' order.
    pub triples: Vec<Triple>,
    /// How many of them are fresh draws; the rest reuse the id their key
    /// already held, the churn-stability figure of merit.
    pub fresh: usize,
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
        let r1 = a.assign_keyed(&ks).unwrap();
        assert_eq!((r1.triples.len(), r1.fresh), (2, 2), "nothing reused");
        let first = r1.triples;
        assert_eq!(a.keyed_len(), 2);
        // Recompile with the same keys, plus one new group in the middle.
        let ks2 = vec![
            key(1, "10.0.0.0/8", 2),
            key(2, "10.0.0.0/8", 3),
            key(1, "20.0.0.0/8", 3),
        ];
        let r2 = a.assign_keyed(&ks2).unwrap();
        assert_eq!((r2.triples.len(), r2.fresh), (3, 1), "two reused");
        assert_eq!(r2.triples[0], first[0], "unchanged key keeps VNH+VMAC");
        assert_eq!(r2.triples[2], first[1]);
        assert_eq!(a.keyed_len(), 3);
        assert_eq!(a.id_of_key(&ks[0]), Some(first[0].0));
    }

    #[test]
    fn release_unmaps_key_so_reappearance_allocates_fresh_mapping() {
        let mut a = VnhAllocator::default();
        let k = key(1, "10.0.0.0/8", 2);
        let r = a.assign_keyed(std::slice::from_ref(&k)).unwrap();
        let id = r.triples[0].0;
        assert_eq!(a.id_of_key(&k), Some(id));
        a.release(id);
        assert_eq!(a.keyed_len(), 0);
        assert_eq!(a.id_of_key(&k), None);
        // The key coming back draws from the free list — which happens to
        // hand the same id back (LIFO), but through a fresh mapping.
        let r2 = a.assign_keyed(std::slice::from_ref(&k)).unwrap();
        assert_eq!(r2.fresh, 1);
        assert_eq!(r2.triples[0].0, id);
    }

    #[test]
    fn keyed_pure_reuse_consumes_nothing() {
        let mut a = VnhAllocator::new(prefix("10.0.0.0/29")); // 7 usable
        let ks = vec![key(1, "10.0.0.0/8", 2)];
        a.assign_keyed(&ks).unwrap();
        let remaining = a.remaining();
        // Recompiling the identical workload forever never drains the pool.
        for _ in 0..20 {
            let r = a.assign_keyed(&ks).unwrap();
            assert_eq!(r.fresh, 0);
        }
        assert_eq!(a.remaining(), remaining);
    }

    #[test]
    fn duplicate_keys_in_one_batch_share_one_id() {
        let mut a = VnhAllocator::default();
        let k = key(1, "10.0.0.0/8", 2);
        let r = a.assign_keyed(&[k.clone(), k]).unwrap();
        assert_eq!(r.triples.len(), 2);
        assert_eq!(r.fresh, 1);
        assert_eq!(r.triples[0], r.triples[1]);
    }

    #[test]
    fn keyed_exhaustion_is_typed_and_pure() {
        let mut a = VnhAllocator::new(prefix("10.0.0.0/31")); // 1 usable
        a.assign_keyed(&[key(1, "10.0.0.0/8", 2)]).unwrap();
        // Reusing the live key still fits; adding a second group does not.
        assert!(a.assign_keyed(&[key(1, "10.0.0.0/8", 2)]).is_ok());
        let before = format!("{a:?}");
        assert!(matches!(
            a.assign_keyed(&[key(1, "10.0.0.0/8", 2), key(2, "20.0.0.0/8", 1)]),
            Err(SdxError::VnhExhausted { .. })
        ));
        assert_eq!(a.keyed_len(), 1, "failed assignment mutated nothing");
        assert_eq!(format!("{a:?}"), before);
    }

    #[test]
    fn pool_membership() {
        let a = VnhAllocator::default();
        assert!(a.contains(ip("172.16.200.5")));
        assert!(!a.contains(ip("172.16.0.5")));
        assert!(!a.contains(ip("10.0.0.1")));
    }
}
