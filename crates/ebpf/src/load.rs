//! The program-load cache: one entry per program *shape*.
//!
//! A kernel verifies a program image once at load, not once per
//! sandbox restore, and SnapBPF reloads an identical prefetch program
//! (modulo fresh map ids) on every cold start. Verification and
//! optimization are pure functions of the program's shape: its image
//! in slot form (each map reference holding its map's slot among the
//! program's distinct maps, numbered by first occurrence; see
//! [`VerifiedProgram`]), the definition of each slot's map, and the
//! kfunc signature table. One entry per shape holds everything a load
//! computes — the image to attach with its [`OptStats`], or the fact
//! that the optimized image failed re-verification — so a load that
//! hits it does no analysis at all.
//!
//! [`LoadCache::load`] hashes the incoming program's shape in one
//! streaming pass, converting each instruction to slot form as it
//! goes, and compares it exactly, in place, against the entries with
//! that hash; only a miss materializes the shape. Every attach of a
//! shape shares the entry's image and owns only its slot-to-map table,
//! so a hit copies no instructions either.
//!
//! Keys are compared exactly, never by hash alone, so a collision can
//! never smuggle an unverified program past the verifier. Failed
//! verifications are never cached.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;

use snapbpf_sim::WordState;

use crate::insn::Insn;
use crate::map::{MapDef, MapId, MapSet};
use crate::opt::{OptStats, PassManager};
use crate::program::{slotted, Program};
use crate::verify::{KfuncSig, VerifiedProgram, Verifier, VerifierStats, VerifyError};

/// The exact structural shape of a program as the loader sees it (see
/// the module docs). The program's name and its concrete [`MapId`]s
/// are not part of it. Two programs with equal shapes verify and
/// optimize identically, up to renaming their maps.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Shape {
    kfuncs: Box<[KfuncSig]>,
    /// The image in slot form.
    insns: Arc<[Insn]>,
    /// The definition of each slot's map.
    defs: Box<[MapDef]>,
}

impl Shape {
    /// Whether `program`, whose distinct maps in slot order are
    /// `order`, has this shape against `maps` and `kfuncs`.
    fn matches(
        &self,
        program: &Program,
        order: &mut Vec<MapId>,
        maps: &MapSet,
        kfuncs: &[KfuncSig],
    ) -> bool {
        *self.kfuncs == *kfuncs
            && self.insns.len() == program.len()
            && self.defs.len() == order.len()
            && self
                .defs
                .iter()
                .zip(order.iter())
                .all(|(def, &map)| maps.def(map).ok() == Some(*def))
            && self
                .insns
                .iter()
                .zip(program.insns())
                .all(|(&slot_insn, &insn)| slot_insn == slotted(insn, order))
    }
}

/// The hash of `program`'s shape against `maps` and `kfuncs`, filling
/// `order` with the program's distinct maps in slot order; `None`
/// when it references a map `maps` does not hold. Equal shapes hash
/// equally.
fn shape_hash(
    program: &Program,
    maps: &MapSet,
    kfuncs: &[KfuncSig],
    order: &mut Vec<MapId>,
) -> Option<u64> {
    let mut h = WordState::default().build_hasher();
    kfuncs.hash(&mut h);
    for &insn in program.insns() {
        let seen = order.len();
        slotted(insn, order).hash(&mut h);
        if let Some(&map) = order.get(seen) {
            maps.def(map).ok()?.hash(&mut h);
        }
    }
    Some(h.finish())
}

/// `optimized`'s image with its slots renumbered to index `maps`, the
/// original program's slot table, so it resolves through any table
/// of the original's shape.
fn renumbered(optimized: &VerifiedProgram, maps: &[MapId]) -> Arc<[Insn]> {
    if optimized.maps() == maps {
        return Arc::clone(optimized.image());
    }
    let mut order = maps.to_vec();
    let image = optimized
        .resolved()
        .into_iter()
        .map(|insn| slotted(insn, &mut order))
        .collect();
    assert_eq!(
        order.len(),
        maps.len(),
        "the optimizer only keeps or drops the program's map references"
    );
    image
}

/// One shape and everything its first load computed.
#[derive(Debug, Clone)]
struct ShapeEntry {
    shape: Shape,
    /// The image every load of the shape attaches, in slot form: the
    /// optimized image, or the shape's own when the optimized one
    /// failed re-verification.
    image: Arc<[Insn]>,
    stats: OptStats,
    reverify_rejected: bool,
}

/// What one [`LoadCache::load`] attached and what the kernel reports
/// about it.
#[derive(Debug)]
pub struct Loaded {
    /// The image to attach: the optimized one when it re-verified,
    /// the original otherwise.
    pub attached: VerifiedProgram,
    /// The statistics of the verifier's walk of the original image;
    /// empty on a cache hit, which walks nothing.
    pub verifier: VerifierStats,
    /// The optimizer's statistics for the program's shape.
    pub opt: OptStats,
    /// The shape was cached: neither the verifier nor the optimizer
    /// ran.
    pub cache_hit: bool,
    /// The optimized image failed re-verification, so the original
    /// image is attached.
    pub reverify_rejected: bool,
}

/// The shape-keyed memo of program loads (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct LoadCache {
    /// Entries by shape hash; a bucket holds more than one entry only
    /// when distinct shapes collide.
    shapes: HashMap<u64, Vec<ShapeEntry>, WordState>,
}

impl LoadCache {
    /// Loads `program` against `maps` and `kfuncs`: verifies it,
    /// optimizes it and re-verifies the optimized image, or replays
    /// all three from the entry of its shape, resolved through
    /// `program`'s maps. The re-verification reports nothing, so the
    /// optimizer never changes what the verifier reports about the
    /// program the author wrote. A program whose maps do not resolve
    /// has no shape and is loaded uncached.
    ///
    /// # Errors
    ///
    /// Returns the first [`VerifyError`] found on any path of the
    /// original image.
    pub fn load(
        &mut self,
        program: &Program,
        maps: &MapSet,
        kfuncs: &[KfuncSig],
    ) -> Result<Loaded, VerifyError> {
        let mut order = Vec::new();
        let hash = shape_hash(program, maps, kfuncs, &mut order);
        if let Some(entry) = hash
            .and_then(|hash| self.shapes.get(&hash))
            .and_then(|bucket| {
                bucket
                    .iter()
                    .find(|e| e.shape.matches(program, &mut order, maps, kfuncs))
            })
        {
            return Ok(Loaded {
                attached: VerifiedProgram::proven(
                    Arc::clone(&entry.image),
                    order.into_boxed_slice(),
                    VerifierStats::default(),
                ),
                verifier: VerifierStats::default(),
                opt: entry.stats.clone(),
                cache_hit: true,
                reverify_rejected: entry.reverify_rejected,
            });
        }
        let verifier = Verifier::new(maps, kfuncs);
        let verified = verifier.verify(program)?;
        let (optimized, stats) = PassManager::new().optimize(program, maps, kfuncs);
        let reverified = verifier.verify(&optimized).ok();
        let reverify_rejected = reverified.is_none();
        let (image, attach_stats) = match &reverified {
            Some(r) => (renumbered(r, verified.maps()), r.stats().clone()),
            None => (Arc::clone(verified.image()), verified.stats().clone()),
        };
        if let Some(hash) = hash {
            let defs = order
                .iter()
                .map(|&map| maps.def(map).expect("the shape hash resolved every map"))
                .collect();
            self.shapes.entry(hash).or_default().push(ShapeEntry {
                shape: Shape {
                    kfuncs: kfuncs.into(),
                    insns: Arc::clone(verified.image()),
                    defs,
                },
                image: Arc::clone(&image),
                stats: stats.clone(),
                reverify_rejected,
            });
        }
        Ok(Loaded {
            attached: VerifiedProgram::proven(image, verified.maps().into(), attach_stats),
            verifier: verified.stats().clone(),
            opt: stats,
            cache_hit: false,
            reverify_rejected,
        })
    }

    /// How many shapes the cache holds.
    #[cfg(test)]
    fn shape_count(&self) -> usize {
        self.shapes.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{AccessSize, HelperId, JmpCond, Reg};
    use crate::map::MapKind;
    use crate::program::{slot_form, ProgramBuilder};
    use crate::verify::VerifyErrorKind;

    const KFUNCS: &[KfuncSig] = &[KfuncSig {
        name: "snapbpf_prefetch",
        args: 3,
    }];

    /// A null-checked lookup of slot `key` in `m` that bumps the value
    /// in a four-trip loop — the kind of program SnapBPF reloads with
    /// fresh map ids on every restore.
    fn lookup_program(name: &str, m: MapId, key: i64) -> Program {
        let mut b = ProgramBuilder::new(name);
        let out = b.label();
        let top = b.label();
        b.store_imm(Reg::R10, -4, key, AccessSize::B4)
            .load_map(Reg::R1, m)
            .mov(Reg::R2, Reg::R10)
            .add(Reg::R2, -4)
            .call(HelperId::MapLookup)
            .mov(Reg::R6, Reg::R0)
            .jump_if(JmpCond::Eq, Reg::R6, 0i64, out)
            .mov(Reg::R7, 0)
            .bind(top)
            .unwrap()
            .load(Reg::R8, Reg::R6, 0, AccessSize::B8)
            .add(Reg::R8, 1)
            .store(Reg::R6, 0, Reg::R8, AccessSize::B8)
            .add(Reg::R7, 1)
            .jump_if(JmpCond::Lt, Reg::R7, 4i64, top)
            .bind(out)
            .unwrap()
            .mov(Reg::R0, 0)
            .exit();
        b.build().unwrap()
    }

    /// The shape of `program` with its hash.
    fn key(program: &Program, maps: &MapSet, kfuncs: &[KfuncSig]) -> (u64, Shape) {
        let mut order = Vec::new();
        let hash = shape_hash(program, maps, kfuncs, &mut order).expect("maps resolve");
        let (insns, slots) = slot_form(program.insns());
        assert_eq!(*slots, *order, "the hash pass numbers maps like slot_form");
        let defs = slots.iter().map(|&m| maps.def(m).unwrap()).collect();
        let shape = Shape {
            kfuncs: kfuncs.into(),
            insns,
            defs,
        };
        assert!(shape.matches(program, &mut order, maps, kfuncs));
        (hash, shape)
    }

    #[test]
    fn cache_skips_reverification_of_identical_shapes() {
        let mut maps = MapSet::new();
        let a = maps.create(MapDef::array(8, 16)).unwrap();
        let b = maps.create(MapDef::array(8, 16)).unwrap();
        let mut cache = LoadCache::default();

        let first = cache.load(&lookup_program("p1", a, 0), &maps, &[]).unwrap();
        assert!(first.verifier.states_explored > 0, "first load walks");
        assert!(!first.cache_hit);
        assert_eq!(cache.shape_count(), 1);

        // Different map id, identical definition: verifier-equivalent.
        let second = cache.load(&lookup_program("p2", b, 0), &maps, &[]).unwrap();
        assert_eq!(
            second.verifier,
            VerifierStats::default(),
            "cache hit does no work"
        );
        assert!(second.cache_hit);
        assert_eq!(cache.shape_count(), 1);
    }

    #[test]
    fn cache_distinguishes_map_shapes() {
        let mut maps = MapSet::new();
        let small = maps.create(MapDef::array(8, 16)).unwrap();
        let big = maps.create(MapDef::array(8, 1024)).unwrap();
        let mut cache = LoadCache::default();
        for m in [small, big] {
            let loaded = cache.load(&lookup_program("p", m, 0), &maps, &[]).unwrap();
            assert!(loaded.verifier.states_explored > 0);
            assert!(
                !loaded.cache_hit,
                "different max_entries is a different shape"
            );
        }
        assert_eq!(cache.shape_count(), 2);
    }

    #[test]
    fn cache_never_stores_failures() {
        let mut maps = MapSet::new();
        let m = maps.create(MapDef::array(8, 16)).unwrap();
        let mut b = ProgramBuilder::new("bad");
        b.store_imm(Reg::R10, -4, 0, AccessSize::B4)
            .load_map(Reg::R1, m)
            .mov(Reg::R2, Reg::R10)
            .add(Reg::R2, -4)
            .call(HelperId::MapLookup)
            // Missing null check.
            .load(Reg::R0, Reg::R0, 0, AccessSize::B8)
            .exit();
        let prog = b.build().unwrap();
        let mut cache = LoadCache::default();
        for _ in 0..2 {
            assert!(matches!(
                cache.load(&prog, &maps, &[]).unwrap_err().kind,
                VerifyErrorKind::PossiblyNull(_)
            ));
        }
        assert_eq!(cache.shape_count(), 0);
    }

    #[test]
    fn keys_differ_in_every_shape_dimension() {
        let mut maps = MapSet::new();
        let base = maps.create(MapDef::array(8, 16)).unwrap();
        let more_entries = maps.create(MapDef::array(8, 17)).unwrap();
        let other_kind = maps.create(MapDef::percpu_array(8, 16)).unwrap();
        let wider_value = maps.create(MapDef::array(16, 16)).unwrap();
        let (_, reference) = key(&lookup_program("p", base, 0), &maps, KFUNCS);
        assert_eq!(maps.def(other_kind).unwrap().kind, MapKind::PerCpuArray);
        for (what, m, imm, kfuncs) in [
            ("max_entries", more_entries, 0, KFUNCS),
            ("map kind", other_kind, 0, KFUNCS),
            ("value size", wider_value, 0, KFUNCS),
            ("kfunc table", base, 0, &[][..]),
            ("one immediate", base, 1, KFUNCS),
        ] {
            let (_, other) = key(&lookup_program("p", m, imm), &maps, kfuncs);
            assert_ne!(reference, other, "{what} must change the shape");
        }
        let renamed = KfuncSig {
            name: "other",
            args: 3,
        };
        let (_, other) = key(&lookup_program("p", base, 0), &maps, &[renamed]);
        assert_ne!(reference, other, "kfunc names are part of the shape");
    }

    #[test]
    fn distinct_shapes_never_share_an_entry() {
        let mut maps = MapSet::new();
        let ms = [
            maps.create(MapDef::array(8, 16)).unwrap(),
            maps.create(MapDef::array(8, 17)).unwrap(),
            maps.create(MapDef::percpu_array(8, 16)).unwrap(),
            maps.create(MapDef::array(16, 16)).unwrap(),
        ];
        let mut cache = LoadCache::default();
        let mut hit =
            |p: &Program, kfuncs: &[KfuncSig]| cache.load(p, &maps, kfuncs).unwrap().cache_hit;
        for m in ms {
            assert!(!hit(&lookup_program("p", m, 0), KFUNCS));
        }
        assert!(!hit(&lookup_program("p", ms[0], 0), &[]));
        assert!(!hit(&lookup_program("p", ms[0], 1), KFUNCS));
        assert!(hit(&lookup_program("p", ms[0], 0), KFUNCS));
    }

    #[test]
    fn same_shape_with_fresh_map_ids_rebases_onto_the_callers_maps() {
        let mut maps = MapSet::new();
        let a = maps.create(MapDef::array(8, 16)).unwrap();
        let b = maps.create(MapDef::array(8, 16)).unwrap();
        let mut cache = LoadCache::default();
        let miss = cache
            .load(&lookup_program("p1", a, 0), &maps, KFUNCS)
            .unwrap();
        let hit = cache
            .load(&lookup_program("p2", b, 0), &maps, KFUNCS)
            .unwrap();
        assert!(!miss.cache_hit && hit.cache_hit);
        assert_eq!(miss.opt, hit.opt);
        assert!(!hit.reverify_rejected);
        assert_eq!(miss.attached.maps(), [a]);
        assert_eq!(
            hit.attached.maps(),
            [b],
            "the hit resolves to the caller's map"
        );
        // Identical image up to the map id.
        let renamed: Vec<Insn> = miss
            .attached
            .resolved()
            .into_iter()
            .map(|insn| match insn {
                Insn::LoadMapRef { dst, map } => {
                    assert_eq!(map, a);
                    Insn::LoadMapRef { dst, map: b }
                }
                other => other,
            })
            .collect();
        assert_eq!(hit.attached.resolved(), renamed);
        let stats = |loaded: &Loaded| {
            let program = Program::from_raw("p".into(), loaded.attached.resolved());
            Verifier::new(&maps, KFUNCS)
                .verify(&program)
                .map(|v| v.stats().clone())
        };
        assert_eq!(stats(&hit), stats(&miss));
    }

    #[test]
    fn hits_of_one_shape_share_one_image() {
        let mut maps = MapSet::new();
        let ms: Vec<MapId> = (0..3)
            .map(|_| maps.create(MapDef::array(8, 16)).unwrap())
            .collect();
        let mut cache = LoadCache::default();
        let loads: Vec<Loaded> = ms
            .iter()
            .map(|&m| {
                cache
                    .load(&lookup_program("p", m, 0), &maps, KFUNCS)
                    .unwrap()
            })
            .collect();
        assert!(!loads[0].cache_hit && loads[1].cache_hit && loads[2].cache_hit);
        for loaded in &loads[1..] {
            assert!(Arc::ptr_eq(
                loaded.attached.image(),
                loads[0].attached.image()
            ));
        }
    }

    #[test]
    fn a_hit_and_a_miss_of_one_shape_leave_identical_maps() {
        use crate::interp::{Interpreter, NoKfuncs};
        use crate::telemetry::telemetry_ring_def;

        // Two copies of one map layout: a counter array and a ring.
        let mut maps = MapSet::new();
        let layout = |maps: &mut MapSet| {
            let counts = maps.create(MapDef::array(8, 16)).unwrap();
            let ring = maps.create(telemetry_ring_def()).unwrap();
            (counts, ring)
        };
        let first = layout(&mut maps);
        let second = layout(&mut maps);
        let program = |(counts, ring): (MapId, MapId)| {
            let mut b = ProgramBuilder::new("count_and_report");
            let out = b.label();
            b.store_imm(Reg::R10, -4, 3, AccessSize::B4)
                .load_map(Reg::R1, counts)
                .mov(Reg::R2, Reg::R10)
                .add(Reg::R2, -4)
                .call(HelperId::MapLookup)
                .jump_if(JmpCond::Eq, Reg::R0, 0i64, out)
                .load(Reg::R6, Reg::R0, 0, AccessSize::B8)
                .add(Reg::R6, 7)
                .store(Reg::R0, 0, Reg::R6, AccessSize::B8)
                .store(Reg::R10, -16, Reg::R6, AccessSize::B8)
                .load_map(Reg::R1, ring)
                .mov(Reg::R2, Reg::R10)
                .add(Reg::R2, -16)
                .mov(Reg::R3, 8)
                .mov(Reg::R4, 0)
                .call(HelperId::RingbufOutput)
                .bind(out)
                .unwrap()
                .mov(Reg::R0, 0)
                .exit();
            b.build().unwrap()
        };
        let mut cache = LoadCache::default();
        let miss = cache.load(&program(first), &maps, &[]).unwrap();
        let hit = cache.load(&program(second), &maps, &[]).unwrap();
        assert!(!miss.cache_hit && hit.cache_hit);
        for _ in 0..2 {
            for loaded in [&miss, &hit] {
                Interpreter::new()
                    .run(&loaded.attached, &[], &mut maps, &mut NoKfuncs)
                    .unwrap();
            }
        }
        let counts = maps.values_mut(first.0).unwrap().to_vec();
        assert_eq!(maps.values_mut(second.0).unwrap(), counts);
        let drain = |maps: &mut MapSet, ring| {
            std::iter::from_fn(|| maps.ring_pop(ring).unwrap()).collect::<Vec<_>>()
        };
        let records = drain(&mut maps, first.1);
        assert_eq!(records.len(), 2, "each run reported once");
        assert_eq!(records, drain(&mut maps, second.1));
        assert_eq!(maps.array_load_u64(first.0, 3).unwrap(), 14);
    }

    #[test]
    fn a_cached_reverify_rejection_shares_the_original_image() {
        let mut maps = MapSet::new();
        let a = maps.create(MapDef::array(8, 16)).unwrap();
        let b = maps.create(MapDef::array(8, 16)).unwrap();
        let p = lookup_program("p", a, 0);
        let (hash, shape) = key(&p, &maps, KFUNCS);
        let original = Arc::clone(&shape.insns);
        let mut cache = LoadCache::default();
        cache.shapes.entry(hash).or_default().push(ShapeEntry {
            shape,
            image: Arc::clone(&original),
            stats: OptStats::default(),
            reverify_rejected: true,
        });
        for m in [a, b, a] {
            let p = lookup_program("p", m, 0);
            let loaded = cache.load(&p, &maps, KFUNCS).unwrap();
            assert!(loaded.cache_hit && loaded.reverify_rejected);
            assert!(Arc::ptr_eq(loaded.attached.image(), &original));
            assert_eq!(loaded.attached.resolved(), p.insns());
        }
    }

    #[test]
    fn differently_aliased_maps_are_different_shapes() {
        let mut maps = MapSet::new();
        let a = maps.create(MapDef::array(8, 16)).unwrap();
        let b = maps.create(MapDef::array(8, 16)).unwrap();
        let two = |m1: MapId, m2: MapId| {
            let mut p = ProgramBuilder::new("two");
            p.load_map(Reg::R1, m1)
                .load_map(Reg::R2, m2)
                .mov(Reg::R0, 0)
                .exit();
            p.build().unwrap()
        };
        assert_ne!(key(&two(a, a), &maps, &[]).1, key(&two(a, b), &maps, &[]).1);
        assert_eq!(key(&two(a, b), &maps, &[]), key(&two(b, a), &maps, &[]));
    }

    #[test]
    fn unresolved_maps_have_no_shape() {
        let maps = MapSet::new();
        let p = lookup_program("p", MapId::from_raw(3), 0);
        assert!(shape_hash(&p, &maps, &[], &mut Vec::new()).is_none());
        let mut cache = LoadCache::default();
        assert!(cache.load(&p, &maps, &[]).is_err());
        assert_eq!(cache.shape_count(), 0);
    }
}
