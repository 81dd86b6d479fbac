//! The program-load cache: one entry per program *shape*.
//!
//! A kernel verifies a program image once at load, not once per
//! sandbox restore, and SnapBPF reloads an identical prefetch program
//! (modulo fresh map ids) on every cold start. Verification and
//! optimization are pure functions of the program's shape: the
//! instructions with each map reference replaced by the referenced
//! map's definition, plus the kfunc signature table. So
//! [`LoadCache::load`] computes that shape once, and one entry per
//! shape holds everything a load computes — the optimized image with
//! its [`OptStats`], or the fact that the image failed
//! re-verification — so a load that hits it does no analysis at all.
//!
//! Keys are compared exactly, never by hash alone, so a collision can
//! never smuggle an unverified program past the verifier. Failed
//! verifications are never cached.

use std::collections::HashMap;

use snapbpf_sim::WordState;

use crate::insn::{Insn, Reg};
use crate::map::{MapDef, MapId, MapSet};
use crate::opt::{OptStats, PassManager};
use crate::program::Program;
use crate::verify::{KfuncSig, VerifiedProgram, Verifier, VerifierStats, VerifyError};

/// One instruction of a [`ShapeKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ShapeInsn {
    /// Any instruction other than a map reference, verbatim.
    Insn(Insn),
    /// A map reference: the map's definition, and which of the
    /// program's distinct maps it is (numbered by first occurrence),
    /// so programs that alias their maps differently never share a
    /// shape.
    Map { dst: Reg, slot: u32, def: MapDef },
}

/// The exact structural shape of a program as the loader sees it:
/// every instruction, with each map reference replaced by the
/// referenced map's [`MapDef`] and its first-occurrence slot, plus
/// the kfunc signature table. The program's name and its concrete
/// [`MapId`]s are not part of it. Two programs with equal keys verify
/// and optimize identically, up to renaming their maps.
#[derive(Debug, PartialEq, Eq, Hash)]
struct ShapeKey {
    kfuncs: Vec<KfuncSig>,
    insns: Vec<ShapeInsn>,
}

impl ShapeKey {
    /// The shape of `program` against `maps` and `kfuncs`, with the
    /// program's distinct maps in slot order; `None` when it
    /// references a map `maps` does not hold.
    fn of(program: &Program, maps: &MapSet, kfuncs: &[KfuncSig]) -> Option<(ShapeKey, Vec<MapId>)> {
        let mut order: Vec<MapId> = Vec::new();
        let insns = program
            .insns()
            .iter()
            .map(|insn| match *insn {
                Insn::LoadMapRef { dst, map } => {
                    let slot = match order.iter().position(|m| *m == map) {
                        Some(slot) => slot,
                        None => {
                            order.push(map);
                            order.len() - 1
                        }
                    };
                    Some(ShapeInsn::Map {
                        dst,
                        slot: slot as u32,
                        def: maps.def(map).ok()?,
                    })
                }
                other => Some(ShapeInsn::Insn(other)),
            })
            .collect::<Option<Vec<_>>>()?;
        let key = ShapeKey {
            kfuncs: kfuncs.to_vec(),
            insns,
        };
        Some((key, order))
    }
}

/// `insns` with every map reference `m` replaced by `f(m)`.
fn remap(insns: &[Insn], f: impl Fn(MapId) -> MapId) -> Vec<Insn> {
    insns
        .iter()
        .map(|insn| match *insn {
            Insn::LoadMapRef { dst, map } => Insn::LoadMapRef { dst, map: f(map) },
            other => other,
        })
        .collect()
}

/// Everything the first load of one shape computed.
#[derive(Debug)]
struct ShapeEntry {
    /// The optimized image in slot form: each map reference holds its
    /// first-occurrence slot (`MapId::from_raw(slot)`), so it rebases
    /// onto any program of the shape. `None` when the image failed
    /// re-verification and the original is attached instead.
    image: Option<Vec<Insn>>,
    stats: OptStats,
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
#[derive(Debug, Default)]
pub struct LoadCache {
    shapes: HashMap<ShapeKey, ShapeEntry, WordState>,
}

impl LoadCache {
    /// Loads `program` against `maps` and `kfuncs`: verifies it,
    /// optimizes it and re-verifies the optimized image, or replays
    /// all three from the entry of its shape, rebased onto
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
        let shape = ShapeKey::of(program, maps, kfuncs);
        if let Some((key, order)) = &shape {
            if let Some(entry) = self.shapes.get(key) {
                let attached = match &entry.image {
                    Some(image) => Program::from_raw(
                        program.name().to_string(),
                        remap(image, |slot| order[slot.as_u32() as usize]),
                    ),
                    None => program.clone(),
                };
                return Ok(Loaded {
                    attached: VerifiedProgram::proven(attached),
                    verifier: VerifierStats::default(),
                    opt: entry.stats.clone(),
                    cache_hit: true,
                    reverify_rejected: entry.image.is_none(),
                });
            }
        }
        let verifier = Verifier::new(maps, kfuncs);
        let verified = verifier.verify(program)?;
        let (optimized, stats) = PassManager::new().optimize(program, maps, kfuncs);
        let reverified = verifier.verify(&optimized).ok();
        if let Some((key, order)) = shape {
            let image = reverified.is_some().then(|| {
                remap(optimized.insns(), |map| {
                    let slot = order
                        .iter()
                        .position(|m| *m == map)
                        .expect("the optimizer only keeps or drops the program's map references");
                    MapId::from_raw(slot as u32)
                })
            });
            self.shapes.insert(
                key,
                ShapeEntry {
                    image,
                    stats: stats.clone(),
                },
            );
        }
        Ok(Loaded {
            reverify_rejected: reverified.is_none(),
            verifier: verified.stats().clone(),
            attached: reverified.unwrap_or(verified),
            opt: stats,
            cache_hit: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{AccessSize, HelperId, JmpCond};
    use crate::map::MapKind;
    use crate::program::ProgramBuilder;
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

    fn key(program: &Program, maps: &MapSet, kfuncs: &[KfuncSig]) -> ShapeKey {
        ShapeKey::of(program, maps, kfuncs).expect("maps resolve").0
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
        assert_eq!(cache.shapes.len(), 1);

        // Different map id, identical definition: verifier-equivalent.
        let second = cache.load(&lookup_program("p2", b, 0), &maps, &[]).unwrap();
        assert_eq!(
            second.verifier,
            VerifierStats::default(),
            "cache hit does no work"
        );
        assert!(second.cache_hit);
        assert_eq!(cache.shapes.len(), 1);
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
        assert_eq!(cache.shapes.len(), 2);
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
        assert!(cache.shapes.is_empty());
    }

    #[test]
    fn keys_differ_in_every_shape_dimension() {
        let mut maps = MapSet::new();
        let base = maps.create(MapDef::array(8, 16)).unwrap();
        let more_entries = maps.create(MapDef::array(8, 17)).unwrap();
        let other_kind = maps.create(MapDef::percpu_array(8, 16)).unwrap();
        let wider_value = maps.create(MapDef::array(16, 16)).unwrap();
        let reference = key(&lookup_program("p", base, 0), &maps, KFUNCS);
        assert_eq!(maps.def(other_kind).unwrap().kind, MapKind::PerCpuArray);
        for (what, m, imm, kfuncs) in [
            ("max_entries", more_entries, 0, KFUNCS),
            ("map kind", other_kind, 0, KFUNCS),
            ("value size", wider_value, 0, KFUNCS),
            ("kfunc table", base, 0, &[][..]),
            ("one immediate", base, 1, KFUNCS),
        ] {
            let other = key(&lookup_program("p", m, imm), &maps, kfuncs);
            assert_ne!(reference, other, "{what} must change the shape");
        }
        let renamed = KfuncSig {
            name: "other",
            args: 3,
        };
        let other = key(&lookup_program("p", base, 0), &maps, &[renamed]);
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
        assert_eq!(hit.attached.program().name(), "p2");
        // Identical image up to the map id: the hit references the
        // caller's map.
        let renamed = remap(miss.attached.program().insns(), |m| {
            assert_eq!(m, a);
            b
        });
        assert_eq!(hit.attached.program().insns(), renamed.as_slice());
        assert_eq!(
            Verifier::new(&maps, KFUNCS)
                .verify(hit.attached.program())
                .map(|v| v.stats().clone()),
            Verifier::new(&maps, KFUNCS)
                .verify(miss.attached.program())
                .map(|v| v.stats().clone())
        );
    }

    #[test]
    fn a_cached_reverify_rejection_keeps_the_original_on_every_hit() {
        let mut maps = MapSet::new();
        let a = maps.create(MapDef::array(8, 16)).unwrap();
        let p = lookup_program("p", a, 0);
        let mut cache = LoadCache::default();
        cache.shapes.insert(
            key(&p, &maps, KFUNCS),
            ShapeEntry {
                image: None,
                stats: OptStats::default(),
            },
        );
        for _ in 0..2 {
            let loaded = cache.load(&p, &maps, KFUNCS).unwrap();
            assert!(loaded.cache_hit && loaded.reverify_rejected);
            assert_eq!(loaded.attached.program().insns(), p.insns());
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
        assert_ne!(key(&two(a, a), &maps, &[]), key(&two(a, b), &maps, &[]));
        assert_eq!(key(&two(a, b), &maps, &[]), key(&two(b, a), &maps, &[]));
    }

    #[test]
    fn unresolved_maps_have_no_shape() {
        let maps = MapSet::new();
        let p = lookup_program("p", MapId::from_raw(3), 0);
        assert!(ShapeKey::of(&p, &maps, &[]).is_none());
        let mut cache = LoadCache::default();
        assert!(cache.load(&p, &maps, &[]).is_err());
        assert!(cache.shapes.is_empty());
    }
}
