//! The program-load cache: one memo per program *shape*.
//!
//! A kernel verifies a program image once at load, not once per
//! sandbox restore, and SnapBPF reloads an identical prefetch program
//! (modulo fresh map ids) on every cold start. Verification and
//! optimization are pure functions of the program's [`ShapeKey`]: the
//! instructions with each map reference replaced by the referenced
//! map's definition, plus the kfunc signature table. So one
//! [`LoadCache`] entry per shape holds everything a load computes —
//! the verdict, the optimized image with its [`OptStats`], and the
//! re-verification verdict of that image — and a load that hits it
//! does no analysis at all. The key is computed once per load and
//! serves every lookup.
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
use crate::verify::{KfuncSig, VerifiedProgram, Verifier, VerifyError};

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
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ShapeKey {
    kfuncs: Vec<KfuncSig>,
    insns: Vec<ShapeInsn>,
}

impl ShapeKey {
    /// The shape of `program` against `maps` and `kfuncs`; `None`
    /// when it references a map `maps` does not hold.
    pub fn of(program: &Program, maps: &MapSet, kfuncs: &[KfuncSig]) -> Option<ShapeKey> {
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
        Some(ShapeKey {
            kfuncs: kfuncs.to_vec(),
            insns,
        })
    }
}

/// The distinct maps `insns` reference, in first-occurrence order —
/// the order of [`ShapeInsn::Map`] slots.
fn distinct_maps(insns: &[Insn]) -> Vec<MapId> {
    let mut order = Vec::new();
    for insn in insns {
        if let Insn::LoadMapRef { map, .. } = insn {
            if !order.contains(map) {
                order.push(*map);
            }
        }
    }
    order
}

/// Everything loads of one shape computed.
#[derive(Debug, Default)]
struct ShapeEntry {
    /// The shape passed a full verification.
    verified: bool,
    /// The optimizer's result for the shape, once it ran.
    opt: Option<CachedOpt>,
}

/// An optimized image, in terms of the maps of the program it was
/// optimized from.
#[derive(Debug)]
struct CachedOpt {
    insns: Vec<Insn>,
    /// The original program's distinct maps in first-occurrence
    /// order. A later program of the same shape lists its own maps in
    /// the same slots.
    map_order: Vec<MapId>,
    stats: OptStats,
    /// Whether the optimized image passed re-verification.
    reverified: bool,
}

impl CachedOpt {
    /// The cached image rebased onto `original`'s maps, slot by slot;
    /// `None` (a miss) when a reference does not translate.
    fn rebase(&self, original: &Program) -> Option<Program> {
        let ours = distinct_maps(original.insns());
        if ours.len() != self.map_order.len() {
            return None;
        }
        let mut insns = self.insns.clone();
        for insn in &mut insns {
            if let Insn::LoadMapRef { map, .. } = insn {
                let slot = self.map_order.iter().position(|m| m == map)?;
                *map = ours[slot];
            }
        }
        Some(Program::from_raw(original.name().to_string(), insns))
    }
}

/// What the optimize step of one load did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptOutcome {
    /// The optimizer's statistics for the program's shape.
    pub stats: OptStats,
    /// The image came from the cache; the optimizer did not run.
    pub cache_hit: bool,
    /// The optimized image failed re-verification, so the original
    /// image is attached instead.
    pub reverify_rejected: bool,
}

/// The shape-keyed memo of program loads (see the module docs).
#[derive(Debug, Default)]
pub struct LoadCache {
    shapes: HashMap<ShapeKey, ShapeEntry, WordState>,
}

impl LoadCache {
    /// An empty cache.
    pub fn new() -> Self {
        LoadCache::default()
    }

    /// Verifies `program` unless a program of its shape (`key`)
    /// already verified. A hit skips the walk entirely: the token
    /// carries empty `VerifierStats`, and the returned flag is `true`.
    /// Pass `None` for a program whose shape does not resolve; it is
    /// verified uncached.
    ///
    /// # Errors
    ///
    /// Returns the first [`VerifyError`] found on any path.
    pub fn verify(
        &mut self,
        program: &Program,
        key: Option<&ShapeKey>,
        maps: &MapSet,
        kfuncs: &[KfuncSig],
    ) -> (Result<VerifiedProgram, VerifyError>, bool) {
        let Some(key) = key else {
            return (Verifier::new(maps, kfuncs).verify(program), false);
        };
        if self.shapes.get(key).is_some_and(|e| e.verified) {
            return (Ok(VerifiedProgram::proven(program.clone())), true);
        }
        let result = Verifier::new(maps, kfuncs).verify(program);
        if result.is_ok() {
            self.shapes.entry(key.clone()).or_default().verified = true;
        }
        (result, false)
    }

    /// Optimizes an accepted program and re-verifies the optimized
    /// image, or replays both from the entry for `key`. Returns the
    /// image to attach: the optimized one when it re-verified,
    /// `verified` (the original) otherwise.
    pub fn optimize(
        &mut self,
        program: &Program,
        key: Option<&ShapeKey>,
        verified: VerifiedProgram,
        maps: &MapSet,
        kfuncs: &[KfuncSig],
    ) -> (VerifiedProgram, OptOutcome) {
        let hit = key
            .and_then(|k| self.shapes.get(k)?.opt.as_ref())
            .and_then(|c| Some((c.rebase(program)?, c.stats.clone(), c.reverified)));
        if let Some((optimized, stats, reverified)) = hit {
            let attached = if reverified {
                VerifiedProgram::proven(optimized)
            } else {
                verified
            };
            return (
                attached,
                OptOutcome {
                    stats,
                    cache_hit: true,
                    reverify_rejected: !reverified,
                },
            );
        }
        let (optimized, stats) = PassManager::new().optimize(program, maps, kfuncs);
        let optimized_key = ShapeKey::of(&optimized, maps, kfuncs);
        let (reverified, _) = self.verify(&optimized, optimized_key.as_ref(), maps, kfuncs);
        if let Some(key) = key {
            self.shapes.entry(key.clone()).or_default().opt = Some(CachedOpt {
                insns: optimized.insns().to_vec(),
                map_order: distinct_maps(program.insns()),
                stats: stats.clone(),
                reverified: reverified.is_ok(),
            });
        }
        let reverify_rejected = reverified.is_err();
        (
            reverified.unwrap_or(verified),
            OptOutcome {
                stats,
                cache_hit: false,
                reverify_rejected,
            },
        )
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
        ShapeKey::of(program, maps, kfuncs).expect("maps resolve")
    }

    #[test]
    fn cache_skips_reverification_of_identical_shapes() {
        let mut maps = MapSet::new();
        let a = maps.create(MapDef::array(8, 16)).unwrap();
        let b = maps.create(MapDef::array(8, 16)).unwrap();
        let mut cache = LoadCache::new();

        let p1 = lookup_program("p1", a, 0);
        let (first, hit) = cache.verify(&p1, Some(&key(&p1, &maps, &[])), &maps, &[]);
        assert!(first.unwrap().states_explored() > 0, "first load walks");
        assert!(!hit);
        assert_eq!(cache.shapes.len(), 1);

        // Different map id, identical definition: verifier-equivalent.
        let p2 = lookup_program("p2", b, 0);
        let (second, hit) = cache.verify(&p2, Some(&key(&p2, &maps, &[])), &maps, &[]);
        assert_eq!(
            second.unwrap().states_explored(),
            0,
            "cache hit does no work"
        );
        assert!(hit);
        assert_eq!(cache.shapes.len(), 1);
    }

    #[test]
    fn cache_distinguishes_map_shapes() {
        let mut maps = MapSet::new();
        let small = maps.create(MapDef::array(8, 16)).unwrap();
        let big = maps.create(MapDef::array(8, 1024)).unwrap();
        let mut cache = LoadCache::new();
        for m in [small, big] {
            let p = lookup_program("p", m, 0);
            let (result, hit) = cache.verify(&p, Some(&key(&p, &maps, &[])), &maps, &[]);
            assert!(result.unwrap().states_explored() > 0);
            assert!(!hit, "different max_entries is a different shape");
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
        let k = key(&prog, &maps, &[]);
        let mut cache = LoadCache::new();
        for _ in 0..2 {
            let (result, hit) = cache.verify(&prog, Some(&k), &maps, &[]);
            assert!(matches!(
                result.unwrap_err().kind,
                VerifyErrorKind::PossiblyNull(_)
            ));
            assert!(!hit);
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
        let mut cache = LoadCache::new();
        let mut load = |p: &Program, kfuncs: &[KfuncSig]| {
            let k = key(p, &maps, kfuncs);
            let (verified, hit) = cache.verify(p, Some(&k), &maps, kfuncs);
            let (_, opt) = cache.optimize(p, Some(&k), verified.unwrap(), &maps, kfuncs);
            (hit, opt.cache_hit)
        };
        for m in ms {
            assert_eq!(load(&lookup_program("p", m, 0), KFUNCS), (false, false));
        }
        assert_eq!(load(&lookup_program("p", ms[0], 0), &[]), (false, false));
        assert_eq!(load(&lookup_program("p", ms[0], 1), KFUNCS), (false, false));
        assert_eq!(load(&lookup_program("p", ms[0], 0), KFUNCS), (true, true));
    }

    #[test]
    fn same_shape_with_fresh_map_ids_rebases_onto_the_callers_maps() {
        let mut maps = MapSet::new();
        let a = maps.create(MapDef::array(8, 16)).unwrap();
        let b = maps.create(MapDef::array(8, 16)).unwrap();
        let mut cache = LoadCache::new();
        let mut load = |p: &Program| {
            let k = key(p, &maps, KFUNCS);
            let (verified, _) = cache.verify(p, Some(&k), &maps, KFUNCS);
            cache.optimize(p, Some(&k), verified.unwrap(), &maps, KFUNCS)
        };
        let (first, miss) = load(&lookup_program("p1", a, 0));
        let (second, hit) = load(&lookup_program("p2", b, 0));
        assert!(!miss.cache_hit && hit.cache_hit);
        assert_eq!(miss.stats, hit.stats);
        assert!(!hit.reverify_rejected);
        assert_eq!(second.program().name(), "p2");
        assert_eq!(
            distinct_maps(second.program().insns()),
            vec![b],
            "the hit references the caller's map"
        );
        // Identical image up to the map id.
        let renamed: Vec<Insn> = first
            .program()
            .insns()
            .iter()
            .map(|i| match *i {
                Insn::LoadMapRef { dst, .. } => Insn::LoadMapRef { dst, map: b },
                other => other,
            })
            .collect();
        assert_eq!(second.program().insns(), renamed.as_slice());
        assert_eq!(
            Verifier::new(&maps, KFUNCS)
                .verify(second.program())
                .map(|v| v.stats().clone()),
            Verifier::new(&maps, KFUNCS)
                .verify(first.program())
                .map(|v| v.stats().clone())
        );
    }

    #[test]
    fn a_cached_reverify_rejection_keeps_the_original_on_every_hit() {
        let mut maps = MapSet::new();
        let a = maps.create(MapDef::array(8, 16)).unwrap();
        let p = lookup_program("p", a, 0);
        let k = key(&p, &maps, KFUNCS);
        let mut cache = LoadCache::new();
        cache.shapes.insert(
            k.clone(),
            ShapeEntry {
                verified: true,
                opt: Some(CachedOpt {
                    insns: vec![Insn::Exit],
                    map_order: vec![a],
                    stats: OptStats::default(),
                    reverified: false,
                }),
            },
        );
        for _ in 0..2 {
            let (verified, hit) = cache.verify(&p, Some(&k), &maps, KFUNCS);
            assert!(hit);
            let (attached, outcome) =
                cache.optimize(&p, Some(&k), verified.unwrap(), &maps, KFUNCS);
            assert!(outcome.cache_hit && outcome.reverify_rejected);
            assert_eq!(attached.program().insns(), p.insns());
        }
    }

    #[test]
    fn untranslatable_rebase_is_a_miss_not_a_panic() {
        let mut maps = MapSet::new();
        let a = maps.create(MapDef::array(8, 16)).unwrap();
        let b = maps.create(MapDef::array(8, 16)).unwrap();
        let cached = CachedOpt {
            // References a map the original never did.
            insns: lookup_program("p", b, 0).insns().to_vec(),
            map_order: vec![a],
            stats: OptStats::default(),
            reverified: true,
        };
        assert!(cached.rebase(&lookup_program("p", a, 0)).is_none());
        let two_maps = CachedOpt {
            map_order: vec![a, b],
            ..cached
        };
        assert!(two_maps.rebase(&lookup_program("p", a, 0)).is_none());
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
        let mut cache = LoadCache::new();
        let (result, hit) = cache.verify(&p, None, &maps, &[]);
        assert!(result.is_err() && !hit);
        assert!(cache.shapes.is_empty());
    }
}
