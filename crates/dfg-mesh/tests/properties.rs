//! Property tests for mesh decomposition and the synthetic workload.

use proptest::prelude::*;

use dfg_mesh::decomp::{extract_block, insert_block};
use dfg_mesh::{partition_blocks, RectilinearMesh, RtWorkload, SubGrid};

/// A strictly increasing, non-uniform axis of 1–9 cell centres.
fn stretched_axis() -> impl Strategy<Value = Vec<f32>> {
    (-2000i32..2000, prop::collection::vec(10u32..700, 0..9)).prop_map(|(start, steps)| {
        let mut axis = vec![start as f32 * 1e-3];
        for step in steps {
            axis.push(axis[axis.len() - 1] + step as f32 * 1e-3);
        }
        axis
    })
}

/// A window `(offset, len)` inside an axis of `n` cells, drawn from two
/// arbitrary numbers.
fn window(n: usize, a: usize, b: usize) -> (usize, usize) {
    let offset = a % n;
    (offset, 1 + b % (n - offset))
}

fn dims_and_blocks() -> impl Strategy<Value = ([usize; 3], [usize; 3])> {
    (1usize..12, 1usize..12, 1usize..12).prop_flat_map(|(nx, ny, nz)| {
        (1..=nx, 1..=ny, 1..=nz).prop_map(move |(bx, by, bz)| ([nx, ny, nz], [bx, by, bz]))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every partition tiles the global mesh exactly once.
    #[test]
    fn partition_is_an_exact_tiling((dims, blocks) in dims_and_blocks()) {
        let parts = partition_blocks(dims, blocks);
        prop_assert_eq!(parts.len(), blocks[0] * blocks[1] * blocks[2]);
        let mut cover = vec![0u32; dims[0] * dims[1] * dims[2]];
        for b in &parts {
            for k in 0..b.dims[2] {
                for j in 0..b.dims[1] {
                    for i in 0..b.dims[0] {
                        let idx = (b.offset[0] + i)
                            + dims[0] * ((b.offset[1] + j) + dims[1] * (b.offset[2] + k));
                        cover[idx] += 1;
                    }
                }
            }
        }
        prop_assert!(cover.iter().all(|&c| c == 1));
    }

    /// Ghost extents are always inside the global mesh and contain the
    /// owned region; the interior relocation arithmetic is consistent.
    #[test]
    fn ghost_extents_are_consistent(
        (dims, blocks) in dims_and_blocks(),
        layers in 1usize..3,
    ) {
        for b in partition_blocks(dims, blocks) {
            let (goff, gdims) = b.ghosted(layers, dims);
            let (istart, idims) = b.interior_in_ghosted(layers, dims);
            for d in 0..3 {
                prop_assert!(goff[d] + gdims[d] <= dims[d]);
                prop_assert!(goff[d] <= b.offset[d]);
                prop_assert_eq!(goff[d] + istart[d], b.offset[d]);
                prop_assert_eq!(idims[d], b.dims[d]);
                prop_assert!(istart[d] + idims[d] <= gdims[d]);
                // Ghost layer thickness never exceeds `layers` per side.
                prop_assert!(b.offset[d] - goff[d] <= layers);
            }
        }
    }

    /// extract_block ∘ insert_block over a full partition reassembles the
    /// global array.
    #[test]
    fn block_extract_insert_reassembles((dims, blocks) in dims_and_blocks()) {
        let n = dims[0] * dims[1] * dims[2];
        let global: Vec<f32> = (0..n).map(|i| i as f32 * 0.5 - 3.0).collect();
        let mut rebuilt = vec![f32::NAN; n];
        for b in partition_blocks(dims, blocks) {
            let blk = extract_block(&global, dims, b.offset, b.dims);
            prop_assert_eq!(blk.len(), b.ncells());
            insert_block(&mut rebuilt, dims, b.offset, b.dims, &blk);
        }
        prop_assert_eq!(rebuilt, global);
    }

    /// Sampling a submesh equals slicing a global sample, everywhere.
    #[test]
    fn submesh_sampling_matches_global(
        dims in (2usize..8, 2usize..8, 2usize..8).prop_map(|(a, b, c)| [a, b, c]),
        seed in 0u64..1000,
    ) {
        let wl = RtWorkload::new(seed, 2);
        let global = RectilinearMesh::unit_cube(dims);
        let (gu, gv, gw) = wl.sample_velocity(&global);
        // A corner submesh of half extents.
        let half = [dims[0] / 2 + 1, dims[1] / 2 + 1, dims[2] / 2 + 1];
        let off = [dims[0] - half[0], dims[1] - half[1], dims[2] - half[2]];
        let sub = global.submesh(off, half);
        let (su, sv, sw) = wl.sample_velocity(&sub);
        for k in 0..half[2] {
            for j in 0..half[1] {
                for i in 0..half[0] {
                    let g = global.index(off[0] + i, off[1] + j, off[2] + k);
                    let s = sub.index(i, j, k);
                    prop_assert_eq!(gu[g].to_bits(), su[s].to_bits());
                    prop_assert_eq!(gv[g].to_bits(), sv[s].to_bits());
                    prop_assert_eq!(gw[g].to_bits(), sw[s].to_bits());
                }
            }
        }
    }

    /// The bulk path is the pointwise definition: on stretched and 1-cell
    /// axes, for any mode count, on a mesh and on a sub-mesh of it,
    /// `sample_velocity` equals `velocity_at` bit for bit at every cell, at
    /// one thread and at the pool's default.
    #[test]
    fn bulk_sampling_is_velocity_at_bit_for_bit(
        (xs, ys, zs) in (stretched_axis(), stretched_axis(), stretched_axis()),
        seed in 0u64..u64::MAX,
        nmodes in 0usize..=6,
        picks in prop::collection::vec(0usize..64, 6..7),
    ) {
        let wl = RtWorkload::new(seed, nmodes);
        let global = RectilinearMesh::with_axes(xs, ys, zs);
        let [nx, ny, nz] = global.dims();
        let (ox, lx) = window(nx, picks[0], picks[1]);
        let (oy, ly) = window(ny, picks[2], picks[3]);
        let (oz, lz) = window(nz, picks[4], picks[5]);
        for mesh in [global.submesh([ox, oy, oz], [lx, ly, lz]), global] {
            let pooled = wl.sample_velocity(&mesh);
            let serial = dfg_exec::with_serial(|| wl.sample_velocity(&mesh));
            prop_assert_eq!(&pooled, &serial);
            let [nx, ny, nz] = mesh.dims();
            for k in 0..nz {
                for j in 0..ny {
                    for i in 0..nx {
                        let [x, y, z] = mesh.cell_center(i, j, k);
                        let want = wl.velocity_at(x, y, z).map(f32::to_bits);
                        let idx = mesh.index(i, j, k);
                        let got = [pooled.0[idx], pooled.1[idx], pooled.2[idx]].map(f32::to_bits);
                        prop_assert_eq!(got, want, "cell ({}, {}, {})", i, j, k);
                    }
                }
            }
        }
    }

    /// Linear indexing round-trips through (i, j, k).
    #[test]
    fn index_unravel_roundtrip(
        dims in (1usize..10, 1usize..10, 1usize..10).prop_map(|(a, b, c)| [a, b, c]),
    ) {
        let mesh = RectilinearMesh::unit_cube(dims);
        let mut seen = vec![false; mesh.ncells()];
        for k in 0..dims[2] {
            for j in 0..dims[1] {
                for i in 0..dims[0] {
                    let idx = mesh.index(i, j, k);
                    prop_assert!(!seen[idx], "index collision at ({i},{j},{k})");
                    seen[idx] = true;
                }
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }
}

#[test]
fn subgrid_ncells_consistent_with_dims() {
    let b = SubGrid {
        block: [0, 0, 0],
        offset: [2, 3, 4],
        dims: [5, 6, 7],
    };
    assert_eq!(b.ncells(), 210);
}
