//! Host-side field containers — the NumPy-array interface of the paper's
//! host interface (§III-D), in Rust form.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use dfg_dataflow::Width;
use dfg_mesh::{RectilinearMesh, RtWorkload};
use dfg_ocl::SharedArray;

/// One host field: real data or a virtual (model-mode) placeholder.
///
/// The data is a [`SharedArray`] — a reference-counted, immutable array.
/// Cloning a `FieldValue` (or the [`FieldSet`] holding it) shares the lanes
/// instead of copying them, and so does uploading it: a real-mode device
/// buffer the field covers exactly keeps a handle to this array for as long
/// as the buffer lives (a one-shot derive: until it returns; a
/// [`crate::Session`] resident: until the field's next upload). Nobody
/// holding a handle can write through it; see [`FieldSet::update_scalar`]
/// for how the host changes a field that is shared.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldValue {
    /// Value width.
    pub width: Width,
    /// Backing data (`None` for virtual fields used with
    /// [`dfg_ocl::ExecMode::Model`]); dereferences to `[f32]`.
    pub data: Option<SharedArray>,
    /// Version counter, bumped by every insert/update/touch of this name.
    /// A [`crate::Session`] compares it against the generation of its
    /// device-resident copy to decide whether a re-upload is needed.
    generation: u64,
}

impl FieldValue {
    /// The field's current version: drawn from one process-wide counter, so
    /// no two inserts, updates or touches — of any name, in any set — share
    /// one, and equal generations mean the same contents. Unchanged by
    /// [`Clone`], which shares the contents too.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// The next generation any [`FieldSet`] hands out. One counter for the
/// process, not one per set: a session matches a resident by name, size and
/// generation, and sets that each started counting at 1 made two different
/// grids of equal cell count indistinguishable to it. The counter orders
/// nothing and guards no other data, hence `Relaxed`; it does not depend on
/// the execution mode, so Model and Real runs make the same skip decisions.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

fn fresh_gen() -> u64 {
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// The set of input fields a host application provides for one execution:
/// the analogue of the paper's "NumPy objects for the input data arrays".
///
/// Fields are shared, immutable arrays (see [`FieldValue`]): cloning a set
/// copies no data, and the clones stay independent — an update through one
/// is never seen through the other.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldSet {
    ncells: usize,
    fields: HashMap<String, FieldValue>,
}

impl FieldSet {
    /// An empty field set for meshes of `ncells` cells.
    pub fn new(ncells: usize) -> Self {
        FieldSet {
            ncells,
            fields: HashMap::new(),
        }
    }

    /// Insert (or replace) field `name` — with its bytes, or as a virtual
    /// field that has only a shape — under a fresh generation.
    fn put(&mut self, name: &str, width: Width, data: Option<SharedArray>) {
        let generation = fresh_gen();
        let value = FieldValue {
            width,
            data,
            generation,
        };
        self.fields.insert(name.to_string(), value);
    }

    /// Cell count all problem-sized fields must match.
    pub fn ncells(&self) -> usize {
        self.ncells
    }

    /// Insert a problem-sized scalar field; the set wraps `data` without
    /// copying it.
    ///
    /// # Errors
    /// Returns the expected/actual lengths on mismatch.
    pub fn insert_scalar(&mut self, name: &str, data: Vec<f32>) -> Result<(), (usize, usize)> {
        if data.len() != self.ncells {
            return Err((self.ncells, data.len()));
        }
        self.put(name, Width::Scalar, Some(data.into()));
        Ok(())
    }

    /// Give an existing scalar field new contents, bumping its generation;
    /// fails if the field does not already exist as a real scalar.
    ///
    /// The copy lands in the field's own allocation when this set holds the
    /// only reference to it. When a clone of the set, a device buffer that
    /// adopted the array (see [`FieldValue`]) or anyone else shares it, the
    /// set installs a fresh array instead, and every other holder keeps
    /// reading the old contents: a result already derived, a resident not
    /// yet re-uploaded and a cloned set never change under their owner.
    ///
    /// # Errors
    /// Returns the expected/actual lengths on mismatch (also used for a
    /// missing or virtual field, with `found = 0`).
    pub fn update_scalar(&mut self, name: &str, data: &[f32]) -> Result<(), (usize, usize)> {
        if data.len() != self.ncells {
            return Err((self.ncells, data.len()));
        }
        let field = self
            .fields
            .get_mut(name)
            .filter(|f| f.width == Width::Scalar)
            .ok_or((self.ncells, 0))?;
        let array = field.data.as_mut().ok_or((self.ncells, 0))?;
        match array.get_mut() {
            Some(lanes) => lanes.copy_from_slice(data),
            None => *array = data.to_vec().into(),
        }
        field.generation = fresh_gen();
        Ok(())
    }

    /// Mark a field as modified (e.g. after mutating its data through a
    /// clone-and-reinsert), bumping its generation. Returns `false` if the
    /// field does not exist.
    pub fn touch(&mut self, name: &str) -> bool {
        match self.fields.get_mut(name) {
            Some(field) => {
                field.generation = fresh_gen();
                true
            }
            None => false,
        }
    }

    /// Insert a small auxiliary buffer (e.g. `dims`, 3 lanes).
    pub fn insert_small(&mut self, name: &str, data: Vec<f32>) {
        self.put(name, Width::Small, Some(data.into()));
    }

    /// Insert a virtual scalar field (model mode: shape only, no data).
    pub fn insert_virtual_scalar(&mut self, name: &str) {
        self.put(name, Width::Scalar, None);
    }

    /// Insert a virtual small buffer.
    pub fn insert_virtual_small(&mut self, name: &str) {
        self.put(name, Width::Small, None);
    }

    /// Look up a field.
    pub fn get(&self, name: &str) -> Option<&FieldValue> {
        self.fields.get(name)
    }

    /// Number of lanes a field of `width` occupies in this set.
    pub fn lanes(&self, width: Width) -> usize {
        match width {
            Width::Scalar => self.ncells,
            Width::Vec4 => 4 * self.ncells,
            Width::Small => 3,
        }
    }

    /// Build the full evaluation field set for a mesh: coordinates `x, y,
    /// z`, the `dims` triple, and the synthetic RT velocity `u, v, w`.
    pub fn for_rt_mesh(mesh: &RectilinearMesh, workload: &RtWorkload) -> Self {
        let mut fs = FieldSet::new(mesh.ncells());
        let (x, y, z) = mesh.coord_arrays();
        let (u, v, w) = workload.sample_velocity(mesh);
        fs.insert_scalar("x", x).expect("coord length");
        fs.insert_scalar("y", y).expect("coord length");
        fs.insert_scalar("z", z).expect("coord length");
        fs.insert_scalar("u", u).expect("velocity length");
        fs.insert_scalar("v", v).expect("velocity length");
        fs.insert_scalar("w", w).expect("velocity length");
        fs.insert_small("dims", mesh.dims_buffer());
        fs
    }

    /// Build a virtual (model-mode) field set with the standard evaluation
    /// fields for a grid of `dims` cells.
    pub fn virtual_rt(dims: [usize; 3]) -> Self {
        let mut fs = FieldSet::new(dims[0] * dims[1] * dims[2]);
        for name in ["x", "y", "z", "u", "v", "w"] {
            fs.insert_virtual_scalar(name);
        }
        fs.insert_virtual_small("dims");
        fs
    }
}

/// A derived field returned to the host.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Result width (scalar for all the paper's expressions).
    pub width: Width,
    /// Cell count.
    pub ncells: usize,
    /// Flattened data, `ncells` lanes for scalars, `4 × ncells` for vec4.
    pub data: Vec<f32>,
}

impl Field {
    /// View as a scalar field, if scalar.
    pub fn as_scalar(&self) -> Option<&[f32]> {
        (self.width == Width::Scalar).then_some(&self.data[..])
    }

    /// The `comp` component of each element, for vec4 fields.
    pub fn component(&self, comp: usize) -> Option<Vec<f32>> {
        if self.width != Width::Vec4 || comp >= 4 {
            return None;
        }
        Some((0..self.ncells).map(|i| self.data[4 * i + comp]).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_checks_length() {
        let mut fs = FieldSet::new(4);
        assert!(fs.insert_scalar("u", vec![0.0; 4]).is_ok());
        assert_eq!(fs.insert_scalar("v", vec![0.0; 3]), Err((4, 3)));
    }

    #[test]
    fn rt_field_set_has_all_seven_inputs() {
        let mesh = RectilinearMesh::unit_cube([4, 4, 4]);
        let fs = FieldSet::for_rt_mesh(&mesh, &RtWorkload::paper_default());
        for name in ["u", "v", "w", "x", "y", "z", "dims"] {
            assert!(fs.get(name).is_some(), "missing {name}");
        }
        assert_eq!(fs.get("dims").unwrap().width, Width::Small);
        assert_eq!(fs.get("u").unwrap().data.as_ref().unwrap().len(), 64);
    }

    #[test]
    fn virtual_set_has_no_data() {
        let fs = FieldSet::virtual_rt([192, 192, 256]);
        assert_eq!(fs.ncells(), 9_437_184);
        assert!(fs.get("u").unwrap().data.is_none());
    }

    #[test]
    fn field_component_extraction() {
        let f = Field {
            width: Width::Vec4,
            ncells: 2,
            data: vec![1.0, 2.0, 3.0, 0.0, 4.0, 5.0, 6.0, 0.0],
        };
        assert_eq!(f.component(1).unwrap(), vec![2.0, 5.0]);
        assert!(f.as_scalar().is_none());
        assert!(f.component(4).is_none());
    }

    #[test]
    fn generations_track_mutation() {
        let mut fs = FieldSet::new(4);
        fs.insert_scalar("u", vec![0.0; 4]).unwrap();
        fs.insert_scalar("v", vec![0.0; 4]).unwrap();
        let gu = fs.get("u").unwrap().generation();
        let gv = fs.get("v").unwrap().generation();
        assert_ne!(gu, gv, "generations are unique");

        // Updating one field bumps only that field.
        fs.update_scalar("u", &[1.0; 4]).unwrap();
        assert!(fs.get("u").unwrap().generation() > gu);
        assert_eq!(fs.get("v").unwrap().generation(), gv);
        assert_eq!(fs.get("u").unwrap().data.as_deref(), Some(&[1.0f32; 4][..]));

        // Touch bumps without changing data; unknown names report false.
        let gv2 = fs.get("v").unwrap().generation();
        assert!(fs.touch("v"));
        assert!(fs.get("v").unwrap().generation() > gv2);
        assert!(!fs.touch("nope"));

        // Update rejects bad lengths and missing/virtual fields.
        assert_eq!(fs.update_scalar("u", &[0.0; 3]), Err((4, 3)));
        assert_eq!(fs.update_scalar("w", &[0.0; 4]), Err((4, 0)));
        fs.insert_virtual_scalar("p");
        assert_eq!(fs.update_scalar("p", &[0.0; 4]), Err((4, 0)));
    }

    #[test]
    fn update_scalar_writes_in_place_only_when_unshared() {
        let mut fs = FieldSet::new(4);
        fs.insert_scalar("u", vec![0.0; 4]).unwrap();
        let array_of = |fs: &FieldSet| fs.get("u").unwrap().data.as_deref().unwrap().as_ptr();
        let first = array_of(&fs);
        fs.update_scalar("u", &[1.0; 4]).unwrap();
        assert_eq!(array_of(&fs), first, "sole holder: same allocation");

        // A clone of the set — or any other handle, such as the one a
        // device buffer keeps — makes the array read-only for everyone.
        let snapshot = fs.clone();
        fs.update_scalar("u", &[2.0; 4]).unwrap();
        assert_ne!(array_of(&fs), first, "shared: a fresh array");
        assert_eq!(array_of(&snapshot), first);
        assert_eq!(
            snapshot.get("u").unwrap().data.as_deref(),
            Some(&[1.0f32; 4][..])
        );
        assert_eq!(fs.get("u").unwrap().data.as_deref(), Some(&[2.0f32; 4][..]));
        assert_ne!(
            fs.get("u").unwrap().generation(),
            snapshot.get("u").unwrap().generation()
        );
        // Once the other holder is gone the set owns its array again.
        drop(snapshot);
        let second = array_of(&fs);
        fs.update_scalar("u", &[3.0; 4]).unwrap();
        assert_eq!(array_of(&fs), second);
    }

    #[test]
    fn generations_are_unique_across_sets() {
        let gens = |fs: &FieldSet| ["u", "v"].map(|name| fs.get(name).unwrap().generation());
        let build = || {
            let mut fs = FieldSet::new(2);
            fs.insert_scalar("u", vec![0.0; 2]).unwrap();
            fs.insert_scalar("v", vec![0.0; 2]).unwrap();
            fs
        };
        let (a, b) = (build(), build());
        let mut all: Vec<u64> = gens(&a).into_iter().chain(gens(&b)).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4, "two sets built alike share no generation");
        assert_eq!(
            gens(&a.clone()),
            gens(&a),
            "a clone shares contents and generations"
        );
    }

    #[test]
    fn lanes_by_width() {
        let fs = FieldSet::new(10);
        assert_eq!(fs.lanes(Width::Scalar), 10);
        assert_eq!(fs.lanes(Width::Vec4), 40);
        assert_eq!(fs.lanes(Width::Small), 3);
    }
}
