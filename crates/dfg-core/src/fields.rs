//! Host-side field containers — the NumPy-array interface of the paper's
//! host interface (§III-D), in Rust form.

use std::collections::HashMap;

use dfg_dataflow::Width;
use dfg_mesh::{RectilinearMesh, RtWorkload};

/// One host field: real data or a virtual (model-mode) placeholder.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldValue {
    /// Value width.
    pub width: Width,
    /// Backing data (`None` for virtual fields used with
    /// [`dfg_ocl::ExecMode::Model`]).
    pub data: Option<Vec<f32>>,
    /// Version counter, bumped by every insert/update/touch of this name.
    /// A [`crate::Session`] compares it against the generation of its
    /// device-resident copy to decide whether a re-upload is needed.
    generation: u64,
}

impl FieldValue {
    /// The field's current version. Monotonically increasing per
    /// [`FieldSet`]; unchanged by [`Clone`].
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// The set of input fields a host application provides for one execution:
/// the analogue of the paper's "NumPy objects for the input data arrays".
#[derive(Debug, Clone, PartialEq)]
pub struct FieldSet {
    ncells: usize,
    fields: HashMap<String, FieldValue>,
    /// Next generation to hand out; generations are unique within a set.
    next_gen: u64,
}

impl FieldSet {
    /// An empty field set for meshes of `ncells` cells.
    pub fn new(ncells: usize) -> Self {
        FieldSet {
            ncells,
            fields: HashMap::new(),
            next_gen: 1,
        }
    }

    fn fresh_gen(&mut self) -> u64 {
        let g = self.next_gen;
        self.next_gen += 1;
        g
    }

    /// Insert (or replace) field `name` — with its bytes, or as a virtual
    /// field that has only a shape — under a fresh generation.
    fn put(&mut self, name: &str, width: Width, data: Option<Vec<f32>>) {
        let generation = self.fresh_gen();
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

    /// Insert a problem-sized scalar field.
    ///
    /// # Errors
    /// Returns the expected/actual lengths on mismatch.
    pub fn insert_scalar(&mut self, name: &str, data: Vec<f32>) -> Result<(), (usize, usize)> {
        if data.len() != self.ncells {
            return Err((self.ncells, data.len()));
        }
        self.put(name, Width::Scalar, Some(data));
        Ok(())
    }

    /// Overwrite an existing scalar field's data in place, bumping its
    /// generation. Unlike [`FieldSet::insert_scalar`] this reuses the
    /// existing allocation when lengths match and fails if the field does
    /// not already exist as a real scalar.
    ///
    /// # Errors
    /// Returns the expected/actual lengths on mismatch (also used for a
    /// missing or virtual field, with `found = 0`).
    pub fn update_scalar(&mut self, name: &str, data: &[f32]) -> Result<(), (usize, usize)> {
        if data.len() != self.ncells {
            return Err((self.ncells, data.len()));
        }
        let generation = self.fresh_gen();
        let field = self
            .fields
            .get_mut(name)
            .filter(|f| f.width == Width::Scalar)
            .ok_or((self.ncells, 0))?;
        let buf = field.data.as_mut().ok_or((self.ncells, 0))?;
        buf.copy_from_slice(data);
        field.generation = generation;
        Ok(())
    }

    /// Mark a field as modified (e.g. after mutating its data through a
    /// clone-and-reinsert), bumping its generation. Returns `false` if the
    /// field does not exist.
    pub fn touch(&mut self, name: &str) -> bool {
        let generation = self.fresh_gen();
        match self.fields.get_mut(name) {
            Some(field) => {
                field.generation = generation;
                true
            }
            None => false,
        }
    }

    /// Insert a small auxiliary buffer (e.g. `dims`, 3 lanes).
    pub fn insert_small(&mut self, name: &str, data: Vec<f32>) {
        self.put(name, Width::Small, Some(data));
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
        assert_ne!(gu, gv, "generations are unique within a set");

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
    fn lanes_by_width() {
        let fs = FieldSet::new(10);
        assert_eq!(fs.lanes(Width::Scalar), 10);
        assert_eq!(fs.lanes(Width::Vec4), 40);
        assert_eq!(fs.lanes(Width::Small), 3);
    }
}
