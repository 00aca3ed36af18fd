//! A VisIt-like contract pipeline hosting the derived-field framework.
//!
//! VisIt pipelines run in two passes: an upstream **contract** pass where
//! each component declares what it needs (which arrays, how many ghost
//! layers), then a downstream **execute** pass where data flows through the
//! filters. The paper relies on both: its VisIt Python Expression filter
//! "explicitly requests ghost data generation" via the contract, and "the
//! pipeline is executed only once per time step for all rendering
//! operations" — re-renders reuse the cached result.

use std::collections::BTreeSet;

use dfg_core::{Engine, EngineError, EngineOptions, FieldSet, Request, Strategy};
use dfg_dataflow::{FilterOp, NetworkSpec, Width};
use dfg_expr::compile;
use dfg_mesh::{RectilinearMesh, RtWorkload, SubGrid};
use dfg_ocl::DeviceProfile;

use crate::dataset::{DataArray, DatasetError, RectilinearDataset};

/// What a downstream consumer requires from upstream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Contract {
    /// Ghost layers needed around owned cells.
    pub ghost_layers: usize,
    /// Arrays that must be present on the dataset.
    pub required_fields: BTreeSet<String>,
}

/// Pipeline failures.
#[derive(Debug)]
pub enum PipelineError {
    /// The derived-field engine failed.
    Engine(EngineError),
    /// A dataset operation failed.
    Dataset(DatasetError),
    /// The pipeline has no source output to return.
    Empty,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Engine(e) => write!(f, "engine: {e}"),
            PipelineError::Dataset(e) => write!(f, "dataset: {e}"),
            PipelineError::Empty => write!(f, "pipeline produced no dataset"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<EngineError> for PipelineError {
    fn from(e: EngineError) -> Self {
        PipelineError::Engine(e)
    }
}

impl From<DatasetError> for PipelineError {
    fn from(e: DatasetError) -> Self {
        PipelineError::Dataset(e)
    }
}

/// A pipeline filter: contract pass upstream, execute pass downstream.
pub trait PipelineFilter {
    /// Display name.
    fn name(&self) -> String;
    /// Given what downstream needs, declare what this filter needs.
    fn contract(&self, downstream: &Contract) -> Contract;
    /// Transform the dataset.
    fn execute(&mut self, input: RectilinearDataset) -> Result<RectilinearDataset, PipelineError>;
}

/// The data source: samples the synthetic RT workload over (a block of) a
/// global mesh, honouring the contract's ghost request exactly as VisIt's
/// ghost-data generation does.
pub struct SyntheticSource {
    /// The global mesh.
    pub global: RectilinearMesh,
    /// The workload to sample.
    pub workload: RtWorkload,
    /// The block this source owns; `None` = the entire mesh.
    pub block: Option<SubGrid>,
}

impl SyntheticSource {
    /// Produce the (ghosted) dataset for this source under `contract`.
    pub fn produce(&self, contract: &Contract) -> RectilinearDataset {
        let gdims_global = self.global.dims();
        let (offset, dims, ghost) = match &self.block {
            None => ([0; 3], gdims_global, [[0usize; 2]; 3]),
            Some(b) => {
                let (goff, gdims) = b.ghosted(contract.ghost_layers, gdims_global);
                let mut ghost = [[0usize; 2]; 3];
                for d in 0..3 {
                    ghost[d][0] = b.offset[d] - goff[d];
                    ghost[d][1] = (goff[d] + gdims[d]) - (b.offset[d] + b.dims[d]);
                }
                (goff, gdims, ghost)
            }
        };
        let mesh = self.global.submesh(offset, dims);
        let (u, v, w) = self.workload.sample_velocity(&mesh);
        let mut ds = RectilinearDataset::new(mesh);
        ds.ghost_layers = ghost;
        ds.set_array("u", DataArray::scalar(u))
            .expect("sampled length");
        ds.set_array("v", DataArray::scalar(v))
            .expect("sampled length");
        ds.set_array("w", DataArray::scalar(w))
            .expect("sampled length");
        ds
    }
}

/// Mesh-provided names that a derived-field contract never needs to request
/// from upstream data: coordinates and dims come from the grid itself.
const MESH_PROVIDED: [&str; 4] = ["x", "y", "z", "dims"];

/// The analogue of the paper's custom VisIt Python Expression: a pipeline
/// filter that runs the derived-field engine over the dataset's arrays and
/// attaches the result as a new array.
pub struct DerivedFieldFilter {
    expression: String,
    output_name: String,
    spec: NetworkSpec,
    strategy: Strategy,
    engine: Engine,
}

impl DerivedFieldFilter {
    /// Build a filter computing `expression` with `strategy` on `profile`.
    /// The result array takes the final statement's name.
    pub fn new(
        expression: &str,
        profile: DeviceProfile,
        strategy: Strategy,
    ) -> Result<Self, EngineError> {
        let spec = compile(expression)?;
        let output_name = spec
            .node(spec.result)
            .name
            .clone()
            .unwrap_or_else(|| "derived".to_string());
        Ok(DerivedFieldFilter {
            expression: expression.to_string(),
            output_name,
            spec,
            strategy,
            engine: Engine::with_options(profile, EngineOptions::default()),
        })
    }

    /// The array name this filter produces.
    pub fn output_name(&self) -> &str {
        &self.output_name
    }

    /// Whether the expression contains a stencil (gradient) operation.
    fn uses_stencil(&self) -> bool {
        self.spec.count_ops(|op| matches!(op, FilterOp::Grad3d)) > 0
    }
}

impl PipelineFilter for DerivedFieldFilter {
    fn name(&self) -> String {
        format!("derive[{}]", self.output_name)
    }

    fn contract(&self, downstream: &Contract) -> Contract {
        let mut c = downstream.clone();
        // What we produce, downstream no longer needs from upstream.
        c.required_fields.remove(&self.output_name);
        for name in self.spec.input_names() {
            if !MESH_PROVIDED.contains(&name) {
                c.required_fields.insert(name.to_string());
            }
        }
        // "Our framework explicitly requests ghost data generation."
        if self.uses_stencil() {
            c.ghost_layers = c.ghost_layers.max(downstream.ghost_layers + 1);
        }
        c
    }

    fn execute(
        &mut self,
        mut input: RectilinearDataset,
    ) -> Result<RectilinearDataset, PipelineError> {
        let n = input.ncells();
        let mut fields = FieldSet::new(n);
        let (x, y, z) = input.mesh.coord_arrays();
        fields.insert_scalar("x", x).expect("mesh length");
        fields.insert_scalar("y", y).expect("mesh length");
        fields.insert_scalar("z", z).expect("mesh length");
        fields.insert_small("dims", input.mesh.dims_buffer());
        for name in self.spec.input_names() {
            if MESH_PROVIDED.contains(&name) {
                continue;
            }
            let arr = input.array(name)?;
            if arr.ncomp != 1 {
                return Err(PipelineError::Dataset(DatasetError::ArrayLength {
                    name: name.to_string(),
                    expected: n,
                    found: arr.ntuples() * arr.ncomp,
                }));
            }
            fields
                .insert_scalar(name, arr.data.clone())
                .map_err(|(expected, found)| {
                    PipelineError::Dataset(DatasetError::ArrayLength {
                        name: name.to_string(),
                        expected,
                        found,
                    })
                })?;
        }
        let (mut out, _) = self
            .engine
            .run(&Request::source(&self.expression, self.strategy), &fields)?;
        let field = out.pop().expect("pipeline engines run in real mode");
        let array = match field.width {
            Width::Vec4 => {
                // Store vectors as 3-component VTK arrays.
                let mut data = Vec::with_capacity(3 * n);
                for i in 0..n {
                    data.extend_from_slice(&field.data[4 * i..4 * i + 3]);
                }
                DataArray::vector3(data)
            }
            _ => DataArray::scalar(field.data),
        };
        input.set_array(&self.output_name, array)?;
        Ok(input)
    }
}

/// A contract-driven pipeline: one source, a chain of filters, and a cache
/// so repeated renders of the same time step execute the pipeline once.
pub struct Pipeline {
    source: SyntheticSource,
    filters: Vec<Box<dyn PipelineFilter>>,
    cache: Option<RectilinearDataset>,
    executions: usize,
}

impl Pipeline {
    /// A pipeline fed by `source`.
    pub fn new(source: SyntheticSource) -> Self {
        Pipeline {
            source,
            filters: Vec::new(),
            cache: None,
            executions: 0,
        }
    }

    /// Append a filter.
    pub fn add_filter(&mut self, filter: Box<dyn PipelineFilter>) -> &mut Self {
        self.cache = None;
        self.filters.push(filter);
        self
    }

    /// Run the contract pass upstream, then the execute pass downstream.
    /// Ghost layers are stripped from the final dataset (as VisIt does
    /// before rendering). Cached until [`Pipeline::mark_dirty`].
    pub fn execute(&mut self) -> Result<&RectilinearDataset, PipelineError> {
        if self.cache.is_none() {
            let mut contract = Contract::default();
            for filter in self.filters.iter().rev() {
                contract = filter.contract(&contract);
            }
            let mut ds = self.source.produce(&contract);
            for filter in &mut self.filters {
                ds = filter.execute(ds)?;
            }
            self.cache = Some(ds.strip_ghosts());
            self.executions += 1;
        }
        self.cache.as_ref().ok_or(PipelineError::Empty)
    }

    /// Invalidate the cache (a new time step arrived).
    pub fn mark_dirty(&mut self) {
        self.cache = None;
    }

    /// How many times the execute pass actually ran.
    pub fn executions(&self) -> usize {
        self.executions
    }

    /// The contract the source would receive (for inspection/testing).
    pub fn upstream_contract(&self) -> Contract {
        let mut contract = Contract::default();
        for filter in self.filters.iter().rev() {
            contract = filter.contract(&contract);
        }
        contract
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfg_core::Workload;
    use dfg_mesh::partition_blocks;

    fn gpu() -> DeviceProfile {
        DeviceProfile::nvidia_m2050()
    }

    fn source_whole(dims: [usize; 3]) -> SyntheticSource {
        SyntheticSource {
            global: RectilinearMesh::unit_cube(dims),
            workload: RtWorkload::paper_default(),
            block: None,
        }
    }

    #[test]
    fn contract_requests_ghosts_for_gradients() {
        let f = DerivedFieldFilter::new(Workload::QCriterion.source(), gpu(), Strategy::Fusion)
            .unwrap();
        let c = f.contract(&Contract::default());
        assert_eq!(c.ghost_layers, 1);
        assert!(c.required_fields.contains("u"));
        assert!(
            !c.required_fields.contains("x"),
            "mesh provides coordinates"
        );
        // Elementwise expressions need no ghosts.
        let f = DerivedFieldFilter::new(
            Workload::VelocityMagnitude.source(),
            gpu(),
            Strategy::Fusion,
        )
        .unwrap();
        assert_eq!(f.contract(&Contract::default()).ghost_layers, 0);
    }

    #[test]
    fn chained_filters_propagate_requirements() {
        // f2 consumes f1's output; upstream only needs u, v, w.
        let mut p = Pipeline::new(source_whole([6, 6, 6]));
        p.add_filter(Box::new(
            DerivedFieldFilter::new("vm = sqrt(u*u + v*v + w*w)\n", gpu(), Strategy::Fusion)
                .unwrap(),
        ));
        p.add_filter(Box::new(
            DerivedFieldFilter::new("loud = vm * 10\n", gpu(), Strategy::Staged).unwrap(),
        ));
        let c = p.upstream_contract();
        assert!(c.required_fields.contains("u"));
        assert!(
            !c.required_fields.contains("vm"),
            "vm is produced inside the pipeline: {c:?}"
        );
        let ds = p.execute().unwrap();
        assert!(ds.has_array("vm"));
        assert!(ds.has_array("loud"));
        let vm = ds.array("vm").unwrap();
        let loud = ds.array("loud").unwrap();
        for i in 0..ds.ncells() {
            assert!((loud.data[i] - 10.0 * vm.data[i]).abs() < 1e-4);
        }
    }

    #[test]
    fn pipeline_executes_once_per_time_step() {
        let mut p = Pipeline::new(source_whole([5, 5, 5]));
        p.add_filter(Box::new(
            DerivedFieldFilter::new(
                Workload::VelocityMagnitude.source(),
                gpu(),
                Strategy::Fusion,
            )
            .unwrap(),
        ));
        p.execute().unwrap();
        p.execute().unwrap();
        p.execute().unwrap();
        assert_eq!(p.executions(), 1, "re-renders reuse the cached result");
        p.mark_dirty();
        p.execute().unwrap();
        assert_eq!(p.executions(), 2);
    }

    #[test]
    fn block_pipeline_matches_global_computation() {
        // A block source with ghost generation must yield exactly the
        // global answer on its interior — the §IV-D.3 property.
        let global_dims = [12usize, 10, 8];
        let global = RectilinearMesh::unit_cube(global_dims);
        let workload = RtWorkload::paper_default();
        // Global answer.
        let fs = FieldSet::for_rt_mesh(&global, &workload);
        let mut engine = Engine::new(gpu());
        let full = engine
            .run(
                &Request::source(Workload::QCriterion.source(), Strategy::Fusion),
                &fs,
            )
            .unwrap()
            .0
            .remove(0);
        // Pipeline on an interior block.
        let blocks = partition_blocks(global_dims, [2, 2, 2]);
        let block = blocks[3]; // offset [6, 5, 0]
        let mut p = Pipeline::new(SyntheticSource {
            global: global.clone(),
            workload,
            block: Some(block),
        });
        p.add_filter(Box::new(
            DerivedFieldFilter::new(Workload::QCriterion.source(), gpu(), Strategy::Fusion)
                .unwrap(),
        ));
        let ds = p.execute().unwrap();
        assert_eq!(ds.mesh.dims(), block.dims, "ghosts stripped");
        let q = ds.array("q_crit").unwrap();
        for k in 0..block.dims[2] {
            for j in 0..block.dims[1] {
                for i in 0..block.dims[0] {
                    let g = global.index(
                        block.offset[0] + i,
                        block.offset[1] + j,
                        block.offset[2] + k,
                    );
                    let l = i + block.dims[0] * (j + block.dims[1] * k);
                    assert_eq!(
                        q.data[l].to_bits(),
                        full.data[g].to_bits(),
                        "mismatch at local ({i},{j},{k})"
                    );
                }
            }
        }
    }

    #[test]
    fn vector_results_become_vtk_vectors() {
        let mut p = Pipeline::new(source_whole([5, 4, 3]));
        p.add_filter(Box::new(
            DerivedFieldFilter::new(
                "vorticity = curl(u, v, w, dims, x, y, z)\n",
                gpu(),
                Strategy::Staged,
            )
            .unwrap(),
        ));
        let ds = p.execute().unwrap();
        let v = ds.array("vorticity").unwrap();
        assert_eq!(v.ncomp, 3);
        assert_eq!(v.ntuples(), ds.ncells());
    }

    #[test]
    fn missing_field_surfaces_as_pipeline_error() {
        let mut p = Pipeline::new(source_whole([4, 4, 4]));
        p.add_filter(Box::new(
            DerivedFieldFilter::new("r = pressure * 2\n", gpu(), Strategy::Fusion).unwrap(),
        ));
        let err = p.execute().unwrap_err();
        assert!(err.to_string().contains("pressure"), "{err}");
    }
}

/// A pipeline sink: consumes the final dataset (rendering, file output).
/// Sinks run on every [`Pipeline::render`] call but the upstream pipeline
/// executes only when dirty — the paper's "executed only once per time step
/// for all rendering operations".
pub trait PipelineSink {
    /// Display name.
    fn name(&self) -> String;
    /// Consume the pipeline result.
    fn consume(&mut self, dataset: &RectilinearDataset) -> Result<(), PipelineError>;
}

/// Writes the pipeline result as a legacy VTK file.
pub struct VtkWriterSink {
    /// Output path.
    pub path: std::path::PathBuf,
    /// File title line.
    pub title: String,
    /// Files written so far.
    pub writes: usize,
}

impl VtkWriterSink {
    /// Write to `path` with `title`.
    pub fn new(path: impl Into<std::path::PathBuf>, title: &str) -> Self {
        VtkWriterSink {
            path: path.into(),
            title: title.to_string(),
            writes: 0,
        }
    }
}

impl PipelineSink for VtkWriterSink {
    fn name(&self) -> String {
        format!("write[{}]", self.path.display())
    }

    fn consume(&mut self, dataset: &RectilinearDataset) -> Result<(), PipelineError> {
        crate::io::write_vtk(dataset, &self.title, &self.path).map_err(|e| {
            PipelineError::Dataset(DatasetError::NoSuchArray {
                name: e.to_string(),
            })
        })?;
        self.writes += 1;
        Ok(())
    }
}

/// Renders one scalar array of the pipeline result as a pseudocolor PPM
/// (the VisIt pseudocolor plot of the paper's Figure 7).
pub struct PseudocolorSink {
    /// Array to render.
    pub array: String,
    /// Output path.
    pub path: std::path::PathBuf,
    /// Images written so far.
    pub renders: usize,
}

impl PseudocolorSink {
    /// Render `array` to `path` (mid-z slice).
    pub fn new(array: &str, path: impl Into<std::path::PathBuf>) -> Self {
        PseudocolorSink {
            array: array.to_string(),
            path: path.into(),
            renders: 0,
        }
    }
}

impl PipelineSink for PseudocolorSink {
    fn name(&self) -> String {
        format!("pseudocolor[{}]", self.array)
    }

    fn consume(&mut self, dataset: &RectilinearDataset) -> Result<(), PipelineError> {
        let arr = dataset.array(&self.array)?;
        if arr.ncomp != 1 {
            return Err(PipelineError::Dataset(DatasetError::ArrayLength {
                name: self.array.clone(),
                expected: dataset.ncells(),
                found: arr.data.len(),
            }));
        }
        let dims = dataset.mesh.dims();
        let img = dfg_cluster::render::render_slice(&arr.data, dims, 2, dims[2] / 2);
        img.write_ppm(&self.path).map_err(|e| {
            PipelineError::Dataset(DatasetError::NoSuchArray {
                name: e.to_string(),
            })
        })?;
        self.renders += 1;
        Ok(())
    }
}

impl Pipeline {
    /// Execute (or reuse the cached result) and feed every sink.
    pub fn render(&mut self, sinks: &mut [&mut dyn PipelineSink]) -> Result<(), PipelineError> {
        self.execute()?;
        let ds = self.cache.as_ref().ok_or(PipelineError::Empty)?;
        for sink in sinks {
            sink.consume(ds)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod sink_tests {
    use super::*;
    use dfg_core::Workload;

    #[test]
    fn sinks_rerun_but_pipeline_executes_once() {
        let dir = std::env::temp_dir().join("dfg_vtk_sinks");
        std::fs::create_dir_all(&dir).unwrap();
        let mut p = Pipeline::new(SyntheticSource {
            global: dfg_mesh::RectilinearMesh::unit_cube([8, 8, 8]),
            workload: dfg_mesh::RtWorkload::paper_default(),
            block: None,
        });
        p.add_filter(Box::new(
            DerivedFieldFilter::new(
                Workload::QCriterion.source(),
                dfg_ocl::DeviceProfile::nvidia_m2050(),
                dfg_core::Strategy::Fusion,
            )
            .unwrap(),
        ));
        let mut writer = VtkWriterSink::new(dir.join("q.vtk"), "q_crit");
        let mut render = PseudocolorSink::new("q_crit", dir.join("q.ppm"));
        // Three "viewpoint changes": sinks run thrice, pipeline once.
        for _ in 0..3 {
            p.render(&mut [&mut writer, &mut render]).unwrap();
        }
        assert_eq!(p.executions(), 1);
        assert_eq!(writer.writes, 3);
        assert_eq!(render.renders, 3);
        // Artifacts exist and parse.
        let ds = crate::io::read_vtk(&dir.join("q.vtk")).unwrap();
        assert!(ds.has_array("q_crit"));
        assert!(std::fs::read(dir.join("q.ppm")).unwrap().starts_with(b"P6"));
    }

    #[test]
    fn pseudocolor_rejects_vector_arrays() {
        let dir = std::env::temp_dir().join("dfg_vtk_sinks2");
        std::fs::create_dir_all(&dir).unwrap();
        let mut p = Pipeline::new(SyntheticSource {
            global: dfg_mesh::RectilinearMesh::unit_cube([6, 6, 6]),
            workload: dfg_mesh::RtWorkload::paper_default(),
            block: None,
        });
        p.add_filter(Box::new(
            DerivedFieldFilter::new(
                "vort = curl(u, v, w, dims, x, y, z)\n",
                dfg_ocl::DeviceProfile::nvidia_m2050(),
                dfg_core::Strategy::Fusion,
            )
            .unwrap(),
        ));
        let mut render = PseudocolorSink::new("vort", dir.join("v.ppm"));
        assert!(p.render(&mut [&mut render]).is_err());
    }
}
