//! Hardware description of the training cluster (Section 5.2 of the paper).
//!
//! The paper's evaluation system is homogeneous — sixteen identical GPUs —
//! but real fleets mix GPU generations with different HBM sizes and
//! bandwidths. The cluster is therefore described by a small set of
//! [`DeviceClass`]es (the distinct GPU SKUs present) plus a per-GPU class
//! assignment: [`ClusterSpec`]. Every consumer — the cost models, the MILP
//! formulation, the greedy/scalable/hierarchical solvers, the discrete-event
//! simulator, the serving layer and the analytical estimator — reads per-GPU
//! capacities and bandwidths through this type.
//!
//! [`ClusterSpec::uniform`] builds the single-class cluster and reproduces
//! the historical homogeneous `SystemSpec` behaviour exactly (same
//! constructor signature, same derived quantities), so every seeded golden
//! fingerprint in the repo is unchanged; `SystemSpec` survives as a type
//! alias for source compatibility.

/// Number of bytes in one gibibyte.
pub const GIB: u64 = 1 << 30;

/// One GPU SKU: the HBM reserved for embeddings, the host DRAM reachable
/// over UVM, and the bandwidths of both tiers as seen from the GPU.
///
/// The paper's evaluation devices reserve 24 GB of HBM and 128 GB of host
/// DRAM per GPU with A100-class HBM bandwidth and PCIe 3.0x16 UVM bandwidth;
/// [`DeviceClass::paper_a100`] encodes exactly that.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceClass {
    /// Short human-readable SKU label (e.g. `"a100"`).
    pub name: &'static str,
    /// HBM bytes reserved for embedding tables on each GPU of this class
    /// (`Cap_D`).
    pub hbm_capacity: u64,
    /// Host DRAM bytes reachable via UVM for each GPU of this class
    /// (`Cap_H`).
    pub dram_capacity: u64,
    /// HBM bandwidth in GB/s as seen by the embedding kernels (`BW_HBM`).
    pub hbm_bandwidth_gbps: f64,
    /// UVM (interconnect) bandwidth in GB/s (`BW_UVM`).
    pub uvm_bandwidth_gbps: f64,
}

impl DeviceClass {
    /// Builds a device class.
    ///
    /// # Panics
    ///
    /// Panics if either bandwidth is not positive.
    pub fn new(
        name: &'static str,
        hbm_capacity: u64,
        dram_capacity: u64,
        hbm_bandwidth_gbps: f64,
        uvm_bandwidth_gbps: f64,
    ) -> Self {
        assert!(
            hbm_bandwidth_gbps > 0.0 && uvm_bandwidth_gbps > 0.0,
            "bandwidths must be positive"
        );
        Self {
            name,
            hbm_capacity,
            dram_capacity,
            hbm_bandwidth_gbps,
            uvm_bandwidth_gbps,
        }
    }

    /// The paper's evaluation device: 24 GB HBM + 128 GB host DRAM,
    /// A100-class HBM bandwidth (1555 GB/s) and PCIe 3.0x16 UVM bandwidth
    /// (16 GB/s single-direction achievable).
    pub fn paper_a100() -> Self {
        Self::new("a100", 24 * GIB, 128 * GIB, 1555.0, 16.0)
    }

    /// Ratio of HBM to UVM bandwidth — the penalty factor for placing hot
    /// rows in the wrong tier (two orders of magnitude on the paper's
    /// devices).
    pub fn bandwidth_ratio(&self) -> f64 {
        self.hbm_bandwidth_gbps / self.uvm_bandwidth_gbps
    }

    /// A copy with capacities divided by `factor` (bandwidths unchanged).
    pub fn scaled(&self, factor: u64) -> Self {
        assert!(factor > 0, "scale factor must be non-zero");
        Self {
            hbm_capacity: (self.hbm_capacity / factor).max(1),
            dram_capacity: (self.dram_capacity / factor).max(1),
            ..*self
        }
    }
}

/// Description of a (possibly heterogeneous) training cluster: the distinct
/// [`DeviceClass`]es present and, for every GPU, which class it belongs to.
///
/// Consumers read hardware parameters *per GPU*
/// ([`hbm_capacity`](Self::hbm_capacity),
/// [`hbm_bandwidth_gbps`](Self::hbm_bandwidth_gbps), …); aggregate
/// quantities ([`total_hbm_capacity`](Self::total_hbm_capacity), …) sum
/// over the per-GPU values. Class index 0
/// is the *reference class*: solvers build their shared split-selection
/// menus against it (for a uniform cluster it is the only class, so the
/// historical behaviour is reproduced bit-for-bit).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    classes: Vec<DeviceClass>,
    class_of_gpu: Vec<usize>,
}

/// Source-compatibility alias for the pre-heterogeneity flat system type.
/// `SystemSpec::uniform(gpus, hbm, dram, hbm_bw, uvm_bw)` keeps its exact
/// historical signature and semantics through [`ClusterSpec::uniform`].
pub type SystemSpec = ClusterSpec;

impl ClusterSpec {
    /// Builds a cluster from explicit classes and a per-GPU class
    /// assignment.
    ///
    /// # Panics
    ///
    /// Panics if there are no classes, no GPUs, or an assignment indexes a
    /// missing class.
    pub fn with_classes(classes: Vec<DeviceClass>, class_of_gpu: Vec<usize>) -> Self {
        assert!(
            !classes.is_empty(),
            "cluster needs at least one device class"
        );
        assert!(!class_of_gpu.is_empty(), "system needs at least one GPU");
        for &c in &class_of_gpu {
            assert!(c < classes.len(), "GPU assigned to missing class {c}");
        }
        Self {
            classes,
            class_of_gpu,
        }
    }

    /// Builds a cluster from contiguous blocks of identical GPUs:
    /// `groups[i] = (class, count)` contributes `count` GPUs of that class,
    /// in order. GPU ids therefore run class-block-major, matching the
    /// node-major convention of [`NodeTopology`](crate::NodeTopology) when
    /// whole nodes share a SKU.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty or every count is zero.
    pub fn mixed(groups: &[(DeviceClass, usize)]) -> Self {
        let classes: Vec<DeviceClass> = groups.iter().map(|(c, _)| *c).collect();
        let class_of_gpu: Vec<usize> = groups
            .iter()
            .enumerate()
            .flat_map(|(i, &(_, count))| std::iter::repeat_n(i, count))
            .collect();
        Self::with_classes(classes, class_of_gpu)
    }

    /// Builds a homogeneous cluster: one device class shared by every GPU.
    /// This is the historical `SystemSpec::uniform` constructor, argument
    /// for argument.
    ///
    /// # Panics
    ///
    /// Panics if `num_gpus == 0` or either bandwidth is not positive.
    pub fn uniform(
        num_gpus: usize,
        hbm_capacity_per_gpu: u64,
        dram_capacity_per_gpu: u64,
        hbm_bandwidth_gbps: f64,
        uvm_bandwidth_gbps: f64,
    ) -> Self {
        assert!(num_gpus > 0, "system needs at least one GPU");
        Self::with_classes(
            vec![DeviceClass::new(
                "gpu",
                hbm_capacity_per_gpu,
                dram_capacity_per_gpu,
                hbm_bandwidth_gbps,
                uvm_bandwidth_gbps,
            )],
            vec![0; num_gpus],
        )
    }

    /// The 16-GPU evaluation system of the paper (sixteen
    /// [`DeviceClass::paper_a100`] devices).
    pub fn paper_16_gpu() -> Self {
        let c = DeviceClass::paper_a100();
        Self::uniform(
            16,
            c.hbm_capacity,
            c.dram_capacity,
            c.hbm_bandwidth_gbps,
            c.uvm_bandwidth_gbps,
        )
    }

    /// Same device geometry as [`paper_16_gpu`](Self::paper_16_gpu) with a
    /// different GPU count.
    pub fn paper_with_gpus(num_gpus: usize) -> Self {
        assert!(num_gpus > 0, "system needs at least one GPU");
        let mut s = Self::paper_16_gpu();
        s.class_of_gpu = vec![0; num_gpus];
        s
    }

    /// Returns a copy with every class's capacities divided by `factor`
    /// (bandwidths unchanged). Scaling the system and the model by the same
    /// factor keeps the capacity *pressure* — and hence the placement
    /// problem — unchanged while shrinking simulation state.
    pub fn scaled(&self, factor: u64) -> Self {
        Self {
            classes: self.classes.iter().map(|c| c.scaled(factor)).collect(),
            class_of_gpu: self.class_of_gpu.clone(),
        }
    }

    /// Returns a copy with every device class rewritten by `f` (e.g. to
    /// tighten HBM for a capacity-pressure experiment without touching the
    /// class assignment).
    pub fn map_classes(&self, f: impl FnMut(DeviceClass) -> DeviceClass) -> Self {
        Self {
            classes: self.classes.iter().copied().map(f).collect(),
            class_of_gpu: self.class_of_gpu.clone(),
        }
    }

    /// Number of GPUs (trainers).
    pub fn num_gpus(&self) -> usize {
        self.class_of_gpu.len()
    }

    /// The distinct device classes of the cluster.
    pub fn classes(&self) -> &[DeviceClass] {
        &self.classes
    }

    /// Number of device classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Class index of a GPU.
    ///
    /// # Panics
    ///
    /// Panics if `gpu` is out of range.
    pub fn class_of(&self, gpu: usize) -> usize {
        self.class_of_gpu[gpu]
    }

    /// The device class of a GPU.
    pub fn device(&self, gpu: usize) -> &DeviceClass {
        &self.classes[self.class_of_gpu[gpu]]
    }

    /// The reference class (index 0) solvers build shared menus against.
    pub fn reference_class(&self) -> &DeviceClass {
        &self.classes[0]
    }

    /// GPU ids belonging to a class, ascending.
    pub fn gpus_in_class(&self, class: usize) -> Vec<usize> {
        self.class_of_gpu
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == class)
            .map(|(g, _)| g)
            .collect()
    }

    /// Whether every GPU shares one device class — the regime in which the
    /// MILP's optimum set is closed under arbitrary GPU permutation.
    pub fn is_uniform(&self) -> bool {
        self.class_of_gpu.iter().all(|&c| c == self.class_of_gpu[0])
    }

    /// HBM bytes reserved for embeddings on `gpu`.
    pub fn hbm_capacity(&self, gpu: usize) -> u64 {
        self.device(gpu).hbm_capacity
    }

    /// Host DRAM bytes reachable via UVM for `gpu`.
    pub fn dram_capacity(&self, gpu: usize) -> u64 {
        self.device(gpu).dram_capacity
    }

    /// HBM bandwidth of `gpu` in GB/s.
    pub fn hbm_bandwidth_gbps(&self, gpu: usize) -> f64 {
        self.device(gpu).hbm_bandwidth_gbps
    }

    /// UVM bandwidth of `gpu` in GB/s.
    pub fn uvm_bandwidth_gbps(&self, gpu: usize) -> f64 {
        self.device(gpu).uvm_bandwidth_gbps
    }

    /// Ratio of HBM to UVM bandwidth on `gpu` — the penalty factor for
    /// placing hot rows in the wrong tier.
    pub fn bandwidth_ratio(&self, gpu: usize) -> f64 {
        self.device(gpu).bandwidth_ratio()
    }

    /// Total HBM bytes reserved for embeddings across all GPUs.
    pub fn total_hbm_capacity(&self) -> u64 {
        self.class_of_gpu
            .iter()
            .map(|&c| self.classes[c].hbm_capacity)
            .sum()
    }

    /// Total host DRAM bytes reachable via UVM across all GPUs.
    pub fn total_dram_capacity(&self) -> u64 {
        self.class_of_gpu
            .iter()
            .map(|&c| self.classes[c].dram_capacity)
            .sum()
    }

    /// Total memory available to embeddings across all tiers and GPUs.
    pub fn total_capacity(&self) -> u64 {
        self.total_hbm_capacity() + self.total_dram_capacity()
    }
}

impl Default for ClusterSpec {
    fn default() -> Self {
        Self::paper_16_gpu()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_system_geometry() {
        let s = SystemSpec::paper_16_gpu();
        assert_eq!(s.num_gpus(), 16);
        assert_eq!(s.total_hbm_capacity(), 16 * 24 * GIB);
        assert_eq!(s.total_dram_capacity(), 16 * 128 * GIB);
        assert!(
            s.bandwidth_ratio(0) > 90.0,
            "HBM should be ~100x faster than UVM"
        );
        assert!(s.is_uniform());
    }

    #[test]
    fn scaled_system_divides_capacity_only() {
        let s = SystemSpec::paper_16_gpu().scaled(1024);
        assert_eq!(s.hbm_capacity(0), 24 * GIB / 1024);
        assert_eq!(s.hbm_bandwidth_gbps(0), 1555.0);
        assert_eq!(s.num_gpus(), 16);
    }

    #[test]
    fn gpu_count_override() {
        let s = SystemSpec::paper_with_gpus(8);
        assert_eq!(s.num_gpus(), 8);
        assert_eq!(s.hbm_capacity(7), 24 * GIB);
    }

    #[test]
    #[should_panic(expected = "system needs at least one GPU")]
    fn zero_gpus_rejected() {
        let _ = SystemSpec::uniform(0, 1, 1, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "bandwidths must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = SystemSpec::uniform(1, 1, 1, 0.0, 1.0);
    }

    #[test]
    fn mixed_cluster_reads_per_gpu_parameters() {
        let big = DeviceClass::new("big", 64 * GIB, 128 * GIB, 2000.0, 32.0);
        let small = DeviceClass::new("small", 16 * GIB, 128 * GIB, 900.0, 16.0);
        let s = ClusterSpec::mixed(&[(big, 2), (small, 2)]);
        assert_eq!(s.num_gpus(), 4);
        assert_eq!(s.num_classes(), 2);
        assert!(!s.is_uniform());
        assert_eq!(s.class_of(0), 0);
        assert_eq!(s.class_of(3), 1);
        assert_eq!(s.hbm_capacity(0), 64 * GIB);
        assert_eq!(s.hbm_capacity(3), 16 * GIB);
        assert_eq!(s.hbm_bandwidth_gbps(1), 2000.0);
        assert_eq!(s.uvm_bandwidth_gbps(2), 16.0);
        assert_eq!(s.total_hbm_capacity(), 2 * 64 * GIB + 2 * 16 * GIB);
        assert_eq!(s.gpus_in_class(0), vec![0, 1]);
        assert_eq!(s.gpus_in_class(1), vec![2, 3]);
        assert_eq!(s.reference_class().name, "big");
    }

    #[test]
    fn uniform_round_trips_with_explicit_classes() {
        let via_uniform = ClusterSpec::uniform(4, 1 << 30, 1 << 34, 1555.0, 16.0);
        let via_classes = ClusterSpec::with_classes(
            vec![DeviceClass::new("gpu", 1 << 30, 1 << 34, 1555.0, 16.0)],
            vec![0; 4],
        );
        assert_eq!(via_uniform, via_classes);
        assert!(via_classes.is_uniform());
    }

    #[test]
    #[should_panic(expected = "GPU assigned to missing class")]
    fn out_of_range_class_rejected() {
        let _ = ClusterSpec::with_classes(vec![DeviceClass::paper_a100()], vec![0, 1]);
    }
}
