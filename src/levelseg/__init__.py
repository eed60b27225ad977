"""3D level-set segmentation toolkit: classical and geodesic front
evolution with Lax-Friedrichs finite differences, CT-style preprocessing,
connected-component cleanup and segmentation metrics."""

from .active import ActiveSet
from .metrics import MetricsReport, assd, compute_report, dice, hausdorff, jaccard, surface_voxels
from .phantom import OrganSpec, PhantomSpec, TubeSpec, default_suite, generate_phantom, tube_seed
from .postprocess import clean_spurious, postprocess, reduce_components
from .preprocess import (
    clip_hu,
    equalize_slices,
    gaussian_smooth,
    preprocess_pipeline,
    tissue_mask,
)
from .solver import (
    EvolutionResult,
    LevelSetField,
    SolverConfig,
    curvature_3d,
    evolve,
    extract_mask,
    init_levelset,
    llf_hamiltonian,
    step,
)
from .speed import Model, build_speed, cfl_dt
from .volumes import (
    BinaryMask,
    ScalarVolume,
    VoxelIndex,
    load_mask,
    load_volume,
    store_volume,
)

__version__ = "0.1.0"
