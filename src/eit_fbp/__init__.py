"""Forward simulation and filtered-back-projection reconstruction for circular
EIT phantoms."""

from .config import EMIT_KINDS, ParseError, RunConfig, ValidationError, config_to_dict, parse_config
from .fbp import (
    EmptySinogram,
    FilterKind,
    FrequencyOutOfRange,
    InterpKind,
    ReconConfig,
    back_project,
    filter_gain,
    filter_projection,
    reconstruct,
    sample_projection,
)
from .phantom import (
    Circle,
    NonPositiveDimension,
    NonPositiveRadius,
    OverlappingPerturbations,
    PerturbationOutsideSubject,
    Phantom,
    PhantomError,
    Point,
    chord_length,
    rotate_center,
    strip_area,
    validate,
)
from .pipeline import run_pipeline, sinogram_csv_text
from .projector import (
    IndexOutOfRange,
    InvalidAngleStep,
    Projection,
    Quantity,
    Sinogram,
    compute_sinogram,
    project,
    slice_avg_conductivity,
    slice_bounds,
    slice_conductance,
    slice_count,
    sweep_angles,
)
from .radon_oracle import discrete_radon, round_trip
from .raster import (
    MetricsReport,
    RasterImage,
    SizeMismatch,
    compare,
    inscribed_mask,
    normalize_image,
    pixel_centers,
    rasterize_target,
)

__version__ = "0.1.0"
