"""Event-camera depth estimation toolkit.

Core surfaces: event streams and slicing (``events``), the threshold-model
simulator (``simulator``), stack encoders (``stacks``), affine-invariant
supervision (``losses``), the evaluation protocol (``metrics``), the
recurrent fusion runner (``fusion``), the distillation dataset pipeline
(``pipeline``), raster I/O (``imgio``), and the CLI (``cli``).
"""

from .events import (
    Event,
    EventSlice,
    EventStream,
    SliceMode,
    SliceSpec,
    read_events,
    slice_events,
    slice_sbn,
    slice_sbt,
    write_events,
)
from .fusion import (
    FeaturePyramid,
    ModelParams,
    convlstm_step,
    depth_head,
    fuse,
    load_model_params,
    make_model_params,
    run_sequence,
    save_model_params,
    toy_extractor,
)
from .losses import (
    AffineParams,
    LossReport,
    LossTerm,
    loss_reg,
    loss_si,
    loss_total,
    lstsq_align,
)
from .metrics import MetricsReport, aggregate, evaluate
from .pipeline import (
    DatasetManifest,
    EncoderSpec,
    Provenance,
    SampleRecord,
    TrainingStep,
    build_manifest,
    export_stacks,
    load_manifest,
    save_manifest,
    training_step,
)
from .simulator import IntensityFrame, SimConfig, frame_from_pgm, frames_from_dir, simulate
from .stacks import (
    EventStack,
    StackLayout,
    encode,
    encode_image_like,
    encode_tencode,
    encode_voxel,
)

__version__ = "0.1.0"
