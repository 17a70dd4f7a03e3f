"""Event-camera gesture recognition.

Per-event pipeline: dynamic background suppression, linear-decay
time-surface features, hierarchical online prototype learning, and
histogram-signature k-NN classification, plus synthetic stream generators
and brute-force reference implementations for verification.
"""

from .events import (
    ClipRecord, Event, EventStream, SensorGeometry, StreamError,
    load_manifest, read_binary_events, read_text_events,
    write_binary_events, write_text_events,
)
from .dbs import DbsConfig, DbsFilter, filter_stream, update_activity
from .surfaces import TimeSurface, TimeSurfaceConfig, TimestampMemory, extract, is_valid
from .network import (
    Layer, LayerConfig, Network, UndertrainedLayerError,
    learn_update, train,
)
from .classify import (
    PoolingConfig, Signature, TrainedModel, accumulate, evaluate,
    knn_classify, normalize, split_by_class,
)
from .config import ConfigError, LayerSpec, PipelineConfig, parse_config
from .synth import (
    BlobSpec, CompositeSpec, LabeledStream, MovingBarSpec, gen_composite,
    gen_gesture_clip, gen_gesture_set, gen_moving_bar, gen_translating_blob,
)
from .pipeline import (
    RunReport, TrainedPipeline, benchmark, build_network, evaluate_pipeline,
    load_pipeline, save_pipeline, stream_signature, train_pipeline,
)

__version__ = "0.1.0"
