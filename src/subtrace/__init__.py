"""Metro trip inference from phone accelerometer traces.

The package pairs a synthetic metro/sensor simulator with the full inference
pipeline: earth-frame transformation, metro ride extraction, stop-slot
segmentation, per-segment features, ensemble interval classification, voting
trace inference, and a semi-supervised label bootstrap.  Everything is seeded
and reproducible. The command-line front end, ``subtrace.cli``, is imported
only when used (``python -m subtrace`` or the ``subtrace`` script).
"""

from . import (
    classify,
    coord,
    evalharness,
    extract,
    features,
    infer,
    model,
    pipeline,
    segment,
    semisup,
    simgen,
)

__version__ = "0.1.0"

__all__ = [
    "classify",
    "coord",
    "evalharness",
    "extract",
    "features",
    "infer",
    "model",
    "pipeline",
    "segment",
    "semisup",
    "simgen",
    "__version__",
]
