"""Real-time lane region extraction from drivable-area segmentation masks."""

__version__ = "0.1.0"

from .core import ClassId, RoadClass, SegmentationMask
from .regions import DrivableRegion, ExtractionConfig, RegionSet, extract_regions
from .policy import NavigationAdvice, advise

__all__ = [
    "__version__",
    "ClassId",
    "RoadClass",
    "SegmentationMask",
    "DrivableRegion",
    "ExtractionConfig",
    "RegionSet",
    "extract_regions",
    "NavigationAdvice",
    "advise",
]
