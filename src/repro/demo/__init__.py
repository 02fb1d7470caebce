"""Programmatic demo backend (the web UI's substance, sans browser)."""

from .advisor import SketchRecommendation, coverage_of, recommend_sketches
from ..core.builder import PendingBuild
from .manager import SketchManager
from .monitor import Monitor, MonitorEvent
from .template_service import TemplateResult, TemplateSeries, run_template

__all__ = [
    "SketchManager",
    "PendingBuild",
    "Monitor",
    "MonitorEvent",
    "run_template",
    "TemplateResult",
    "TemplateSeries",
    "SketchRecommendation",
    "recommend_sketches",
    "coverage_of",
]
