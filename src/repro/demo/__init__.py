"""Programmatic demo backend (the web UI's substance, sans browser)."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "..core.builder": ("PendingBuild",),
        "..core.manager": ("SketchManager",),
        "..core.monitor": ("Monitor", "MonitorEvent"),
        ".template_service": (
            "TemplateResult",
            "TemplateSeries",
            "run_template",
        ),
    },
)

__all__ = [
    "SketchManager",
    "PendingBuild",
    "Monitor",
    "MonitorEvent",
    "run_template",
    "TemplateResult",
    "TemplateSeries",
]
