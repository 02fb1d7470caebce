"""Re-export of :class:`repro.core.manager.SketchManager`.

The sketch store lives in :mod:`repro.core.manager`.  This module is
kept only because the end-to-end benchmark (``benchmarks/e2e/``)
imports ``repro.demo.manager.SketchManager`` and times
``repro.demo.manager:SketchManager.route_name``; the benchmark change
of ROADMAP item 11(b) retargets those and deletes this module.
"""

from ..core.manager import SketchManager

__all__ = ["SketchManager"]
