"""Experiment harness: scenarios for every paper figure/table.

:mod:`repro.experiments.common` builds populated testbeds and drives
streams; :mod:`repro.experiments.scenarios` declares each paper artifact
(Fig. 2–14, Tables I–II) once: its entry point and the renderer of its
reports; :mod:`repro.experiments.report` holds the paper-style row
helpers; :mod:`repro.experiments.paperdata` holds the digitized published
numbers for side-by-side comparison.
"""

from repro.experiments.common import RunResult, Testbed, quick_brisa_run

__all__ = ["RunResult", "Testbed", "quick_brisa_run"]
