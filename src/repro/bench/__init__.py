"""The experiment harness: every table and figure of §V as rows checked
against the paper (``repro.bench.experiments``); ``python -m repro.bench
<experiment>|all`` renders them."""

from repro.bench.runner import SCALE_PRESETS, run_point

__all__ = ["SCALE_PRESETS", "run_point"]
