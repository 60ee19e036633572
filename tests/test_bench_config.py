"""The benchmark's pipeline configs are still valid configs.

``bench/workloads.py`` writes a ``config.json`` for each workload, setting
fields such as ``projection.init_range`` and ``sgns.min_count``. A config
change that deletes or renames one of them would otherwise show only when
the benchmark runs; here it fails at once, without loading any input.
"""

import importlib.util
import os
import sys

import pytest

from clirkit.pipeline import PipelineConfig

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench", "workloads.py")
_spec = importlib.util.spec_from_file_location("bench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # its dataclass looks its module up there
_spec.loader.exec_module(workloads)

_PATHS = {key: f"{key}.txt" for key in ("source_docs", "target_docs", "dictionary",
                                        "topics", "qrels")}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_configs_are_pipeline_configs(name):
    workload = workloads.WORKLOADS[name]
    for method in (workload.method, *workload.beats):
        raw = workloads.pipeline_config(workload, _PATHS, method=method)
        cfg = PipelineConfig.from_dict(raw)
        assert cfg.method == method
        assert cfg.projection.init_range == raw["projection"]["init_range"]
        assert cfg.sgns.min_count == raw["sgns"]["min_count"]
