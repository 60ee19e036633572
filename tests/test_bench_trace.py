"""The benchmark's traced worker still runs against the pipeline.

``bench/tracer.py`` wraps functions under the names ``clirkit.pipeline``
resolves, so a pipeline refactor that renames one, or stops calling
``run_topic`` once per topic, breaks the benchmark. This runs
``bench/worker.py --trace`` for one round on the small corpus and checks
that the tracer installed and recorded one ``pipeline.topic`` span per
topic inside one ``pipeline.experiment`` span.
"""

import json
import os
import subprocess
import sys

from conftest import write_config

WORKER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "bench", "worker.py")


def test_traced_worker_records_one_span_per_topic(small_config, small_corpus_dir, tmp_path):
    config = write_config(tmp_path, small_config)
    trace = tmp_path / "trace.json"
    proc = subprocess.run([sys.executable, WORKER, "--config", config,
                           "--out", str(tmp_path / "rounds"), "--seconds", "0",
                           "--trace", str(trace)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["error"] is None
    assert len(report["rounds"]) == 1
    spans = json.loads(trace.read_text())["spans"]
    names = [span["name"] for span in spans]
    topics = len(small_corpus_dir["data"].topics)
    assert report["topics"] == topics
    assert names.count("pipeline.experiment") == 1
    assert names.count("pipeline.topic") == topics
    experiment = names.index("pipeline.experiment")
    assert all(span["parent"] == experiment for span in spans
               if span["name"] == "pipeline.topic")
    assert (tmp_path / "rounds" / "round0" / "testrun.run").exists()
