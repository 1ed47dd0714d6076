"""End-to-end observability: metrics agree with ground truth, the span
tree covers every pipeline phase, and instrumentation never perturbs a
seeded run."""

import json

import pytest

from repro import obs
from repro.benchmark import study_digest
from repro.cli import main
from repro.core.pipeline import DetectionPipeline
from repro.experiments import EXPERIMENTS, Workbench, run_experiment
from repro.simulation import SimulationConfig
from tests.helpers import parse_prometheus

# The experiments whose rendered output we compare across enabled /
# disabled runs: one measurement, one review join, and the full
# classifier pipeline (table1 forces DetectionPipeline.run).
_COMPARED = ("fig00", "fig07", "table1")


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.reset()
    yield
    obs.reset()


def _run(experiment_ids) -> tuple[Workbench, dict[str, str]]:
    workbench = Workbench(
        SimulationConfig.small(), pipeline=DetectionPipeline(n_splits=4)
    )
    return workbench, {
        eid: run_experiment(eid, workbench).render() for eid in experiment_ids
    }


class TestInstrumentedStudy:
    @pytest.fixture(scope="class")
    def instrumented(self):
        obs.reset()
        registry = obs.configure()
        workbench = Workbench(
            SimulationConfig.small(), pipeline=DetectionPipeline(n_splits=4)
        )
        renders = {
            eid: run_experiment(eid, workbench).render() for eid in EXPERIMENTS
        }
        tracer = obs.tracer()
        yield workbench, registry, tracer, renders
        obs.reset()

    def test_ingest_metrics_match_server_stats(self, instrumented):
        workbench, registry, _tracer, _renders = instrumented
        stats = workbench.data.server.stats
        assert stats.records_inserted > 0
        assert registry.value("ingest_records_inserted_total") == stats.records_inserted
        assert registry.value("ingest_chunks_received_total") == stats.chunks_received
        assert registry.value("ingest_bytes_received_total") == stats.bytes_received

    def test_crawl_metrics_match_crawler_stats(self, instrumented):
        workbench, registry, _tracer, _renders = instrumented
        crawler = workbench.data.review_crawler
        assert registry.value("crawl_rounds_total") == crawler.stats.crawl_rounds
        assert (
            registry.value("crawl_reviews_collected_total")
            == crawler.stats.reviews_collected
        )

    def test_simulation_phases_traced(self, instrumented):
        _wb, _registry, tracer, _renders = instrumented
        for name in ("simulate", "simulate.days", "simulate.phase1", "simulate.commit",
                     "simulate.rank", "ingest.chunk", "crawl.round",
                     "pipeline", "pipeline.app_eval", "pipeline.device_eval"):
            node = tracer.find(name)
            assert node is not None, f"span {name} missing"
            assert node.calls >= 1

    def test_each_study_day_splits_into_phase1_commit_and_rank(self, instrumented):
        workbench, _registry, tracer, _renders = instrumented
        day = tracer.find("simulate.day")
        assert day.calls == workbench.data.config.study_days
        for name in ("simulate.phase1", "simulate.commit", "simulate.rank"):
            assert day.children[name].calls == day.calls
        assert "ingest.chunk" in day.children["simulate.commit"].children

    def test_every_experiment_id_in_span_tree(self, instrumented):
        _wb, _registry, tracer, _renders = instrumented
        span_names = {node.name for _path, node in tracer.spans()}
        for eid in EXPERIMENTS:
            assert f"experiment.{eid}" in span_names

    def test_per_model_fit_histograms_populated(self, instrumented):
        _wb, registry, _tracer, _renders = instrumented
        fit_series = registry.series("ml_fit_seconds")
        models = {dict(h.labels)["model"] for h in fit_series}
        assert {"XGB", "RF", "KNN", "LVQ"} <= models
        assert all(h.count > 0 for h in fit_series)

    def test_sim_events_counted_per_persona(self, instrumented):
        _wb, registry, _tracer, _renders = instrumented
        series = registry.series("sim_events_total")
        personas = {dict(c.labels)["persona"] for c in series}
        assert "regular" in personas
        assert personas & {"organic_worker", "dedicated_worker"}
        assert all(c.value > 0 for c in series)

    def test_prometheus_export_includes_ingest_family(self, instrumented):
        _wb, registry, _tracer, _renders = instrumented
        text = registry.render_prometheus()
        samples = parse_prometheus(text)
        assert samples["ingest_records_inserted_total"] > 0
        assert any(k.startswith("ml_fit_seconds_bucket") for k in samples)

    def test_seeded_output_identical_with_obs_disabled(self, instrumented):
        workbench, _registry, _tracer, renders = instrumented
        obs.reset()
        plain_workbench, plain = _run(_COMPARED)
        for eid in _COMPARED:
            assert renders[eid] == plain[eid], f"{eid} output changed under obs"
        assert study_digest(workbench.data) == study_digest(plain_workbench.data)


class TestMalformedSplit:
    def test_transport_vs_schema_counted_separately(self):
        import gzip

        from repro.platform.server import RacketStoreServer

        server = RacketStoreServer()
        server.receive_chunk("fast", b"not gzip at all")
        assert server.stats.malformed_chunks == 1
        assert server.stats.malformed_records == 0

        server.receive_chunk("fast", gzip.compress(b'{"broken json\n'))
        assert server.stats.malformed_chunks == 1
        assert server.stats.malformed_records == 1


class TestProfileCli:
    def test_profile_prints_span_tree_and_writes_metrics(self, tmp_path, capsys):
        out = tmp_path / "metrics.json"
        assert main(["--scale", "small", "profile", "--metrics-out", str(out)]) == 0
        printed = capsys.readouterr().out
        for phase in ("simulate", "ingest.chunk", "crawl.round", "experiment.table1"):
            assert phase in printed
        assert "top 12 slowest spans" in printed

        doc = json.loads(out.read_text())
        assert doc["counters"]["ingest_records_inserted_total"] > 0
        assert any(k.startswith("ml_fit_seconds") for k in doc["histograms"])
        # The CLI restored the no-op default on the way out.
        assert not obs.metrics_enabled()

    def test_simulate_metrics_out(self, tmp_path, capsys):
        out = tmp_path / "sim_metrics.json"
        assert main(["--scale", "small", "simulate", "--metrics-out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["counters"]["ingest_chunks_received_total"] > 0
        assert not obs.metrics_enabled()
