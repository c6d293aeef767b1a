"""Campaign expansion, the content-addressed cache, and the worker pool."""

import json

import pytest

from repro.analysis.registry import code_owners
from repro.api import RunSpec
from repro.campaign import (
    CACHE_CODES,
    CampaignSpec,
    ResultCache,
    diff_reports,
    execute_job,
    load_campaign,
    payload_checksum,
    run_campaign,
)
from repro.cli import main
from repro.errors import ConfigurationError

# Cheap on purpose: fig1/table1 are analytic (no simulation) and the ddp
# run is the smallest model at two iterations.
SMALL = CampaignSpec(
    name="small",
    experiments=("fig1", "table1"),
    strategies=("ddp",),
    sizes_billions=(0.7,),
    nodes=(1,),
    iterations=2,
)


class TestCampaignSpec:
    def test_expansion_is_deterministic(self):
        ids_a = [job.job_id for job in SMALL.expand()]
        ids_b = [job.job_id for job in SMALL.expand()]
        assert ids_a == ids_b
        assert ids_a == ["experiment/fig1", "experiment/table1",
                         "run/ddp-0.7b-n1-B"]

    def test_sweep_cross_product_order(self):
        campaign = CampaignSpec(strategies=("ddp", "zero2"),
                                sizes_billions=(0.7, 1.4), nodes=(1, 2))
        ids = [job.job_id for job in campaign.expand()]
        assert ids == [
            "run/ddp-0.7b-n1-B", "run/ddp-0.7b-n2-B",
            "run/ddp-1.4b-n1-B", "run/ddp-1.4b-n2-B",
            "run/zero2-0.7b-n1-B", "run/zero2-0.7b-n2-B",
            "run/zero2-1.4b-n1-B", "run/zero2-1.4b-n2-B",
        ]

    def test_duplicate_jobs_rejected(self):
        campaign = CampaignSpec(experiments=("fig1", "fig1"))
        with pytest.raises(ConfigurationError) as err:
            campaign.expand()
        assert "duplicate" in str(err.value)

    def test_empty_campaign_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec()

    def test_strategies_without_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec(strategies=("ddp",))

    def test_round_trip(self):
        assert CampaignSpec.from_dict(SMALL.to_dict()) == SMALL
        with pytest.raises(ConfigurationError):
            CampaignSpec.from_dict({"experiments": ["fig1"], "turbo": True})

    def test_load_campaign_errors_are_configuration_errors(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_campaign(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_campaign(bad)
        listy = tmp_path / "list.json"
        listy.write_text("[1, 2]")
        with pytest.raises(ConfigurationError):
            load_campaign(listy)

    def test_load_campaign_round_trips_a_saved_spec(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(SMALL.to_dict()))
        assert load_campaign(path) == SMALL


class TestResultCache:
    def put_one(self, cache, payload=None):
        spec = RunSpec(strategy="ddp", size_billions=0.7)
        key = spec.cache_key(salt=cache.salt)
        cache.put(key, kind="run", spec=spec.to_dict(),
                  payload=payload or {"tflops": 1.5})
        return key

    def test_hit_after_put(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = self.put_one(cache, payload={"tflops": 1.5})
        assert cache.get(key) == {"tflops": 1.5}
        assert (cache.hits, cache.misses) == (1, 0)

    def test_miss_on_absent_key(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        assert cache.get("0" * 64) is None
        assert cache.misses == 1

    def test_salt_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path / "c", salt="v1")
        key = self.put_one(cache)
        bumped = ResultCache(tmp_path / "c", salt="v2")
        # Same spec hashes to a different key under the new salt...
        new_key = RunSpec(strategy="ddp",
                          size_billions=0.7).cache_key(salt="v2")
        assert new_key != key
        assert bumped.get(new_key) is None
        # ...and even the old key refuses to serve a stale-salt object.
        assert bumped.get(key) is None
        assert bumped.findings == []

    def test_corruption_is_a_cmp001_finding_and_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = self.put_one(cache)
        path = cache.path_for(key)
        obj = json.loads(path.read_text())
        obj["payload"]["tflops"] = 9999.0  # flip a bit, keep checksum
        path.write_text(json.dumps(obj))
        assert cache.get(key) is None
        assert [f.code for f in cache.findings] == ["CMP001"]
        # The runner's recompute path overwrites the damaged object.
        cache.put(key, kind="run", spec=obj["spec"],
                  payload={"tflops": 1.5})
        assert cache.get(key) == {"tflops": 1.5}

    def test_verify_reports_misfiled_and_malformed_objects(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = self.put_one(cache)
        # CMP002: object stored under a name that is not its key.
        wrong = cache.path_for("ab" + "0" * 62)
        wrong.parent.mkdir(parents=True, exist_ok=True)
        wrong.write_text(cache.path_for(key).read_text())
        # CMP003: not even JSON.
        junk = cache.path_for("cd" + "1" * 62)
        junk.parent.mkdir(parents=True, exist_ok=True)
        junk.write_text("garbage")
        codes = sorted(f.code for f in cache.verify())
        assert codes == ["CMP002", "CMP003"]
        assert all(code in CACHE_CODES for code in codes)

    def test_gc_removes_corrupt_and_stale_keeps_current(self, tmp_path):
        cache = ResultCache(tmp_path / "c", salt="v1")
        self.put_one(cache)
        stale = ResultCache(tmp_path / "c", salt="v0")
        stale.put("9" * 64, kind="run", spec={}, payload={"x": 1})
        junk = cache.path_for("cd" + "1" * 62)
        junk.parent.mkdir(parents=True, exist_ok=True)
        junk.write_text("garbage")
        counts = cache.gc()
        assert counts == {"removed_corrupt": 1, "removed_stale": 1,
                          "kept": 1}
        assert cache.verify() == []

    def test_checksum_is_canonical_over_key_order(self):
        assert (payload_checksum({"a": 1, "b": 2})
                == payload_checksum({"b": 2, "a": 1}))

    def test_cache_root_must_be_a_directory(self, tmp_path):
        squatter = tmp_path / "file"
        squatter.write_text("")
        with pytest.raises(ConfigurationError):
            ResultCache(squatter)

    def test_cmp_codes_are_claimed_in_the_registry(self):
        owners = code_owners()
        for code in CACHE_CODES:
            assert owners[code] == "campaign-cache"


class TestRunCampaign:
    def test_second_run_is_all_hits_and_identical(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        first = run_campaign(SMALL, workers=1, cache=cache)
        assert (first.hits, first.misses) == (0, 3)
        second = run_campaign(SMALL, workers=1, cache=cache)
        assert (second.hits, second.misses) == (3, 0)
        assert second.hit_rate == 1.0
        assert diff_reports(first, second) == []

    def test_parallel_matches_serial_fields(self, tmp_path):
        serial = run_campaign(SMALL, workers=1, cache=None)
        parallel = run_campaign(SMALL, workers=4, cache=None)
        assert [j.job_id for j in serial.jobs] == \
               [j.job_id for j in parallel.jobs]
        assert diff_reports(serial, parallel) == []

    def test_parallel_populates_the_same_cache_objects(self, tmp_path):
        cache_a = ResultCache(tmp_path / "a")
        cache_b = ResultCache(tmp_path / "b")
        run_campaign(SMALL, workers=1, cache=cache_a)
        run_campaign(SMALL, workers=4, cache=cache_b)
        names_a = sorted(p.name for p in (tmp_path / "a").rglob("*.json"))
        names_b = sorted(p.name for p in (tmp_path / "b").rglob("*.json"))
        assert names_a == names_b and len(names_a) == 3

    def test_workers_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            run_campaign(SMALL, workers=0)

    def test_progress_reports_cached_jobs(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        campaign = CampaignSpec(experiments=("fig1",))
        run_campaign(campaign, workers=1, cache=cache)
        lines = []
        run_campaign(campaign, workers=1, cache=cache,
                     progress=lines.append)
        assert any(line.startswith("cached") for line in lines)

    def test_execute_job_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            execute_job({"job_id": "x", "kind": "bake", "spec": {}})

    def test_run_job_payload_matches_direct_metrics(self):
        from repro.api import run_spec
        from repro.core.results import metrics_to_dict

        spec = RunSpec(strategy="ddp", size_billions=0.7, iterations=2)
        via_job = execute_job({"job_id": "run/x", "kind": "run",
                               "spec": spec.to_dict()})
        assert via_job == metrics_to_dict(run_spec(spec))

    def test_report_round_trip_and_lookup(self, tmp_path):
        report = run_campaign(CampaignSpec(experiments=("fig1",)),
                              workers=1, cache=None)
        saved = report.save(tmp_path / "report.json")
        payload = json.loads(saved.read_text())
        assert payload["job_count"] == 1
        assert payload["jobs"][0]["job_id"] == "experiment/fig1"
        assert report.job("experiment/fig1").cached is False
        with pytest.raises(KeyError):
            report.job("experiment/fig99")


class TestCampaignCli:
    def test_run_twice_hits_cache(self, tmp_path, capsys):
        argv = ["campaign", "run", "--experiment", "fig1",
                "--experiment", "table1",
                "--cache-dir", str(tmp_path / "c"), "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert (first["cache_hits"], first["cache_misses"]) == (0, 2)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert (second["cache_hits"], second["cache_misses"]) == (2, 0)
        assert second["hit_rate"] == 1.0

    def test_run_from_spec_file_with_report(self, tmp_path, capsys):
        spec_path = tmp_path / "campaign.json"
        spec_path.write_text(json.dumps(
            {"name": "filed", "experiments": ["fig1"]}))
        report_path = tmp_path / "report.json"
        code = main(["campaign", "run", "--spec", str(spec_path),
                     "--no-cache", "--report", str(report_path)])
        assert code == 0
        assert "campaign 'filed'" in capsys.readouterr().out
        assert json.loads(report_path.read_text())["job_count"] == 1

    def test_missing_spec_file_renders_clean_error(self, tmp_path, capsys):
        code = main(["campaign", "run", "--spec",
                     str(tmp_path / "absent.json"), "--no-cache"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error" in err and "Traceback" not in err

    def test_mistyped_spec_file_names_the_field(self, tmp_path, capsys):
        spec_path = tmp_path / "campaign.json"
        spec_path.write_text(json.dumps(
            {"name": "typo", "experiments": "fig7"}))
        code = main(["campaign", "run", "--spec", str(spec_path),
                     "--no-cache"])
        assert code == 2
        err = capsys.readouterr().err
        assert "CampaignSpec field 'experiments'" in err
        assert "Traceback" not in err

    def test_bad_cache_dir_renders_clean_error(self, tmp_path, capsys):
        squatter = tmp_path / "file"
        squatter.write_text("")
        code = main(["campaign", "run", "--experiment", "fig1",
                     "--cache-dir", str(squatter)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error" in err and "Traceback" not in err

    def test_status_flags_corruption(self, tmp_path, capsys):
        cache_dir = tmp_path / "c"
        assert main(["campaign", "run", "--experiment", "fig1",
                     "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["campaign", "status", "--cache-dir",
                     str(cache_dir)]) == 0
        assert "integrity: ok" in capsys.readouterr().out
        victim = next((cache_dir / "objects").glob("*/*.json"))
        victim.write_text("garbage")
        assert main(["campaign", "status", "--cache-dir",
                     str(cache_dir)]) == 1
        assert "CMP003" in capsys.readouterr().out

    def test_gc_drops_corrupt_objects(self, tmp_path, capsys):
        cache_dir = tmp_path / "c"
        assert main(["campaign", "run", "--experiment", "fig1",
                     "--cache-dir", str(cache_dir)]) == 0
        victim = next((cache_dir / "objects").glob("*/*.json"))
        victim.write_text("garbage")
        capsys.readouterr()
        assert main(["campaign", "gc", "--cache-dir",
                     str(cache_dir)]) == 0
        assert "1 corrupt" in capsys.readouterr().out
        assert main(["campaign", "status", "--cache-dir",
                     str(cache_dir)]) == 0
