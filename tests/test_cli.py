"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_subcommands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--strategy", "ddp"])
        assert args.command == "run"
        args = parser.parse_args(["search", "--nodes", "2"])
        assert args.command == "search"
        args = parser.parse_args(["experiment", "fig1"])
        assert args.id == "fig1"
        args = parser.parse_args(["trace", "diff", "a.json", "b.json"])
        assert args.command == "trace"
        assert args.trace_command == "diff"

    def test_trace_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_unknown_strategy_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--strategy", "nope"])

    def test_unknown_experiment_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["experiment", "fig99"])


class TestRun:
    def test_json_output(self, capsys):
        code = main(["run", "--strategy", "zero2", "--size", "0.7",
                     "--iterations", "2", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["strategy"] == "zero2"
        assert payload["tflops"] > 0
        assert payload["memory_bytes"]["gpu"] > 0
        # The machine-readable schema matches save_metrics exactly.
        from repro.core.results import SCHEMA_VERSION

        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["spec"]["strategy"] == "zero2"

    def test_table_output(self, capsys):
        code = main(["run", "--strategy", "ddp", "--size", "0.7",
                     "--iterations", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "TFLOP/s" in out
        assert "NVLink" in out

    def test_oversized_model_reports_error(self, capsys):
        code = main(["run", "--strategy", "ddp", "--size", "30",
                     "--iterations", "2"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestCluster:
    def test_json_output(self, capsys):
        code = main(["cluster", "run", "--jobs", "3",
                     "--rate-per-hour", "12000", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "cluster"
        assert payload["jobs_completed"] == 3
        assert payload["policy"] == "fifo"

    def test_table_output_with_leak_check(self, capsys):
        code = main(["cluster", "run", "--jobs", "2", "--policy", "sjf",
                     "--rate-per-hour", "12000", "--leak-check"])
        assert code == 0
        captured = capsys.readouterr()
        assert "goodput" in captured.out
        assert "leak sanitizer: clean" in captured.err

    def test_trace_driven_arrivals_and_export(self, tmp_path, capsys):
        arrivals = tmp_path / "arrivals.json"
        arrivals.write_text(json.dumps([
            {"time": 0.0, "name": "a", "strategy": "ddp",
             "size_billions": 0.35, "gpus": 2},
            {"time": 0.5, "name": "b", "strategy": "ddp",
             "size_billions": 0.35, "gpus": 2},
        ]))
        out = tmp_path / "cluster-trace.json"
        code = main(["cluster", "run", "--arrivals", str(arrivals),
                     "--trace", str(out), "--json"])
        assert code == 0
        captured = capsys.readouterr()
        assert "cluster trace written" in captured.err
        payload = json.loads(captured.out)
        assert payload["jobs_completed"] == 2
        assert out.exists()


    @pytest.mark.parametrize("job,message", [
        ({"strategy": "zero4"}, "unknown strategy 'zero4'"),
        ({"gpus": "two"}, "JobSpec field 'gpus' expects an integer"),
    ])
    def test_bad_trace_job_is_one_error_line(self, tmp_path, capsys, job,
                                             message):
        arrivals = tmp_path / "arrivals.json"
        arrivals.write_text(json.dumps([{"time": 0, "name": "a", **job}]))
        code = main(["cluster", "run", "--arrivals", str(arrivals)])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and message in lines[0]


class TestTrace:
    @pytest.fixture()
    def trace_file(self, tmp_path, capsys):
        path = tmp_path / "ddp.json"
        code = main(["run", "--strategy", "ddp", "--size", "0.7",
                     "--iterations", "2", "--json",
                     "--trace", str(path)])
        assert code == 0
        captured = capsys.readouterr()
        assert "trace written" in captured.err
        # --trace must not disturb the normal output contract.
        assert json.loads(captured.out)["tflops"] > 0
        return path

    def test_run_trace_writes_a_valid_chrome_trace(self, trace_file):
        from repro.trace import validate_chrome_trace

        doc = json.loads(trace_file.read_text())
        assert validate_chrome_trace(doc) == []
        assert doc["repro"]["meta"]["strategy"] == "ddp"

    def test_trace_check_accepts_the_export(self, trace_file, capsys):
        assert main(["trace", "check", str(trace_file)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_trace_check_rejects_corruption(self, trace_file, tmp_path,
                                            capsys):
        doc = json.loads(trace_file.read_text())
        doc["traceEvents"][0]["ph"] = "Q"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["trace", "check", str(bad)]) == 1
        assert "phase" in capsys.readouterr().err

    def test_trace_summary_prints_flat_table(self, trace_file, capsys):
        assert main(["trace", "summary", str(trace_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spans/count"] > 0
        assert any(key.startswith("links/") for key in payload)

    def test_trace_self_diff_is_clean(self, trace_file, capsys):
        code = main(["trace", "diff", str(trace_file), str(trace_file)])
        assert code == 0
        assert "traces match" in capsys.readouterr().out

    def test_trace_diff_detects_divergence(self, trace_file, tmp_path,
                                           capsys):
        doc = json.loads(trace_file.read_text())
        doc["repro"]["links"][0]["bytes"] *= 2
        other = tmp_path / "other.json"
        other.write_text(json.dumps(doc))
        code = main(["trace", "diff", str(trace_file), str(other)])
        assert code == 1
        assert "~ links/" in capsys.readouterr().out


class TestTopology:
    def test_ascii_render(self, capsys):
        assert main(["topology", "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "NVLink mesh" in out

    def test_json_render(self, capsys):
        assert main(["topology", "--nodes", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["num_nodes"] == 2
        assert payload["summary"]["num_gpus"] == 8
        assert len(payload["nodes"]) == 2
        names = {link["name"] for link in payload["links"]}
        assert any("nvlink" in name for name in names)
        for link in payload["links"]:
            assert link["bandwidth_per_direction_bytes_per_s"] > 0


class TestSearch:
    def test_search_json(self, capsys):
        code = main(["search", "--strategy", "ddp", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_billions"] == pytest.approx(1.57, rel=0.05)

    def test_search_nvme_strategy_builds_placement_cluster(self, capsys):
        code = main(["search", "--strategy", "zero3_opt_nvme",
                     "--placement", "B", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_billions"] > 10


class TestAnalyze:
    def test_clean_preset_exits_zero(self, capsys):
        code = main(["analyze", "--strategy", "zero2", "--size", "1.4"])
        assert code == 0
        assert "0 errors" in capsys.readouterr().out

    def test_broken_tensor_parallel_exits_nonzero(self, capsys):
        code = main(["analyze", "--tensor-parallel", "3", "--nodes", "2"])
        assert code == 1
        assert "CFG002" in capsys.readouterr().out

    def test_over_capacity_offload_exits_nonzero(self, capsys):
        code = main(["analyze", "--strategy", "zero1_opt_cpu",
                     "--size", "60"])
        assert code == 1
        out = capsys.readouterr().out
        assert "CFG031" in out  # DRAM cannot hold the optimizer mirror

    def test_json_output(self, capsys):
        code = main(["analyze", "--strategy", "zero3", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert "zero-partition-accounting" in payload["passes_run"]

    def test_self_lint_is_clean(self, capsys):
        code = main(["analyze", "--self"])
        assert code == 0
        assert "0 errors" in capsys.readouterr().out

    def test_self_lint_fail_on_warning_needs_the_baseline(self, capsys):
        # The accepted DET001 advisory on sim/flows.py fails the strict
        # threshold without the committed baseline, and passes with it.
        assert main(["analyze", "--self", "--fail-on", "warning"]) == 1
        capsys.readouterr()
        code = main(["analyze", "--self", "--fail-on", "warning",
                     "--baseline", "analysis-baseline.json"])
        assert code == 0
        assert "0 errors" in capsys.readouterr().out

    def test_stale_baseline_entry_reported_on_stderr(self, tmp_path, capsys):
        stale = tmp_path / "baseline.json"
        stale.write_text(json.dumps({
            "version": 1,
            "accepted": [{"code": "DET030", "file": "gone/nowhere.py"}],
        }))
        code = main(["analyze", "--self", "--baseline", str(stale)])
        assert code == 0
        assert "stale" in capsys.readouterr().err.lower()

    def test_update_baseline_round_trips(self, tmp_path, capsys):
        path = tmp_path / "baseline.json"
        code = main(["analyze", "--self", "--update-baseline",
                     "--baseline", str(path)])
        assert code == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        assert payload["version"] == 1
        assert any(e["code"] == "DET001" for e in payload["accepted"])
        code = main(["analyze", "--self", "--fail-on", "warning",
                     "--baseline", str(path)])
        assert code == 0

    def test_update_baseline_requires_baseline_path(self, capsys):
        code = main(["analyze", "--self", "--update-baseline"])
        assert code == 2
        assert "--baseline" in capsys.readouterr().err

    def test_self_and_sanitize_are_mutually_exclusive(self, capsys):
        code = main(["analyze", "--self", "--sanitize"])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_dims_and_self_are_mutually_exclusive(self, capsys):
        code = main(["analyze", "--dims", "--self"])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_dims_tree_is_clean_with_baseline(self, capsys):
        code = main(["analyze", "--dims", "--fail-on", "warning",
                     "--baseline", "analysis-baseline.json"])
        assert code == 0
        captured = capsys.readouterr()
        assert "0 errors" in captured.out

    def test_dims_skips_stale_notes_for_other_families(self, tmp_path,
                                                       capsys):
        # The committed DET001 entry belongs to a pass --dims does not
        # run, so a dims-only invocation must not call it stale.
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "version": 1,
            "accepted": [{"code": "DET001", "file": "sim/flows.py"}],
        }))
        code = main(["analyze", "--dims", "--baseline", str(baseline)])
        assert code == 0
        assert "stale" not in capsys.readouterr().err.lower()

    def test_dims_json_reports_both_passes(self, capsys):
        code = main(["analyze", "--dims", "--json",
                     "--baseline", "analysis-baseline.json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["passes_run"]) == {"dim-flow", "dim-vocabulary"}

    def test_dims_honors_root(self, tmp_path, capsys):
        (tmp_path / "mix.py").write_text(
            "from repro.units import Bytes, Seconds\n"
            "\n"
            "def mix(n: Bytes, t: Seconds):\n"
            "    return n + t\n")
        code = main(["analyze", "--dims", "--root", str(tmp_path), "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert [(f["code"], f["location"]) for f in payload["findings"]] \
            == [("DIM001", "mix.py:4")]

    def test_self_honors_root(self, tmp_path, capsys):
        (tmp_path / "clock.py").write_text(
            "import time\n"
            "\n"
            "def stamp():\n"
            "    return time.time()\n")
        code = main(["analyze", "--self", "--root", str(tmp_path), "--json"])
        assert code == 1
        findings = json.loads(capsys.readouterr().out)["findings"]
        assert "DET020" in {f["code"] for f in findings}
        # nothing from the installed tree (its sim/flows.py DET001)
        assert {f["location"] for f in findings} == {"clock.py:4"}

    @pytest.mark.parametrize("argv", [
        ["analyze", "--root", "."],
        ["analyze", "--sanitize", "--root", "."],
    ])
    def test_root_rejected_without_a_source_family(self, argv, capsys):
        assert main(argv) == 2
        assert "--root" in capsys.readouterr().err

    def test_sanitize_smoke_single_node(self, capsys):
        code = main(["analyze", "--sanitize", "--strategy", "ddp",
                     "--size", "0.7", "--nodes", "1",
                     "--iterations", "2", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        diff = payload["perturbation_diff"]
        assert diff["races_confirmed"] is False
        assert diff["diffs"] == []
        assert diff["sanitizer"]["capacity_violations"] == []


class TestExperiment:
    def test_experiment_prints_table(self, capsys):
        code = main(["experiment", "table1"])
        assert code == 0
        assert "ZeRO stage" in capsys.readouterr().out

    def test_experiment_json_rows(self, capsys):
        code = main(["experiment", "fig1", "--json"])
        assert code == 0
        out = capsys.readouterr().out
        assert '"series"' in out
