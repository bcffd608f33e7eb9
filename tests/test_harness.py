import csv
import json
import os
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from proctomo import cli, harness, verification
from proctomo.harness import (ERROR_COLUMNS, TRACE_COLUMNS, ExperimentConfig,
                              OUT_DIR_ENV, load_config, run)


def _mini_config(**overrides) -> ExperimentConfig:
    base = dict(experiment="single_run", scenario=1, k=1,
                channel={"kind": "noisy_qft", "measure_prob": 0.25},
                n_shots=900, repetitions=2, seed=11)
    base.update(overrides)
    return ExperimentConfig(**base)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


class TestConfig:
    def test_yaml_round_trip(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(textwrap.dedent("""\
            format_version: 1
            experiment: single_run
            scenario: 1
            k: 1
            channel: {kind: noisy_qft, measure_prob: 0.25}
            n_shots: 900
            repetitions: 2
            seed: 11
        """))
        cfg = load_config(cfg_path)
        assert cfg == _mini_config()

    def test_invalid_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            _mini_config(experiment="fit_everything")

    def test_invalid_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            _mini_config(method="newton")

    def test_unsupported_dimension_fails_before_compute(self, tmp_path):
        cfg = _mini_config(experiment="dimension_sweep", k=None,
                           scenario=4, d_list=[2, 6], n_shots=100)
        with pytest.raises(NotImplementedError):
            run(cfg, out_dir=tmp_path)

    def test_pauli_scenario_rejects_odd_dimension(self, tmp_path):
        cfg = _mini_config(k=None, d=3)
        with pytest.raises(ValueError, match="power-of-two"):
            run(cfg, out_dir=tmp_path)

    def test_hash_ignores_output_settings(self):
        a = _mini_config()
        b = _mini_config(threads=4, out_dir="/elsewhere", emit_timings=True)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != _mini_config(seed=12).config_hash()

    @pytest.mark.parametrize("projection,error,match", [
        ({"epsilonn": 1e-6}, TypeError, "epsilonn"),
        ({"ap_steps": 6}, TypeError, "ap_steps"),
        ({"epsilon": 0.0}, ValueError, "epsilon must be positive"),
        ({"epsilon": -1.0}, ValueError, "epsilon must be positive"),
    ])
    def test_bad_projection_rejected_at_construction(self, projection, error, match):
        with pytest.raises(error, match=match):
            _mini_config(projection=projection)

    def test_zero_threads_rejected_at_construction(self):
        with pytest.raises(ValueError, match="threads"):
            _mini_config(threads=0)

    def test_removed_projection_knob_rejected_on_load(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text(textwrap.dedent("""\
            experiment: single_run
            scenario: 1
            k: 1
            channel: {kind: identity}
            n_shots: 900
            projection: {epsilon: 1.0e-7, hip_steps: 30}
        """))
        with pytest.raises(TypeError, match="hip_steps"):
            load_config(cfg_path)


class TestRun:
    def test_single_run_outputs(self, tmp_path):
        records, _ = run(_mini_config(), out_dir=tmp_path)
        assert len(records) == 2
        header, rows = _read_csv(tmp_path / "errors.csv")
        assert header == ERROR_COLUMNS
        stages = {(r[10], r[9]) for r in rows}
        assert ("LS", "trace") in stages
        assert ("CP1", "fidelity") in stages
        assert ("PLS", "fidelity") in stages
        vi = ERROR_COLUMNS.index("value")
        for row in rows:
            if row[ERROR_COLUMNS.index("metric")] == "trace":
                assert 0.0 <= float(row[vi]) <= 2.0
        payload = json.loads((tmp_path / "run_records.json").read_text())
        assert payload["config_hash"] == _mini_config().config_hash()
        assert len(payload["records"]) == 2

    def test_wall_time_blank_by_default(self, tmp_path):
        run(_mini_config(), out_dir=tmp_path)
        header, rows = _read_csv(tmp_path / "errors.csv")
        wi = header.index("wall_time_ms")
        assert all(row[wi] == "" for row in rows)

    def test_wall_time_emitted_on_request(self, tmp_path):
        run(_mini_config(emit_timings=True), out_dir=tmp_path)
        header, rows = _read_csv(tmp_path / "errors.csv")
        wi = header.index("wall_time_ms")
        assert all(float(row[wi]) >= 0 for row in rows)

    def test_threads_do_not_change_output(self, tmp_path):
        run(_mini_config(repetitions=4), out_dir=tmp_path / "a")
        run(_mini_config(repetitions=4, threads=3), out_dir=tmp_path / "b")
        assert ((tmp_path / "a" / "errors.csv").read_bytes()
                == (tmp_path / "b" / "errors.csv").read_bytes())

    def test_threads_share_mub_family(self, tmp_path):
        # every repetition's sample and ls_estimate reads the one cached
        # family of C^4, concurrently when threads > 1
        cfg = dict(scenario=3, k=None, d=2, n_shots=2000, repetitions=6,
                   channel={"kind": "mixed_unitary", "base": "qft", "rank": 2})
        run(_mini_config(**cfg), out_dir=tmp_path / "a")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            run(_mini_config(**cfg, threads=3), out_dir=tmp_path / "b")
        finally:
            sys.setswitchinterval(interval)
        assert ((tmp_path / "a" / "errors.csv").read_bytes()
                == (tmp_path / "b" / "errors.csv").read_bytes())

    def test_sample_size_sweep_row_count(self, tmp_path):
        cfg = _mini_config(experiment="sample_size_sweep", n_shots=None,
                           n_shots_list=[500, 1000], repetitions=3)
        records, _ = run(cfg, out_dir=tmp_path)
        assert len(records) == 6
        seen = {rec.point["n_shots"] for rec in records}
        assert seen == {500, 1000}

    def test_rank_sweep_channels(self, tmp_path):
        cfg = _mini_config(experiment="rank_sweep", k=2, scenario=1,
                           channel={"kind": "mixed_unitary", "base": "qft"},
                           ranks=[1, 2], n_shots=2000, repetitions=1)
        records, _ = run(cfg, out_dir=tmp_path)
        assert [rec.point["rank"] for rec in records] == [1, 2]

    def test_dimension_sweep_auto_shots(self, tmp_path):
        cfg = _mini_config(experiment="dimension_sweep", k=None, n_shots=None,
                           k_list=[1, 2], repetitions=1)
        records, _ = run(cfg, out_dir=tmp_path)
        assert [rec.point["n_shots"] for rec in records] == [90, 810]

    def test_algo_comparison_trace(self, tmp_path):
        cfg = _mini_config(experiment="algo_comparison",
                           methods=["HIPswitch", "AP", "dual"],
                           projection={"max_outer_iterations": 300})
        _, reports = run(cfg, out_dir=tmp_path)
        assert set(reports) == {"HIPswitch", "AP", "dual"}
        header, rows = _read_csv(tmp_path / "lambda_trace.csv")
        assert header == TRACE_COLUMNS
        assert {row[0] for row in rows} == {"HIPswitch", "AP", "dual"}

    def test_pls_beats_ls_for_low_rank(self, tmp_path):
        cfg = _mini_config(k=2, n_shots=10**5, repetitions=20,
                           channel={"kind": "qft"})
        records, _ = run(cfg, out_dir=tmp_path)
        wins = sum(rec.errors["PLS"]["trace"] <= rec.errors["LS"]["trace"]
                   for rec in records)
        assert wins >= 0.95 * len(records)

    def test_rerun_is_byte_identical(self, tmp_path):
        run(_mini_config(), out_dir=tmp_path / "a")
        run(_mini_config(), out_dir=tmp_path / "b")
        assert ((tmp_path / "a" / "errors.csv").read_bytes()
                == (tmp_path / "b" / "errors.csv").read_bytes())


class TestStageTimes:
    @pytest.mark.parametrize("direct", [False, True])
    def test_stage_times_exclude_metrics(self, tmp_path, monkeypatch, direct):
        distance, fidelity = harness.distance, harness.fidelity

        def slow_distance(*args, **kwargs):
            time.sleep(0.05)
            return distance(*args, **kwargs)

        def slow_fidelity(*args, **kwargs):
            time.sleep(0.1)
            return fidelity(*args, **kwargs)

        monkeypatch.setattr(harness, "distance", slow_distance)
        monkeypatch.setattr(harness, "fidelity", slow_fidelity)
        records, _ = run(_mini_config(repetitions=1, direct=direct),
                         out_dir=tmp_path)
        times = records[0].wall_times_ms
        assert set(times) == ({"LS", "PLS"} if direct else {"LS", "CP1", "PLS"})
        for stage, ms in times.items():
            assert ms < 50.0, (stage, ms)


class TestHarnessSeams:
    """The benchmark tracer wraps these harness names, so every repetition
    must reach the first and second stage through them."""

    def _spy(self, monkeypatch):
        calls = []
        for name in ("proj_cp1_thresholded", "project_to_cptp"):
            def spy(*args, _name=name, _original=getattr(harness, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(harness, name, spy)
        return calls

    def test_single_run(self, tmp_path, monkeypatch):
        calls = self._spy(monkeypatch)
        run(_mini_config(repetitions=3), out_dir=tmp_path)
        assert calls == ["proj_cp1_thresholded", "project_to_cptp"] * 3

    def test_algo_comparison(self, tmp_path, monkeypatch):
        calls = self._spy(monkeypatch)
        cfg = _mini_config(experiment="algo_comparison",
                           methods=["HIPswitch", "AP", "dual"],
                           projection={"max_outer_iterations": 300})
        run(cfg, out_dir=tmp_path)
        assert calls == ["proj_cp1_thresholded"] + ["project_to_cptp"] * 3


class TestCli:
    def _write_cfg(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        with open(cfg_path, "w") as fh:
            yaml.safe_dump({
                "experiment": "single_run", "scenario": 1, "k": 1,
                "channel": {"kind": "noisy_qft", "measure_prob": 0.25},
                "n_shots": 900, "repetitions": 1, "seed": 3,
            }, fh)
        return cfg_path

    def test_run_and_inspect(self, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path)
        out_dir = tmp_path / "out"
        assert cli.main(["run", str(cfg_path), "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "errors.csv").exists()
        assert cli.main(["inspect", str(out_dir / "errors.csv")]) == 0
        assert "PLS" in capsys.readouterr().out

    def test_run_overrides(self, tmp_path):
        cfg_path = self._write_cfg(tmp_path)
        out_dir = tmp_path / "out2"
        code = cli.main(["run", str(cfg_path), "--out-dir", str(out_dir),
                         "--method", "Dykstra", "--seed", "5",
                         "--epsilon", "1e-6", "--timings"])
        assert code == 0
        payload = json.loads((out_dir / "run_records.json").read_text())
        assert payload["config"]["method"] == "Dykstra"
        assert payload["config"]["seed"] == 5
        assert payload["config"]["projection"]["epsilon"] == 1e-6

    def test_verify_cheap_suite(self, tmp_path, capsys):
        code = cli.main(["verify", "two-design", "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS two-design" in out
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["passed"] is True
        assert report["checks"]
        for check in report["checks"]:
            assert check["seconds"] >= 0

    def test_verify_list(self, capsys):
        assert cli.main(["verify", "list"]) == 0
        assert capsys.readouterr().out.split() == sorted(verification.SUITES)

    def test_bad_epsilon_fails_before_output(self, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path)
        out_dir = tmp_path / "never"
        assert cli.main(["run", str(cfg_path), "--out-dir", str(out_dir),
                         "--epsilon", "-1"]) == 1
        assert "epsilon must be positive" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_missing_config_errors(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "nope.yaml")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_suite_errors(self, capsys):
        assert cli.main(["verify", "everything-else"]) == 1

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        cfg_path = self._write_cfg(tmp_path)
        target = tmp_path / "envout"
        monkeypatch.setenv(OUT_DIR_ENV, str(target))
        assert cli.main(["run", str(cfg_path)]) == 0
        assert (target / "errors.csv").exists()
