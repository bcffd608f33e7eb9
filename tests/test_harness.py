import copy
import csv
import importlib.util
import json
import sys
import tempfile
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from proctomo import cli, harness, verification
from proctomo.channels import ChannelSpec, choi_from_kraus, kraus_factor, make_channel
from proctomo.harness import (ERROR_COLUMNS, TRACE_COLUMNS, ExperimentConfig,
                              OUT_DIR_ENV, load_config, run)

from conftest import run_python, transient_peak


def _mini_config(**overrides) -> ExperimentConfig:
    base = dict(experiment="single_run", scenario=1, k=1,
                channel={"kind": "noisy_qft", "measure_prob": 0.25},
                n_shots=900, repetitions=2, seed=11)
    base.update(overrides)
    return ExperimentConfig(**base)


SCRIPTS = Path(__file__).parent.parent / "scripts"


def _small(data: dict) -> dict:
    """A script config cut to k <= 2, N <= 1000 and one repetition."""
    data = dict(data)
    for key, value in (("k", 2), ("n_shots", 1000), ("repetitions", 1)):
        if key in data:
            data[key] = min(data[key], value)
    if "k_list" in data:
        data["k_list"] = [k for k in data["k_list"] if k <= 2]
    if "d_list" in data:
        data["d_list"] = data["d_list"][:2]
    if "n_shots_list" in data:
        data["n_shots_list"] = [300, 1000]
    return data


# a type swap replaces a value by one of another type; out of range keeps the
# type (a dict has no range: {} is a valid channel or projection)
_SWAPS = ("3", 2.5, True, None, [1], {"x": 1})
_OUT_OF_RANGE = {int: (0, -1), float: (-1.0, 2.0), str: ("nope",), list: ([],)}


@st.composite
def _mutated_script_config(draw):
    """A script config, made small, with one or two keys dropped, swapped to
    another type, set out of range, or an unknown key added; at the top level
    or inside ``channel`` or ``projection``."""
    path = draw(st.sampled_from(sorted(SCRIPTS.glob("*.yaml"))))
    data = _small(yaml.safe_load(path.read_text()))
    touched = []
    for _ in range(draw(st.integers(1, 2))):
        where = draw(st.sampled_from(
            [data] + [v for v in data.values() if isinstance(v, dict)]))
        op = draw(st.sampled_from(("drop", "swap", "range", "unknown")))
        if op == "unknown" or not where:
            key = "zzz"
            where[key] = 1
        else:
            key = draw(st.sampled_from(sorted(where)))
            if op == "drop":
                del where[key]
            elif op == "swap":
                # a copy: a later op may mutate the swapped-in list or dict
                where[key] = copy.deepcopy(draw(st.sampled_from(
                    [v for v in _SWAPS if type(v) is not type(where[key])])))
            elif type(where[key]) in _OUT_OF_RANGE:
                where[key] = draw(st.sampled_from(_OUT_OF_RANGE[type(where[key])]))
        touched.append(key)
    return path.stem, data, touched


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

    def test_unsupported_dimension_fails_before_compute(self):
        with pytest.raises(NotImplementedError):
            _mini_config(experiment="dimension_sweep", k=None,
                         scenario=4, d_list=[2, 6], n_shots=100)

    @pytest.mark.parametrize("overrides,match", [
        ({"scheme": "foo"}, "unknown scheme"),
        ({"n_shots": -5}, "n_shots must be an integer >= 1, got -5"),
        ({"channel": {"kind": "nope"}}, "unknown channel kind"),
        ({"experiment": "rank_sweep", "ranks": [1, 2], "n_shots": None},
         "rank_sweep needs n_shots"),
        ({"experiment": "sample_size_sweep", "n_shots_list": [900, -5], "n_shots": None},
         r"n_shots_list\[1\] must be an integer >= 1, got -5"),
        ({"experiment": "dimension_sweep", "k": None, "k_list": [1, 2], "n_shots": 0},
         "n_shots must be an integer >= 1, got 0"),
        ({"experiment": "dimension_sweep", "k": None, "k_list": [1, 2], "n_shots": -5},
         "n_shots must be an integer >= 1, got -5"),
        ({"channel": "qft"}, "channel must be a mapping"),
        ({"experiment": "algo_comparison", "methods": []}, "methods is empty"),
        ({"experiment": "algo_comparison", "methods": ["AP", "AP"]},
         "methods lists a method twice"),
        ({"d": 4}, "k = 1 and d = 4 disagree"),
        ({"experiment": "dimension_sweep", "k": None, "k_list": [1, 2], "d_list": [2, 4]},
         "set k_list or d_list, not both"),
        ({"seed": -1}, "seed must be an integer >= 0, got -1"),
        ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
        ({"repetitions": 1.5}, "repetitions must be an integer"),
        ({"n_shots": 900.5}, "n_shots must be an integer"),
        ({"n_shots": True}, "n_shots must be an integer"),
        ({"k": 1.5}, "k must be an integer"),
        ({"k": None, "scenario": 4, "d": 2.0}, "d must be an integer"),
        ({"experiment": "rank_sweep", "ranks": [1.5, 2]}, r"ranks\[0\] must be an integer"),
        ({"experiment": "dimension_sweep", "k": None, "k_list": [1.7]},
         r"k_list\[0\] must be an integer"),
        ({"experiment": "dimension_sweep", "k": None, "scenario": 4, "d_list": [2, 3.0]},
         r"d_list\[1\] must be an integer"),
        ({"experiment": "sample_size_sweep", "n_shots_list": [900, 900.5]},
         r"n_shots_list\[1\] must be an integer"),
        ({"threads": 1.5}, "threads must be an integer"),
        ({"threads": True}, "threads must be an integer"),
        ({"channel": {"kind": "mixed_unitary", "rnak": 2}}, "takes no key 'rnak'"),
        ({"channel": {"kind": "qft", "measure_prob": 0.3}},
         "takes no key 'measure_prob'"),
        ({"channel": {"kind": "mixed_unitary", "base": "qft", "rank": 1.5}},
         "rank must be an integer"),
        ({"channel": {"kind": "mixed_unitary", "base": "qft", "rank": True}},
         "rank must be an integer"),
        ({"channel": {"kind": "noisy_qft", "measure_prob": "0.3"}},
         r"measure_prob must be a finite number in \[0, 1\], got '0.3'"),
        ({"experiment": "rank_sweep", "ranks": [1, 2], "channel": {"kind": "qft"}},
         "rank_sweep needs channel kind mixed_unitary"),
        ({"experiment": "rank_sweep", "ranks": [1, 2],
          "channel": {"kind": "mixed_unitary", "rank": 2}},
         "rank_sweep needs channel kind mixed_unitary and no rank"),
        ({"emit_timings": "no"}, "emit_timings must be a bool"),
        ({"out_dir": 5}, "out_dir must be a path string"),
        ({"k": -1}, "k must be an integer >= 1"),
        ({"k": None, "scenario": 4, "d": 1}, "d must be an integer >= 2"),
        ({"scheme": "fixed", "n_shots": 100},
         "fixed scheme needs n_shots divisible by 9 settings"),
        ({"scenario": True}, r"scenario must be an integer in \[1, 4\], got True"),
        ({"format_version": True}, "unsupported format_version"),
        ({"projection": [1]}, "projection must be a mapping"),
        ({"experiment": "sample_size_sweep", "n_shots_list": 900},
         "n_shots_list must be a list"),
        ({"experiment": "algo_comparison", "methods": 3}, "methods must be a list"),
        ({"n_shots_list": [5]}, "single_run does not read n_shots_list"),
        ({"ranks": [3]}, "single_run does not read ranks"),
        ({"k_list": [1]}, "single_run does not read k_list"),
        ({"d_list": [7]}, "single_run does not read d_list"),
        ({"experiment": "rank_sweep", "ranks": [1, 2], "n_shots_list": [900]},
         "rank_sweep does not read n_shots_list"),
        ({"experiment": "algo_comparison", "k_list": [1, 2]},
         "algo_comparison does not read k_list"),
        ({"experiment": "sample_size_sweep", "n_shots_list": [900], "n_shots": None,
          "ranks": [1]},
         "sample_size_sweep does not read ranks"),
        ({"experiment": "dimension_sweep", "k": None, "k_list": [1], "n_shots_list": [9]},
         "dimension_sweep does not read n_shots_list"),
        ({"experiment": "sample_size_sweep", "n_shots_list": [900]},
         "sample_size_sweep does not read n_shots"),
        ({"experiment": "dimension_sweep", "k_list": [1, 2]},
         "dimension_sweep does not read k"),
        ({"experiment": "dimension_sweep", "k": None, "d": 2, "k_list": [1, 2]},
         "dimension_sweep does not read d"),
        ({"methods": ["AP"]}, "single_run does not read methods"),
        ({"experiment": "rank_sweep", "ranks": [1, 2], "methods": ["AP"]},
         "rank_sweep does not read methods"),
        ({"experiment": "algo_comparison", "repetitions": 5},
         "algo_comparison does not read repetitions"),
        ({"experiment": "algo_comparison", "repetitions": 1, "method": "AP"},
         "algo_comparison does not read method"),
    ])
    def test_bad_config_fails_before_work_or_output(self, tmp_path, monkeypatch,
                                                    overrides, match):
        sampled = []
        monkeypatch.setattr(harness, "sample", lambda *a: sampled.append(a))
        out_dir = tmp_path / "never"
        with pytest.raises(ValueError, match=match):
            run(_mini_config(**overrides), out_dir=out_dir)
        assert not out_dir.exists()
        assert not sampled

    @settings(max_examples=100, deadline=None, database=None)
    @given(case=_mutated_script_config())
    def test_mutated_script_config_fails_at_construction_or_runs(self, case):
        stem, data, touched = case
        with tempfile.TemporaryDirectory() as tmp:
            out_dir = Path(tmp) / "out"
            try:
                cfg = ExperimentConfig(**data, out_dir=str(out_dir))
            except (ValueError, TypeError) as exc:
                assert any(key in str(exc) for key in touched), (stem, data, exc)
                assert not out_dir.exists()
                return
            run(cfg)
            assert (out_dir / "errors.csv").exists()

    def test_import_leaves_out_yaml(self):
        code = "import sys, proctomo; print('yaml' in sys.modules)"
        out = run_python("-c", code, check=True)
        assert out.stdout.strip() == "False"

    def test_pauli_scenario_rejects_odd_dimension(self):
        with pytest.raises(ValueError, match="power-of-two"):
            _mini_config(k=None, d=3)

    def test_hash_ignores_output_settings(self):
        a = _mini_config()
        b = _mini_config(threads=4, out_dir="/elsewhere", emit_timings=True)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != _mini_config(seed=12).config_hash()

    @pytest.mark.parametrize("projection,error,match", [
        ({"epsilonn": 1e-6}, ValueError, "projection takes no key 'epsilonn'"),
        ({"ap_steps": 6}, ValueError, "projection takes no key 'ap_steps'"),
        ({"epsilon": 0.0}, ValueError, "epsilon must be a finite number > 0"),
        ({"epsilon": -1.0}, ValueError, "epsilon must be a finite number > 0"),
        ({"max_outer_iterations": 2.5}, ValueError,
         "max_outer_iterations must be an integer"),
        ({"max_outer_iterations": True}, ValueError,
         "max_outer_iterations must be an integer"),
        ({"epsilon": "1e-7"}, ValueError, "epsilon must be a finite number > 0"),
        ({"epsilon": True}, ValueError, "epsilon must be a finite number > 0"),
        ({"epsilon": float("nan")}, ValueError, "epsilon must be a finite number > 0"),
        ({"epsilon": float("inf")}, ValueError, "epsilon must be a finite number > 0"),
        ({"epsilon": float("-inf")}, ValueError, "epsilon must be a finite number > 0"),
    ])
    def test_bad_projection_rejected_at_construction(self, projection, error, match):
        with pytest.raises(error, match=match):
            _mini_config(projection=projection)

    def test_zero_threads_rejected_at_construction(self):
        with pytest.raises(ValueError, match="threads"):
            _mini_config(threads=0)


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

    def test_direct_mub_single_run_d16(self, tmp_path):
        cfg = _mini_config(scenario=4, k=None, d=16, n_shots=10**5, repetitions=1,
                           channel={"kind": "mixed_unitary", "base": "qft", "rank": 2})
        run(cfg, out_dir=tmp_path)
        _, rows = _read_csv(tmp_path / "errors.csv")
        si, vi = ERROR_COLUMNS.index("stage"), ERROR_COLUMNS.index("value")
        assert {row[si] for row in rows} == {"LS", "CP1", "PLS"}
        assert all(np.isfinite(float(row[vi])) for row in rows)

    def test_table_released_after_estimate(self, tmp_path):
        # the k = 4 frequency table (3^8 x 4^4 float64) is dropped once the
        # LS estimate exists, so the later stages do not hold it; the peak,
        # measured at 1.45 tables, is sampling's
        table_bytes = 3**8 * 4**4 * 8
        cfg = _mini_config(k=4, n_shots=10**6, repetitions=1, method="HIPswitch")
        _, peak = transient_peak(run, cfg, tmp_path)
        assert peak <= 1.65 * table_bytes

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
        cfg = _mini_config(experiment="algo_comparison", repetitions=1,
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
    def test_stage_times_exclude_metrics(self, tmp_path, monkeypatch):
        distance, fidelity = harness.distance, harness.fidelity

        def slow_distance(*args, **kwargs):
            time.sleep(0.05)
            return distance(*args, **kwargs)

        def slow_fidelity(*args, **kwargs):
            time.sleep(0.1)
            return fidelity(*args, **kwargs)

        monkeypatch.setattr(harness, "distance", slow_distance)
        monkeypatch.setattr(harness, "fidelity", slow_fidelity)
        records, _ = run(_mini_config(repetitions=1), out_dir=tmp_path)
        times = records[0].wall_times_ms
        assert set(times) == {"LS", "CP1", "PLS"}
        for stage, ms in times.items():
            assert ms < 50.0, (stage, ms)


class TestHarnessSeams:
    """The benchmark tracer wraps these harness names, so every repetition
    must reach the first and second stage and the metrics through them."""

    def _spy(self, monkeypatch):
        calls = []
        for name in ("proj_cp1_thresholded", "project_to_cptp", "distance", "fidelity"):
            def spy(*args, _name=name, _original=getattr(harness, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(harness, name, spy)
        return calls

    def test_single_run(self, tmp_path, monkeypatch):
        calls = self._spy(monkeypatch)
        run(_mini_config(repetitions=3), out_dir=tmp_path)
        # one distance per stage, one fidelity per physical stage
        assert calls == ["distance", "proj_cp1_thresholded", "distance", "fidelity",
                         "project_to_cptp", "distance", "fidelity"] * 3

    def test_algo_comparison(self, tmp_path, monkeypatch):
        calls = self._spy(monkeypatch)
        cfg = _mini_config(experiment="algo_comparison", repetitions=1,
                           methods=["HIPswitch", "AP", "dual"],
                           projection={"max_outer_iterations": 300})
        run(cfg, out_dir=tmp_path)
        assert calls == ["proj_cp1_thresholded"] + ["project_to_cptp"] * 3


class TestTracedSeams:
    """The benchmark's tracer (``perfbench/tracing.py``) patches functions by
    name; a run under it must reach every patched name and write the bytes
    of an untraced run, so a renamed or bypassed seam fails here."""

    TRACED = {
        "simulate.sample", "estimators.ls_estimate",
        "projections.proj_cp1_thresholded", "projections.project_to_cptp",
        "channels.distance", "channels.fidelity", "channels.make_channel",
        "channels.choi_from_kraus", "channels.kraus_rank",
        "projections.hip_inner", "projections.proj_tp",
        "projections.depolarizing_finalize", "designs.mub_family",
        "linalg.eigh", "linalg.eigvalsh"}

    def test_every_traced_name_reached_with_untraced_bytes(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
        import tracing

        configs = [
            _mini_config(repetitions=1),
            _mini_config(experiment="algo_comparison", repetitions=1,
                         methods=["HIPswitch", "pureHIP", "dual"],
                         projection={"max_outer_iterations": 300}),
            _mini_config(scenario=3, k=None, d=2, repetitions=1),
        ]
        tracer = tracing.Tracer()
        for i, cfg in enumerate(configs):
            plain, traced = tmp_path / f"plain{i}", tmp_path / f"traced{i}"
            run(cfg, out_dir=plain)
            with tracer.installed():
                run(cfg, out_dir=traced)
            written = sorted(plain.glob("*.csv"))
            assert written
            for csv_path in written:
                assert (traced / csv_path.name).read_bytes() == csv_path.read_bytes()
        assert {span[0] for span in tracer.spans} == self.TRACED


class TestMetrics:
    def test_physical_stage_decompositions(self, monkeypatch):
        # one eigvalsh of the n x n difference and one of the r x r W^dag b W;
        # the truth itself is never decomposed
        kraus = make_channel(ChannelSpec("noisy_qft", 8, measure_prob=0.25))
        truth, factor = choi_from_kraus(kraus), kraus_factor(kraus)
        shift = 1e-3 * np.linspace(-1.0, 1.0, 64)
        est = truth.matrix + np.diag(shift)
        shapes = {"eigh": [], "eigvalsh": []}
        for name in shapes:
            def spy(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                shapes[_name].append(a.shape)
                return _original(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, spy)
        row = harness._metrics(est, truth.matrix, factor)
        assert shapes == {"eigh": [], "eigvalsh": [(64, 64), (3, 3)]}
        assert set(row) == {"trace", "frobenius", "operator", "fidelity"}
        assert row["trace"] == pytest.approx(np.abs(shift).sum())
        assert row["frobenius"] == pytest.approx(np.linalg.norm(shift))
        assert row["operator"] == pytest.approx(1e-3)


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

    def test_run_prints_convergence_lines(self, tmp_path, capsys):
        cfg_path = tmp_path / "sweep.yaml"
        cfg_path.write_text(textwrap.dedent("""\
            experiment: sample_size_sweep
            scenario: 1
            k: 1
            channel: {kind: noisy_qft, measure_prob: 0.25}
            n_shots_list: [900, 9000]
            repetitions: 3
            seed: 3
        """))
        out_dir = tmp_path / "sweep"
        assert cli.main(["run", str(cfg_path), "--out-dir", str(out_dir)]) == 0
        head, *lines = capsys.readouterr().out.splitlines()
        assert head.startswith("wrote 6 records")
        records = json.loads((out_dir / "run_records.json").read_text())["records"]
        assert len(lines) == 2
        for line, n in zip(lines, (900, 9000)):
            proj = [r["projection"] for r in records if r["point"]["n_shots"] == n]
            assert line.startswith(f"  d=2 rank=2 N={n}: 3 reps, median ms LS ")
            assert " CP1 " in line and " PLS " in line
            assert f"{sum(not p['converged'] for p in proj)} not converged" in line
            assert f"max p {max(p['mixing_p'] for p in proj):.3e}" in line
            calls = sorted(p["proj_cp_calls"] for p in proj)[1]
            assert line.endswith(f"median proj_cp_calls {calls}")

        cfg_path.write_text(textwrap.dedent("""\
            experiment: algo_comparison
            scenario: 1
            k: 1
            channel: {kind: noisy_qft, measure_prob: 0.25}
            n_shots: 900
            seed: 3
        """))
        assert cli.main(["run", str(cfg_path), "--out-dir", str(tmp_path / "algo")]) == 0
        _, *lines = capsys.readouterr().out.splitlines()
        _, reports = run(load_config(cfg_path), out_dir=tmp_path / "again")
        assert lines == [
            f"  {m}: iterations {r.iterations}, proj_cp_calls {r.proj_cp_calls}, "
            f"final lambda_min {r.final_lambda_min:.3e}, converged {r.converged}"
            for m, r in reports.items()]
        assert len(lines) == 6

    def test_algo_comparison_refuses_method_override(self, tmp_path, capsys):
        # one estimate, every method in ``methods`` once: --method has no reader
        cfg_path = tmp_path / "algo.yaml"
        cfg_path.write_text(textwrap.dedent("""\
            experiment: algo_comparison
            scenario: 1
            k: 1
            channel: {kind: noisy_qft, measure_prob: 0.25}
            n_shots: 900
        """))
        out_dir = tmp_path / "never"
        assert cli.main(["run", str(cfg_path), "--method", "AP",
                         "--out-dir", str(out_dir)]) == 1
        assert "algo_comparison does not read method" in capsys.readouterr().err
        assert not out_dir.exists()

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
        assert "epsilon must be a finite number > 0" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_negative_seed_fails_before_output(self, tmp_path, capsys):
        cfg_path = self._write_cfg(tmp_path)
        out_dir = tmp_path / "never"
        assert cli.main(["run", str(cfg_path), "--out-dir", str(out_dir),
                         "--seed", "-1"]) == 1
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_missing_config_errors(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "nope.yaml")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_inspect_empty_file_errors(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert cli.main(["inspect", str(empty)]) == 1
        assert f"error: {empty} is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("header", ["value,x", "foo,bar"])
    def test_inspect_unknown_layout_errors(self, tmp_path, capsys, header):
        path = tmp_path / "other.csv"
        path.write_text(f"{header}\n1,2\n")
        assert cli.main(["inspect", str(path)]) == 1
        captured = capsys.readouterr()
        assert f"error: {path} is neither" in captured.err
        assert not captured.out

    def test_unknown_suite_errors(self, capsys):
        assert cli.main(["verify", "everything-else"]) == 1

    def test_compare_outputs_script(self, tmp_path):
        cfg_path = self._write_cfg(tmp_path)
        for root in ("old", "new"):
            out_dir = tmp_path / root / "cfg"
            assert cli.main(["run", str(cfg_path), "--out-dir", str(out_dir)]) == 0
        compare = lambda: run_python(
            SCRIPTS / "compare_outputs.py", tmp_path / "old", tmp_path / "new")
        same = compare()
        assert same.returncode == 0, same.stdout + same.stderr
        errors = tmp_path / "new" / "cfg" / "errors.csv"
        lines = errors.read_bytes().splitlines(keepends=True)
        lines[3] = lines[3].replace(b",", b";", 1)
        errors.write_bytes(b"".join(lines))
        differ = compare()
        assert differ.returncode == 1
        assert f"{errors}: line 4 differs" in differ.stdout
        assert f"{errors}: 1 rows differ" in differ.stdout
        header, rows = _read_csv(errors)
        col = header.index("value")
        scaled = lines[6].decode().split(",")
        scaled[col] = repr(float(scaled[col]) * (1 + 1e-6))
        lines[6] = ",".join(scaled).encode()
        errors.write_bytes(b"".join(lines))
        differ = compare()
        assert differ.returncode == 1
        first, *details = differ.stdout.splitlines()
        assert first.startswith(f"DIFFER {errors}: line 4 differs")
        assert details == [f"  {errors}: 2 rows differ, "
                           "largest relative change in value 1.000e-06",
                           "    LS operator: 1 rows differ, "
                           "largest relative change 0.000e+00",
                           "    CP1 operator: 1 rows differ, "
                           "largest relative change 1.000e-06"]
        # records compare without wall times; here one count and one
        # fidelity move, and the fields are named
        errors.write_bytes((tmp_path / "old" / "cfg" / "errors.csv").read_bytes())
        records = tmp_path / "new" / "cfg" / "run_records.json"
        payload = json.loads(records.read_text())
        payload["records"][0]["projection"]["iterations"] += 1
        payload["records"][0]["errors"]["PLS"]["fidelity"] *= 1 + 1e-6
        for rec in payload["records"]:
            rec["wall_times_ms"] = {}
        records.write_text(json.dumps(payload))
        differ = compare()
        assert differ.returncode == 1
        moved = (f"{records}: 1 records differ: "
                 "errors.PLS.fidelity, projection.iterations")
        assert differ.stdout.splitlines() == [f"DIFFER {moved}", f"  {moved}"]
        # verify reports compare without seconds; a moved detail names its check
        records.write_bytes((tmp_path / "old" / "cfg" / "run_records.json").read_bytes())
        for root, seconds in (("old", 1.5), ("new", 2.5)):
            results = [verification.CheckResult("two-design", True,
                                                 {"worst_defect": 1e-15}, seconds),
                       verification.CheckResult("determinism", True, {}, seconds)]
            (tmp_path / root / "verify").mkdir()
            verification.write_report(
                results, tmp_path / root / "verify" / "verify_report.json")
        same = compare()
        assert same.returncode == 0, same.stdout + same.stderr
        assert same.stdout == "identical: 3 files in 2 configs\n"
        report = tmp_path / "new" / "verify" / "verify_report.json"
        payload = json.loads(report.read_text())
        payload["checks"][0]["details"]["worst_defect"] = 2e-15
        report.write_text(json.dumps(payload))
        differ = compare()
        assert differ.returncode == 1
        moved = f"{report}: verify report differs: checks.two-design.details.worst_defect"
        assert differ.stdout.splitlines() == [f"DIFFER {moved}", f"  {moved}"]

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        cfg_path = self._write_cfg(tmp_path)
        target = tmp_path / "envout"
        monkeypatch.setenv(OUT_DIR_ENV, str(target))
        assert cli.main(["run", str(cfg_path)]) == 0
        assert (target / "errors.csv").exists()


def test_run_all_rejects_unknown_stem(tmp_path):
    out_root = tmp_path / "out"
    proc = run_python(SCRIPTS / "run_all.py", "--out-root", out_root,
                      "--only", "dimension_sweep_mub", "typo_name")
    assert proc.returncode == 1
    assert "typo_name" in proc.stderr
    assert not out_root.exists()


def test_run_all_loads_every_config_before_running(tmp_path):
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    (scripts / "run_all.py").write_text((SCRIPTS / "run_all.py").read_text())
    good = textwrap.dedent("""\
        experiment: single_run
        scenario: 1
        k: 1
        n_shots: 900
    """)
    (scripts / "a_good.yaml").write_text(good + "channel: {kind: qft}\n")
    (scripts / "b_bad.yaml").write_text(good + "channel: {kind: qft, measure_prob: 0.3}\n")
    out_root = tmp_path / "out"
    proc = run_python(scripts / "run_all.py", "--out-root", out_root)
    assert proc.returncode == 1
    assert "b_bad.yaml" in proc.stderr and "measure_prob" in proc.stderr
    assert not out_root.exists()


def test_mutation_census_smoke(tmp_path):
    """One cheap mutant through ``scripts/mutants.py``; the census itself
    runs outside the suite."""
    out = tmp_path / "census.json"
    proc = run_python(SCRIPTS / "mutants.py", "--only", "bounds-capped", "--out", out,
                      timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    census = json.loads(out.read_text())
    assert (census["mutants"], census["caught"], census["unresolved"]) == (1, 1, [])
    assert census["records"][0]["first_failure"] == (
        "tests/test_bounds.py::TestPlsFailureProb::test_zero_shots_vacuous")


def test_envelope_point_smoke():
    spec = importlib.util.spec_from_file_location("envelope", SCRIPTS / "envelope.py")
    envelope = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(envelope)
    point = dict(envelope.POINTS[1], d=2)
    line = envelope.measure(point)
    assert set(line) == {"point", "wall_times_ms", "proj_cp_calls", "peak_rss_mb"}
    assert line["point"] == point
    assert set(line["wall_times_ms"]) == {"LS", "CP1", "PLS"}
    assert line["proj_cp_calls"] >= 1
    assert line["peak_rss_mb"] > 0
    json.dumps(line)
