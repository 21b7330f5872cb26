"""Command-line front end tests: config validation, experiment records,
report formats, determinism, and process exit codes."""

import json

import numpy as np
import pytest

from gaugeqec import cli, hamiltonian


def write_config(tmp_path, doc) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    return str(path)


class TestConfigValidation:
    def test_minimal_config_parses(self):
        config = cli.ExperimentConfig.from_dict(
            {"experiments": [{"kind": "spectrum-equivalence", "dims": [3]}]}
        )
        assert config.seed is None
        assert len(config.experiments) == 1

    def test_root_must_be_object(self):
        with pytest.raises(cli.ConfigError, match="root"):
            cli.ExperimentConfig.from_dict([1, 2])

    def test_experiments_must_be_list(self):
        with pytest.raises(cli.ConfigError, match="list"):
            cli.ExperimentConfig.from_dict({"experiments": {"kind": "trotter"}})

    def test_unknown_kind_lists_choices(self):
        with pytest.raises(cli.ConfigError, match="decode-sweep"):
            cli.ExperimentConfig.from_dict({"experiments": [{"kind": "mystery"}]})

    def test_bad_dims_rejected(self):
        for dims in ([0], [-3], [2.5], "3", []):
            with pytest.raises(cli.ConfigError, match="dims"):
                cli.ExperimentConfig.from_dict(
                    {"experiments": [{"kind": "decode-sweep", "dims": dims}]}
                )

    def test_sampled_needs_seed(self):
        exp = {"kind": "decode-sweep", "dims": [3], "mode": "sampled", "samples": 4}
        with pytest.raises(cli.ConfigError, match="seed"):
            cli.ExperimentConfig.from_dict({"experiments": [exp]})
        # a run-wide seed satisfies the requirement
        cli.ExperimentConfig.from_dict({"seed": 5, "experiments": [exp]})

    def test_sampled_needs_count(self):
        exp = {"kind": "decode-sweep", "dims": [3], "mode": "sampled", "seed": 1}
        with pytest.raises(cli.ConfigError, match="samples"):
            cli.ExperimentConfig.from_dict({"experiments": [exp]})

    @pytest.mark.parametrize("field, value", [("errors", "z"), ("errors", "XYZ"), ("mode", "fast")])
    def test_decode_sweep_choices_checked(self, field, value):
        exp = {"kind": "decode-sweep", "dims": [3], field: value}
        with pytest.raises(cli.ConfigError, match=rf"experiments\[0\]\.{field} must be .*got '{value}'"):
            cli.ExperimentConfig.from_dict({"experiments": [exp]})

    def test_tolerances_must_be_positive(self):
        with pytest.raises(cli.ConfigError, match="positive"):
            cli.ExperimentConfig.from_dict({"experiments": [], "tolerances": {"matrix": -1e-9}})
        exp = {"kind": "string-variant", "dims": [3], "tolerance": 0}
        with pytest.raises(cli.ConfigError, match="positive"):
            cli.ExperimentConfig.from_dict({"experiments": [exp]})

    def test_json_parse_error_reports_position(self, tmp_path):
        path = write_config(tmp_path, '{"experiments": [,]}')
        with pytest.raises(cli.ConfigError, match=r"line 1"):
            cli.ExperimentConfig.from_file(path)

    def test_missing_file_is_config_error(self):
        with pytest.raises(cli.ConfigError, match="cannot read"):
            cli.ExperimentConfig.from_file("/nonexistent/config.json")

    def test_unwritable_out_path(self):
        doc = {"experiments": [], "out": "/nonexistent/dir/report.json"}
        with pytest.raises(cli.ConfigError, match="writable"):
            cli.ExperimentConfig.from_dict(doc)


class TestRun:
    def test_exhaustive_sweep_one_record_per_error(self):
        config = cli.ExperimentConfig.from_dict(
            {"experiments": [{"id": "sweep", "kind": "decode-sweep", "dims": [4]}]}
        )
        records = cli.run(config)
        # 4 sites + 4 links, X errors only
        assert len(records) == 8
        assert all(r.passed for r in records)
        assert [r.experiment for r in records] == sorted(r.experiment for r in records)
        assert records[0].experiment == "sweep[X@000]"

    def test_sampled_sweep_respects_count(self):
        exp = {"id": "s", "kind": "decode-sweep", "dims": [3], "mode": "sampled", "samples": 3, "seed": 9}
        records = cli.run(cli.ExperimentConfig.from_dict({"experiments": [exp]}))
        assert len(records) == 3

    def test_spectrum_equivalence_single_record(self):
        exp = {"id": "dual", "kind": "spectrum-equivalence", "dims": [3]}
        records = cli.run(cli.ExperimentConfig.from_dict({"experiments": [exp]}))
        assert len(records) == 1
        (metric,) = records[0].metrics
        assert metric["name"] == "spectrum_gap"
        assert metric["value"] <= metric["tolerance"] == 1e-9
        assert records[0].passed

    @pytest.mark.parametrize("dims", [[7], [2, 3]])
    def test_spectrum_equivalence_within_the_default_cap(self, dims):
        # 14 and 18 physical qubits: only the 7- and 12-qubit sectors are dense
        exp = {"id": "dual", "kind": "spectrum-equivalence", "dims": dims}
        (record,) = cli.run(cli.ExperimentConfig.from_dict({"experiments": [exp]}))
        assert record.passed
        assert record.metrics[0]["value"] == 0.0

    def test_empty_experiment_list_runs_clean(self):
        assert cli.run(cli.ExperimentConfig.from_dict({"experiments": []})) == []

    def test_records_sorted_regardless_of_config_order(self):
        doc = {
            "experiments": [
                {"id": "zz", "kind": "gauge-invariance", "dims": [3]},
                {"id": "aa", "kind": "gauge-invariance", "dims": [4]},
            ]
        }
        records = cli.run(cli.ExperimentConfig.from_dict(doc))
        assert [r.experiment for r in records] == ["aa", "zz"]

    def test_default_ids_use_kind_and_position(self):
        doc = {"experiments": [{"kind": "gauge-invariance", "dims": [3]}]}
        records = cli.run(cli.ExperimentConfig.from_dict(doc))
        assert records[0].experiment == "gauge-invariance-0"

    def test_every_metric_carries_verdict_fields(self):
        doc = {"experiments": [{"id": "t", "kind": "trotter", "dims": [3], "steps": 2}]}
        records = cli.run(cli.ExperimentConfig.from_dict(doc))
        for metric in records[0].metrics:
            assert set(metric) == {"name", "value", "tolerance", "passed"}

    def test_tight_tolerance_fails_record(self):
        exp = {"id": "tight", "kind": "boson-equivalence", "dims": [4], "tolerance": 1e-30}
        records = cli.run(cli.ExperimentConfig.from_dict({"experiments": [exp]}))
        assert not records[0].passed

    def test_lcu_check_reports_costs(self):
        exp = {"id": "lcu", "kind": "lcu-check", "dims": [4]}
        records = cli.run(cli.ExperimentConfig.from_dict({"experiments": [exp]}))
        names = {m["name"] for m in records[0].metrics}
        assert {"block_encoding_error", "prep_norm_gap", "toffoli_count"} <= names
        assert records[0].passed

    def test_oaa_check_probability_metrics(self):
        exp = {"id": "oaa", "kind": "oaa-check", "pauli": "XZ", "t": 0.9}
        records = cli.run(cli.ExperimentConfig.from_dict({"experiments": [exp]}))
        by_name = {m["name"]: m for m in records[0].metrics}
        assert by_name["amplified_probability_gap"]["value"] <= 1e-10
        assert by_name["bare_probability_gap"]["value"] <= 1e-10

    def test_ham_build_echoes_terms(self):
        exp = {"id": "hb", "kind": "ham-build", "dims": [3], "form": "logical"}
        records = cli.run(cli.ExperimentConfig.from_dict({"experiments": [exp]}))
        terms = records[0].inputs["terms"]
        assert terms and all(isinstance(label, str) for label, _ in terms)


class TestReports:
    @pytest.fixture()
    def records(self):
        doc = {
            "experiments": [
                {"id": "dual", "kind": "spectrum-equivalence", "dims": [3]},
                {"id": "tight", "kind": "boson-equivalence", "dims": [4], "tolerance": 1e-30},
            ]
        }
        return cli.run(cli.ExperimentConfig.from_dict(doc))

    def test_json_round_trips(self, records):
        payload = json.loads(cli.report(records, "json"))
        assert payload["summary"] == {"total": 2, "passed": 1, "failed": 1}
        assert [r["experiment"] for r in payload["records"]] == ["dual", "tight"]
        for rec in payload["records"]:
            assert set(rec) == {"experiment", "timestamp", "inputs", "metrics", "passed"}

    def test_csv_has_single_header_row(self, records):
        lines = cli.report(records, "csv").splitlines()
        assert lines[0] == "experiment,metric,value,tolerance,passed"
        assert sum(1 for line in lines if line.startswith("experiment,")) == 1
        assert len(lines) == 1 + sum(len(r.metrics) for r in records)

    def test_text_counts_pass_fail(self, records):
        text = cli.report(records, "text")
        assert "PASS dual" in text
        assert "FAIL tight" in text
        assert "1/2 experiments passed" in text

    def test_unknown_format_rejected(self, records):
        with pytest.raises(cli.ConfigError, match="format"):
            cli.report(records, "xml")


def strip_timestamps(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if '"timestamp"' not in line)


def test_repeat_runs_are_identical_up_to_timestamp():
    doc = {
        "seed": 7,
        "experiments": [
            {"id": "build", "kind": "code-build", "dims": [3, 3], "code": "hamming"},
            {"id": "valid", "kind": "code-validate", "dims": [4], "code": "repetition-gauss"},
            {"id": "s", "kind": "decode-sweep", "dims": [3], "mode": "sampled", "samples": 5},
            {"id": "ham", "kind": "ham-build", "dims": [2, 2], "form": "logical"},
            {"id": "gauge", "kind": "gauge-invariance", "dims": [3, 3]},
            {"id": "dual", "kind": "spectrum-equivalence", "dims": [3]},
            {"id": "boson", "kind": "boson-equivalence", "dims": [4]},
            {"id": "string", "kind": "string-variant", "dims": [5]},
            {"id": "trot", "kind": "trotter", "dims": [3], "steps": 2, "order": 2},
            # 256 dimensions: the spectral norm's Krylov space stops well short of them
            {"id": "trot-2x2", "kind": "trotter", "dims": [2, 2], "steps": 3, "order": 1},
            {"id": "lcu", "kind": "lcu-check", "dims": [4]},
            {"id": "oaa", "kind": "oaa-check", "pauli": "XZ", "t": 0.9},
            {"id": "acc", "kind": "acceptance"},
        ],
    }
    assert {exp["kind"] for exp in doc["experiments"]} == set(cli.EXPERIMENTS)
    first = cli.report(cli.run(cli.ExperimentConfig.from_dict(doc)), "json")
    second = cli.report(cli.run(cli.ExperimentConfig.from_dict(doc)), "json")
    assert strip_timestamps(first) == strip_timestamps(second)
    # csv omits timestamps entirely, so it must match byte for byte
    assert cli.report(cli.run(cli.ExperimentConfig.from_dict(doc)), "csv") == cli.report(
        cli.run(cli.ExperimentConfig.from_dict(doc)), "csv"
    )


class TestMainExitCodes:
    def test_passing_command_exits_zero(self, capsys):
        assert cli.main(["code", "build", "--dims", "3"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_failing_record_exits_one(self, tmp_path, capsys):
        doc = {"experiments": [{"id": "t", "kind": "boson-equivalence", "dims": [4], "tolerance": 1e-30}]}
        assert cli.main(["run", "--config", write_config(tmp_path, doc)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_bad_config_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, "{not json")
        assert cli.main(["run", "--config", path]) == 2
        assert "config error" in capsys.readouterr().err

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["code", "build"])  # missing --dims
        assert info.value.code == 2

    def test_capacity_error_names_the_cap(self, monkeypatch, capsys):
        monkeypatch.setenv("GAUGEQEC_MAX_DENSE_QUBITS", "8")
        assert cli.main(["ham", "verify", "--dims", "3", "3"]) == 2
        assert "dense cap of 8" in capsys.readouterr().err

    def test_sector_over_the_cap_states_the_bytes(self, tmp_path, capsys):
        # [3,3] has 27 physical and 18 logical qubits; the cap reads the 18
        doc = {"experiments": [{"id": "s", "kind": "spectrum-equivalence", "dims": [3, 3]}]}
        assert cli.main(["run", "--config", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert "18 qubits exceeds the dense cap of 14" in err
        assert f"2^18 x 2^18 complex128 matrix would allocate {16 * 4 ** 18:.3g} bytes" in err

    @pytest.mark.parametrize("dims, error", [("6", 0.25), ("10", 0.375)])
    def test_lcu_check_reports_the_identity_padding_shift(self, dims, error, capsys):
        # dN = 6 and 10 slots are padded to 8 and 16 with identities, which
        # shift the block by 1 - dN/2^n; a padding-free encoding (ROADMAP,
        # "Block encoding for every lattice") will move these values
        assert cli.main(["evolve", "lcu-check", "--dims", dims, "--format", "json"]) == 1
        metrics = json.loads(capsys.readouterr().out)["records"][0]["metrics"]
        by_name = {m["name"]: m["value"] for m in metrics}
        assert by_name["block_encoding_error"] == pytest.approx(error, abs=1e-12)

    def test_boson_expansion_over_budget_exits_two(self, capsys):
        # the expansion of [3,3,3] would make 2.1e11 products; the count is
        # checked before any product is made
        assert cli.main(["ham", "build", "--dims", "3", "3", "3", "--form", "boson"]) == 2
        err = capsys.readouterr().err
        assert "213521195287 products" in err
        assert f"budget of {hamiltonian.BOSON_EXPANSION_BUDGET}" in err

    @pytest.mark.parametrize(
        "samples, message",
        [
            ("0", "samples must be a positive integer, got 0"),
            ("-1", "samples must be a positive integer, got -1"),
            ("100", "100 samples asked of only 6 single-error cases"),
        ],
    )
    def test_sampled_sweep_count_out_of_range_exits_two(self, capsys, samples, message):
        argv = ["code", "decode-sweep", "--dims", "3", "--mode", "sampled", "--samples", samples, "--seed", "3"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert message in err

    def test_unknown_errors_value_exits_two(self, tmp_path, capsys):
        doc = {"experiments": [{"kind": "decode-sweep", "dims": [3], "errors": "z"}]}
        assert cli.main(["run", "--config", write_config(tmp_path, doc)]) == 2
        assert "errors must be 'x' or 'xyz'" in capsys.readouterr().err

    @pytest.mark.parametrize("action", ["validate", "decode-sweep"])
    def test_hamming_is_build_only(self, capsys, action):
        assert cli.main(["code", action, "--dims", "3", "--kind", "hamming"]) == 2
        err = capsys.readouterr().err
        assert "'hamming' is supported only by code build" in err
        assert "choose one of" not in err

    def test_report_written_to_out_path(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main(["code", "build", "--dims", "3", "--format", "json", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["summary"]["passed"] == 1


class TestSubcommands:
    def test_code_validate(self, capsys):
        assert cli.main(["code", "validate", "--dims", "3", "--kind", "repetition-gauss"]) == 0
        assert "code-validate" in capsys.readouterr().out

    def test_decode_sweep_sampled(self, capsys):
        argv = ["code", "decode-sweep", "--dims", "3", "--mode", "sampled", "--samples", "2", "--seed", "3"]
        assert cli.main(argv) == 0
        assert "2/2 experiments passed" in capsys.readouterr().out

    def test_ham_build_boson_form(self, capsys):
        assert cli.main(["ham", "build", "--dims", "3", "--form", "boson", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"][0]["inputs"]["form"] == "boson"

    def test_ham_verify_produces_two_records(self, capsys):
        assert cli.main(["ham", "verify", "--dims", "4"]) == 0
        out = capsys.readouterr().out
        assert "ham-verify-gauge" in out and "ham-verify-spectrum" in out

    def test_evolve_trotter(self, capsys):
        argv = ["evolve", "trotter", "--dims", "3", "--steps", "2", "--order", "2", "--format", "json"]
        assert cli.main(argv) == 0
        names = {m["name"] for m in json.loads(capsys.readouterr().out)["records"][0]["metrics"]}
        assert {"trotter_error", "error_ratio", "unitarity_gap", "n_gates"} <= names

    def test_evolve_lcu_check(self, capsys):
        assert cli.main(["evolve", "lcu-check", "--dims", "4"]) == 0
        assert "PASS evolve-lcu" in capsys.readouterr().out

    def test_evolve_oaa_check(self, capsys):
        assert cli.main(["evolve", "oaa-check", "--pauli", "Y", "--t", "0.4"]) == 0
        assert "PASS evolve-oaa" in capsys.readouterr().out

    def test_suite_subset_runs_named_criteria(self, capsys):
        assert cli.main(["suite", "acceptance", "--criteria", "9", "14"]) == 0
        out = capsys.readouterr().out
        assert "criterion-09-select-cost" in out
        assert "criterion-14-patch-sizes" in out
        assert "2/2 experiments passed" in out


def test_acceptance_registry_covers_all_fifteen():
    records = cli.run_acceptance({"id": "acceptance", "kind": "acceptance"})
    assert len(records) == 15
    labels = [r.experiment for r in records]
    assert labels == sorted(labels)
    assert labels[0].startswith("criterion-01") and labels[-1].startswith("criterion-15")
    assert all(r.passed for r in records)


def test_decode_sweep_correction_matches_injected_error():
    exp = {"id": "s", "kind": "decode-sweep", "dims": [3], "code": "repetition-phase", "errors": "xyz"}
    records = cli.run(cli.ExperimentConfig.from_dict({"experiments": [exp]}))
    # 18 physical qubits, three error letters each
    assert len(records) == 54
    assert all(r.passed for r in records)
