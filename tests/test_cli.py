import argparse
import ast
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout, suppress
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import twostate.sampling as sampling
from twostate import (
    StateVector,
    builtin_fiducial,
    commutator,
    exclusivity_scan,
    pbr_geometric,
    pbr_separators,
    sic_distinguish,
)
from twostate.cli import (
    _EXPERIMENTS,
    CSV_COLUMNS,
    EXPERIMENTS,
    _parse_args,
    _parser,
    emit_results,
    main,
    result_schema,
)
from twostate.qcore import matrix_from_json, matrix_to_json, vector_from_json

from helpers import random_unitary, vector_to_json

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


class TestConfigHandling:
    def test_seed_is_mandatory(self, tmp_path, capsys):
        code, _ = run_cli(["born-mc", "--dim", "2", "--samples", "10"], tmp_path)
        assert code == 2
        assert "seed is mandatory" in capsys.readouterr().err

    def test_config_file_supplies_fields(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dim": 2, "samples": 500, "seed": 7, "p_grid": [0.5]}))
        code, out = run_cli(["born-mc", "--config", str(cfg), "--no-timing"], tmp_path)
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert rows[0]["seed"] == "7"
        assert rows[0]["samples"] == "500"

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dim": 2, "samples": 500, "seed": 7, "p_grid": [0.5]}))
        code, out = run_cli(
            ["born-mc", "--config", str(cfg), "--seed", "9", "--no-timing"], tmp_path
        )
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert rows[0]["seed"] == "9"

    def test_config_experiment_mismatch(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "basis-mc", "seed": 1}))
        code, _ = run_cli(["born-mc", "--config", str(cfg)], tmp_path)
        assert code == 2
        assert "declares experiment" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        code, _ = run_cli(["born-mc", "--seed", "1", "--config", str(tmp_path / "nope.json")], tmp_path)
        assert code == 2

    @pytest.mark.parametrize("content, message", [
        (b'\xff\xfe{"seed": 1}', "is not valid JSON"),
        (b"{", "is not valid JSON"),
        (b"[1]", "must contain a JSON object"),
    ], ids=["not-utf-8", "truncated", "array"])
    def test_unreadable_config_exits_two(self, content, message, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        code, out = run_cli(["born-mc", "--seed", "1", "--config", str(cfg)], tmp_path)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: config {str(cfg)!r} {message}")
        assert not out.exists()

    def test_bad_field_value(self, tmp_path, capsys):
        code, _ = run_cli(["born-mc", "--seed", "1", "--dim", "1"], tmp_path)
        assert code == 2
        assert "dim" in capsys.readouterr().err

    @pytest.mark.parametrize("args, config", [
        (["basis-mc", "--dim", "2"],
         {"basis": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "forward": [[1, 0], [1, 0]]}),
        (["basis-mc", "--dim", "2"],
         {"basis": [[[1, 0], [0, 0]], [[0.6, 0], [0.8, 0]]], "forward": [[1, 0], [0, 0]]}),
        (["basis-mc", "--dim", "3"],
         {"basis": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]],
          "forward": [[1, 0], [0, 0]]}),
        (["born-mc", "--dim", "2", "--dist", "fixed"], {"dist_state": [[1, 0], [1, 0]], "p_grid": [0.5]}),
        (["weak-value"], {"observable": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]],
                          "forward": [[1, 0], [0, 0]], "final": [[1, 0], [0, 0]]}),
        (["born-mc", "--dim", "2"], {"p_grid": [0.5, "high"]}),
        (["basis-mc", "--dim", "2"],
         {"basis": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "forward": [[float("nan"), 0], [0, 0]]}),
        (["weak-value"], {"observable": [[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]],
                          "forward": [[1, 0], [0, 0]], "final": [[1, 0], [0, 0]]}),
        (["stationary-solve"], {"hamiltonian": matrix_to_json(np.diag([1.0, 3.0])),
                                "target_k": [[[float("nan"), 0], [0, 2]], [[0, 2], [0, 0]]], "diagonal": [0.5, 0.5]}),
        (["stationary-solve"], {"hamiltonian": matrix_to_json(np.diag([1.0, 3.0])),
                                "target_k": [[[0, 0], [0, 2]], [[0, 2], [0, 0]]], "diagonal": [float("nan"), 0.5]}),
        (["basis-mc", "--dim", "2"], {"basis": [], "forward": [[1, 0], [0, 0]]}),
        (["basis-mc", "--dim", "2"], {"basis": [[[1, 0], [0, 0]]], "forward": [[1, 0], [0, 0]]}),
        (["basis-mc", "--dim", "2"],
         {"basis": [[[1, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]], "forward": [[1, 0], [0, 0]]}),
        (["basis-mc", "--dim", "2"], {"basis": "identity", "forward": [[1, 0], [0, 0]]}),
        (["basis-mc", "--dim", "2"],
         {"basis": [[[1, 0], [0, 0]], [[0, 0], [float("nan"), 0]]], "forward": [[1, 0], [0, 0]]}),
        # Gram deviation 1e-11 is within the orthonormality bound; only the row-norm bound rejects it
        (["basis-mc", "--dim", "2"],
         {"basis": [[[1 + 5e-12, 0], [0, 0]], [[0, 0], [1, 0]]], "forward": [[1, 0], [0, 0]]}),
        (["stationary-solve"], {"hamiltonian": matrix_to_json(np.diag([1.0, 3.0])),
                                "target_k": [[[0, 0], [0, 2]], [[0, 2], [0, 0]]], "diagonal": [True, False]}),
        (["stationary-solve"], {"hamiltonian": matrix_to_json(np.diag([1.0, 3.0])),
                                "target_k": [[[0, 0], [0, 2]], [[0, 2], [0, 0]]], "diagonal": ["0.5", "0.5"]}),
    ], ids=["unnormalized-forward", "non-orthonormal-basis", "basis-forward-dims",
            "bad-dist-state", "non-hermitian-observable", "string-in-p-grid",
            "nan-forward", "nan-observable", "nan-target-k", "nan-diagonal",
            "empty-basis", "one-row-basis", "ragged-basis", "non-list-basis", "nan-basis", "basis-row-norm",
            "boolean-diagonal", "string-diagonal"])
    def test_malformed_config_value_exits_two(self, args, config, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, _ = run_cli(args + ["--seed", "1", "--config", str(cfg)], tmp_path)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: invalid ")

    @pytest.mark.parametrize("args, config, label", [
        (["basis-mc"], {"basis": [[[1, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]], "forward": [[1, 0], [0, 0]]},
         "basis"),
        (["weak-value"], {"observable": [[[1, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]],
                          "forward": [[1, 0], [0, 0]], "final": [[1, 0], [0, 0]]}, "observable"),
        (["stationary-solve"], {"hamiltonian": [[[1, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]],
                                "target_k": matrix_to_json(np.zeros((2, 2))), "diagonal": [0.5, 0.5]},
         "hamiltonian/target_k/diagonal"),
        (["stationary-solve"], {"hamiltonian": matrix_to_json(np.diag([1.0, 3.0])),
                                "target_k": [[[0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]], "diagonal": [0.5, 0.5]},
         "hamiltonian/target_k/diagonal"),
    ], ids=["basis", "observable", "hamiltonian", "target_k"])
    def test_a_ragged_config_matrix_names_its_row(self, args, config, label, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out = run_cli(args + ["--seed", "1", "--config", str(cfg)], tmp_path)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: invalid {label}: expected a square matrix of 2 rows, but row 1 has 3 entries\n")
        assert not out.exists()

    # each config runs, at exit 0, if its boolean is taken for 1 or 0, as complex(True, 0) takes it
    @pytest.mark.parametrize("args, config, label, pair", [
        (["basis-mc"], {"basis": [[[True, 0], [0, 0]], [[0, 0], [1, 0]]], "forward": [[1, 0], [0, 0]]}, "basis",
         "[True, 0]"),
        (["basis-mc"], {"basis": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "forward": [[True, 0], [0, 0]]}, "forward",
         "[True, 0]"),
        (["weak-value"], {"observable": matrix_to_json(np.diag([1.0, -1.0])), "forward": [[0.6, 0], [0.8, 0]],
                          "final": [[1, 0], [0, False]]}, "final", "[0, False]"),
        (["born-mc", "--dist", "fixed", "--p-grid", "0.5"], {"dist_state": [[0, 0], [True, 0]]}, "dist_state",
         "[True, 0]"),
        (["sic-validate"], {"fiducial": [[True, 0], [0, 0]]}, "fiducial", "[True, 0]"),
        (["weak-value"], {"observable": [[[1, 0], [0, 0]], [[0, 0], [False, 0]]], "forward": [[0.6, 0], [0.8, 0]],
                          "final": [[1, 0], [0, 0]]}, "observable", "[False, 0]"),
        (["stationary-solve"], {"hamiltonian": [[[True, 0], [0, 0]], [[0, 0], [3, 0]]],
                                "target_k": matrix_to_json(np.zeros((2, 2))), "diagonal": [0.5, 0.5]},
         "hamiltonian/target_k/diagonal", "[True, 0]"),
        (["stationary-solve"], {"hamiltonian": matrix_to_json(np.diag([1.0, 3.0])),
                                "target_k": [[[False, 0], [0, 2]], [[0, 2], [0, 0]]], "diagonal": [0.5, 0.5]},
         "hamiltonian/target_k/diagonal", "[False, 0]"),
    ], ids=["basis", "forward", "final", "dist_state", "fiducial", "observable", "hamiltonian", "target_k"])
    def test_a_boolean_config_amplitude_exits_two(self, args, config, label, pair, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out = run_cli(args + ["--seed", "1", "--config", str(cfg)], tmp_path)
        assert code == 2
        assert capsys.readouterr().err == f"error: invalid {label}: expected [re, im] pairs of numbers, got {pair}\n"
        assert not out.exists()

    @pytest.mark.parametrize("args, config, message", [
        (["sic-search", "--dim", "9"], {}, "invalid dim: supported dimensions are 2..8"),
        (["weak-value"], {"observable": matrix_to_json(np.diag([1.0, -1.0])),
                          "forward": vector_to_json(np.eye(2)[0]), "final": vector_to_json(np.eye(2)[1])},
         "invalid forward/final: post-selection amplitude"),
        (["stationary-solve"], {"hamiltonian": matrix_to_json(np.diag([1.0, 3.0])),
                                "target_k": matrix_to_json(np.diag([1j, -1j])), "diagonal": [0.5, 0.5]},
         "invalid target_k/diagonal: K has diagonal magnitude"),
        (["stationary-solve", "--require-psd", "true"], {"hamiltonian": matrix_to_json(np.diag([1.0, 3.0])),
                                                         "target_k": matrix_to_json(np.zeros((2, 2))),
                                                         "diagonal": [2.0, -1.0]},
         "invalid target_k/diagonal: solution has eigenvalue"),
    ], ids=["sic-search-dim", "orthogonal-post-selection", "infeasible-target-k", "diagonal-without-psd-solution"])
    def test_a_value_a_solver_rejects_exits_two(self, args, config, message, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out = run_cli(args + ["--seed", "1", "--config", str(cfg)], tmp_path)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: " + message)
        assert not out.exists()

    @pytest.mark.parametrize("args, config, message", [
        (["basis-mc"], {"basis": [vector_to_json(row) for row in np.eye(3)], "forward": [[1, 0], [0, 0], [0, 0]]},
         "invalid basis: expected a basis of dimension 2, got 3"),
        (["sic-validate", "--dim", "2"], {"fiducial": vector_to_json(builtin_fiducial(3).entries)},
         "expected a state of dimension 2, got 3"),
        (["sic-distinguish", "--dim", "2"], {"fiducial": vector_to_json(builtin_fiducial(3).entries)},
         "expected a state of dimension 2, got 3"),
        (["weak-value"], {"observable": matrix_to_json(np.diag([1.0, 0.0, -1.0])),
                          "forward": vector_to_json(np.eye(3)[0]), "final": vector_to_json(np.eye(3)[0])},
         "expected an operator of dimension 2, got 3"),
        (["stationary-solve"], {"hamiltonian": matrix_to_json(np.diag([1.0, 2.0, 3.0])),
                                "target_k": matrix_to_json(np.zeros((3, 3))), "diagonal": [1.0, 0.0, 0.0]},
         "expected an operator of dimension 2, got 3"),
        # the other way round: the built-in example is a qubit, the run's dim is 3
        (["weak-value", "--dim", "3"], {}, "the built-in weak-value example requires dim 2"),
        (["pbr-geometric", "--dim", "3"], {}, "pbr-geometric instances are qubit instances and require dim 2"),
        (["basis-mc", "--dim", "3"], {}, "the tilted-basis parameterization requires dim 2"),
    ], ids=["basis-mc-basis", "sic-validate-fiducial", "sic-distinguish-fiducial",
            "weak-value-observable", "stationary-solve-hamiltonian", "weak-value-builtin",
            "pbr-geometric-qubits", "basis-mc-tilted"])
    def test_config_state_of_another_dimension_exits_two(self, args, config, message, tmp_path, capsys):
        # the run's dim is 2 (the default or --dim); a 3-dim config state must
        # not run under records that echo dim 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out = run_cli(args + ["--seed", "1", "--config", str(cfg)], tmp_path)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_out_of_range_p_exits_two_before_any_sampling(self, route, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr("twostate.cli.born_mc", lambda *args, **kwargs: calls.append(args))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p_grid": [0.5, 1.5]}))
        grid = ["--p-grid", "0.5,1.5"] if route == "flag" else ["--config", str(cfg)]
        code, out = run_cli(["born-mc", "--samples", "10", "--seed", "1"] + grid, tmp_path)
        assert code == 2
        assert capsys.readouterr().err == "error: invalid p_grid: p values must lie in [0, 1], got 1.5\n"
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("route", ["flag", "config"])
    @pytest.mark.parametrize("experiment, key, text, value", [
        ("born-mc", "p_grid", "", []),
        ("born-mc", "p_grid", " , ", []),
        ("born-mc", "p_grid", "nan", [float("nan")]),
        ("basis-mc", "theta_deg", "", []),
        ("basis-mc", "theta_deg", "nan", [float("nan")]),
        ("basis-mc", "theta_deg", "inf", [float("inf")]),
        ("basis-mc", "theta_deg", "30,-inf", [30.0, float("-inf")]),
    ], ids=["p-empty", "p-blank", "p-nan", "theta-empty", "theta-nan", "theta-inf", "theta-minus-inf"])
    def test_empty_or_non_finite_number_list_exits_two_before_any_sampling(
            self, experiment, key, text, value, route, tmp_path, monkeypatch, capsys):
        calls = []
        for estimator in ("born_mc", "basis_mc"):
            monkeypatch.setattr(f"twostate.cli.{estimator}", lambda *args, **kwargs: calls.append(args))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        source = ["--" + key.replace("_", "-"), text] if route == "flag" else ["--config", str(cfg)]
        code, out = run_cli([experiment, "--samples", "10", "--seed", "1"] + source, tmp_path)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: invalid {key}: expected ")
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("args, config, key", [
        (["born-mc"], {"samples": 10, "p-grid": [0.9]}, "p-grid"),
        (["born-mc"], {"tie-tol": 5.0}, "tie-tol"),
        (["born-mc"], {"fiducial": [[1, 0], [0, 0]]}, "fiducial"),  # a key of the SIC experiments
        (["sic-search", "--dim", "2"], {"restarts": 2, "p_grid": [0.5]}, "p_grid"),
        (["weak-value"], {"instance": [[0, 0, 1]] * 4}, "instance"),
    ], ids=["dashed-key", "dashed-field", "fiducial", "p-grid-of-another-experiment", "instance"])
    def test_unknown_config_key_exits_two(self, args, config, key, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out = run_cli(args + ["--seed", "1", "--config", str(cfg)], tmp_path)
        assert code == 2
        assert capsys.readouterr().err == f"error: {args[0]} has no config key {key!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("instance", [
        [[2, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [["x", 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[None, 0, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[True, False, False], [0, 1, 0], [False, False, True], [0, 0, -1]],
        [[1, 0, 0], ["0", "1", "0"], [0, 0, 1], [0, 0, -1]],
    ], ids=["non-unit", "non-numeric", "two-components", "three-vectors", "null-entry", "boolean-entry",
            "numeric-string"])
    def test_malformed_pbr_instance_exits_two(self, instance, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instance": instance}))
        code, _ = run_cli(["pbr-geometric", "--seed", "1", "--config", str(cfg)], tmp_path)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: invalid instance: ")

    @pytest.mark.parametrize("args, config, message", [
        (["weak-value"], {"forward": vector_to_json(np.eye(2)[1])},
         "weak-value reads 'forward' only with an 'observable'"),
        (["basis-mc"], {"forward": vector_to_json(np.eye(2)[1])}, "basis-mc reads 'forward' only with a 'basis'"),
        (["basis-mc", "--theta-deg", "45"], {"basis": [vector_to_json(np.eye(2)[0]), vector_to_json(np.eye(2)[1])],
                                             "forward": vector_to_json(np.eye(2)[0])},
         "basis-mc reads 'theta_deg' only without a 'basis'"),
        (["basis-mc"], {"theta_deg": [45], "basis": [vector_to_json(np.eye(2)[0]), vector_to_json(np.eye(2)[1])],
                        "forward": vector_to_json(np.eye(2)[0])},
         "basis-mc reads 'theta_deg' only without a 'basis'"),
        (["born-mc", "--dist", "uniform-overlap"], {"dist_state": vector_to_json(np.eye(2)[1])},
         "born-mc reads 'dist_state' only under --dist fixed"),
        (["pbr-geometric", "--samples", "1000"], {"instance": [[0, 0, 1], [1, 0, 0], [0, 0, -1], [0, 1, 0]]},
         "pbr-geometric runs an explicit 'instance' once; samples must be 1, got 1000"),
    ], ids=["weak-value-forward", "basis-mc-forward", "basis-mc-theta-flag", "basis-mc-theta-key", "born-mc-dist-state",
            "pbr-geometric-instance-samples"])
    def test_a_config_key_the_run_ignores_exits_two_before_any_sampling(self, args, config, message, tmp_path,
                                                                         monkeypatch, capsys):
        draws = []
        monkeypatch.setattr(sampling, "_words", lambda *args: draws.append(args))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out = run_cli(args + ["--seed", "1", "--config", str(cfg)], tmp_path)
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert draws == []
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["weak-value"],
        ["sic-validate", "--dim", "3"],
        ["sic-search", "--restarts", "1", "--max-iters", "50"],
    ], ids=lambda args: args[0])
    def test_workers_is_accepted_where_no_sample_is_drawn(self, args, tmp_path):
        _, plain = run_cli(args + ["--seed", "1", "--no-timing"], tmp_path, "plain.csv")
        code, pooled = run_cli(args + ["--seed", "1", "--workers", "4", "--no-timing"], tmp_path, "pooled.csv")
        assert code == 0
        assert pooled.read_bytes() == plain.read_bytes()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["born-mc", "--help"])
        assert info.value.code == 0
        assert "backward" in capsys.readouterr().out


NAN, INF = float("nan"), float("inf")
# every row of the field table: the experiment that reads it and, per value class, a config
# value and what it converts to (None: exit 2); the flag takes the value's flag_text. A class
# a row does not list takes the value of REJECTED.
REJECTED = {"boolean": True, "fraction": 2.5, "integral-float": 3.0, "nan": NAN, "inf": INF, "non-numeric": "x"}
FIELD_ROWS = {
    "dim": ("born-mc", {"valid": (3, 3), "text": ("3", 3), "out-of-range": (1, None)}),
    "samples": ("born-mc", {"valid": (300, 300), "text": ("300", 300), "out-of-range": (0, None)}),
    "seed": ("born-mc", {"valid": (4, 4), "text": ("4", 4), "out-of-range": (2**64, None)}),
    "workers": ("born-mc", {"valid": (2, 2), "text": ("2", 2), "out-of-range": (0, None)}),
    "restarts": ("sic-search", {"valid": (2, 2), "text": ("2", 2), "out-of-range": (0, None)}),
    "max_iters": ("sic-search", {"valid": (20, 20), "text": ("20", 20), "out-of-range": (-1, None)}),
    "tie_tol": ("born-mc", {"valid": (0.05, 0.05), "text": ("0.05", 0.05), "fraction": (2.5, 2.5),
                            "integral-float": (3.0, 3.0), "out-of-range": (-1, None)}),
    "tol": ("sic-validate", {"valid": (1e-6, 1e-6), "text": ("1e-6", 1e-6), "fraction": (2.5, 2.5),
                             "integral-float": (3.0, 3.0), "out-of-range": (10**400, None)}),  # no float holds it
    "dist": ("born-mc", {"valid": ("haar", "haar"), "text": ("fixed", "fixed"), "out-of-range": ("nope", None)}),
    "require_psd": ("stationary-solve", {"valid": (True, True), "text": ("false", False),
                                         "boolean": (False, False), "out-of-range": (1, None)}),
    "p_grid": ("born-mc", {"valid": ([0.3, 0.7], [0.3, 0.7]), "text": ("0.3,0.7", [0.3, 0.7]),
                           "boolean": ([True], None), "fraction": ([0.25], [0.25]),
                           "integral-float": ([1.0], [1.0]), "nan": ([NAN], None),
                           "inf": ([INF], None), "out-of-range": ([0.5, 1.5], None), "non-numeric": (["x"], None)}),
    # no angle is out of range; an empty grid is
    "theta_deg": ("basis-mc", {"valid": ([45, 60.5], [45.0, 60.5]), "text": ("45,60.5", [45.0, 60.5]),
                               "boolean": ([True], None), "fraction": ([2.5], [2.5]),
                               "integral-float": ([3.0], [3.0]), "nan": ([NAN], None),
                               "inf": ([INF], None), "out-of-range": ([], None), "non-numeric": (["x"], None)}),
}
FIELD_CASES = [
    pytest.param(experiment, key, *{**{c: (v, None) for c, v in REJECTED.items()}, **classes}[value_class],
                 id=f"{key}-{value_class}")
    for key, (experiment, classes) in FIELD_ROWS.items()
    for value_class in ("valid", "text", "boolean", "fraction", "integral-float", "nan", "inf", "out-of-range",
                        "non-numeric")
]


def flag_text(value) -> str:
    """The text of a flag that gives config value ``value``: a string itself, a list comma-separated."""
    if isinstance(value, list):
        return ",".join(map(flag_text, value))
    return value if isinstance(value, str) else json.dumps(value)


class TestFieldTable:
    @pytest.mark.parametrize("experiment, key, value, expected", FIELD_CASES)
    def test_flag_and_config_convert_a_value_alike(self, experiment, key, value, expected, tmp_path, monkeypatch,
                                                   capsys):
        runs = []  # the configs the experiment ran with: a rejected value stops before any sampling or search
        monkeypatch.setitem(_EXPERIMENTS, experiment,
                            _EXPERIMENTS[experiment]._replace(run=lambda cfg: runs.append(cfg) or []))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        base = [experiment] + (["--seed", "1"] if key != "seed" else [])
        for route in (["--" + key.replace("_", "-"), flag_text(value)], ["--config", str(cfg)]):
            code, out = run_cli(base + route, tmp_path)
            err = capsys.readouterr().err
            if expected is None:
                assert (code, runs) == (2, [])
                assert err.startswith(f"error: invalid {key}: ") and err.count("\n") == 1
                assert not out.exists()
            else:
                assert (code, err) == (0, "")
                ran = runs.pop()
                converted = ran.params[key] if key in ran.params else getattr(ran, key)
                assert converted == expected and type(converted) is type(expected)


# each table-driven parameter: base arguments, flag, flag text, the same value as a config entry
TABLE_PARAMS = [
    (["born-mc", "--samples", "500"], "--p-grid", "0.3,0.7", [0.3, 0.7]),
    (["basis-mc", "--samples", "500"], "--theta-deg", "45,60", [45.0, 60.0]),
    (["sic-validate"], "--tol", "1e-6", 1e-6),
    (["sic-search", "--max-iters", "100"], "--restarts", "2", 2),
    (["sic-search", "--restarts", "1"], "--max-iters", "100", 100),
]
TABLE_IDS = ["p_grid", "theta_deg", "tol", "restarts", "max_iters"]
# a config grid of integers echoes in p_or_theta as the flag's floats do
INTEGER_GRIDS = [
    (["born-mc", "--samples", "500"], "--p-grid", "0,1", [0, 1]),
    (["basis-mc", "--samples", "500"], "--theta-deg", "45", [45]),
]


class TestExperimentTable:
    @pytest.mark.parametrize("args, flag, text, value", TABLE_PARAMS + INTEGER_GRIDS,
                             ids=TABLE_IDS + ["p_grid-integers", "theta_deg-integers"])
    def test_flag_and_config_key_give_the_same_payload(self, args, flag, text, value, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag[2:].replace("-", "_"): value}))
        base = args + ["--seed", "5", "--no-timing"]
        _, from_flag = run_cli(base + [flag, text], tmp_path, "flag.csv")
        _, from_config = run_cli(base + ["--config", str(cfg)], tmp_path, "config.csv")
        assert from_flag.read_bytes() == from_config.read_bytes()

    @pytest.mark.parametrize("args, flag, text, value", TABLE_PARAMS, ids=TABLE_IDS)
    def test_non_numeric_value_exits_two(self, args, flag, text, value, tmp_path, capsys):
        key = flag[2:].replace("-", "_")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: "x"}))
        base = args + ["--seed", "5"]
        for route in ([flag, "x"], ["--config", str(cfg)]):
            code, out = run_cli(base + route, tmp_path)
            assert code == 2
            assert capsys.readouterr().err.startswith(f"error: invalid {key}: ")
            assert not out.exists()

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_help_prints_the_description(self, experiment, capsys):
        with pytest.raises(SystemExit) as info:
            main([experiment, "--help"])
        assert info.value.code == 0
        assert " ".join(_EXPERIMENTS[experiment].help.split()) in " ".join(capsys.readouterr().out.split())


SAMPLED = ("born-mc", "basis-mc", "exclusivity-scan", "sic-distinguish", "pbr-geometric")
DIST_READERS = ("born-mc", "basis-mc")
# each experiment's own flags, beside --dim, --seed and --workers and the rows above
OWN_FLAGS = {"born-mc": {"--p-grid"}, "basis-mc": {"--theta-deg"}, "sic-validate": {"--tol"},
             "sic-search": {"--restarts", "--max-iters"}, "stationary-solve": {"--require-psd"}}
OUTPUT_FLAGS = {"--config", "--out", "--format", "--no-timing", "--help"}
# the least a run needs beyond its seed: stationary-solve's matrices, and a short search
DEFAULT_RUNS = {
    "sic-search": (["--restarts", "1", "--max-iters", "50"], None),
    "stationary-solve": ([], {"hamiltonian": matrix_to_json(np.diag([1.0, 3.0])),
                              "target_k": matrix_to_json(np.array([[0.0, 2.0j], [2.0j, 0.0]])),
                              "diagonal": [0.5, 0.5]}),
}
# every field an experiment does not read, with a valid value of it as flag text and as config value
UNREAD_FIELDS = [
    pytest.param(name, key, text, value, id=f"{name}-{key}")
    for name in EXPERIMENTS
    for key, text, value, readers in (("samples", "10", 10, SAMPLED), ("tie_tol", "0.1", 0.1, SAMPLED),
                                      ("dist", "haar", "haar", DIST_READERS))
    if name not in readers
]


class TestEachExperimentTakesOnlyItsFields:
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_help_lists_exactly_its_flags(self, experiment, capsys):
        with pytest.raises(SystemExit):
            main([experiment, "--help"])
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        expected = {"--dim", "--seed", "--workers"} | OWN_FLAGS.get(experiment, set()) | OUTPUT_FLAGS
        if experiment in SAMPLED:
            expected |= {"--samples", "--tie-tol"}
        if experiment in DIST_READERS:
            expected.add("--dist")
        assert listed == expected

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_a_default_run_echoes_only_what_it_reads(self, experiment, tmp_path):
        args, config = DEFAULT_RUNS.get(experiment, ([], None))
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            args = args + ["--config", str(cfg)]
        code, out = run_cli([experiment, "--seed", "1", "--format", "json"] + args, tmp_path, "out.json")
        assert code == 0
        records = json.loads(out.read_text())
        jsonschema.validate(records, result_schema())
        sampled = experiment in SAMPLED
        for record in records:
            assert record["schema_version"] == 2
            assert (record["samples"], record["tie_tol"]) == ((1, 0.0) if sampled else (None, None))
            assert record["dist"] == ("uniform-overlap" if experiment in DIST_READERS else None)

    @pytest.mark.parametrize("route", ["flag", "config"])
    @pytest.mark.parametrize("experiment, key, text, value", UNREAD_FIELDS)
    def test_a_field_it_does_not_read_exits_two_before_any_draw(self, experiment, key, text, value, route, tmp_path,
                                                                 monkeypatch, capsys):
        draws = []
        monkeypatch.setattr(sampling, "_uniforms", lambda *args: draws.append(args))
        flag = "--" + key.replace("_", "-")
        if route == "flag":
            with pytest.raises(SystemExit) as info:
                run_cli([experiment, "--seed", "1", flag, text], tmp_path)
            code, message = info.value.code, f"error: unrecognized arguments: {flag} {text}\n"
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: value}))
            code, _ = run_cli([experiment, "--seed", "1", "--config", str(cfg)], tmp_path)
            message = f"error: {experiment} has no config key {key!r}\n"
        assert code == 2
        assert capsys.readouterr().err.endswith(message)
        assert draws == []
        assert not (tmp_path / "out.csv").exists()


# argv that argparse answers itself: help, usage errors and bad values, for every experiment
PARSER_ARGVS = [
    [name, *rest]
    for name in EXPERIMENTS
    for rest in (["--help"], ["-h"], ["--bogus"], ["--format", "xml"], ["--dim"])
] + [["--help"], [], ["bogus"], ["--seed", "1", "born-mc"]]
# argv after an experiment name that the subparser alone parses: the ones argparse answers itself,
# then the ones it accepts
SHORTCUT_EXITS = {
    "unknown-flag": ["born-mc", "--seed", "1", "--bogus"],
    "extra-positional": ["born-mc", "--seed", "1", "extra"],
    "missing-value": ["basis-mc", "--seed"],
    "ambiguous-abbreviation": ["born-mc", "--s", "1"],
    "double-dash": ["born-mc", "--seed", "1", "--", "--samples", "5"],
    "help": ["born-mc", "-h"],
    "bad-flag-after-config": ["born-mc", "--seed", "1", "--config", "cfg.json", "--bogus", "2"],
    "flag-as-config-path": ["sic-validate", "--config", "--bogus"],
}
SHORTCUT_PARSES = {
    "abbreviated-flag": ["born-mc", "--samp", "5", "--seed", "1"],
    "repeated-flag": ["basis-mc", "--seed", "1", "--seed", "2", "--no-timing"],
    "equals-sign": ["weak-value", "--seed=3", "--form=json"],
}


def parse_outcome(parse, argv):
    """Standard output, standard error and exit code of ``parse(argv)``, which must exit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as info:
        parse(argv)
    return out.getvalue(), err.getvalue(), info.value.code


def python(*args):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)


class TestParser:
    @pytest.mark.parametrize("argv", [pytest.param(argv, id=" ".join(argv)) for argv in PARSER_ARGVS]
                             + [pytest.param(argv, id=name) for name, argv in SHORTCUT_EXITS.items()])
    def test_output_matches_the_full_parser(self, argv):
        reference = parse_outcome(lambda a: _parser.__wrapped__().parse_args(a), argv)  # built afresh
        assert len(reference[0]) + len(reference[1]) > 0
        assert parse_outcome(main, argv) == reference

    @pytest.mark.parametrize("argv", SHORTCUT_PARSES.values(), ids=SHORTCUT_PARSES)
    def test_the_subparser_parses_as_the_full_parser(self, argv):
        assert vars(_parse_args(argv)) == vars(_parser.__wrapped__().parse_args(argv))

    @pytest.mark.parametrize("argv", [["born-mc", "--seed", "1"], ["basis-mc"], ["--help"], [], ["bogus"]],
                             ids=" ".join)
    def test_every_argv_reuses_the_one_parser(self, argv, monkeypatch):
        _parser()
        built, init = [], argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *args, **kwargs: built.append(self) or init(self, *args, **kwargs))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()), suppress(SystemExit):
            _parse_args(argv)
        assert built == []

    def test_the_parser_is_built_by_the_first_call_alone(self):
        # not at import: a process that imports the module and runs nothing builds no parser
        proc = python("-c", (
            "import os, twostate.cli as cli\n"
            "built = [cli._parser.cache_info().currsize]\n"
            "for name in ('born-mc', 'basis-mc'):\n"
            "    assert cli.main([name, '--seed', '1', '--samples', '10', '--out', os.devnull]) == 0\n"
            "    built.append(cli._parser.cache_info().misses)\n"
            "print(built)"
        ))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"[0, 1, 1]\n"

    def test_a_call_leaves_nothing_for_the_next(self, tmp_path, capsys):
        assert main(["born-mc", "--dim", "4", "--tie-tol", "0.05", "--p-grid", "0.3", "--seed", "1",
                     "--samples", "100", "--out", str(tmp_path / "first.csv")]) == 0
        argv = ["born-mc", "--seed", "5", "--samples", "500", "--no-timing", "--format", "json"]
        assert main(argv) == 0
        proc = python("-m", "twostate.cli", *argv)
        assert proc.returncode == 0, proc.stderr
        assert capsys.readouterr().out.encode() == proc.stdout

    @pytest.mark.parametrize("argv", [["born-mc", "--help"], ["sic-search", "--help"], ["--help"]], ids=" ".join)
    def test_help_follows_the_width_at_the_time_it_is_printed(self, argv, monkeypatch):
        _parser()  # built at the default width
        printed = {}
        for columns in ("60", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            printed[columns] = parse_outcome(main, argv)
            assert printed[columns] == parse_outcome(lambda a: _parser.__wrapped__().parse_args(a), argv)
        assert printed["60"] != printed["200"]

    def test_argv_none_reads_the_process_arguments(self, capsys):
        argv = ["born-mc", "--seed", "5", "--samples", "500", "--no-timing", "--format", "json"]
        assert main(argv) == 0
        proc = python("-m", "twostate.cli", *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == capsys.readouterr().out.encode()

    def test_a_bad_field_flag_prints_one_error_line(self):
        proc = python("-m", "twostate.cli", "born-mc", "--seed", "1", "--dim", "x")
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.startswith(b"error: invalid dim: ") and proc.stderr.count(b"\n") == 1

    def test_import_leaves_scipy_unloaded(self):
        proc = python("-c", (
            "import sys, twostate, twostate.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        ))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == b"[]\n"


class TestRecords:
    def test_born_mc_matches_oracle_column(self, tmp_path):
        code, out = run_cli(
            ["born-mc", "--dim", "2", "--samples", "20000", "--seed", "42",
             "--p-grid", "0.3,0.7", "--no-timing"],
            tmp_path,
        )
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 2
        for row in rows:
            freq = float(row["frequency"])
            oracle = float(row["oracle"])
            stderr = float(row["std_err"])
            assert abs(freq - oracle) <= 4 * stderr

    def test_csv_round_trip_is_exact(self, tmp_path):
        code, out = run_cli(
            ["born-mc", "--dim", "3", "--samples", "5000", "--seed", "8",
             "--dist", "haar", "--p-grid", "0.6", "--no-timing"],
            tmp_path,
        )
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert float(rows[0]["oracle"]) == 0.6 ** 2  # repr round-trips exactly

    def test_json_format(self, tmp_path):
        code, out = run_cli(
            ["basis-mc", "--dim", "2", "--samples", "2000", "--seed", "3",
             "--dist", "haar", "--theta-deg", "60", "--format", "json", "--no-timing"],
            tmp_path, name="out.json",
        )
        assert code == 0
        records = json.loads(out.read_text())
        assert len(records) == 2
        expected_cols = [c for c in CSV_COLUMNS if c != "wall_time_s"]
        assert list(records[0].keys()) == expected_cols
        assert records[0]["extra"]["outcome"] == 0

    def test_timing_column_present_by_default(self, tmp_path):
        code, out = run_cli(["weak-value", "--seed", "1"], tmp_path)
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header.split(",") == CSV_COLUMNS

    def test_empty_record_list_gives_header_only_csv(self, tmp_path):
        out = tmp_path / "empty.csv"
        emit_results([], "csv", str(out))
        assert out.read_text() == ",".join(CSV_COLUMNS) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_an_undefined_conditional_frequency_is_null(self, fmt, tmp_path):
        # forward = backward = |+> over the computational basis: every rule sum is 1, nothing is assigned
        plus = vector_to_json(np.array([1.0, 1.0]) / np.sqrt(2.0))
        cfg = tmp_path / "plus.json"
        cfg.write_text(json.dumps({"basis": [vector_to_json(row) for row in np.eye(2)], "forward": plus,
                                   "dist_state": plus}))
        code, out = run_cli(["basis-mc", "--samples", "10", "--seed", "1", "--dist", "fixed", "--config", str(cfg),
                             "--format", fmt, "--no-timing"], tmp_path)
        assert code == 0

        def strict(token):
            raise ValueError(f"{token} is not JSON")

        if fmt == "json":
            extras = [rec["extra"] for rec in json.loads(out.read_text(), parse_constant=strict)]
        else:
            extras = [json.loads(row["extra"], parse_constant=strict)
                      for row in csv.DictReader(out.read_text().splitlines())]
        assert [extra["conditional_frequency"] for extra in extras] == [None, None]

    def test_config_echo(self, tmp_path):
        code, out = run_cli(
            ["born-mc", "--dim", "4", "--samples", "1000", "--seed", "77",
             "--tie-tol", "0.01", "--dist", "haar", "--p-grid", "0.5", "--no-timing"],
            tmp_path,
        )
        assert code == 0
        row = next(csv.DictReader(out.read_text().splitlines()))
        assert row["experiment"] == "born-mc"
        assert row["dim"] == "4"
        assert row["samples"] == "1000"
        assert row["seed"] == "77"
        assert row["tie_tol"] == "0.01"
        assert row["dist"] == "haar"
        assert row["schema_version"] == "2"


class TestExperiments:
    def test_exclusivity_scan_clean(self, tmp_path):
        code, out = run_cli(
            ["exclusivity-scan", "--dim", "3", "--samples", "1000", "--seed", "5", "--no-timing"],
            tmp_path,
        )
        assert code == 0
        row = next(csv.DictReader(out.read_text().splitlines()))
        assert json.loads(row["extra"])["violations"] == 0

    def test_exclusivity_scan_full_scale(self, tmp_path):
        code, out = run_cli(
            ["exclusivity-scan", "--dim", "5", "--samples", "10000", "--seed", "7", "--no-timing"],
            tmp_path,
        )
        assert code == 0
        row = next(csv.DictReader(out.read_text().splitlines()))
        assert json.loads(row["extra"])["violations"] == 0
        # at d=5 a Haar backward state rarely overlaps any outcome strongly
        assert float(row["no_assign_rate"]) > 0.8

    @pytest.mark.parametrize("dim", [2, 3, 5])
    @pytest.mark.parametrize("experiment", ["exclusivity-scan", "born-mc-haar"])
    def test_rates_match_the_closed_form_laws(self, experiment, dim, tmp_path):
        # scan: P(some outcome fires) = d(d-1) B(d, d-1) = d / C(2d-2, d-1), exactly;
        # Haar born-mc: P(fires) = p^(d-1), the tail of the Beta(1, d-1) overlap
        samples = 200_000
        if experiment == "exclusivity-scan":
            args = ["exclusivity-scan"]
            expected = [(None, dim / math.comb(2 * dim - 2, dim - 1))]  # also the record's oracle
        else:
            args = ["born-mc", "--dist", "haar"]
            expected = [(p, p ** (dim - 1)) for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
            args += ["--p-grid", ",".join(str(p) for p, _ in expected)]
        code, out = run_cli(args + ["--dim", str(dim), "--samples", str(samples), "--seed", "43",
                                    "--format", "json"], tmp_path, name="rates.json")
        assert code == 0
        records = json.loads(out.read_text())
        assert len(records) == len(expected)
        for record, (p, rate) in zip(records, expected):
            assert (record["p_or_theta"], record["oracle"]) == (p, rate)
            sigma = math.sqrt(rate * (1.0 - rate) / samples)
            assert abs(record["frequency"] - rate) <= 5.0 * sigma, (p, record["frequency"], rate)

    def test_sic_validate_builtin(self, tmp_path):
        for dim in ("2", "3"):
            code, out = run_cli(["sic-validate", "--dim", dim, "--seed", "1", "--no-timing"], tmp_path)
            assert code == 0
            extra = json.loads(next(csv.DictReader(out.read_text().splitlines()))["extra"])
            assert extra["passed"] is True
            assert extra["max_pair_deviation"] < 1e-10

    def test_sic_validate_needs_fiducial_beyond_builtin(self, tmp_path):
        code, _ = run_cli(["sic-validate", "--dim", "5", "--seed", "1"], tmp_path)
        assert code == 2

    def test_sic_validate_reports_a_bad_fiducial(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fiducial": vector_to_json(np.eye(4)[0])}))  # |0> has no equiangular orbit
        code, out = run_cli(["sic-validate", "--dim", "4", "--seed", "1", "--config", str(cfg), "--no-timing"],
                            tmp_path)
        assert code == 0
        assert json.loads(next(csv.DictReader(out.read_text().splitlines()))["extra"])["passed"] is False

    def test_sic_distinguish_rejects_a_bad_fiducial(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fiducial": vector_to_json(np.eye(4)[0])}))  # |0> has no equiangular orbit
        code, out = run_cli(["sic-distinguish", "--dim", "4", "--samples", "10", "--seed", "1",
                             "--config", str(cfg)], tmp_path)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: invalid fiducial: projector set fails validation at ")
        assert not out.exists()

    def test_sic_search(self, tmp_path):
        code, out = run_cli(
            ["sic-search", "--dim", "2", "--seed", "11", "--restarts", "4",
             "--max-iters", "400", "--no-timing"],
            tmp_path,
        )
        assert code == 0
        extra = json.loads(next(csv.DictReader(out.read_text().splitlines()))["extra"])
        assert extra["converged"] is True
        assert extra["orbit_passes_1e-5"] is True

    def test_sic_distinguish(self, tmp_path):
        code, out = run_cli(
            ["sic-distinguish", "--dim", "2", "--samples", "100", "--seed", "2", "--no-timing"],
            tmp_path,
        )
        assert code == 0
        row = next(csv.DictReader(out.read_text().splitlines()))
        extra = json.loads(row["extra"])
        assert extra["separated"] + extra["no_separator"] == 100

    def test_stationary_solve_round_trip(self, tmp_path):
        h = np.diag([1.0, 3.0]).astype(complex)
        k = np.array([[0.0, 2.0j], [2.0j, 0.0]])
        cfg = tmp_path / "solve.json"
        cfg.write_text(json.dumps({
            "hamiltonian": matrix_to_json(h),
            "target_k": matrix_to_json(k),
            "diagonal": [0.5, 0.5],
            "seed": 1,
        }))
        code, out = run_cli(["stationary-solve", "--config", str(cfg), "--no-timing"], tmp_path)
        assert code == 0
        extra = json.loads(next(csv.DictReader(out.read_text().splitlines()))["extra"])
        assert extra["residual"] <= 1e-12
        rho = matrix_from_json(extra["rho"])
        assert np.linalg.norm(commutator(rho, h) - k) <= 1e-12
        assert rho[0, 1] == 1.0j

    def test_stationary_solve_requires_matrices(self, tmp_path, capsys):
        code, _ = run_cli(["stationary-solve", "--seed", "1"], tmp_path)
        assert code == 2
        assert "hamiltonian" in capsys.readouterr().err

    def test_pbr_geometric(self, tmp_path):
        code, out = run_cli(
            ["pbr-geometric", "--samples", "200", "--seed", "3", "--no-timing"], tmp_path
        )
        assert code == 0
        row = next(csv.DictReader(out.read_text().splitlines()))
        extra = json.loads(row["extra"])
        assert extra["separators_found"] == 200
        assert extra["min_margin"] >= 1e-9

    @pytest.mark.parametrize("seed", range(20))
    def test_basis_mc_fixed_exact_tie_exits_zero(self, seed, tmp_path):
        # forward = backward = (|a_0> + |a_1>)/sqrt(2): both sums are exactly 1
        # and nothing fires; rounding once made both fire and exit 4
        basis = random_unitary(np.random.default_rng(seed), 3).T
        tie = (basis[0] + basis[1]) / np.sqrt(2)
        cfg = tmp_path / "tie.json"
        cfg.write_text(json.dumps({
            "basis": [vector_to_json(b) for b in basis],
            "forward": vector_to_json(tie),
            "dist_state": vector_to_json(tie),
        }))
        code, out = run_cli(
            ["basis-mc", "--dim", "3", "--samples", "100", "--seed", "1", "--dist", "fixed",
             "--config", str(cfg), "--no-timing"],
            tmp_path,
        )
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [float(row["no_assign_rate"]) for row in rows] == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("args, key", [
        (["sic-distinguish", "--dim", "2"], "separated"),
        (["pbr-geometric"], "separators_found"),
    ], ids=["sic-distinguish", "pbr-geometric"])
    def test_tie_tol_raises_the_rule_threshold(self, args, key, tmp_path):
        def count(tie_tol):
            code, out = run_cli(args + ["--samples", "300", "--seed", "3", "--tie-tol", tie_tol, "--format", "json"],
                                tmp_path, name=f"tie-{tie_tol}.json")
            assert code == 0
            return json.loads(out.read_text())[0]["extra"][key]

        assert count("0.5") < count("0")

    def test_weak_value_default(self, tmp_path):
        code, out = run_cli(["weak-value", "--seed", "1", "--no-timing"], tmp_path)
        assert code == 0
        extra = json.loads(next(csv.DictReader(out.read_text().splitlines()))["extra"])
        assert extra["value_re"] == pytest.approx(1.0)
        assert extra["event_probability"] == pytest.approx(0.5)


# A d=5 SIC fiducial found by search_fiducial (pair deviation below 1e-13).
FIDUCIAL_D5 = [
    [-0.48210607036987824, 0.05783862030839433], [-0.08247204080664565, -0.18213432239286537],
    [0.19546777904492033, -0.14213058650282356], [0.6603324980387913, -0.23804564846712076],
    [0.4159869023829873, -0.009761355753587254],
]
# The 16-dim Sylvester-Hadamard basis: orthonormal real rows whose entries, +-1/4, are exact.
_H2 = np.array([[1.0, 1.0], [1.0, -1.0]])
HADAMARD_16 = np.kron(np.kron(_H2, _H2), np.kron(_H2, _H2)) / 4.0
# Forward states whose candidates (the outcomes that can fire) are stick-broken over a standard
# basis: outcomes 0 and 3 at d = 8 under uniform overlap (q_0 and one piece of the rest), and 8
# of 32 outcomes under Haar, the outcome that fires (weight 0.93) the last but one piece drawn.
FORWARD_U8 = np.zeros(8, dtype=complex)
FORWARD_U8[[0, 3]] = np.sqrt(0.6), np.sqrt(0.4) * np.exp(0.7j)
_WEIGHTS_H32 = np.zeros(32)
_WEIGHTS_H32[[1, 4, 7, 10, 13, 20, 25, 31]] = 0.01
_WEIGHTS_H32[25] = 0.93
FORWARD_H32 = np.sqrt(_WEIGHTS_H32) * np.exp(1j * np.arange(32))
STICK_U8 = (["basis-mc", "--dim", "8", "--dist", "uniform-overlap", "--samples", "20000", "--seed", "53"],
            {"basis": [vector_to_json(row) for row in np.eye(8)], "forward": vector_to_json(FORWARD_U8)})
STICK_H32 = (["basis-mc", "--dim", "32", "--dist", "haar", "--samples", "40000", "--seed", "59"],
             {"basis": [vector_to_json(row) for row in np.eye(32)], "forward": vector_to_json(FORWARD_H32)})
# Uniform-overlap draws of one word per sample: born-mc at p = 0 (nothing can fire), 0.5 and 1 above a tie
# tolerance, a born-mc of three full chunks and a short last one, and a basis-mc whose forward state is
# the first row of the 4-dim Fourier basis (entries +-1/2 and +-i/2, exact), so that the target is the
# only outcome that can fire.
FOURIER_4 = np.array([[1j ** (j * k) for k in range(4)] for j in range(4)]) / 2.0
WORD_EDGES = (["born-mc", "--dim", "3", "--samples", "4000", "--seed", "61", "--p-grid", "0,0.5,1", "--tie-tol",
               "0.01"], None)
WORD_CHUNKS = (["born-mc", "--dim", "4", "--samples", "100003", "--seed", "67", "--p-grid", "0.3,0.8"], None)
WORD_TARGET = (["basis-mc", "--dim", "4", "--dist", "uniform-overlap", "--samples", "40000", "--seed", "71",
                "--tie-tol", "0.25"],
               {"basis": [vector_to_json(row) for row in FOURIER_4], "forward": vector_to_json(FOURIER_4[0])})
# Haar born-mc at d = 2, where the one candidate's overlap is 1 - u (the power 1/(d - 1) is 1), and at
# d = 16.
HAAR_D2 = (["born-mc", "--dim", "2", "--dist", "haar", "--samples", "4000", "--seed", "73", "--p-grid", "0.3,0.75"],
           None)
HAAR_D16 = (["born-mc", "--dim", "16", "--dist", "haar", "--samples", "20000", "--seed", "79", "--p-grid",
             "0.9,0.97"], None)
PAYLOAD_HEADER = "schema_version,experiment,dim,samples,seed,tie_tol,dist,p_or_theta,frequency,std_err," \
                 "no_assign_rate,oracle,extra\n"
# The --no-timing CSV rows of two or more configs of each sampled experiment, as sample-stream
# version 6 and result schema 2 produce them; a change of these bytes is a change of sample
# streams or of the schema. The basis-mc
# rows at d = 16 (Haar) and d = 5 (uniform overlap) tally multi-outcome chunks in which
# several outcomes fire; at d = 16 two of the 16 outcomes can fire, and their overlaps are
# stick-broken, while the qubit rows and the d = 5 rows draw all d flat Dirichlet. The d = 8
# (uniform overlap) and d = 32 (Haar, 8 candidates) rows pin the stick-broken draw over more
# than one column in both laws. The word rows pin the uniform-overlap draws of one word per sample,
# which are tallied on their 32-bit words; the Haar born-mc rows pin its one-word draw at d = 2, 3
# and 16.
PINNED_PAYLOADS = {
    "born-mc-uniform-d4": (
        ["born-mc", "--dim", "4", "--samples", "5000", "--seed", "11", "--p-grid", "0.2,0.5,0.9"], None, [
            "2,born-mc,4,5000,11,0.0,uniform-overlap,0.2,0.2092,0.0057521362988023845,,0.2,{}",
            "2,born-mc,4,5000,11,0.0,uniform-overlap,0.5,0.4906,0.007069818102327669,,0.5,{}",
            "2,born-mc,4,5000,11,0.0,uniform-overlap,0.9,0.9002,0.004238866829708148,,0.9,{}",
        ]),
    "born-mc-haar-d3": (
        ["born-mc", "--dim", "3", "--samples", "3000", "--seed", "5", "--dist", "haar", "--p-grid", "0.4,0.8",
         "--tie-tol", "0.001"], None, [
            "2,born-mc,3,3000,5,0.001,haar,0.4,0.172,0.006889992743102129,,0.16000000000000003,{}",
            "2,born-mc,3,3000,5,0.001,haar,0.8,0.6416666666666667,0.008754628405507484,,0.6400000000000001,{}",
        ]),
    "born-mc-haar-d2": (*HAAR_D2, [
            "2,born-mc,2,4000,73,0.0,haar,0.3,0.3025,0.007262811955434342,,0.3,{}",
            "2,born-mc,2,4000,73,0.0,haar,0.75,0.73875,0.006946193876865229,,0.75,{}",
        ]),
    "born-mc-haar-d16": (*HAAR_D16, [
            "2,born-mc,16,20000,79,0.0,haar,0.9,0.2057,0.002858211941056856,,0.20589113209464907,{}",
            "2,born-mc,16,20000,79,0.0,haar,0.97,0.6355,0.0034032319198079933,,0.6332511891367891,{}",
        ]),
    "basis-mc-haar": (
        ["basis-mc", "--samples", "4000", "--seed", "13", "--dist", "haar", "--theta-deg", "45,120"], None, [
            '2,basis-mc,2,4000,13,0.0,haar,45.0,0.85675,0.0055391659457900335,0.0,0.8535533905932737,'
            '"{""outcome"":0,""conditional_frequency"":0.85675}"',
            '2,basis-mc,2,4000,13,0.0,haar,45.0,0.14325,0.0055391659457900335,0.0,0.14644660940672624,'
            '"{""outcome"":1,""conditional_frequency"":0.14325}"',
            '2,basis-mc,2,4000,13,0.0,haar,120.0,0.247,0.0068189258684927785,0.0,0.2500000000000001,'
            '"{""outcome"":0,""conditional_frequency"":0.247}"',
            '2,basis-mc,2,4000,13,0.0,haar,120.0,0.753,0.0068189258684927785,0.0,0.7499999999999999,'
            '"{""outcome"":1,""conditional_frequency"":0.753}"',
        ]),
    "basis-mc-uniform": (
        ["basis-mc", "--samples", "3000", "--seed", "17", "--theta-deg", "30,90"], None, [
            '2,basis-mc,2,3000,17,0.0,uniform-overlap,30.0,0.9323333333333333,0.0045857710688930265,0.0,'
            '0.9330127018922194,"{""outcome"":0,""conditional_frequency"":0.9323333333333333}"',
            '2,basis-mc,2,3000,17,0.0,uniform-overlap,30.0,0.06766666666666667,0.004585771068893027,0.0,'
            '0.06698729810778066,"{""outcome"":1,""conditional_frequency"":0.06766666666666667}"',
            '2,basis-mc,2,3000,17,0.0,uniform-overlap,90.0,0.483,0.009123431372022262,0.0,'
            '0.5000000000000001,"{""outcome"":0,""conditional_frequency"":0.483}"',
            '2,basis-mc,2,3000,17,0.0,uniform-overlap,90.0,0.517,0.009123431372022262,0.0,'
            '0.4999999999999999,"{""outcome"":1,""conditional_frequency"":0.517}"',
        ]),
    "basis-mc-haar-d16": (
        ["basis-mc", "--dim", "16", "--dist", "haar", "--samples", "262144", "--seed", "43"],
        {"basis": [vector_to_json(row) for row in HADAMARD_16],
         "forward": vector_to_json((HADAMARD_16[2] + 1j * HADAMARD_16[9]) / np.sqrt(2.0))}, [
            '2,basis-mc,16,262144,43,0.0,haar,,0.0,0.0,0.9998970031738281,0.0,'
            '"{""outcome"":0,""conditional_frequency"":0.0}"',
            '2,basis-mc,16,262144,43,0.0,haar,,0.0,0.0,0.9998970031738281,0.0,'
            '"{""outcome"":1,""conditional_frequency"":0.0}"',
            '2,basis-mc,16,262144,43,0.0,haar,,4.9591064453125e-05,1.3753745547457645e-05,0.9998970031738281,'
            '0.4999999999999999,"{""outcome"":2,""conditional_frequency"":0.48148148148148145}"',
            '2,basis-mc,16,262144,43,0.0,haar,,0.0,0.0,0.9998970031738281,0.0,'
            '"{""outcome"":3,""conditional_frequency"":0.0}"',
            '2,basis-mc,16,262144,43,0.0,haar,,0.0,0.0,0.9998970031738281,0.0,'
            '"{""outcome"":4,""conditional_frequency"":0.0}"',
            '2,basis-mc,16,262144,43,0.0,haar,,0.0,0.0,0.9998970031738281,0.0,'
            '"{""outcome"":5,""conditional_frequency"":0.0}"',
            '2,basis-mc,16,262144,43,0.0,haar,,0.0,0.0,0.9998970031738281,0.0,'
            '"{""outcome"":6,""conditional_frequency"":0.0}"',
            '2,basis-mc,16,262144,43,0.0,haar,,0.0,0.0,0.9998970031738281,0.0,'
            '"{""outcome"":7,""conditional_frequency"":0.0}"',
            '2,basis-mc,16,262144,43,0.0,haar,,0.0,0.0,0.9998970031738281,0.0,'
            '"{""outcome"":8,""conditional_frequency"":0.0}"',
            '2,basis-mc,16,262144,43,0.0,haar,,5.340576171875e-05,1.4272909059175519e-05,0.9998970031738281,'
            '0.4999999999999999,"{""outcome"":9,""conditional_frequency"":0.5185185185185185}"',
            '2,basis-mc,16,262144,43,0.0,haar,,0.0,0.0,0.9998970031738281,0.0,'
            '"{""outcome"":10,""conditional_frequency"":0.0}"',
            '2,basis-mc,16,262144,43,0.0,haar,,0.0,0.0,0.9998970031738281,0.0,'
            '"{""outcome"":11,""conditional_frequency"":0.0}"',
            '2,basis-mc,16,262144,43,0.0,haar,,0.0,0.0,0.9998970031738281,0.0,'
            '"{""outcome"":12,""conditional_frequency"":0.0}"',
            '2,basis-mc,16,262144,43,0.0,haar,,0.0,0.0,0.9998970031738281,0.0,'
            '"{""outcome"":13,""conditional_frequency"":0.0}"',
            '2,basis-mc,16,262144,43,0.0,haar,,0.0,0.0,0.9998970031738281,0.0,'
            '"{""outcome"":14,""conditional_frequency"":0.0}"',
            '2,basis-mc,16,262144,43,0.0,haar,,0.0,0.0,0.9998970031738281,0.0,'
            '"{""outcome"":15,""conditional_frequency"":0.0}"',
        ]),
    "basis-mc-uniform-d5": (
        ["basis-mc", "--dim", "5", "--samples", "20000", "--seed", "47"],
        {"basis": [vector_to_json(row) for row in np.eye(5)],
         "forward": vector_to_json(np.sqrt([0.35, 0.25, 0.2, 0.15, 0.05]) * np.exp(1j * np.arange(5)))}, [
            '2,basis-mc,5,20000,47,0.0,uniform-overlap,,0.35065,0.003374126386933364,0.6473,0.35,'
            '"{""outcome"":0,""conditional_frequency"":0.9941876949248654}"',
            '2,basis-mc,5,20000,47,0.0,uniform-overlap,,0.0011,0.00023439176606698453,0.6473,0.25,'
            '"{""outcome"":1,""conditional_frequency"":0.0031187978451942162}"',
            '2,basis-mc,5,20000,47,0.0,uniform-overlap,,0.00075,0.000193576535251564,0.6473,0.19999999999999998,'
            '"{""outcome"":2,""conditional_frequency"":0.0021264530762687838}"',
            '2,basis-mc,5,20000,47,0.0,uniform-overlap,,0.0002,9.998999949994999e-05,0.6473,0.14999999999999997,'
            '"{""outcome"":3,""conditional_frequency"":0.0005670541536716756}"',
            '2,basis-mc,5,20000,47,0.0,uniform-overlap,,0.0,0.0,0.6473,0.049999999999999996,'
            '"{""outcome"":4,""conditional_frequency"":0.0}"',
        ]),
    "basis-mc-uniform-d8-stick": (*STICK_U8, [
            '2,basis-mc,8,20000,53,0.0,uniform-overlap,,0.6003,0.003463667925768866,0.3993,0.6000000000000001,'
            '"{""outcome"":0,""conditional_frequency"":0.999334110204761}"',
            '2,basis-mc,8,20000,53,0.0,uniform-overlap,,0.0,0.0,0.3993,0.0,'
            '"{""outcome"":1,""conditional_frequency"":0.0}"',
            '2,basis-mc,8,20000,53,0.0,uniform-overlap,,0.0,0.0,0.3993,0.0,'
            '"{""outcome"":2,""conditional_frequency"":0.0}"',
            '2,basis-mc,8,20000,53,0.0,uniform-overlap,,0.0004,0.00014139306913706908,0.3993,0.4,'
            '"{""outcome"":3,""conditional_frequency"":0.000665889795238888}"',
            '2,basis-mc,8,20000,53,0.0,uniform-overlap,,0.0,0.0,0.3993,0.0,'
            '"{""outcome"":4,""conditional_frequency"":0.0}"',
            '2,basis-mc,8,20000,53,0.0,uniform-overlap,,0.0,0.0,0.3993,0.0,'
            '"{""outcome"":5,""conditional_frequency"":0.0}"',
            '2,basis-mc,8,20000,53,0.0,uniform-overlap,,0.0,0.0,0.3993,0.0,'
            '"{""outcome"":6,""conditional_frequency"":0.0}"',
            '2,basis-mc,8,20000,53,0.0,uniform-overlap,,0.0,0.0,0.3993,0.0,'
            '"{""outcome"":7,""conditional_frequency"":0.0}"',
        ]),
    "basis-mc-haar-d32-stick": (*STICK_H32, [
            '2,basis-mc,32,40000,59,0.0,haar,,0.0,0.0,0.89365,0.0,"{""outcome"":0,""conditional_frequency"":0.0}"',
            '2,basis-mc,32,40000,59,0.0,haar,,0.0,0.0,0.89365,0.010000000000000004,'
            '"{""outcome"":1,""conditional_frequency"":0.0}"',
            '2,basis-mc,32,40000,59,0.0,haar,,0.0,0.0,0.89365,0.0,"{""outcome"":2,""conditional_frequency"":0.0}"',
            '2,basis-mc,32,40000,59,0.0,haar,,0.0,0.0,0.89365,0.0,"{""outcome"":3,""conditional_frequency"":0.0}"',
            '2,basis-mc,32,40000,59,0.0,haar,,0.0,0.0,0.89365,0.010000000000000002,'
            '"{""outcome"":4,""conditional_frequency"":0.0}"',
            '2,basis-mc,32,40000,59,0.0,haar,,0.0,0.0,0.89365,0.0,"{""outcome"":5,""conditional_frequency"":0.0}"',
            '2,basis-mc,32,40000,59,0.0,haar,,0.0,0.0,0.89365,0.0,"{""outcome"":6,""conditional_frequency"":0.0}"',
            '2,basis-mc,32,40000,59,0.0,haar,,0.0,0.0,0.89365,0.010000000000000002,'
            '"{""outcome"":7,""conditional_frequency"":0.0}"',
            '2,basis-mc,32,40000,59,0.0,haar,,0.0,0.0,0.89365,0.0,"{""outcome"":8,""conditional_frequency"":0.0}"',
            '2,basis-mc,32,40000,59,0.0,haar,,0.0,0.0,0.89365,0.0,"{""outcome"":9,""conditional_frequency"":0.0}"',
            '2,basis-mc,32,40000,59,0.0,haar,,0.0,0.0,0.89365,0.010000000000000002,'
            '"{""outcome"":10,""conditional_frequency"":0.0}"',
            '2,basis-mc,32,40000,59,0.0,haar,,0.0,0.0,0.89365,0.0,"{""outcome"":11,""conditional_frequency"":0.0}"',
            '2,basis-mc,32,40000,59,0.0,haar,,0.0,0.0,0.89365,0.0,"{""outcome"":12,""conditional_frequency"":0.0}"',
            '2,basis-mc,32,40000,59,0.0,haar,,0.0,0.0,0.89365,0.010000000000000002,'
            '"{""outcome"":13,""conditional_frequency"":0.0}"',
            '2,basis-mc,32,40000,59,0.0,haar,,0.0,0.0,0.89365,0.0,"{""outcome"":14,""conditional_frequency"":0.0}"',
            '2,basis-mc,32,40000,59,0.0,haar,,0.0,0.0,0.89365,0.0,"{""outcome"":15,""conditional_frequency"":0.0}"',
            '2,basis-mc,32,40000,59,0.0,haar,,0.0,0.0,0.89365,0.0,"{""outcome"":16,""conditional_frequency"":0.0}"',
            '2,basis-mc,32,40000,59,0.0,haar,,0.0,0.0,0.89365,0.0,"{""outcome"":17,""conditional_frequency"":0.0}"',
            '2,basis-mc,32,40000,59,0.0,haar,,0.0,0.0,0.89365,0.0,"{""outcome"":18,""conditional_frequency"":0.0}"',
            '2,basis-mc,32,40000,59,0.0,haar,,0.0,0.0,0.89365,0.0,"{""outcome"":19,""conditional_frequency"":0.0}"',
            '2,basis-mc,32,40000,59,0.0,haar,,0.0,0.0,0.89365,0.010000000000000002,'
            '"{""outcome"":20,""conditional_frequency"":0.0}"',
            '2,basis-mc,32,40000,59,0.0,haar,,0.0,0.0,0.89365,0.0,"{""outcome"":21,""conditional_frequency"":0.0}"',
            '2,basis-mc,32,40000,59,0.0,haar,,0.0,0.0,0.89365,0.0,"{""outcome"":22,""conditional_frequency"":0.0}"',
            '2,basis-mc,32,40000,59,0.0,haar,,0.0,0.0,0.89365,0.0,"{""outcome"":23,""conditional_frequency"":0.0}"',
            '2,basis-mc,32,40000,59,0.0,haar,,0.0,0.0,0.89365,0.0,"{""outcome"":24,""conditional_frequency"":0.0}"',
            '2,basis-mc,32,40000,59,0.0,haar,,0.10635,0.0015414252941677064,0.89365,0.9300000000000002,'
            '"{""outcome"":25,""conditional_frequency"":1.0000000000000004}"',
            '2,basis-mc,32,40000,59,0.0,haar,,0.0,0.0,0.89365,0.0,"{""outcome"":26,""conditional_frequency"":0.0}"',
            '2,basis-mc,32,40000,59,0.0,haar,,0.0,0.0,0.89365,0.0,"{""outcome"":27,""conditional_frequency"":0.0}"',
            '2,basis-mc,32,40000,59,0.0,haar,,0.0,0.0,0.89365,0.0,"{""outcome"":28,""conditional_frequency"":0.0}"',
            '2,basis-mc,32,40000,59,0.0,haar,,0.0,0.0,0.89365,0.0,"{""outcome"":29,""conditional_frequency"":0.0}"',
            '2,basis-mc,32,40000,59,0.0,haar,,0.0,0.0,0.89365,0.0,"{""outcome"":30,""conditional_frequency"":0.0}"',
            '2,basis-mc,32,40000,59,0.0,haar,,0.0,0.0,0.89365,0.010000000000000004,'
            '"{""outcome"":31,""conditional_frequency"":0.0}"',
        ]),
    "born-mc-uniform-word-edges": (*WORD_EDGES, [
            "2,born-mc,3,4000,61,0.01,uniform-overlap,0.0,0.0,0.0,,0.0,{}",
            "2,born-mc,3,4000,61,0.01,uniform-overlap,0.5,0.4905,0.0079042670438188,,0.5,{}",
            "2,born-mc,3,4000,61,0.01,uniform-overlap,1.0,0.98875,0.0016675908895769356,,1.0,{}",
        ]),
    "born-mc-uniform-word-chunks": (*WORD_CHUNKS, [
            "2,born-mc,4,100003,67,0.0,uniform-overlap,0.3,0.3002309930702079,0.0014494345148679398,,0.3,{}",
            "2,born-mc,4,100003,67,0.0,uniform-overlap,0.8,0.8001859944201674,0.0012644507592105272,,0.8,{}",
        ]),
    "basis-mc-uniform-d4-word-target": (*WORD_TARGET, [
            '2,basis-mc,4,40000,71,0.25,uniform-overlap,,0.752075,0.0021590402634909336,0.247925,1.0,'
            '"{""outcome"":0,""conditional_frequency"":1.0}"',
            '2,basis-mc,4,40000,71,0.25,uniform-overlap,,0.0,0.0,0.247925,0.0,'
            '"{""outcome"":1,""conditional_frequency"":0.0}"',
            '2,basis-mc,4,40000,71,0.25,uniform-overlap,,0.0,0.0,0.247925,0.0,'
            '"{""outcome"":2,""conditional_frequency"":0.0}"',
            '2,basis-mc,4,40000,71,0.25,uniform-overlap,,0.0,0.0,0.247925,0.0,'
            '"{""outcome"":3,""conditional_frequency"":0.0}"',
        ]),
    "exclusivity-scan-d3": (
        ["exclusivity-scan", "--dim", "3", "--samples", "3000", "--seed", "19"], None, [
            '2,exclusivity-scan,3,3000,19,0.0,,,0.5123333333333333,,0.4876666666666667,0.5,'
            '"{""violations"":0}"',
        ]),
    "exclusivity-scan-d5": (
        ["exclusivity-scan", "--dim", "5", "--samples", "2000", "--seed", "23", "--tie-tol", "0.01"], None, [
            '2,exclusivity-scan,5,2000,23,0.01,,,0.0705,,0.9295,,"{""violations"":0}"',
        ]),
    "sic-distinguish-d3": (
        ["sic-distinguish", "--dim", "3", "--samples", "4000", "--seed", "29"], None, [
            '2,sic-distinguish,3,4000,29,0.0,,,0.97,,,,"{""separated"":3880,""no_separator"":120}"',
        ]),
    "sic-distinguish-d5": (
        ["sic-distinguish", "--dim", "5", "--samples", "1500", "--seed", "31"], {"fiducial": FIDUCIAL_D5}, [
            '2,sic-distinguish,5,1500,31,0.0,,,0.548,,,,'
            '"{""separated"":822,""no_separator"":678}"',
        ]),
    "pbr-geometric": (
        ["pbr-geometric", "--samples", "3000", "--seed", "37"], None, [
            '2,pbr-geometric,2,3000,37,0.0,,,1.0,,,,'
            '"{""separators_found"":3000,""degenerate"":0,""min_margin"":0.010471852079761867}"',
        ]),
    "pbr-geometric-tie-tol": (
        ["pbr-geometric", "--samples", "2000", "--seed", "41", "--tie-tol", "0.05"], None, [
            '2,pbr-geometric,2,2000,41,0.05,,,0.979,,,,'
            '"{""separators_found"":1958,""degenerate"":0,""min_margin"":0.0029614829744687154}"',
        ]),
}

PAYLOAD_COLUMNS = PAYLOAD_HEADER.rstrip("\n").split(",")


def csv_values(row: str) -> dict:
    """The values of a ``--no-timing`` CSV row, typed as a JSON record holds them; an empty cell is null."""
    (cells,) = csv.reader([row])

    def value(column, cell):
        if cell == "":
            return None
        if column == "extra":
            return json.loads(cell)
        if column in ("schema_version", "dim", "samples", "seed"):
            return int(cell)
        return cell if column in ("experiment", "dist") else float(cell)

    return {column: value(column, cell) for column, cell in zip(PAYLOAD_COLUMNS, cells, strict=True)}


def float_bits(value):
    """``value`` with each float replaced by its hex digits, so that == compares floats bit for bit."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: float_bits(item) for key, item in value.items()}
    if isinstance(value, list):
        return [float_bits(item) for item in value]
    return value



class TestDeterminism:
    @pytest.mark.parametrize("workers", ["1", "8"])
    @pytest.mark.parametrize("name", PINNED_PAYLOADS)
    def test_sampled_payload_is_pinned(self, name, workers, tmp_path):
        args, config, rows = PINNED_PAYLOADS[name]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            args = args + ["--config", str(cfg)]
        code, out = run_cli(args + ["--workers", workers, "--no-timing"], tmp_path)
        assert code == 0
        assert out.read_text() == PAYLOAD_HEADER + "".join(row + "\n" for row in rows)

    @pytest.mark.parametrize("name", PINNED_PAYLOADS)
    def test_json_payload_is_one_line_of_the_pinned_values(self, name, tmp_path):
        # JSON output is compact: one line of the records the pinned CSV rows hold, in column order
        args, config, rows = PINNED_PAYLOADS[name]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            args = args + ["--config", str(cfg)]
        code, out = run_cli(args + ["--format", "json", "--no-timing"], tmp_path, "out.json")
        assert code == 0
        payload = out.read_text()
        assert payload.endswith("\n") and payload.count("\n") == 1
        records = json.loads(payload)
        jsonschema.validate(records, result_schema())
        assert [list(record) for record in records] == [PAYLOAD_COLUMNS] * len(rows)
        assert float_bits(records) == float_bits([csv_values(row) for row in rows])

    @pytest.mark.parametrize("args, config", [
        (["born-mc", "--dim", "2", "--samples", "20000", "--seed", "42", "--p-grid", "0.3,0.7"], None),
        (["basis-mc", "--dim", "2", "--samples", "20000", "--seed", "42", "--dist", "haar",
          "--theta-deg", "60"], None),
        # the mc-haar-d16 benchmark's shape: Born weights 0.9 and 0.1, so about 20% of samples fire
        (["basis-mc", "--dim", "16", "--samples", "20000", "--seed", "42", "--dist", "haar"],
         {"basis": [vector_to_json(row) for row in HADAMARD_16],
          "forward": vector_to_json(np.sqrt(0.9) * HADAMARD_16[2] + np.sqrt(0.1) * HADAMARD_16[9])}),
        HAAR_D2,
        HAAR_D16,
        STICK_U8,
        STICK_H32,
        WORD_EDGES,
        WORD_CHUNKS,
        WORD_TARGET,
        (["exclusivity-scan", "--dim", "5", "--samples", "25000", "--seed", "7"], None),
        (["sic-distinguish", "--dim", "3", "--samples", "60000", "--seed", "7"], None),
        (["pbr-geometric", "--samples", "5000", "--seed", "7"], None),
    ], ids=["born-mc", "basis-mc", "basis-mc-haar-d16", "born-mc-haar-d2", "born-mc-haar-d16",
            "basis-mc-uniform-d8-stick", "basis-mc-haar-d32-stick",
            "born-mc-uniform-word-edges", "born-mc-uniform-word-chunks", "basis-mc-uniform-d4-word-target",
            "exclusivity-scan", "sic-distinguish", "pbr-geometric"])
    @pytest.mark.parametrize("chunk_words, workers", [
        (None, "8"),
        # 2048-word chunks: 10 born-mc, 20 basis-mc, 20 basis-mc-haar-d16 (two outcomes can fire:
        # 2 words per sample), 2 born-mc-haar-d2 and 10 born-mc-haar-d16 (one word) per point,
        # 20 basis-mc-uniform-d8-stick, 157 basis-mc-haar-d32-stick (8 words),
        # 2 born-mc-uniform-word-edges, 49 born-mc-uniform-word-chunks and 20
        # basis-mc-uniform-d4-word-target (one word) per point, 123 exclusivity-scan, 706
        # sic-distinguish and 40 pbr-geometric chunks
        (2048, "3"),
        # 999-word chunks are ragged: basis-mc-haar-d16 runs 40 chunks of 499 samples and one of 40,
        # basis-mc-haar-d32-stick 322 of 124 and one of 72
        (999, "2"),
    ], ids=["default-chunks", "small-chunks", "ragged-chunks"])
    def test_worker_count_leaves_bytes_unchanged(self, args, config, chunk_words, workers, tmp_path, monkeypatch):
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            args = args + ["--config", str(cfg)]
        _, single = run_cli(args + ["--workers", "1", "--no-timing"], tmp_path, "w1.csv")
        if chunk_words is not None:
            monkeypatch.setattr(sampling, "_CHUNK_WORDS", chunk_words)
            monkeypatch.setattr(sampling, "_THREAD", threading.local())  # chunk buffers of the new size
            _, small = run_cli(args + ["--workers", "1", "--no-timing"], tmp_path, "small-w1.csv")
            assert small.read_bytes() == single.read_bytes()
        _, pooled = run_cli(args + ["--workers", workers, "--no-timing"], tmp_path, "pooled.csv")
        assert pooled.read_bytes() == single.read_bytes()

    @pytest.mark.parametrize("name", [
        "born-mc-uniform-d4", "born-mc-uniform-word-edges", "born-mc-uniform-word-chunks",
        "basis-mc-uniform-d4-word-target", "born-mc-haar-d2", "born-mc-haar-d3", "born-mc-haar-d16",
        "basis-mc-haar-d16", "basis-mc-uniform-d8-stick", "basis-mc-haar-d32-stick",
    ])
    def test_word_tallied_payloads_keep_their_bytes_on_the_baseline_dispatch(self, name, tmp_path):
        # these rows draw a stick and tally it on its 32-bit words: integer bounds decide each sample
        # but the few survivors, which run the float path, and no survivor's float sum lies within a
        # rounding of the rule's threshold, so numpy limited to its baseline SIMD code writes the
        # same bytes
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

        dispatched = [feature for feature in __cpu_dispatch__ if __cpu_features__.get(feature)]
        if not dispatched:
            pytest.skip("numpy dispatches no code beyond its baseline on this host")
        args, config, rows = PINNED_PAYLOADS[name]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            args = args + ["--config", str(cfg)]
        env = {**os.environ, "PYTHONPATH": str(SRC), "NPY_DISABLE_CPU_FEATURES": " ".join(dispatched)}
        proc = subprocess.run([sys.executable, "-m", "twostate.cli", *args, "--no-timing"], env=env,
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode() == PAYLOAD_HEADER + "".join(row + "\n" for row in rows)

    def test_a_run_with_no_candidate_draws_nothing(self, tmp_path, monkeypatch, capsys):
        # at p = 0 the rule cannot fire whatever the backward state: no word is drawn
        draws = []
        monkeypatch.setattr(sampling, "_words", lambda *args: draws.append(args))
        args = ["born-mc", "--dim", "3", "--dist", "haar", "--p-grid", "0.0", "--seed", "1", "--no-timing"]
        code, out = run_cli(args + ["--samples", "100"], tmp_path)
        assert code == 0 and draws == []
        assert out.read_text().splitlines()[1].split(",")[8:10] == ["0.0", "0.0"]
        code, out = run_cli(args + ["--samples", "0"], tmp_path, "zero.csv")
        assert code == 2 and draws == [] and not out.exists()
        assert capsys.readouterr().err == "error: invalid samples: expected an integer >= 1, got '0'\n"

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["exclusivity-scan", "--dim", "2", "--samples", "500", "--seed", "9", "--no-timing"]
        _, first = run_cli(args, tmp_path, "a.csv")
        _, second = run_cli(args, tmp_path, "b.csv")
        assert first.read_bytes() == second.read_bytes()


def scan_fields(tallies, samples: int) -> dict:
    return {"frequency": int(tallies[:-2].sum()) / samples, "no_assign_rate": int(tallies[-2]) / samples,
            "extra": {"violations": int(tallies[-1])}}


def sic_fields(separated: int, samples: int) -> dict:
    return {"frequency": separated / samples, "extra": {"separated": separated, "no_separator": samples - separated}}


def pbr_fields(counts, samples: int) -> dict:
    found, degenerate, min_margin = counts
    return {"frequency": found / samples,
            "extra": {"separators_found": found, "degenerate": degenerate, "min_margin": min_margin}}


PBR_INSTANCE = [[0, 0, 1], [0.6, 0, 0.8], [0, 0, -1], [0, 0.6, -0.8]]
# each batched experiment's runner: its arguments, its config, and the record fields of a direct kernel call
KERNEL_RUNS = {
    "exclusivity-scan": (["exclusivity-scan", "--dim", "3", "--samples", "2000", "--seed", "3", "--tie-tol", "0.05"],
                         None, lambda: scan_fields(exclusivity_scan(3, 2000, 3, 0.05), 2000)),
    "sic-distinguish": (["sic-distinguish", "--dim", "3", "--samples", "1000", "--seed", "4"], None,
                        lambda: sic_fields(sic_distinguish(builtin_fiducial(3), 1000, 4), 1000)),
    "sic-distinguish-fiducial": (
        ["sic-distinguish", "--dim", "5", "--samples", "500", "--seed", "5", "--tie-tol", "0.05"],
        {"fiducial": FIDUCIAL_D5},
        lambda: sic_fields(sic_distinguish(StateVector(vector_from_json(FIDUCIAL_D5)), 500, 5, 0.05), 500)),
    "pbr-geometric": (["pbr-geometric", "--samples", "1500", "--seed", "6", "--tie-tol", "0.05"], None,
                      lambda: pbr_fields(pbr_geometric(1500, 6, 0.05), 1500)),
    "pbr-geometric-instance": (["pbr-geometric", "--seed", "7", "--tie-tol", "0.3"], {"instance": PBR_INSTANCE},
                               lambda: pbr_fields(pbr_separators(np.array(PBR_INSTANCE, dtype=float)[:, None], 0.3), 1)),
}


class TestRunnersCallTheKernels:
    @pytest.mark.parametrize("name", KERNEL_RUNS)
    def test_record_equals_a_direct_kernel_call(self, name, tmp_path):
        args, config, kernel_fields = KERNEL_RUNS[name]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            args = args + ["--config", str(cfg)]
        code, out = run_cli(args + ["--workers", "2", "--format", "json", "--no-timing"], tmp_path, "out.json")
        assert code == 0
        (record,) = json.loads(out.read_text())
        expected = kernel_fields()
        assert {key: record[key] for key in expected} == expected

    def test_cli_imports_no_private_package_name(self):
        # the runners convert, call a public kernel and write; private names stay behind the library
        tree = ast.parse((SRC / "twostate" / "cli.py").read_text(encoding="utf-8"))
        private = [
            f"{'.' * node.level}{node.module or ''}:{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.level > 0 or node.module.split(".")[0] == "twostate")
            for alias in node.names
            if alias.name.startswith("_")
        ]
        assert private == []


# Inputs within the boundary's tolerances whose weights can fire two outcomes of one sample. One: the
# standard qubit basis, with forward = dist_state = (x, x), x = sqrt(0.5 + 4e-13), so the state's norm
# deviates from 1 by 4e-13, within NORM_TOL. Two: the basis (1, 0), (delta, sqrt(1 - delta^2)),
# delta = 5e-11, whose Gram deviation is within ORTHONORMAL_TOL, with forward = dist_state
# (sqrt(0.5 + delta/4), sqrt(0.5 - delta/4)). Under --dist fixed both fired two outcomes every sample.
_X = math.sqrt(0.5 + 4e-13)
_DELTA = 5e-11
_TILTED = [[1.0, 0.0], [_DELTA, math.sqrt(1.0 - _DELTA**2)]]
_TILTED_FORWARD = [math.sqrt(0.5 + _DELTA / 4), math.sqrt(0.5 - _DELTA / 4)]
PRECONDITION_REPROS = {
    "stretched-state": ({"basis": [vector_to_json(row) for row in np.eye(2)], "forward": vector_to_json([_X, _X]),
                         "dist_state": vector_to_json([_X, _X])}, "forward state", 1.0000000000008),
    "tilted-basis": ({"basis": [vector_to_json(row) for row in _TILTED], "forward": vector_to_json(_TILTED_FORWARD),
                      "dist_state": vector_to_json(_TILTED_FORWARD)}, "forward state", 1.00000000005),
    "stretched-backward-state": ({"basis": [vector_to_json(row) for row in np.eye(2)],
                                  "forward": vector_to_json([1.0, 0.0]), "dist_state": vector_to_json([_X, _X])},
                                 "fixed backward state", 1.0000000000008),
}


class TestRulePrecondition:
    """basis-mc checks the rule's precondition once per call: a state whose two largest weights over
    the basis sum to more than 1 + tie_tol + RULE_ROUNDING_BOUND is a configuration error, not a violation."""

    @staticmethod
    def _run(name, dist, tie_tol, tmp_path):
        config, _, _ = PRECONDITION_REPROS[name]
        if dist != "fixed":  # the sampled laws read no dist_state
            config = {key: value for key, value in config.items() if key != "dist_state"}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        return run_cli(["basis-mc", "--dim", "2", "--dist", dist, "--tie-tol", tie_tol, "--samples", "10",
                        "--seed", "1", "--config", str(cfg), "--no-timing"], tmp_path)

    # the sampled laws read no dist_state, so only a forward state is at fault under them
    CASES = [(name, dist) for name, (_, what, _) in PRECONDITION_REPROS.items()
             for dist in (["fixed", "haar", "uniform-overlap"] if what == "forward state" else ["fixed"])]

    @pytest.mark.parametrize("name, dist", CASES)
    def test_weights_that_can_fire_two_outcomes_exit_two(self, name, dist, tmp_path, capsys):
        _, what, total = PRECONDITION_REPROS[name]
        code, out = self._run(name, dist, "0", tmp_path)
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == (
            f"error: the {what}'s two largest weights over the outcomes sum to {total!r}, more than "
            "1 + tie_tol + 2.8e-14 (tie_tol = 0.0), the bound under which the rule fires at most one outcome "
            "per sample\n"
        )

    @pytest.mark.parametrize("name, dist", CASES)
    def test_the_same_weights_within_the_tie_tolerance_run(self, name, dist, tmp_path, capsys):
        # each pair of weights sums to less than 1 + tie_tol, so no two outcomes can fire together
        code, out = self._run(name, dist, "0.01", tmp_path)
        assert code == 0 and out.exists() and capsys.readouterr().err == ""


class TestViolationExitCode:
    def test_a_basis_mc_violation_blames_no_input(self, tmp_path, monkeypatch, capsys):
        from twostate import tally_rule

        monkeypatch.setattr("twostate.sampling.tally_rule", lambda sums, tie_tol=0.0: tally_rule(sums + 2.0, tie_tol))
        code, _ = run_cli(["basis-mc", "--samples", "10", "--seed", "1", "--dist", "haar", "--no-timing"], tmp_path)
        assert code == 4
        assert capsys.readouterr().err == "error: model-invariant violation: 10 samples fired more than one outcome\n"

    def test_forced_violation_exits_four(self, tmp_path, monkeypatch):
        # a multiple-outcome event cannot occur with valid bases, so force one
        # through the rule kernel to check the reporting path and exit code
        from twostate import tally_rule

        def every_outcome_fires(sums, tie_tol=0.0):
            return tally_rule(sums + 2.0, tie_tol)

        monkeypatch.setattr("twostate.sampling.tally_rule", every_outcome_fires)
        code, out = run_cli(
            ["exclusivity-scan", "--dim", "2", "--samples", "10", "--seed", "1", "--no-timing"],
            tmp_path,
        )
        assert code == 4
        row = next(csv.DictReader(out.read_text().splitlines()))
        assert json.loads(row["extra"])["violations"] == 10


class TestRuntimeErrorExitCode:
    def test_unwritable_out_exits_three(self, tmp_path, capsys):
        code, _ = run_cli(["weak-value", "--seed", "1"], tmp_path, name="missing-dir/out.csv")
        assert code == 3
        assert "could not write results" in capsys.readouterr().err

    def test_a_value_error_inside_basis_mc_is_no_configuration_error(self, tmp_path, monkeypatch, capsys):
        # only the rule's precondition is a configuration error; a fault in the estimator stays a runtime error
        def broken(*args):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(sampling, "_overlaps", broken)
        code, out = run_cli(["basis-mc", "--samples", "10", "--seed", "1", "--dist", "haar", "--no-timing"], tmp_path)
        assert code == 3 and not out.exists()
        assert capsys.readouterr().err == "error: ValueError: operands could not be broadcast together\n"

    def test_runtime_error_names_its_type(self, tmp_path, monkeypatch, capsys):
        def broken(cfg):
            raise RuntimeError("solver diverged")

        monkeypatch.setitem(_EXPERIMENTS, "weak-value", _EXPERIMENTS["weak-value"]._replace(run=broken))
        code, _ = run_cli(["weak-value", "--seed", "1"], tmp_path)
        assert code == 3
        assert capsys.readouterr().err == "error: RuntimeError: solver diverged\n"
