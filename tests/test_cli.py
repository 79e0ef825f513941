import csv
import json

import jsonschema
import numpy as np
import pytest

from twostate import (
    DegenerateInstanceError,
    OrthonormalBasis,
    PbrGeometricInstance,
    RngStream,
    TwoStatePairMixed,
    TwoStatePairPure,
    assign_over_basis,
    bloch_from_state,
    builtin_fiducial,
    builtin_sic,
    commutator,
    haar_state,
    haar_unitary,
    pbr_distinguishing_vector,
    satisfies_pure,
    sic_distinguish,
    state_from_bloch,
)
from twostate.cli import _RUNNERS, CSV_COLUMNS, emit_results, main, result_schema
from twostate.qcore import matrix_from_json, matrix_to_json, vector_to_json

from helpers import random_unitary


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
    ], ids=["unnormalized-forward", "non-orthonormal-basis", "basis-forward-dims",
            "bad-dist-state", "non-hermitian-observable", "string-in-p-grid"])
    def test_malformed_config_value_exits_two(self, args, config, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, _ = run_cli(args + ["--samples", "10", "--seed", "1", "--config", str(cfg)], tmp_path)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: invalid ")

    @pytest.mark.parametrize("args, config", [
        (["basis-mc"], {"basis": [vector_to_json(row) for row in np.eye(3)], "forward": [[1, 0], [0, 0], [0, 0]]}),
        (["sic-validate", "--dim", "2"], {"fiducial": vector_to_json(builtin_fiducial(3).entries)}),
        (["sic-distinguish", "--dim", "2"], {"fiducial": vector_to_json(builtin_fiducial(3).entries)}),
    ], ids=["basis-mc-basis", "sic-validate-fiducial", "sic-distinguish-fiducial"])
    def test_config_state_of_another_dimension_exits_two(self, args, config, tmp_path, capsys):
        # the run's dim is 2 (the default or --dim); a 3-dim config state must
        # not run under records that echo dim 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out = run_cli(args + ["--samples", "10", "--seed", "1", "--config", str(cfg)], tmp_path)
        assert code == 2
        assert "expected a state of dimension 2, got 3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("instance", [
        [[2, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [["x", 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[None, 0, 1], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
    ], ids=["non-unit", "non-numeric", "two-components", "three-vectors", "null-entry"])
    def test_malformed_pbr_instance_exits_two(self, instance, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instance": instance}))
        code, _ = run_cli(["pbr-geometric", "--seed", "1", "--config", str(cfg)], tmp_path)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: invalid instance: ")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["born-mc", "--help"])
        assert info.value.code == 0
        assert "backward" in capsys.readouterr().out


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

    def test_json_output_validates_against_schema(self, tmp_path):
        schema = result_schema()
        solve_cfg = tmp_path / "solve.json"
        solve_cfg.write_text(json.dumps({
            "hamiltonian": matrix_to_json(np.diag([1.0, 3.0])),
            "target_k": matrix_to_json(np.array([[0.0, 2.0j], [2.0j, 0.0]])),
            "diagonal": [0.5, 0.5],
        }))
        runs = [
            ["born-mc", "--dim", "2", "--samples", "1000", "--seed", "4", "--p-grid", "0.5"],
            ["basis-mc", "--dim", "2", "--samples", "1000", "--seed", "4", "--theta-deg", "60"],
            ["exclusivity-scan", "--dim", "2", "--samples", "200", "--seed", "5"],
            ["sic-validate", "--dim", "3", "--seed", "1"],
            ["sic-search", "--dim", "2", "--seed", "11", "--restarts", "2", "--max-iters", "200"],
            ["sic-distinguish", "--dim", "2", "--samples", "50", "--seed", "2"],
            ["stationary-solve", "--seed", "1", "--config", str(solve_cfg)],
            ["pbr-geometric", "--samples", "50", "--seed", "3"],
            ["weak-value", "--seed", "1"],
        ]
        assert sorted(args[0] for args in runs) == sorted(schema["items"]["properties"]["experiment"]["enum"])
        for args in runs:
            code, out = run_cli(args + ["--format", "json"], tmp_path, f"{args[0]}.json")
            assert code == 0
            jsonschema.validate(json.loads(out.read_text()), schema)

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
        assert row["schema_version"] == "1"


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

    @pytest.mark.parametrize("tie_tol", ["0.0", "0.05"])
    def test_exclusivity_scan_matches_per_sample_reference(self, tie_tol, tmp_path):
        # the batched scan against one assign_over_basis call per sample, drawn
        # from the same streams
        dim, samples, seed = 4, 300, 11
        fwd, bwd, bases = (RngStream(seed, k) for k in (1, 2, 3))
        assigned = 0
        for i in range(samples):
            pair = TwoStatePairPure(haar_state(dim, fwd, i), haar_state(dim, bwd, i))
            basis = OrthonormalBasis.from_unitary_matrix(haar_unitary(dim, bases, i))
            assigned += assign_over_basis(pair, basis, float(tie_tol)).assigned
        code, out = run_cli(
            ["exclusivity-scan", "--dim", str(dim), "--samples", str(samples), "--seed", str(seed),
             "--tie-tol", tie_tol, "--format", "json"],
            tmp_path, name="scan.json",
        )
        assert code == 0
        record = json.loads(out.read_text())[0]
        assert record["frequency"] == assigned / samples
        assert record["no_assign_rate"] == (samples - assigned) / samples
        assert record["extra"]["violations"] == 0

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

    def test_sic_distinguish_matches_per_instance_reference(self, tmp_path):
        # the batched experiment against one sic_distinguish call per pair,
        # drawn from the same streams
        dim, samples, seed = 3, 300, 12
        povm = builtin_sic(dim)
        streams = [RngStream(seed, 10 + k) for k in range(4)]
        separated = 0
        for i in range(samples):
            s0f, s0b, s1f, s1b = (haar_state(dim, st, i) for st in streams)
            pair0 = TwoStatePairMixed.from_pure(TwoStatePairPure(s0f, s0b))
            pair1 = TwoStatePairMixed.from_pure(TwoStatePairPure(s1f, s1b))
            separated += sic_distinguish(pair0, pair1, povm) is not None
        code, out = run_cli(
            ["sic-distinguish", "--dim", str(dim), "--samples", str(samples), "--seed", str(seed),
             "--format", "json"],
            tmp_path, name="sic.json",
        )
        assert code == 0
        extra = json.loads(out.read_text())[0]["extra"]
        assert extra == {"separated": separated, "no_separator": samples - separated}

    def test_pbr_geometric_matches_per_instance_reference(self, tmp_path):
        # the batched experiment against pbr_distinguishing_vector and
        # satisfies_pure per instance, drawn from the same streams
        samples, seed = 300, 13
        streams = [RngStream(seed, 20 + k) for k in range(4)]
        found, degenerate, margins = 0, 0, []
        for i in range(samples):
            m, mp, x, xp = (bloch_from_state(haar_state(2, st, i)) for st in streams)
            try:
                a = pbr_distinguishing_vector(PbrGeometricInstance((m, mp), (x, xp)))
            except DegenerateInstanceError:
                degenerate += 1
                continue
            u, v = m.as_array() + mp.as_array(), x.as_array() + xp.as_array()
            margins.append(min(a.as_array() @ u / np.linalg.norm(u), -a.as_array() @ v / np.linalg.norm(v)))
            state_a = state_from_bloch(a)
            found += (satisfies_pure(TwoStatePairPure(state_from_bloch(m), state_from_bloch(mp)), state_a)
                      and not satisfies_pure(TwoStatePairPure(state_from_bloch(x), state_from_bloch(xp)), state_a))
        code, out = run_cli(
            ["pbr-geometric", "--samples", str(samples), "--seed", str(seed), "--format", "json"],
            tmp_path, name="pbr.json",
        )
        assert code == 0
        extra = json.loads(out.read_text())[0]["extra"]
        assert (extra["separators_found"], extra["degenerate"]) == (found, degenerate)
        assert extra["min_margin"] == pytest.approx(min(margins), rel=1e-11)

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

    def test_weak_value_default(self, tmp_path):
        code, out = run_cli(["weak-value", "--seed", "1", "--no-timing"], tmp_path)
        assert code == 0
        extra = json.loads(next(csv.DictReader(out.read_text().splitlines()))["extra"])
        assert extra["value_re"] == pytest.approx(1.0)
        assert extra["event_probability"] == pytest.approx(0.5)


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ["born-mc", "--dim", "2", "--samples", "20000", "--seed", "42", "--p-grid", "0.3,0.7"],
        ["basis-mc", "--dim", "2", "--samples", "20000", "--seed", "42", "--dist", "haar",
         "--theta-deg", "60"],
        # three blocks at d=5, so the workers run the scan in parallel
        ["exclusivity-scan", "--dim", "5", "--samples", "25000", "--seed", "7"],
        # three blocks at d=3
        ["sic-distinguish", "--dim", "3", "--samples", "60000", "--seed", "7"],
        ["pbr-geometric", "--samples", "5000", "--seed", "7"],
    ])
    def test_worker_count_leaves_bytes_unchanged(self, args, tmp_path):
        _, single = run_cli(args + ["--workers", "1", "--no-timing"], tmp_path, "w1.csv")
        _, pooled = run_cli(args + ["--workers", "8", "--no-timing"], tmp_path, "w8.csv")
        assert single.read_bytes() == pooled.read_bytes()

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["exclusivity-scan", "--dim", "2", "--samples", "500", "--seed", "9", "--no-timing"]
        _, first = run_cli(args, tmp_path, "a.csv")
        _, second = run_cli(args, tmp_path, "b.csv")
        assert first.read_bytes() == second.read_bytes()


class TestViolationExitCode:
    def test_forced_violation_exits_four(self, tmp_path, monkeypatch):
        # a multiple-outcome event cannot occur with valid bases, so force one
        # through the rule kernel to check the reporting path and exit code
        from twostate import tally_rule

        def every_outcome_fires(sums, tie_tol=0.0):
            return tally_rule(sums + 2.0, tie_tol)

        monkeypatch.setattr("twostate.cli.tally_rule", every_outcome_fires)
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

    def test_runtime_error_names_its_type(self, tmp_path, monkeypatch, capsys):
        def broken(cfg):
            raise RuntimeError("solver diverged")

        monkeypatch.setitem(_RUNNERS, "weak-value", broken)
        code, _ = run_cli(["weak-value", "--seed", "1"], tmp_path)
        assert code == 3
        assert capsys.readouterr().err == "error: RuntimeError: solver diverged\n"
