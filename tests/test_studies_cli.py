import csv
import json

import numpy as np
import pytest

from axisiga.cli import main
from axisiga.studies import (
    CSV_COLUMNS,
    StudyConfig,
    StudyError,
    run_exactness_suite,
    run_pillbox_study,
    run_source_study,
)


class TestConfig:
    def test_defaults_validate(self):
        StudyConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        {"study": "bogus"},
        {"degrees": ()},
        {"modes": (1, 0)},
        {"degrees": (0,)},
        {"eps": -1.0},
        {"eigs": 0},
        {"subdivisions": (4, 0)},
        {"target": "TE,3"},
        {"target": "TE,3,0"},
        {"target": "TM,0,1"},
        {"target": "TM,1,-1"},
        {"target": "TX,1,1"},
        {"target": "TE,a,1"},
        {"geometry": "nope"},
        {"modes": (3, 3)},
    ])
    def test_rejections(self, kwargs):
        with pytest.raises(StudyError):
            StudyConfig(**kwargs).validate()


class TestExactnessStudy:
    def test_rows_and_flags(self):
        cfg = StudyConfig(study="exactness", degrees=(1, 2),
                          subdivisions=(1, 2), modes=(1, 26))
        rep = run_exactness_suite(cfg)
        exact_rows = [r for r in rep.rows if r["quantity"] == "exact"]
        assert len(exact_rows) == 8
        assert all(r["value"] == 1 for r in exact_rows)
        norms = [r["value"] for r in rep.rows
                 if r["quantity"] in ("norm_CG", "norm_DC")]
        assert max(norms) <= 1e-12

    def test_deterministic_rows(self):
        cfg = StudyConfig(study="exactness", degrees=(2,), subdivisions=(2,))
        a = run_exactness_suite(cfg).rows
        b = run_exactness_suite(cfg).rows
        strip = lambda rows: [{k: v for k, v in r.items() if k != "seconds"}
                              for r in rows]
        assert strip(a) == strip(b)


class TestPillboxStudy:
    def test_small_run_accuracy(self):
        cfg = StudyConfig(study="pillbox", degrees=(2,), subdivisions=(4, 8),
                          modes=(1,), eigs=3)
        rep = run_pillbox_study(cfg)
        errs = {(r["subdivisions"], r["quantity"]): r["rel_error"]
                for r in rep.rows if r["quantity"].startswith("omega_")}
        # refinement shrinks every per-frequency error
        for i in (1, 2, 3):
            assert errs[(8, f"omega_{i}")] < errs[(4, f"omega_{i}")]
        assert errs[(8, "omega_1")] <= 1e-3
        spurious = [r["value"] for r in rep.rows
                    if r["quantity"] == "spurious_count"]
        assert spurious == [0, 0]

    def test_target_rate(self):
        cfg = StudyConfig(study="pillbox", degrees=(2,),
                          subdivisions=(2, 4, 8), modes=(1,), eigs=2,
                          target="TM,1,0")
        rep = run_pillbox_study(cfg)
        rates = [r for r in rep.rows if r["quantity"] == "rate_target"]
        assert len(rates) == 1
        assert rates[0]["value"] >= 2 * 2 - 0.5


class TestSourceStudy:
    def test_convergence_and_gauge(self):
        cfg = StudyConfig(study="source", degrees=(2,),
                          subdivisions=(2, 4, 8), modes=(3,), gamma=2.0)
        rep = run_source_study(cfg)
        errs = [r["value"] for r in rep.rows if r["quantity"] == "B_error"]
        assert len(errs) == 3 and errs[2] < errs[1] < errs[0]
        gauges = [r["value"] for r in rep.rows
                  if r["quantity"] == "gauge_residual"]
        assert max(gauges) <= 1e-10
        rate = [r for r in rep.rows if r["quantity"] == "rate_B_error"]
        assert rate[0]["value"] >= 2 - 0.3

    def test_negative_mode_runs(self):
        cfg = StudyConfig(study="source", degrees=(2,), subdivisions=(2, 3),
                          modes=(-1,), gamma=2.0)
        rep = run_source_study(cfg)
        parities = {r["parity"] for r in rep.rows if r["m"] == -1}
        assert parities == {"antisymmetric"}

    def test_one_set_of_tables_per_mesh(self, monkeypatch):
        # the interior table and one per neumann edge (east and south of the
        # default rectangle), however many modes share the mesh
        from axisiga import assembly
        built = []
        init = assembly._QuadTable.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(assembly._QuadTable, "__init__", counted)
        run_source_study(StudyConfig(study="source", degrees=(2,),
                                     subdivisions=(4,), modes=(1, 2)))
        assert len(built) == 1 + 2


class TestCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "config file schema" in out

    def test_exactness_run_writes_outputs(self, tmp_path):
        code = main(["exactness", "--degrees", "1", "--subdivisions", "1,2",
                     "--modes", "1", "--out", str(tmp_path)])
        assert code == 0
        with open(tmp_path / "exactness.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert tuple(rows[0].keys()) == CSV_COLUMNS
        assert {r["quantity"] for r in rows} >= {"norm_CG", "exact"}
        payload = json.loads((tmp_path / "exactness.json").read_text())
        assert payload["config"]["study"] == "exactness"
        assert (tmp_path / "exactness_rates.txt").exists()

    def test_missing_config_file(self, capsys):
        assert main(["exactness", "--config", "/nonexistent.cfg"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_flag_value(self, capsys):
        assert main(["exactness", "--modes", "0"]) == 1

    def test_duplicate_mode(self, capsys):
        assert main(["source", "--modes", "3,3"]) == 1
        assert "error: modes: duplicate mode 3" in capsys.readouterr().err

    def test_target_beyond_enumerated_modes(self, capsys):
        # TE,1,60 lies above the 80 analytic modes the study enumerates
        assert main(["pillbox", "--target", "TE,1,60"]) == 1
        assert "error: target: TE,1,60" in capsys.readouterr().err

    def test_too_many_eigs(self, capsys):
        # an input error (exit 1), not a numerical failure (exit 2)
        assert main(["pillbox", "--degrees", "1", "--subdivisions", "1",
                     "--modes", "1", "--eigs", "10"]) == 1
        err = capsys.readouterr().err
        assert "error: eigs: 10 asked, but the p=1 mesh" in err

    def test_solver_diagnostics_in_json(self, tmp_path):
        assert main(["pillbox", "--degrees", "2", "--subdivisions", "4",
                     "--modes", "1", "--eigs", "3", "--out",
                     str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "pillbox.json").read_text())["metadata"]
        [solve] = meta["eig_solves"]
        assert (solve["p"], solve["subdivisions"], solve["m"]) == (2, 4, 1)
        assert solve["kernel_dim"] == 20      # free Z^0 DoFs of the mesh
        assert solve["gap_ratio"] >= 1e6
        assert 0 <= solve["max_residual"] <= 1e-10
        assert (solve["n"], solve["count"]) == (65, 3)
        assert solve["factor_nnz"] >= 65
        assert 0 < solve["seconds"] < 60
        assert main(["source", "--degrees", "2", "--subdivisions", "2",
                     "--modes", "1", "--out", str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "source.json").read_text())["metadata"]
        assert 0 <= meta["kkt_max_residual_primal"] <= 1e-10

    def test_eigensolver_failure_exits_2(self, monkeypatch, capsys):
        from scipy.sparse.linalg import ArpackNoConvergence
        from axisiga import solve

        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(solve, "eigsh", no_convergence)
        assert main(["pillbox", "--degrees", "2", "--subdivisions", "4",
                     "--modes", "1", "--eigs", "3"]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_runner_input_error(self, capsys):
        # the dense-rank cap of the exactness report: exit 1, no traceback
        assert main(["exactness", "--degrees", "2",
                     "--subdivisions", "40"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("wibble = 3\n")
        assert main(["exactness", "--config", str(cfg)]) == 1

    def test_config_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "degrees = 3\n"
            "subdivisions 1 2\n"
            "modes = 2\n")
        code = main(["exactness", "--config", str(cfg), "--modes", "5",
                     "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "exactness.json").read_text())
        assert payload["config"]["degrees"] == [3]
        assert payload["config"]["subdivisions"] == [1, 2]
        assert payload["config"]["modes"] == [5]  # flag wins over file

    def test_csv_byte_reproducible(self, tmp_path):
        args = ["exactness", "--degrees", "2", "--subdivisions", "2",
                "--modes", "1,-1"]
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(d1)]) == 0
        assert main(args + ["--out", str(d2)]) == 0
        strip = lambda p: [",".join(line.split(",")[:-1]) for line in
                           (p / "exactness.csv").read_text().splitlines()]
        assert strip(d1) == strip(d2)  # identical apart from timings
