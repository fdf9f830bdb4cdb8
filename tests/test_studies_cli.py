import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import axisiga
from axisiga.bessel import PillboxSpec
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
        {"gamma": float("nan")},
        {"eps": float("nan")},
        {"mu": float("inf")},
        {"radius": float("nan")},
        {"length": float("inf")},
        {"radius": 0.0},
        {"length": -0.1},
        # a study meshes only the cross-section its reference describes
        {"study": "pillbox", "geometry": "quarter-annulus"},
        {"study": "source", "geometry": "pillbox-section"},
        {"study": "pillbox", "geometry": __file__},
        {"study": "exactness", "geometry": "rectangle"},
        {"seed": -1},
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

    def test_one_report_per_mesh(self, monkeypatch):
        from axisiga import derham
        calls = []
        report = derham.exactness_report

        def counted(*args, **kwargs):
            calls.append(1)
            return report(*args, **kwargs)

        monkeypatch.setattr(derham, "exactness_report", counted)
        rep = run_exactness_suite(StudyConfig(
            study="exactness", degrees=(2,), subdivisions=(2,),
            modes=(1, -2, 26)))
        assert len(calls) == 1
        assert [r["m"] for r in rep.rows if r["quantity"] == "exact"] == [
            1, -2, 26]

    def test_deterministic_rows(self):
        cfg = StudyConfig(study="exactness", degrees=(2,), subdivisions=(2,))
        a = run_exactness_suite(cfg).rows
        b = run_exactness_suite(cfg).rows
        strip = lambda rows: [{k: v for k, v in r.items() if k != "seconds"}
                              for r in rows]
        assert strip(a) == strip(b)


def _count_calls(monkeypatch, name):
    """The list that records one entry per call of ``studies.<name>``."""
    from axisiga import studies
    calls = []
    fn = getattr(studies, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(studies, name, counted)
    return calls


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

    def test_named_section_follows_radius_and_length(self):
        # the named builtin is the config's radius x length, as the default
        strip = lambda rows: [{k: v for k, v in r.items() if k != "seconds"}
                              for r in rows]
        runs = [run_pillbox_study(StudyConfig(
            study="pillbox", geometry=name, degrees=(2,), subdivisions=(4,),
            modes=(1,), eigs=3, radius=0.05)).rows
            for name in ("pillbox-section", "")]
        assert strip(runs[0]) == strip(runs[1])

    def test_target_rate(self):
        cfg = StudyConfig(study="pillbox", degrees=(2,),
                          subdivisions=(2, 4, 8), modes=(1,), eigs=2,
                          target="TM,1,0")
        rep = run_pillbox_study(cfg)
        rates = [r for r in rep.rows if r["quantity"] == "rate_target"]
        assert len(rates) == 1
        assert rates[0]["value"] >= 2 * 2 - 0.5

    def test_one_mesh_forms_per_mesh(self, monkeypatch):
        built = _count_calls(monkeypatch, "MeshForms")
        run_pillbox_study(StudyConfig(study="pillbox", degrees=(2,),
                                      subdivisions=(2, 4), modes=(1, -2),
                                      eigs=3))
        assert len(built) == 2

    def test_shared_mesh_rows_equal_one_mode_runs(self):
        # rows come mode by mode, each mode's rate after its own errors;
        # a mirror pair shares its solve and reproduces both runs exactly
        strip = lambda rows: [{k: v for k, v in r.items() if k != "seconds"}
                              for r in rows]
        run = lambda modes: run_pillbox_study(StudyConfig(
            study="pillbox", degrees=(1, 2), subdivisions=(2, 4, 8),
            modes=modes, eigs=2, target="TM,1,0")).rows
        for m, other in ((1, -2), (2, -2)):
            both = run((m, other))
            assert strip(both) == strip(run((m,)) + run((other,)))
            assert [r["quantity"] for r in both].count("rate_target") == 4

    def test_mirror_pair_shares_reference_and_solve(self, monkeypatch):
        eigs = _count_calls(monkeypatch, "solve_generalized_eig")
        oracles = _count_calls(monkeypatch, "pillbox_spectrum")
        rep = run_pillbox_study(StudyConfig(
            study="pillbox", degrees=(2,), subdivisions=(2, 4),
            modes=(2, 1, -2), eigs=2))
        assert len(eigs) == 2 * 2             # per mesh, one per |m|
        assert [args[1] for args in oracles] == [2, 1]
        assert [s["modes"] for s in rep.metadata["eig_solves"]] == [
            [2, -2], [1]] * 2
        # mode-major rows in the order of config.modes
        assert [r["m"] for r in rep.rows if r["quantity"] == "omega_1"] == [
            2, 2, 1, 1, -2, -2]

    def test_target_reference_enumerates_once_per_mirror_pair(self,
                                                             monkeypatch):
        from axisiga import bessel
        oracles = _count_calls(monkeypatch, "pillbox_spectrum")
        frequencies = _count_calls(monkeypatch, "pillbox_frequency")
        scans, bessel_roots = [], bessel.bessel_roots

        def counted_roots(*args):
            scans.append(args)
            return bessel_roots(*args)

        monkeypatch.setattr(bessel, "bessel_roots", counted_roots)
        rep = run_pillbox_study(StudyConfig(
            study="pillbox", degrees=(2,), subdivisions=(4,),
            modes=(1, -1, 2), eigs=3, target="TE,1,2"))
        assert [args[1:] for args in oracles] == [(1, 80), (2, 80)]
        assert frequencies == []
        assert len(scans) == 2 * 2            # J and J' roots per |m|
        # the target is found by its label in the one enumeration
        target = [r for r in rep.rows if r["quantity"] == "target_error"]
        assert [r["m"] for r in target] == [1, -1, 2]
        for r in target:
            assert r["reference"] == bessel.pillbox_frequency(
                "TE", abs(r["m"]), 1, 2, PillboxSpec(0.035, 0.1))
            assert r["rel_error"] <= 0.05

    def test_bad_target_fails_before_assembly(self, monkeypatch):
        # TM,4,4 is among the 80 enumerated modes of m=1 but not of m=2
        built = _count_calls(monkeypatch, "MeshForms")
        with pytest.raises(StudyError, match="TM,4,4 is not among"):
            run_pillbox_study(StudyConfig(
                study="pillbox", degrees=(2,), subdivisions=(2,),
                modes=(1, 2), eigs=3, target="TM,4,4"))
        assert built == []


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

    def test_mirror_pair_shares_one_solve(self, monkeypatch):
        cfg = lambda modes: StudyConfig(study="source", degrees=(2,),
                                        subdivisions=(2, 3), modes=modes)
        single = [[r["value"] for r in run_source_study(cfg((m,))).rows
                   if r["quantity"] == "B_error"] for m in (1, -1, 2)]
        solves = _count_calls(monkeypatch, "solve_saddle_point")
        rep = run_source_study(cfg((1, -1, 2)))
        assert len(solves) == 2 * 2           # per mesh, one per |m|
        assert [np.shape(args[2]) for args in solves[:2]] == [(33, 2),
                                                              (33, 1)]
        errors = [r["value"] for r in rep.rows if r["quantity"] == "B_error"]
        for j, err in enumerate(errors):
            rss = np.sqrt(sum(one[j] ** 2 for one in single))
            assert err == pytest.approx(rss, rel=1e-12, abs=0)
        gauge = [(r["subdivisions"], r["m"], r["parity"]) for r in rep.rows
                 if r["quantity"] == "gauge_residual"]
        assert gauge == [(sub, m, parity) for sub in (2, 3)
                         for m, parity in ((1, "symmetric"),
                                           (-1, "antisymmetric"),
                                           (2, "symmetric"))]

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
        # malformed numbers are input errors, from a flag as from a file
        assert main(["pillbox", "--eigs", "abc"]) == 1
        assert main(["source", "--gamma", "x"]) == 1
        assert capsys.readouterr().err.count("error: ") == 3

    @pytest.mark.parametrize("key,val", [
        ("eigs", "abc"), ("gamma", "x"), ("degrees", "2,x"), ("seed", "1.5")])
    def test_malformed_value_names_its_field(self, tmp_path, capsys, key, val):
        # from a flag and from a config file alike
        study = "source" if key == "gamma" else "pillbox"
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = {val}\n")
        for argv in ([study, f"--{key}", val], [study, "--config", str(cfg)]):
            assert main(argv) == 1
            assert f"error: {key}: malformed value {val!r}" in (
                capsys.readouterr().err)

    def test_usage_errors_exit_1(self, capsys):
        for argv in (["pillbox", "--bogus", "1"], [], ["pillbox", "--eigs"]):
            assert main(argv) == 1
            assert capsys.readouterr().err.startswith("error: ")
        with pytest.raises(SystemExit) as exc:
            main(["pillbox", "--help"])
        assert exc.value.code == 0

    def test_duplicate_mode(self, capsys):
        assert main(["source", "--modes", "3,3"]) == 1
        assert "error: modes: duplicate mode 3" in capsys.readouterr().err

    def test_non_finite_gamma(self, capsys):
        # NaN fails every comparison, so range checks alone let it through
        assert main(["source", "--gamma", "nan", "--degrees", "2",
                     "--subdivisions", "2", "--modes", "1"]) == 1
        assert "error: gamma: must be a finite number" in (
            capsys.readouterr().err)

    def test_negative_seed(self, capsys):
        assert main(["source", "--seed", "-1"]) == 1
        assert "error: seed: " in capsys.readouterr().err

    def test_import_leaves_sympy_out(self):
        # sympy is a test dependency only: no run-time module may load it
        src = os.path.dirname(os.path.dirname(axisiga.__file__))
        code = (f"import sys; sys.path.insert(0, {src!r}); import axisiga.cli; "
                "print('sympy' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"

    def test_geometry_without_reference(self, capsys):
        assert main(["pillbox", "--geometry", "quarter-annulus", "--degrees",
                     "2", "--subdivisions", "4", "--modes", "1",
                     "--eigs", "3"]) == 1
        assert "error: geometry: the pillbox study meshes pillbox-section" in (
            capsys.readouterr().err)
        assert main(["source", "--geometry", "pillbox-section", "--degrees",
                     "2", "--subdivisions", "4", "--modes", "1"]) == 1
        assert "error: geometry:" in capsys.readouterr().err

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
                     "--modes", "1,-1", "--eigs", "3", "--out",
                     str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "pillbox.json").read_text())["metadata"]
        [solve] = meta["eig_solves"]          # one solve serves m = +-1
        assert (solve["p"], solve["subdivisions"], solve["m"]) == (2, 4, 1)
        assert solve["modes"] == [1, -1]
        assert solve["kernel_dim"] == 20      # free Z^0 DoFs of the mesh
        assert solve["gap_ratio"] >= 1e6
        assert 0 <= solve["max_residual"] <= 1e-10
        assert (solve["n"], solve["count"]) == (65, 3)
        assert solve["factor_nnz"] >= 65
        assert 0 < solve["seconds"] < 60
        from axisiga.solve import _scipy_openblas
        assert solve["blas_threads"] == (1 if _scipy_openblas() else None)
        assert 0 < meta["reference_seconds"] < 60
        assert main(["source", "--degrees", "2", "--subdivisions", "2",
                     "--modes", "1,2,-1", "--out", str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "source.json").read_text())["metadata"]
        kkt = meta["kkt_solves"]
        assert [s["modes"] for s in kkt] == [[1, -1], [2]]
        for s in kkt:
            assert (s["p"], s["subdivisions"], s["n"], s["k"]) == (2, 2, 33,
                                                                    12)
            assert 0 < s["residual_primal"] <= 1e-10
            assert 0 < s["residual_gauge"] <= 1e-10
            assert 0 < s["seconds"] < 60
        assert meta["kkt_max_residual_primal"] == max(
            s["residual_primal"] for s in kkt)

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
        # validate and materials are attributes but not config fields
        cfg = tmp_path / "c.cfg"
        for key in ("wibble", "validate", "materials"):
            cfg.write_text(f"{key} = 1\n")
            assert main(["exactness", "--config", str(cfg)]) == 1
            assert f"error: config: unknown field '{key}'" in (
                capsys.readouterr().err)

    def test_config_study_must_match_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("study = pillbox\n")
        assert main(["exactness", "--config", str(cfg), "--out",
                     str(tmp_path)]) == 1
        assert "error: study:" in capsys.readouterr().err
        assert not (tmp_path / "pillbox.csv").exists()

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
