import csv
import gc
import json
import os
import subprocess
import sys
import time
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import axisiga
from axisiga.bessel import PillboxSpec
from axisiga.cli import main
from axisiga.studies import (
    CSV_COLUMNS,
    RUNNERS,
    StudyConfig,
    StudyError,
    StudyReport,
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
        {"study": "source", "modes": (1, 4)},
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

    def test_mode_above_60(self):
        # nothing in the discretization bounds m: the study of m = 61 runs,
        # and its reference column is the enumeration of scipy's roots
        from scipy.special import jn_zeros, jnp_zeros
        cfg = StudyConfig(study="pillbox", degrees=(2,), subdivisions=(4,),
                          modes=(61,), eigs=3)
        rows = run_pillbox_study(cfg).rows
        c = 1.0 / np.sqrt(cfg.eps * cfg.mu)
        scipy_omegas = sorted(
            c * np.sqrt((x / cfg.radius) ** 2
                        + (q * np.pi / cfg.length) ** 2)
            for roots, q0 in ((jn_zeros(61, 12), 0), (jnp_zeros(61, 12), 1))
            for x in roots for q in range(q0, 41))
        omegas = [r for r in rows if r["quantity"].startswith("omega_")]
        assert [r["reference"] for r in omegas] == scipy_omegas[:3]
        assert all(r["m"] == 61 and r["rel_error"] < 0.05 for r in omegas)
        assert [r["value"] for r in rows
                if r["quantity"] == "spurious_count"] == [0]

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

    def test_rate_rows_close_each_degree(self):
        cfg = StudyConfig(study="source", degrees=(1, 2),
                          subdivisions=(2, 3, 4), modes=(1, -1))
        rep = run_source_study(cfg)
        assert [(r["quantity"], r["p"], r["subdivisions"])
                for r in rep.rows] == [
            row for p in (1, 2) for row in [
                (q, p, sub) for sub in (2, 3, 4) for q in (
                    "gauge_residual", "gauge_residual", "B_error")] + [
                ("rate_B_error", p, "")]]
        # each B_error row carries the sum of its mesh's phase seconds
        phases = rep.metadata["phases"]
        assert [r["seconds"] for r in rep.rows
                if r["quantity"] == "B_error"] == [
            round(sum(r["seconds"] for r in phases
                      if (r["p"], r["subdivisions"]) == (p, sub)), 3)
            for p in (1, 2) for sub in (2, 3, 4)]
        assert all(r["seconds"] == "" for r in rep.rows
                   if r["quantity"] != "B_error")

    def test_negative_mode_runs(self):
        cfg = StudyConfig(study="source", degrees=(2,), subdivisions=(2, 3),
                          modes=(-1,), gamma=2.0)
        rep = run_source_study(cfg)
        parities = {r["parity"] for r in rep.rows if r["m"] == -1}
        assert parities == {"antisymmetric"}

    def test_mirror_pair_shares_one_solve(self, monkeypatch):
        cfg = lambda modes: StudyConfig(study="source", degrees=(2,),
                                        subdivisions=(2, 3), modes=modes)
        # m = 1 has no data and adds an exact 0: alone it is an input error
        single = [[r["value"] for r in run_source_study(cfg((m,))).rows
                   if r["quantity"] == "B_error"] for m in (-1, 2)]
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


class TestPhases:
    """``metadata["phases"]`` times each phase of a study once, with the
    peak RSS after it, and the solve and reference seconds are its
    records."""

    @pytest.mark.parametrize("study,first,solves", [
        ("pillbox", "reference", "eig_solves"),
        ("source", "derivation", "kkt_solves")])
    def test_phases_cover_the_study(self, study, first, solves):
        cfg = StudyConfig(study=study, degrees=(2,), subdivisions=(3, 4),
                          modes=(1, -1, 2), eigs=3)
        t0 = time.perf_counter()
        rep = RUNNERS[study](cfg)
        wall = time.perf_counter() - t0
        phases = rep.metadata["phases"]
        assert [(r["phase"], r["p"], r["subdivisions"], r["m"])
                for r in phases] == [(first, None, None, None)] + [
            row for sub in (3, 4) for row in [("forms", 2, sub, None)] + [
                (name, 2, sub, m) for m in (1, 2)
                for name in ("system", "solve", "post")]]
        assert all(r["seconds"] > 0 for r in phases)
        rss = [r["peak_rss_mb"] for r in phases]
        assert rss[0] > 0 and rss == sorted(rss)
        if sys.platform.startswith("linux"):
            # what a phase leaves resident, below the peak so far
            assert all(0 < r["rss_mb"] <= r["peak_rss_mb"] for r in phases)
        assert sum(r["seconds"] for r in phases) >= 0.9 * wall
        assert [s["seconds"] for s in rep.metadata[solves]] == [
            r["seconds"] for r in phases if r["phase"] == "solve"]
        if study == "pillbox":
            assert rep.metadata["reference_seconds"] == phases[0]["seconds"]
        # one row per mesh, its first pillbox row or its B_error row,
        # carries the sum of the mesh's phase seconds
        timed = [r for r in rep.rows if r["seconds"] != ""]
        assert [r["quantity"] for r in timed] == [
            "omega_1" if study == "pillbox" else "B_error"] * 2
        assert [r["seconds"] for r in timed] == [
            round(sum(r["seconds"] for r in phases
                      if r["subdivisions"] == sub), 3) for sub in (3, 4)]

    def test_exactness_phases_cover_the_suite(self):
        cfg = StudyConfig(study="exactness", degrees=(1, 2),
                          subdivisions=(4, 8), modes=(1, -2))
        t0 = time.perf_counter()
        rep = run_exactness_suite(cfg)
        wall = time.perf_counter() - t0
        phases = rep.metadata["phases"]
        assert [(r["phase"], r["p"], r["subdivisions"], r["m"])
                for r in phases] == [("exactness", p, sub, None)
                                     for p in (1, 2) for sub in (4, 8)]
        assert all(r["seconds"] > 0 for r in phases)
        rss = [r["peak_rss_mb"] for r in phases]
        assert rss[0] > 0 and rss == sorted(rss)
        assert sum(r["seconds"] for r in phases) >= 0.9 * wall
        # the first mode's row of each mesh carries its phase's seconds
        assert [r["seconds"] for r in rep.rows if r["seconds"] != ""] == [
            round(r["seconds"], 3) for r in phases]

    def test_a_phase_whose_body_raises_is_recorded(self):
        class Failure(Exception):
            pass

        report = StudyReport(StudyConfig())
        with pytest.raises(Failure):
            with report.phase("solve", 2, 4, 1):
                time.sleep(0.001)
                raise Failure
        [record] = report.metadata["phases"]
        assert (record["phase"], record["p"], record["subdivisions"],
                record["m"]) == ("solve", 2, 4, 1)
        assert record["seconds"] >= 0.001 and record["peak_rss_mb"] > 0

    def test_rss_absent_without_proc(self, monkeypatch):
        import builtins
        real_open = builtins.open

        def no_proc(path, *args, **kwargs):
            if str(path).startswith("/proc/"):
                raise FileNotFoundError(path)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", no_proc)
        report = StudyReport(StudyConfig())
        with report.phase("solve", 2, 4, 1):
            pass
        [record] = report.metadata["phases"]
        assert "rss_mb" not in record and record["peak_rss_mb"] > 0

    def test_traced_phases_record_allocations(self, tmp_path):
        # tracemalloc adds the traced peak and end size of each phase to
        # its record, and nothing else changes: untraced records have
        # neither field, and the CSV differs only in its seconds
        if tracemalloc.is_tracing():
            pytest.skip("the untraced run needs tracemalloc off")
        cfg = StudyConfig(study="source", degrees=(2,), subdivisions=(2, 3),
                          modes=(1, -1))
        untraced = run_source_study(cfg)
        tracemalloc.start()
        try:
            traced = run_source_study(cfg)
        finally:
            tracemalloc.stop()
        fields = {"alloc_peak_mib", "alloc_mib"}
        assert not any(fields & r.keys() for r in untraced.metadata["phases"])
        records = traced.metadata["phases"]
        assert len(records) == len(untraced.metadata["phases"])
        assert all(r["alloc_peak_mib"] >= r["alloc_mib"] > 0 for r in records)
        # the forms phase allocates more than it keeps
        assert any(r["alloc_peak_mib"] > r["alloc_mib"] for r in records
                   if r["phase"] == "forms")
        for name, rep in (("a", untraced), ("b", traced)):
            rep.write_csv(tmp_path / f"{name}.csv")
        strip = lambda name: [",".join(line.split(",")[:-1]) for line in
                              (tmp_path / f"{name}.csv").read_text()
                              .splitlines()]
        assert strip("a") == strip("b")

    @pytest.mark.parametrize("study,solves", [("pillbox", "eig_solves"),
                                              ("source", "kkt_solves")])
    def test_each_mesh_runs_its_pairs_before_the_next(self, study, solves):
        # pairs in order of first appearance: (2, -2), then (1, -1)
        rep = RUNNERS[study](StudyConfig(
            study=study, degrees=(2, 1), subdivisions=(4, 3),
            modes=(2, 1, -2, -1), eigs=2))
        meshes = [(p, sub) for p in (2, 1) for sub in (4, 3)]
        records = [(r["phase"], r["p"], r["subdivisions"], r["m"])
                   for r in rep.metadata["phases"][1:]]
        block = 1 + 3 * 2                # forms, then 3 phases per pair
        assert len(records) == block * len(meshes)
        for i, (p, sub) in enumerate(meshes):
            assert records[i * block:(i + 1) * block] == [
                ("forms", p, sub, None)] + [
                (name, p, sub, m) for m in (2, 1)
                for name in ("system", "solve", "post")]
        assert [(s["p"], s["subdivisions"], s["modes"])
                for s in rep.metadata[solves]] == [
            (p, sub, pair) for p, sub in meshes
            for pair in ([2, -2], [1, -1])]


class TestTaskLifetimes:
    """A mirror pair's ModeSystem dies before the next pair's is built, and
    a mesh's MeshForms, with its pairs' systems, before the next mesh's:
    by reference count alone, as the cyclic collector is off meanwhile."""

    @pytest.fixture
    def no_gc(self):
        enabled = gc.isenabled()
        gc.disable()
        yield
        if enabled:
            gc.enable()

    @pytest.mark.parametrize("study", ["pillbox", "source"])
    def test_earlier_pairs_and_meshes_are_dead(self, study, monkeypatch,
                                               no_gc):
        from axisiga import studies
        systems, forms = [], []
        alive = lambda refs: [ref for ref in refs if ref() is not None]

        def recorded(name, refs, dead):
            fn = getattr(studies, name)

            def record(*args, **kwargs):
                assert not any(alive(earlier) for earlier in dead), name
                obj = fn(*args, **kwargs)
                refs.append(weakref.ref(obj))
                return obj

            monkeypatch.setattr(studies, name, record)

        recorded("MeshForms", forms, (forms, systems))
        recorded("build_mode_system", systems, (systems,))
        RUNNERS[study](StudyConfig(study=study, degrees=(2,),
                                   subdivisions=(3, 4), modes=(1, -1, 2),
                                   eigs=2))
        assert len(forms) == 2 and len(systems) == 2 * 2
        assert not alive(forms) and not alive(systems)

    @pytest.mark.parametrize("study,name,when_called", [
        # the eigensolves need only their ModeSystem: the MeshForms dies
        # before the last pair's
        ("pillbox", "solve_generalized_eig", [True, False]),
        # the error norms of every mode read the MeshForms' table
        ("source", "l2_rho_error", [True, True, True])])
    def test_mesh_forms_live_while_needed(self, study, name, when_called,
                                          monkeypatch, no_gc):
        from axisiga import studies
        forms, alive = [], []
        make, fn = studies.MeshForms, getattr(studies, name)

        def recording_forms(*args, **kwargs):
            obj = make(*args, **kwargs)
            forms.append(weakref.ref(obj))
            return obj

        def recording_call(*args, **kwargs):
            alive.append(forms[0]() is not None)
            return fn(*args, **kwargs)

        monkeypatch.setattr(studies, "MeshForms", recording_forms)
        monkeypatch.setattr(studies, name, recording_call)
        RUNNERS[study](StudyConfig(study=study, degrees=(2,),
                                   subdivisions=(3,), modes=(1, -1, 2),
                                   eigs=2))
        assert len(forms) == 1 and alive == when_called


def test_peak_rss_units(monkeypatch):
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    import resource
    from axisiga import studies
    for platform, unit in (("linux", 1024), ("darwin", 1024 * 1024)):
        monkeypatch.setattr(sys, "platform", platform)
        monkeypatch.setattr(resource, "getrusage", lambda who: SimpleNamespace(
            ru_maxrss=300 * unit))
        assert studies._peak_rss_mb() == 300.0


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

    @pytest.mark.parametrize("study,flag,field", [
        ("source", "--degrees", "degree"),
        ("pillbox", "--subdivisions", "subdivision")])
    def test_duplicate_mesh(self, capsys, study, flag, field):
        # a repeated mesh would be solved twice and counted twice in the rate
        assert main([study, flag, "2,4,2"]) == 1
        assert f"error: {flag[2:]}: duplicate {field} 2" in (
            capsys.readouterr().err)

    def test_source_modes_without_data(self, capsys):
        # their B_error is exactly 0: no rate can be fitted (was exit 2)
        assert main(["source", "--degrees", "2", "--subdivisions", "2,4,8",
                     "--modes", "1"]) == 1
        assert "error: modes: the source study has data only for modes " \
            "3, 2, -1, -3" in capsys.readouterr().err

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
        # sympy is a test dependency only: no run-time module may load it;
        # scipy.special is loaded by the Bessel functions on first use
        src = os.path.dirname(os.path.dirname(axisiga.__file__))
        code = (f"import sys; sys.path.insert(0, {src!r}); import axisiga.cli; "
                "print('sympy' in sys.modules, "
                "'scipy.special' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == ["False", "False"]

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
        assert 0 <= solve["kernel_residual"] <= 1e3 * np.finfo(float).eps
        assert 0 <= solve["max_residual"] <= 1e-10
        assert (solve["n"], solve["count"]) == (65, 3)
        assert solve["factor_nnz"] >= 65
        assert solve["op_applications"] >= 1
        assert solve["m_products"] >= solve["op_applications"]
        assert 0 < solve["seconds"] < 60
        from axisiga.solve import _scipy_openblas
        assert solve["blas_threads"] == (1 if _scipy_openblas() else None)
        assert 0 < meta["reference_seconds"] < 60
        assert meta["peak_rss_mb"] > 0
        assert meta["phases"] and all(r["peak_rss_mb"] > 0
                                      for r in meta["phases"])
        assert main(["source", "--degrees", "2", "--subdivisions", "2",
                     "--modes", "1,2,-1", "--out", str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "source.json").read_text())["metadata"]
        kkt = meta["kkt_solves"]
        assert [s["modes"] for s in kkt] == [[1, -1], [2]]
        for s in kkt:
            assert (s["p"], s["subdivisions"], s["n"], s["k"]) \
                == (2, 2, 33, 12)
            assert s["factor_nnz"] >= 33
            assert 0 <= s["kernel_residual"] <= 1e3 * np.finfo(float).eps
            assert s["blas_threads"] == solve["blas_threads"]
            assert 0 < s["residual_primal"] <= 1e-10
            assert 0 < s["residual_gauge"] <= 1e-10
            assert 0 < s["seconds"] < 60
        assert meta["kkt_max_residual_primal"] == max(
            s["residual_primal"] for s in kkt)
        assert meta["peak_rss_mb"] > 0
        assert meta["phases"] and all(r["peak_rss_mb"] > 0
                                      for r in meta["phases"])

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
