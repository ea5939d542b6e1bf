"""CLI subcommands: flags, exit codes, deterministic output."""

import json
import os
import subprocess
import sys
import warnings

import pytest

import seqnorm
from seqnorm.cli import _grid, main
from seqnorm.runner import load_plan, plan_to_dict


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def known_plan_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("plans") / "known.json"
    code = main([
        "design", "--kind", "known", "--alpha", "0.05", "--beta", "0.05",
        "--epsilon", "0.5", "--gamma", "0", "--sigma", "1",
        "--rho", "1", "--tau", "3", "--calibrate", "--out", str(path),
    ])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def unknown_plan_file(tmp_path_factory):
    # fixed zeta keeps this cheap; certification still runs
    path = tmp_path_factory.mktemp("plans") / "unknown.json"
    code = main([
        "design", "--kind", "unknown", "--alpha", "0.05", "--beta", "0.05",
        "--epsilon", "0.5", "--gamma", "0",
        "--rho", "1", "--tau", "3", "--zeta", "0.3333",
        "--cell-budget", "64", "--out", str(path),
    ])
    assert code == 0
    return path


class TestDesign:
    def test_unknown_refuses_sigma(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        code, stdout, err = run_cli([
            "design", "--kind", "unknown", "--alpha", "0.05", "--beta", "0.05",
            "--epsilon", "0.5", "--gamma", "0", "--sigma", "-5", "--zeta", "0.5",
            "--out", str(out),
        ], capsys)
        assert (code, stdout) == (2, "")
        assert err == "design: --sigma does not apply to --kind unknown\n"
        assert not out.exists()

    def test_calibrated_known_is_certified(self, known_plan_file):
        plan = load_plan(known_plan_file)
        assert plan.kind == "known"
        assert plan.certified is True

    def test_zeta_anchor_certifies_after_verification(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        code, stdout, _ = run_cli([
            "design", "--kind", "known", "--alpha", "0.05", "--beta", "0.05",
            "--epsilon", "0.5", "--gamma", "0", "--sigma", "1",
            "--rho", "1", "--tau", "3", "--zeta", str(1 / 3), "--out", str(out),
        ], capsys)
        assert code == 0
        assert load_plan(out).certified is True
        assert "certified   true" in stdout

    def test_missing_sigma_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli([
            "design", "--kind", "known", "--alpha", "0.05", "--beta", "0.05",
            "--epsilon", "0.5", "--gamma", "0",
            "--rho", "1", "--tau", "3", "--calibrate", "--out", str(tmp_path / "p.json"),
        ], capsys)
        assert code == 2
        assert "--sigma" in err

    def test_zeta_and_calibrate_mutually_exclusive(self, tmp_path, capsys):
        base = [
            "design", "--kind", "known", "--alpha", "0.05", "--beta", "0.05",
            "--epsilon", "0.5", "--gamma", "0", "--sigma", "1",
            "--rho", "1", "--tau", "3", "--out", str(tmp_path / "p.json"),
        ]
        assert run_cli(base, capsys)[0] == 2
        assert run_cli(base + ["--zeta", "0.3", "--calibrate"], capsys)[0] == 2

    def test_unknown_plan_has_no_sigma_key(self, unknown_plan_file):
        data = json.loads(unknown_plan_file.read_text())
        assert "sigma" not in data
        assert data["kind"] == "unknown"


class TestOc:
    def test_csv_shape_and_zone_rows(self, known_plan_file, capsys):
        code, out, _ = run_cli([
            "oc", str(known_plan_file),
            "--theta-min", "-1", "--theta-max", "1", "--points", "5",
        ], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "theta,oc_lower,oc_upper"
        assert len(lines) == 6
        by_theta = {row.split(",")[0]: row for row in lines[1:]}
        assert by_theta["0.0"] == "0.0,,"
        lo = float(by_theta["-0.5"].split(",")[1])
        assert lo >= 1 - 0.05  # certified plan at the zone edge

    def test_symmetric_grid_mirrors(self, known_plan_file, capsys):
        code, out, _ = run_cli([
            "oc", str(known_plan_file),
            "--theta-min", "-1.5", "--theta-max", "1.5", "--points", "7",
        ], capsys)
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        table = {float(r[0]): r for r in rows}
        for theta in (0.5, 1.0, 1.5):
            hi = float(table[theta][2])
            lo = float(table[-theta][1])
            assert lo == pytest.approx(1.0 - hi, abs=1e-9)

    def test_mu_units(self, known_plan_file, capsys):
        code, out, _ = run_cli([
            "oc", str(known_plan_file), "--mu-units",
            "--theta-min", "-1", "--theta-max", "1", "--points", "3",
        ], capsys)
        assert code == 0
        assert out.startswith("theta,oc_lower,oc_upper\n")

    def test_mu_units_rejected_for_unknown(self, unknown_plan_file, capsys):
        code, _, err = run_cli([
            "oc", str(unknown_plan_file), "--mu-units",
            "--theta-min", "-1", "--theta-max", "1", "--points", "3",
        ], capsys)
        assert code == 2
        assert "sigma" in err

    def test_grid_ends_at_theta_max(self):
        # lo + (points - 1) * step cancels to 0.0 here
        assert _grid(-1e160, -1e10, 2) == [-1e160, -1e10]
        assert _grid(-1.0, 1.0, 5) == [-1.0, -0.5, 0.0, 0.5, 1.0]

    def test_unreadable_plan(self, tmp_path, capsys):
        code, _, err = run_cli([
            "oc", str(tmp_path / "missing.json"),
            "--theta-min", "-1", "--theta-max", "1", "--points", "3",
        ], capsys)
        assert code == 1

    def test_out_of_memory_is_one_line(self, known_plan_file, capsys, monkeypatch):
        # a grid of 10**10 points does not fit in memory; a stand-in raises
        # the MemoryError its list would, without allocating it
        def no_memory(lo, hi, points):
            raise MemoryError

        monkeypatch.setattr(seqnorm.cli, "_grid", no_memory)
        code, out, err = run_cli([
            "oc", str(known_plan_file),
            "--theta-min", "-1", "--theta-max", "1", "--points", "10000000000",
        ], capsys)
        assert (code, out, err) == (1, "", "oc: out of memory\n")


class TestAsn:
    def test_excludes_final_stage(self, known_plan_file, capsys):
        plan = load_plan(known_plan_file)
        code, out, _ = run_cli([
            "asn", str(known_plan_file), "--theta", "-0.5", "--theta", "0.5",
        ], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "theta"
        assert len(header) - 1 == plan.num_stages - 1
        for row in lines[1:]:
            for cell in row.split(",")[1:]:
                assert 0.0 <= float(cell) <= 1.0


@pytest.fixture(scope="module")
def single_stage_plan_files(tmp_path_factory):
    """A one-stage plan of each kind: tau 1 leaves no continuation tail."""
    folder = tmp_path_factory.mktemp("plans")
    files = {}
    for kind, extra in (("known", ["--sigma", "1"]), ("unknown", [])):
        files[kind] = folder / f"{kind}-single.json"
        code = main([
            "design", "--kind", kind, "--alpha", "0.05", "--beta", "0.05",
            "--epsilon", "0.5", "--gamma", "0", *extra,
            "--tau", "1", "--zeta", "0.5", "--out", str(files[kind]),
        ])
        assert code == 0
    return files


class TestCsvShape:
    @pytest.mark.parametrize("kind", ["known", "unknown"])
    @pytest.mark.parametrize("stages", ["single", "multi"])
    @pytest.mark.parametrize("command", [
        ["oc", "--theta-min", "-1", "--theta-max", "1", "--points", "3", "--cell-budget", "16"],
        ["asn", "--theta", "-0.5", "--theta", "0.5"],
    ], ids=["oc", "asn"])
    def test_every_row_has_the_header_fields(
        self, request, single_stage_plan_files, command, stages, kind, capsys
    ):
        if stages == "single":
            path = single_stage_plan_files[kind]
        else:
            path = request.getfixturevalue(f"{kind}_plan_file")
            capsys.readouterr()  # the fixture's design summary
        assert (load_plan(path).num_stages == 1) == (stages == "single")
        code, out, _ = run_cli([command[0], str(path), *command[1:]], capsys)
        assert code == 0
        header, *rows = out.rstrip("\n").split("\n")
        assert len(rows) in (2, 3)
        for row in rows:
            assert len(row.split(",")) == len(header.split(","))


class TestSimulateCmd:
    def test_json_report(self, known_plan_file, capsys):
        code, out, _ = run_cli([
            "simulate", str(known_plan_file),
            "--mu", "-0.5", "--reps", "20000", "--seed", "7",
        ], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["replications"] == 20000
        assert report["accept_rate"] + report["reject_rate"] == pytest.approx(1.0)
        assert sum(report["stage_histogram"]) == 20000

    def test_sigma_required_for_unknown(self, unknown_plan_file, capsys):
        code, _, err = run_cli([
            "simulate", str(unknown_plan_file),
            "--mu", "-0.5", "--reps", "100", "--seed", "7",
        ], capsys)
        assert code == 2
        code, out, _ = run_cli([
            "simulate", str(unknown_plan_file), "--sigma", "1.0",
            "--mu", "-0.5", "--reps", "100", "--seed", "7",
        ], capsys)
        assert code == 0


class TestRun:
    def test_accept_path_and_exit_codes(self, known_plan_file, tmp_path, capsys):
        session = tmp_path / "session.json"
        data = tmp_path / "data.csv"
        data.write_text("-5.0\n-5.0\n-5.0\n-5.0\n-5.0\n")
        code, out, _ = run_cli([
            "run", str(known_plan_file), "--session", str(session), "--data", str(data),
        ], capsys)
        assert code == 0
        assert out.startswith("Accepted at stage")

    def test_need_more_then_terminal(self, known_plan_file, tmp_path, capsys):
        session = tmp_path / "session.json"
        d1 = tmp_path / "d1.csv"
        d1.write_text("0.5\n-0.3\n")
        code, out, _ = run_cli([
            "run", str(known_plan_file), "--session", str(session), "--data", str(d1),
        ], capsys)
        assert code == 4
        assert out.startswith("NeedMore")
        d2 = tmp_path / "d2.csv"
        d2.write_text("9.0\n9.0\n9.0\n9.0\n9.0\n9.0\n9.0\n9.0\n9.0\n9.0\n9.0\n9.0\n9.0\n9.0\n9.0\n")
        code, out, _ = run_cli([
            "run", str(known_plan_file), "--session", str(session), "--data", str(d2),
        ], capsys)
        assert code == 3
        assert out.startswith("Rejected")

    def test_two_invocations_equal_one_combined(self, known_plan_file, tmp_path, capsys):
        rows = ["0.4", "-0.2", "1.3", "0.8", "-0.6", "0.1", "0.9", "1.1", "0.2",
                "-0.4", "0.6", "1.0", "0.3", "0.5", "-0.1", "0.7", "1.2"]
        split = tmp_path / "split.json"
        one = tmp_path / "one.json"
        (tmp_path / "p1.csv").write_text("\n".join(rows[:6]) + "\n")
        (tmp_path / "p2.csv").write_text("\n".join(rows[6:]) + "\n")
        (tmp_path / "all.csv").write_text("\n".join(rows) + "\n")
        code1, _, _ = run_cli([
            "run", str(known_plan_file), "--session", str(split),
            "--data", str(tmp_path / "p1.csv"),
        ], capsys)
        if code1 == 4:
            run_cli([
                "run", str(known_plan_file), "--session", str(split),
                "--data", str(tmp_path / "p2.csv"),
            ], capsys)
        run_cli([
            "run", str(known_plan_file), "--session", str(one),
            "--data", str(tmp_path / "all.csv"),
        ], capsys)
        a = json.loads(split.read_text())
        b = json.loads(one.read_text())
        assert a["status"] == b["status"]
        assert a["history"] == b["history"]

    def test_malformed_csv_names_line(self, known_plan_file, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("0.5\nnot-a-number\n")
        code, _, err = run_cli([
            "run", str(known_plan_file), "--session", str(tmp_path / "s.json"),
            "--data", str(data),
        ], capsys)
        assert code == 2
        assert "line 2" in err

    def test_tampered_session_exits_one(self, known_plan_file, tmp_path, capsys):
        session = tmp_path / "session.json"
        data = tmp_path / "data.csv"
        data.write_text("-5.0\n" * 5)
        run_cli([
            "run", str(known_plan_file), "--session", str(session), "--data", str(data),
        ], capsys)
        payload = json.loads(session.read_text())
        payload["history"][0]["statistic"] = payload["history"][0]["statistic"] + 1e-6
        session.write_text(json.dumps(payload))
        more = tmp_path / "more.csv"
        more.write_text("0.0\n")
        code, _, err = run_cli([
            "run", str(known_plan_file), "--session", str(session), "--data", str(more),
        ], capsys)
        assert code == 1

    def test_uncertified_plan_refused_without_flag(self, tmp_path, capsys):
        plan_path = tmp_path / "uncert.json"
        code = main([
            "design", "--kind", "known", "--alpha", "0.05", "--beta", "0.05",
            "--epsilon", "0.5", "--gamma", "0", "--sigma", "1",
            "--rho", "1", "--tau", "3", "--zeta", "0.99", "--out", str(plan_path),
        ])
        capsys.readouterr()
        assert code == 0
        from seqnorm.runner import load_plan as lp

        assert lp(plan_path).certified is False
        data = tmp_path / "d.csv"
        data.write_text("0.1\n")
        code, _, err = run_cli([
            "run", str(plan_path), "--session", str(tmp_path / "s.json"),
            "--data", str(data),
        ], capsys)
        assert code == 1
        code, out, _ = run_cli([
            "run", str(plan_path), "--session", str(tmp_path / "s.json"),
            "--data", str(data), "--allow-uncertified",
        ], capsys)
        assert code == 4


class TestDeterminism:
    def test_design_twice_byte_identical(self, tmp_path, capsys):
        args = [
            "design", "--kind", "known", "--alpha", "0.05", "--beta", "0.05",
            "--epsilon", "0.5", "--gamma", "0", "--sigma", "1",
            "--rho", "1", "--tau", "3", "--calibrate",
        ]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(args + ["--out", str(p1)], capsys)
        run_cli(args + ["--out", str(p2)], capsys)
        assert p1.read_bytes() == p2.read_bytes()

    def test_oc_and_simulate_twice_byte_identical(self, known_plan_file, tmp_path, capsys):
        oc1, oc2 = tmp_path / "oc1.csv", tmp_path / "oc2.csv"
        for out in (oc1, oc2):
            run_cli([
                "oc", str(known_plan_file), "--theta-min", "-1", "--theta-max", "1",
                "--points", "9", "--out", str(out),
            ], capsys)
        assert oc1.read_bytes() == oc2.read_bytes()
        s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
        for out in (s1, s2):
            run_cli([
                "simulate", str(known_plan_file), "--mu", "-0.5",
                "--reps", "20000", "--seed", "11", "--out", str(out),
            ], capsys)
        assert s1.read_bytes() == s2.read_bytes()


def write_edited_plan(source, target, edit):
    data = json.loads(source.read_text())
    edit(data)
    target.write_text(json.dumps(data))
    return target


class TestErrorHandling:
    """Failures print one "<command>: <message>" line instead of a traceback."""

    def test_oc_on_plan_with_alpha_two(self, known_plan_file, tmp_path, capsys):
        plan = write_edited_plan(
            known_plan_file, tmp_path / "p.json", lambda d: d.update(alpha=2)
        )
        code, out, err = run_cli([
            "oc", str(plan), "--theta-min", "-1.5", "--theta-max", "1.5", "--points", "5",
        ], capsys)
        assert code == 1
        assert out == ""
        assert err == "oc: cannot read plan: alpha must lie in (0, 1), got 2.0\n"

    @pytest.mark.parametrize("flag, message", [
        ("--cell-budget", "cell_budget must be >= 4, got 2"),
        ("--tail-mass", "tail_mass must lie in (0, 1), got 2.0"),
    ])
    def test_oc_on_unknown_plan_with_bad_budget(
        self, unknown_plan_file, known_plan_file, flag, message, tmp_path, capsys
    ):
        # known plans ignore both settings but refuse them with the same messages
        out = tmp_path / "plan.json"
        commands = [
            ["oc", str(plan), "--theta-min", "-1.5", "--theta-max", "1.5", "--points", "3"]
            for plan in (unknown_plan_file, known_plan_file)
        ] + [[
            "design", "--kind", "known", "--alpha", "0.05", "--beta", "0.05",
            "--epsilon", "0.5", "--gamma", "0", "--sigma", "1", *zeta, "--out", str(out),
        ] for zeta in (["--zeta", "0.5"], ["--calibrate"])]
        for command in commands:
            code, stdout, err = run_cli([*command, flag, "2"], capsys)
            assert (code, stdout) == (2, "")
            assert err == f"{command[0]}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["known", "unknown"])
    def test_design_refuses_interval_settings_before_calibrating(
        self, monkeypatch, kind, tmp_path, capsys
    ):
        def calibrate(*args, **kwargs):
            raise AssertionError("calibration ran")

        monkeypatch.setattr(seqnorm.cli, f"calibrate_{kind}", calibrate)
        out = tmp_path / "plan.json"
        code, stdout, err = run_cli([
            "design", "--kind", kind, "--alpha", "0.05", "--beta", "0.05", "--epsilon", "0.5",
            "--gamma", "0", *(["--sigma", "1"] if kind == "known" else []), "--calibrate",
            "--cell-budget", "2", "--out", str(out),
        ], capsys)
        assert (code, stdout) == (2, "")
        assert err == "design: cell_budget must be >= 4, got 2\n"
        assert not out.exists()

    def test_simulate_plan_whose_final_stage_does_not_close(
        self, known_plan_file, tmp_path, capsys
    ):
        # the design does not build these stages, so the plan is refused on load
        def open_final_stage(data):
            data["stages"][-1].update(a=-1.0, b=1.0)

        plan = write_edited_plan(known_plan_file, tmp_path / "p.json", open_final_stage)
        code, out, err = run_cli([
            "simulate", str(plan), "--mu", "0", "--reps", "1000", "--seed", "1",
        ], capsys)
        assert code == 1
        assert out == ""
        assert err == (
            "simulate: cannot read plan: the stored stages field does not match the plan's design\n"
        )

    def test_run_on_plan_with_edited_thresholds(self, known_plan_file, tmp_path, capsys):
        # stage-1 thresholds lowered to -3 with certified kept: earlier
        # versions ran this plan and rejected at stage 1 on data with mean 0.1
        def lower_first_stage(data):
            assert data["certified"] is True
            data["stages"][0].update(a=-3.0, b=-3.0)

        plan = write_edited_plan(known_plan_file, tmp_path / "p.json", lower_first_stage)
        n1 = load_plan(known_plan_file).sizes[0]
        data = tmp_path / "data.csv"
        data.write_text("0.1\n" * n1)
        session = tmp_path / "session.json"
        code, out, err = run_cli(
            ["run", str(plan), "--session", str(session), "--data", str(data)], capsys
        )
        assert (code, out) == (1, "")
        assert err == (
            "run: cannot read plan: the stored stages field does not match the plan's design\n"
        )
        assert not session.exists()

    @pytest.mark.parametrize("command", [
        ["run", "--session", "SESSION", "--data", "DATA"],
        ["oc", "--theta-min", "-1", "--theta-max", "1", "--points", "3"],
        ["asn", "--theta", "0.5"],
    ], ids=["run", "oc", "asn"])
    def test_known_plan_claiming_a_certificate_it_lacks(self, command, tmp_path, capsys):
        # zeta 0.9 gives bounds of 0.0899 > alpha = beta = 0.05; earlier
        # versions trusted the edited flag, and run printed NeedMore 3
        honest = tmp_path / "honest.json"
        code, stdout, _ = run_cli([
            "design", "--kind", "known", "--alpha", "0.05", "--beta", "0.05",
            "--epsilon", "0.5", "--gamma", "0", "--sigma", "1",
            "--rho", "1", "--tau", "3", "--zeta", "0.9", "--out", str(honest),
        ], capsys)
        assert code == 0 and "certified   false" in stdout
        assert load_plan(honest).certified is False  # never upgraded

        def claim_certificate(data):
            data["certified"] = True

        plan = write_edited_plan(honest, tmp_path / "p.json", claim_certificate)
        session = tmp_path / "session.json"
        data = tmp_path / "data.csv"
        data.write_text("0.1\n")
        paths = {"SESSION": str(session), "DATA": str(data)}
        args = [paths.get(arg, arg) for arg in command[1:]]
        code, out, err = run_cli([command[0], str(plan), *args], capsys)
        assert (code, out) == (1, "")
        assert err == (
            f"{command[0]}: cannot read plan: the plan says certified, but its bounds "
            "(0.089863334349066765, 0.089863334349066765) exceed (alpha, beta)\n"
        )
        assert not session.exists()

    def test_design_with_epsilon_too_small_for_finite_sizes(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        code, stdout, err = run_cli([
            "design", "--kind", "known", "--alpha", "0.05", "--beta", "0.05",
            "--epsilon", "1e-200", "--gamma", "0", "--sigma", "1", "--zeta", "0.5",
            "--out", str(out),
        ], capsys)
        assert (code, stdout) == (2, "")
        assert err == "design: epsilon must be large enough for finite stage sizes, got 1e-200\n"
        assert not out.exists()

    def test_simulate_plan_too_large_to_hold(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        assert main([
            "design", "--kind", "known", "--alpha", "0.05", "--beta", "0.05",
            "--epsilon", "1e-6", "--gamma", "0", "--sigma", "1", "--zeta", "0.5",
            "--out", str(plan),
        ]) == 0
        n_max = load_plan(plan).sizes[-1]
        capsys.readouterr()
        code, out, err = run_cli([
            "simulate", str(plan), "--mu", "0", "--reps", "1", "--seed", "1",
        ], capsys)
        assert (code, out) == (2, "")
        assert err == (
            f"simulate: final stage size {n_max} exceeds the simulation limit of 16777216 samples\n"
        )

    def test_design_failing_after_certification_writes_no_plan(self, tmp_path, capsys):
        # --zeta-tol is checked whether or not design calibrates
        out = tmp_path / "plan.json"
        for zeta_tol, shown in (("nan", "nan"), ("-1", "-1.0")):
            code, stdout, err = run_cli([
                "design", "--kind", "known", "--alpha", "0.05", "--beta", "0.05",
                "--epsilon", "0.5", "--gamma", "0", "--sigma", "1", "--zeta", "0.5",
                "--zeta-tol", zeta_tol, "--out", str(out),
            ], capsys)
            assert (code, stdout) == (2, "")
            assert err == f"design: zeta_tol must be > 0, got {shown}\n"
            assert not out.exists()

    def test_design_whose_calibration_fails_writes_no_plan(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        code, stdout, err = run_cli([
            "design", "--kind", "unknown", "--alpha", "0.05", "--beta", "0.05",
            "--epsilon", "0.5", "--gamma", "0", "--calibrate", "--tail-mass", "0.5",
            "--cell-budget", "4", "--out", str(out),
        ], capsys)
        assert (code, stdout) == (1, "")
        assert err == "design: calibration failed: no feasible zeta above floor 1e-06\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, expected", [
        # scipy 1.17's nctdtr gives NaN at |ncp| >= 1e10, where the noncentral
        # t CDF is its limit 0 or 1 to within 1e-12; the oc bounds then leave
        # out only the truncated tail mass
        (["oc", "--theta-min=-2e10", "--theta-max=-1e10", "--points", "2", "--cell-budget", "8"],
         "theta,oc_lower,oc_upper\n-20000000000.0,0.99990000000000001,1.0\n"
         "-10000000000.0,0.99990000000000001,1.0\n"),
        (["oc", "--theta-min=1e10", "--theta-max=2e10", "--points", "2", "--cell-budget", "8"],
         "theta,oc_lower,oc_upper\n10000000000.0,0.0,0.0001\n20000000000.0,0.0,0.0001\n"),
        (["asn", "--theta", "1e10", "--theta=-1e10"],
         "theta,tail_1,tail_2\n10000000000.0,0.0,0.0\n-10000000000.0,0.0,0.0\n"),
    ], ids=["oc-below", "oc-above", "asn"])
    def test_noncentral_t_past_nctdtr_is_its_limit(
        self, unknown_plan_file, command, expected, capsys
    ):
        code, out, err = run_cli([command[0], str(unknown_plan_file), *command[1:]], capsys)
        assert (code, out, err) == (0, expected, "")

    @pytest.mark.parametrize("command, message", [
        # the hyperbola offset's square overflows: refused before any region
        # is built, so no RuntimeWarning can leak from the arc integrand
        (["--theta-min=-1e160", "--theta-max=-1e10", "--points", "2", "--cell-budget", "8"],
         "oc: |theta| = 1e+160 is too large: the stage 2 term (n = 11) "
         "overflows double precision\n"),
        # the grid step overflows
        (["--theta-min=-1e308", "--theta-max=1e308", "--points", "3"],
         "oc: grid from -1e+308 to 1e+308 overflows double precision\n"),
    ])
    def test_huge_theta_is_refused(self, unknown_plan_file, command, message, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["oc", str(unknown_plan_file), *command], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize("bounds, message", [
        # sqrt(n) theta overflows at the first stage of the plan, and at the
        # last stage of the mirror plan that the upper bound evaluates at -theta
        (["--theta-min=-1.7e308", "--theta-max=-1.6e308"],
         "oc: |theta| = 1.7e+308 is too large: the stage 1 term (n = 5) "
         "overflows double precision\n"),
        (["--theta-min=5e307", "--theta-max=5.1e307"],
         "oc: |theta| = 5e+307 is too large: the stage 3 term (n = 17) "
         "overflows double precision\n"),
    ])
    def test_huge_theta_is_refused_known(self, known_plan_file, bounds, message, capsys):
        code, out, err = run_cli(["oc", str(known_plan_file), *bounds, "--points", "2"], capsys)
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize("kind", ["known", "unknown"])
    def test_asn_nan_theta_one_stage(self, single_stage_plan_files, kind, capsys):
        # a one-stage plan has no continuation tail whose bound would refuse it
        path = single_stage_plan_files[kind]
        code, out, err = run_cli(["asn", str(path), "--theta", "nan"], capsys)
        assert (code, out, err) == (2, "", "asn: theta must be finite, got nan\n")

    @pytest.mark.parametrize("kind", ["known", "unknown"])
    def test_asn_overflowing_theta(self, request, kind, capsys):
        path = request.getfixturevalue(f"{kind}_plan_file")
        capsys.readouterr()  # the fixture's design summary
        n = load_plan(path).stages[0].n
        code, out, err = run_cli(["asn", str(path), "--theta", "1e308"], capsys)
        assert (code, out) == (2, "")
        assert err == (
            f"asn: |theta| = 1e+308 is too large: the stage 1 term (n = {n}) "
            "overflows double precision\n"
        )

    def test_asn_nan_theta(self, known_plan_file, capsys):
        code, out, err = run_cli(["asn", str(known_plan_file), "--theta", "nan"], capsys)
        assert code == 2
        assert out == ""
        assert err == "asn: theta must be finite, got nan\n"

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_simulate_seed_outside_philox_key_range(self, known_plan_file, seed, capsys):
        code, out, err = run_cli([
            "simulate", str(known_plan_file), "--mu", "0", "--reps", "10", "--seed", str(seed),
        ], capsys)
        assert (code, out) == (2, "")
        assert err == f"simulate: seed must lie in [0, 2**128), got {seed}\n"

    def test_malformed_plan_field(self, known_plan_file, tmp_path, capsys):
        plan = write_edited_plan(
            known_plan_file, tmp_path / "p.json", lambda d: d.update(tau="x")
        )
        code, _, err = run_cli(["asn", str(plan), "--theta", "0"], capsys)
        assert code == 1
        assert err == "asn: cannot read plan: tau must be an integer, got 'x'\n"


def test_oc_makes_one_oc_bounds_call(known_plan_file, monkeypatch, capsys):
    # the grid points outside the zone, in grid order; the zone's rows stay empty
    calls = []
    oc_bounds = seqnorm.Plan.oc_bounds

    def counted(self, thetas, *args):
        calls.append(thetas)
        return oc_bounds(self, thetas, *args)

    monkeypatch.setattr(seqnorm.Plan, "oc_bounds", counted)
    code, out, err = run_cli([
        "oc", str(known_plan_file), "--theta-min", "-1.5", "--theta-max", "1.5", "--points", "7",
    ], capsys)
    assert (code, err) == (0, "")
    assert calls == [[-1.5, -1.0, -0.5, 0.5, 1.0, 1.5]]
    assert out.split("\n")[4] == "0.0,,"


def test_oc_refuses_a_bad_budget_whatever_its_grid(known_plan_file, capsys):
    # the one oc_bounds call checks the settings even when every point lies
    # inside the zone and no bound is computed
    code, out, err = run_cli([
        "oc", str(known_plan_file), "--theta-min", "-0.1", "--theta-max", "0.1", "--points", "3",
        "--cell-budget", "2",
    ], capsys)
    assert (code, out, err) == (2, "", "oc: cell_budget must be >= 4, got 2\n")


class TestIndifferenceBoundary:
    def test_oc_at_zone_edge_with_nonunit_scale(self, tmp_path, capsys):
        # gamma = 1.3, sigma = 0.7 made the old mu round trip turn theta = 0.5
        # into 0.49999999999999983, inside the zone, and the bound raised
        path = tmp_path / "plan.json"
        code, _, _ = run_cli([
            "design", "--kind", "known", "--alpha", "0.05", "--beta", "0.05",
            "--epsilon", "0.5", "--gamma", "1.3", "--sigma", "0.7",
            "--rho", "1", "--tau", "3", "--zeta", "0.9", "--out", str(path),
        ], capsys)
        assert code == 0
        code, out, err = run_cli([
            "oc", str(path), "--theta-min", "-1.5", "--theta-max", "0.5", "--points", "5",
        ], capsys)
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [r[0] for r in rows] == ["-1.5", "-1.0", "-0.5", "0.0", "0.5"]
        assert rows[3] == ["0.0", "", ""]
        plan = load_plan(path)
        [(lo, hi)] = plan.oc_bounds([0.5])
        assert [float(x) for x in rows[4]] == [0.5, lo, hi]


class TestClippedSizes:
    """A plan whose stage sizes were clipped to 2 loads without a warning."""

    CLIP = "RuntimeWarning: stage sizes below 2 were clipped to 2"

    def cli(self, *args, cwd):
        # a fresh interpreter, so warnings reach stderr as they would for a user
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(seqnorm.__file__)))
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "seqnorm.cli", *args],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def test_loading_prints_nothing(self, tmp_path):
        code, _, err = self.cli(
            "design", "--kind", "unknown", "--alpha", "0.05", "--beta", "0.05",
            "--epsilon", "2", "--gamma", "0", "--rho", "1", "--tau", "5", "--zeta", "0.9",
            "--cell-budget", "8", "--out", "plan.json", cwd=tmp_path,
        )
        assert code == 0
        assert err.count(self.CLIP) == 1  # the build; the mirror plan is not rebuilt
        code, _, err = self.cli("asn", "plan.json", "--theta", "0.5", cwd=tmp_path)
        assert (code, err) == (0, "")
        (tmp_path / "data.csv").write_text("0.1\n0.2\n0.3\n")
        code, out, err = self.cli(
            "run", "plan.json", "--session", "s.json", "--data", "data.csv", cwd=tmp_path
        )
        assert (code, out, err) == (4, "NeedMore 1\n", "")
        code, _, err = self.cli(
            "oc", "plan.json", "--theta-min", "-3", "--theta-max", "3", "--points", "4",
            "--cell-budget", "8", cwd=tmp_path,
        )
        assert (code, err) == (0, "")
