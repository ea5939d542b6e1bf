"""CLI subcommands: flags, exit codes, deterministic output."""

import json
import os
import subprocess
import sys

import pytest

import seqnorm
from seqnorm.cli import main
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

    def test_unreadable_plan(self, tmp_path, capsys):
        code, _, err = run_cli([
            "oc", str(tmp_path / "missing.json"),
            "--theta-min", "-1", "--theta-max", "1", "--points", "3",
        ], capsys)
        assert code == 1


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
    def test_oc_on_unknown_plan_with_bad_budget(self, unknown_plan_file, flag, message, capsys):
        code, _, err = run_cli([
            "oc", str(unknown_plan_file), "--theta-min", "-1.5", "--theta-max", "1.5",
            "--points", "3", flag, "2",
        ], capsys)
        assert code == 2
        assert err == f"oc: {message}\n"

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
        out = tmp_path / "plan.json"
        code, stdout, err = run_cli([
            "design", "--kind", "known", "--alpha", "0.05", "--beta", "0.05",
            "--epsilon", "0.5", "--gamma", "0", "--sigma", "1", "--zeta", "0.5",
            "--tail-mass", "nan", "--out", str(out),
        ], capsys)
        assert (code, stdout) == (2, "")
        assert err == "design: cannot serialize non-finite real nan\n"
        assert not out.exists()

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
        lo, hi = plan.oc_bounds(0.5)
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
