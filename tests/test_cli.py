from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from armkit import cli, model, statics


def _run(capsys: pytest.CaptureFixture, argv: list[str]) -> tuple[int, str]:
    rc = cli.run(argv)
    out = capsys.readouterr().out
    return rc, out


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_usage_errors_exit_2(capsys: pytest.CaptureFixture) -> None:
    assert cli.run(["frobnicate"]) == 2
    assert cli.run(["fk", "--q", "1,2"]) == 2
    assert cli.run(["payload", "--policy", "fixed"]) == 2
    # the fallback's restart count is a constant, not an option
    assert cli.run(["ik", "--target", "0.2,0,0", "--rpy", "0,0,0",
                    "--restarts", "0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["workspace", "--per-joint-steps", "inf,25,25,5,5,5"],
    ["workspace", "--per-joint-steps", "nan,25,25,5,5,5"],
    ["payload", "--sweep-joints", "inf"],
    ["payload", "--limit-joints", "1e400"],
])
def test_non_finite_integer_lists_exit_2(capsys: pytest.CaptureFixture,
                                         argv: list) -> None:
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert "expected integers" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["fk", "--q", "-10,0,0,0,0,0"],
    ["jacobian", "--q", "-10,-20,30,0,15,5"],
    ["payload", "--policy", "fixed", "--q", "-5,0,90,0,-90,0"],
    ["ik", "--target", "-0.032745,0.209744,0.159752",
     "--rpy", "-174.2342,36.5229,-66.6136"],
    ["ik", "--target", "0.2,0.1,0.1", "--rpy", "0,90,0",
     "--q0", "-.5,0,0,0,0,0"],
])
def test_negative_comma_lists_parse_with_or_without_equals(
        capsys: pytest.CaptureFixture, argv: list) -> None:
    joined = []
    for word in argv:
        if word[:1] == "-" and word[1:2] != "-":
            joined[-1] += "=" + word
        else:
            joined.append(word)
    rc, spaced = _run(capsys, argv)
    assert rc == 0
    assert _run(capsys, joined) == (0, spaced)


def test_unknown_options_still_exit_2(capsys: pytest.CaptureFixture) -> None:
    assert cli.run(["fk", "--q", "-10,0,0,0,0,0", "--bogus"]) == 2
    # a negative list after an unknown option is not taken as its value
    assert cli.run(["fk", "--bogus", "-10,0,0,0,0,0"]) == 2
    assert cli.run(["fk", "--q", "0,0,0,0,0,0", "-10,0"]) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --bogus" in err
    assert "Traceback" not in err


def test_config_error_exits_3(capsys: pytest.CaptureFixture, tmp_path: Path) -> None:
    rc, _ = _run(capsys, ["fk", "--q", "0,0,0,0,0,0",
                          "--arm", str(tmp_path / "absent.yaml")])
    assert rc == 3


def test_computation_error_exits_4(capsys: pytest.CaptureFixture) -> None:
    rc, _ = _run(capsys, ["ik", "--target", "0.9,0,0", "--rpy", "0,0,0"])
    assert rc == 4
    # inside the reach bound, one step per start runs out of budget
    assert cli.run(["ik", "--target", "0.58,0,0", "--rpy", "0,0,0",
                    "--max-iters", "1"]) == 4
    assert "computation error: IK iteration budget exhausted (" \
        in capsys.readouterr().err


def test_negative_seeds_exit_2_naming_the_flag(capsys: pytest.CaptureFixture,
                                               tmp_path: Path) -> None:
    quasi = ["reach", "--mode", "quasi", "--samples", "8"]
    # a quasi sweep, a grid sweep (which reads no seed) and the Monte-Carlo
    for argv in (quasi, ["reach", "--per-joint-steps", "2,2,2,2,2,2"],
                 ["repeat-sim", "--cycles", "2"]):
        for seed, message in (
                (["--seed", "-1"], "error: --seed must be >= 0, got -1\n"),
                (["--seed=-1"], "error: --seed must be >= 0, got -1\n"),
                (["--seed", "1.5"], "argument --seed: invalid int value")):
            rc = cli.run(argv + seed + ["--out", str(tmp_path / "o")])
            out, err = capsys.readouterr()
            assert (rc, out) == (2, ""), argv + seed
            assert message in err and "Traceback" not in err
            assert not (tmp_path / "o").exists()
    # seeds past 2**64 still draw
    assert _run(capsys, quasi + ["--seed", str(2**64 + 1)])[0] == 0


def test_resource_limit_exits_5(capsys: pytest.CaptureFixture) -> None:
    for steps in ("2000,2000,2000,5,5,5",
                  # 1e36 samples: more than an int64 product holds
                  "1000000,1000000,1000000,1000000,1000000,1000000"):
        rc, _ = _run(capsys, ["workspace", "--per-joint-steps", steps])
        assert rc == 5, steps
    # refused from the axis sizes before any allocation: ~6.8e15 poses, and
    # a pitch whose pose count overflows a float
    for pitch in ("0.001", "1e-320"):
        rc, _ = _run(capsys, ["payload", "--grid-deg", pitch])
        assert rc == 5, pitch


@pytest.mark.parametrize("argv", [
    ["payload", "--grid-deg", "0"],
    ["payload", "--grid-deg", "nan"],
    ["payload", "--grid-deg", "-15"],
    ["payload", "--sweep-joints", "7"],
    ["payload", "--sweep-joints", "0,2"],
    ["payload", "--policy", "fixed", "--q", "0,0,90,0,-90,0",
     "--payload-kg", "-5"],
    ["payload", "--limit-joints", "4", "--format", "csv"],
    # joint 1 never loads, so a fixed pose holds any payload
    ["payload", "--policy", "fixed", "--q", "0,0,90,0,-90,0",
     "--limit-joints", "1"],
    ["fk", "--q", "nan,0,0,0,0,0"],
    ["ik", "--target", "nan,0,0", "--rpy", "0,0,0"],
    ["jacobian", "--q", "inf,0,0,0,0,0"],
    ["ik", "--target", "0.2,0,0", "--rpy", "0,0,0", "--max-iters", "-1"],
    ["repeat-sim", "--speeds", "500", "--cycles", "2", "--sigma0-mm", "nan",
     "--k-mm-s-per-step", "0"],
    ["repeat-sim", "--speeds", "500", "--cycles", "2", "--sigma0-mm", "0.1",
     "--k-mm-s-per-step", "inf"],
    ["repeat-sim", "--speeds", "inf", "--cycles", "2"],
    ["capstan", "--small-diameter", "10", "--large-diameter", "20",
     "--output-range", "nan"],
    ["capstan", "--small-diameter", "10", "--large-diameter", "20",
     "--cable-thickness", "nan"],
    ["capstan", "--small-diameter", "10", "--large-diameter", "20",
     "--tolerance", "inf"],
    ["capstan", "--small-diameter", "10", "--large-diameter", "inf"],
    ["capstan", "--small-diameter", "10", "--large-diameter", "20",
     "--tolerance", "-50"],
    # finite inputs whose results overflow
    ["repeat-sim", "--speeds", "1e308", "--cycles", "2"],
    ["repeat-sim", "--sigma0-mm", "1e308", "--k-mm-s-per-step", "0",
     "--cycles", "2"],
    ["capstan", "--small-diameter", "10", "--large-diameter", "20",
     "--output-range", "1e308"],
])
def test_statics_domain_errors_exit_4(capsys: pytest.CaptureFixture,
                                      tmp_path: Path, argv: list) -> None:
    rc, out = _run(capsys, argv + ["--out", str(tmp_path / "out")])
    assert rc == 4
    assert out == ""


@pytest.mark.parametrize("argv, flag", [
    (["capstan", "--small-diameter", "19.4", "--large-diameter", "155.2",
      "--cable-thickness", "1e308"], "--cable-thickness 1e+308"),
    (["capstan", "--small-diameter", "19.4", "--large-diameter", "155.2",
      "--cable-thickness", "1.5e308", "--tolerance", "0"],
     "--cable-thickness 1.5e+308"),
    # joints 2 and 3 would tie at an infinite required torque
    (["payload", "--policy", "fixed", "--q", "0,0,90,0,-90,0",
      "--payload-kg", "1e308"], "--payload-kg 1e+308"),
])
def test_overflowing_results_exit_4_naming_the_flag(
        capsys: pytest.CaptureFixture, tmp_path: Path, argv: list,
        flag: str) -> None:
    rc = cli.run(argv + ["--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert (rc, out) == (4, "")
    assert "overflows a float at " + flag in err
    assert "inf" not in err and "Warning" not in err
    assert not (tmp_path / "out").exists()


def test_bom_data_error_exits_6(capsys: pytest.CaptureFixture,
                                tmp_path: Path) -> None:
    rc, _ = _run(capsys, ["bom", "--file", str(tmp_path / "absent.csv")])
    assert rc == 6


def test_output_error_exits_7(capsys: pytest.CaptureFixture,
                              tmp_path: Path) -> None:
    blocker = tmp_path / "blocker.txt"
    blocker.write_text("x")
    rc, _ = _run(capsys, ["fk", "--q", "0,0,0,0,0,0",
                          "--out", str(blocker / "sub")])
    assert rc == 7
    # the artifact cannot be written: nothing reaches stdout
    (tmp_path / "out" / "fk.csv").mkdir(parents=True)
    rc, out = _run(capsys, ["fk", "--q", "0,0,0,0,0,0", "--format", "csv",
                            "--out", str(tmp_path / "out")])
    assert (rc, out) == (7, "")


def test_failed_run_leaves_no_output_dir(capsys: pytest.CaptureFixture,
                                         tmp_path: Path) -> None:
    out = tmp_path / "D"
    rc, _ = _run(capsys, ["reach", "--mode", "quasi", "--samples", "0",
                          "--out", str(out)])
    assert rc == 4
    assert not out.exists()


def test_help_exits_0_for_every_subcommand(capsys: pytest.CaptureFixture) -> None:
    assert cli.run(["--help"]) == 0
    assert cli.run(["--version"]) == 0
    for name in cli.SUBCOMMANDS:
        assert cli.run([name, "--help"]) == 0, name
    capsys.readouterr()


def _child_env() -> dict:
    """The environment of a child interpreter that imports this armkit."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_python_m_armkit_runs_the_cli(capsys: pytest.CaptureFixture,
                                      tmp_path: Path) -> None:
    env = _child_env()

    def armkit(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "armkit", *argv],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)

    version = armkit("--version")
    assert (version.returncode, version.stderr) == (0, "")
    table = armkit("torque-table")
    assert table.returncode == 0
    assert cli.run(["torque-table"]) == 0
    assert table.stdout == capsys.readouterr().out


@pytest.mark.parametrize("entry", [
    ["-c", "from armkit.cli import main; main()"], ["-m", "armkit"]],
    ids=["main", "python-m"])
def test_entry_points_exit_with_the_run_code(tmp_path: Path,
                                             entry: list) -> None:
    env = _child_env()

    def armkit(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *entry, *argv],
                              cwd=tmp_path, env=env, capture_output=True,
                              timeout=120)

    for argv, code in ((["payload"], 0), (["fk", "--q", "1,2"], 2),
                       (["ik", "--target", "5,0,0", "--rpy", "0,0,0"], 4)):
        assert armkit(*argv).returncode == code, argv
    written = armkit("payload", "--format", "csv", "--out", "d")
    assert written.returncode == 0
    outputs = _manifest(tmp_path / "d")["outputs"]
    assert [f["path"] for f in outputs] == ["payload.txt", "payload_sweep.csv"]
    for f in outputs:
        data = (tmp_path / "d" / f["path"]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == f["sha256"], f["path"]
    assert (tmp_path / "d" / "payload.txt").read_bytes() == written.stdout


def test_only_main_freezes_the_heap(capsys: pytest.CaptureFixture,
                                    tmp_path: Path) -> None:
    frozen = gc.get_freeze_count()
    enabled = gc.isenabled()
    assert cli.run(["payload", "--grid-deg", "30", "--format", "csv",
                    "--out", str(tmp_path / "a")]) == 0
    assert cli.replay(str(tmp_path / "a" / cli.MANIFEST_NAME),
                      out_dir=str(tmp_path / "b")) == 0
    capsys.readouterr()
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)
    # a fresh interpreter: importing leaves the collector alone, and main()
    # freezes it just before it exits
    env = _child_env()
    code = ("import gc, sys\nimport armkit.cli\n"
            "before = gc.get_freeze_count(), gc.isenabled()\n"
            "try:\n    armkit.cli.main()\nexcept SystemExit as exc:\n"
            "    print(before, exc.code, gc.get_freeze_count() > 0)\n")
    proc = subprocess.run([sys.executable, "-c", code, "resolution"],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.stdout.splitlines()[-1] == "(0, True) 0 True"


# ---------------------------------------------------------------------------
# subcommand behavior
# ---------------------------------------------------------------------------

def test_fk_prints_home_position(capsys: pytest.CaptureFixture) -> None:
    rc, out = _run(capsys, ["fk", "--q", "0,0,0,0,0,0"])
    assert rc == 0
    assert "0.25788" in out
    assert "-0.1469168" in out


def test_ik_round_trips_the_home_pose(capsys: pytest.CaptureFixture) -> None:
    rc, out = _run(capsys, ["ik", "--target", "0.25788,0,-0.14691688",
                            "--rpy", "180,0,0"])
    assert rc == 0
    assert "residual" in out or "q_deg" in out


def test_ik_first_attempt_solves_after_running_into_a_limit(
        capsys: pytest.CaptureFixture) -> None:
    # the benchmark pool's target 17, the argv of the CI smoke step
    rc, out = _run(capsys, ["ik", "--target=-0.032745,0.209744,0.159752",
                            "--rpy=-174.2342,36.5229,-66.6136"])
    assert rc == 0
    assert float(out.split("position_error_m: ")[1]) < 1e-6


def test_ik_on_the_base_axis_with_the_tool_up(
        capsys: pytest.CaptureFixture) -> None:
    # O5 on joint 1's axis and the tool vertical: joints 1 and 6 turn
    # together, and the scan's residual is zero up to rounding all round the
    # wrist circle; the CI smoke step runs both queries
    rc, out = _run(capsys, ["ik", "--target", "0,0,0.05", "--rpy", "0,0,0"])
    assert rc == 0
    assert "position_error_m: 3.1904619099328413e-07\n" in out
    assert cli.run(["ik", "--target", "0,0,0.2", "--rpy", "0,0,0"]) == 4
    assert "Traceback" not in capsys.readouterr().err


#: IK queries whose --q0 is an exact solution with joint 3 near the
#: stretched elbow: the nearest solution is --q0 itself.
_STRETCHED_ELBOW_QUERIES = [
    # 0.14 deg off it
    ("0.1799503417242619,0.18236991491374532,-0.21354039864729119",
     "-97.68451710938733,53.00865699572401,-61.0011544788492",
     [49.74203166163443, -59.76870174509921, 78.73657479745776,
      15.822941632638518, 67.06897919770492, 138.15556566696313]),
    # 0.24 deg off it, at a pair of roots closer than the scan's samples
    ("-0.15930156904326156,0.27678369410586734,-0.13501122814229333",
     "171.63142197208114,-14.079084348437636,74.96327006752871",
     [124.21244199650879, -25.755761978005, 78.64382148693015,
      159.37917363722966, 51.947956474668, -117.05289025112846]),
]


def test_ik_answers_a_stretched_elbow_seed_with_itself(
        capsys: pytest.CaptureFixture) -> None:
    for target, rpy, q0 in _STRETCHED_ELBOW_QUERIES:
        rc, out = _run(capsys, ["ik", "--target=" + target, "--rpy=" + rpy,
                                "--q0=" + ",".join(map(repr, q0))])
        assert rc == 0
        q = [float(v)
             for v in out.split("q_deg: ")[1].split("\n")[0].split()]
        assert np.abs(np.subtract(q, q0)).max() < 1e-6, target


def test_ik_answers_a_target_reached_with_joints_on_their_limits(
        capsys: pytest.CaptureFixture) -> None:
    # the position and ZYX angles that fk --q 165,30,90,60,-60,-90 prints:
    # joints 1 and 3 on their upper limits, where the scan's roots round to
    # a few ulp past them
    rc, out = _run(capsys, [
        "ik", "--target=-0.36275028437969103,0.055531723114889894,"
              "0.3165572487104502",
        "--rpy=100.89339464913093,-48.590377890729144,-64.10660535086915"])
    assert rc == 0
    q = np.array([float(v) for v in
                  out.split("q_deg: ")[1].split("\n")[0].split()])
    lim = np.degrees(model.limits_array(model.default_arm()))
    assert np.all(q >= lim[:, 0]) and np.all(q <= lim[:, 1])
    assert (q[0], q[2]) == (165.0, 90.0)
    assert float(out.split("position_error_m: ")[1]) < 1e-6


def test_jacobian_prints_a_six_by_six(capsys: pytest.CaptureFixture) -> None:
    rc, out = _run(capsys, ["jacobian", "--q", "10,-20,30,0,15,5"])
    assert rc == 0
    rows = [ln for ln in out.splitlines() if ln.count(",") == 5 or ln.count(" ") >= 5]
    assert len(rows) >= 6


def test_capstan_reports_the_shoulder_stage(capsys: pytest.CaptureFixture) -> None:
    rc, out = _run(capsys, ["capstan", "--small-diameter", "19.4",
                            "--large-diameter", "155.2", "--mode", "rotating"])
    assert rc == 0
    assert "8.0" in out


def test_torque_table_shows_annotation(capsys: pytest.CaptureFixture) -> None:
    rc, out = _run(capsys, ["torque-table"])
    assert rc == 0
    assert "23.625" in out
    assert "0.52281" in out
    assert "conflicts" in out


def test_resolution_lists_every_joint(capsys: pytest.CaptureFixture) -> None:
    rc, out = _run(capsys, ["resolution"])
    assert rc == 0
    assert "0.012" in out


def test_reach_reports_both_metrics_and_their_gap(capsys: pytest.CaptureFixture) -> None:
    rc, out = _run(capsys, ["reach", "--per-joint-steps", "9,9,9,3,3,3"])
    assert rc == 0
    assert "0.467" in out
    assert "0.43" in out
    assert "max_radial_reach_m" in out
    assert "below_base_fraction" in out
    assert "azimuth_span_deg" in out


def test_payload_fixed_policy(capsys: pytest.CaptureFixture) -> None:
    rc, out = _run(capsys, ["payload", "--policy", "fixed",
                            "--q", "0,0,90,0,-90,0"])
    assert rc == 0
    assert "1.35094" in out
    assert "limiting joint 3" in out


def test_payload_worst_with_joint_filter(capsys: pytest.CaptureFixture) -> None:
    rc, out = _run(capsys, ["payload", "--grid-deg", "45",
                            "--limit-joints", "2,3"])
    assert rc == 0


def test_payload_searches_its_lattice_once(
        capsys: pytest.CaptureFixture, monkeypatch: pytest.MonkeyPatch,
        tmp_path: Path) -> None:
    calls = []

    def count(name):
        real = getattr(statics, name)
        monkeypatch.setattr(statics, name, lambda *args: calls.append(name)
                            or real(*args))

    count("_payload_caps")
    count("_limiting_joints")
    assert cli.run(["payload", "--grid-deg", "30"]) == 0
    # the text alone takes no per-pose limiting joints
    assert calls == ["_payload_caps"]
    calls.clear()
    assert cli.run(["payload", "--grid-deg", "30", "--format", "csv",
                    "--out", str(tmp_path)]) == 0
    assert calls == ["_payload_caps", "_limiting_joints"]
    capsys.readouterr()


@pytest.mark.parametrize("flags, kwargs", [
    ([], {}),
    (["--limit-joints", "2,3"], {"constraint_joints": (2, 3)}),
    (["--grid-deg", "10"], {"grid_deg": 10.0}),
], ids=["default", "limit-2-3", "grid-10"])
def test_payload_csv_rows_are_the_library_sweep(
        capsys: pytest.CaptureFixture, tmp_path: Path, flags: list,
        kwargs: dict) -> None:
    assert cli.run(["payload", "--format", "csv", "--out", str(tmp_path),
                    *flags]) == 0
    capsys.readouterr()
    header, *rows = (tmp_path / "payload_sweep.csv").read_text().splitlines()
    poses, caps, limiting = statics.sweep_payload_caps(model.default_arm(),
                                                       **kwargs)
    assert header.endswith(",cap_kg,limiting_joint")
    assert rows == [",".join([*map(repr, p), repr(c), str(lj)])
                    for p, c, lj in zip(np.degrees(poses).tolist(),
                                        caps.tolist(), limiting.tolist())]


def test_repeat_sim_quick_run(capsys: pytest.CaptureFixture) -> None:
    rc, out = _run(capsys, ["repeat-sim", "--speeds", "500,2500",
                            "--cycles", "3"])
    assert rc == 0
    assert "500" in out and "2500" in out


def test_repeat_sim_noise_flags_must_pair(capsys: pytest.CaptureFixture) -> None:
    rc = cli.run(["repeat-sim", "--speeds", "500", "--cycles", "2",
                  "--sigma0-mm", "0.2"])
    capsys.readouterr()
    assert rc == 2


def test_bom_summarizes_costs_and_flags_the_spool_count(
        capsys: pytest.CaptureFixture) -> None:
    rc, out = _run(capsys, ["bom"])
    assert rc == 0
    assert "5310.01" in out
    assert "212.40" in out
    assert "27" in out and "28" in out


def test_bom_writes_a_huge_cable_length_in_exponent_form(
        capsys: pytest.CaptureFixture) -> None:
    rc, out = _run(capsys, ["bom", "--batch", str(10**21)])
    assert rc == 0
    assert out.splitlines()[-1].endswith(" mm (7.218e+21 ft)")


def test_arm_config_env_is_honored(capsys: pytest.CaptureFixture,
                                   tmp_path: Path,
                                   monkeypatch: pytest.MonkeyPatch,
                                   arm: model.ArmDescription) -> None:
    cfg = tmp_path / "arm.yaml"
    model.dump_arm(arm, str(cfg))
    monkeypatch.setenv(model.ENV_ARM_CONFIG, str(cfg))
    rc, out = _run(capsys, ["fk", "--q", "0,0,0,0,0,0"])
    assert rc == 0
    assert "0.25788" in out


# ---------------------------------------------------------------------------
# run manifests and replay
# ---------------------------------------------------------------------------

def test_csv_cell_rule() -> None:
    row = (None, "a,b", 7, np.float64(0.1), np.float32(2.5))
    assert b"".join(cli._csv("h1,h2,h3,h4,h5", [row])) == \
        b"h1,h2,h3,h4,h5\n,a;b,7,0.1,2.5\n"
    block = np.array([[1.0, -0.0], [1e-300, 3.0]])
    assert b"".join(cli._csv(None, list(block))) == \
        b"".join(cli._csv(None, iter([block]))) == b"1.0,-0.0\n1e-300,3.0\n"
    # a streamed sweep: each row's line once per row it stands for
    assert b"".join(cli._csv("x", iter([block[:1], block[1:]]), repeat=2)) == \
        b"x\n1.0,-0.0\n1.0,-0.0\n1e-300,3.0\n1e-300,3.0\n"


def test_payload_csv_rows_are_the_cell_rule_rows() -> None:
    # crafted caps and poses, over more than one part of rows
    odd = [math.inf, -0.0, 0.0, 5e-324, 1e-5, 1e16, 0.1 + 0.2, -1e-300,
           2.5, 1e-4, 9.999999999999999e15]
    rng = np.random.default_rng(7)
    n = 2 * cli._CSV_PART_ROWS + len(odd)
    poses = rng.uniform(-4.0, 4.0, (n, 6))
    poses[:len(odd)] = np.array(odd)[:, None]
    poses[len(odd):2 * len(odd), 1] = np.radians(odd)
    caps = rng.uniform(0.0, 2.0, n)
    caps[:len(odd)] = odd
    limiting = rng.integers(1, 7, n)
    limiting[:2] = 1, 6
    rows = [(*p, c, lj) for p, c, lj in zip(np.degrees(poses).tolist(),
                                            caps.tolist(), limiting.tolist())]
    want = b"".join(cli._csv(
        "q1_deg,q2_deg,q3_deg,q4_deg,q5_deg,q6_deg,cap_kg,limiting_joint",
        rows))
    assert b"".join(cli._payload_csv(poses, caps, limiting)) == want
    assert b"\ninf,inf,inf,inf,inf,inf,inf,1\n" in want
    assert b"\n-0.0,-0.0,-0.0,-0.0,-0.0,-0.0,-0.0,6\n" in want


def _manifest(out_dir: Path) -> dict:
    return json.loads((out_dir / cli.MANIFEST_NAME).read_text())


def test_outputs_carry_a_manifest_with_hashes(capsys: pytest.CaptureFixture,
                                              tmp_path: Path) -> None:
    out_dir = tmp_path / "run1"
    rc, _ = _run(capsys, ["workspace", "--per-joint-steps", "5,5,5,3,3,3",
                          "--format", "csv", "--out", str(out_dir)])
    assert rc == 0
    man = _manifest(out_dir)
    assert man["schema"] == cli.MANIFEST_SCHEMA
    assert man["subcommand"] == "workspace"
    assert man["arm_config"].startswith("builtin:")
    assert any(f["path"].endswith(".csv") for f in man["outputs"])
    for f in man["outputs"]:
        assert len(f["sha256"]) == 64
        assert (out_dir / f["path"]).exists()


_SMALL_RUNS = {
    "fk": ["fk", "--q", "10,-20,30,0,15,5"],
    "ik": ["ik", "--target", "0.25788,0,-0.14691688", "--rpy", "180,0,0"],
    "jacobian": ["jacobian", "--q", "10,-20,30,0,15,5"],
    "workspace": ["workspace", "--per-joint-steps", "5,5,5,3,3,3"],
    "reach": ["reach", "--per-joint-steps", "5,5,5,3,3,3"],
    "capstan": ["capstan", "--small-diameter", "19.4",
                "--large-diameter", "155.2"],
    "torque-table": ["torque-table"],
    "resolution": ["resolution"],
    "payload": ["payload", "--grid-deg", "30"],
    "repeat-sim": ["repeat-sim", "--speeds", "500,1000", "--cycles", "3"],
    "bom": ["bom"],
}


@pytest.mark.parametrize("name,fmt", [
    *((name, "csv") for name in cli.SUBCOMMANDS),
    ("workspace", "svg"),
    ("repeat-sim", "svg"),
], ids=lambda v: v)
def test_replay_reproduces_identical_outputs(capsys: pytest.CaptureFixture,
                                             tmp_path: Path, name: str,
                                             fmt: str) -> None:
    first = tmp_path / "first"
    seed = ["--seed", "11"] if cli._COMMANDS[name].seeded else []
    rc, out = _run(capsys, _SMALL_RUNS[name] + seed + [
        "--format", fmt, "--out", str(first)])
    assert rc == 0
    stem = name.replace("-", "_")
    assert (first / f"{stem}.txt").read_text(encoding="utf-8") == out
    artifact = "payload_sweep" if name == "payload" else stem
    a = _manifest(first)
    assert [f["path"] for f in a["outputs"]] == [f"{stem}.txt",
                                                 f"{artifact}.{fmt}"]
    for f in a["outputs"]:
        data = (first / f["path"]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == f["sha256"], f["path"]

    second = tmp_path / "second"
    rc2 = cli.replay(str(first / cli.MANIFEST_NAME), out_dir=str(second))
    capsys.readouterr()
    assert rc2 == 0
    assert _manifest(second)["outputs"] == a["outputs"]


#: SHA-256 of (stdout, artifact) for each small run at the default seed.
_SMALL_RUN_SHA256 = {
    ("fk", "csv"): (
        "0693816ee0ae7538fc9218e5e3d76d998f8506a7035fc4a26ebcaab5120f782a",
        "8dbb4626f4e58003eb12c28295f9cc7c7cc34fb2513afac3e44afa8c28caca85"),
    ("ik", "csv"): (
        "d997e3c1004a904ce6fa49256e78ece1e0b929f0007b62e5f3ae2e3eea91b4b1",
        "33a267ff41fcc35d7e1d13cbd59fcba54bfb350fe88157b6651be51e72562df6"),
    ("jacobian", "csv"): (
        "da162d775eb48047ee5b47c73743af5270d26d01d85cd7c7cd2ecfb4a71a54b0",
        "86f391bdd2742e1ce64b391cded9c28a84312c1817b2df0cf1cf71c25cf4778a"),
    ("workspace", "csv"): (
        "f0f423c114928af9e955ca2cf609041a4b271ae4f6c85cc46fd658574b506c2f",
        "6d1bbb23170909bf1a6cf9d1ec232394c36fe174e05d0478d8157687c37429a3"),
    ("reach", "csv"): (
        "f0f423c114928af9e955ca2cf609041a4b271ae4f6c85cc46fd658574b506c2f",
        "63cce407b5c9e0707689df755bcc53ae826d43aa50ab8bf9037dc8d03fe3520d"),
    ("capstan", "csv"): (
        "5918cf78faa606e7ab1066ad4f3c062b149cc65446a5d1832751d09ff9e11d99",
        "fcb661a138c1641f3e5605b4a13354a7c7cc7389b640ed73b93257b6b92e64e4"),
    ("torque-table", "csv"): (
        "25a2fddbd6b2e7ca6010678ec00c8afe45609a250c3c642b0a9789eaf18f92fd",
        "b2f4808efa2b0f56487fe48f8db8ec178fd03e9b1244eb8272a6e52b743f688c"),
    ("resolution", "csv"): (
        "4aa4ec72f93ba29829b1a9e3df81bf4731c284d1f406083cb34402035d56b190",
        "03b54477154b9f325c482a6699d743a4a0d360f1d7cb8ff4bdfa4786b16478c8"),
    ("payload", "csv"): (
        "d26558181b7871d59e15493c3351f6120a548fd17f48b9188c09b3e4e1f48061",
        "2fde2c6aa274945cc44c37a8e3a0fbdecbf49227f67459c632edb6f33e25cd03"),
    ("repeat-sim", "csv"): (
        "ec14ae4792e58984fa3590fd31132ad6266688f7afe46309b3b3babac756c014",
        "d7ff39a4615d057a7f38b24b5f1b1463bc59cb8684c859239bc3c7ef426cdfb5"),
    ("bom", "csv"): (
        "75628593728becc666ff3032990379e0c27335e8f00eb78db4637a81c0d1a1e5",
        "b26794a968de2fc760db57e2c1490a71db612853cf59bb1f19e7bfbf33d9f897"),
    ("workspace", "svg"): (
        "f0f423c114928af9e955ca2cf609041a4b271ae4f6c85cc46fd658574b506c2f",
        "45f10f4c2ce548de92a8771d4765b514936fbfea412b746b6ac6917a8dac4fca"),
    ("repeat-sim", "svg"): (
        "ec14ae4792e58984fa3590fd31132ad6266688f7afe46309b3b3babac756c014",
        "bd271df0b8fc4aa78ac92e20052a930f76d2e16a97357d241d4e31d9b498eda6"),
}


@pytest.mark.parametrize("name,fmt", list(_SMALL_RUN_SHA256), ids=lambda v: v)
def test_small_runs_keep_their_bytes(capsys: pytest.CaptureFixture,
                                     tmp_path: Path, name: str,
                                     fmt: str) -> None:
    rc, out = _run(capsys, _SMALL_RUNS[name] + [
        "--format", fmt, "--out", str(tmp_path)])
    assert rc == 0
    artifact = "payload_sweep" if name == "payload" else name.replace("-", "_")
    got = (hashlib.sha256(out.encode()).hexdigest(), hashlib.sha256(
        (tmp_path / f"{artifact}.{fmt}").read_bytes()).hexdigest())
    assert got == _SMALL_RUN_SHA256[name, fmt]


@pytest.mark.parametrize("argv", [
    ["fk", "--q", "10,-20,30,0,15,5"],
    ["reach", "--per-joint-steps", "5,5,5,3,3,3"],
    ["capstan", "--small-diameter", "19.4", "--large-diameter", "155.2"],
    ["torque-table"],
    ["resolution"],
    ["payload", "--grid-deg", "30"],
    ["payload", "--policy", "fixed", "--q", "0,0,90,0,-90,0",
     "--payload-kg", "0.3"],
    ["repeat-sim", "--speeds", "500", "--cycles", "3"],
])
def test_outputs_print_plain_floats(capsys: pytest.CaptureFixture,
                                    tmp_path: Path, argv: list) -> None:
    # numpy 2 scalars repr as ``np.float64(x)``; every number leaves as x.
    # A fixed-pose payload has no CSV, and refuses --format csv
    for fmt in ("text",) if "fixed" in argv else ("text", "csv"):
        out_dir = tmp_path / fmt
        rc, out = _run(capsys, argv + ["--format", fmt, "--out", str(out_dir)])
        assert rc == 0
        assert "np.float64(" not in out
        for f in out_dir.iterdir():
            assert "np.float64(" not in f.read_text(), f.name


def test_single_pose_outputs_keep_their_bytes(
        capsys: pytest.CaptureFixture) -> None:
    # SHA-256 of stdout for the single-pose FK and gravity-torque consumers
    pinned = {
        "fk --q 10,-20,30,0,15,5":
            "0693816ee0ae7538fc9218e5e3d76d998f8506a7035fc4a26ebcaab5120f782a",
        "jacobian --q 10,-20,30,0,15,5":
            "da162d775eb48047ee5b47c73743af5270d26d01d85cd7c7cd2ecfb4a71a54b0",
        "payload --policy fixed --q 0,0,90,0,-90,0 --payload-kg 0.3":
            "ba72456c6c6841dfa68b8c975a4d650a3824e142fdcb54664a5cf6856d408656",
        "repeat-sim --speeds 500,2500 --cycles 3 --payload-kg 0.6":
            "16c5bf8b5ae81b60809d61e6a91edb75974cf511276f73c799a172802e95e6ba",
        # the default ladder along the probe axis, and the 3D norm
        "repeat-sim":
            "d82bf05f0684c38b3ee90b3f6be164448c9cc507f4e3e2e5a972a54ca2f4994c",
        "repeat-sim --probe norm --payload-kg 0.6 --cycles 50":
            "7f24e585aa215e9c52407a554467ad2e83ea7d1f908bd4ca65e304cb21a4d842",
    }
    got = {}
    for cmd in pinned:
        rc, out = _run(capsys, cmd.split())
        assert rc == 0, cmd
        got[cmd] = hashlib.sha256(out.encode()).hexdigest()
    assert got == pinned


def test_payload_fixed_prints_huge_values_in_exponent_form(
        capsys: pytest.CaptureFixture) -> None:
    rc, out = _run(capsys, ["payload", "--policy", "fixed", "--q",
                            "0,0,90,0,-90,0", "--payload-kg", "1e300"])
    assert rc == 0
    rows = [ln.split() for ln in out.splitlines()[3:9]]
    assert [r[0] for r in rows] == ["1", "2", "3", "4", "5", "6"]
    # J2 needs 3.9e300 N.m: 301 digits in fixed point
    assert rows[1][1:] == ["3.893e+300", "23.62500", "1.6480e+299"]
    assert rows[0][1:] == ["0.00000", "1.25600", "0.00000"]
    # every value keeps to its column
    widths = {len(ln) for ln in out.splitlines()[2:9]}
    assert widths == {len(out.splitlines()[2])}


def test_svg_format_is_limited_to_plots(capsys: pytest.CaptureFixture,
                                        tmp_path: Path) -> None:
    rc = cli.run(["fk", "--q", "0,0,0,0,0,0", "--format", "svg",
                  "--out", str(tmp_path / "x")])
    capsys.readouterr()
    assert rc == 2


def test_only_arm_loaders_take_arm_and_only_samplers_take_seed() -> None:
    rows = cli._COMMANDS.items()
    assert [n for n, c in rows if not c.loads_arm] == ["capstan", "bom"]
    assert [n for n, c in rows if c.seeded] == ["workspace", "reach",
                                                "repeat-sim"]
    assert [n for n, c in rows if "svg" in c.formats] == ["workspace",
                                                          "repeat-sim"]


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_each_subcommand_takes_only_the_flags_it_reads(
        capsys: pytest.CaptureFixture, tmp_path: Path,
        arm: model.ArmDescription, name: str) -> None:
    row = cli._COMMANDS[name]
    cfg = tmp_path / "arm.yaml"
    model.dump_arm(arm, str(cfg))
    rc, _ = _run(capsys, _SMALL_RUNS[name] + ["--out", str(tmp_path / "o")])
    assert rc == 0
    # the manifest records a seed only where the subcommand reads one
    assert _manifest(tmp_path / "o")["seed"] == (0 if row.seeded else None)
    for flags, taken in ((["--arm", str(cfg)], row.loads_arm),
                         (["--seed", "1"], row.seeded),
                         (["--format", "svg"], "svg" in row.formats)):
        out_dir = tmp_path / flags[0].lstrip("-")
        rc = cli.run(_SMALL_RUNS[name] + flags + ["--out", str(out_dir)])
        out, err = capsys.readouterr()
        if taken:
            assert rc == 0, (flags, err)
        else:
            assert (rc, out) == (2, ""), flags
            assert flags[0] in err and "Traceback" not in err
            assert not out_dir.exists()


@pytest.mark.parametrize("argv, message", [
    (["payload", "--policy", "fixed"], "--policy fixed requires --q"),
    (["payload", "--q", "0,0,90,0,-90,0"],
     "--q is read only with --policy fixed"),
    (["payload", "--policy", "worst", "--grid-deg", "30", "--q", ""],
     "--q is read only with --policy fixed"),
    (["workspace", "--per-joint-steps", "2,2,2,2,2,2", "--samples", "64"],
     "--samples is read only with --mode quasi"),
    (["reach", "--mode", "grid", "--samples", "64"],
     "--samples is read only with --mode quasi"),
    (["fk", "--q", "0,0,0,0,0,0", "--format", "csv"],
     "--format csv writes a file, so it needs --out"),
    (["capstan", "--small-diameter", "19.4", "--large-diameter", "155.2",
      "--format", "csv"], "--format csv writes a file, so it needs --out"),
    (["workspace", "--per-joint-steps", "2,2,2,2,2,2", "--format", "svg"],
     "--format svg writes a file, so it needs --out"),
    (["repeat-sim", "--format", "svg"],
     "--format svg writes a file, so it needs --out"),
], ids=["payload-fixed-no-q", "payload-q", "payload-worst-empty-q",
        "workspace-grid-samples", "reach-grid-samples", "fk-csv",
        "capstan-csv", "workspace-svg", "repeat-sim-svg"])
def test_flags_this_call_never_reads_exit_2(capsys: pytest.CaptureFixture,
                                            tmp_path: Path, argv: list,
                                            message: str) -> None:
    rc = cli.run(argv)
    out, err = capsys.readouterr()
    assert (rc, out, err) == (2, "", f"error: {message}\n")
    if "--format" not in argv:
        rc = cli.run(argv + ["--out", str(tmp_path / "o")])
        out, err = capsys.readouterr()
        assert (rc, out, err) == (2, "", f"error: {message}\n")
        assert not (tmp_path / "o").exists()


def test_payload_at_a_fixed_pose_refuses_a_csv(capsys: pytest.CaptureFixture,
                                               tmp_path: Path) -> None:
    # a fixed pose has no sweep to write, so --format csv would do nothing
    argv = ["payload", "--policy", "fixed", "--q", "0,0,90,0,-90,0",
            "--format", "csv"]
    for extra in ([], ["--out", str(tmp_path / "o")]):
        rc = cli.run(argv + extra)
        out, err = capsys.readouterr()
        assert (rc, out, err) == (
            2, "", "error: --format csv is read only with --policy worst\n")
    assert not (tmp_path / "o").exists()
    assert cli.run(argv[:-2] + ["--out", str(tmp_path / "o")]) == 0
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == [
        "manifest.json", "payload.txt"]


def test_workspace_svg_output(capsys: pytest.CaptureFixture,
                              tmp_path: Path) -> None:
    out_dir = tmp_path / "svg"
    rc, _ = _run(capsys, ["workspace", "--per-joint-steps", "5,5,5,3,3,3",
                          "--format", "svg", "--out", str(out_dir)])
    assert rc == 0
    svgs = list(out_dir.glob("*.svg"))
    assert svgs
    text = svgs[0].read_text()
    assert text.startswith("<svg")
