"""Fuzz gate for the CLI and the arm loader.

Every argv and every arm file gets an answer or one of the documented exit
codes 2-7: no exception leaves ``cli.run``, no numpy ``RuntimeWarning``
is raised, and a run that exits 0 prints no NaN, infinity or number of
more than 20 digits before its decimal point. Each option, and each scalar
leaf of the shipped arm, is drawn from valid values and the same edge
values, with sample counts, cycles and lattices kept small so that the gate
stays fast.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from importlib import resources
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from armkit import cli

#: Edge values, as the CLI reads them.
EDGES = ("nan", "inf", "-inf", "0", "-1", "1e308", "-1e308", "5e-324", "",
         "1,2", "1e400", "0x10", " 1", "1_0", "-0", "1e-300")

_NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)
#: A run of more than 20 digits that is not a fraction's.
_HUGE = re.compile(r"(?<![\d.])\d{21}")

#: Sized so that the two fuzz tests take about 8 s on a 2-core host.
_SETTINGS = settings(max_examples=200, derandomize=True, deadline=None,
                     database=None, suppress_health_check=[HealthCheck.too_slow])


def _value(valid: st.SearchStrategy) -> st.SearchStrategy:
    return st.one_of(valid, st.sampled_from(EDGES))


def _floats(lo: float, hi: float) -> st.SearchStrategy:
    return st.floats(lo, hi).map(repr)


def _vector(n: int, valid: st.SearchStrategy) -> st.SearchStrategy:
    """A comma list of ``n`` values, each valid or an edge; or one edge."""
    return st.one_of(st.lists(_value(valid), min_size=n, max_size=n)
                     .map(",".join), st.sampled_from(EDGES))


_JOINTS = st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True) \
    .map(lambda js: ",".join(map(str, sorted(js))))

#: Each subcommand's options: a strategy for each option's value.
_OPTIONS = {
    "fk": {"--q": _vector(6, _floats(-180, 180))},
    "ik": {"--target": _vector(3, _floats(-0.4, 0.4)),
           "--rpy": _vector(3, _floats(-180, 180)),
           "--q0": _vector(6, _floats(-90, 90)),
           "--max-iters": _value(st.integers(0, 20).map(str))},
    "jacobian": {"--q": _vector(6, _floats(-180, 180))},
    "workspace": {"--per-joint-steps": _vector(6, st.sampled_from("123")),
                  "--mode": st.sampled_from(("grid", "quasi")),
                  "--samples": _value(st.integers(1, 64).map(str)),
                  "--shell-fraction": _value(_floats(0, 1)),
                  "--seed": _value(st.integers(0, 3).map(str))},
    "capstan": {"--small-diameter": _value(_floats(1, 50)),
                "--large-diameter": _value(_floats(1, 200)),
                "--mode": st.sampled_from(("rotating", "stationary")),
                "--cable-thickness": _value(_floats(0.1, 3)),
                "--tolerance": _value(_floats(0, 5)),
                "--output-range": _value(_floats(0, 720))},
    "torque-table": {},
    "resolution": {},
    "payload": {"--policy": st.sampled_from(("worst", "fixed")),
                "--q": _vector(6, _floats(-90, 90)),
                "--payload-kg": _value(_floats(0, 2)),
                "--grid-deg": _value(_floats(30, 90)),
                "--sweep-joints": _value(_JOINTS),
                "--limit-joints": _value(_JOINTS)},
    "repeat-sim": {"--speeds": _vector(2, _floats(1, 3000)),
                   "--cycles": _value(st.integers(1, 3).map(str)),
                   "--sigma0-mm": _value(_floats(0, 0.1)),
                   "--k-mm-s-per-step": _value(_floats(0, 1e-4)),
                   "--payload-kg": _value(_floats(0, 1)),
                   "--probe": st.sampled_from(("x", "y", "z", "norm")),
                   "--seed": _value(st.integers(0, 3).map(str))},
    "bom": {"--batch": _value(st.integers(1, 50).map(str))},
}
_OPTIONS["reach"] = _OPTIONS["workspace"]

#: Required options, drawn in every run of their subcommand.
_REQUIRED = {"fk": ("--q",), "jacobian": ("--q",), "ik": ("--target", "--rpy")}
#: Options that one mode alone reads, and that mode; elsewhere they exit 2,
#: so they are drawn only in it.
_ONLY_WITH = {("workspace", "--samples"): "--mode=quasi",
              ("reach", "--samples"): "--mode=quasi",
              ("payload", "--q"): "--policy=fixed"}


@st.composite
def _runs(draw) -> tuple:
    """(argv, whether the run writes files). A file ``--format`` is drawn
    only for a run that writes, since without ``--out`` it exits 2."""
    name = draw(st.sampled_from(cli.SUBCOMMANDS))
    write = draw(st.booleans())
    argv = [name]
    for option, values in _OPTIONS[name].items():
        mode = _ONLY_WITH.get((name, option))
        if mode is not None and mode not in argv:
            continue
        if option in _REQUIRED.get(name, ()) or draw(st.booleans()):
            argv.append(f"{option}={draw(values)}")
    if write and draw(st.booleans()):
        formats = cli._COMMANDS[name].formats
        argv.append(f"--format={draw(st.sampled_from(formats))}")
    # values in 1..3 give at most 729 grid samples; a quasi run needs its
    # sample count
    if name in ("workspace", "reach") and not any(
            a.startswith("--per-joint-steps") for a in argv):
        argv.append("--per-joint-steps=3,3,3,1,1,1")
    if name in ("workspace", "reach") and "--mode=quasi" in argv and not any(
            a.startswith("--samples") for a in argv):
        argv.append("--samples=64")
    if name == "capstan":
        argv += ["--small-diameter=19.4", "--large-diameter=155.2"]
    if name == "payload" and not any(a.startswith("--grid-deg") for a in argv):
        argv.append("--grid-deg=45")
    return argv, write


def _check(argv: list, out_dir) -> tuple:
    """Run ``argv``; it raises no ``RuntimeWarning``, the exit code is
    documented and, at exit 0, stdout and every written CSV and SVG file
    hold only finite numbers, none of more than 20 digits before the
    point."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.run(argv + (["--out", str(out_dir)] if out_dir else []))
    out, err = out.getvalue(), err.getvalue()
    assert rc in (0, 2, 3, 4, 5, 6, 7), (argv, rc, err)
    assert "Traceback" not in err, argv
    if rc == 0:
        assert not _NON_FINITE.search(out), (argv, out)
        assert not _HUGE.search(out), (argv, out)
        for f in Path(out_dir).iterdir() if out_dir else ():
            if f.suffix in (".csv", ".svg"):
                text = f.read_text()
                assert not _NON_FINITE.search(text), (argv, f.name)
                assert not _HUGE.search(text), (argv, f.name)
    return rc, err


@_SETTINGS
@given(run=_runs())
def test_fuzzed_argvs_exit_with_a_documented_code(run: tuple) -> None:
    argv, write = run
    with tempfile.TemporaryDirectory() as tmp:
        _check(argv, Path(tmp) / "out" if write else None)


def _leaves(node, path: str = ""):
    """(keys, dotted path) of every scalar leaf under ``node``."""
    items = (node.items() if isinstance(node, dict) else enumerate(node))
    for key, value in items:
        sub = f"{path}[{key}]" if isinstance(key, int) else (
            f"{path}.{key}" if path else key)
        if isinstance(value, (dict, list)):
            yield from (((key, *keys), p) for keys, p in _leaves(value, sub))
        else:
            yield (key,), sub


#: The shipped arm without YAML aliases, so each drive has its own motor.
_ARM = json.loads(json.dumps(yaml.safe_load(resources.files("armkit").joinpath(
    "data/default_arm.yaml").read_text(encoding="utf-8"))))
#: Every scalar leaf but the names, which the outputs print as given.
_LEAVES = [leaf for leaf in _leaves(_ARM) if leaf[0][-1] != "name"]

#: Edge values, as an arm file holds them.
_YAML_EDGES = (math.nan, math.inf, -math.inf, 0, -1, 1e308, -1e308, 5e-324,
               "", "1,2", 10**400, 16, " 1", "1_0", -0.0, 1e-300)

def _arm_file(directory: str, *edits: tuple) -> Path:
    """An arm file in ``directory``: the shipped arm with, for each
    ``(keys, value)`` of ``edits``, the leaf at ``keys`` set to ``value``."""
    data = json.loads(json.dumps(_ARM))
    for keys, value in edits:
        node = data
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    cfg = Path(directory) / "arm.yaml"
    cfg.write_text(yaml.safe_dump(data), encoding="utf-8")
    return cfg


#: Violation codes of rules that tie two fields, and the field each names
#: only through the other: a motor's mass counts toward the mass model's
#: total, and a holding torque must start the motor's curve.
_TIES = {"mass.total_band": ".motor.mass",
         "motor.curve.origin": ".motor.holding_torque"}

#: Subcommands that read the arm, kept small.
_ARM_RUNS = (["fk", "--q", "10,-20,30,0,15,5"],
             ["ik", "--target", "0.25788,0,-0.14691688", "--rpy", "180,0,0",
              "--max-iters", "30"],
             ["jacobian", "--q", "10,-20,30,0,15,5"],
             ["workspace", "--per-joint-steps", "3,3,3,2,2,2"],
             ["reach", "--mode", "quasi", "--samples", "64"],
             ["torque-table"], ["resolution"],
             ["payload", "--grid-deg", "45"],
             ["payload", "--policy", "fixed", "--q", "0,0,90,0,-90,0"],
             ["repeat-sim", "--speeds", "500", "--cycles", "2"])


@_SETTINGS
@given(leaf=st.sampled_from(_LEAVES), value=st.sampled_from(_YAML_EDGES),
       argv=st.sampled_from(_ARM_RUNS))
def test_fuzzed_arm_leaves_exit_3_naming_their_path(leaf: tuple, value,
                                                    argv: list) -> None:
    keys, path = leaf
    with tempfile.TemporaryDirectory() as tmp:
        rc, err = _check(argv + ["--arm", str(_arm_file(tmp, (keys, value)))],
                         None)
    if rc == 3:
        # the field, or the row or table it belongs to, or a rule that ties
        # the field to another
        named = re.findall(r"(?:^|[ :;(])([a-z_]+(?:\[\d+\]|\.[a-z_]+)*)", err)
        named += [path for code, field in _TIES.items()
                  if code in err and path.endswith(field)]
        assert any(path == p or path.startswith((p + ".", p + "["))
                   for p in named), (path, value, err)


@pytest.mark.parametrize("argv, arm_edit, message", [
    (["payload", "--policy", "fixed", "--q", "0,0,0,0,0,inf"], None,
     "joint angles q must be finite"),
    (["repeat-sim", "--payload-kg", "1e308", "--cycles", "2"], None,
     "required joint torque at 1e+308 kg must be finite"),
    # finite links whose tool distances overflow
    (["workspace", "--per-joint-steps", "3,3,3,2,2,2"],
     (("dh", 1, "a_prev"), 1e308), "workspace extremes must be finite"),
    (["payload", "--grid-deg", "45"],
     (("mass_model", "links", 6, "offset"), 1e308),
     "joint 5's utilization overflows a float"),
    # 2 a2 L, the elbow law's divisor, rounds to 0: no wrist scan
    (["ik", "--target", "0.25788,0,-0.14691688", "--rpy", "180,0,0",
      "--max-iters", "30"], (("dh", 1, "a_prev"), 5e-324),
     "IK residual stagnated"),
    # overflows that numpy warned of before the message
    (["payload", "--grid-deg", "45"],
     (("mass_model", "motors", 5, "offset"), 1e308),
     "joint 2's utilization overflows a float"),
    (["ik", "--target", "0.2,0,0", "--rpy", "0,0,0"],
     (("dh", 1, "a_prev"), 1e308), "IK residual stagnated"),
], ids=["payload-q-inf", "repeat-sim-payload-1e308", "workspace-dh-1e308",
        "payload-offset-1e308", "ik-a2-5e-324", "payload-motor-offset-1e308",
        "ik-a2-1e308"])
def test_fuzz_findings_exit_4_naming_the_fault(argv: list, arm_edit,
                                               message: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        if arm_edit is not None:
            argv = argv + ["--arm", str(_arm_file(tmp, arm_edit))]
        # a fixed-pose payload writes no CSV, and refuses --format csv
        fmt = "text" if "fixed" in argv else "csv"
        rc, err = _check(argv + ["--format", fmt], Path(tmp) / "out")
    assert rc == 4
    assert message in err
    assert "Warning" not in err


@pytest.mark.parametrize("argv, edits", [
    (["torque-table"], [(("drives", 0, "listed_max_torque"), 1e308)]),
    (["torque-table"], [(("drives", 1, "listed_max_torque"), 1e308)]),
    (["torque-table"], [(("drives", 1, "stages", 0, "ratio"), 1e300)]),
    (["resolution"], [(("drives", 1, "stages", 0, "ratio"), 1e300)]),
    (["torque-table"], [(("drives", 1, "motor", "holding_torque"), 1e300),
                        (("drives", 1, "motor", "torque_speed_curve"),
                         [[0, 1e300]])]),
], ids=["listed-over-holding-inf", "listed-over-holding-7.9e307",
        "belt-ratio-1e300", "resolution-belt-ratio-1e300", "holding-1e300"])
def test_huge_arm_values_print_short_finite_numbers(argv: list,
                                                    edits: list) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        rc, _ = _check(argv + ["--arm", str(_arm_file(tmp, *edits))], None)
    assert rc == 0  # and, by _check, no inf and no 21-digit number


@pytest.mark.parametrize("argv, edits, code", [
    (["reach", "--mode", "quasi", "--samples", "64"],
     [(("dh", 1, "a_prev"), 1e100)], 0),
    (["workspace", "--per-joint-steps", "3,3,3,2,2,2", "--format", "svg"],
     [(("dh", 1, "a_prev"), 1e100)], 0),
    (["repeat-sim", "--speeds", "500", "--cycles", "2", "--sigma0-mm", "1e100",
      "--k-mm-s-per-step", "0", "--format", "svg"], [], 0),
    (["ik", "--target", "1e100,0,0", "--rpy", "0,0,0"], [], 4),
], ids=["reach-note", "workspace-svg-ticks", "repeat-sim-std-column",
        "ik-reach-bound-message"])
def test_values_of_1e100_print_in_exponent_form(argv: list, edits: list,
                                                code: int) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        if edits:
            argv = argv + ["--arm", str(_arm_file(tmp, *edits))]
        out = Path(tmp) / "out"
        rc, err = _check(argv, out)
        texts = [err] + [f.read_text() for f in out.glob("*")]
    assert rc == code
    assert not any(_HUGE.search(text) for text in texts), argv
