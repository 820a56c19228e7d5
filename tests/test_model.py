from __future__ import annotations

import dataclasses
import math
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml

from armkit import cli, drivetrain, model
from armkit.errors import ComputationError, ConfigError, ValidationError


# ---------------------------------------------------------------------------
# loading the built-in description
# ---------------------------------------------------------------------------

def test_default_arm_loads_and_validates(arm: model.ArmDescription) -> None:
    assert arm.schema_version == model.SCHEMA_VERSION == 1
    assert len(arm.dh) == 6
    assert len(arm.limits) == 6
    assert len(arm.drives) == 6
    assert model.validate_arm(arm) == []


def test_default_geometry_key_rows(arm: model.ArmDescription) -> None:
    # upper-arm link length sits in a_prev of row 2; both wrist roll links
    # ride along their joint axes, so their lengths live in d, not a_prev
    assert arm.dh[1].a_prev == pytest.approx(0.200, abs=0.0)
    assert arm.dh[0].d == pytest.approx(0.09353312, abs=0.0)
    assert arm.dh[3].d == pytest.approx(0.173, abs=0.0)
    assert arm.dh[3].a_prev == 0.0
    assert arm.dh[5].d == pytest.approx(0.06745, abs=0.0)
    assert arm.dh[5].a_prev == 0.0


def test_dh_params_layout(arm: model.ArmDescription) -> None:
    rows = model.dh_params(arm)
    assert rows.shape == (6, 4)
    # columns are [theta_offset, d, a_prev, alpha_prev]
    assert rows[1, 2] == pytest.approx(0.200, abs=0.0)
    assert rows[0, 1] == pytest.approx(0.09353312, abs=0.0)
    assert rows[0, 3] == pytest.approx(math.pi / 2, rel=1e-15)


def test_limits_array_shape_and_order(arm: model.ArmDescription) -> None:
    lim = model.limits_array(arm)
    assert lim.shape == (6, 2)
    assert np.all(lim[:, 0] < lim[:, 1])


def test_drive_lookup_by_joint_index(arm: model.ArmDescription) -> None:
    assert arm.drive(2).joint_index == 2
    with pytest.raises(KeyError):
        arm.drive(7)


def test_description_is_immutable(arm: model.ArmDescription) -> None:
    with pytest.raises(dataclasses.FrozenInstanceError):
        arm.name = "other"  # type: ignore[misc]


def test_total_modeled_mass_matches_reference_band(arm: model.ArmDescription) -> None:
    total = model.total_modeled_mass(arm)
    assert total == pytest.approx(3.49975, abs=1e-9)
    ref = arm.mass_model.reference_total
    assert ref is not None
    assert 0.9 * ref <= total <= 1.1 * ref


# ---------------------------------------------------------------------------
# loader notices
# ---------------------------------------------------------------------------

def test_loader_notices_flag_placeholder_masses(arm: model.ArmDescription) -> None:
    assert any("placeholder" in n and "mass" in n for n in arm.notices)


def test_loader_notice_for_inconsistent_listed_torque(arm: model.ArmDescription) -> None:
    hits = [n for n in arm.notices if n.startswith("drive 6:")]
    assert len(hits) == 1
    assert "1.256" in hits[0]
    assert "0.52281" in hits[0]
    assert "inconsistent" in hits[0]


# ---------------------------------------------------------------------------
# round-trip
# ---------------------------------------------------------------------------

def test_dump_load_round_trip_is_exact(arm: model.ArmDescription, tmp_path: Path) -> None:
    out = tmp_path / "arm.yaml"
    model.dump_arm(arm, str(out))
    again = model.load_arm(str(out))
    assert again.dh == arm.dh
    assert again.limits == arm.limits
    assert again.drives == arm.drives
    assert again.mass_model == arm.mass_model
    assert again == arm  # notices included


def test_edited_arm_round_trips_with_its_notices(tmp_path: Path) -> None:
    data = yaml.safe_load(_shipped_yaml())
    del data["drives"][5]["listed_max_torque"]  # the conflicting listing
    data["mass_model"]["reference_total"] = None
    del data["mass_model"]["links"][0]["label"]
    arm = model.load_arm_data(data)
    assert arm.drives[5].listed_max_torque is None
    assert arm.mass_model.reference_total is None
    assert arm.drives[1].stages[0].geometry is None
    assert arm.mass_model.links[0].label == ""
    assert arm.mass_model.links[1].label == "yaw platform"
    assert not any("listed_max_torque" in n for n in arm.notices)
    out = tmp_path / "arm.yaml"
    model.dump_arm(arm, str(out))
    assert model.load_arm(str(out)) == arm


def _assert_keys_are_fields(node, obj, path: str) -> None:
    """``node``, dumped from ``obj``, has the keys of ``obj``'s dataclass
    fields but ``notices``, in order, at every level."""
    if dataclasses.is_dataclass(obj):
        names = [f.name for f in dataclasses.fields(obj) if f.name != "notices"]
        assert list(node) == names, path
        for name in names:
            _assert_keys_are_fields(node[name], getattr(obj, name),
                                    f"{path}.{name}")
    elif isinstance(obj, tuple):
        assert isinstance(node, list) and len(node) == len(obj), path
        for k, (sub, item) in enumerate(zip(node, obj)):
            _assert_keys_are_fields(sub, item, f"{path}[{k}]")
    else:
        assert node == obj, path


def test_dump_writes_every_dataclass_field(arm: model.ArmDescription,
                                           tmp_path: Path) -> None:
    out = tmp_path / "arm.yaml"
    model.dump_arm(arm, str(out))
    _assert_keys_are_fields(yaml.safe_load(out.read_text(encoding="utf-8")),
                            arm, "arm")


def test_omitted_optional_keys_take_the_dataclass_defaults() -> None:
    data = yaml.safe_load(_shipped_yaml())
    for drive in data["drives"]:
        drive.pop("listed_max_torque", None)
        drive["motor"].pop("mass_source", None)
        drive["motor"].pop("steps_per_rev_is_default", None)
        for stage in drive["stages"]:
            for key in ("tolerance", "mode"):
                (stage.get("geometry") or {}).pop(key, None)
    for link in data["mass_model"]["links"]:
        link.pop("label", None)
    for key in ("payload", "gravity", "reference_total"):
        del data["mass_model"][key]
    arm = model.load_arm_data(data)
    geometries = [s.geometry for d in arm.drives for s in d.stages
                  if s.geometry is not None]
    checked = set()
    for obj in (arm.mass_model, *arm.mass_model.links, *arm.drives,
                *(d.motor for d in arm.drives), *geometries):
        for f in dataclasses.fields(obj):
            if f.default is not dataclasses.MISSING and f.name != "mode":
                assert getattr(obj, f.name) == f.default, (obj, f.name)
                checked.add(f.name)
    assert checked == {"listed_max_torque", "mass_source",
                       "steps_per_rev_is_default", "tolerance", "label",
                       "payload", "gravity", "reference_total"}
    # a capstan without a mode takes its stage kind's
    assert [g.mode for g in geometries] == ["rotating", "stationary"]


def test_resolve_arm_default_and_explicit(arm: model.ArmDescription, tmp_path: Path) -> None:
    got, source = model.resolve_arm(None)
    assert got.dh == arm.dh
    assert source.startswith("builtin:")

    out = tmp_path / "arm.yaml"
    model.dump_arm(arm, str(out))
    got2, source2 = model.resolve_arm(str(out))
    assert got2.dh == arm.dh
    assert source2 == str(out)


def test_resolve_arm_honors_environment(arm: model.ArmDescription, tmp_path: Path,
                                        monkeypatch: pytest.MonkeyPatch) -> None:
    out = tmp_path / "arm.yaml"
    model.dump_arm(arm, str(out))
    monkeypatch.setenv(model.ENV_ARM_CONFIG, str(out))
    got, source = model.resolve_arm(None)
    assert source == str(out)
    assert got.dh == arm.dh


def test_load_arm_missing_file_is_config_error(tmp_path: Path) -> None:
    with pytest.raises(ConfigError):
        model.load_arm(str(tmp_path / "absent.yaml"))


def test_load_arm_data_missing_key_is_config_error() -> None:
    with pytest.raises(ConfigError):
        model.load_arm_data({"name": "broken"})


#: (keys to a field of the shipped arm, a bad value for it, the path an
#: error names)
_MALFORMED_FIELDS = [
    (("mass_model",), [1, 2], "mass_model"),
    (("drives", 0, "stages", 0, "geometry"), [1], "drives[0].stages[0].geometry"),
    (("mass_model", "links"), 5, "mass_model.links"),
    (("drives", 0, "motor", "steps_per_rev"), math.inf,
     "drives[0].motor.steps_per_rev"),
    # past the float range
    (("drives", 0, "motor", "steps_per_rev"), 10**400,
     "drives[0].motor.steps_per_rev"),
    (("drives", 0, "joint_index"), 1.5, "drives[0].joint_index"),
    (("mass_model", "gravity"), math.inf, "mass_model.gravity"),
    (("mass_model", "gravity"), math.nan, "mass_model.gravity"),
    (("mass_model", "payload"), math.nan, "mass_model.payload"),
    (("mass_model", "payload"), math.inf, "mass_model.payload"),
    (("mass_model", "links", 2, "mass"), math.nan, "mass_model.links[2].mass"),
    (("mass_model", "links", 2, "offset"), math.nan,
     "mass_model.links[2].offset"),
    (("mass_model", "motors", 3, "offset"), -math.inf,
     "mass_model.motors[3].offset"),
    (("drives", 4, "motor", "mass"), math.nan, "drives[4].motor.mass"),
]


def _shipped_yaml() -> str:
    return resources.files("armkit").joinpath(
        "data/default_arm.yaml").read_text(encoding="utf-8")


def _malformed_yaml(keys: tuple, value) -> str:
    """The shipped arm with the field at ``keys`` set to ``value``."""
    data = yaml.safe_load(_shipped_yaml())
    node = data
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return yaml.safe_dump(data)


@pytest.mark.parametrize("keys, value, path", _MALFORMED_FIELDS,
                         ids=["mass_model-list", "geometry-list", "links-int",
                              "steps-inf", "steps-huge-int",
                              "joint-index-fraction", "gravity-inf",
                              "gravity-nan", "payload-nan", "payload-inf",
                              "link-mass-nan", "link-offset-nan",
                              "motor-offset-inf", "motor-mass-nan"])
def test_malformed_arm_fields_exit_3_naming_their_path(
        capsys: pytest.CaptureFixture, tmp_path: Path, keys: tuple,
        value, path: str) -> None:
    cfg = tmp_path / "arm.yaml"
    cfg.write_text(_malformed_yaml(keys, value), encoding="utf-8")
    assert cli.run(["fk", "--q", "0,0,0,0,0,0", "--arm", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert path in err
    assert "Traceback" not in err


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"),
                    reason="PyYAML built without libyaml")
def test_c_and_python_yaml_loaders_build_the_same_data(
        arm: model.ArmDescription, tmp_path: Path) -> None:
    assert model._YAML_LOADER is yaml.CSafeLoader
    dumped = tmp_path / "arm.yaml"
    model.dump_arm(arm, str(dumped))
    # every arm YAML the suite loads: shipped, dumped and each malformed one
    texts = [_shipped_yaml(), dumped.read_text(encoding="utf-8")]
    texts += [_malformed_yaml(keys, value)
              for keys, value, _ in _MALFORMED_FIELDS]
    for text in texts:
        # repr tells 1 from 1.0 and shows NaN, which == would not match
        assert repr(yaml.load(text, Loader=yaml.CSafeLoader)) == \
            repr(yaml.load(text, Loader=yaml.SafeLoader))


@pytest.mark.parametrize("loader", ["SafeLoader", "CSafeLoader"])
def test_yaml_syntax_error_exits_3_naming_the_file(
        capsys: pytest.CaptureFixture, tmp_path: Path,
        monkeypatch: pytest.MonkeyPatch, loader: str) -> None:
    if not hasattr(yaml, loader):
        pytest.skip("PyYAML built without libyaml")
    monkeypatch.setattr(model, "_YAML_LOADER", getattr(yaml, loader))
    cfg = tmp_path / "broken.yaml"
    cfg.write_text(_shipped_yaml() + "\ndh: [1, 2\n", encoding="utf-8")
    assert cli.run(["fk", "--q", "0,0,0,0,0,0", "--arm", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert str(cfg) in err and "YAML parse error" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _codes(arm: model.ArmDescription) -> set[str]:
    return {v.code for v in model.validate_arm(arm)}


def test_validate_flags_inverted_limits(arm: model.ArmDescription) -> None:
    limits = list(arm.limits)
    limits[2] = model.JointLimits(min=limits[2].max, max=limits[2].min)
    broken = dataclasses.replace(arm, limits=tuple(limits))
    assert "limits.order" in _codes(broken)


def test_validate_flags_capstan_diameter_order(arm: model.ArmDescription) -> None:
    drives = list(arm.drives)
    d1 = drives[0]
    stage = d1.stages[0]
    assert stage.geometry is not None
    geom = dataclasses.replace(stage.geometry,
                               sheave_diameter=stage.geometry.pulley_diameter * 2)
    stages = (dataclasses.replace(stage, geometry=geom),) + d1.stages[1:]
    drives[0] = dataclasses.replace(d1, stages=stages)
    broken = dataclasses.replace(arm, drives=tuple(drives))
    assert "capstan.diameters" in _codes(broken)


@pytest.mark.parametrize("sheave, pulley", [
    (0.0194, 0.1552), (0.04, 0.04), (0.05, 0.02), (0.0, 0.02), (0.0, 0.0),
    (-0.01, 0.02), (math.nan, 0.02), (0.02, math.nan)],
    ids=["wider", "equal", "narrower", "zero-sheave", "zeros",
         "negative-sheave", "nan-sheave", "nan-pulley"])
def test_validate_takes_the_capstan_diameters_capstan_reduction_takes(
        arm: model.ArmDescription, sheave: float, pulley: float) -> None:
    drives = list(arm.drives)
    stage = drives[0].stages[0]
    geom = dataclasses.replace(stage.geometry, sheave_diameter=sheave,
                               pulley_diameter=pulley)
    drives[0] = dataclasses.replace(drives[0], stages=(
        dataclasses.replace(stage, geometry=geom),) + drives[0].stages[1:])
    try:
        drivetrain.capstan_reduction(geom)
        accepted = True
    except ComputationError:
        accepted = False
    flagged = "capstan.diameters" in _codes(
        dataclasses.replace(arm, drives=tuple(drives)))
    assert flagged is not accepted


def test_validate_flags_stage_ratio_geometry_mismatch(arm: model.ArmDescription) -> None:
    drives = list(arm.drives)
    d1 = drives[0]
    stage = dataclasses.replace(d1.stages[0], ratio=d1.stages[0].ratio * 1.5)
    drives[0] = dataclasses.replace(d1, stages=(stage,) + d1.stages[1:])
    broken = dataclasses.replace(arm, drives=tuple(drives))
    assert "stage.capstan.ratio_mismatch" in _codes(broken)


def test_validate_flags_duplicate_joint_index(arm: model.ArmDescription) -> None:
    drives = list(arm.drives)
    drives[5] = dataclasses.replace(drives[5], joint_index=1)
    broken = dataclasses.replace(arm, drives=tuple(drives))
    assert "drive.joint_index.duplicate" in _codes(broken)


def test_validate_flags_total_mass_out_of_band(arm: model.ArmDescription) -> None:
    links = tuple(dataclasses.replace(p, mass=p.mass * 3.0)
                  for p in arm.mass_model.links)
    mm = dataclasses.replace(arm.mass_model, links=links)
    broken = dataclasses.replace(arm, mass_model=mm)
    assert "mass.total_band" in _codes(broken)


def test_validate_flags_negative_mass(arm: model.ArmDescription) -> None:
    links = (dataclasses.replace(arm.mass_model.links[0], mass=-0.1),
             ) + arm.mass_model.links[1:]
    mm = dataclasses.replace(arm.mass_model, links=links)
    broken = dataclasses.replace(arm, mass_model=mm)
    assert "mass.negative" in _codes(broken)


# ---------------------------------------------------------------------------
# loader and validator error paths, each one edit of the shipped arm
# ---------------------------------------------------------------------------

_DELETE = object()


def _edited(keys: tuple, value):
    """The shipped arm's data with the field at ``keys`` set to ``value``
    (or removed, for ``_DELETE``); no keys replace the whole document."""
    if not keys:
        return value
    data = yaml.safe_load(_shipped_yaml())
    node = data
    for key in keys[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[keys[-1]]
    else:
        node[keys[-1]] = value
    return data


#: (keys, value, the loader's exact message for source "arm")
_LOADER_FAULTS = [
    ((), [1, 2], "arm: top level must be a mapping"),
    (("schema_version",), _DELETE,
     "arm: missing required key 'schema_version'"),
    (("schema_version",), "1", "arm: schema_version must be an integer"),
    (("schema_version",), True, "arm: schema_version must be an integer"),
    (("schema_version",), 2,
     "arm: unsupported schema_version 2 (this toolkit reads version 1)"),
    (("dh",), {"rows": 6}, "arm.dh: expected a list of rows"),
    (("dh", 0, "d"), _DELETE, "dh[0]: missing required key 'd'"),
    # past the float range
    (("dh", 0, "theta_offset"), 10**400,
     f"dh[0].theta_offset: expected a number, got {10**400}"),
    (("dh", 2, "alpha_prev"), "ninety deg",
     "dh[2].alpha_prev: cannot parse angle 'ninety deg'"),
    (("limits", 1, "min"), "90 grad",
     "limits[1].min: angle must be a number (radians) or 'X deg'/'X rad', "
     "got '90 grad'"),
    (("limits", 1, "max"), True,
     "limits[1].max: angle must be a number (radians) or 'X deg'/'X rad', "
     "got True"),
    (("limits", 4), 0.5, "limits[4]: missing required key 'min'"),
    (("drives", 1, "motor", "torque_speed_curve"), [],
     "drives[1].motor.torque_speed_curve: expected a non-empty list"),
    (("drives", 1, "motor", "torque_speed_curve"), [[0.0, 1.26], [3000.0]],
     "drives[1].motor.torque_speed_curve[1]: expected [rate, torque]"),
    (("drives", 1, "motor", "torque_speed_curve"), [[0.0, "x"]],
     "drives[1].motor.torque_speed_curve[0][1]: expected a number, got 'x'"),
    (("drives", 1, "motor", "name"), _DELETE,
     "drives[1].motor: missing required key 'name'"),
    (("drives", 1, "motor", "holding_torque"), "1.26 Nm",
     "drives[1].motor.holding_torque: expected a number, got '1.26 Nm'"),
    (("drives", 2, "motor"), 5,
     "drives[2].motor: missing required key 'torque_speed_curve'"),
    (("drives", 2, "stages", 0, "ratio"), _DELETE,
     "drives[2].stages[0]: missing required key 'ratio'"),
    (("drives", 0, "stages", 0, "geometry", "cable_thickness"), _DELETE,
     "drives[0].stages[0].geometry: missing required key 'cable_thickness'"),
    (("drives", 0, "stages", 0, "geometry", "tolerance"), "2 mm",
     "drives[0].stages[0].geometry.tolerance: expected a number, "
     "got '2 mm'"),
    (("drives", 3, "stages"), {"kind": "gear"}, "drives[3].stages: expected a list"),
    (("drives", 3, "microstep_factor"), _DELETE,
     "drives[3]: missing required key 'microstep_factor'"),
    (("drives", 3, "listed_max_torque"), "high",
     "drives[3].listed_max_torque: expected a number, got 'high'"),
    (("mass_model",), _DELETE, "arm: missing required key 'mass_model'"),
    (("mass_model", "links", 0, "frame"), "base",
     "mass_model.links[0].frame: expected a number, got 'base'"),
    (("mass_model", "motors", 1, "drive"), _DELETE,
     "mass_model.motors[1]: missing required key 'drive'"),
    (("mass_model", "reference_total"), "3.5 kg",
     "mass_model.reference_total: expected a number, got '3.5 kg'"),
]


@pytest.mark.parametrize("keys, value, message", _LOADER_FAULTS,
                         ids=[m.split(":")[0] + "-" + str(k)
                              for k, (_, _, m) in enumerate(_LOADER_FAULTS)])
def test_loader_faults_raise_their_exact_message(keys: tuple, value,
                                                 message: str) -> None:
    with pytest.raises(ConfigError) as caught:
        model.load_arm_data(_edited(keys, value), source="arm")
    assert type(caught.value) is ConfigError
    assert str(caught.value) == message


_GEOMETRY = {"sheave_diameter": 0.02, "pulley_diameter": 0.06,
             "cable_thickness": 0.001}

#: (keys, value, the code and path of a violation validate_arm reports)
_VIOLATIONS = [
    (("dh", 5), _DELETE, "dh.count", "dh"),
    (("dh", 0, "d"), math.nan, "dh.nonfinite", "dh[0].d"),
    (("dh", 1, "a_prev"), -0.2, "dh.negative_length", "dh[1]"),
    (("limits", 5), _DELETE, "limits.count", "limits"),
    (("limits", 2, "min"), -math.inf, "limits.nonfinite", "limits[2].min"),
    (("drives", 5), _DELETE, "drive.count", "drives"),
    (("drives", 5, "joint_index"), 7, "drive.joint_index.range", "drives[5]"),
    (("drives", 2, "microstep_factor"), 0, "drive.microstep",
     "drives[2].microstep_factor"),
    (("drives", 1, "motor", "holding_torque"), 0.0, "motor.holding_torque",
     "drives[1].motor.holding_torque"),
    (("drives", 1, "motor", "mass"), -0.6, "motor.mass.negative",
     "drives[1].motor.mass (MassModel)"),
    (("drives", 1, "motor", "steps_per_rev"), 0, "motor.steps_per_rev",
     "drives[1].motor.steps_per_rev"),
    (("drives", 1, "motor", "steps_per_rev"), 1e308, "drive.resolution",
     "drives[1]"),
    (("drives", 1, "motor", "holding_torque"), math.inf, "motor.nonfinite",
     "drives[1].motor.holding_torque"),
    (("drives", 1, "motor", "torque_speed_curve"), [[0.0, 1.26], [math.nan, 0.6]],
     "motor.nonfinite", "drives[1].motor.torque_speed_curve[1][0]"),
    (("drives", 1, "motor", "torque_speed_curve"), [[10.0, 1.26]],
     "motor.curve.origin", "drives[1].motor.torque_speed_curve"),
    (("drives", 1, "motor", "torque_speed_curve"),
     [[0.0, 1.26], [3000.0, 0.63], [3000.0, 0.5]],
     "motor.curve.rates", "drives[1].motor.torque_speed_curve"),
    (("drives", 1, "motor", "torque_speed_curve"), [[0.0, 1.26], [3000.0, 1.5]],
     "motor.curve.increasing", "drives[1].motor.torque_speed_curve"),
    (("drives", 3, "stages", 0, "kind"), "chain", "stage.kind",
     "drives[3].stages[0] (TransmissionStage)"),
    (("drives", 3, "stages", 0, "ratio"), 0.0, "stage.ratio",
     "drives[3].stages[0] (TransmissionStage)"),
    (("drives", 3, "stages", 0, "ratio"), math.inf, "stage.nonfinite",
     "drives[3].stages[0].ratio"),
    # finite ratios whose product overflows
    (("drives", 1, "stages", 0, "ratio"), 1e308, "drive.torque_budget",
     "drives[1]"),
    (("drives", 4, "listed_max_torque"), math.nan, "drive.nonfinite",
     "drives[4].listed_max_torque"),
    (("drives", 2, "stages", 0, "ratio"), 5e-324, "drive.resolution",
     "drives[2]"),
    (("drives", 0, "stages", 0, "geometry"), None,
     "stage.capstan.geometry_missing", "drives[0].stages[0] (TransmissionStage)"),
    (("drives", 3, "stages", 0, "geometry"), _GEOMETRY,
     "stage.capstan.geometry_unexpected",
     "drives[3].stages[0] (TransmissionStage)"),
    (("drives", 0, "stages", 0, "geometry", "mode"), "stationary",
     "stage.capstan.mode_mismatch", "drives[0].stages[0].geometry"),
    (("drives", 0, "stages", 0, "geometry", "cable_thickness"), 0.0,
     "capstan.thickness", "drives[0].stages[0].geometry"),
    (("drives", 0, "stages", 0, "geometry", "tolerance"), -0.001,
     "capstan.tolerance", "drives[0].stages[0].geometry"),
    (("drives", 0, "stages", 0, "geometry", "tolerance"), math.inf,
     "capstan.nonfinite", "drives[0].stages[0].geometry.tolerance"),
    (("mass_model", "payload"), -1.0, "mass.negative",
     "mass_model.payload (MassModel)"),
    (("mass_model", "links", 0, "frame"), 7, "mass.frame.range",
     "mass_model.links[0] (MassModel)"),
    (("mass_model", "motors", 0, "frame"), -1, "mass.frame.range",
     "mass_model.motors[0] (MassModel)"),
    (("mass_model", "motors", 0, "drive"), 9, "mass.motor_placement.drive",
     "mass_model.motors[0] (MassModel)"),
    (("mass_model", "gravity"), 0.0, "mass.gravity", "mass_model.gravity"),
]


@pytest.mark.parametrize("keys, value, code, path", _VIOLATIONS,
                         ids=[f"{c}-{k}" for k, (_, _, c, _) in
                              enumerate(_VIOLATIONS)])
def test_validator_reports_each_violation_at_its_path(keys: tuple, value,
                                                      code: str,
                                                      path: str) -> None:
    with pytest.raises(ValidationError) as caught:
        model.load_arm_data(_edited(keys, value), source="arm")
    assert (code, path) in {(v.code, v.path) for v in caught.value.violations}


def test_total_band_message_writes_a_huge_total_in_exponent_form() -> None:
    with pytest.raises(ValidationError) as caught:
        # the shipped YAML gives four drives this motor
        model.load_arm_data(_edited(("drives", 0, "motor", "mass"), 1e300))
    assert "structural+motor mass 4.00000e+300 kg" in str(caught.value)
