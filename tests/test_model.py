import configparser
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volclust.errors import ConfigError
from volclust.model import (Arctangent, Constant, ModelSpec, Tabulated,
                            arctangent_model, coefficient_from_string,
                            probe_grid, read_config, validate, write_config)


def test_demo_model_is_valid(demo_spec):
    assert validate(demo_spec).is_valid


def test_correlation_bound_is_strict(demo_spec):
    report = validate(demo_spec.with_(rho=1.0))
    assert not report.is_valid
    assert any("rho" in v for v in report.violations)


def test_negative_sigma1_rejected(demo_spec):
    report = validate(demo_spec.with_(sigma1=Constant(-0.1)))
    assert any("sigma1" in v for v in report.violations)


@pytest.mark.parametrize("field,value", [
    ("gamma", 0.0), ("epsilon", -1.0), ("strike", 0.0), ("maturity", -0.5),
])
def test_positive_scalars_enforced(demo_spec, field, value):
    assert not validate(demo_spec.with_(**{field: value})).is_valid


def test_demo_coefficients_arctangent(demo_spec):
    assert demo_spec.sigma1(0.0) == pytest.approx(0.3, abs=1e-15)
    assert demo_spec.sigma2(0.0) == 0.2
    assert demo_spec.b(0.0) == 1.0
    assert demo_spec.sigma1(1e6) == pytest.approx(0.55, abs=1e-5)


def test_constant_everywhere():
    c = Constant(0.2)
    assert c(-17.0) == 0.2
    assert np.all(c(np.linspace(-5, 5, 11)) == 0.2)


def test_arctangent_monotone_and_bounded():
    f = Arctangent(0.3, 0.5)
    ys = np.linspace(-50, 50, 1001)
    vals = f(ys)
    assert np.all(np.diff(vals) > 0)
    assert vals.min() > 0.3 - 0.25 and vals.max() < 0.3 + 0.25


def test_tabulated_interpolation_and_flat_tails():
    t = Tabulated(np.array([-1.0, 0.0, 2.0]), np.array([1.0, 3.0, 2.0]))
    assert t(-1.0) == 1.0 and t(0.0) == 3.0 and t(2.0) == 2.0  # exact at nodes
    assert t(-0.5) == pytest.approx(2.0)                        # linear between
    assert t(-10.0) == 1.0 and t(10.0) == 2.0                   # flat outside


def test_tabulated_rejects_bad_grid():
    with pytest.raises(ConfigError):
        Tabulated(np.array([0.0, 0.0, 1.0]), np.array([1.0, 2.0, 3.0]))


def test_valid_specs_have_positive_vols(demo_spec):
    ys = probe_grid(demo_spec)
    assert np.all(demo_spec.sigma1(ys) > 0)
    assert np.all(demo_spec.sigma2(ys) > 0)


def test_coefficient_string_parsing(tmp_path):
    assert coefficient_from_string("constant:0.25") == Constant(0.25)
    assert coefficient_from_string("atan:0.3,0.5") == Arctangent(0.3, 0.5)
    csv_path = tmp_path / "table.csv"
    csv_path.write_text("y,value\n-1.0,0.1\n1.0,0.2\n")
    t = coefficient_from_string(f"table:{csv_path}", str(tmp_path))
    assert t(0.0) == pytest.approx(0.15)
    with pytest.raises(ConfigError):
        coefficient_from_string("spline:1,2")


def test_config_round_trip(tmp_path, demo_spec):
    path = tmp_path / "model.cfg"
    write_config(demo_spec, str(path))
    loaded = read_config(str(path))
    assert loaded == demo_spec


def test_config_round_trip_with_table(tmp_path):
    table = tmp_path / "sigma2.csv"
    table.write_text("y,value\n-5.0,0.15\n0.0,0.2\n5.0,0.3\n")
    spec = arctangent_model().with_(
        sigma2=coefficient_from_string("table:sigma2.csv", str(tmp_path)))
    path = tmp_path / "model.cfg"
    write_config(spec, str(path))
    loaded = read_config(str(path))
    assert loaded.sigma2(1.0) == spec.sigma2(1.0)
    assert math.isclose(loaded.sigma2(-7.0), 0.15)


def test_missing_config_raises():
    with pytest.raises(ConfigError):
        read_config("/nonexistent/model.cfg")


# the ini layout, spelled out here as an oracle independent of the module's table
CONFIG_SECTIONS = {
    "model": ("b", "sigma1", "sigma2", "m", "rho", "epsilon"),
    "driver": ("eta", "gamma"),
    "option": ("strike", "maturity"),
}


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _vol():
    """A constant or arctangent coefficient with a positive infimum."""
    ramp = _floats(0.01, 2.0).flatmap(
        lambda base: st.builds(Arctangent, st.just(base), _floats(-base, base)))
    return st.one_of(st.builds(Constant, _floats(0.01, 2.0)), ramp)


valid_specs = st.builds(
    ModelSpec,
    b=st.one_of(st.builds(Constant, _floats(-10.0, 10.0)),
                st.builds(Arctangent, _floats(-10.0, 10.0), _floats(-10.0, 10.0))),
    sigma1=_vol(), sigma2=_vol(),
    m=_floats(-5.0, 5.0), rho=_floats(-0.99, 0.99), eta=_floats(-2.0, 2.0),
    gamma=_floats(1e-3, 1e3), epsilon=_floats(1e-4, 10.0),
    strike=_floats(1e-3, 1e4), maturity=_floats(1e-3, 30.0),
)


@settings(max_examples=60, deadline=None)
@given(valid_specs)
def test_config_round_trip_is_exact_for_random_specs(spec):
    assert validate(spec).is_valid
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.cfg"), os.path.join(tmp, "b.cfg")
        write_config(spec, first)
        loaded = read_config(first)
        write_config(loaded, second)
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()
        parser = configparser.ConfigParser()
        parser.read(first)
        assert {name: tuple(parser[name]) for name in parser.sections()} == CONFIG_SECTIONS
    assert loaded == spec


@pytest.mark.parametrize("section,key", [(section, None) for section in CONFIG_SECTIONS]
                         + [(section, key) for section, keys in CONFIG_SECTIONS.items()
                            for key in keys])
def test_config_missing_section_or_key_is_named(tmp_path, demo_spec, section, key):
    path = tmp_path / "model.cfg"
    write_config(demo_spec, str(path))
    parser = configparser.ConfigParser()
    parser.read(path)
    if key is None:
        parser.remove_section(section)
    else:
        parser.remove_option(section, key)
    with open(path, "w") as fh:
        parser.write(fh)
    with pytest.raises(ConfigError) as info:
        read_config(str(path))
    assert str(info.value).endswith(repr(key or section))
