"""Flat config parsing, validation, and profile spec evaluation."""
from pathlib import Path

import numpy as np
import pytest

from epilattice import TorusGrid
from epilattice.config import (
    ExperimentConfig,
    parse_kv_text,
    parse_profile,
    parse_profile_pair,
    parse_uniform,
)
from epilattice.errors import ConfigError, IoError


# ---------------------------------------------------------------------------
# key = value text
# ---------------------------------------------------------------------------

def test_parse_kv_basic():
    text = """
    # a comment
    d = 2
    L = 100, 1000   # inline comment
    kernel = tophat:0.1

    beta=2.5
    """
    items = parse_kv_text(text)
    assert items == {"d": "2", "L": "100, 1000", "kernel": "tophat:0.1",
                     "beta": "2.5"}


@pytest.mark.parametrize("bad", ["just words", "= value", "d : 2"])
def test_parse_kv_malformed_line(bad):
    with pytest.raises(ConfigError, match="line 1"):
        parse_kv_text(bad)


def test_parse_kv_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_kv_text("d = 1\nd = 2\n")


# ---------------------------------------------------------------------------
# ExperimentConfig
# ---------------------------------------------------------------------------

def test_defaults_are_valid():
    config = ExperimentConfig()
    assert config.L == 100
    assert config.beta == 2.0


def test_from_items_types_and_lists():
    config = ExperimentConfig.from_items({
        "d": "2", "L": "10, 20, 40", "beta": "0.5, 2.0", "alpha": "0.3",
        "replicas": "7", "seed": "123", "dt": "0.01",
    })
    assert config.d == 2
    assert config.L_values == (10, 20, 40)
    assert config.betas == (0.5, 2.0)
    assert config.replicas == 7
    # multi-valued fields refuse the single-value accessors
    with pytest.raises(ConfigError):
        config.L
    with pytest.raises(ConfigError):
        config.beta


def test_from_items_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        ExperimentConfig.from_items({"betta": "2"})


@pytest.mark.parametrize("items, match", [
    ({"d": "zero"}, "integer"),
    ({"t_end": "soon"}, "number"),
    ({"t_end": "inf"}, "finite"),
    ({"L": "100, 100"}, "strictly increasing"),
    ({"L": "1"}, ">= 2"),
    ({"beta": "0"}, "positive"),
    ({"replicas": "0"}, ">= 1"),
    ({"seed": "-1"}, "nonnegative"),
    ({"dt": "0.5"}, "dt"),
    ({"samples": "0"}, "samples"),
    ({"mode": "sideways"}, "mode"),
    ({"kernel": "hexagon:1"}, "kernel"),
    ({"L": ""}, "empty list"),
    ({"d": "0"}, "positive integer"),
    ({"t_end": "0"}, "t_end: must be positive"),
    ({"tol": "0"}, "tol: must be positive"),
])
def test_validation_errors(items, match):
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig.from_items(items)


@pytest.mark.parametrize("text", ["L = 10\nL_values = 20\n",
                                  "betas = 2.0, 3.0\nbeta = 1.5\n"])
def test_from_items_rejects_key_with_its_alias(text):
    # each key is unique, so parse_kv_text passes; both lines set one field
    with pytest.raises(ConfigError, match="duplicate key"):
        ExperimentConfig.from_items(parse_kv_text(text))


def test_round_trip_through_items():
    config = ExperimentConfig(d=2, L_values=(16, 64), betas=(0.1, 2.5e-3),
                              rho0="bump:0.8,0.3", rho1="complement",
                              alpha=0.125, replicas=3, seed=99, t_end=7.5,
                              samples=9, dt=0.025, tol=1e-12, init="exact:10,5",
                              test_functions="one,cos:2", input="x.csv",
                              mode="beta", out_dir="runs")
    assert ExperimentConfig.from_items(config.as_items()) == config


def test_manifest_prefix_extraction():
    items = {"manifest_version": "1", "command": "simulate",
             "wall_seconds": "1.23", "config.d": "2", "config.L": "32",
             "realized.L32.n_infected": "4"}
    config = ExperimentConfig.from_items(items)
    assert config.d == 2 and config.L == 32
    # non-config keys ignored, but unknown keys inside config. still rejected
    with pytest.raises(ConfigError):
        ExperimentConfig.from_items({"config.bogus": "1"})


def test_readme_key_table_matches_defaults():
    # the README's configuration table is the one hand-kept copy of the keys
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text().split("| key | default | meaning |\n|---|---|---|\n", 1)[1]
    documented = {}
    for line in lines.splitlines():
        if not line.startswith("|"):
            break
        key, default = (cell.strip().strip("`") for cell in line.split("|")[1:3])
        documented[key] = default
    assert documented == ExperimentConfig().as_items()


def test_from_file_missing(tmp_path):
    with pytest.raises(IoError, match="cannot read config"):
        ExperimentConfig.from_file(tmp_path / "nope.txt")


def test_from_file_round_trip(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("d = 1\nL = 40\nbeta = 1.25\nrho0 = 0.9\nrho1 = 0.1\n")
    config = ExperimentConfig.from_file(path)
    assert config.beta == 1.25


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_profile_bare_number_and_uniform():
    grid = TorusGrid(1, 8)
    np.testing.assert_array_equal(parse_profile(grid, "0.25"), np.full(8, 0.25))
    np.testing.assert_array_equal(parse_profile(grid, "uniform:0.5"),
                                  np.full(8, 0.5))


def test_profile_bump_center_default_and_custom():
    grid = TorusGrid(1, 64)
    centered = parse_profile(grid, "bump:0.8,0.25")
    assert centered.argmax() == 32  # default center at the torus midpoint
    assert centered.max() == pytest.approx(0.8)
    shifted = parse_profile(grid, "bump:0.8,0.25,0.25")
    assert shifted.argmax() == 16


def test_profile_bump_2d_center_dims():
    grid = TorusGrid(2, 8)
    field = parse_profile(grid, "bump:0.5,0.3,0.5,0.5")
    assert field.shape == (8, 8)
    with pytest.raises(ConfigError, match="center"):
        parse_profile(grid, "bump:0.5,0.3,0.5")


@pytest.mark.parametrize("bad", ["three", "swirl:1", "bump:0.5", "uniform:x",
                                 "nan", "inf"])
def test_profile_errors(bad):
    with pytest.raises(ConfigError):
        parse_profile(TorusGrid(1, 8), bad)


@pytest.mark.parametrize("spec", ["0.3", "uniform:0.3", " Uniform:0.3 "])
def test_parse_uniform_reads_both_spellings(spec):
    assert parse_uniform(spec, "rho0") == 0.3


@pytest.mark.parametrize("bad", ["bump:0.5,0.2", "complement", "nan"])
def test_parse_uniform_rejects_other_forms(bad):
    with pytest.raises(ConfigError, match="rho1"):
        parse_uniform(bad, "rho1")


def test_profile_unknown_form_names_the_bump_form():
    with pytest.raises(ConfigError, match="bump:") as info:
        parse_profile(TorusGrid(1, 8), "wave:0.2", "rho0")
    assert "wave:0.2" in str(info.value)


def test_profile_pair_complement():
    grid = TorusGrid(1, 32)
    rho0, rho1 = parse_profile_pair(grid, "bump:0.7,0.3", "complement")
    np.testing.assert_allclose(rho0 + rho1, 1.0, rtol=0, atol=1e-15)
    rho0_u, rho1_u = parse_profile_pair(grid, "0.9", "0.05")
    np.testing.assert_array_equal(rho1_u, np.full(32, 0.05))
