"""Quasi-static simulation of a load-based variable transmission knee joint.

A four-bar linkage driven by a linear actuator whose output lever is a
pre-tensioned six-joint torsional spring chain. The chain stays closed below
a triggering force and opens under load, lengthening the lever and raising
the transmission ratio until the end stops engage.
"""

from importlib.resources import files
from pathlib import Path

from .analysis import (
    calibrate,
    emit_csv,
    emit_svg_plot,
    ratio_step_direct,
    ratio_step_from_sweep,
    read_csv,
    sample_ladder,
    sweep_ratio_vs_force,
    sweep_torque_vs_angle,
    sweep_torque_vs_force,
    sweep_trigger,
)
from .chain import (
    closed_lever,
    joint_torques,
    make_chain_state,
    open_lever,
)
from .config import load_config, save_config
from .equilibrium import (
    brute_force_equilibrium,
    solve_equilibrium,
    triggering_force,
)
from .linkage import actuator_length, jacobian
from .model import (
    CalibrationError,
    ChainState,
    ConfigError,
    EquilibriumResult,
    GeometryError,
    GridSizeError,
    MechanismConfig,
    NoTriggerError,
    Regime,
    SingularityError,
    SweepTable,
    per_joint_stiffness,
    total_stiffness,
    validate_config,
)

__version__ = "0.1.0"


def default_config_path() -> Path:
    """Path of the shipped calibrated config."""
    return Path(str(files("lbvt") / "data" / "default_config.json"))


def base_config_path() -> Path:
    """Path of the uncalibrated base geometry the default was calibrated from."""
    return Path(str(files("lbvt") / "data" / "base_config.json"))


def load_default_config() -> MechanismConfig:
    return load_config(default_config_path())
