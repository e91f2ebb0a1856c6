"""Kernel-coupled SIR epidemics on the discrete torus.

Exact event-driven simulation of the interacting particle system, the
nonlocal density PDE it converges to, final-size analysis of the mean-field
reduction, and solvers for the implicit equations satisfied by the surviving
susceptible density.
"""
from __future__ import annotations

__version__ = "0.5.0"

from .grid import (
    DiscreteKernel,
    MeanField,
    TopHat,
    TorusGrid,
    WrappedBump,
    build_kernel,
    convolve,
    parse_kernel_spec,
)

__all__ = [
    "DiscreteKernel",
    "MeanField",
    "TopHat",
    "TorusGrid",
    "WrappedBump",
    "build_kernel",
    "convolve",
    "parse_kernel_spec",
    "__version__",
]
