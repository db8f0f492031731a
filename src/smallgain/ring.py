"""Bundled demo: three scalar subsystems coupled in a delayed ring.

The network is

    x1' = -3 x1   + v2(t - delta)^2 / (1 + v2(t - delta)^2)
    x2' = -1.5 x2 + v3(t - delta)^3
    x3' = -2 x3   + v1(t - delta)^2

with outputs v_i = x_i, so influence flows 2 -> 1 -> 3 -> 2 around a
single ring.  Each subsystem is exponentially contractive on its own and
admits the gain profile

    sigma_1 = 7 s    gamma_12 = s^2 / (2 (1 + s^2))
    sigma_2 = 4 s    gamma_23 = s^3
    sigma_3 = 3 s    gamma_31 = s^2

whose unique simple cycle composes to s^12 / (2 (1 + s^12)), strictly
below the identity, so the ring is certifiably stable for any delay.
The system is written down once, as the JSON configuration document of
:func:`ring_config` that the command-line interface ships;
:func:`ring_system` and :func:`ring_gains` parse it.
"""

from __future__ import annotations

from .dsl import parse_system
from .graph import GainDigraph
from .sim import DelaySystemSpec

__all__ = ["ring_system", "ring_gains", "ring_config"]


def ring_system(delta: float = 1.0) -> DelaySystemSpec:
    """The ring with all couplings delayed by ``delta`` (> 0)."""
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    return parse_system(ring_config(delta)).system


def ring_gains() -> GainDigraph:
    """Gain digraph certifying the ring's stability."""
    return parse_system(ring_config()).digraph


def ring_config(delta: float = 1.0, T: float = 20.0, h: float = 0.01) -> dict:
    """The ring as a JSON-ready configuration document."""
    d = float(delta)
    return {
        "name": "delayed-ring-3",
        "k": 3,
        "delays": [d],
        "subsystems": [
            {
                "dim": 1,
                "rhs": [f"-3*x_1 + v_2[-{d!r}]^2/(1+v_2[-{d!r}]^2)"],
            },
            {
                "dim": 1,
                "rhs": [f"-1.5*x_2 + v_3[-{d!r}]^3"],
            },
            {
                "dim": 1,
                "rhs": [f"-2*x_3 + v_1[-{d!r}]^2"],
            },
        ],
        "gains": {
            "edges": {
                "1,2": "s^2/(2*(1+s^2))",
                "2,3": "s^3",
                "3,1": "s^2",
            },
            "sigma": {"1": "7*s", "2": "4*s", "3": "3*s"},
        },
        "simulation": {
            "T": float(T),
            "h": float(h),
            "history": [[1.0], [1.0], [1.0]],
        },
        "checks": {
            "eps": 0.001,
            "tail_fraction": 0.2,
        },
    }
