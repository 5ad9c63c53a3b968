"""Sequence families used as experiment vehicles by the CLI and the sweeps."""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .sequences import VerblunskySequence

KINDS = ("power", "rotated", "random", "constant", "explicit")


@dataclass(frozen=True)
class FamilySpec:
    """Deterministic generator of admissible Verblunsky sequences.

    power:    a_n = c / (n+1)^gamma
    rotated:  a_n = c e^{i beta n} / (n+1)^gamma
    random:   i.i.d. uniform on the disc of radius modulus_cap (seeded PCG64),
              one (radius, angle) draw per index, so generate(N) is a
              prefix of generate(M) for M > N
    constant: a_n = c
    explicit: a fixed list
    """

    kind: str
    c: complex = 0.0
    gamma: float = 0.0
    beta: float = 0.0
    seed: int = 0
    modulus_cap: float = 0.0
    values: tuple = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        # equal specs must generate equal floats: real / float and
        # complex / float divisions differ in the last bit
        object.__setattr__(self, "c", complex(self.c))
        # numpy would warn on stderr and build a sequence of nan or inf
        for name in ("c", "gamma", "beta", "modulus_cap"):
            value = getattr(self, name)
            if not cmath.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.modulus_cap < 0:
            raise ValueError(f"modulus_cap must be >= 0, got {self.modulus_cap}")

    def label(self) -> str:
        if self.kind == "power":
            return f"power(c={self.c}, gamma={self.gamma})"
        if self.kind == "rotated":
            return f"rotated(c={self.c}, gamma={self.gamma}, beta={self.beta})"
        if self.kind == "random":
            return f"random(seed={self.seed}, cap={self.modulus_cap})"
        if self.kind == "constant":
            return f"constant(c={self.c})"
        return f"explicit(len={len(self.values)})"

    def generate(self, N: int) -> VerblunskySequence:
        """Entries a_0..a_N; rejects any modulus >= 1 at construction."""
        if N < 0:
            raise ValueError("N must be >= 0")
        n = np.arange(N + 1)
        if len(n) != N + 1:
            # numpy returns an empty range, not an error, for lengths near 2**63
            raise ValueError(f"N = {N} is past the longest array numpy can index")
        # a huge finite parameter takes entries to inf or nan, which the
        # sequence refuses, or to 0, their limit: numpy need not warn
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if self.kind == "power":
                vals = self.c / (n + 1.0) ** self.gamma
            elif self.kind == "rotated":
                vals = self.c * np.exp(1j * self.beta * n) / (n + 1.0) ** self.gamma
            elif self.kind == "random":
                rng = np.random.default_rng(self.seed)
                draws = rng.uniform(size=(N + 1, 2))
                radii = self.modulus_cap * np.sqrt(draws[:, 0])
                vals = radii * np.exp(2j * np.pi * draws[:, 1])
            elif self.kind == "constant":
                vals = np.full(N + 1, complex(self.c))
            else:
                if len(self.values) < N + 1:
                    raise ValueError(
                        f"explicit family has {len(self.values)} entries, need {N + 1}"
                    )
                vals = self.values[: N + 1]
        return VerblunskySequence(vals)

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.kind in ("power", "rotated", "constant"):
            out["c"] = [complex(self.c).real, complex(self.c).imag]
        if self.kind in ("power", "rotated"):
            out["gamma"] = self.gamma
        if self.kind == "rotated":
            out["beta"] = self.beta
        if self.kind == "random":
            out["seed"] = self.seed
            out["modulus_cap"] = self.modulus_cap
        if self.kind == "explicit":
            out["length"] = len(self.values)
        return out
