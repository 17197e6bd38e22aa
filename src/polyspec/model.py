"""Polymer models, disorder sampling, and lattice sequences.

A polymer model is built from two finite blocks ("polymers") of lattice
sites, each carrying fixed potential and hopping values. Blocks are laid
head-to-tail along the lattice, each block chosen independently: the plus
polymer with probability p_plus, the minus polymer otherwise.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PolymerSpec",
    "PolymerModel",
    "Configuration",
    "LatticeSequences",
    "substream",
    "sample_configuration",
    "build_sequences",
    "lattice_for_blocks",
    "lattice_for_sites",
    "dimer_preset",
    "anderson_preset",
    "model_from_dict",
    "model_to_dict",
    "load_model",
]


def substream(seed: int, realization_index: int) -> np.random.Generator:
    """Independent counter-based RNG stream for one realization.

    Streams derived from the same master seed but different realization
    indices are statistically independent and reproducible under any
    parallel schedule.
    """
    ss = np.random.SeedSequence(entropy=int(seed) % 2**64,
                                spawn_key=(int(realization_index),))
    return np.random.Generator(np.random.Philox(ss))


def _freeze(a):
    a = np.asarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PolymerSpec:
    """One polymer: site count, per-site potentials and hoppings."""

    length: int
    potentials: np.ndarray
    hoppings: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "potentials", _freeze(np.asarray(self.potentials, float)))
        object.__setattr__(self, "hoppings", _freeze(np.asarray(self.hoppings, float)))
        if self.length < 1:
            raise ValueError("polymer length must be >= 1")
        if self.potentials.shape != (self.length,) or self.hoppings.shape != (self.length,):
            raise ValueError("potentials and hoppings must both have `length` entries")
        for name in ("potentials", "hoppings"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"polymer {name} must be finite (no NaN or Infinity)")
        if not np.all(self.hoppings > 0):
            raise ValueError("all hoppings must be strictly positive")


@dataclass(frozen=True)
class PolymerModel:
    """Two polymer species plus the Bernoulli probability of the plus one."""

    plus: PolymerSpec
    minus: PolymerSpec
    p_plus: float

    def __post_init__(self):
        if not (0.0 < self.p_plus < 1.0):
            raise ValueError("p_plus must lie in the open interval (0, 1)")

    @property
    def p_minus(self) -> float:
        return 1.0 - self.p_plus

    def mean(self, c_plus: float, c_minus: float) -> float:
        """Bernoulli average p*c_plus + (1-p)*c_minus."""
        return self.p_plus * c_plus + self.p_minus * c_minus

    @property
    def mean_length(self) -> float:
        return self.mean(self.plus.length, self.minus.length)

    @property
    def equal_lengths(self) -> bool:
        return self.plus.length == self.minus.length

    @property
    def gershgorin_bound(self) -> tuple[float, float]:
        """[min v - 2 max t, max v + 2 max t] over both polymers, which holds
        the spectrum of every box."""
        v = np.concatenate([self.plus.potentials, self.minus.potentials])
        t = max(self.plus.hoppings.max(), self.minus.hoppings.max())
        return float(v.min() - 2 * t), float(v.max() + 2 * t)


@dataclass(frozen=True)
class Configuration:
    """A sampled arrangement of polymer blocks.

    ``signs[n]`` is True for a plus block.  ``nodes`` holds the block
    boundary positions p_0 = 0 < p_1 < ... < p_N; block n occupies sites
    nodes[n] .. nodes[n+1]-1.  Regeneration from (seed, realization_index)
    is bit-identical.
    """

    signs: np.ndarray
    nodes: np.ndarray
    seed: int
    realization_index: int

    def __post_init__(self):
        object.__setattr__(self, "signs", _freeze(np.asarray(self.signs, bool)))
        object.__setattr__(self, "nodes", _freeze(np.asarray(self.nodes, np.int64)))
        if self.nodes.shape != (self.signs.size + 1,):
            raise ValueError("nodes must have one more entry than signs")

    @property
    def num_blocks(self) -> int:
        return self.signs.size

    @property
    def num_sites(self) -> int:
        return int(self.nodes[-1])


@dataclass(frozen=True)
class LatticeSequences:
    """Concatenated per-site potential and hopping sequences of a finite box."""

    potentials: np.ndarray
    hoppings: np.ndarray
    num_sites: int

    def __post_init__(self):
        object.__setattr__(self, "potentials", _freeze(np.asarray(self.potentials, float)))
        object.__setattr__(self, "hoppings", _freeze(np.asarray(self.hoppings, float)))
        if self.potentials.shape != (self.num_sites,) or self.hoppings.shape != (self.num_sites,):
            raise ValueError("potentials/hoppings length must equal num_sites")
        if not np.all(self.hoppings > 0):
            raise ValueError("all hoppings must be strictly positive")


def sample_configuration(model: PolymerModel, num_blocks: int, seed: int,
                         realization_index: int = 0) -> Configuration:
    """Draw iid block signs and lay the polymers from the origin."""
    if num_blocks < 1:
        raise ValueError("num_blocks must be >= 1")
    rng = substream(seed, realization_index)
    signs = rng.random(num_blocks) < model.p_plus
    lengths = np.where(signs, model.plus.length, model.minus.length)
    nodes = np.concatenate([[0], np.cumsum(lengths)])
    return Configuration(signs=signs, nodes=nodes, seed=int(seed),
                         realization_index=int(realization_index))


def build_sequences(model: PolymerModel, config: Configuration) -> LatticeSequences:
    """Concatenate per-block potential/hopping tuples in block order."""
    lengths = np.where(config.signs, model.plus.length, model.minus.length)
    if not np.array_equal(np.diff(config.nodes), lengths):
        raise ValueError("configuration nodes are inconsistent with model polymer lengths")
    if model.equal_lengths:
        v = np.where(config.signs[:, None], model.plus.potentials[None, :],
                     model.minus.potentials[None, :]).ravel()
        t = np.where(config.signs[:, None], model.plus.hoppings[None, :],
                     model.minus.hoppings[None, :]).ravel()
    else:
        v = np.concatenate([model.plus.potentials if s else model.minus.potentials
                            for s in config.signs])
        t = np.concatenate([model.plus.hoppings if s else model.minus.hoppings
                            for s in config.signs])
    return LatticeSequences(potentials=v, hoppings=t, num_sites=int(config.nodes[-1]))


def lattice_for_blocks(model: PolymerModel, num_blocks: int, seed: int,
                       realization_index: int = 0) -> LatticeSequences:
    """Finite box specified by block count (box ends on a polymer node)."""
    return build_sequences(model, sample_configuration(model, num_blocks, seed,
                                                       realization_index))


def lattice_for_sites(model: PolymerModel, num_sites: int, seed: int,
                      realization_index: int = 0) -> LatticeSequences:
    """Finite box of exactly `num_sites` sites (last block truncated)."""
    if num_sites < 1:
        raise ValueError("num_sites must be >= 1")
    min_len = min(model.plus.length, model.minus.length)
    num_blocks = num_sites // min_len + 1
    seq = lattice_for_blocks(model, num_blocks, seed, realization_index)
    if seq.num_sites < num_sites:
        raise RuntimeError("block oversampling too small")  # unreachable
    return LatticeSequences(potentials=seq.potentials[:num_sites],
                            hoppings=seq.hoppings[:num_sites],
                            num_sites=num_sites)


def potentials_for_sites_batch(model: PolymerModel, num_sites: int, seed: int,
                               realization_indices) -> tuple[np.ndarray, np.ndarray]:
    """Potential and hopping matrices, one column per realization.

    Returns (v, t) with shape (num_sites, R).  Fast path for equal polymer
    lengths; the general case concatenates per realization.  Column r is
    bit-identical to lattice_for_sites(model, num_sites, seed, indices[r]).
    """
    idx = list(realization_indices)
    if model.equal_lengths:
        L = model.plus.length
        nblocks = num_sites // L + 1
        signs = np.empty((nblocks, len(idx)), dtype=bool)
        for j, r in enumerate(idx):
            signs[:, j] = substream(seed, r).random(nblocks) < model.p_plus
        v = np.where(signs[:, None, :], model.plus.potentials[None, :, None],
                     model.minus.potentials[None, :, None]).reshape(-1, len(idx))
        t = np.where(signs[:, None, :], model.plus.hoppings[None, :, None],
                     model.minus.hoppings[None, :, None]).reshape(-1, len(idx))
        return v[:num_sites], t[:num_sites]
    v = np.empty((num_sites, len(idx)))
    t = np.empty((num_sites, len(idx)))
    for j, r in enumerate(idx):
        seq = lattice_for_sites(model, num_sites, seed, r)
        v[:, j] = seq.potentials
        t[:, j] = seq.hoppings
    return v, t


def dimer_preset(V: float, p: float) -> PolymerModel:
    """Random dimer model: length-2 polymers with potentials (+-V, +-V), t = 1."""
    if not (0.0 < V <= 1.0):
        raise ValueError("dimer V must lie in (0, 1]")
    plus = PolymerSpec(2, [V, V], [1.0, 1.0])
    minus = PolymerSpec(2, [-V, -V], [1.0, 1.0])
    return PolymerModel(plus=plus, minus=minus, p_plus=p)


def anderson_preset(V: float, p: float) -> PolymerModel:
    """Single-site Bernoulli model: potentials +-V, t = 1."""
    plus = PolymerSpec(1, [V], [1.0])
    minus = PolymerSpec(1, [-V], [1.0])
    return PolymerModel(plus=plus, minus=minus, p_plus=p)


_PRESETS = {"dimer": dimer_preset, "anderson": anderson_preset}


def model_from_dict(d: dict) -> PolymerModel:
    """Build a model from the documented JSON schema.

    Either {"preset": "dimer"|"anderson", "V": float, "p": float} or an
    explicit {"plus": {"potentials": [...], "hoppings": [...]},
    "minus": {...}, "p_plus": float}.
    """
    if "preset" in d:
        name = d["preset"]
        if name not in _PRESETS:
            raise ValueError(f"unknown preset {name!r}; available: {sorted(_PRESETS)}")
        return _PRESETS[name](float(d["V"]), float(d["p"]))
    try:
        specs = {}
        for key in ("plus", "minus"):
            sd = d[key]
            pots = list(sd["potentials"])
            hops = list(sd["hoppings"])
            specs[key] = PolymerSpec(len(pots), pots, hops)
        return PolymerModel(plus=specs["plus"], minus=specs["minus"],
                            p_plus=float(d["p_plus"]))
    except KeyError as e:
        raise ValueError(f"model dict missing field {e.args[0]!r}") from None


def model_to_dict(model: PolymerModel) -> dict:
    return {
        "plus": {"potentials": model.plus.potentials.tolist(),
                 "hoppings": model.plus.hoppings.tolist()},
        "minus": {"potentials": model.minus.potentials.tolist(),
                  "hoppings": model.minus.hoppings.tolist()},
        "p_plus": model.p_plus,
    }


def load_model(path) -> PolymerModel:
    """Load a model from a JSON config file."""
    with open(path) as f:
        return model_from_dict(json.load(f))
