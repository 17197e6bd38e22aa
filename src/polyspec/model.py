"""Polymer models, disorder sampling, and lattice sequences.

A polymer model is built from two finite blocks ("polymers") of lattice
sites, each carrying fixed potential and hopping values. Blocks are laid
head-to-tail along the lattice, each block chosen independently: the plus
polymer with probability p_plus, the minus polymer otherwise.

Realization r of seed s draws its block signs from its own Philox4x64-10
stream, `substream(s, r)`.  The library draws them in the compiled kernels
of `eigensolve`, which derive each stream's key as numpy's SeedSequence does
and reproduce `substream(s, r).random(n) < p_plus` bit for bit; the boxes of
`potentials_for_sites_batch` are laid out there too.
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
    parallel schedule.  The library draws the same streams in compiled code
    (`_stream_keys`, `_draws_below`); this Generator is their public numpy
    form.
    """
    ss = np.random.SeedSequence(entropy=int(seed) % 2**64,
                                spawn_key=(int(realization_index),))
    return np.random.Generator(np.random.Philox(ss))


def _stream_keys(seed: int, realization_indices) -> np.ndarray:
    """(R, 2) uint64 Philox keys of the realizations' substreams, derived
    in one compiled call."""
    from .eigensolve import _kernel  # eigensolve imports this module
    idx = [int(r) for r in realization_indices]
    if any(r < 0 for r in idx):  # a negative numpy integer would wrap to uint64
        raise ValueError("realization indices must be >= 0")
    idx = np.array(idx, dtype=np.uint64)
    keys = np.empty((idx.size, 2), dtype=np.uint64)
    _kernel().stream_keys(idx.size, int(seed) % 2**64, idx, keys)
    return keys


def _draws_below(seed: int, realization_indices, p: float, count: int,
                 start: int = 0) -> np.ndarray:
    """(R, count) bool: whether draws start .. start + count - 1 of each
    realization's substream are below p, bit for bit
    substream(seed, r).random(start + count)[start:] < p."""
    from .eigensolve import _kernel
    keys = _stream_keys(seed, realization_indices)
    below = np.empty((len(keys), count), dtype=bool)
    _kernel().stream_below(len(keys), keys, start, count, p, below)
    return below


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
    def gershgorin_bound(self) -> tuple[float, float]:
        """[min v - 2 max t, max v + 2 max t] over both polymers, which holds
        the spectrum of every box."""
        v = np.concatenate([self.plus.potentials, self.minus.potentials])
        t = max(self.plus.hoppings.max(), self.minus.hoppings.max())
        return float(v.min() - 2 * t), float(v.max() + 2 * t)

    @property
    def spectrum_bracket(self) -> tuple[float, float]:
        """gershgorin_bound padded by 5% of its width on each side, so that
        [a, b) holds every eigenvalue of every box and every critical energy."""
        bottom, top = self.gershgorin_bound
        pad = 0.05 * (top - bottom)
        return bottom - pad, top + pad


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
    signs = _draws_below(seed, [realization_index], model.p_plus, num_blocks)[0]
    lengths = np.where(signs, model.plus.length, model.minus.length)
    nodes = np.concatenate([[0], np.cumsum(lengths)])
    return Configuration(signs=signs, nodes=nodes, seed=int(seed),
                         realization_index=int(realization_index))


def build_sequences(model: PolymerModel, config: Configuration) -> LatticeSequences:
    """Concatenate per-block potential/hopping tuples in block order."""
    lengths = np.where(config.signs, model.plus.length, model.minus.length)
    if not np.array_equal(np.diff(config.nodes), lengths):
        raise ValueError("configuration nodes are inconsistent with model polymer lengths")
    # site i of block n is entry first[n] + i of the polymers' joined tables
    first = np.where(config.signs, 0, model.plus.length)
    at = np.arange(config.num_sites) + np.repeat(first - config.nodes[:-1], lengths)
    v = np.concatenate([model.plus.potentials, model.minus.potentials])[at]
    t = np.concatenate([model.plus.hoppings, model.minus.hoppings])[at]
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
    """Potentials and squared hoppings of boxes, one column per realization.

    Returns (v, tsq) with shapes (num_sites, R) and (num_sites - 1, R), the
    two arrays every sweep reads: column r is bit for bit the potentials and
    squared hoppings t(1)^2 .. t(L-1)^2 of lattice_for_sites(model,
    num_sites, seed, indices[r]).  One compiled call draws every
    realization's signs and lays its blocks.
    """
    if num_sites < 1:
        raise ValueError("num_sites must be >= 1")
    from .eigensolve import _kernel
    keys = _stream_keys(seed, realization_indices)
    R = len(keys)
    v, tsq = np.empty((num_sites, R)), np.empty((num_sites - 1, R))
    pv = np.concatenate([model.plus.potentials, model.minus.potentials])
    ptsq = np.concatenate([model.plus.hoppings, model.minus.hoppings]) ** 2
    if _kernel().fill_boxes(num_sites, R, keys, model.p_plus, model.plus.length,
                            model.minus.length, pv, ptsq, v, tsq):
        raise MemoryError("no memory for the box sampler's signs and per-box state")
    return v, tsq


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
