"""Polymer models, disorder sampling, and lattice sequences.

A polymer model is built from two finite blocks ("polymers") of lattice
sites, each carrying fixed potential and hopping values. Blocks are laid
head-to-tail along the lattice, each block chosen independently: the plus
polymer with probability p_plus, the minus polymer otherwise.

Realization r of seed s draws its block signs from its own Philox4x64-10
stream, `substream(s, r)`.  The library draws them in the compiled kernels
of `eigensolve`, which derive each stream's key as numpy's SeedSequence does
and reproduce `substream(s, r).random(n) < p_plus` bit for bit.  Every box
is laid out there too, by one compiled routine: `potentials_for_sites_batch`
gives a batch of boxes, one column per realization, and `lattice_for_sites`
one box with the same values.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PolymerSpec",
    "PolymerModel",
    "LatticeSequences",
    "substream",
    "lattice_for_sites",
    "potentials_for_sites_batch",
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
    parallel schedule.  The library draws the same streams in compiled code,
    keyed by `_stream_keys`; this Generator is their public numpy form.
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


def _lay_boxes(model: PolymerModel, num_sites: int, seed: int, realization_indices,
                first, rest, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Boxes laid out from two per-polymer tables in one compiled call, one
    column per realization: the (num_sites, R) entries of `first` and the
    (num_sites - 1, R) entries of `rest` at sites 1 .. num_sites - 1, into
    the C-contiguous float arrays `out` if given, else new ones.  Each table
    holds the plus polymer's site values, then the minus polymer's; the
    kernel only copies them."""
    if num_sites < 1:
        raise ValueError("num_sites must be >= 1")
    from .eigensolve import _kernel  # eigensolve imports this module
    keys = _stream_keys(seed, realization_indices)
    R = len(keys)
    shapes = (num_sites, R), (num_sites - 1, R)
    a, b = (np.empty(shape) for shape in shapes) if out is None else out
    if (a.shape, b.shape) != shapes:
        raise ValueError(f"out must have shapes {shapes}, got {a.shape} and {b.shape}")
    if _kernel().fill_boxes(num_sites, R, keys, model.p_plus, model.plus.length,
                            model.minus.length, first, rest, a, b):
        raise MemoryError("no memory for the box sampler's signs and per-box state")
    return a, b


def lattice_for_sites(model: PolymerModel, num_sites: int, seed: int,
                      realization_index: int = 0) -> LatticeSequences:
    """Finite box of exactly `num_sites` sites (last block truncated).

    Block n is the plus polymer where draw n of the realization's substream
    is below p_plus; the blocks are laid from the origin.  The compiled
    layout of potentials_for_sites_batch runs twice, once with the
    potentials first and once with the hoppings first (t(0) included), so
    the values are bit for bit that batch's column.
    """
    pv = np.concatenate([model.plus.potentials, model.minus.potentials])
    pt = np.concatenate([model.plus.hoppings, model.minus.hoppings])
    v = _lay_boxes(model, num_sites, seed, [realization_index], pv, pt)[0][:, 0]
    t = _lay_boxes(model, num_sites, seed, [realization_index], pt, pv)[0][:, 0]
    return LatticeSequences(potentials=v, hoppings=t, num_sites=num_sites)


def potentials_for_sites_batch(model: PolymerModel, num_sites: int, seed: int,
                               realization_indices, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Potentials and squared hoppings of boxes, one column per realization.

    Returns (v, tsq) with shapes (num_sites, R) and (num_sites - 1, R), the
    two arrays every sweep reads: column r holds the potentials and the
    squared hoppings t(1)^2 .. t(L-1)^2 of box indices[r], the values of
    lattice_for_sites(model, num_sites, seed, indices[r]).  One compiled call
    draws every realization's signs and lays its blocks, into the
    C-contiguous float pair `out` if given (which is returned).
    """
    pv = np.concatenate([model.plus.potentials, model.minus.potentials])
    ptsq = np.concatenate([model.plus.hoppings, model.minus.hoppings]) ** 2
    return _lay_boxes(model, num_sites, seed, realization_indices, pv, ptsq, out)


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
