import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polyspec.eigensolve import _kernel
from polyspec.model import (PolymerSpec, PolymerModel, lattice_for_sites,
                            dimer_preset, anderson_preset, model_from_dict,
                            model_to_dict, substream, potentials_for_sites_batch,
                            _stream_keys)

from conftest import explicit_models


def draws_below(seed, realization_indices, p, count, start=0):
    """(R, count) bool from the compiled stream: whether draws start ..
    start + count - 1 of each realization's substream are below p."""
    keys = _stream_keys(seed, realization_indices)
    below = np.empty((len(keys), count), dtype=bool)
    _kernel().stream_below(len(keys), keys, start, count, p, below)
    return below


def box_oracle(model, num_sites, seed, realization_index):
    """(potentials, hoppings) of one box laid in numpy from the signs of
    `substream`: the reference for the compiled layout, sharing no code with it."""
    # enough blocks to cover num_sites were every block the shorter polymer
    num_blocks = num_sites // min(model.plus.length, model.minus.length) + 1
    signs = substream(seed, realization_index).random(num_blocks) < model.p_plus
    lengths = np.where(signs, model.plus.length, model.minus.length)
    starts = np.cumsum(lengths) - lengths
    # site i of block n is entry first[n] + i of the polymers' joined tables
    first = np.where(signs, 0, model.plus.length)
    at = (np.arange(lengths.sum()) + np.repeat(first - starts, lengths))[:num_sites]
    return (np.concatenate([model.plus.potentials, model.minus.potentials])[at],
            np.concatenate([model.plus.hoppings, model.minus.hoppings])[at])


def assert_matches_oracle(model, L, seed, indices):
    """Every column of the batch and every single box, bit for bit the oracle's."""
    v, tsq = potentials_for_sites_batch(model, L, seed, indices)
    assert v.shape == (L, len(indices)) and tsq.shape == (L - 1, len(indices))
    for j, r in enumerate(indices):
        want_v, want_t = box_oracle(model, L, seed, r)
        seq = lattice_for_sites(model, L, seed, r)
        assert seq.potentials.tobytes() == want_v.tobytes()
        assert seq.hoppings.tobytes() == want_t.tobytes()
        assert v[:, j].tobytes() == want_v.tobytes()
        assert tsq[:, j].tobytes() == (want_t[1:] ** 2).tobytes()


def test_dimer_preset_values():
    m = dimer_preset(0.5, 0.5)
    assert m.plus.length == 2 and m.minus.length == 2
    assert np.allclose(m.plus.potentials, [0.5, 0.5])
    assert np.allclose(m.minus.potentials, [-0.5, -0.5])
    assert np.allclose(m.plus.hoppings, [1.0, 1.0])


def test_dimer_preset_boundary_and_range():
    dimer_preset(1.0, 0.5)  # boundary V=1 accepted
    with pytest.raises(ValueError):
        dimer_preset(1.5, 0.5)
    with pytest.raises(ValueError):
        dimer_preset(0.0, 0.5)


def test_anderson_preset():
    m = anderson_preset(1.0, 0.5)
    assert m.plus.length == 1 and np.allclose(m.plus.potentials, [1.0])
    free = anderson_preset(0.0, 0.5)
    assert np.allclose(free.plus.potentials, free.minus.potentials)
    m2 = anderson_preset(0.7, 0.3)
    assert m2.p_plus == 0.3 and m2.p_minus == 0.7


def test_degenerate_probability_rejected():
    with pytest.raises(ValueError):
        dimer_preset(0.5, 1.0)
    with pytest.raises(ValueError):
        dimer_preset(0.5, 0.0)
    with pytest.raises(ValueError):
        anderson_preset(0.5, -0.1)


def test_polymer_spec_invariants():
    with pytest.raises(ValueError):
        PolymerSpec(2, [1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        PolymerSpec(2, [1.0, 1.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        PolymerSpec(0, [], [])


def test_nodes_dimer():
    # every dimer block is two sites of one potential, the plus one where the
    # realization's draw is below p_plus
    m = dimer_preset(0.5, 0.5)
    seq = lattice_for_sites(m, 6, seed=1)
    signs = substream(1, 0).random(3) < m.p_plus
    assert np.array_equal(seq.potentials, np.repeat(np.where(signs, 0.5, -0.5), 2))


def test_nodes_unequal_lengths():
    # L+ = 2, L- = 3, signs (-, +, -) -> nodes (0, 3, 5, 8)
    m = PolymerModel(plus=PolymerSpec(2, [1.0, 1.0], [1.0, 1.0]),
                     minus=PolymerSpec(3, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
                     p_plus=0.5)
    for seed in range(50):
        if np.array_equal(substream(seed, 0).random(3) < 0.5, [False, True, False]):
            seq = lattice_for_sites(m, 8, seed=seed)
            assert np.array_equal(seq.potentials, [0, 0, 0, 1, 1, 0, 0, 0])
            return
    pytest.fail("sign pattern (-,+,-) never sampled in 50 seeds")


def test_build_sequences_dimer():
    m = dimer_preset(0.5, 0.5)
    for seed in range(50):
        if np.array_equal(substream(seed, 0).random(2) < 0.5, [True, False]):
            seq = lattice_for_sites(m, 4, seed=seed)
            assert np.allclose(seq.potentials, [0.5, 0.5, -0.5, -0.5])
            assert np.allclose(seq.hoppings, [1.0, 1.0, 1.0, 1.0])
            return
    pytest.fail("sign pattern (+,-) never sampled")


def test_build_sequences_concatenation_order():
    # L+ = 1 with v=(1), L- = 2 with v=(0,2); signs (-,+) -> v = (0,2,1)
    m = PolymerModel(plus=PolymerSpec(1, [1.0], [1.0]),
                     minus=PolymerSpec(2, [0.0, 2.0], [1.0, 1.0]),
                     p_plus=0.5)
    for seed in range(50):
        if np.array_equal(substream(seed, 0).random(2) < 0.5, [False, True]):
            seq = lattice_for_sites(m, 3, seed=seed)
            assert np.allclose(seq.potentials, [0.0, 2.0, 1.0])
            return
    pytest.fail("sign pattern (-,+) never sampled")


def test_nodes_strictly_increasing_and_cumulative():
    # block n starts where blocks 0..n-1 end: the box is the blocks of the
    # substream's signs joined in order, truncated to num_sites
    rng = np.random.default_rng(0)
    for _ in range(20):
        Lp, Lm = rng.integers(1, 5, size=2)
        m = PolymerModel(plus=PolymerSpec(int(Lp), rng.normal(size=Lp), np.ones(Lp)),
                         minus=PolymerSpec(int(Lm), rng.normal(size=Lm), np.ones(Lm)),
                         p_plus=float(rng.uniform(0.2, 0.8)))
        seed = int(rng.integers(1 << 30))
        blocks = [m.plus if s else m.minus for s in substream(seed, 0).random(40) < m.p_plus]
        v = np.concatenate([b.potentials for b in blocks])
        t = np.concatenate([b.hoppings for b in blocks])
        for L in (v.size, v.size - 1, 40):
            seq = lattice_for_sites(m, L, seed)
            assert seq.potentials.tobytes() == v[:L].tobytes()
            assert seq.hoppings.tobytes() == t[:L].tobytes()


def test_bernoulli_fraction_within_3_sigma():
    p = 0.3
    n = 10 ** 5
    m = dimer_preset(0.5, p)
    v, _ = potentials_for_sites_batch(m, 2 * n, 2024, [0])
    frac = (v[::2, 0] > 0).mean()  # the first site of each block
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(frac - p) < 3 * sigma


def test_sampling_deterministic_and_stream_independent():
    m = dimer_preset(0.6, 0.5)
    a = lattice_for_sites(m, 200, seed=7, realization_index=3)
    b = lattice_for_sites(m, 200, seed=7, realization_index=3)
    assert np.array_equal(a.potentials, b.potentials)
    c = lattice_for_sites(m, 200, seed=7, realization_index=4)
    assert not np.array_equal(a.potentials, c.potentials)


def test_lattice_for_sites_truncates():
    m = dimer_preset(0.5, 0.5)
    seq = lattice_for_sites(m, 7, seed=1)
    assert seq.num_sites == 7 and seq.potentials.shape == (7,)
    whole = lattice_for_sites(m, 8, seed=1)
    assert whole.num_sites == 8
    assert np.array_equal(seq.potentials, whole.potentials[:7])
    for L in (0, -3):
        with pytest.raises(ValueError, match="num_sites must be >= 1"):
            lattice_for_sites(m, L, seed=1)


@settings(max_examples=60)
@given(model=explicit_models(), L=st.integers(1, 60), seed=st.integers(-2 ** 63, 2 ** 64 - 1),
       first=st.sampled_from([0, 10 ** 6 + 3, 2 ** 32 + 5]), R=st.integers(1, 5))
@example(model=dimer_preset(0.6, 0.4), L=31, seed=99, first=2, R=4)
def test_batch_matches_single(model, L, seed, first, R):
    # equal polymer lengths or not, the batch and the single box are the
    # numpy oracle's values
    assert_matches_oracle(model, L, seed, range(first, first + R))


def test_batch_matches_single_unequal_lengths():
    m = PolymerModel(plus=PolymerSpec(1, [0.3], [1.0]),
                     minus=PolymerSpec(3, [-0.1, 0.0, 0.1], [1.0, 2.0, 1.0]),
                     p_plus=0.5)
    assert_matches_oracle(m, 17, 5, range(3))


def test_batch_validates_num_sites_and_indices():
    m = dimer_preset(0.6, 0.5)
    for L in (0, -3):
        with pytest.raises(ValueError, match="num_sites must be >= 1"):
            potentials_for_sites_batch(m, L, 1, range(4))
    v, tsq = potentials_for_sites_batch(m, 5, 1, [])
    assert v.shape == (5, 0) and tsq.shape == (4, 0)
    v, tsq = potentials_for_sites_batch(m, 1, 1, range(3))
    assert v.shape == (1, 3) and tsq.shape == (0, 3)
    for idx in ([-1], np.array([2, -1])):
        with pytest.raises(ValueError, match="realization indices must be >= 0"):
            potentials_for_sites_batch(m, 5, 1, idx)


# seeds and spawn indices of one and of two 32-bit words, and negative seeds
_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, -1, -(2 ** 40) - 7]
_INDICES = [0, 1, 10 ** 6, 10 ** 6 + 7, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 5, 2 ** 64 - 1]


def test_compiled_stream_matches_substream():
    # the key, the block and lane of each draw, and the uniform compared with
    # p, bit for bit against numpy, at every count and at starts off the
    # 4-draw block boundary
    for seed in _SEEDS:
        keys = _stream_keys(seed, _INDICES)
        for index, key in zip(_INDICES, keys):
            ss = np.random.SeedSequence(entropy=seed % 2 ** 64, spawn_key=(index,))
            assert key.tobytes() == ss.generate_state(2, np.uint64).tobytes()
        for count in (0, 1, 3, 4, 5, 2001):
            for start in (0, 1, 6, 4099):
                got = draws_below(seed, _INDICES, 0.3, count, start)
                for row, index in zip(got, _INDICES):
                    want = substream(seed, index).random(start + count)[start:] < 0.3
                    assert row.tobytes() == want.tobytes()


@settings(max_examples=60)
@given(seed=st.integers(-2 ** 63, 2 ** 64 - 1), index=st.integers(0, 2 ** 64 - 1),
       count=st.integers(0, 300), start=st.integers(0, 4099), model=explicit_models())
def test_compiled_draws_match_substream(seed, index, count, start, model):
    want = substream(seed, index).random(start + count)[start:] < model.p_plus
    got = draws_below(seed, [index], model.p_plus, count, start)[0]
    assert got.tobytes() == want.tobytes()


def test_model_dict_roundtrip():
    m = PolymerModel(plus=PolymerSpec(2, [0.1, 0.2], [1.0, 1.5]),
                     minus=PolymerSpec(1, [-0.3], [2.0]),
                     p_plus=0.25)
    m2 = model_from_dict(model_to_dict(m))
    assert m2.p_plus == m.p_plus
    assert np.allclose(m2.plus.potentials, m.plus.potentials)
    assert np.allclose(m2.minus.hoppings, m.minus.hoppings)


def test_model_from_dict_presets_and_errors():
    m = model_from_dict({"preset": "dimer", "V": 0.5, "p": 0.5})
    assert m.plus.length == 2
    with pytest.raises(ValueError, match="anderson"):
        model_from_dict({"preset": "nope", "V": 0.5, "p": 0.5})
    with pytest.raises(ValueError):
        model_from_dict({"plus": {"potentials": [1.0], "hoppings": [1.0]}})


def test_load_model_from_file(tmp_path):
    import json
    from polyspec.model import load_model
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"preset": "anderson", "V": 0.4, "p": 0.6}))
    m = load_model(path)
    assert m.plus.length == 1 and m.p_plus == 0.6
    assert np.allclose(m.minus.potentials, [-0.4])


def test_substream_reproducible():
    a = substream(123, 5).random(10)
    b = substream(123, 5).random(10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, substream(123, 6).random(10))
