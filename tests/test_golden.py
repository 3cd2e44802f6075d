"""Golden regression digests of seeded sampler runs and densities.

Each sampler case hashes the returned samples and weights, the serialized final
tree, the standard and deterministic-mixture ``leaf_sample_set`` weights
and a seeded ``evidence_from_tree`` estimate. The digests were recorded
before the tree moved to an array-backed store; any change to the
algorithm's arithmetic or random-number consumption shows up here. The
"-wide" cases use half-widths whose radii are not powers of two, chosen
so that NumPy's vectorized ``**`` and Python's ``**`` round their
``radius**K`` factors differently.

The density cases pin the other users of the blocked Gaussian kernel sum:
KDE densities over more query points than one block holds, DM-PMC draws,
weights and final locations, and the N-ESS, JSD and evidence error of
benchmark rows. They were recorded before the three densities shared one
kernel sum.
"""

import hashlib

import numpy as np
import pytest

from tpais.baselines import PMCConfig, run_pmc
from tpais.bench import ExperimentSpec, derive_seed, run_single
from tpais.metrics import kde_fit
from tpais.proposal import Kernel
from tpais.sampler import (NodeSelection, SamplerConfig, Weighting,
                           evidence_from_tree, leaf_sample_set, run_tp_ais)
from tpais.targets import make_gmm5_target
from tpais.tree import DomainBounds, serialize_tree

STD = Weighting.STANDARD
DM = Weighting.DETERMINISTIC_MIXTURE
MAX = NodeSelection.MAX_EVIDENCE
MIX = NodeSelection.MIXTURE_DRAW
UNI = Kernel.UNIFORM
GAU = Kernel.GAUSSIAN

# name -> (dims, n_samples, kernel, weighting, selection, resample_leaves
#          [, domain half-width])
CASES = {
    "1d-std-max": (1, 300, UNI, STD, MAX, False),
    "2d-std-max": (2, 300, UNI, STD, MAX, False),
    "3d-std-max": (3, 300, UNI, STD, MAX, False),
    "1d-dm-max": (1, 200, UNI, DM, MAX, False),
    "2d-dm-max": (2, 200, UNI, DM, MAX, False),
    "1d-std-mix": (1, 200, UNI, STD, MIX, False),
    "2d-std-mix": (2, 300, UNI, STD, MIX, False),
    "3d-dm-mix": (3, 200, UNI, DM, MIX, False),
    "1d-std-max-resample": (1, 64, UNI, STD, MAX, True),
    "2d-std-max-resample": (2, 64, UNI, STD, MAX, True),
    "2d-dm-mix-resample": (2, 40, UNI, DM, MIX, True),
    "1d-gauss-std-max": (1, 200, GAU, STD, MAX, False),
    "2d-gauss-std-max": (2, 200, GAU, STD, MAX, False),
    "2d-gauss-dm-max": (2, 150, GAU, DM, MAX, False),
    "2d-gauss-std-mix": (2, 150, GAU, STD, MIX, False),
    "1d-gauss-std-max-resample": (1, 48, GAU, STD, MAX, True),
    "2d-std-max-wide": (2, 200, UNI, STD, MAX, False, 1.051767),
    "3d-dm-mix-wide": (3, 150, UNI, DM, MIX, False, 1.051767),
    "2d-std-max-resample-wide": (2, 48, UNI, STD, MAX, True, 1.051767),
    "2d-gauss-dm-mix-wide": (2, 150, GAU, DM, MIX, False, 1.056174),
}

GOLDEN = {
    "1d-dm-max":
        "acea95f982191ea99c70472b3a0ee37d0df9349e7817f70e2ab6759204d8a967",
    "1d-gauss-std-max":
        "ca535a85e897e59fbe3e65e1fc74107f9dbe949ea4c69557e32f3604e6b8b36f",
    "1d-gauss-std-max-resample":
        "1f2a9aa4a14b593c471c127c1cdc81694117073ccb6423dac5ab59d4b825e55a",
    "1d-std-max":
        "5930debdc289b86e2d325eac5626de3177a505aed21e9f988b74d6b985b317ab",
    "1d-std-max-resample":
        "35f88bb5c59531ef05ba38df373271df3f5e443e14bc51bdb91482b920510b65",
    "1d-std-mix":
        "b5a08b6f860d55c05330dc7f5c77cc4a40a2d7b27dfd550fc14bba4ce3e6830d",
    "2d-dm-max":
        "206a1e41b40346f37bdb9bc634d2bfd28010c222648b7c4f73513b6456da4c90",
    "2d-dm-mix-resample":
        "46a367507083e721cb37d591e9335d86e047efd47ef3b490b98e7bb1dc843892",
    "2d-gauss-dm-max":
        "792908687a85a44deb5237e7dbd5064d5fc69fea530bd507fcacb197dfbb2208",
    "2d-gauss-dm-mix-wide":
        "8a168fba9cefd94bcdde7bdf5d0e696978617c661f9238b1132d384e3f286e1b",
    "2d-gauss-std-max":
        "2193d660025a4a0b6988cae0555722a19ceec99eb356552e7288c152186eae64",
    "2d-gauss-std-mix":
        "6457731bd04062711eae4ad4326f4382a6a4d432d9a48beb7efbbcba78640233",
    "2d-std-max":
        "336c5220f3c4b3b44571077804ffb0977ebc719abbed3714c1b7acfe8e7353ee",
    "2d-std-max-resample":
        "f87247fed80832a62874600d5b8d2ea48237b5d8fc846280a2035279431387e1",
    "2d-std-max-resample-wide":
        "ebecf6b497ce1ccf674b795fbd189d1780e0cffebe56ea3632547279a01fc3d4",
    "2d-std-max-wide":
        "f29fbc165aa33e703929e6eb7a5e98b756b6fc6ed078b4f697d2ad9802ae3f52",
    "2d-std-mix":
        "3b497f683bf80c1d65847e2c928c5597f9b30aca37ac590ce3d494c458b290e9",
    "3d-dm-mix":
        "b880ff3f8ba9eb7445e523593dcad342ddce977fa3bbece2983effffb6326f47",
    "3d-dm-mix-wide":
        "1e4bf050ec48e34f18bb30845d7f459dfc2ad80db87fd8ad9c9557b9592aa7b9",
    "3d-std-max":
        "172a11733f660159de47876b470dd200f0451aad195027c237e3fea5b8b75331",
}


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
        h.update(b"\0")
    return h.hexdigest()


def case_digest(name: str) -> str:
    dims, n, kernel, weighting, selection, resample, *half_width = CASES[name]
    target = make_gmm5_target(
        np.random.default_rng(derive_seed(5150, "target", name)), dims)
    bounds = DomainBounds.centered(dims, *half_width)
    config = SamplerConfig(dims=dims, n_samples=n, bounds=bounds,
                           kernel=kernel, weighting=weighting,
                           node_selection=selection, resample_leaves=resample,
                           seed=derive_seed(5150, "run", name))
    result = run_tp_ais(target, config)
    std = leaf_sample_set(result.tree, kernel, STD)
    dm = leaf_sample_set(result.tree, kernel, DM)
    evidence = evidence_from_tree(
        target, result.tree, kernel,
        np.random.default_rng(derive_seed(5150, "evidence", name)))
    return _digest(result.sample_set.samples.tobytes(),
                   result.sample_set.weights.tobytes(),
                   serialize_tree(result.tree).encode(),
                   std.samples.tobytes(), std.weights.tobytes(),
                   dm.weights.tobytes(), repr(evidence).encode())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    assert case_digest(name) == GOLDEN[name]


KDE_GOLDEN = {
    1:
        "d2350e957003dd9e0addc1ce7c476a119de49d1c0b6facb4b046c253db404e91",
    2:
        "92e106c83fcf4af0a574bcccc1966cc4b5bc94688e8091c899abead78dfc7234",
    3:
        "0649a1e90e3aa4c7d2d0343b61701c061d04cb5b6bafef03ec4988b3a6489074",
}


@pytest.mark.parametrize("dims", sorted(KDE_GOLDEN))
def test_golden_kde_density(dims):
    # 1000 model points give blocks of 4194 rows, so 5000 queries span two
    rng = np.random.default_rng(derive_seed(5150, "kde", dims))
    model = kde_fit(rng.normal(0.0, 0.4, size=(1000, dims)), bandwidth=0.07)
    query = rng.uniform(-1.0, 1.0, size=(5000, dims))
    assert _digest(model(query).tobytes()) == KDE_GOLDEN[dims]


PMC_DM_GOLDEN = {
    1:
        "41402c4d1073442efbc8c5af2726f386c983d3a147d94f36dcc08f50e96ae3f5",
    2:
        "ad486e15ec712537b9ac4b913e34a7aeef8e2cf9d22e9ecaed17ae979521a726",
    3:
        "09b160af125ff9cdaad319f2b0fe60b4a1a78f8044ec23cd98d611740c2b5dbd",
}


@pytest.mark.parametrize("dims", sorted(PMC_DM_GOLDEN))
def test_golden_pmc_dm(dims):
    target = make_gmm5_target(
        np.random.default_rng(derive_seed(5150, "target", "pmc", dims)), dims)
    config = PMCConfig(dims=dims, population_size=64, iterations=6,
                       dm_weights=True, seed=derive_seed(5150, "pmc", dims))
    sample_set, locations = run_pmc(target, config)
    assert _digest(sample_set.samples.tobytes(), sample_set.weights.tobytes(),
                   locations.tobytes()) == PMC_DM_GOLDEN[dims]


ROW_GOLDEN = {
    ("mh", 1):
        "c6c0a5d6a1b49821deaba5398fa7f5ede3d2545f4f3844f1831d3300a4e1a6ed",
    ("mh", 2):
        "ced116981726a430122d932a8614611315c12b55bc34bfd2f757756e5b224e60",
    ("pmc-dm", 1):
        "2f19b5d4ab14a14087a4b6817eebf4a2b425e926f77496efacd0169b79d0d795",
    ("pmc-dm", 2):
        "9e97d7151e7daa673681bf8d89806d5d85540b281bbc77980582fcb341f46bd2",
    ("tpais-gauss", 1):
        "1880705b19b9dac8da7023cec528db292fde8fd57f9a3c742d4105f924a6d1d1",
    ("tpais-gauss", 2):
        "9eb0b9bfddcd71cd7132a6550c87026113f63b9ce67a42fd2d73af320c913626",
}


@pytest.mark.parametrize("method,dims", sorted(ROW_GOLDEN))
def test_golden_run_single_row(method, dims):
    spec = ExperimentSpec(methods=(method,), families=("gmm5",), dims=(dims,),
                          sample_counts=(96,), trials=1, base_seed=5150,
                          jsd_points=5000)
    row = run_single(spec, method, "gmm5", dims, 96, 0)
    assert row.error is None
    values = repr((row.ness, row.jsd, row.evidence_mse)).encode()
    assert _digest(values) == ROW_GOLDEN[(method, dims)]
