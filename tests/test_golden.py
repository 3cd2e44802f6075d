"""Golden regression digests of seeded sampler runs and densities.

Each sampler case hashes the returned samples and weights, the serialized final
tree, the standard and deterministic-mixture ``leaf_sample_set`` weights
and a seeded ``evidence_from_tree`` estimate. The digests were recorded
before the tree moved to an array-backed store; any change to the
algorithm's arithmetic or random-number consumption shows up here. The
seven deterministic-mixture ("-dm-") digests were re-recorded when those
weights moved out of the sampling loop: the tree now keeps standard
weights whatever the weighting, and the returned set is weighed once,
against the components that drew it. The
"-wide" cases use half-widths whose radii are not powers of two, chosen
so that NumPy's vectorized ``**`` and Python's ``**`` round their
``radius**K`` factors differently.

Eleven digests were re-recorded when the standard ``leaf_sample_set``
weights became the stored ``weight`` column instead of a recomputation:
the six Gaussian cases ("1d-gauss-std-max", "1d-gauss-std-max-resample",
"2d-gauss-dm-max", "2d-gauss-dm-mix-wide", "2d-gauss-std-max",
"2d-gauss-std-mix"), the three uniform "-wide" cases ("2d-std-max-wide",
"2d-std-max-resample-wide", "3d-dm-mix-wide") and the two "tpais-gauss"
benchmark rows. The stored weight takes the drawn ``z`` and NumPy's
``**``, where the recomputation took ``(x - c) / r`` and Python's ``**``,
so only the last bits of those weights moved (at most 4e-14 relative),
and with them the N-ESS of the rows. Every other part of those digests
kept its value.

The density cases pin the other users of the Gaussian kernel sum: KDE
densities over more query points than one tile holds, DM-PMC draws,
weights and final locations, and the N-ESS, JSD and evidence error of
benchmark rows. They were recorded before the three densities shared one
kernel sum.

Fourteen digests were re-recorded when that sum became one weighted sum
added in center order over pruned tiles: the six Gaussian sampler cases
("-gauss-"), the three KDE densities, the three DM-PMC runs and the two
"pmc-dm" benchmark rows. Each caller's normalization became a weight
inside the sum, and each point's terms are now added one center at a
time, where the mixture took a BLAS matrix-vector product, the KDE a
pairwise row sum and DM-PMC a mean. Every kernel value kept its bits;
the sums moved in their last bits only: at most 1.0e-15 relative in the
Gaussian sampler cases (DM weights and evidence; samples and trees kept
their bits), 2.9e-15 in the KDE densities, 1.4e-15 in the DM-PMC weights
(samples and locations kept their bits) and 2.0e-16 in the rows.

Five digests were re-recorded when each point's kernel sum began to drop
the terms more than 40 below its largest log-term: "2d-gauss-dm-mix-wide",
"2d-gauss-std-max" and "2d-gauss-std-mix" (their DM weights moved by at
most 1.9e-16 relative, in 1 or 2 of 115-151 values; samples, trees,
standard weights and evidence kept their bits) and the 2D and 3D KDE
densities (at most 2.1e-16 and 2.5e-16, in 10 and 63 of 5000 values).
The 1D KDE, the DM-PMC runs and every benchmark row kept their bits.

"2d-gauss-std-mix-resample" and "3d-std-max-resample" were recorded
before the resampled loop stopped evaluating the rows that the next
listing redraws; they pin that the skipped draws keep their place in the
random stream for the Gaussian kernel, the mixture draw and 3D.

The eight mixture-draw ("-mix") digests were re-recorded when that draw
became an exponential race: "1d-std-mix", "2d-std-mix", "3d-dm-mix",
"3d-dm-mix-wide", "2d-dm-mix-resample", "2d-gauss-std-mix",
"2d-gauss-std-mix-resample" and "2d-gauss-dm-mix-wide". Each split now
takes one standard exponential per new row (or per listed leaf) where it
took one uniform, so the random stream of those runs moved, and with it
their trees and samples; the law each split is drawn from stayed the
same. Every other digest kept its value. In "2d-gauss-std-mix" the root's
draw has rate 5.9e-18 and its children up to 0.031, so the first pop
moves the race clock about 1e16 times past their arrivals; the digest was
re-recorded once more when the clock began to restart at zero there,
before ``now + t`` rounds the new arrivals away.
"""

import hashlib

import numpy as np
import pytest

from conftest import serialize_tree
from tpais.baselines import PMCConfig, run_pmc
from tpais.bench import ExperimentSpec, derive_seed, run_single
from tpais.metrics import KDEModel
from tpais.proposal import Kernel
from tpais.sampler import (NodeSelection, SamplerConfig, Weighting,
                           evidence_from_tree, leaf_sample_set, run_tp_ais)
from tpais.targets import make_gmm5_target
from tpais.tree import DomainBounds

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
    "3d-std-max-resample": (3, 64, UNI, STD, MAX, True),
    "1d-gauss-std-max": (1, 200, GAU, STD, MAX, False),
    "2d-gauss-std-max": (2, 200, GAU, STD, MAX, False),
    "2d-gauss-dm-max": (2, 150, GAU, DM, MAX, False),
    "2d-gauss-std-mix": (2, 150, GAU, STD, MIX, False),
    "1d-gauss-std-max-resample": (1, 48, GAU, STD, MAX, True),
    "2d-gauss-std-mix-resample": (2, 48, GAU, STD, MIX, True),
    "2d-std-max-wide": (2, 200, UNI, STD, MAX, False, 1.051767),
    "3d-dm-mix-wide": (3, 150, UNI, DM, MIX, False, 1.051767),
    "2d-std-max-resample-wide": (2, 48, UNI, STD, MAX, True, 1.051767),
    "2d-gauss-dm-mix-wide": (2, 150, GAU, DM, MIX, False, 1.056174),
}

GOLDEN = {
    "1d-dm-max":
        "0f390fb49f049863a97dfefc19e02825f50160578bf9ea2c11b9949337d0b319",
    "1d-gauss-std-max":
        "ce7c5c5374a678af029771f1b50f34e88b2ea4d022d49027ae81e011e43118c1",
    "1d-gauss-std-max-resample":
        "04912999c190da80280db7a30db1ef7104dedae21a036265f1ca7551b074d672",
    "1d-std-max":
        "5930debdc289b86e2d325eac5626de3177a505aed21e9f988b74d6b985b317ab",
    "1d-std-max-resample":
        "35f88bb5c59531ef05ba38df373271df3f5e443e14bc51bdb91482b920510b65",
    "1d-std-mix":
        "443317b68e61147c0207c79f7bcd7e4f3a7633145ba7536efc9572c94eebe0e7",
    "2d-dm-max":
        "7b6f9a2336219073d8a3d93ec463656af54d3aa50996c7955d0e799d12e2e7ff",
    "2d-dm-mix-resample":
        "50552b804b867e86d08065f480df786bffb12289e1fda7a72fecc0caba8951f6",
    "2d-gauss-dm-max":
        "9beb58f51db9a1bb852582e44808bf09ff7792843ad0c4bfdcf134aac2f55735",
    "2d-gauss-dm-mix-wide":
        "f8f9dc47ef35b2980d9e0f90e74ff8d29003ad82ac4dba8828a5d24d102808c6",
    "2d-gauss-std-max":
        "b396c6fd631268f4bef623a1dbbc8fe1908e6573b1e26c6346687d19b0c32cee",
    "2d-gauss-std-mix":
        "93676125476afee4dc0d612d5a65987fba83aaf08d9ba0eeb9f1129709add94a",
    "2d-gauss-std-mix-resample":
        "3c0e1c5c8c36e20ad9d144e0d4d93e642119d6411e5e5b212bcac8b50065c2ca",
    "2d-std-max":
        "336c5220f3c4b3b44571077804ffb0977ebc719abbed3714c1b7acfe8e7353ee",
    "2d-std-max-resample":
        "f87247fed80832a62874600d5b8d2ea48237b5d8fc846280a2035279431387e1",
    "2d-std-max-resample-wide":
        "9ed34dc2c03e5ed029e4dabab6343254e67251f0f241d48b9f9096fe1120441d",
    "2d-std-max-wide":
        "06bec4b0cd1b66b4bda511b4040a1b4288634c56f5dd6d80d69658a4253ca45f",
    "2d-std-mix":
        "10219a5d5d860b0c5c6a75e7dff4292806459845e26dc87c54b593db77ef7b7d",
    "3d-dm-mix":
        "515da0b68c099b600f863b36d5f1fe64110977b989ad5f00feeea89d9a0eb6ff",
    "3d-dm-mix-wide":
        "bf6176eb9ee2f80c0a112155739faf92e1f4355b89f376e04afeaa58e6f49f2d",
    "3d-std-max":
        "172a11733f660159de47876b470dd200f0451aad195027c237e3fea5b8b75331",
    "3d-std-max-resample":
        "6638a4bb53660432c0b22ecd7950c6539679297ace6f6da0b33930b6647765f3",
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
        "b2427722edbf71534800d9b6d4b884b11d8ada3d0d5df577e71d22cda51aeec3",
    2:
        "7536e3d5606fe485a0f45bedaa1aabe7370f1f65cd86bf0e2a9a406e97e9424c",
    3:
        "20a5d43960e86075f8c955288c0c722c44eaf20a33d17735f20ccbd812f90099",
}


@pytest.mark.parametrize("dims", sorted(KDE_GOLDEN))
def test_golden_kde_density(dims):
    # 5000 queries span 79 tiles of 64 points against 1000 model points
    rng = np.random.default_rng(derive_seed(5150, "kde", dims))
    model = KDEModel(rng.normal(0.0, 0.4, size=(1000, dims)), bandwidth=0.07)
    query = rng.uniform(-1.0, 1.0, size=(5000, dims))
    assert _digest(model.density(query).tobytes()) == KDE_GOLDEN[dims]


PMC_DM_GOLDEN = {
    1:
        "6b0140a409a67673cbf7b4101470903a2b8ecf89fdaee7c1b11b5d015178167f",
    2:
        "6da81ac63b518a4b9eec8b5311636d342dfb972d9b85e1ebb490d3c9f7c40355",
    3:
        "46579359c31809d72f2a0e23ee311870a0630e8fb185af6a02c8a6422b64c26f",
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
        "26da8e7f62df4c56f97114652198b091f8751b602a6a51b792cd14af68d2b2b5",
    ("pmc-dm", 2):
        "b6f7e529d131bdc38d5ddd4e1a274b28fcebcc4770ddf69390bb5ed93674df44",
    ("tpais-gauss", 1):
        "920087953fa8b35ab872bc4adbf0862df469dead76423f066fe0bd88d2e6bc12",
    ("tpais-gauss", 2):
        "fe7857964ad53ff8a8e454fc7ac0f06f6ee8ad0b60e15a8824ff7569f82e9938",
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
