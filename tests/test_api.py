"""The top-level package: what ``from tpais import *`` hands out."""

import tpais
from tpais import bench, tree


def test_every_exported_name_resolves():
    assert [name for name in tpais.__all__ if not hasattr(tpais, name)] == []
    assert len(set(tpais.__all__)) == len(tpais.__all__)


def test_internal_names_stay_in_their_modules():
    # callers get Node handles from the tree and never build result rows
    for module, name in ((tree, "Node"), (tree, "DEFAULT_MAX_DEPTH"),
                         (bench, "ResultRow"),
                         (bench, "DEFAULT_SAMPLE_COUNTS")):
        assert hasattr(module, name) and name not in tpais.__all__
