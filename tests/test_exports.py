"""The package's public names."""

import treecast

DELETED = ("FiniteGraph", "enumerate_independent_sets", "HardCoreMeasure",
           "hardcore_measure", "TreeIndex", "truncated_tree",
           "gibbs_conditional_check", "BroadcastSample", "sample_broadcast",
           "llr_from_posterior", "kesten_stigum_symmetric", "NotInterior",
           "HardCoreParams", "DominanceViolation", "BoundsReport")


def test_all_names_resolve_once_and_deleted_names_are_gone():
    names = treecast.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(treecast, name), name
    for name in DELETED:
        assert name not in names and not hasattr(treecast, name), name
