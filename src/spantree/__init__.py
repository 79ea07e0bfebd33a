"""Embedding spanning oriented trees in dense digraphs.

A library implementing a randomized, always-verified pipeline that embeds
oriented trees with bounded in-/out-degree into digraphs whose minimum
semidegree exceeds half the host size: guide-set steered random core
embeddings, skew-bounded bipartite matchings, a nested tree decomposition,
connector-buffer path attachment, and switching-based absorption for the
spanning endgame.
"""

from .digraph import (
    Digraph,
    Sign,
    check_inherited_degree,
    gen_semidegree_digraph,
    min_semidegree,
    sample_disjoint_subsets,
)
from .decompose import TreeDecomposition, check_decomposition, decompose
from .embedder import (
    AbsorberState,
    PhaseFailure,
    build_absorber,
    complete_absorption,
    embed_almost_spanning,
    embed_spanning,
    embed_stars,
    attach_path_trees,
    embed_core_with_leaf_sets,
)
from .embedding import Embedding, PipelineError
from .guides import GuideEntry, GuideSystem, PackedGuide, XYLabeling, build_guide, build_xy_labeling
from .matching import embed_small_forest, embed_tree_copies
from .oracle import TrialConfig, TrialReport, run_trials, verify_embedding
from .params import ParamSchedule, spanning_defaults
from .trees import (
    OrientedTree,
    PrefixOrdering,
    find_independent_leaves,
    gen_random_tree,
    max_semidegree,
    prefix_order,
    split_tree,
)

__version__ = "0.1.0"
