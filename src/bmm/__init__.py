"""Training-set search by bipartite matching of target modes against a
hierarchical feature-space data server."""

__version__ = "0.1.0"

from .clustering import FlatClustering, fit_balanced_kmeans, fit_kmeans
from .errors import (
    BmmError,
    FormatError,
    InfeasibleMatchError,
    InsufficientSamplesError,
    NumericalError,
    ParameterError,
    TreeFormatError,
    ValidationError,
)
from .features import (
    FeatureMatrix,
    Manifest,
    read_features,
    read_manifest,
    write_features,
    write_manifest,
)
from .gap import ModeStats, fid, gaussian_stats
from .hierarchy import ModeNode, ModeTree, build_hierarchy, load_tree, persist_tree
from .matching import (
    Assignment,
    SelectionResult,
    direct_match,
    select_training_set,
    solve_assignment,
)
from .pipeline import (
    build_server_tree,
    evaluate_gap,
    match_modes,
    run_bench,
    run_match,
)
from .pruning import Budget, prune
from .synth import (
    PlantedWorld,
    SubMode,
    SuperMode,
    TargetMode,
    WorldTruth,
    align_truth,
    generate,
    load_world,
    matching_precision,
    save_world,
)

__all__ = [
    "Assignment",
    "BmmError",
    "Budget",
    "FeatureMatrix",
    "FlatClustering",
    "FormatError",
    "InfeasibleMatchError",
    "InsufficientSamplesError",
    "Manifest",
    "ModeNode",
    "ModeStats",
    "ModeTree",
    "NumericalError",
    "ParameterError",
    "PlantedWorld",
    "SelectionResult",
    "SubMode",
    "SuperMode",
    "TargetMode",
    "TreeFormatError",
    "ValidationError",
    "WorldTruth",
    "align_truth",
    "build_hierarchy",
    "build_server_tree",
    "direct_match",
    "evaluate_gap",
    "fid",
    "fit_balanced_kmeans",
    "fit_kmeans",
    "gaussian_stats",
    "generate",
    "load_tree",
    "load_world",
    "match_modes",
    "matching_precision",
    "persist_tree",
    "prune",
    "read_features",
    "read_manifest",
    "run_bench",
    "run_match",
    "save_world",
    "select_training_set",
    "solve_assignment",
    "write_features",
    "write_manifest",
]
